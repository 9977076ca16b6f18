from pathlib import Path

import pytest

from gamesight.qoe import WARMUP_INTERVALS
from gamesight.report import (
    QOE_SCHEMA,
    SESSIONS_SCHEMA,
    SchemaError,
    _percentile,
    load_qoe_csv,
    load_sessions_jsonl,
    match_sessions,
    pair_rows,
    role_errors,
    score,
    summarize,
    write_qoe_csv,
    write_sessions_jsonl,
)


def _rows():
    return [
        {
            "ts": 100.0 + i,
            "session_id": "s1",
            "latency_ms": 20.0 if i % 2 == 0 else None,
            "fps": 60.0,
            "fps_band": "high",
            "bitrate_mbps": 18.0,
            "resolution": "hd",
        }
        for i in range(10)
    ]


def test_qoe_csv_roundtrip(tmp_path):
    path = str(tmp_path / "q.csv")
    write_qoe_csv(path, _rows())
    out = load_qoe_csv(path)
    assert out == _rows()
    assert open(path).readline().startswith("# schema=gamesight-qoe/2")


def test_qoe_csv_schema_rejected(tmp_path):
    path = str(tmp_path / "q.csv")
    with open(path, "w") as fh:
        fh.write("# schema=other/9\nts\n1\n")
    with pytest.raises(SchemaError):
        load_qoe_csv(path)


@pytest.mark.parametrize("schema", ["gamesight-qoe/2"])
def test_qoe_csv_reads_both_schemas(tmp_path, schema):
    path = tmp_path / "q.csv"
    write_qoe_csv(str(path), _rows())
    _, body = path.read_text().split("\n", 1)
    path.write_text("# schema=%s\n%s" % (schema, body))
    assert load_qoe_csv(str(path)) == _rows()


def test_qoe_csv_schema_1_refused(tmp_path):
    path = tmp_path / "q.csv"
    write_qoe_csv(str(path), _rows())
    _, body = path.read_text().split("\n", 1)
    path.write_text("# schema=gamesight-qoe/1\n" + body)
    with pytest.raises(SchemaError, match="unexpected qoe schema header"):
        load_qoe_csv(str(path))


def test_qoe_csv_wrong_columns_refused(tmp_path):
    path = tmp_path / "q.csv"
    write_qoe_csv(str(path), _rows())
    schema, header, body = path.read_text().split("\n", 2)
    path.write_text("\n".join([schema, header.replace("fps_band", "band"), body]))
    with pytest.raises(SchemaError, match="unexpected qoe columns"):
        load_qoe_csv(str(path))


def test_qoe_csv_schema_prefix_rejected(tmp_path):
    path = tmp_path / "q.csv"
    write_qoe_csv(str(path), _rows())
    _, body = path.read_text().split("\n", 1)
    path.write_text("# schema=gamesight-qoe/10\n" + body)
    with pytest.raises(SchemaError):
        load_qoe_csv(str(path))


def test_sessions_jsonl_roundtrip(tmp_path):
    path = str(tmp_path / "s.jsonl")
    flow = {"client_ip": "192.0.2.10", "client_port": 40000, "server_ip": "198.51.100.7", "server_port": 49003}
    sessions = [
        {
            "session_id": "s1",
            "client_ip": "192.0.2.10",
            "platform": "gfn",
            "setup": "browser",
            "gameplay_server_ip": "198.51.100.7",
            "gameplay_flows": [{**flow, "proto": "UDP", "role": "video"}],
        },
        {
            "session_id": "s2",
            "platform_session": None,
            "client_ip": "192.0.2.11",
            "platform": "gfn",
            "setup": "browser",
            "gameplay_server_ip": "198.51.100.8",
            "gameplay_flows": [],
        },
    ]
    write_sessions_jsonl(path, sessions)
    assert load_sessions_jsonl(path) == sessions
    # every line is a gameplay: a null gameplay server is refused
    write_sessions_jsonl(path, [{**sessions[1], "gameplay_server_ip": None}])
    with pytest.raises(SchemaError, match="session 1 of .* fields: gameplay_server_ip"):
        load_sessions_jsonl(path)


def test_sessions_jsonl_schema_rejected(tmp_path):
    path = str(tmp_path / "s.jsonl")
    with open(path, "w") as fh:
        fh.write('{"schema": "bogus"}\n')
    with pytest.raises(SchemaError):
        load_sessions_jsonl(path)


def test_readme_names_the_output_schemas():
    # a schema bump that leaves the README's Output schemas section behind fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Output schemas\n", 1)[1].split("\n## ", 1)[0]
    assert '{"schema": "%s"}' % SESSIONS_SCHEMA in section
    assert "# schema=%s" % QOE_SCHEMA in section


def test_percentile_nearest_rank():
    xs = [float(v) for v in range(1, 101)]
    assert _percentile(xs, 0.50) == 50.0
    assert _percentile(xs, 0.90) == 90.0
    assert _percentile(xs, 0.99) == 99.0
    assert _percentile([], 0.5) is None  # written as null, not NaN


def test_summarize_shares_sum_to_one():
    summary = summarize(_rows(), {"s1": "desktop_app"})
    g = summary["groups"]["desktop_app"]
    assert g["seconds"] == 10
    assert sum(g["fps_band_share"].values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(g["resolution_share"].values()) == pytest.approx(1.0, abs=1e-9)
    assert g["latency_ms"]["p50"] == 20.0


def test_summarize_without_setups_groups_all():
    summary = summarize(_rows())
    assert list(summary["groups"]) == ["all"]


def _flow(role, client_port, server_port, proto="UDP"):
    return {
        "role": role,
        "client_ip": "192.0.2.10",
        "client_port": client_port,
        "server_ip": "203.0.113.7",
        "server_port": server_port,
        "proto": proto,
    }


FLOWS = [_flow("gameplay_mgmt", 51000, 322, "TCP"), _flow("down_video", 49005, 47001), _flow("down_audio", 49003, 47002)]


def _manifest(**kw):
    return {
        "platform": "gfn",
        "setup": "desktop_app",
        "client_ip": "192.0.2.10",
        "server_ip": "203.0.113.7",
        "rtt_ms": 20.0,
        "flows": FLOWS,
        "qoe": [{"ts": 100.0 + i, "fps": 60, "bitrate_mbps": 18.0, "resolution": "hd"} for i in range(10)],
        **kw,
    }


def _session(**kw):
    return {
        "session_id": "s1",
        "client_ip": "192.0.2.10",
        "platform": "gfn",
        "setup": "desktop_app",
        "gameplay_server_ip": "203.0.113.7",
        "gameplay_flows": FLOWS,
        **kw,
    }


def test_score_exact_match():
    out = score([_session()], _rows(), [_manifest()])
    assert (out["attempted"], out["failed"], out["failures"]) == (1, 0, [])
    metrics = {"fps_mae": 0.0, "resolution_accuracy": 1.0, "latency_mae_ms": 0.0, "latency_bias_ms": 0.0}
    assert {k: out[k] for k in metrics} == metrics
    assert out["matches"] == [{"client_ip": "192.0.2.10", "session_id": "s1", "problems": [], **metrics}]


def test_pairing_requires_truth():
    with pytest.raises(SchemaError):
        pair_rows(_rows(), [])


def test_pairing_rounds_to_the_truth_second():
    truth = _manifest()["qoe"]
    rows = [dict(_rows()[0], ts=ts) for ts in (99.4, 99.6, 104.49, 109.4, 109.6)]
    assert [(row["ts"], t["ts"], k) for row, t, k in pair_rows(rows, truth)] == [
        (99.6, 100.0, 0),
        (104.49, 104.0, 4),
        (109.4, 109.0, 9),
    ]


def test_pairing_leaves_out_a_row_at_no_finite_distance():
    # 1.5e308 - -1.5e308 overflows to inf, which `round` cannot make an int
    truth = [dict(_manifest()["qoe"][0], ts=-1.5e308)]
    rows = [dict(_rows()[0], ts=ts) for ts in (1.5e308, -1.5e308)]
    assert [(row["ts"], k) for row, _, k in pair_rows(rows, truth)] == [(-1.5e308, 0)]


def test_fps_error_skips_the_warm_up_and_latency_error_is_signed():
    rows = _rows()
    rows[0]["fps"] = 0.0  # warm-up: not scored
    rows[5]["fps"] = 57.0
    rows[2]["latency_ms"] = 26.0
    rows[4]["latency_ms"] = 18.0
    out = score([_session()], rows, [_manifest()])
    assert out["fps_mae"] == pytest.approx(3.0 / (10 - WARMUP_INTERVALS))
    assert (out["latency_mae_ms"], out["latency_bias_ms"]) == (8.0 / 5, 4.0 / 5)


def test_role_errors_by_five_tuple():
    swapped = [FLOWS[0], dict(FLOWS[1], role="down_audio"), dict(FLOWS[2], role="down_video")]
    assert role_errors(swapped, FLOWS) == {
        ("192.0.2.10", 49005, "203.0.113.7", 47001, "UDP"): ("down_audio", "down_video"),
        ("192.0.2.10", 49003, "203.0.113.7", 47002, "UDP"): ("down_video", "down_audio"),
    }
    # the same ports of another server are another flow
    moved = [FLOWS[0], FLOWS[1], dict(FLOWS[2], server_ip="203.0.113.8")]
    assert role_errors(moved, FLOWS) == {
        ("192.0.2.10", 49003, "203.0.113.7", 47002, "UDP"): (None, "down_audio"),
        ("192.0.2.10", 49003, "203.0.113.8", 47002, "UDP"): ("down_audio", None),
    }
    assert role_errors(FLOWS, FLOWS) == {}


def test_match_prefers_the_session_of_the_manifests_server():
    other = _session(session_id="s1", gameplay_server_ip="203.0.113.9")
    mine = _session(session_id="s2")
    elsewhere = _session(session_id="s3", client_ip="192.0.2.11")
    pairs, left = match_sessions([other, mine, elsewhere], [_manifest(), _manifest()])
    assert [(m["client_ip"], s and s["session_id"]) for m, s in pairs] == [("192.0.2.10", "s2"), ("192.0.2.10", "s1")]
    assert left == [elsewhere]
    pairs, left = match_sessions([elsewhere], [_manifest()])
    assert pairs == [(_manifest(), None)] and left == [elsewhere]
    # with no session of its server, the client's first session left
    pairs, left = match_sessions([other, mine], [_manifest(server_ip="203.0.113.99")])
    assert pairs[0][1] is other and left == [mine]


def test_score_counts_missing_and_unmatched_sessions_as_failed():
    extra = _session(session_id="s2", client_ip="192.0.2.99")
    out = score([_session(setup="browser"), extra], _rows(), [_manifest(), _manifest(client_ip="192.0.2.11")])
    assert (out["attempted"], out["failed"]) == (3, 3)
    assert out["failures"] == [
        "192.0.2.10: setup 'browser' != 'desktop_app'",
        "192.0.2.11: session missing",
        "s2 192.0.2.99: no manifest describes this session",
    ]
    assert [m["session_id"] for m in out["matches"]] == ["s1", None]
    assert out["matches"][1]["fps_mae"] is None
    assert out["resolution_accuracy"] == 1.0  # the rows of the matched session are scored
