import math

import pytest

from gamesight.report import (
    SchemaError,
    _percentile,
    load_qoe_csv,
    load_sessions_jsonl,
    summarize,
    truth_errors,
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


@pytest.mark.parametrize("schema", ["gamesight-qoe/1", "gamesight-qoe/2"])
def test_qoe_csv_reads_both_schemas(tmp_path, schema):
    path = tmp_path / "q.csv"
    write_qoe_csv(str(path), _rows())
    _, body = path.read_text().split("\n", 1)
    path.write_text("# schema=%s\n%s" % (schema, body))
    assert load_qoe_csv(str(path)) == _rows()


def test_qoe_csv_schema_prefix_rejected(tmp_path):
    path = tmp_path / "q.csv"
    write_qoe_csv(str(path), _rows())
    _, body = path.read_text().split("\n", 1)
    path.write_text("# schema=gamesight-qoe/10\n" + body)
    with pytest.raises(SchemaError):
        load_qoe_csv(str(path))


def test_sessions_jsonl_roundtrip(tmp_path):
    path = str(tmp_path / "s.jsonl")
    sessions = [{"session_id": "s1", "setup": "browser"}]
    write_sessions_jsonl(path, sessions)
    assert load_sessions_jsonl(path) == sessions


def test_sessions_jsonl_schema_rejected(tmp_path):
    path = str(tmp_path / "s.jsonl")
    with open(path, "w") as fh:
        fh.write('{"schema": "bogus"}\n')
    with pytest.raises(SchemaError):
        load_sessions_jsonl(path)


def test_percentile_nearest_rank():
    xs = [float(v) for v in range(1, 101)]
    assert _percentile(xs, 0.50) == 50.0
    assert _percentile(xs, 0.90) == 90.0
    assert _percentile(xs, 0.99) == 99.0
    assert math.isnan(_percentile([], 0.5))


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


def test_truth_errors_exact_match():
    manifest = {
        "rtt_ms": 20.0,
        "qoe": [
            {"ts": 100.0 + i, "fps": 60, "bitrate_mbps": 18.0, "resolution": "hd"}
            for i in range(10)
        ],
    }
    out = truth_errors(_rows(), manifest)
    assert out["mean_abs_fps_error"] == 0.0
    assert out["resolution_accuracy"] == 1.0
    assert out["latency_bias_ms"] == 0.0


def test_truth_errors_requires_truth():
    with pytest.raises(SchemaError):
        truth_errors(_rows(), {"qoe": []})
