import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import gamesight
from gamesight import pcap
from gamesight.cli import main
from gamesight.codebook import default_codebook_path
from gamesight.report import load_qoe_csv, load_sessions_jsonl, write_qoe_csv, write_sessions_jsonl


def _run(args, env=None):
    return CliRunner().invoke(main, args, env=env, catch_exceptions=False)


def _generate(tmp_path, name="c", extra=()):
    out = str(tmp_path / ("%s.pcap" % name))
    res = _run(
        [
            "generate", "--profile", "gfn-desktop", "--fps", "60", "--resolution", "hd",
            "--duration", "8", "--seed", "2", "--out", out, *extra,
        ]
    )
    assert res.exit_code == 0, res.output
    return out, str(tmp_path / ("%s.manifest.json" % name))


def test_generate_analyze_report_roundtrip(tmp_path):
    pcap_path, manifest_path = _generate(tmp_path)
    out_dir = str(tmp_path / "out")
    res = _run(["analyze", "--pcap", pcap_path, "--client-nets", "192.0.2.0/24", "--out", out_dir])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output.strip().splitlines()[-1])
    assert summary["sessions"] == 1
    assert summary["qoe_samples"] > 0

    with open(tmp_path / "out" / "qoe.csv") as fh:
        assert fh.readline().startswith("# schema=gamesight-qoe/2")
    first = open(tmp_path / "out" / "sessions.jsonl").readline()
    assert json.loads(first) == {"schema": "gamesight-sessions/2"}

    res = _run(
        [
            "report", "--in", str(tmp_path / "out" / "qoe.csv"),
            "--truth", manifest_path,
            "--sessions", str(tmp_path / "out" / "sessions.jsonl"),
        ]
    )
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert "desktop_app" in rep["groups"]
    assert (rep["truth"]["attempted"], rep["truth"]["failed"]) == (1, 0)
    assert rep["truth"]["fps_mae"] < 2.0


def test_report_csv_format(tmp_path):
    pcap_path, _ = _generate(tmp_path)
    out_dir = str(tmp_path / "out")
    _run(["analyze", "--pcap", pcap_path, "--client-nets", "192.0.2.0/24", "--out", out_dir])
    dest = str(tmp_path / "rep.csv")
    res = _run(["report", "--in", str(tmp_path / "out" / "qoe.csv"), "--format", "csv", "--out", dest])
    assert res.exit_code == 0, res.output
    lines = open(dest).read().splitlines()
    assert lines[0] == "setup,metric,key,value"
    assert any(line.startswith("all,fps_band_share") for line in lines)


def test_multi_pcap_session_prefixing(tmp_path):
    p1, _ = _generate(tmp_path, "a")
    p2, _ = _generate(tmp_path, "b")
    out_dir = str(tmp_path / "out")
    res = _run(
        ["analyze", "--pcap", p1, "--pcap", p2, "--client-nets", "192.0.2.0/24", "--out", out_dir]
    )
    assert res.exit_code == 0, res.output
    sessions = [json.loads(l) for l in open(tmp_path / "out" / "sessions.jsonl")][1:]
    ids = [s["session_id"] for s in sessions]
    assert len(ids) == 2
    assert ids[0].startswith("c0-") and ids[1].startswith("c1-")


def test_truncated_capture_exit_2(tmp_path):
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(b"\xd4\xc3\xb2\xa1short")
    res = _run(["analyze", "--pcap", str(bad), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2


def test_missing_capture_exit_2(tmp_path):
    res = _run(["analyze", "--pcap", str(tmp_path / "nope.pcap"), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2


def test_unsupported_link_type_exit_2(tmp_path):
    path = str(tmp_path / "sll.pcap")
    pcap.write_capture([], path, link_type=113)  # Linux cooked capture
    res = _run(["analyze", "--pcap", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    (line,) = res.stderr.splitlines()
    assert line == "malformed capture %s: unsupported link type 113" % path


def test_directory_as_capture_exit_2(tmp_path):
    res = _run(["analyze", "--pcap", str(tmp_path), "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    (line,) = res.stderr.splitlines()
    assert line.startswith("malformed capture %s: " % tmp_path)
    assert "Is a directory" in line


def test_missing_codebook_exit_1(tmp_path):
    pcap_path, _ = _generate(tmp_path)
    res = _run(
        ["analyze", "--pcap", pcap_path, "--codebook", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
    )
    assert res.exit_code == 1


def _shipped_codebook(edit) -> str:
    """The shipped codebook's text after `edit` changes its parsed form."""
    with open(default_codebook_path()) as fh:
        data = json.load(fh)
    edit(data)
    return json.dumps(data)


def _rename(entry: dict, old: str, new: str) -> None:
    entry[new] = entry.pop(old)


def _set(container, key, value) -> None:
    container[key] = value


@pytest.mark.parametrize(
    "text, names",
    [
        ('{"platforms": [', "JSONDecodeError"),
        (_shipped_codebook(lambda d: d["platforms"][1].pop("core")), "KeyError: 'core'"),
        # thresholds are constants in `classify`, so a `criteria` section is refused, not ignored
        (_shipped_codebook(lambda d: d.update(criteria={"video_min_bps_in": 5e6})), "unknown key 'criteria' in the codebook"),
        (
            _shipped_codebook(lambda d: _rename(d["platforms"][1], "server_port_range", "server_port_rang")),
            "unknown key 'server_port_rang' in platform 'xbox'",
        ),
        (
            _shipped_codebook(lambda d: _rename(d["platforms"][0]["signatures"][0], "up", "upstream")),
            "unknown key 'upstream' in a gfn signature",
        ),
        (_shipped_codebook(lambda d: _set(d["platforms"][0]["mgmt_ports"][0], 0, "fast")), "'fast'"),
        (_shipped_codebook(lambda d: _set(d["platforms"], 0, ["gfn"])), "AttributeError"),
        # value types and shapes are checked when the codebook is read
        (
            _shipped_codebook(lambda d: _set(d["platforms"][0], "setup_score_threshold", "fast")),
            "setup_score_threshold of platform 'gfn' must be a number, not 'fast'",
        ),
        (
            _shipped_codebook(lambda d: _set(d["platforms"][0], "setup_score_threshold", True)),
            "setup_score_threshold of platform 'gfn' must be a number, not True",
        ),
        (
            _shipped_codebook(lambda d: _set(d["platforms"][1], "server_port_range", [1040])),
            "server_port_range of platform 'xbox' must be two ports",
        ),
        (
            _shipped_codebook(lambda d: _set(d["platforms"][1], "server_port_range", [1040, 2000, 3000])),
            "server_port_range of platform 'xbox' must be two ports",
        ),
        (
            _shipped_codebook(lambda d: _set(d["platforms"][1], "server_port_range", [1190, 1040])),
            "server_port_range of platform 'xbox' must be two ports",
        ),
        (
            _shipped_codebook(lambda d: _set(d["platforms"][0], "core", "abc")),
            "core of platform 'gfn' must be a list of strings, not 'abc'",
        ),
        (_shipped_codebook(lambda d: _set(d["platforms"][1], "core", [])), "core_services must be non-empty"),
        # a second entry of one id would split its codebook between two entries
        (
            _shipped_codebook(lambda d: d["platforms"].append({**d["platforms"][1], "platform": "gfn"})),
            "platform 'gfn' is listed twice in the codebook",
        ),
        # sessions.jsonl would carry the number, which report refuses
        (_shipped_codebook(lambda d: _set(d["platforms"][0], "platform", 5)), "platform id must be a string, not 5"),
        (
            _shipped_codebook(lambda d: _set(d["platforms"][0]["setups"], "browser", "play.nvidia")),
            "setup 'browser' of platform 'gfn' must be a list of strings",
        ),
        (
            _shipped_codebook(lambda d: _set(d["platforms"][0]["signatures"][0], "os", 5)),
            "os of a gfn signature must be a string, not 5",
        ),
        (
            _shipped_codebook(lambda d: _set(d["platforms"][0]["signatures"][0], "dst_ports", "322")),
            "dst_ports of a gfn signature must be a list of ints, not '322'",
        ),
        (
            _shipped_codebook(lambda d: _set(d["platforms"][0]["signatures"][0], "up", "517")),
            "up of a gfn signature must be a list of ints, not '517'",
        ),
        (
            _shipped_codebook(lambda d: _set(d["platforms"][0]["signatures"][0], "down", [1460, 1460.0])),
            "down of a gfn signature must be a list of ints, not [1460, 1460.0]",
        ),
        (
            _shipped_codebook(lambda d: _set(d["platforms"][0]["mgmt_ports"][0], 1, 7)),
            "mgmt_ports of platform 'gfn' must pair an int port with a string class, not [322, 7]",
        ),
        (
            _shipped_codebook(lambda d: _set(d["platforms"][0], "gameplay_pattern", "pnt.nvidiagrid.net")),
            "gameplay_pattern of platform 'gfn' must be a string containing {ip}, not 'pnt.nvidiagrid.net'",
        ),
    ],
    ids=[
        "invalid-json",
        "missing-key",
        "removed-key",
        "misspelled-key",
        "misspelled-signature-key",
        "non-numeric",
        "not-a-mapping",
        "threshold-not-a-number",
        "threshold-a-bool",
        "range-of-one-port",
        "range-of-three-ports",
        "range-reversed",
        "core-a-string",
        "core-empty",
        "platform-id-repeated",
        "platform-id-a-number",
        "setup-table-a-string",
        "signature-os-a-number",
        "signature-ports-a-string",
        "signature-up-a-string",
        "signature-down-a-float",
        "mgmt-class-a-number",
        "gameplay-pattern-without-ip",
    ],
)
def test_malformed_codebook_exit_1(tmp_path, text, names):
    path = tmp_path / "codebook.json"
    path.write_text(text)
    # the codebook is read before any capture: a missing one would exit 2
    res = _run(["analyze", "--pcap", str(tmp_path / "nope.pcap"), "--codebook", str(path), "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("malformed codebook %s: " % path) and names in line


def test_out_naming_a_file_exit_1(tmp_path):
    # refused before any capture is read: a missing one would exit 2
    taken = tmp_path / "taken"
    taken.write_text("")
    res = _run(["analyze", "--pcap", str(tmp_path / "nope.pcap"), "--out", str(taken)])
    assert res.exit_code == 1
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("cannot write to %s: " % taken)
    assert taken.read_text() == ""


def test_codebook_that_cannot_be_read_exit_1(tmp_path):
    # read before any capture: a missing one would exit 2
    res = _run(["analyze", "--pcap", str(tmp_path / "nope.pcap"), "--codebook", str(tmp_path), "--out", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.splitlines() == ["cannot read codebook %s: Is a directory" % tmp_path]


def test_analyze_output_that_cannot_be_written_exit_1(tmp_path):
    path = str(tmp_path / "empty.pcap")
    pcap.write_capture([], path)
    out = tmp_path / "o"
    (out / "sessions.jsonl").mkdir(parents=True)
    res = _run(["analyze", "--pcap", path, "--out", str(out)])
    assert res.exit_code == 1
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("cannot write to %s: " % out) and "Is a directory" in line


@pytest.mark.parametrize("nets", ["10.0.0.0/33", "10.0.0.1/8", "nonsense"])
def test_malformed_client_nets_exit_1(tmp_path, nets):
    # refused before the output directory is made and any capture is read
    out = tmp_path / "o"
    res = _run(["analyze", "--pcap", str(tmp_path / "nope.pcap"), "--client-nets", "192.0.2.0/24," + nets, "--out", str(out)])
    assert res.exit_code == 1
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("malformed --client-nets: ") and nets in line
    assert not out.exists()


@pytest.mark.parametrize("option", ["--in", "--truth", "--sessions"])
def test_report_missing_input_exit_1(tmp_path, option):
    qoe = str(tmp_path / "qoe.csv")
    write_qoe_csv(qoe, [])
    missing = str(tmp_path / "nope")
    args = {"--in": qoe, option: missing}
    res = _run(["report", *(a for kv in args.items() for a in kv)])
    assert res.exit_code == 1
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("cannot read %s: " % missing)


def test_report_output_that_cannot_be_written_exit_1(tmp_path):
    qoe = str(tmp_path / "qoe.csv")
    write_qoe_csv(qoe, [])
    res = _run(["report", "--in", qoe, "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.splitlines() == ["cannot write %s: Is a directory" % tmp_path]


def test_report_truth_needs_sessions_exit_1(tmp_path):
    _, manifest = _generate(tmp_path)
    qoe = str(tmp_path / "qoe.csv")
    write_qoe_csv(qoe, [])
    res = _run(["report", "--in", qoe, "--truth", manifest])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.splitlines() == ["report --truth needs --sessions"]


def _report_inputs(tmp_path, part, text):
    """A valid qoe.csv, sessions.jsonl and manifest, with `part` replaced by `text`."""
    paths = {"qoe": tmp_path / "qoe.csv", "sessions": tmp_path / "sessions.jsonl", "manifest": tmp_path / "m.json"}
    write_qoe_csv(str(paths["qoe"]), [])
    write_sessions_jsonl(str(paths["sessions"]), [])
    paths["manifest"].write_text("{}")
    paths[part].write_text(text)
    return ["report", "--in", str(paths["qoe"]), "--sessions", str(paths["sessions"]), "--truth", str(paths["manifest"])]


def test_sessions_schema_1_refused(tmp_path):
    # schema /1 wrote one line per platform session, not per gameplay
    res = _run(_report_inputs(tmp_path, "sessions", '{"schema": "gamesight-sessions/1"}\n'))
    assert res.exit_code == 1
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("schema mismatch: unexpected sessions schema")


@pytest.mark.parametrize(
    "part, text, message",
    [
        ("manifest", "[]", "is not a JSON object"),
        (
            "qoe",
            "# schema=gamesight-qoe/2\nts,session_id,latency_ms,fps,fps_band,bitrate_mbps,resolution\n1.0,s1,20.0\n",
            "qoe line 3 does not have the 7 columns",
        ),
        ("sessions", '{"schema": "gamesight-sessions/2"}\n["s1"]\n', "a sessions line is not a JSON object"),
        # every row of schema /2 has fps and fps_band
        (
            "qoe",
            "# schema=gamesight-qoe/2\nts,session_id,latency_ms,fps,fps_band,bitrate_mbps,resolution\n"
            "1.0,s1,20.0,60.0,high,18.0,hd\n2.0,s1,20.0,,high,18.0,hd\n",
            "qoe line 4 has no fps or no fps_band",
        ),
        (
            "qoe",
            "# schema=gamesight-qoe/2\nts,session_id,latency_ms,fps,fps_band,bitrate_mbps,resolution\n"
            "1.0,s1,20.0,60.0,,18.0,hd\n",
            "qoe line 3 has no fps or no fps_band",
        ),
        # a number `float` reads but JSON cannot write, or `pair_rows` cannot round
        *(
            (
                "qoe",
                "# schema=gamesight-qoe/2\nts,session_id,latency_ms,fps,fps_band,bitrate_mbps,resolution\n"
                "1.0,s1,20.0,60.0,high,18.0,hd\n" + row,
                "qoe line 4 has a non-finite number",
            )
            for row in (
                "inf,s1,20.0,60.0,high,18.0,hd\n",
                "2.0,s1,20.0,nan,high,18.0,hd\n",
                "2.0,s1,-inf,60.0,high,18.0,hd\n",
                "2.0,s1,20.0,60.0,high,NaN,hd\n",
            )
        ),
    ],
    ids=[
        "manifest-a-list",
        "qoe-row-missing-cells",
        "sessions-line-a-list",
        "qoe-row-without-fps",
        "qoe-row-without-fps-band",
        "qoe-ts-inf",
        "qoe-fps-nan",
        "qoe-latency-minus-inf",
        "qoe-bitrate-nan",
    ],
)
def test_report_wrong_shaped_input_exit_1(tmp_path, part, text, message):
    res = _run(_report_inputs(tmp_path, part, text))
    assert res.exit_code == 1
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("schema mismatch: ") and message in line


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda m: m.update(flows=["x"]), "flows[0]"),
        (lambda m: m["flows"][1].update(client_port="40001"), "flows[1].client_port"),
        (lambda m: m.update(flows={}), "flows"),
        (lambda m: m["qoe"][2].pop("fps"), "qoe[2].fps"),
        (lambda m: m["qoe"][0].update(ts="0"), "qoe[0].ts"),
        (lambda m: m.update(qoe=[None]), "qoe[0]"),
        (lambda m: m.update(rtt_ms="20"), "rtt_ms"),
        (lambda m: m.update(rtt_ms=True), "rtt_ms"),
        # json.load reads NaN and Infinity as floats
        (lambda m: m["qoe"][0].update(ts=float("inf")), "qoe[0].ts"),
        (lambda m: m["qoe"][3].update(fps=float("nan")), "qoe[3].fps"),
        (lambda m: m.update(rtt_ms=float("-inf")), "rtt_ms"),
    ],
    ids=["flow-a-string", "port-a-string", "flows-an-object", "qoe-entry-without-fps", "qoe-ts-a-string",
         "qoe-entry-null", "rtt-a-string", "rtt-a-bool", "qoe-ts-infinity", "qoe-fps-nan", "rtt-minus-infinity"],
)
def test_report_wrong_typed_manifest_fields_exit_1(tmp_path, edit, field):
    pcap_path, manifest_path = _generate(tmp_path)
    out = tmp_path / "out"
    _run(["analyze", "--pcap", pcap_path, "--client-nets", "192.0.2.0/24", "--out", str(out)])
    args = ["report", "--in", str(out / "qoe.csv"), "--sessions", str(out / "sessions.jsonl"), "--truth", manifest_path]
    assert _run(args).exit_code == 0
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    res = _run(args)
    assert res.exit_code == 1
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("schema mismatch: manifest ") and line.endswith("fields: %s" % field)


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda s: s.update(gameplay_flows=["x"]), "gameplay_flows[0]"),
        (lambda s: s.update(setup=3), "setup"),
        (lambda s: s["gameplay_flows"][1].update(server_port="49003"), "gameplay_flows[1].server_port"),
        (lambda s: s.pop("gameplay_server_ip"), "gameplay_server_ip"),
        (lambda s: s.update(gameplay_server_ip=None), "gameplay_server_ip"),
        (lambda s: s.update(gameplay_flows=None), "gameplay_flows"),
    ],
    ids=["flow-a-string", "setup-a-number", "port-a-string", "no-gameplay-server", "gameplay-server-null", "flows-null"],
)
def test_report_wrong_typed_session_fields_exit_1(tmp_path, edit, field):
    pcap_path, manifest_path = _generate(tmp_path)
    out = tmp_path / "out"
    _run(["analyze", "--pcap", pcap_path, "--client-nets", "192.0.2.0/24", "--out", str(out)])
    sessions_path = out / "sessions.jsonl"
    args = ["report", "--in", str(out / "qoe.csv"), "--sessions", str(sessions_path), "--truth", manifest_path]
    assert _run(args).exit_code == 0
    sessions = load_sessions_jsonl(str(sessions_path))
    edit(sessions[0])
    write_sessions_jsonl(str(sessions_path), sessions)
    res = _run(args)
    assert res.exit_code == 1
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("schema mismatch: session 1 of ") and line.endswith("fields: %s" % field)


def test_report_truth_pairs_no_row_at_an_overflowing_distance(tmp_path):
    # a qoe row at 1.5e308 and a first truth second at -1.5e308 are finite,
    # and their distance is not
    pcap_path, manifest_path = _generate(tmp_path)
    out = tmp_path / "out"
    _run(["analyze", "--pcap", pcap_path, "--client-nets", "192.0.2.0/24", "--out", str(out)])
    rows = load_qoe_csv(str(out / "qoe.csv"))
    rows[0]["ts"] = 1.5e308
    write_qoe_csv(str(out / "qoe.csv"), rows)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["qoe"][0]["ts"] = -1.5e308
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    args = ["report", "--in", str(out / "qoe.csv"), "--sessions", str(out / "sessions.jsonl"), "--truth", manifest_path]
    res = _run(args)
    assert res.exit_code == 0, res.output
    assert "Traceback" not in res.output
    assert json.loads(res.stdout)["truth"]["attempted"] == 1


def _no_nan(name):
    raise ValueError("not strict JSON: %s" % name)


def test_report_writes_no_nan_for_a_group_without_latency(tmp_path):
    qoe = str(tmp_path / "qoe.csv")
    row = {"ts": 1.0, "session_id": "s1", "latency_ms": None, "fps": 60.0, "fps_band": "high"}
    write_qoe_csv(qoe, [{**row, "bitrate_mbps": 20.0, "resolution": "fhd"}])
    res = _run(["report", "--in", qoe])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.stdout, parse_constant=_no_nan)
    assert summary["groups"]["all"]["latency_ms"] == {"p50": None, "p90": None, "p99": None}

    res = _run(["report", "--in", qoe, "--format", "csv"])
    assert res.exit_code == 0, res.output
    latency = [line for line in res.stdout.splitlines() if ",latency_ms," in line]
    assert latency == ["all,latency_ms,p50,", "all,latency_ms,p90,", "all,latency_ms,p99,"]


def test_report_csv_writes_the_pooled_truth_scalars(tmp_path):
    pcap_path, manifest = _generate(tmp_path)
    out = tmp_path / "out"
    _run(["analyze", "--pcap", pcap_path, "--client-nets", "192.0.2.0/24", "--out", str(out)])
    args = ["report", "--in", str(out / "qoe.csv"), "--sessions", str(out / "sessions.jsonl"), "--truth", manifest]
    scored = json.loads(_run(args).stdout)["truth"]
    res = _run(args + ["--format", "csv"])
    assert res.exit_code == 0, res.output
    lines = [line for line in res.stdout.splitlines() if line.startswith(",truth,")]
    keys = ["attempted", "failed", "fps_mae", "resolution_accuracy", "latency_mae_ms", "latency_bias_ms"]
    assert [line.split(",")[2] for line in lines] == keys
    assert [float(line.split(",")[3]) for line in lines] == [scored[k] for k in keys]


def test_report_scores_each_session_against_its_own_manifest(tmp_path):
    """Two clients of one gameplay server, one at 60 fps fhd and one at 30 fps
    sd, in one capture: `report --truth a --truth b` matches each session
    to its client's manifest and scores its rows against that truth."""
    from gamesight import pcap
    from gamesight.synth import SessionProfile, gen_session

    records, manifests = [], []
    for i, (ip, fps, band) in enumerate([("192.0.2.10", 60, "fhd"), ("192.0.2.11", 30, "sd")]):
        profile = SessionProfile(
            platform="gfn", setup="desktop_app", client_ip=ip, base_ts=1000.0 + 0.1 * i,
            fps_schedule=[(0.0, fps)], resolution_schedule=[(0.0, band)], duration_s=12.0, seed=41 + i,
        )
        session, manifest = gen_session(profile)
        records += session
        manifests.append(str(tmp_path / ("m%d.json" % i)))
        manifest.save(manifests[-1])
    path = str(tmp_path / "both.pcap")
    pcap.write_capture(sorted(records, key=lambda r: r[0]), path)
    out = tmp_path / "out"
    assert _run(["analyze", "--pcap", path, "--client-nets", "192.0.2.0/24", "--out", str(out)]).exit_code == 0
    sessions = {s["client_ip"]: s["session_id"] for s in load_sessions_jsonl(str(out / "sessions.jsonl"))}

    res = _run(
        ["report", "--in", str(out / "qoe.csv"), "--sessions", str(out / "sessions.jsonl"),
         "--truth", manifests[1], "--truth", manifests[0]]
    )
    assert res.exit_code == 0, res.output
    truth = json.loads(res.stdout)["truth"]
    assert (truth["attempted"], truth["failed"]) == (2, 0), truth["failures"]
    matches = truth["matches"]
    assert [(m["client_ip"], m["session_id"]) for m in matches] == [
        ("192.0.2.11", sessions["192.0.2.11"]),
        ("192.0.2.10", sessions["192.0.2.10"]),
    ]
    # against the other client's truth, fps would be 30 off and no resolution right
    assert all(m["fps_mae"] < 1.0 and m["resolution_accuracy"] == 1.0 for m in matches)

    # each manifest alone scores its own session and counts the other as unmatched
    for i, m in enumerate(matches):
        args = ["report", "--in", str(out / "qoe.csv"), "--sessions", str(out / "sessions.jsonl"), "--truth", manifests[1 - i]]
        alone = json.loads(_run(args).stdout)["truth"]
        assert (alone["attempted"], alone["failed"]) == (2, 1)
        assert alone["matches"] == [m]


def test_report_refuses_a_schema_1_file_exit_1(tmp_path):
    # nothing has written gamesight-qoe/1 since /2, so it is read as no schema
    path = tmp_path / "qoe.csv"
    row = {"ts": 1.0, "session_id": "s1", "latency_ms": 20.0, "fps": 60.0, "fps_band": "high"}
    write_qoe_csv(str(path), [{**row, "bitrate_mbps": 18.0, "resolution": "hd"}])
    _, body = path.read_text().split("\n", 1)
    path.write_text("# schema=gamesight-qoe/1\n" + body)
    res = _run(["report", "--in", str(path)])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.splitlines() == ["schema mismatch: unexpected qoe schema header: '# schema=gamesight-qoe/1'"]


def test_report_schema_mismatch_exit_1(tmp_path):
    bad = tmp_path / "q.csv"
    bad.write_text("# schema=wrong/1\nts\n")
    res = _run(["report", "--in", str(bad)])
    assert res.exit_code == 1


def test_generate_invalid_bitrate_exit_1(tmp_path):
    out = str(tmp_path / "x.pcap")
    res = _run(
        [
            "generate", "--profile", "gfn-desktop", "--fps", "60", "--resolution", "sd",
            "--bitrate-mbps", "40", "--duration", "4", "--out", out,
        ]
    )
    assert res.exit_code == 1


@pytest.mark.parametrize("out, reason", [("nodir/x.pcap", "No such file or directory"), (".", "Is a directory")])
def test_generate_output_that_cannot_be_written_exit_1(tmp_path, out, reason):
    path = str(tmp_path / out)
    res = _run(["generate", "--profile", "gfn-desktop", "--fps", "60", "--resolution", "hd", "--duration", "1", "--out", path])
    assert res.exit_code == 1
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith("cannot write ") and line.endswith(": " + reason)


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--duration", "inf", "duration must be finite and positive"),
        ("--duration", "nan", "duration must be finite and positive"),
        ("--duration", "0.5", "duration must be finite and positive, at least 1 s"),
        ("--rtt-ms", "nan", "rtt must be finite and non-negative"),
        ("--rtt-ms", "-20", "rtt must be finite and non-negative"),
    ],
)
def test_generate_refuses_a_bad_duration_or_rtt_exit_1(tmp_path, option, value, message):
    # in a subprocess with a timeout: an unchecked infinite duration never returns
    out = tmp_path / "x.pcap"
    args = ["generate", "--profile", "gfn-desktop", "--fps", "60", "--resolution", "hd", "--out", str(out), option, value]
    env = {**os.environ, "PYTHONPATH": str(Path(gamesight.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "gamesight.cli", *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith(message)
    assert not out.exists()


def test_strip_sni_flag(tmp_path):
    pcap_path, _ = _generate(tmp_path, "s", extra=("--strip-sni",))
    out_dir = str(tmp_path / "out")
    res = _run(["analyze", "--pcap", pcap_path, "--client-nets", "192.0.2.0/24", "--out", out_dir])
    assert res.exit_code == 0
    sessions = [json.loads(l) for l in open(tmp_path / "out" / "sessions.jsonl")][1:]
    assert sessions[0]["os_hint"] == "windows"


def test_cgl_log_env_accepted(tmp_path):
    pcap_path, _ = _generate(tmp_path)
    res = _run(
        ["analyze", "--pcap", pcap_path, "--client-nets", "192.0.2.0/24", "--out", str(tmp_path / "o")],
        env={"CGL_LOG": "DEBUG"},
    )
    assert res.exit_code == 0


def test_analyze_logs_qoe_row_count(tmp_path, caplog):
    pcap_path, _ = _generate(tmp_path)
    caplog.set_level(logging.INFO, logger="gamesight")
    res = _run(["analyze", "--pcap", pcap_path, "--client-nets", "192.0.2.0/24", "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    rows = json.loads(res.output.strip().splitlines()[-1])["qoe_samples"]
    assert rows > 1  # one session, so a session count would read 1
    assert caplog.messages == ["%s: 1 sessions, %d qoe samples" % (pcap_path, rows)]


def test_analyze_prints_skip_reasons(tmp_path):
    from gamesight import pcap
    from gamesight.synth import ipv4_udp

    path = str(tmp_path / "t.pcap")
    frames = [
        (0.0, ipv4_udp("192.0.2.10", "203.0.113.7", 1, 2, b"x")),
        (0.1, b"\x45" + b"\x00" * 5),  # truncated IPv4
    ]
    pcap.write_capture(frames, path)
    res = _run(["analyze", "--pcap", path, "--client-nets", "192.0.2.0/24", "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    counters = json.loads(res.output.strip().splitlines()[-1])["counters"]
    assert counters["skip_reasons"] == {"truncated": 1}
    assert (counters["packets"], counters["skipped"], counters["truncated_tail"]) == (1, 1, 0)


def test_analyze_stops_at_a_record_claiming_gigabytes(tmp_path):
    # a record header claiming 0xFFFFFFF0 bytes, past libpcap's largest
    # snaplen, ends the reading there: the record before it is analyzed, the
    # stop is counted as a truncated tail, and no read asks for its length
    import struct
    import tracemalloc

    from gamesight.synth import ipv4_udp

    path = tmp_path / "t.pcap"
    pcap.write_capture([(0.0, ipv4_udp("192.0.2.10", "203.0.113.7", 1, 2, b"x"))], str(path))
    with open(path, "ab") as fh:
        fh.write(struct.pack("<IIII", 1, 0, 0xFFFFFFF0, 0xFFFFFFF0) + b"y" * 64)
    tracemalloc.start()
    try:
        res = _run(["analyze", "--pcap", str(path), "--client-nets", "192.0.2.0/24", "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    counters = json.loads(res.output.strip().splitlines()[-1])["counters"]
    assert (counters["packets"], counters["skipped"], counters["truncated_tail"]) == (1, 0, 1)
    assert peak < 10 * 2**20


def test_analyze_prints_snaplen_truncated(tmp_path):
    from gamesight import pcap
    from gamesight.synth import ipv4_udp

    path = str(tmp_path / "t.pcap")
    frames = [(i * 0.1, ipv4_udp("192.0.2.10", "203.0.113.7", 1, 2, b"x" * (100 * i))) for i in range(4)]
    pcap.write_capture(frames, path, snaplen=96)
    res = _run(["analyze", "--pcap", path, "--client-nets", "192.0.2.0/24", "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    counters = json.loads(res.output.strip().splitlines()[-1])["counters"]
    assert (counters["packets"], counters["snaplen_truncated"]) == (4, 3)
