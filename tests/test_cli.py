import json
import logging

from click.testing import CliRunner

from gamesight.cli import main


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
    assert json.loads(first) == {"schema": "gamesight-sessions/1"}

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
    assert rep["truth_errors"]["mean_abs_fps_error"] < 2.0


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


def test_missing_codebook_exit_1(tmp_path):
    pcap_path, _ = _generate(tmp_path)
    res = _run(
        ["analyze", "--pcap", pcap_path, "--codebook", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
    )
    assert res.exit_code == 1


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
