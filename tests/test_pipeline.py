import pytest

from gamesight.pipeline import Analyzer
from gamesight.qoe import FrameRateTracker
from gamesight.synth import SessionProfile, write_session

NETS = ("192.0.2.0/24",)


def _capture(tmp_path, **kw):
    base = dict(
        platform="gfn",
        setup="desktop_app",
        fps_schedule=[(0.0, 60)],
        resolution_schedule=[(0.0, "hd")],
        rtt_ms=20.0,
        duration_s=15.0,
        seed=21,
    )
    base.update(kw)
    profile = SessionProfile(**base)
    path = str(tmp_path / "s.pcap")
    manifest = write_session(profile, path, str(tmp_path / "s.json"))
    return path, manifest


def _analyze(path):
    return Analyzer(client_nets=NETS).analyze_file(path)


def test_full_console_session(tmp_path):
    path, manifest = _capture(tmp_path)
    report = _analyze(path)
    assert len(report.sessions) == 1
    s = report.sessions[0]
    assert s.platform_id == "gfn"
    assert s.setup == "desktop_app"
    assert s.gameplay_server_ip == "203.0.113.7"
    assert s.state == "ended"

    got = {
        (f.client_port, f.server_port): role
        for (f, role) in [(k, r) for k, r in s.gameplay_flows]
    }
    want = {
        (f["client_port"], f["server_port"]): f["role"] for f in manifest.data["flows"]
    }
    assert got == want
    assert report.counters["unclassified_flows"] == 0
    assert report.counters["orientation_warnings"] == 0


def test_qoe_matches_manifest(tmp_path):
    path, manifest = _capture(tmp_path)
    report = _analyze(path)
    samples = report.qoe[report.sessions[0].session_id]
    truth = manifest.data["qoe"]
    assert len(samples) >= len(truth) - 2  # final partial interval never emitted
    for k, s in enumerate(samples):
        if s.warmup:
            continue
        assert s.fps == pytest.approx(truth[k]["fps"], abs=5)
        assert s.resolution == truth[k]["resolution"] or k < 10
    # latency samples mirror the injected RTT exactly
    lat = [s.latency_ms for s in samples if s.latency_ms is not None]
    assert lat
    assert sum(lat) / len(lat) == pytest.approx(20.0, abs=1.0)


def test_only_the_video_flow_feeds_the_frame_detector(tmp_path, monkeypatch):
    path, _ = _capture(tmp_path)
    emitted = []
    feed = FrameRateTracker.feed

    def counted(self, payload_len, ts):
        out = feed(self, payload_len, ts)
        emitted.extend(out)
        return out

    monkeypatch.setattr(FrameRateTracker, "feed", counted)
    report = _analyze(path)
    # audio and input flows pass the gameplay gate too, but are dropped
    # once classified; every frame-rate sample becomes a QoE row
    assert len(emitted) == len(report.qoe[report.sessions[0].session_id]) > 0


def test_pipeline_deterministic(tmp_path):
    path, _ = _capture(tmp_path)
    r1, r2 = _analyze(path), _analyze(path)
    q1 = [(s.ts, s.fps, s.bitrate_mbps, s.resolution, s.latency_ms) for s in list(r1.qoe.values())[0]]
    q2 = [(s.ts, s.fps, s.bitrate_mbps, s.resolution, s.latency_ms) for s in list(r2.qoe.values())[0]]
    assert q1 == q2
    assert [s.to_dict() for s in r1.sessions] == [s.to_dict() for s in r2.sessions]


def test_browser_session_combined_flow(tmp_path):
    path, manifest = _capture(tmp_path, setup="browser", seed=5)
    report = _analyze(path)
    s = report.sessions[0]
    assert s.setup == "browser"
    roles = sorted(r for _, r in s.gameplay_flows)
    assert roles == ["combined_media_input", "gameplay_mgmt", "stun_webrtc"]
    assert report.qoe[s.session_id]  # QoE comes from the combined flow


def test_strip_sni_signature_fallback(tmp_path):
    path, manifest = _capture(tmp_path, strip_sni=True, seed=9)
    report = _analyze(path)
    assert len(report.sessions) == 1
    s = report.sessions[0]
    assert s.os_hint == "windows"
    assert s.setup == "console_app"  # only the agent class is knowable without SNIs
    assert s.session_id.startswith("u")
    assert report.signature_matches
    assert report.signature_matches[0]["os"] == "windows"
    roles = sorted(r for _, r in s.gameplay_flows)
    assert roles == ["down_audio", "down_video", "gameplay_mgmt", "up_audio", "user_input"]


def test_xbox_session(tmp_path):
    path, _ = _capture(tmp_path, platform="xbox", setup="hardware_console", seed=4)
    report = _analyze(path)
    s = report.sessions[0]
    assert s.platform_id == "xbox"
    assert s.setup == "hardware_console"
    roles = sorted(r for _, r in s.gameplay_flows)
    assert roles == ["combined_media_input", "gameplay_mgmt", "stun_webrtc"]


def test_empty_capture(tmp_path):
    from gamesight import pcap

    path = str(tmp_path / "empty.pcap")
    pcap.write_capture([], path)
    report = _analyze(path)
    assert report.sessions == []
    assert report.counters["packets"] == 0
