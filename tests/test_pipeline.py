import struct

import pytest

from gamesight import pcap, pipeline
from gamesight.classify import VIDEO_ROLES
from gamesight.detector import SessionRecord
from gamesight.flows import WINDOW_S, FlowKey, FlowTable
from gamesight.packets import UDP, ip_text, parse_packet
from gamesight.pipeline import Analyzer
from gamesight.qoe import WARMUP_INTERVALS, FrameRateTracker
from gamesight.synth import (
    SessionProfile,
    build_client_hello,
    gen_session,
    ipv4_tcp,
    ipv4_udp,
    write_session,
)
from gamesight.tls import SniReassembler

from conftest import packed

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
    assert ip_text(s.gameplay_server_ip) == "203.0.113.7"
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
        if k < WARMUP_INTERVALS:
            continue
        assert s.fps == pytest.approx(truth[k]["fps"], abs=5)
        assert s.resolution == truth[k]["resolution"] or k < 10
    # latency samples mirror the injected RTT exactly
    lat = [s.latency_ms for s in samples if s.latency_ms is not None]
    assert lat
    assert sum(lat) / len(lat) == pytest.approx(20.0, abs=1.0)


def test_qoe_rows_are_the_video_flows_whole_windows(tmp_path):
    # one time grid: every row is a window of the flow table's grid, its
    # bitrate is the video flow's downstream bytes in that window, and the
    # partial windows holding the flow's first and last downstream packets
    # give no row
    path, _ = _capture(tmp_path)
    analyzer = Analyzer(client_nets=NETS)
    report = analyzer.analyze_file(path)
    session = report.sessions[0]
    (key,) = [k for k, role in session.gameplay_flows if role in VIDEO_ROLES]
    windows = analyzer.table.flows[key].windows
    down = sorted(idx for idx, counts in windows.items() if counts[0])
    rows = report.qoe[session.session_id]
    idxs = [int(s.ts // WINDOW_S) for s in rows]
    assert idxs == list(range(down[0] + 1, down[-1]))
    for idx, s in zip(idxs, rows):
        assert s.ts == idx * WINDOW_S
        assert s.bitrate_mbps == windows[idx][2] * 8 / 1e6


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


def _qoe_rows(report, session):
    return [(s.ts, s.fps, s.bitrate_mbps, s.resolution, s.latency_ms) for s in report.qoe[session.session_id]]


def test_two_clients_of_one_gameplay_server_keep_their_own_flows(tmp_path):
    # both sessions start within each other's gameplay window
    profiles = [
        SessionProfile(
            platform="gfn", setup="desktop_app", client_ip="192.0.2.10", base_ts=1000.0,
            fps_schedule=[(0.0, 60)], resolution_schedule=[(0.0, "fhd")], duration_s=6.0, seed=41,
        ),
        SessionProfile(
            platform="gfn", setup="desktop_app", client_ip="192.0.2.11", base_ts=1000.1,
            fps_schedule=[(0.0, 30)], resolution_schedule=[(0.0, "sd")], duration_s=6.0, seed=42,
        ),
    ]
    merged, alone = [], {}
    for i, profile in enumerate(profiles):
        records, _ = gen_session(profile)
        merged.extend(records)
        path = str(tmp_path / ("alone%d.pcap" % i))
        pcap.write_capture(records, path)
        report = _analyze(path)
        alone[profile.client_ip] = _qoe_rows(report, report.sessions[0])
    merged.sort(key=lambda r: r[0])
    path = str(tmp_path / "both.pcap")
    pcap.write_capture(merged, path)
    report = _analyze(path)

    assert sorted(ip_text(s.client_ip) for s in report.sessions) == ["192.0.2.10", "192.0.2.11"]
    for s in report.sessions:
        udp = [k for k, _ in s.gameplay_flows if k.proto == UDP]
        assert len(udp) == 4
        assert {k.client_ip for k in udp} == {s.client_ip}
        assert _qoe_rows(report, s) == alone[ip_text(s.client_ip)]
    assert alone["192.0.2.10"] != alone["192.0.2.11"]


def test_registering_packet_after_a_gameplay_flows_first_packet(tmp_path):
    """The registering ClientHello comes later in the file than the first
    gameplay packet, with the same timestamp: that flow is still listed
    with its role, but it has missed packets and gives the session no QoE."""
    records, manifest = gen_session(SessionProfile(platform="gfn", setup="desktop_app", duration_s=6.0, seed=7))
    roles = {(f["client_port"], f["server_port"]): f["role"] for f in manifest.data["flows"]}
    video = next(port for port, role in roles.items() if role == "down_video")

    def ports(frame):  # (source, destination) of an IPv4 frame
        return int.from_bytes(frame[20:22], "big"), int.from_bytes(frame[22:24], "big")

    hello = next(i for i, (_, f) in enumerate(records) if f[9] == 6 and ports(f)[1] == 322 and len(f) > 500)
    first_udp = next(i for i in range(hello, len(records)) if records[i][1][9] == UDP)
    assert ports(records[first_udp][1])[::-1] == video  # video flows downstream
    moved = records[:hello] + records[hello + 1 : first_udp + 1]
    moved += [(records[first_udp][0], records[hello][1])] + records[first_udp + 1 :]
    path = str(tmp_path / "late.pcap")
    pcap.write_capture(moved, path)
    report = _analyze(path)

    s = report.sessions[0]
    assert {(k.client_port, k.server_port): role for k, role in s.gameplay_flows} == roles
    assert report.qoe[s.session_id] == []


def test_a_tcp_flow_reassembles_one_client_hello(tmp_path, monkeypatch):
    built, fed = [], []

    class Counted(SniReassembler):
        def __init__(self):
            super().__init__()
            built.append(self)

        def feed(self, payload):
            fed.append(payload)
            return super().feed(payload)

    monkeypatch.setattr(pipeline, "SniReassembler", Counted)
    path = str(tmp_path / "t.pcap")
    frames = [
        (i * 0.01, ipv4_tcp("192.0.2.10", "198.51.100.1", 40000, 443, 1 + 100 * i, 1, 0x18, b"\x17" * 100))
        for i in range(30)
    ]
    pcap.write_capture(frames, path)
    _analyze(path)
    assert (len(built), len(fed)) == (1, 3)


def test_an_evicted_flow_leaves_no_state_to_its_key(tmp_path):
    """A management-port flow gives up its setup signature, is evicted, and
    comes back with a gameplay ClientHello: it registers."""
    mgmt = ("192.0.2.10", "203.0.113.7", 51000, 322)
    frames = []
    for i in range(4):  # sizes no signature starts with
        frames.append((0.1 * i, ipv4_tcp(*mgmt, 1 + 100 * i, 1, 0x18, b"\x17" * 100)))
        frames.append((0.1 * i + 0.05, ipv4_tcp(mgmt[1], mgmt[0], mgmt[3], mgmt[2], 1, 101 + 100 * i, 0x18, b"\x17" * 200)))
    frames.append((1.0, ipv4_udp("192.0.2.10", "198.51.100.1", 40000, 53, b"q")))
    hello = build_client_hello("203-0-113-7.pnt.nvidiagrid.net")
    frames.append((2.0, ipv4_tcp(*mgmt, 401, 1, 0x18, hello)))
    path = str(tmp_path / "t.pcap")
    pcap.write_capture(frames, path)
    analyzer = Analyzer(client_nets=NETS)
    analyzer.table.cap = 1
    report = analyzer.analyze_file(path)
    assert report.counters["flow_evictions"] == 2
    assert list(analyzer.detector.registrations) == [FlowKey(packed("192.0.2.10"), 51000, packed("203.0.113.7"), 322, 6)]
    assert [ip_text(s.gameplay_server_ip) for s in report.sessions] == ["203.0.113.7"]


@pytest.mark.parametrize(
    "client, server, written",
    [
        ("192.0.2.10", "203.0.113.7", ("192.0.2.10", "203.0.113.7")),
        ("2001:db8::a", "2001:db8:0:1:0:0:0:c8", ("2001:db8::a", "2001:db8:0:1::c8")),
        ("2001:db8:0:0:1:0:0:1", "2001:db8:1::", ("2001:db8::1:0:0:1", "2001:db8:1::")),
    ],
)
def test_session_addresses_are_written_as_address_text(client, server, written):
    # a packet parsed from the wire, counted in a flow and listed in a
    # session reaches to_dict as inet_ntop text: compressed for IPv6
    src, dst = packed(client), packed(server)
    if len(src) == 4:
        frame = ipv4_udp(client, server, 49005, 47000, b"x")
    else:
        udp = struct.pack("!HHHH", 49005, 47000, 9, 0) + b"x"
        frame = struct.pack("!IHBB", 0x60000000, len(udp), UDP, 64) + src + dst + udp
    table = FlowTable(client_nets=(client,))
    flow = table.update(parse_packet(frame, pcap.LINKTYPE_RAW_IP, 0.0))
    session = SessionRecord(
        session_id="s1",
        client_ip=flow.key.client_ip,
        platform_id="gfn",
        setup="browser",
        detected_at=0.0,
        gameplay_server_ip=flow.key.server_ip,
        gameplay_flows=[(flow.key, "combined_media_input")],
    )
    d = session.to_dict()
    assert (d["client_ip"], d["gameplay_server_ip"]) == written
    (listed,) = d["gameplay_flows"]
    assert (listed["client_ip"], listed["server_ip"]) == written
    assert SessionRecord("s2", src, "gfn", "browser", 0.0).to_dict()["gameplay_server_ip"] is None


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


# -- headers-only captures ---------------------------------------------


@pytest.fixture(scope="module")
def snaplen_reports(tmp_path_factory):
    """One 20 s desktop-app session analyzed whole and cut to 256 and to
    128 bytes per frame, with the number of frames each cut shortens."""
    records, _ = gen_session(SessionProfile(platform="gfn", setup="desktop_app", duration_s=20.0, seed=5))
    out = tmp_path_factory.mktemp("snaplen")
    reports = {}
    for snaplen in (65535, 256, 128):
        path = str(out / ("s%d.pcap" % snaplen))
        pcap.write_capture(records, path, snaplen=snaplen)
        cut = sum(1 for _, frame in records if len(frame) > snaplen)
        reports[snaplen] = (_analyze(path), cut)
    return reports


@pytest.mark.parametrize(
    "snaplen, session",
    [
        (65535, ("s1", "desktop_app")),
        # the management ClientHello loses its SNI: the handshake-size
        # signature registers the server and joins the platform session
        (256, ("s1", "desktop_app")),
        # no platform name survives either: the signature session stands alone
        (128, ("u1", "console_app")),
    ],
    ids=["65535", "256", "128"],
)
def test_headers_only_capture_keeps_flows_and_qoe(snaplen_reports, snaplen, session):
    full = snaplen_reports[65535][0]
    rep, cut = snaplen_reports[snaplen]
    assert rep.counters["snaplen_truncated"] == cut
    assert (cut > 0) is (snaplen < 65535)
    assert [(s.session_id, s.setup, s.os_hint) for s in rep.sessions] == [(*session, "windows")]
    roles = [r for _, r in rep.sessions[0].gameplay_flows]
    assert roles == ["gameplay_mgmt", "down_video", "down_audio", "up_audio", "user_input"]
    assert rep.sessions[0].gameplay_flows == full.sessions[0].gameplay_flows
    assert len(rep.qoe[session[0]]) == 19
    assert rep.qoe[session[0]] == full.qoe["s1"]
