import random
import struct
import tracemalloc
from pathlib import Path

import pytest

from gamesight import pcap, pipeline
from gamesight.classify import MGMT_WINDOW_S, ROLE_UNCLASSIFIED, VIDEO_ROLES
from gamesight.codebook import SetupSignature, default_codebooks
from gamesight.detector import ServerRegistration
from gamesight.flows import CLOSED_LINGER_S, IDLE_TIMEOUT_S, SWEEP_S, WINDOW_S, FlowKey, FlowTable
from gamesight.packets import TCP, UDP, ip_text, parse_packet
from gamesight.pipeline import Analyzer
from gamesight.qoe import WARMUP_INTERVALS, FrameRateTracker
from gamesight.report import capture_outputs, load_qoe_csv, load_sessions_jsonl, pair_rows, role_errors, score
from gamesight.synth import (
    SessionProfile,
    build_client_hello,
    gen_session,
    ipv4_tcp,
    ipv4_udp,
    write_session,
)
from gamesight.tls import MAX_BUFFER, MAX_SEGMENTS, SniReassembler

from conftest import analyze_checked, check_gameplays, compose, packed, tcp_record, udp_record

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
    """`analyze` on the capture, writing its outputs next to it; the report
    is checked with `check_gameplays`."""
    return analyze_checked(path, str(Path(path).parent / "out"))


def _flows(reg):
    """(FlowKey, role) of each flow of the gameplay, in the order `to_dict`
    lists them."""
    return [(f.key, f.role) for f in reg.flows]


def test_full_console_session(tmp_path):
    path, manifest = _capture(tmp_path)
    report = _analyze(path)
    (reg,) = report.gameplays
    assert (reg.platform_id, reg.setup) == ("gfn", "desktop_app")

    (written,), _ = capture_outputs(report, path)
    assert (written["gameplay_server_ip"], written["platform_session"]) == ("203.0.113.7", "p1")
    assert written["ended_at"] == max(f.last_ts for f in reg.flows)
    assert "state" not in written
    assert role_errors(written["gameplay_flows"], manifest.data["flows"]) == {}
    assert report.counters["unclassified_flows"] == 0
    assert report.counters["orientation_warnings"] == 0


def test_qoe_matches_manifest(tmp_path):
    path, manifest = _capture(tmp_path)
    report = _analyze(path)
    _, rows = capture_outputs(report, path)
    truth = manifest.data["qoe"]
    assert len(rows) >= len(truth) - 2  # final partial interval never emitted
    for row, t, k in pair_rows(rows, truth):
        if k < WARMUP_INTERVALS:
            continue
        assert row["fps"] == pytest.approx(t["fps"], abs=5)
        assert row["resolution"] == t["resolution"] or k < 10
    # latency samples mirror the injected RTT exactly
    lat = [row["latency_ms"] for row in rows if row["latency_ms"] is not None]
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
    (reg,) = report.gameplays
    (key,) = [k for k, role in _flows(reg) if role in VIDEO_ROLES]
    windows = analyzer.table.flows[key].windows
    down = sorted(idx for idx, counts in windows.items() if counts[0])
    rows = reg.rows
    idxs = [int(s["ts"] // WINDOW_S) for s in rows]
    assert idxs == list(range(down[0] + 1, down[-1]))
    for idx, s in zip(idxs, rows):
        assert s["ts"] == idx * WINDOW_S
        assert s["bitrate_mbps"] == round(windows[idx][2] * 8 / 1e6, 4)


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
    assert len(emitted) == len(report.gameplays[0].rows) > 0


def test_each_downstream_video_packet_feeds_the_frame_detector_once(tmp_path, monkeypatch):
    # packets held until the role is decided are fed once, when the video
    # flow's new tracker takes them, not also when they are held
    path, _ = _capture(tmp_path)
    fed = []
    feed = FrameRateTracker.feed

    def counted(self, payload_len, ts):
        fed.append(ts)
        return feed(self, payload_len, ts)

    monkeypatch.setattr(FrameRateTracker, "feed", counted)
    report = _analyze(path)
    video = [f for reg in report.gameplays for f in reg.flows if f.role in VIDEO_ROLES]
    assert len(video) == 1
    assert len(fed) == sum(w[0] for w in video[0].windows.values()) > 0
    assert fed == sorted(fed)


@pytest.mark.parametrize("setup, seed, joined", [("desktop_app", 21, 4), ("browser", 5, 2)])
def test_only_the_video_flow_gets_a_frame_rate_tracker(tmp_path, monkeypatch, setup, seed, joined):
    # a joined flow holds its downstream packets itself until its role is
    # decided, so no tracker is made for a flow that turns out not to be video
    path, _ = _capture(tmp_path, setup=setup, seed=seed)
    made = []
    init = FrameRateTracker.__init__

    def counted(self):
        made.append(self)
        init(self)

    monkeypatch.setattr(FrameRateTracker, "__init__", counted)
    report = _analyze(path)
    (reg,) = report.gameplays
    flows = reg.flows[1:]  # the management flow is first
    assert len(flows) == joined
    assert [f.frames for f in flows if f.frames is not None] == made
    assert sum(f.role in VIDEO_ROLES for f in flows) == len(made) == 1
    assert all(f.held is None for f in flows)


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
        alone[profile.client_ip] = report.gameplays[0].rows
    merged.sort(key=lambda r: r[0])
    path = str(tmp_path / "both.pcap")
    pcap.write_capture(merged, path)
    report = _analyze(path)

    assert sorted(ip_text(reg.client_ip) for reg in report.gameplays) == ["192.0.2.10", "192.0.2.11"]
    for reg in report.gameplays:
        udp = [k for k, _ in _flows(reg) if k.proto == UDP]
        assert len(udp) == 4
        assert {k.client_ip for k in udp} == {reg.client_ip}
        assert reg.rows == alone[ip_text(reg.client_ip)]
    assert alone["192.0.2.10"] != alone["192.0.2.11"]


SETUPS = [
    ("gfn", "desktop_app"),
    ("gfn", "mobile_app"),
    ("gfn", "browser"),
    ("xbox", "hardware_console"),
    ("xbox", "pc_browser"),
    ("xbox", "mobile_browser"),
]


def _gameplay_rows(tmp_path, name, records, manifest):
    """The rows of the one gameplay `analyze` finds in `records`, once every
    flow role is checked against the manifest."""
    path = str(tmp_path / name)
    pcap.write_capture(records, path)
    report = _analyze(path)
    (written,), _ = capture_outputs(report, path)
    assert role_errors(written["gameplay_flows"], manifest.data["flows"]) == {}
    (reg,) = report.gameplays
    return reg.rows


def _hello_after_udp(records, count, same_ts):
    """`records` with the registering ClientHello (the first long TCP packet
    to a management port) moved to just after the `count`-th UDP packet
    that follows it, and that packet's frame. The ClientHello keeps its own
    timestamp, or with `same_ts` takes that packet's."""
    mgmt_ports = {(322).to_bytes(2, "big"), (49100).to_bytes(2, "big")}
    hello = next(i for i, (_, f) in enumerate(records) if f[9] == TCP and f[22:24] in mgmt_ports and len(f) > 500)
    at = [i for i in range(hello, len(records)) if records[i][1][9] == UDP][count - 1]
    ts = records[at][0] if same_ts else records[hello][0]
    return records[:hello] + records[hello + 1 : at + 1] + [(ts, records[hello][1])] + records[at + 1 :], records[at][1]


@pytest.mark.parametrize("platform, setup", SETUPS)
def test_registering_packet_after_a_gameplay_flows_first_packet(tmp_path, platform, setup):
    """The registering ClientHello comes later in the file than the first
    gameplay packet, with the same timestamp. The registration adopts that
    packet's flow, which joins as a new flow does: every flow gets its
    role, and the gameplay the in-order capture's rows."""
    records, manifest = gen_session(SessionProfile(platform=platform, setup=setup, duration_s=6.0, seed=7))
    rows = _gameplay_rows(tmp_path, "in_order.pcap", records, manifest)
    assert len(rows) == 5
    moved, frame = _hello_after_udp(records, 1, same_ts=True)
    server_port = int.from_bytes(frame[20:22], "big")  # its source: the packet goes downstream
    (role,) = [f["role"] for f in manifest.data["flows"] if f["proto"] == "UDP" and f["server_port"] == server_port]
    assert role in VIDEO_ROLES  # the adopted flow is the one that gives the rows
    assert _gameplay_rows(tmp_path, "late.pcap", moved, manifest) == rows


@pytest.mark.parametrize(
    "count, base_ts, lost",
    [(1, 1_700_000_000.0, 0), (100, 1_700_000_000.0, 0), (1000, 1_700_000_000.0, 0), (1000, 1_700_000_000.3, 1)],
)
def test_an_adopted_flow_is_measured_from_its_adoption_on(tmp_path, count, base_ts, lost):
    """The registering ClientHello keeps its timestamp but comes after the
    first `count` gameplay UDP packets in the file (1,000 span 0.34 s, less
    than the management window). The flows those packets started are
    adopted, and the video flow's frame rate counts from the adoption on.
    With the capture starting on a whole second, the adoption falls in the
    video flow's first window, which gives no row anyway, so the gameplay
    has the in-order capture's rows. Started 0.3 s later, the 1,000th packet
    lies in the video flow's second window, whose row alone is lost."""
    profile = SessionProfile(platform="gfn", setup="desktop_app", duration_s=6.0, seed=7, base_ts=base_ts)
    records, manifest = gen_session(profile)
    rows = _gameplay_rows(tmp_path, "in_order.pcap", records, manifest)
    moved, _ = _hello_after_udp(records, count, same_ts=False)
    assert _gameplay_rows(tmp_path, "late.pcap", moved, manifest) == rows[lost:]


@pytest.mark.parametrize("late", [False, True])
def test_a_registering_packet_late_in_the_file_adopts_the_flows_it_still_can(tmp_path, late):
    """The registering ClientHello keeps its timestamp, before the gameplay
    flows start, but comes later in the file. Right after the first
    gameplay packet, it adopts that packet's flow, the video flow, which
    joins as a new flow does: the gameplay has the in-order capture's
    rows. Once a tick has run more than `MGMT_WINDOW_S` after that packet,
    the video flow has dropped its windows: it is not adopted,
    `unadopted_flows` counts it, and the gameplay has no rows. The other
    flows started later, within `MGMT_WINDOW_S` of that tick, and are still
    adopted. A packet of another flow, first in the file, times the ticks
    so that one runs on the first gameplay packet past `MGMT_WINDOW_S`:
    without it, the first tick after that comes once the management flow
    has sent more data, and the moved ClientHello no longer registers
    anything."""
    records, manifest = gen_session(SessionProfile(platform="gfn", setup="desktop_app", duration_s=6.0, seed=7))
    hello = next(i for i, (_, f) in enumerate(records) if f[9] == 6 and f[22:24] == (322).to_bytes(2, "big") and len(f) > 500)
    first_udp = next(i for i in range(hello, len(records)) if records[i][1][9] == UDP)
    start = records[first_udp][0]
    assert records[hello][0] < start <= records[hello][0] + MGMT_WINDOW_S
    at = next(i for i in range(first_udp, len(records)) if records[i][1][9] == UDP and records[i][0] > start + MGMT_WINDOW_S)
    clock = (records[at][0] - SWEEP_S, ipv4_udp("192.0.2.99", "198.51.100.53", 5353, 53, b"q"))
    if not late:
        at = first_udp
    moved = [clock] + records[:hello] + records[hello + 1 : at + 1] + [records[hello]] + records[at + 1 :]
    path = str(tmp_path / "late.pcap")
    pcap.write_capture(moved, path)
    report = _analyze(path)

    (reg,) = report.gameplays
    (written,), _ = capture_outputs(report, path)
    errors = role_errors(written["gameplay_flows"], manifest.data["flows"])
    if late:  # only the video flow is missing
        assert list(errors.values()) == [(None, "down_video")]
        assert report.counters["unadopted_flows"] == 1
        assert reg.rows == []
    else:
        assert errors == {}
        assert report.counters["unadopted_flows"] == 0
        assert reg.rows == _gameplay_rows(tmp_path, "in_order.pcap", records, manifest)


@pytest.mark.parametrize("platform", [False, True])
def test_a_repeated_registration_keeps_the_first(tmp_path, platform):
    """A registered management flow is evicted at the table cap and sends
    its gameplay ClientHello again on the same five-tuple: the first
    registration stays the flow key's one, and the repeat is counted. With
    a platform session open or without, the first registration is the one
    gameplay."""
    client, server = "192.0.2.10", "203.0.113.7"
    hello = build_client_hello("203-0-113-7.pnt.nvidiagrid.net")
    frames = []
    if platform:
        core = ["login.nvidia.com", "events.nvidia.com", "userstore.nvidia.com", "gfnpc.api.entitlement-prod.nvidiagrid.net"]
        for i, name in enumerate(core):
            frames.append((0.1 * i, ipv4_tcp(client, "203.0.113.%d" % (10 + i), 40000 + i, 443, 1, 1, 0x18, build_client_hello(name))))
    frames += [
        (1.0, ipv4_tcp(client, server, 51000, 322, 1, 1, 0x18, hello)),
        (1.1, ipv4_udp(client, "198.51.100.1", 40000, 53, b"q")),
        (1.2, ipv4_tcp(client, server, 51000, 322, 1, 1, 0x18, hello)),
    ]
    path = str(tmp_path / "t.pcap")
    pcap.write_capture(frames, path)
    analyzer = Analyzer(client_nets=NETS)
    analyzer.table.cap = 1
    report = analyzer.analyze_file(path)

    check_gameplays(analyzer, report, sum(len(reg.rows) for reg in report.gameplays))
    (reg,) = report.gameplays
    assert reg.registered_at == 1.0
    assert report.counters["repeated_registrations"] == 1
    assert reg.session_id == "s1"
    assert (reg.platform_session is not None, report.counters["platform_sessions"]) == (platform, int(platform))


def test_a_gameplay_name_of_another_platform_gets_its_own_session(tmp_path):
    """The client's GFN platform session is open when an XBox gameplay name
    registers: the gameplay takes no platform session, and its setup is
    unknown. The GFN session, without a gameplay, writes no line and is
    counted."""
    client = "192.0.2.10"
    core = ["login.nvidia.com", "events.nvidia.com", "userstore.nvidia.com", "gfnpc.api.entitlement-prod.nvidiagrid.net"]
    frames = [
        (0.1 * i, ipv4_tcp(client, "203.0.113.%d" % (10 + i), 40000 + i, 443, 1, 1, 0x18, build_client_hello(name)))
        for i, name in enumerate(core)
    ]
    hello = build_client_hello("198-51-100-7.cloudgame.xboxlive.com")
    frames.append((1.0, ipv4_tcp(client, "198.51.100.7", 51000, 49100, 1, 1, 0x18, hello)))
    path = str(tmp_path / "t.pcap")
    pcap.write_capture(frames, path)
    report = _analyze(path)
    assert report.counters["platform_sessions"] == 1
    written = load_sessions_jsonl(str(tmp_path / "out" / "sessions.jsonl"))
    assert [(s["session_id"], s["platform_session"], s["platform"], s["setup"], s["gameplay_server_ip"]) for s in written] == [
        ("s1", None, "xbox", "unknown", "198.51.100.7"),
    ]


def test_client_hello_reassemblies_that_give_up_are_counted(tmp_path):
    """One ClientHello cut into more than `MAX_SEGMENTS` segments and one
    whose first `MAX_BUFFER` bytes do not hold it whole are given up and
    counted. A whole ClientHello is found, one with an empty server name
    is read, and a flow that carries no TLS is given up: none of them is
    counted. Each finished reassembly is dropped with its flow's SNI
    set, "" when it read none, so that none starts again."""
    client, server = "192.0.2.10", "198.51.100.1"
    split = build_client_hello("split.example")
    big = build_client_hello("big.example", pad_to=MAX_BUFFER + 100)
    step = len(split) // (MAX_SEGMENTS + 1) + 1
    segments = [(1, split[i : i + step]) for i in range(0, len(split), step)]
    segments += [(2, big[:MAX_BUFFER]), (2, big[MAX_BUFFER:]), (3, build_client_hello("whole.example"))]
    segments += [(4, build_client_hello(""))] + [(5, b"GET / HTTP/1.1\r\n")] * MAX_SEGMENTS
    frames = []
    seqs = {}
    for i, (k, payload) in enumerate(segments):
        seq = seqs.get(k, 1)
        seqs[k] = seq + len(payload)
        frames.append((0.01 * i, ipv4_tcp(client, server, 40000 + k, 443, seq, 1, 0x18, payload)))
    assert len(segments) == MAX_SEGMENTS + 1 + 4 + MAX_SEGMENTS
    path = str(tmp_path / "t.pcap")
    pcap.write_capture(frames, path)
    analyzer = Analyzer(client_nets=NETS)
    report = analyzer.analyze_file(path)
    assert report.counters["sni_reassembly_given_up"] == 2
    flows = {f.key.client_port - 40000: f for f in analyzer.table.flows.values()}
    assert {k: (f.sni, f.reasm) for k, f in flows.items()} == {
        1: ("", None),
        2: ("", None),
        3: ("whole.example", None),
        4: ("", None),
        5: ("", None),
    }


def test_udp_flows_that_join_nothing_keep_no_windows():
    """200 UDP flows that join no registration, one packet each a second
    for 300 s: a bare flow table keeps a window per second on each, the
    analyzer none once the flows are more than `MGMT_WINDOW_S` old."""
    records = [
        udp_record(t + k * 0.001, "192.0.2.%d" % (k % 100 + 1), 30000 + k, "198.51.100.1", 5000 + k, 100)
        for t in range(300)
        for k in range(200)
    ]
    table = FlowTable(client_nets=NETS)
    analyzer = Analyzer(client_nets=NETS)
    for pkt in records:
        table.update(pkt)
        analyzer._feed([pkt])
    assert sum(len(f.windows) for f in table.flows.values()) == 200 * 300
    flows = analyzer.table.flows.values()
    assert len(flows) == 200 and all(f.total_pkts == 300 for f in flows)
    assert all(f.windows is None for f in flows)
    assert not analyzer._unjoined


def test_a_joined_flow_far_past_its_first_packet_is_classified_in_bounded_memory(tmp_path):
    """A gameplay's UDP flow sends its second packet 1e6 s after its first.
    Deciding its role reads its first `CLASSIFY_WINDOWS` windows only, not
    a list per window of the gap, so the analysis stays under 1 MB."""
    client, server = "192.0.2.10", "203.0.113.7"
    hello = build_client_hello("203-0-113-7.pnt.nvidiagrid.net")
    frames = [
        (1.0, ipv4_tcp(client, server, 51000, 322, 1, 1, 0x18, hello)),
        (1.1, ipv4_udp(client, server, 40000, 49006, b"i" * 20)),
        (1.1 + 1e6, ipv4_udp(client, server, 40000, 49006, b"i" * 20)),
    ]
    path = str(tmp_path / "t.pcap")
    pcap.write_capture(frames, path)
    analyzer = Analyzer(client_nets=NETS)
    tracemalloc.start()
    try:
        report = analyzer.analyze_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (reg,) = report.gameplays
    assert [f.role for f in reg.flows] == ["gameplay_mgmt", "user_input"]
    assert peak < 1 << 20


def test_the_unjoined_queue_holds_only_flows_young_enough_to_adopt():
    """A new one-packet UDP flow every 0.1 s for 600 s: the queue of flows a
    registration could still adopt never holds more than those of the last
    `SWEEP_S + MGMT_WINDOW_S`, the most the tick lets them wait, so it
    keeps no expired flow alive."""
    analyzer = Analyzer(client_nets=NETS)
    longest = 0
    for i in range(6000):
        analyzer._feed([udp_record(i * 0.1, "192.0.2.10", 1024 + i, "198.51.100.53", 53, 40)])
        longest = max(longest, len(analyzer._unjoined))
    assert longest <= (SWEEP_S + MGMT_WINDOW_S) / 0.1 + 1
    assert len(analyzer.table.flows) < 700  # the table expires them after 60 s idle


def test_an_unjoined_flow_made_out_of_time_order_waits_behind_a_later_one():
    """A UDP flow whose first packet comes after a later-started flow's in
    the file waits behind it in the queue: a tick that finds it more than
    `MGMT_WINDOW_S` old, but not the flow ahead of it, drops only the
    windows of the older flow at the queue's head. It keeps its windows
    until a tick finds the flow ahead of it old enough as well, and then
    both drop them. The first packet, of flow 30002, runs the first tick
    at 1.3, so the next ones run on the packets at 6.3 and 11.3."""
    analyzer = Analyzer(client_nets=NETS)
    windows = lambda: {f.key.client_port: f.windows for f in analyzer.table.flows.values()}  # noqa: E731
    for ts, port in [(1.3, 30002), (6.0, 30000), (5.2, 30001), (6.3, 30000)]:
        analyzer._feed([udp_record(ts, "192.0.2.10", port, "198.51.100.1", port - 25000, 100)])
    assert windows() == {30000: {6: [0, 2, 0, 200]}, 30001: {5: [0, 1, 0, 100]}, 30002: None}
    analyzer._feed([udp_record(11.3, "192.0.2.10", 30000, "198.51.100.1", 5000, 100)])
    assert windows() == {30000: None, 30001: None, 30002: None}
    assert not analyzer._unjoined


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


def test_first_payload_sizes_exclude_syn_and_stop_at_the_longest_signature():
    # the analyzer records handshake sizes on TCP flows to a port that a
    # setup signature names, each way as many as the longest signature
    # reads: one up and three down in the shipped codebook
    client, server = "192.0.2.10", "203.0.113.7"
    analyzer = Analyzer(client_nets=NETS)
    flows = analyzer.table.flows
    analyzer._feed([tcp_record(0.0, client, 1, server, 322, 12, flags=0x02)])  # SYN with data
    for i, size in enumerate([517, 100, 200, 300, 400]):
        analyzer._feed([tcp_record(0.1 + i * 0.1, client, 1, server, 322, size)])
    analyzer._feed([tcp_record(1.0, server, 322, client, 1, 1460)])
    mgmt = flows[FlowKey(packed(client), 1, packed(server), 322, TCP)]
    assert mgmt.signature is None
    assert mgmt.first_payload_sizes_up == [517]
    assert mgmt.first_payload_sizes_down == [1460]
    analyzer._feed([tcp_record(1.1 + i * 0.1, server, 322, client, 1, size) for i, size in enumerate([1460, 1400, 502])])
    assert mgmt.first_payload_sizes_down == [1460, 1460, 1400]
    assert mgmt.signature == ()  # every size a signature reads is kept, and none prefixes them

    analyzer._feed([tcp_record(2.0, client, 2, server, 322, 700, seq=None, ack=None, flags=None)])  # tail fragment
    assert flows[FlowKey(packed(client), 2, packed(server), 322, TCP)].first_payload_sizes_up == [700]

    analyzer._feed(
        [
            tcp_record(3.0, client, 3, server, 443, 517),
            tcp_record(3.1, server, 443, client, 3, 1460),
            udp_record(3.2, client, 4, server, 322, 517),
            udp_record(3.3, server, 322, client, 4, 1460),
        ]
    )
    for key in (FlowKey(packed(client), 3, packed(server), 443, TCP), FlowKey(packed(client), 4, packed(server), 322, UDP)):
        assert (flows[key].first_payload_sizes_up, flows[key].first_payload_sizes_down) == (None, None)


def test_a_signature_longer_than_the_shipped_ones_registers():
    """A codebook whose signature reads five downstream sizes registers a
    flow that sends them, on the fifth: every size it reads is kept."""
    books = default_codebooks()
    books[0].signatures = [SetupSignature(os="linux", dst_ports=[322], upstream_sizes=[517], downstream_sizes=[100, 200, 300, 400, 500])]
    client, server = "192.0.2.10", "203.0.113.7"
    key = FlowKey(packed(client), 1, packed(server), 322, TCP)
    analyzer = Analyzer(codebooks=books, client_nets=NETS)
    analyzer._feed([tcp_record(0.0, client, 1, server, 322, 517)])
    analyzer._feed([tcp_record(0.1 * i, server, 322, client, 1, size) for i, size in enumerate([100, 200, 300, 400], 1)])
    assert analyzer.detector.registrations == {}
    analyzer._feed([tcp_record(0.5, server, 322, client, 1, 500)])
    mgmt = analyzer.table.flows[key]
    assert mgmt.signature == ("linux", "console_app")
    (reg,) = analyzer.detector.registrations.values()
    assert (reg.flows, reg.platform_id, reg.registered_at) == ([mgmt], "gfn", 0.5)
    assert reg.setup == "console_app"


def test_a_gameplay_flow_outside_the_platform_port_range_is_unclassified(tmp_path):
    """An XBox gameplay's UDP flow to a server port outside 1040-1190 joins
    the gameplay, and is listed as unclassified and counted."""
    records, _ = gen_session(SessionProfile(platform="xbox", setup="hardware_console", duration_s=6.0, seed=4))
    start = next(ts for ts, frame in records if frame[9] == UDP)  # the first gameplay packet
    client, server = "192.0.2.10", "203.0.113.7"
    extra = [(start + 0.1 * i, ipv4_udp(client, server, 50000, 3000, b"x" * 100)) for i in range(20)]
    path = str(tmp_path / "t.pcap")
    pcap.write_capture(sorted(records + extra, key=lambda r: r[0]), path)
    report = _analyze(path)
    (reg,) = report.gameplays
    roles = dict(_flows(reg))
    assert roles[FlowKey(packed(client), 50000, packed(server), 3000, UDP)] == ROLE_UNCLASSIFIED
    assert list(roles.values()).count(ROLE_UNCLASSIFIED) == report.counters["unclassified_flows"] == 1


def _short_tls_flows(count, base_ts, span_s, seed):
    """Short TLS connections of clients in NETS to non-gaming servers:
    handshake, ClientHello, two server segments and a FIN each."""
    rng = random.Random(seed)
    records = []
    for k in range(count):
        client = "192.0.2.%d" % (50 + k % 20)
        server = "198.18.0.%d" % (1 + k % 200)
        cport, rtt = 20000 + k, rng.uniform(0.005, 0.05)
        t = base_ts + rng.uniform(0.0, span_s)
        cseq, sseq = rng.getrandbits(31), rng.getrandbits(31)
        hello = build_client_hello("www%03d.news.example" % k, rng=rng)
        records += [
            (t, ipv4_tcp(client, server, cport, 443, cseq, 0, 0x02)),
            (t + rtt, ipv4_tcp(server, client, 443, cport, sseq, cseq + 1, 0x12)),
            (t + rtt + 0.001, ipv4_tcp(client, server, cport, 443, cseq + 1, sseq + 1, 0x18, hello)),
            (t + 2 * rtt, ipv4_tcp(server, client, 443, cport, sseq + 1, cseq + 1 + len(hello), 0x18, b"\x17" * 1460)),
            (t + 2 * rtt + 0.002, ipv4_tcp(client, server, cport, 443, cseq + 1 + len(hello), sseq + 1461, 0x11)),
        ]
    return records


def test_only_the_flows_an_output_reads_keep_their_state(tmp_path):
    profile = SessionProfile(platform="gfn", setup="desktop_app", duration_s=8.0, seed=13)
    session, _ = gen_session(profile)
    alone_path = str(tmp_path / "alone.pcap")
    pcap.write_capture(session, alone_path)
    alone = _analyze(alone_path)

    mixed = sorted(session + _short_tls_flows(300, profile.base_ts - 2.0, 14.0, seed=5), key=lambda r: r[0])
    path = str(tmp_path / "mixed.pcap")
    pcap.write_capture(mixed, path)
    analyzer = Analyzer(client_nets=NETS)
    report = analyzer.analyze_file(path)
    flows = analyzer.table.flows.values()

    tcp = [f for f in flows if f.key.proto == TCP]
    assert len(tcp) > 300
    assert all(f.windows is None for f in tcp)
    found = [f for f in tcp if f.sni is not None]
    assert len(found) > 300
    assert all(f.reasm is None for f in found)
    assert all(f.first_payload_sizes_up is None for f in tcp if f.key.server_port != 322)

    (reg,) = report.gameplays
    roles = {key: role for key, role in _flows(reg) if key.proto == UDP}
    assert len(roles) == 4
    for key, role in roles.items():
        windows = analyzer.table.flows[key].windows
        if role in VIDEO_ROLES:
            assert windows
        else:
            assert windows is None
    assert reg.rows == alone.gameplays[0].rows
    assert reg.rows


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
    assert [reg.to_dict()["gameplay_server_ip"] for reg in report.gameplays] == ["203.0.113.7"]


def _clock(start, stop, step=SWEEP_S):
    """DNS queries of a host outside the sessions, one every `step` from
    `start` up to `stop`, that move the capture clock on."""
    t, frames = start, []
    while t <= stop:
        frames.append((t, ipv4_udp("192.0.2.99", "198.51.100.53", 33000, 53, b"q")))
        t += step
    return frames


def test_expired_flows_leave_no_state_to_their_five_tuples(tmp_path):
    """A FIN'd TLS flow with its SNI and a management-port flow that gave up
    its setup signature expire; a bare ACK on either five-tuple later makes
    a new flow with no SNI, reassembler or signature."""
    frames = _short_tls_flows(1, 0.0, 0.0, seed=1)
    mgmt = ("192.0.2.10", "203.0.113.7", 51000, 322)
    for i in range(4):  # sizes no signature starts with
        frames.append((0.1 * i, ipv4_tcp(*mgmt, 1 + 100 * i, 1, 0x18, b"\x17" * 100)))
        frames.append((0.1 * i + 0.05, ipv4_tcp(mgmt[1], mgmt[0], mgmt[3], mgmt[2], 1, 101 + 100 * i, 0x18, b"\x17" * 200)))
    frames.sort(key=lambda r: r[0])
    path = str(tmp_path / "t.pcap")
    pcap.write_capture(frames, path)
    analyzer = Analyzer(client_nets=NETS)
    analyzer.analyze_file(path)
    old = {f.key: f for f in analyzer.table.flows.values()}
    tls_key, mgmt_key = sorted(old, key=lambda k: k.server_port == 322)
    assert old[tls_key].sni == "www000.news.example" and old[tls_key].closed
    assert old[mgmt_key].signature == () and old[mgmt_key].sni == ""  # its reassembly gave up

    later = IDLE_TIMEOUT_S + 2 * SWEEP_S
    frames += _clock(SWEEP_S, later)
    frames.append((later + 1.0, ipv4_tcp(ip_text(tls_key.client_ip), ip_text(tls_key.server_ip), tls_key.client_port, 443, 9, 9, 0x10)))
    frames.append((later + 1.0, ipv4_tcp(*mgmt, 9, 9, 0x10)))
    pcap.write_capture(frames, path)
    analyzer = Analyzer(client_nets=NETS)
    report = analyzer.analyze_file(path)
    assert report.counters["flows_expired"] == 2
    for key in (tls_key, mgmt_key):
        flow = analyzer.table.flows[key]
        assert flow.total_pkts == 1
        assert (flow.sni, flow.reasm, flow.signature, flow.first_payload_sizes_up) == (None, None, None, None)
        assert not flow.closed
    assert report.gameplays == []


def test_registered_flows_never_expire(tmp_path):
    profile = SessionProfile(platform="gfn", setup="desktop_app", duration_s=6.0, seed=7)
    session, _ = gen_session(profile)
    end = session[-1][0]
    frames = session + _clock(end + 1.0, end + IDLE_TIMEOUT_S + CLOSED_LINGER_S + 2 * SWEEP_S)
    path = str(tmp_path / "t.pcap")
    pcap.write_capture(frames, path)
    analyzer = Analyzer(client_nets=NETS)
    report = analyzer.analyze_file(path)

    (reg,) = analyzer.detector.registrations.values()
    mgmt, *joined = reg.flows
    assert mgmt.gameplay is reg and len(joined) == 4
    assert all(analyzer.table.flows[f.key] is f for f in reg.flows)
    # every other flow of the session expired: only the clock's is left
    assert len(analyzer.table.flows) == len(reg.flows) + 1
    assert report.counters["flows_expired"] > 0
    assert report.gameplays == [reg]
    assert reg.rows


def test_the_flow_table_holds_the_live_flows_not_the_capture(tmp_path, monkeypatch):
    """3,000 short TLS connections over 600 s around one desktop session: the
    table at EOF holds the session's flows and the last few seconds' worth
    of connections, and the session comes out as it does alone."""
    profile = SessionProfile(platform="gfn", setup="desktop_app", duration_s=8.0, seed=13)
    session, _ = gen_session(profile)
    alone_path = str(tmp_path / "alone.pcap")
    pcap.write_capture(session, alone_path)
    alone = _analyze(alone_path)

    created = []
    update = FlowTable.update

    def counted(self, pkt):
        flow = update(self, pkt)
        if flow.total_pkts == 1:
            created.append(flow)
        return flow

    monkeypatch.setattr(FlowTable, "update", counted)
    background = _short_tls_flows(3000, profile.base_ts - 300.0, 600.0, seed=5)
    path = str(tmp_path / "mixed.pcap")
    pcap.write_capture(sorted(session + background, key=lambda r: r[0]), path)
    analyzer = Analyzer(client_nets=NETS)
    report = analyzer.analyze_file(path)

    assert len(created) > 3000
    assert len(analyzer.table.flows) < 150  # about 5 connections/s, each held 10 to 15 s after its FIN
    assert report.counters["flows_expired"] == len(created) - len(analyzer.table.flows)
    (reg,) = report.gameplays
    (a,) = alone.gameplays
    assert _flows(reg) == _flows(a)
    assert reg.setup == a.setup
    assert reg.to_dict()["os_hint"] == a.to_dict()["os_hint"]
    assert reg.rows == a.rows
    assert reg.rows


def test_a_reused_management_five_tuple_continues_the_first_session(tmp_path):
    """Two desktop sessions of one client, 30 min apart on the same
    five-tuples: the registered flows never expire, so the output is still
    one gameplay with the first session's flows and QoE rows, though the
    platform flows between them expire, and it ends in the second session
    (ROADMAP item 4 keeps this case)."""
    first, _ = gen_session(SessionProfile(platform="gfn", setup="desktop_app", duration_s=6.0, seed=7))
    second, _ = gen_session(
        SessionProfile(platform="gfn", setup="desktop_app", duration_s=6.0, seed=8, base_ts=1_700_001_800.0)
    )
    alone_path = str(tmp_path / "alone.pcap")
    pcap.write_capture(first, alone_path)
    alone = _analyze(alone_path)
    path = str(tmp_path / "both.pcap")
    pcap.write_capture(first + second, path)
    report = _analyze(path)

    assert report.counters["flows_expired"] > 0
    (reg,) = report.gameplays
    (a,) = alone.gameplays
    assert _flows(reg) == _flows(a)
    assert (reg.session_id, reg.setup) == (a.session_id, a.setup)
    assert reg.to_dict()["gameplay_started_at"] == a.to_dict()["gameplay_started_at"]
    assert second[0][0] < reg.to_dict()["ended_at"] <= second[-1][0]
    assert reg.rows == a.rows


def test_two_gameplays_of_one_session_keep_their_own_rows(tmp_path):
    """A desktop-app session, then a browser session of the same client 30
    min later: the second gameplay takes the still open platform session,
    whose setup the browser names have refined by then. Each gameplay is
    its own line, as its session analyzed alone, and keeps that session's
    QoE rows."""
    desktop = SessionProfile(platform="gfn", setup="desktop_app", duration_s=20.0, seed=3)
    browser = SessionProfile(
        platform="gfn", setup="browser", duration_s=20.0, seed=4, base_ts=desktop.base_ts + 1800.0
    )
    records, alone = [], []
    for i, profile in enumerate((desktop, browser)):
        session, _ = gen_session(profile)
        records += session
        path = str(tmp_path / ("alone%d.pcap" % i))
        pcap.write_capture(session, path)
        alone.append(_analyze(path))
    path = str(tmp_path / "both.pcap")
    pcap.write_capture(records, path)
    report = _analyze(path)

    first, second = (a.gameplays[0].to_dict() for a in alone)
    assert [reg.to_dict() for reg in report.gameplays] == [
        first,
        {**second, "session_id": "s2", "detected_at": first["detected_at"]},
    ]
    assert report.counters["platform_sessions"] == 1
    assert [len(reg.rows) for reg in report.gameplays] == [19, 19]
    assert [reg.rows for reg in report.gameplays] == [a.gameplays[0].rows for a in alone]
    assert [row["session_id"] for row in load_qoe_csv(str(tmp_path / "out" / "qoe.csv"))] == ["s1"] * 19 + ["s2"] * 19
    assert [a.counters["latency_unreported"] for a in alone] == [1, 2]
    assert report.counters["latency_unreported"] == 3


T0 = SessionProfile(platform="gfn", setup="desktop_app").base_ts
DESKTOP_120S = dict(platform="gfn", setup="desktop_app", duration_s=120.0, seed=3, fps_schedule=[(0.0, 30)], resolution_schedule=[(0.0, "sd")])
SECOND = dict(duration_s=20.0, seed=4, server_ip="203.0.113.9", base_ts=T0 + 70.0)


@pytest.mark.parametrize(
    "first, second, platform_sessions",
    [
        (DESKTOP_120S, dict(SECOND, platform="gfn", setup="browser"), ["p1", "p1"]),
        (DESKTOP_120S, dict(SECOND, platform="xbox", setup="pc_browser"), ["p1", "p2"]),
        (dict(DESKTOP_120S, duration_s=20.0), dict(SECOND, platform="gfn", setup="browser", base_ts=T0 + 1800.0), ["p1", "p1"]),
        (DESKTOP_120S, dict(SECOND, platform="gfn", setup="browser", client_ip="192.0.2.11"), ["p1", "p2"]),
    ],
    ids=["gfn-browser-at-70s", "xbox-browser-at-70s", "gfn-browser-at-30min", "two-addresses"],
)
def test_each_gameplay_of_one_address_is_its_own_session(tmp_path, first, second, platform_sessions):
    """A desktop-app gameplay of 192.0.2.10, and a second gameplay 70 s
    into it or 30 min after it: each is its own sessions.jsonl line, with
    its own setup, flows and QoE rows, and `report.score` fails neither, as
    when the second is another address's. A second gameplay of the same
    platform takes the open platform session, one of another platform opens
    its own."""
    records, manifests = compose([SessionProfile(**first), SessionProfile(**second)])
    path = str(tmp_path / "t.pcap")
    pcap.write_capture(records, path)
    report = _analyze(path)
    sessions = load_sessions_jsonl(str(tmp_path / "out" / "sessions.jsonl"))
    result = score(sessions, load_qoe_csv(str(tmp_path / "out" / "qoe.csv")), manifests)
    assert (result["attempted"], result["failed"]) == (2, 0), result["failures"]
    assert [(m["session_id"], m["resolution_accuracy"]) for m in result["matches"]] == [("s1", 1.0), ("s2", 1.0)]
    assert [s["platform_session"] for s in sessions] == platform_sessions
    assert report.counters["platform_sessions"] == len(set(platform_sessions))


def test_a_platform_session_without_a_gameplay_writes_no_line(tmp_path):
    """Only a desktop-app session's platform flows, to port 443: its GFN
    names open a platform session, which `platform_sessions` counts, and
    with no gameplay, sessions.jsonl holds only its header."""
    records, _ = compose([SessionProfile(platform="gfn", setup="desktop_app", duration_s=6.0, seed=7)])
    platform = [(ts, frame) for ts, frame in records if frame[9] == TCP and 443 in struct.unpack("!HH", frame[20:24])]
    assert 0 < len(platform) < len(records)
    path = str(tmp_path / "t.pcap")
    pcap.write_capture(platform, path)
    report = _analyze(path)
    assert (report.gameplays, report.counters["platform_sessions"]) == ([], 1)
    assert (tmp_path / "out" / "sessions.jsonl").read_text().splitlines() == ['{"schema": "gamesight-sessions/2"}']


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
    flow.role = "combined_media_input"
    reg = ServerRegistration(flow.key.client_ip, flow.key.server_ip, 0.0, "browser", "gfn", "s1", "browser", flows=[flow])
    d = reg.to_dict()
    assert (d["client_ip"], d["gameplay_server_ip"]) == written
    (listed,) = d["gameplay_flows"]
    assert (listed["client_ip"], listed["server_ip"]) == written
    assert (d["platform_session"], d["detected_at"], d["ended_at"]) == (None, None, 0.0)


def test_pipeline_deterministic(tmp_path):
    path, _ = _capture(tmp_path)
    r1, r2 = _analyze(path), _analyze(path)
    assert r1.gameplays[0].rows == r2.gameplays[0].rows
    assert [reg.to_dict() for reg in r1.gameplays] == [reg.to_dict() for reg in r2.gameplays]


def test_browser_session_combined_flow(tmp_path):
    path, manifest = _capture(tmp_path, setup="browser", seed=5)
    report = _analyze(path)
    (reg,) = report.gameplays
    assert reg.setup == "browser"
    roles = sorted(r for _, r in _flows(reg))
    assert roles == ["combined_media_input", "gameplay_mgmt", "stun_webrtc"]
    assert reg.rows  # QoE comes from the combined flow


def test_strip_sni_signature_fallback(tmp_path):
    path, manifest = _capture(tmp_path, strip_sni=True, seed=9)
    report = _analyze(path)
    (reg,) = report.gameplays
    assert reg.to_dict()["os_hint"] == "windows"
    assert reg.setup == "console_app"  # only the agent class is knowable without SNIs
    assert reg.platform_session is None
    roles = sorted(r for _, r in _flows(reg))
    assert roles == ["down_audio", "down_video", "gameplay_mgmt", "up_audio", "user_input"]


@pytest.mark.parametrize("strip_sni, gameplays, unregistered", [(True, 0, 1), (False, 1, 0)])
def test_a_management_flow_that_registers_nothing_is_counted(tmp_path, strip_sni, gameplays, unregistered):
    """Without its SNI, an Android XBox browser's management flow matches no
    signature on its port: no gameplay registers, and the flow is counted
    once, at the packet where that becomes certain."""
    path, _ = _capture(tmp_path, platform="xbox", setup="pc_browser", os="android", strip_sni=strip_sni, duration_s=12.0, seed=3)
    report = _analyze(path)
    assert len(report.gameplays) == gameplays
    assert report.counters["unregistered_mgmt_flows"] == unregistered


def test_a_management_flow_on_a_port_no_signature_names_is_counted(tmp_path):
    """With a codebook that has no GFN signatures, a stripped-SNI desktop
    session's management flow is certain to register nothing once its
    ClientHello reassembly finishes: its port was settled as one no
    signature can match at its first data."""
    books = default_codebooks()
    books[0].signatures = []
    path, _ = _capture(tmp_path, strip_sni=True, duration_s=6.0, seed=9)
    analyzer = Analyzer(codebooks=books, client_nets=NETS)
    report = analyzer.analyze_file(path)
    assert analyzer.detector.signatures == {}
    assert report.gameplays == []
    assert report.counters["unregistered_mgmt_flows"] == 1


def test_an_sni_registration_is_not_repeated_by_its_signature(tmp_path):
    """The management flow that its SNI registered matches its handshake
    signature later: that gives the session its OS hint, and is no second
    registration."""
    path, _ = _capture(tmp_path)
    report = _analyze(path)
    assert report.counters["repeated_registrations"] == 0
    (written,) = load_sessions_jsonl(str(tmp_path / "out" / "sessions.jsonl"))
    assert (written["session_id"], written["os_hint"]) == ("s1", "windows")


def test_sessions_are_listed_in_the_order_they_were_made(tmp_path):
    """Gameplays are listed in registration order: client A's stripped-SNI
    gameplay, without a platform session, registers before client B's
    platform session is detected, and comes first."""
    a, manifest = gen_session(
        SessionProfile(platform="gfn", setup="desktop_app", client_ip="192.0.2.10", base_ts=1000.0, duration_s=6.0, seed=7, strip_sni=True)
    )
    registered = manifest.data["timeline"]["gameplay_start"]
    b, _ = gen_session(
        SessionProfile(
            platform="gfn", setup="desktop_app", client_ip="192.0.2.11", server_ip="203.0.113.8",
            base_ts=registered + 1.0, duration_s=6.0, seed=8,
        )
    )
    path = str(tmp_path / "t.pcap")
    pcap.write_capture(sorted(a + b, key=lambda r: r[0]), path)
    report = _analyze(path)
    a_reg, b_reg = report.gameplays
    assert [ip_text(reg.client_ip) for reg in report.gameplays] == ["192.0.2.10", "192.0.2.11"]
    assert a_reg.platform_session is None
    assert a_reg.registered_at < b_reg.platform_session.detected_at
    written = [(d["session_id"], d["platform_session"]) for d in load_sessions_jsonl(str(tmp_path / "out" / "sessions.jsonl"))]
    assert written == [("s1", None), ("s2", "p1")]


def test_xbox_session(tmp_path):
    path, _ = _capture(tmp_path, platform="xbox", setup="hardware_console", seed=4)
    report = _analyze(path)
    (reg,) = report.gameplays
    assert reg.platform_id == "xbox"
    assert reg.setup == "hardware_console"
    roles = sorted(r for _, r in _flows(reg))
    assert roles == ["combined_media_input", "gameplay_mgmt", "stun_webrtc"]


def test_empty_capture(tmp_path):
    from gamesight import pcap

    path = str(tmp_path / "empty.pcap")
    pcap.write_capture([], path)
    report = _analyze(path)
    assert report.gameplays == []
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
        (65535, ("p1", "desktop_app")),
        # the management ClientHello loses its SNI: the handshake-size
        # signature registers the server and takes the platform session
        (256, ("p1", "desktop_app")),
        # no platform name survives either: the gameplay has no platform
        # session, and the signature's class as its setup
        (128, (None, "console_app")),
    ],
    ids=["65535", "256", "128"],
)
def test_headers_only_capture_keeps_flows_and_qoe(snaplen_reports, snaplen, session):
    full = snaplen_reports[65535][0]
    rep, cut = snaplen_reports[snaplen]
    assert rep.counters["snaplen_truncated"] == cut
    assert (cut > 0) is (snaplen < 65535)
    (reg,) = rep.gameplays
    d = reg.to_dict()
    assert (d["platform_session"], d["setup"], d["os_hint"]) == (*session, "windows")
    roles = [r for _, r in _flows(reg)]
    assert roles == ["gameplay_mgmt", "down_video", "down_audio", "up_audio", "user_input"]
    assert _flows(reg) == _flows(full.gameplays[0])
    assert len(reg.rows) == 19
    assert reg.rows == full.gameplays[0].rows
