"""Byte-identity of `analyze` outputs on short fixed-seed sessions.

The analyzer reads the capture in one pass and decides each gameplay flow's
role once, holding a joined flow's downstream packets until then. A change
that alters an output on purpose re-records the digests it changes and says
why. The qoe.csv digests were last re-recorded when QoE rows moved onto the
flow table's whole one-second windows (schema gamesight-qoe/2); the
sessions.jsonl digests are older. The short session ends before its video
flow's classifying windows close, so its QoE comes from the packets still
waiting when the capture ends. The console capture also pins two per-run
counts: the address-to-text conversions and the latency samples no QoE
row reports, and it checks that packets travel as plain tuples, with no
record object built per packet, and that each of its frames, raw or in
Ethernet with or without a VLAN tag, is parsed with one unpack.
"""

import hashlib
import struct

import pytest

import gamesight
from gamesight import packets, pcap
from gamesight.flows import WINDOW_S
from gamesight.packets import ETH_IPV4, ETH_IPV6, PacketRecord
from gamesight.pipeline import Analyzer
from gamesight.synth import SessionProfile, gen_session, write_session

from conftest import analyze_checked

CASES = {
    "console": (
        dict(setup="desktop_app", resolution_schedule=[(0.0, "fhd")], rtt_ms=20.0, seed=31),
        "cbe04ed2718f958ab73b781adb5e61d1e6359caa0ceb2d6939bdbb2c0e709fc6",
        "8ce05b28def2890635b2f8714d357e2d45f53ae61d05bbdd22d720b848368966",
    ),
    "browser": (
        dict(setup="browser", fps_schedule=[(0.0, 30)], resolution_schedule=[(0.0, "hd")], rtt_ms=80.0, seed=32),
        "b4cc7d3405646742a6fe6d9d31e6efe474cd406b5557ee3dbe7ad787a5a4861b",
        "523b024a7078c51d86cce51e9a13fbd54b7fed1f24d1456377d40721a1f08644",
    ),
    "short": (
        dict(setup="desktop_app", rtt_ms=20.0, seed=34, duration_s=2.5),
        "8140acc5c351cfde7de8512a0a4f1eb3ea03fa70577ecf3ba441879950c4a3b3",
        "666eab5f003a2914bb0aa7fc1b1c5d790b40bf89583fbb185d07070338912ced",
    ),
    "strip-sni": (
        dict(setup="mobile_app", os="android", rtt_ms=5.0, seed=33, strip_sni=True),
        "d46cd601d04109dbd27708a727404d3c05830fff8106d8438c0bb68fd6a5f395",
        "6a537ff0c89f05c3ecef7f70c97904722f0a2d9ee15e9205fe5f469568e77c79",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _profile(profile_kw) -> SessionProfile:
    return SessionProfile(**{"platform": "gfn", "duration_s": 8.0, **profile_kw})


def _analyze(tmp_path, monkeypatch) -> tuple[str, str]:
    """Analyze `tmp_path/s.pcap` from inside `tmp_path`, so that the relative
    capture name written to sessions.jsonl is stable; the report is checked
    with `check_gameplays`."""
    monkeypatch.chdir(tmp_path)
    analyze_checked("s.pcap", "out")
    return _sha256(tmp_path / "out" / "sessions.jsonl"), _sha256(tmp_path / "out" / "qoe.csv")


def analyze_digests(tmp_path, monkeypatch, profile_kw) -> tuple[str, str]:
    """Generate one GFN session (8 s unless given) and analyze it."""
    write_session(_profile(profile_kw), str(tmp_path / "s.pcap"), str(tmp_path / "s.manifest.json"))
    return _analyze(tmp_path, monkeypatch)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_byte_identical(tmp_path, monkeypatch, case):
    profile_kw, sessions_sha, qoe_sha = CASES[case]
    assert analyze_digests(tmp_path, monkeypatch, profile_kw) == (sessions_sha, qoe_sha)


# Ethernet header (destination, source MAC) before the EtherType, and the
# same with one 802.1Q tag (TPID 0x8100, VLAN 1).
LINK_HEADERS = {
    "ethernet": b"\x02" * 6 + b"\x04" * 6,
    "vlan": b"\x02" * 6 + b"\x04" * 6 + struct.pack("!HH", 0x8100, 1),
}


def _write_console(path, link) -> None:
    """The console case's capture, as raw IP or in the frames of `link`."""
    records, _ = gen_session(_profile(CASES["console"][0]))
    if link == "raw":
        pcap.write_capture(records, path)
        return
    head = LINK_HEADERS[link]
    frames = [(ts, head + struct.pack("!H", ETH_IPV4 if ip[0] >> 4 == 4 else ETH_IPV6) + ip) for ts, ip in records]
    pcap.write_capture(frames, path, link_type=pcap.LINKTYPE_ETHERNET)


@pytest.mark.parametrize("link", ["raw"] + sorted(LINK_HEADERS))
def test_link_layer_leaves_outputs_byte_identical(tmp_path, monkeypatch, link):
    # the analyzer ignores the link layer: the console case's records in
    # Ethernet frames, with or without a VLAN tag, give that case's recorded
    # digests; and every frame, raw or not, is a common frame, which
    # parse_packet parses with one unpack, never calling the general parser
    _, sessions_sha, qoe_sha = CASES["console"]
    _write_console(str(tmp_path / "s.pcap"), link)
    calls = 0
    general = packets._parse_general

    def counting(*args):
        nonlocal calls
        calls += 1
        return general(*args)

    monkeypatch.setattr(packets, "_parse_general", counting)
    assert _analyze(tmp_path, monkeypatch) == (sessions_sha, qoe_sha)
    assert calls == 0
    packets.parse_packet(b"", pcap.LINKTYPE_RAW_IP, 0.0)
    assert calls == 1  # the count does see a frame parsed by the general parser


def test_no_record_object_is_built_per_packet(tmp_path, monkeypatch):
    # parse_packet returns plain tuples laid out as PacketRecord, and the
    # analyzer reads them by position: the console capture gives its
    # recorded digests without one PacketRecord being built
    _, sessions_sha, qoe_sha = CASES["console"]
    _write_console(str(tmp_path / "s.pcap"), "raw")
    built = 0
    real = PacketRecord.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(PacketRecord, "__new__", counting)
    assert _analyze(tmp_path, monkeypatch) == (sessions_sha, qoe_sha)
    assert built == 0
    PacketRecord(0.0, b"\0" * 4, 1, b"\0" * 4, 2, packets.UDP, 0)
    assert built == 1  # the count does see a record being built
    shapes = {(rec.__class__, len(rec)) for rec in packets.read_capture(str(tmp_path / "s.pcap"))}
    assert shapes == {(tuple, len(PacketRecord._fields))}


def _analyze_console(tmp_path, client_nets=("192.0.2.0/24",)):
    records, _ = gen_session(_profile(CASES["console"][0]))
    pcap.write_capture(records, str(tmp_path / "s.pcap"))
    analyzer = Analyzer(client_nets=client_nets)
    return analyzer, analyzer.analyze_file(str(tmp_path / "s.pcap"))


@pytest.mark.parametrize("client_nets", [("192.0.2.0/24",), ()])
def test_address_text_is_made_per_flow_not_per_packet(tmp_path, monkeypatch, client_nets):
    # addresses stay packed from parse to output: text is made twice for
    # each flow whose orientation is guessed, once for each gameplay
    # name's embedded address, and twice for each session and listed flow
    calls = 0
    real = packets.ip_text

    def counting(addr):
        nonlocal calls
        calls += 1
        return real(addr)

    for module in vars(gamesight).values():
        if getattr(module, "ip_text", None) is real:
            monkeypatch.setattr(module, "ip_text", counting)
    analyzer, report = _analyze_console(tmp_path, client_nets)
    sessions = [s.to_dict() for s in report.sessions]
    guessed = sum(f.guessed for f in analyzer.table.flows.values())
    listed = sum(len(s["gameplay_flows"]) for s in sessions)
    assert analyzer.table.evictions == 0
    assert calls == 2 * guessed + len(analyzer.detector.registrations) + 2 * (len(sessions) + listed)
    assert 0 < calls < report.counters["packets"] / 100


def test_latency_samples_without_a_row_are_counted(tmp_path):
    analyzer, report = _analyze_console(tmp_path)
    (reg,) = analyzer.detector.registrations.values()
    samples = reg.flows[0].latency.samples
    (session,) = report.sessions
    windows = {int(row.ts // WINDOW_S) for row in session.gameplays[0].rows}
    averaged = sum(int(s.ts // WINDOW_S) in windows for s in samples)
    assert report.counters["latency_unreported"] == len(samples) - averaged > 0
    # a session without a video flow reports none of its samples
    assert analyzer._session_qoe(reg.flows[0].latency, None) == ([], len(samples))
