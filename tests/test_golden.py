"""Byte-identity of `analyze` outputs on short fixed-seed sessions.

The analyzer reads the capture in one pass and decides each gameplay flow's
role once, holding a joined flow's downstream packets until then. A change
that alters an output on purpose re-records the digests it changes and says
why. The sessions.jsonl digests were last re-recorded when each gameplay
became one line (schema gamesight-sessions/2), and with them the strip-sni
qoe.csv digest, whose gameplay's session id went from u1 to s1. The other
qoe.csv digests date from when QoE rows moved onto the flow table's whole
one-second windows (schema gamesight-qoe/2). Two of the benchmark's
workloads (seed 7) pin their sessions.jsonl and qoe.csv digests and every
counter as well. The short session ends before its video
flow's classifying windows close, so its QoE comes from the packets still
waiting when the capture ends. The console capture also pins two per-run
counts: the address-to-text conversions and the latency samples no QoE
row reports, and it checks that packets travel as plain tuples, with no
record object built per packet, and that each of its frames, raw or in
Ethernet with or without a VLAN tag, is parsed with one unpack. Each
case's QoE rows are built in the form qoe.csv holds, and read back from the
written file as the same dicts.
"""

import hashlib
import struct

import pytest

import gamesight
from gamesight import packets, pcap, qoe
from gamesight.flows import WINDOW_S
from gamesight.packets import ETH_IPV4, ETH_IPV6, PacketRecord
from gamesight.pipeline import Analyzer
from gamesight.report import QOE_COLUMNS, capture_outputs, load_qoe_csv, write_qoe_csv
from gamesight.synth import SessionProfile, gen_session, write_session

from conftest import analyze_checked, benchmark_workloads

CASES = {
    "console": (
        dict(setup="desktop_app", resolution_schedule=[(0.0, "fhd")], rtt_ms=20.0, seed=31),
        "413106bcf0737a7810da1e2da13957562314a56ef7bcd133261be45b1b1d208f",
        "8ce05b28def2890635b2f8714d357e2d45f53ae61d05bbdd22d720b848368966",
    ),
    "browser": (
        dict(setup="browser", fps_schedule=[(0.0, 30)], resolution_schedule=[(0.0, "hd")], rtt_ms=80.0, seed=32),
        "a1a6bd889276e14138074a2cf809501f10e3b026b134b26a2108729d6bede3ce",
        "523b024a7078c51d86cce51e9a13fbd54b7fed1f24d1456377d40721a1f08644",
    ),
    "short": (
        dict(setup="desktop_app", rtt_ms=20.0, seed=34, duration_s=2.5),
        "69dcf53cf8dc2782b2f8e0183ec88cc8c0fd91b9be6c9264b7305f129ccd77cc",
        "666eab5f003a2914bb0aa7fc1b1c5d790b40bf89583fbb185d07070338912ced",
    ),
    "strip-sni": (
        dict(setup="mobile_app", os="android", rtt_ms=5.0, seed=33, strip_sni=True),
        "111a839f44d63b80da955a0382d10e30a3a711d5f409fd6927106cb01be4d39c",
        "213831999cca47ebe60b150236a1903e3f58b892900c7cb3392a2b41ff0bf4ac",
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


def _analyze_case(tmp_path, case):
    """The capture path and the analysis of one golden case."""
    path = str(tmp_path / "s.pcap")
    write_session(_profile(CASES[case][0]), path, str(tmp_path / "s.manifest.json"))
    return path, Analyzer(client_nets=("192.0.2.0/24",)).analyze_file(path)


@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_hold_the_qoe_csv_columns_but_session_id(tmp_path, case):
    # a row is built once, in the form qoe.csv holds: a column that
    # gameplay_rows builds and QOE_COLUMNS does not name, or the reverse,
    # fails here
    _, report = _analyze_case(tmp_path, case)
    rows = [row for reg in report.gameplays for row in reg.rows]
    assert rows
    assert all(set(row) == set(QOE_COLUMNS) - {"session_id"} for row in rows)


@pytest.mark.parametrize("case", sorted(CASES))
def test_written_rows_read_back_as_the_rows_in_memory(tmp_path, case):
    # capture_outputs only adds the prefixed session id to a row, and
    # prefixes both ids of a sessions.jsonl object; load_qoe_csv gives back
    # exactly the rows write_qoe_csv was given
    path, report = _analyze_case(tmp_path, case)
    sessions, rows = capture_outputs(report, path, "c0-")
    (reg,) = report.gameplays
    assert [(s["session_id"], s["platform_session"]) for s in sessions] == [
        ("c0-s1", None if reg.platform_session is None else "c0-p1")
    ]
    assert rows == [{**row, "session_id": "c0-s1"} for row in reg.rows]
    write_qoe_csv(str(tmp_path / "qoe.csv"), rows)
    assert load_qoe_csv(str(tmp_path / "qoe.csv")) == rows


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
    # each flow whose orientation is guessed (each counts an orientation
    # warning), once for each gameplay name's embedded address, and twice
    # for each gameplay and listed flow
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
    sessions = [reg.to_dict() for reg in report.gameplays]
    guessed = report.counters["orientation_warnings"]
    listed = sum(len(s["gameplay_flows"]) for s in sessions)
    assert analyzer.table.evictions == 0
    assert calls == 2 * guessed + len(analyzer.detector.registrations) + 2 * (len(sessions) + listed)
    assert 0 < calls < report.counters["packets"] / 100


def test_latency_samples_without_a_row_are_counted(tmp_path):
    analyzer, report = _analyze_console(tmp_path)
    (reg,) = analyzer.detector.registrations.values()
    latency = reg.latency
    assert latency.count == sum(map(len, latency.windows.values()))
    windows = {int(row["ts"] // WINDOW_S) for row in reg.rows}
    averaged = sum(len(v) for idx, v in latency.windows.items() if idx in windows)
    assert report.counters["latency_unreported"] == latency.count - averaged > 0
    # a session without a video flow reports none of its samples
    assert qoe.gameplay_rows(latency, None) == ([], latency.count)


# the counters both workloads leave at zero
ZERO_COUNTERS = dict(
    flow_evictions=0,
    negative_latency_discarded=0,
    orientation_warnings=0,
    repeated_registrations=0,
    skip_reasons={},
    skipped=0,
    snaplen_truncated=0,
    sni_reassembly_given_up=0,
    truncated_tail=0,
    unadopted_flows=0,
    unclassified_flows=0,
    unregistered_mgmt_flows=0,
)
# workload -> sessions.jsonl sha256, qoe.csv sha256, counters, for its seed-7
# capture analyzed as capture.pcap with the workload's client nets
WORKLOAD_PINS = {
    "nat-churn": (
        "6746a4fdb605b2bab8dd8a461ef65888e0fb3d5885144912b8f1661cf2ac356a",
        "c92651e81ac21782bce5354e9fe32e4de12d5ce8e0009f190cbb5c5be16c4b3c",
        {**ZERO_COUNTERS, "packets": 17352, "flows_expired": 1559, "latency_unreported": 1, "platform_sessions": 1},
    ),
    "campus-mix": (
        "54b86a988079d14af67126b6bf337fa4a93a22cd51742311587db299cb4d013e",
        "2afab23ef86bb01c1a9c4893b494ed71bcc311c2179f0d2b8eb254835c19024f",
        {**ZERO_COUNTERS, "packets": 191587, "flows_expired": 7986, "latency_unreported": 13, "platform_sessions": 6},
    ),
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_PINS))
def test_benchmark_workload_outputs_pinned(tmp_path, monkeypatch, workload):
    # the benchmark's captures, analyzed as it analyzes them: a change that
    # alters what the benchmark's oracle scores, or any counter, shows here
    records, _, nets, link = benchmark_workloads()[workload](7)
    pcap.write_capture(records, str(tmp_path / "capture.pcap"), link_type=link)
    del records
    monkeypatch.chdir(tmp_path)
    report = analyze_checked("capture.pcap", "out", nets)
    sessions_sha, qoe_sha, counters = WORKLOAD_PINS[workload]
    assert report.counters == counters
    assert _sha256(tmp_path / "out" / "sessions.jsonl") == sessions_sha
    assert _sha256(tmp_path / "out" / "qoe.csv") == qoe_sha
