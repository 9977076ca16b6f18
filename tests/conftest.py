import importlib.util
import ipaddress
import json
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner

from gamesight import cli, packets
from gamesight.classify import ROLE_MGMT, VIDEO_ROLES
from gamesight.flows import WINDOW_S
from gamesight.packets import PacketRecord, TCP, UDP
from gamesight.pipeline import Analyzer
from gamesight.qoe import FrameRateTracker, LatencyTracker
from gamesight.synth import gen_session


def benchmark_workloads():
    """The benchmark's workload generators, `perfbench/workloads.py` loaded
    by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


def packed(ip: str) -> bytes:
    """An address's text as the packed bytes the analyzer keeps."""
    return ipaddress.ip_address(ip).packed


def udp_record(
    ts: float,
    src: str,
    sport: int,
    dst: str,
    dport: int,
    payload_len: int,
) -> PacketRecord:
    return PacketRecord(ts, packed(src), sport, packed(dst), dport, UDP, payload_len)


def tcp_record(
    ts: float,
    src: str,
    sport: int,
    dst: str,
    dport: int,
    payload_len: int,
    seq: int = 0,
    ack: int = 0,
    flags: int = 0x18,
    payload: bytes = None,
) -> PacketRecord:
    return PacketRecord(
        ts, packed(src), sport, packed(dst), dport, TCP, payload_len, seq=seq, ack=ack, flags=flags, payload=payload
    )


def stats(pps_in=0.0, pps_out=0.0, bps_in=0.0, bps_out=0.0):
    """One window's counts, `[pkts_in, pkts_out, bytes_in, bytes_out]` as in
    `FlowState.windows`, derived from target rates."""
    return [
        int(pps_in * WINDOW_S),
        int(pps_out * WINDOW_S),
        int(bps_in * WINDOW_S / 8),
        int(bps_out * WINDOW_S / 8),
    ]


@pytest.fixture
def tmp_pcap(tmp_path):
    return str(tmp_path / "t.pcap")


@pytest.fixture
def parse_both_ways(request, monkeypatch):
    """Check each `parse_packet` call of a test, also those `read_capture`
    makes on a record in its read chunk, against the general parser on the
    record's own bytes `raw[start:stop]`: the same result, and the same
    fragment-cache entries afterwards."""
    fast, general = packets.parse_packet, packets._parse_general

    def both(raw, link_type, ts, frag_cache=None, orig_len=None, start=0, stop=None):
        cache = None
        if frag_cache is not None:
            cache = packets._FragCache()
            cache.entries = dict(frag_cache.entries)
        expected = general(raw[start:stop], link_type, ts, cache, orig_len)
        got = fast(raw, link_type, ts, frag_cache, orig_len, start, stop)
        assert got == expected
        assert frag_cache is None or frag_cache.entries == cache.entries
        return got

    monkeypatch.setattr(packets, "parse_packet", both)
    if getattr(request.module, "parse_packet", None) is fast:
        monkeypatch.setattr(request.module, "parse_packet", both)


def compose(profiles):
    """The `gen_session` plans of `profiles` merged into one capture's
    records with one stable sort by time, and their manifests' data, in
    profile order.

    Every plan opens its platform flows from client ports 40000, 40001, ...
    to 203.0.113.10, .11, ... port 443. A second session of one client
    address that starts within `IDLE_TIMEOUT_S` (60 s) of the first
    therefore reuses the first's platform five-tuples: it continues those
    flows, whose ClientHellos have been read, so its own are never parsed.
    Start a client's sessions at least 70 s apart."""
    plans = [gen_session(profile) for profile in profiles]
    records = sorted((record for plan, _ in plans for record in plan), key=lambda r: r[0])
    return records, [manifest.data for _, manifest in plans]


def check_gameplays(analyzer, report, qoe_samples: int) -> None:
    """The invariants of one analyzed capture's gameplays: the report lists
    the registrations in registration order, with ids s1, s2, ... in that
    order; the detector's platform sessions have ids p1, p2, ... in the
    order they were opened, and `platform_sessions` counts them; each
    gameplay's platform session, if any, is one of them, of its client; it
    has a latency tracker; its first flow is its management flow; each of
    its flows points back to it, holds no packets once its role is decided,
    and has a frame-rate tracker if its role is a video one; its rows'
    windows strictly increase; and all rows together are the `qoe_samples`
    that `analyze` printed. Beside them,
    the analyzer holds only state an output can read: every pattern a
    detector client holds a time for is a codebook pattern, and no UDP flow
    that joined nothing and has left the queue of flows a registration
    could still adopt keeps its windows."""
    regs = list(analyzer.detector.registrations.values())
    assert report.gameplays == regs
    assert [reg.session_id for reg in regs] == ["s%d" % i for i in range(1, len(regs) + 1)]
    sessions = analyzer.detector.sessions
    assert [s.session_id for s in sessions] == ["p%d" % i for i in range(1, len(sessions) + 1)]
    assert report.counters["platform_sessions"] == len(sessions)
    for reg in regs:
        session = reg.platform_session
        assert session is None or (any(session is s for s in sessions) and session.client_ip == reg.client_ip)
        assert isinstance(reg.latency, LatencyTracker) and reg.flows[0].role == ROLE_MGMT
        assert all(flow.gameplay is reg for flow in reg.flows)
        assert all(flow.held is None for flow in reg.flows if flow.role is not None)
        assert all(isinstance(flow.frames, FrameRateTracker) for flow in reg.flows if flow.role in VIDEO_ROLES)
        windows = [int(row["ts"] // WINDOW_S) for row in reg.rows]
        assert all(a < b for a, b in zip(windows, windows[1:]))
    assert sum(len(reg.rows) for reg in regs) == qoe_samples

    patterns = [p for cb in analyzer.detector.codebooks for table in (cb.core_services, *cb.setup_tables.values()) for p in table]
    for st in analyzer.detector.clients.values():
        assert set(st.observed_names) <= set(patterns)
        assert all(set(matches) <= set(patterns) for matches in st.newest_match)
    waiting = set(map(id, analyzer._unjoined))
    assert not [
        flow
        for flow in analyzer.table.flows.values()
        if flow.key.proto == UDP and flow.gameplay is None and id(flow) not in waiting and flow.windows is not None
    ]


def analyze_checked(pcap_path: str, out_dir: str, client_nets: str = "192.0.2.0/24"):
    """Run `gamesight analyze` on one capture of clients in `client_nets`
    in-process, check its report with `check_gameplays`, and return the
    report."""
    runs = []

    class Recorded(Analyzer):
        def analyze_file(self, path):
            runs.append((self, super().analyze_file(path)))
            return runs[-1][1]

    args = ["analyze", "--pcap", pcap_path, "--client-nets", client_nets, "--out", out_dir]
    with mock.patch.object(cli, "Analyzer", Recorded):
        res = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert res.exit_code == 0, res.output
    ((analyzer, report),) = runs
    check_gameplays(analyzer, report, json.loads(res.stdout.splitlines()[-1])["qoe_samples"])
    return report
