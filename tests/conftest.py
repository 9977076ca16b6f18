import ipaddress
import json
from unittest import mock

import pytest
from click.testing import CliRunner

from gamesight import cli, packets
from gamesight.classify import ROLE_MGMT
from gamesight.flows import WINDOW_S
from gamesight.packets import PacketRecord, TCP, UDP
from gamesight.pipeline import Analyzer
from gamesight.qoe import LatencyTracker


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


def check_gameplays(analyzer, report, qoe_samples: int) -> None:
    """The invariants of one analyzed capture's gameplays: the report lists
    each session once, the `s` ids and the `u` ids each increasing, and the
    registrations in registration order; each registration is in the
    `gameplays` of exactly one session, its own `session`; its first flow
    is its management flow, with a latency tracker; each of its flows points
    back to it; its rows' windows strictly increase; and all rows together
    are the `qoe_samples` that `analyze` printed. Beside them, the analyzer
    holds only state an output can read: every pattern a detector client
    holds a time for is a codebook pattern, and no UDP flow that joined
    nothing and has left the queue of flows a registration could still
    adopt keeps its windows."""
    ids = [s.session_id for s in report.sessions]
    assert len(set(map(id, report.sessions))) == len(ids)
    for prefix in "su":
        numbers = [int(i[1:]) for i in ids if i[0] == prefix]
        assert numbers == sorted(set(numbers))
    regs = list(analyzer.detector.registrations.values())
    assert report.gameplays == regs
    held = [(reg, session) for session in report.sessions for reg in session.gameplays]
    assert sorted(id(reg) for reg, _ in held) == sorted(map(id, regs))
    assert all(reg.session is session for reg, session in held)
    for reg in regs:
        assert reg.flows[0].role == ROLE_MGMT and isinstance(reg.flows[0].latency, LatencyTracker)
        assert all(flow.gameplay is reg for flow in reg.flows)
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


def analyze_checked(pcap_path: str, out_dir: str):
    """Run `gamesight analyze` on one capture of clients in 192.0.2.0/24
    in-process, check its report with `check_gameplays`, and return the
    report."""
    runs = []

    class Recorded(Analyzer):
        def analyze_file(self, path):
            runs.append((self, super().analyze_file(path)))
            return runs[-1][1]

    args = ["analyze", "--pcap", pcap_path, "--client-nets", "192.0.2.0/24", "--out", out_dir]
    with mock.patch.object(cli, "Analyzer", Recorded):
        res = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert res.exit_code == 0, res.output
    ((analyzer, report),) = runs
    check_gameplays(analyzer, report, json.loads(res.stdout.splitlines()[-1])["qoe_samples"])
    return report
