import ipaddress

import pytest

from gamesight.flows import WINDOW_S
from gamesight.packets import PacketRecord, TCP, UDP


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
