import pytest

from gamesight.flows import VolumetricStats
from gamesight.packets import PacketRecord, TCP, UDP


def udp_record(
    ts: float,
    src: str,
    sport: int,
    dst: str,
    dport: int,
    payload_len: int,
) -> PacketRecord:
    return PacketRecord(ts, src, sport, dst, dport, UDP, payload_len)


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
        ts, src, sport, dst, dport, TCP, payload_len, seq=seq, ack=ack, flags=flags, payload=payload
    )


def stats(pps_in=0.0, pps_out=0.0, bps_in=0.0, bps_out=0.0, start=0.0, interval=1.0):
    """VolumetricStats from target rates (counts derived for a 1 s window)."""
    return VolumetricStats(
        window_start=start,
        interval=interval,
        pkt_count_in=int(pps_in * interval),
        pkt_count_out=int(pps_out * interval),
        byte_count_in=int(bps_in * interval / 8),
        byte_count_out=int(bps_out * interval / 8),
    )


@pytest.fixture
def tmp_pcap(tmp_path):
    return str(tmp_path / "t.pcap")
