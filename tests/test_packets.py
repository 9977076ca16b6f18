import ipaddress
import struct

import pytest

from gamesight import pcap
from gamesight.packets import (
    CaptureStats,
    PacketRecord,
    SkipReason,
    TCP,
    UDP,
    _FragCache,
    ip_text,
    parse_packet,
    read_capture,
)
from gamesight.qoe import LatencyTracker
from gamesight.synth import ipv4_tcp, ipv4_udp

RAW = pcap.LINKTYPE_RAW_IP
ETH = pcap.LINKTYPE_ETHERNET


def _eth(frame: bytes, ethertype: int = 0x0800) -> bytes:
    return b"\x02" * 6 + b"\x04" * 6 + struct.pack("!H", ethertype) + frame


def _vlan(frame: bytes, inner_ethertype: int = 0x0800) -> bytes:
    return (
        b"\x02" * 6
        + b"\x04" * 6
        + struct.pack("!HH", 0x8100, 0x0001)
        + struct.pack("!H", inner_ethertype)
        + frame
    )


def test_rawip_udp():
    frame = ipv4_udp("10.0.0.1", "10.0.0.2", 1234, 53, b"q" * 40)
    rec = parse_packet(frame, RAW, 1.0)
    assert rec.__class__ is tuple
    rec = PacketRecord._make(rec)
    assert (ip_text(rec.src_ip), rec.src_port, ip_text(rec.dst_ip), rec.dst_port, rec.proto) == (
        "10.0.0.1", 1234, "10.0.0.2", 53, UDP,
    )
    assert rec.payload_len == 40
    assert (rec.seq, rec.ack, rec.flags, rec.payload) == (None, None, None, None)


def test_rawip_tcp_with_payload_bytes():
    frame = ipv4_tcp("10.0.0.1", "10.0.0.2", 1234, 443, 100, 7, 0x18, b"hello")
    rec = PacketRecord._make(parse_packet(frame, RAW, 1.0))
    assert rec.payload_len == 5
    assert rec.payload == b"hello"
    assert rec.proto == TCP
    assert rec.seq == 100
    assert rec.ack == 7
    assert rec.flags == 0x18


def test_tcp_empty_payload_has_no_bytes():
    frame = ipv4_tcp("10.0.0.1", "10.0.0.2", 1, 2, 0, 0, 0x10)
    rec = PacketRecord._make(parse_packet(frame, RAW, 0.0))
    assert rec.payload_len == 0
    assert rec.payload is None


def test_ethernet_and_single_vlan():
    inner = ipv4_udp("10.0.0.1", "10.0.0.2", 5, 6, b"x")
    assert parse_packet(_eth(inner), ETH, 0.0).__class__ is tuple
    assert parse_packet(_vlan(inner), ETH, 0.0).__class__ is tuple


def test_qinq_rejected():
    inner = struct.pack("!H", 0x0001) + ipv4_udp("10.0.0.1", "10.0.0.2", 5, 6, b"x")
    frame = b"\x02" * 6 + b"\x04" * 6 + struct.pack("!HH", 0x8100, 1) + struct.pack("!H", 0x8100) + inner
    assert parse_packet(frame, ETH, 0.0) is SkipReason.NON_IP


def test_non_ip_ethertype_skipped():
    assert parse_packet(_eth(b"\x00" * 40, ethertype=0x0806), ETH, 0.0) is SkipReason.NON_IP


def test_non_tcp_udp_skipped():
    frame = bytearray(ipv4_udp("10.0.0.1", "10.0.0.2", 5, 6, b"x"))
    frame[9] = 1  # ICMP
    assert parse_packet(bytes(frame), RAW, 0.0) is SkipReason.NON_TCP_UDP


def test_unsupported_link_type():
    assert parse_packet(b"\x00" * 64, 113, 0.0) is SkipReason.UNSUPPORTED_LINK


def test_ipv6_udp():
    src = bytes(range(16))
    dst = bytes(range(16, 32))
    udp = struct.pack("!HHHH", 1000, 2000, 8 + 3, 0) + b"abc"
    hdr = struct.pack("!IHBB", 0x60000000, len(udp), 17, 64) + src + dst
    rec = parse_packet(hdr + udp, RAW, 0.0)
    assert rec.__class__ is tuple
    rec = PacketRecord._make(rec)
    assert (ip_text(rec.src_ip), ip_text(rec.dst_ip)) == (str(ipaddress.IPv6Address(src)), str(ipaddress.IPv6Address(dst)))
    assert rec.src_port == 1000
    assert rec.payload_len == 3


def test_headers_only_frames_take_sizes_from_the_ip_header():
    v4 = ipv4_udp("10.0.0.1", "10.0.0.2", 1234, 53, b"q" * 1000)
    assert PacketRecord._make(parse_packet(v4[:40], RAW, 0.0, None, len(v4))).payload_len == 1000
    tcp = ipv4_tcp("10.0.0.1", "10.0.0.2", 1234, 443, 100, 7, 0x18, bytes(range(200)))
    rec = PacketRecord._make(parse_packet(tcp[:60], RAW, 0.0, None, len(tcp)))
    assert rec.payload_len == 200
    assert rec.payload == bytes(range(20))  # only the captured bytes
    src, dst = bytes(range(16)), bytes(range(16, 32))
    udp = struct.pack("!HHHH", 1000, 2000, 8 + 500, 0) + b"z" * 500
    v6 = struct.pack("!IHBB", 0x60000000, len(udp), 17, 64) + src + dst + udp
    assert PacketRecord._make(parse_packet(v6[:64], RAW, 0.0, None, len(v6))).payload_len == 500
    assert PacketRecord._make(parse_packet(_eth(v4)[:54], ETH, 0.0, None, 14 + len(v4))).payload_len == 1000


def test_ip_length_beyond_the_wire_length_keeps_the_captured_size():
    v4 = ipv4_udp("10.0.0.1", "10.0.0.2", 1234, 53, b"q" * 1000)
    assert PacketRecord._make(parse_packet(v4[:40], RAW, 0.0, None, 40)).payload_len == 12
    assert PacketRecord._make(parse_packet(v4[:40], RAW, 0.0, None, 600)).payload_len == 12
    assert PacketRecord._make(parse_packet(v4[:40], RAW, 0.0)).payload_len == 12  # orig_len defaults to the captured length


def test_read_capture_counts_snaplen_cut_records(tmp_pcap):
    frames = [(i * 0.1, ipv4_udp("10.0.0.1", "10.0.0.2", 1, 2, b"x" * (50 * i))) for i in range(6)]
    pcap.write_capture(frames, tmp_pcap, snaplen=128)
    stats = CaptureStats()
    out = list(read_capture(tmp_pcap, stats))
    assert [PacketRecord._make(rec).payload_len for rec in out] == [50 * i for i in range(6)]
    assert stats.snaplen_truncated == sum(1 for _, f in frames if len(f) > 128) == 3


def _frag_pair():
    """First fragment (MF set) and tail fragment of one UDP datagram."""
    head = bytearray(ipv4_udp("10.0.0.1", "10.0.0.2", 777, 888, b"A" * 100))
    head[4:6] = struct.pack("!H", 42)  # ip id
    head[6:8] = struct.pack("!H", 0x2000)  # MF, offset 0
    tail = bytearray(ipv4_udp("10.0.0.1", "10.0.0.2", 0, 0, b"B" * 60))
    tail[4:6] = struct.pack("!H", 42)
    tail[6:8] = struct.pack("!H", (100 + 8) // 8)  # offset past the head
    return bytes(head), bytes(tail)


def test_fragment_tail_attributed_via_head():
    head, tail = _frag_pair()
    cache = _FragCache()
    rec1 = parse_packet(head, RAW, 0.0, cache)
    assert rec1.__class__ is tuple
    rec2 = parse_packet(tail, RAW, 0.1, cache)
    assert rec2.__class__ is tuple
    rec2 = PacketRecord._make(rec2)
    assert rec2.src_port == 777
    assert rec2.dst_port == 888
    assert rec2.payload_len == 68  # the tail's whole IP payload


def test_tcp_fragment_tail_has_no_tcp_header_fields():
    head = bytearray(ipv4_tcp("10.0.0.1", "10.0.0.2", 1234, 443, 100, 7, 0x18, b"A" * 100))
    head[4:6] = struct.pack("!H", 43)
    head[6:8] = struct.pack("!H", 0x2000)
    tail = bytearray(ipv4_udp("10.0.0.1", "10.0.0.2", 0, 0, b"B" * 60))
    tail[4:6] = struct.pack("!H", 43)
    tail[6:8] = struct.pack("!H", (100 + 20) // 8)
    tail[9] = TCP
    cache = _FragCache()
    parse_packet(bytes(head), RAW, 0.0, cache)
    rec = PacketRecord._make(parse_packet(bytes(tail), RAW, 0.1, cache))
    assert (rec.proto, rec.src_port, rec.dst_port) == (TCP, 1234, 443)
    assert (rec.seq, rec.ack, rec.flags, rec.payload) == (None, None, None, None)
    tracker = LatencyTracker()
    assert tracker.feed(rec, False) is None  # upstream
    assert tracker.pending == {}  # no sequence number, so no pending pair


def test_fragment_tail_without_head_skipped():
    _, tail = _frag_pair()
    assert parse_packet(tail, RAW, 0.0, _FragCache()) is SkipReason.FRAGMENT
    assert parse_packet(tail, RAW, 0.0, None) is SkipReason.FRAGMENT


def test_truncated_frames_skipped():
    assert parse_packet(b"", RAW, 0.0) is SkipReason.TRUNCATED
    assert parse_packet(b"\x45" + b"\x00" * 10, RAW, 0.0) is SkipReason.TRUNCATED
    assert parse_packet(b"\x02" * 8, ETH, 0.0) is SkipReason.TRUNCATED


def test_read_capture_counts_stats(tmp_pcap):
    frames = [
        (0.0, ipv4_udp("10.0.0.1", "10.0.0.2", 1, 2, b"x")),
        (0.1, b"\x45" + b"\x00" * 5),  # truncated IPv4
    ]
    pcap.write_capture(frames, tmp_pcap)
    stats = CaptureStats()
    out = list(read_capture(tmp_pcap, stats))
    assert len(out) == 1
    assert stats.packets == 1
    assert stats.skipped == 1
    assert stats.skip_reasons == {"truncated": 1}


@pytest.mark.parametrize("cut", [0, 50, 140])
def test_read_capture_counts_a_cut_short_tail(tmp_pcap, cut):
    # each record is 16 + 128 bytes: cutting 50 ends inside the last body,
    # cutting 140 inside the last record header
    frames = [(i * 0.1, ipv4_udp("10.0.0.1", "10.0.0.2", 1, 2, b"x" * 100)) for i in range(10)]
    pcap.write_capture(frames, tmp_pcap)
    with open(tmp_pcap, "r+b") as fh:
        fh.truncate(fh.seek(0, 2) - cut)
    stats = CaptureStats()
    assert len(list(read_capture(tmp_pcap, stats))) == (9 if cut else 10)
    assert (stats.packets, stats.skipped, stats.truncated_tail) == ((9, 0, 1) if cut else (10, 0, 0))
