"""Frame parsing: link/network/transport layers into PacketRecord values."""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

from . import pcap
from .errors import MalformedHeader

TCP = 6
UDP = 17

ETH_IPV4 = 0x0800
ETH_IPV6 = 0x86DD
ETH_VLAN = 0x8100

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_ACK = 0x10

FRAG_CACHE_CAP = 4096  # first fragments whose ports are remembered


class Direction(Enum):
    UPSTREAM = "up"
    DOWNSTREAM = "down"


class SkipReason(Enum):
    NON_IP = "non_ip"
    NON_TCP_UDP = "non_tcp_udp"
    TRUNCATED = "truncated"
    FRAGMENT = "fragment"
    UNSUPPORTED_LINK = "unsupported_link"


@dataclass(slots=True)
class PacketRecord:
    """One parsed packet. `seq`, `ack` and `flags` are None when it carries
    no TCP header: on UDP, and on the tail fragments of a TCP segment."""

    ts: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    proto: int  # TCP or UDP
    payload_len: int
    seq: Optional[int] = None
    ack: Optional[int] = None
    flags: Optional[int] = None
    payload: Optional[bytes] = None  # TCP only; raw bytes for SNI extraction
    direction: Optional[Direction] = None  # assigned by the flow engine


class _FragCache:
    """Maps (src, dst, proto, ip-id) of a first fragment to its ports.

    Later fragments of a datagram whose head was seen get attributed to
    the same flow; unmatched tails are skipped. A FIFO bounded by
    `FRAG_CACHE_CAP`.
    """

    def __init__(self):
        self.entries: dict[tuple, tuple[int, int]] = {}

    def put(self, key: tuple, ports: tuple[int, int]) -> None:
        if len(self.entries) >= FRAG_CACHE_CAP:
            self.entries.pop(next(iter(self.entries)))
        self.entries[key] = ports

    def get(self, key: tuple) -> Optional[tuple[int, int]]:
        return self.entries.get(key)


def parse_packet(
    raw: bytes,
    link_type: int,
    ts: float,
    frag_cache: Optional[_FragCache] = None,
    orig_len: Optional[int] = None,
) -> PacketRecord | SkipReason:
    """Parse one captured frame. Returns a SkipReason instead of raising.

    `orig_len` is the frame's length on the wire (the record's orig_len;
    by default the captured length). Sizes come from the IP header unless
    it claims more than that; payload bytes are only what was captured.
    """
    off = 0
    if link_type == pcap.LINKTYPE_ETHERNET:
        if len(raw) < 14:
            return SkipReason.TRUNCATED
        ethertype = (raw[12] << 8) | raw[13]
        off = 14
        if ethertype == ETH_VLAN:
            if len(raw) < 18:
                return SkipReason.TRUNCATED
            ethertype = (raw[16] << 8) | raw[17]
            off = 18
            if ethertype == ETH_VLAN:  # QinQ rejected
                return SkipReason.NON_IP
        if ethertype == ETH_IPV4:
            version = 4
        elif ethertype == ETH_IPV6:
            version = 6
        else:
            return SkipReason.NON_IP
    elif link_type == pcap.LINKTYPE_RAW_IP:
        if not raw:
            return SkipReason.TRUNCATED
        version = raw[0] >> 4
        if version not in (4, 6):
            return SkipReason.NON_IP
    else:
        return SkipReason.UNSUPPORTED_LINK

    if orig_len is None:
        orig_len = len(raw)
    if version == 4:
        return _parse_ipv4(raw, off, ts, frag_cache, orig_len)
    return _parse_ipv6(raw, off, ts, orig_len)


def _parse_ipv4(raw: bytes, off: int, ts: float, frag_cache, orig_len: int) -> PacketRecord | SkipReason:
    if len(raw) < off + 20:
        return SkipReason.TRUNCATED
    ihl = (raw[off] & 0x0F) * 4
    if ihl < 20 or len(raw) < off + ihl:
        return SkipReason.TRUNCATED
    total_len = (raw[off + 2] << 8) | raw[off + 3]
    proto = raw[off + 9]
    src = socket.inet_ntoa(raw[off + 12 : off + 16])
    dst = socket.inet_ntoa(raw[off + 16 : off + 20])

    frag_field = (raw[off + 6] << 8) | raw[off + 7]
    frag_offset = frag_field & 0x1FFF
    more_frags = bool(frag_field & 0x2000)
    if total_len > orig_len - off:  # the header claims more than the wire carried
        total_len = min(total_len, len(raw) - off)
    ip_payload_len = total_len - ihl
    if ip_payload_len < 0:
        return SkipReason.TRUNCATED

    if frag_offset > 0:
        if frag_cache is None:
            return SkipReason.FRAGMENT
        ip_id = (raw[off + 4] << 8) | raw[off + 5]
        ports = frag_cache.get((src, dst, proto, ip_id))
        if ports is None:
            return SkipReason.FRAGMENT
        if proto not in (TCP, UDP):
            return SkipReason.NON_TCP_UDP
        return PacketRecord(ts, src, ports[0], dst, ports[1], proto, ip_payload_len)

    rec = _parse_transport(raw, off + ihl, ip_payload_len, proto, src, dst, ts)
    if more_frags and isinstance(rec, PacketRecord) and frag_cache is not None:
        ip_id = (raw[off + 4] << 8) | raw[off + 5]
        frag_cache.put((src, dst, proto, ip_id), (rec.src_port, rec.dst_port))
    return rec


def _parse_ipv6(raw: bytes, off: int, ts: float, orig_len: int) -> PacketRecord | SkipReason:
    if len(raw) < off + 40:
        return SkipReason.TRUNCATED
    payload_len = (raw[off + 4] << 8) | raw[off + 5]
    proto = raw[off + 6]
    src = socket.inet_ntop(socket.AF_INET6, raw[off + 8 : off + 24])
    dst = socket.inet_ntop(socket.AF_INET6, raw[off + 24 : off + 40])
    if payload_len > orig_len - off - 40:  # the header claims more than the wire carried
        payload_len = min(payload_len, len(raw) - off - 40)
    return _parse_transport(raw, off + 40, payload_len, proto, src, dst, ts)


def _parse_transport(
    raw: bytes, off: int, ip_payload_len: int, proto: int, src: str, dst: str, ts: float
) -> PacketRecord | SkipReason:
    if proto == UDP:
        if ip_payload_len < 8 or len(raw) < off + 8:
            return SkipReason.TRUNCATED
        sport = (raw[off] << 8) | raw[off + 1]
        dport = (raw[off + 2] << 8) | raw[off + 3]
        return PacketRecord(ts, src, sport, dst, dport, UDP, ip_payload_len - 8)
    if proto == TCP:
        if ip_payload_len < 20 or len(raw) < off + 20:
            return SkipReason.TRUNCATED
        sport, dport, seq, ack = struct.unpack_from("!HHII", raw, off)
        data_off = (raw[off + 12] >> 4) * 4
        if data_off < 20 or ip_payload_len < data_off:
            return SkipReason.TRUNCATED
        flags = raw[off + 13]
        payload_len = ip_payload_len - data_off
        payload = raw[off + data_off : off + data_off + payload_len] if payload_len else None
        return PacketRecord(ts, src, sport, dst, dport, TCP, payload_len, seq, ack, flags, payload)
    return SkipReason.NON_TCP_UDP


@dataclass
class CaptureStats:
    packets: int = 0
    skipped: int = 0
    skip_reasons: dict = field(default_factory=dict)
    truncated_tail: int = 0  # 1 when the file ends inside a record
    snaplen_truncated: int = 0  # records cut by the snaplen (orig_len > incl_len)


def read_capture(path: str, stats: Optional[CaptureStats] = None) -> Iterator[PacketRecord]:
    """Stream PacketRecords from a PCAP file, skipping non-IP/non-TCP-UDP frames
    and dropping a final record cut short by the end of the file."""
    with open(path, "rb") as fh:
        header = pcap.read_header(fh)
        if header.link_type not in (pcap.LINKTYPE_ETHERNET, pcap.LINKTYPE_RAW_IP):
            raise MalformedHeader("unsupported link type %d" % header.link_type)
        frag_cache = _FragCache()
        link = header.link_type
        for ts, raw, orig_len in pcap.read_records(fh, header):
            rec = parse_packet(raw, link, ts, frag_cache, orig_len)
            if orig_len > len(raw) and stats is not None:
                stats.snaplen_truncated += 1
            if isinstance(rec, PacketRecord):
                if stats is not None:
                    stats.packets += 1
                yield rec
            elif stats is not None:
                stats.skipped += 1
                stats.skip_reasons[rec.value] = stats.skip_reasons.get(rec.value, 0) + 1
        if stats is not None and fh.tell() < fh.seek(0, 2):
            stats.truncated_tail = 1  # read_records stopped at the start of a cut-short record
