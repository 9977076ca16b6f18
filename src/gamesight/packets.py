"""Frame parsing: link/network/transport layers into packet tuples laid out
as `PacketRecord`."""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple, Optional

from . import pcap
from .errors import MalformedHeader
from .pcap import LINKTYPE_ETHERNET, LINKTYPE_RAW_IP

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

# One unpack per header: IPv4 (version/IHL, total length, id, fragment
# field, protocol, source, destination), IPv6 (payload length, next
# header, source, destination), the UDP ports and the TCP header up to its
# flags (ports, seq, ack, data offset, flags).
_IPV4 = struct.Struct("!BxHHHxB2x4s4s")
_IPV6 = struct.Struct("!4xHBx16s16s")
_PORTS = struct.Struct("!HH")
_TCP_HDR = struct.Struct("!HHIIBB")
# The common frame's one unpack, from the start of the IP header: IPv4 with
# IHL 5 (total length, fragment field, source, destination) or IPv6 (payload
# length, source, destination), then the UDP ports or the TCP header up to
# its flags (ports, seq, ack, data offset, flags).
_V4_UDP = struct.Struct("!2xH2xH4x4s4sHH")
_V4_TCP = struct.Struct("!2xH2xH4x4s4sHHIIBB")
_V6_UDP = struct.Struct("!4xH2x16s16sHH")
_V6_TCP = struct.Struct("!4xH2x16s16sHHIIBB")


class SkipReason(Enum):
    NON_IP = "non_ip"
    NON_TCP_UDP = "non_tcp_udp"
    TRUNCATED = "truncated"
    FRAGMENT = "fragment"
    UNSUPPORTED_LINK = "unsupported_link"


def ip_text(addr: bytes) -> str:
    """The text form of a packed address: dotted IPv4 for 4 bytes,
    compressed IPv6 for 16."""
    return socket.inet_ntop(socket.AF_INET if len(addr) == 4 else socket.AF_INET6, addr)


class PacketRecord(NamedTuple):
    """The layout of one parsed packet. `parse_packet` returns a plain tuple
    with these fields in this order, and the analyzer reads it by position,
    so no object is built per packet; this class names the positions, and
    tests build packets with it. Addresses are packed, in network order, as
    the IP header carries them: 4 bytes for IPv4, 16 for IPv6 (`ip_text`
    gives their text). `seq`, `ack` and `flags` are None when it carries no
    TCP header: on UDP, and on the tail fragments of a TCP segment. A
    packet's direction is not in it: `FlowTable.update` finds it and keeps
    it on the flow as `FlowState.down`."""

    ts: float
    src_ip: bytes
    src_port: int
    dst_ip: bytes
    dst_port: int
    proto: int  # TCP or UDP
    payload_len: int
    seq: Optional[int] = None
    ack: Optional[int] = None
    flags: Optional[int] = None
    payload: Optional[bytes] = None  # TCP only; raw bytes for SNI extraction


class _FragCache:
    """Maps (src, dst, proto, ip-id) of a first fragment to its ports.

    Later fragments of a datagram whose head was seen get attributed to
    the same flow; unmatched tails are skipped. A FIFO bounded by
    `FRAG_CACHE_CAP`.
    """

    def __init__(self):
        self.entries: dict[tuple, tuple[int, int]] = {}

    def put(self, key: tuple, ports: tuple[int, int]) -> None:
        entries = self.entries
        if key not in entries and len(entries) >= FRAG_CACHE_CAP:
            entries.pop(next(iter(entries)))  # a re-put key (duplicate head) evicts nothing
        entries[key] = ports

    def get(self, key: tuple) -> Optional[tuple[int, int]]:
        return self.entries.get(key)


def parse_packet(
    raw: bytes,
    link_type: int,
    ts: float,
    frag_cache: Optional[_FragCache] = None,
    orig_len: Optional[int] = None,
    start: int = 0,
    stop: Optional[int] = None,
) -> tuple | SkipReason:
    """Parse the captured frame `raw[start:stop]` (by default all of `raw`)
    in place into a plain tuple laid out as `PacketRecord`. Returns a
    SkipReason instead of raising.

    `orig_len` is the frame's length on the wire (the record's orig_len;
    by default the captured length). Sizes come from the IP header unless
    it claims more than that; payload bytes are only what was captured.
    No byte outside `raw[start:stop]` is read, and only a TCP payload is
    copied out.

    The common frame takes one unpack: raw IP, or Ethernet with at most one
    802.1Q tag, carrying IPv4 with IHL 5 that is not a fragment, or IPv6,
    and a whole UDP or TCP header. Every other frame, and any frame that
    fails a check here, goes to `_parse_general`, which this path agrees
    with on every input.
    """
    if stop is None:
        stop = len(raw)
    if link_type == LINKTYPE_ETHERNET:
        if stop - start < 42:
            return _parse_general(raw[start:stop], link_type, ts, frag_cache, orig_len)
        off = start + 14  # the EtherType ends at `off`, and the IP header starts there
        if raw[off - 2] == 0x81 and raw[off - 1] == 0x00:  # one 802.1Q tag
            off += 4
        if raw[off - 2] == 0x08 and raw[off - 1] == 0x00:
            v4 = raw[off] == 0x45
            if not v4:
                return _parse_general(raw[start:stop], link_type, ts, frag_cache, orig_len)
        elif raw[off - 2] == 0x86 and raw[off - 1] == 0xDD:
            v4 = False
        else:
            return _parse_general(raw[start:stop], link_type, ts, frag_cache, orig_len)
    elif link_type == LINKTYPE_RAW_IP and stop - start >= 28:
        off = start
        v4 = raw[off] == 0x45
        if not v4 and raw[off] >> 4 != 6:
            return _parse_general(raw[start:stop], link_type, ts, frag_cache, orig_len)
    else:
        return _parse_general(raw[start:stop], link_type, ts, frag_cache, orig_len)

    wire = (stop if orig_len is None else start + orig_len) - off  # the IP packet's length on the wire
    if v4:
        proto = raw[off + 9]
        if proto == UDP and off + 28 <= stop:
            ip_len, frag_field, src, dst, sport, dport = _V4_UDP.unpack_from(raw, off)
            if not frag_field & 0x3FFF:
                if ip_len > wire:  # the header claims more than the wire carried
                    ip_len = min(ip_len, stop - off)
                if ip_len >= 28:
                    return (ts, src, sport, dst, dport, UDP, ip_len - 28, None, None, None, None)
        elif proto == TCP and off + 40 <= stop:
            ip_len, frag_field, src, dst, sport, dport, seq, ack, data_off, flags = _V4_TCP.unpack_from(raw, off)
            if not frag_field & 0x3FFF:
                if ip_len > wire:
                    ip_len = min(ip_len, stop - off)
                ip_len -= 20
                data_off = (data_off >> 4) * 4
                if ip_len >= data_off >= 20:
                    payload_len = ip_len - data_off
                    off += 20 + data_off
                    end = off + payload_len  # the captured bytes alone, which end at `stop`
                    payload = raw[off : end if end < stop else stop] if payload_len else None
                    return (ts, src, sport, dst, dport, TCP, payload_len, seq, ack, flags, payload)
    else:
        proto = raw[off + 6]
        if proto == UDP and off + 48 <= stop:
            ip_len, src, dst, sport, dport = _V6_UDP.unpack_from(raw, off)
            if ip_len > wire - 40:
                ip_len = min(ip_len, stop - off - 40)
            if ip_len >= 8:
                return (ts, src, sport, dst, dport, UDP, ip_len - 8, None, None, None, None)
        elif proto == TCP and off + 60 <= stop:
            ip_len, src, dst, sport, dport, seq, ack, data_off, flags = _V6_TCP.unpack_from(raw, off)
            if ip_len > wire - 40:
                ip_len = min(ip_len, stop - off - 40)
            data_off = (data_off >> 4) * 4
            if ip_len >= data_off >= 20:
                payload_len = ip_len - data_off
                off += 40 + data_off
                end = off + payload_len  # the captured bytes alone, which end at `stop`
                payload = raw[off : end if end < stop else stop] if payload_len else None
                return (ts, src, sport, dst, dport, TCP, payload_len, seq, ack, flags, payload)
    return _parse_general(raw[start:stop], link_type, ts, frag_cache, orig_len)


def _parse_general(
    raw: bytes,
    link_type: int,
    ts: float,
    frag_cache: Optional[_FragCache] = None,
    orig_len: Optional[int] = None,
) -> tuple | SkipReason:
    """`parse_packet` for any frame: the reference parser, which the
    common-frame path of `parse_packet` must agree with."""
    n = len(raw)
    off = 0
    if link_type == LINKTYPE_RAW_IP:
        if not n:
            return SkipReason.TRUNCATED
        version = raw[0] >> 4
        if version != 4 and version != 6:
            return SkipReason.NON_IP
    elif link_type == LINKTYPE_ETHERNET:
        if n < 14:
            return SkipReason.TRUNCATED
        ethertype = (raw[12] << 8) | raw[13]
        off = 14
        if ethertype == ETH_VLAN:
            if n < 18:
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
    else:
        return SkipReason.UNSUPPORTED_LINK

    if orig_len is None:
        orig_len = n
    if version == 4:
        if n < off + 20:
            return SkipReason.TRUNCATED
        ver_ihl, ip_len, ip_id, frag_field, proto, src, dst = _IPV4.unpack_from(raw, off)
        ihl = (ver_ihl & 0x0F) * 4
        if ihl < 20 or n < off + ihl:
            return SkipReason.TRUNCATED
        if ip_len > orig_len - off:  # the header claims more than the wire carried
            ip_len = min(ip_len, n - off)
        ip_len -= ihl  # from here on, the IP payload length
        if ip_len < 0:
            return SkipReason.TRUNCATED
        if frag_field & 0x1FFF:  # a fragment past the first
            if frag_cache is None:
                return SkipReason.FRAGMENT
            ports = frag_cache.get((src, dst, proto, ip_id))
            if ports is None:  # the cache holds only TCP and UDP heads
                return SkipReason.FRAGMENT
            return (ts, src, ports[0], dst, ports[1], proto, ip_len, None, None, None, None)
        off += ihl
        more_frags = frag_field & 0x2000
    else:
        if n < off + 40:
            return SkipReason.TRUNCATED
        ip_len, proto, src, dst = _IPV6.unpack_from(raw, off)
        off += 40
        if ip_len > orig_len - off:  # the header claims more than the wire carried
            ip_len = min(ip_len, n - off)
        more_frags = 0

    if proto == UDP:
        if ip_len < 8 or n < off + 8:
            return SkipReason.TRUNCATED
        sport, dport = _PORTS.unpack_from(raw, off)
        rec = (ts, src, sport, dst, dport, UDP, ip_len - 8, None, None, None, None)
    elif proto == TCP:
        if ip_len < 20 or n < off + 20:
            return SkipReason.TRUNCATED
        sport, dport, seq, ack, data_off, flags = _TCP_HDR.unpack_from(raw, off)
        data_off = (data_off >> 4) * 4
        if data_off < 20 or ip_len < data_off:
            return SkipReason.TRUNCATED
        payload_len = ip_len - data_off
        off += data_off
        payload = raw[off : off + payload_len] if payload_len else None
        rec = (ts, src, sport, dst, dport, TCP, payload_len, seq, ack, flags, payload)
    else:
        return SkipReason.NON_TCP_UDP
    if more_frags and frag_cache is not None:
        frag_cache.put((src, dst, proto, ip_id), (sport, dport))
    return rec


@dataclass
class CaptureStats:
    packets: int = 0
    skipped: int = 0
    skip_reasons: dict = field(default_factory=dict)
    truncated_tail: int = 0  # 1 when reading stopped before the end of the file (see `pcap.read_records`)
    snaplen_truncated: int = 0  # records cut by the snaplen (orig_len > incl_len)


def read_capture(path: str, stats: Optional[CaptureStats] = None) -> Iterator[tuple]:
    """Stream packet tuples (`PacketRecord` layout) from a PCAP file,
    parsing each record in place in its read chunk, skipping
    non-IP/non-TCP-UDP frames, and stopping at a record cut short by the end
    of the file or claiming more than `pcap.MAX_RECORD` bytes. `stats` is
    brought up to date when the stream ends or is closed."""
    with open(path, "rb") as fh:
        header = pcap.read_header(fh)
        if header.link_type not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
            raise MalformedHeader("unsupported link type %d" % header.link_type)
        frag_cache = _FragCache()
        link = header.link_type
        parsed = skipped = snaplen_cut = 0
        reasons: dict[str, int] = {}
        try:
            for ts, buf, start, stop, orig_len in pcap.read_records(fh, header):
                rec = parse_packet(buf, link, ts, frag_cache, orig_len, start, stop)
                if orig_len > stop - start:
                    snaplen_cut += 1
                if rec.__class__ is tuple:
                    parsed += 1
                    yield rec
                else:
                    skipped += 1
                    reasons[rec.value] = reasons.get(rec.value, 0) + 1
            if stats is not None and fh.tell() < fh.seek(0, 2):
                stats.truncated_tail = 1  # read_records stopped at the start of a cut-short or oversized record
        finally:
            if stats is not None:
                stats.packets += parsed
                stats.skipped += skipped
                stats.snaplen_truncated += snaplen_cut
                for reason, count in reasons.items():
                    stats.skip_reasons[reason] = stats.skip_reasons.get(reason, 0) + count
