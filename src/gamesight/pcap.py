"""Classic PCAP file reading and writing.

Only the original tcpdump format is handled: a 24-byte global header
(version 2.4) followed by 16-byte per-record headers. The nanosecond
magic variant is accepted on read and truncated to microseconds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator

from .errors import MalformedHeader

MAGIC_MICRO = 0xA1B2C3D4
MAGIC_NANO = 0xA1B23C4D

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

_GLOBAL_HDR = struct.Struct("<IHHiIII")
_GLOBAL_HDR_BE = struct.Struct(">IHHiIII")
_REC_HDR_LE = struct.Struct("<IIII")
_REC_HDR_BE = struct.Struct(">IIII")


@dataclass
class PcapHeader:
    link_type: int
    snaplen: int
    byte_order: str  # "<" or ">"
    ts_resolution: str  # "micro" or "nano"


def read_header(fh: BinaryIO) -> PcapHeader:
    raw = fh.read(24)
    if len(raw) < 24:
        raise MalformedHeader("file shorter than pcap global header")
    magic = struct.unpack("<I", raw[:4])[0]
    if magic in (MAGIC_MICRO, MAGIC_NANO):
        order = "<"
    else:
        magic = struct.unpack(">I", raw[:4])[0]
        if magic in (MAGIC_MICRO, MAGIC_NANO):
            order = ">"
        else:
            raise MalformedHeader("bad pcap magic 0x%08x" % magic)
    hdr = _GLOBAL_HDR if order == "<" else _GLOBAL_HDR_BE
    _, vmaj, vmin, _tz, _sig, snaplen, network = hdr.unpack(raw)
    if vmaj != 2:
        raise MalformedHeader("unsupported pcap version %d.%d" % (vmaj, vmin))
    res = "nano" if magic == MAGIC_NANO else "micro"
    return PcapHeader(link_type=network, snaplen=snaplen, byte_order=order, ts_resolution=res)


def read_records(fh: BinaryIO, header: PcapHeader) -> Iterator[tuple[float, bytes, int]]:
    """Yield (timestamp, captured bytes, original length) per record.

    A record whose header or body is cut short by EOF is not yielded: the
    stream ends with `fh` moved back to the start of that record, so a
    caller can tell a cut-short tail from a clean end by comparing
    `fh.tell()` with the file size.
    """
    rec = _REC_HDR_LE if header.byte_order == "<" else _REC_HDR_BE
    div = 1e9 if header.ts_resolution == "nano" else 1e6
    read = fh.read
    unpack = rec.unpack
    while True:
        raw = read(16)
        if len(raw) < 16:
            fh.seek(-len(raw), 1)
            return
        ts_sec, ts_frac, incl_len, orig_len = unpack(raw)
        data = read(incl_len)
        if len(data) < incl_len:
            fh.seek(-16 - len(data), 1)
            return
        # nanosecond stamps are truncated to microsecond precision
        frac = (ts_frac // 1000) / 1e6 if div == 1e9 else ts_frac / 1e6
        yield ts_sec + frac, data, orig_len


def write_capture(
    records: Iterable[tuple[float, bytes]],
    path: str,
    link_type: int = LINKTYPE_RAW_IP,
    snaplen: int = 65535,
) -> int:
    """Write time-ordered (ts, frame) records as a classic little-endian PCAP.

    Each frame is cut to `snaplen` bytes, with its full length kept as the
    record's orig_len. Returns the number of records written.
    """
    count = 0
    with open(path, "wb") as fh:
        fh.write(_GLOBAL_HDR.pack(MAGIC_MICRO, 2, 4, 0, 0, snaplen, link_type))
        pack = _REC_HDR_LE.pack
        write = fh.write
        for ts, frame in records:
            sec = int(ts)
            usec = int(round((ts - sec) * 1e6))
            if usec >= 1_000_000:
                sec += 1
                usec -= 1_000_000
            orig_len = len(frame)
            if orig_len > snaplen:
                frame = frame[:snaplen]
            write(pack(sec, usec, len(frame), orig_len))
            write(frame)
            count += 1
    return count
