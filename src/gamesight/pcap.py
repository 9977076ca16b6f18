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

CHUNK_SIZE = 1 << 16  # bytes read_records asks of the file at a time
# libpcap's MAXIMUM_SNAPLEN: no record claims more. CHUNK_SIZE is smaller,
# so a record that claims more is always cut by its chunk's end.
MAX_RECORD = 262144
WRITE_BLOCK = 1 << 20  # bytes write_capture gathers before each write


@dataclass
class PcapHeader:
    link_type: int
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
    _, vmaj, vmin, _tz, _sig, _snaplen, network = hdr.unpack(raw)
    if vmaj != 2:
        raise MalformedHeader("unsupported pcap version %d.%d" % (vmaj, vmin))
    res = "nano" if magic == MAGIC_NANO else "micro"
    return PcapHeader(link_type=network, byte_order=order, ts_resolution=res)


def read_records(fh: BinaryIO, header: PcapHeader) -> Iterator[tuple[float, bytes, int, int, int]]:
    """Yield (timestamp, chunk, start, stop, original length) per record.

    A record is a view: its captured bytes are `chunk[start:stop]` of the
    immutable `bytes` chunk it was read in, which stays valid for as long as
    it is held. The file is read in `CHUNK_SIZE` pieces, so `fh` runs ahead
    of the records yielded so far. Only a record cut by a chunk's end is
    copied: its tail plus one read of exactly what it lacks make a chunk of
    its own, and the next chunk is read fresh.

    A record whose header or body is cut short by EOF, or that claims more
    than `MAX_RECORD` bytes, is not yielded: the stream ends with `fh` moved
    back to the start of that record, so a caller can tell it from a clean
    end by comparing `fh.tell()` with the file size.
    """
    unpack_from = (_REC_HDR_LE if header.byte_order == "<" else _REC_HDR_BE).unpack_from
    nano = header.ts_resolution == "nano"
    read = fh.read
    buf = b""
    pos = end = 0
    while True:
        while pos + 16 <= end:
            ts_sec, ts_frac, incl_len, orig_len = unpack_from(buf, pos)
            start = pos + 16
            stop = start + incl_len
            if stop > end:
                break
            if nano:  # nanosecond stamps are truncated to microsecond precision
                ts_frac //= 1000
            yield ts_sec + ts_frac / 1e6, buf, start, stop, orig_len
            pos = stop
        if pos == end:
            buf = read(CHUNK_SIZE)
            if not buf:
                return
        else:  # the record at `pos` is cut by the chunk's end
            buf = buf[pos:]
            if len(buf) < 16:
                buf += read(16 - len(buf))
            size = 16 + unpack_from(buf)[2] if len(buf) >= 16 else 16  # a header cut short by EOF reads no more
            if size <= 16 + MAX_RECORD:
                buf += read(size - len(buf))
            if len(buf) < size:  # cut short by EOF, or claiming more than MAX_RECORD
                fh.seek(-len(buf), 1)
                return
        pos, end = 0, len(buf)


def write_capture(
    records: Iterable[tuple[float, bytes]],
    path: str,
    link_type: int = LINKTYPE_RAW_IP,
    snaplen: int = 65535,
) -> int:
    """Write time-ordered (ts, frame) records as a classic little-endian PCAP.

    Each frame is cut to `snaplen` bytes, with its full length kept as the
    record's orig_len. A `snaplen` above `MAX_RECORD`, which `read_records`
    would stop at, is refused before the file is opened. Records are
    gathered into blocks of about `WRITE_BLOCK` bytes, one write each.
    Returns the number of records written.
    """
    if snaplen > MAX_RECORD:
        raise ValueError("snaplen %d is above the %d bytes a record may hold" % (snaplen, MAX_RECORD))
    count = 0
    with open(path, "wb") as fh:
        fh.write(_GLOBAL_HDR.pack(MAGIC_MICRO, 2, 4, 0, 0, snaplen, link_type))
        pack = _REC_HDR_LE.pack
        write = fh.write
        block = bytearray()
        for ts, frame in records:
            sec = int(ts)
            usec = round((ts - sec) * 1e6)
            if usec >= 1_000_000:
                sec += 1
                usec -= 1_000_000
            orig_len = len(frame)
            if orig_len > snaplen:
                frame = frame[:snaplen]
            block += pack(sec, usec, len(frame), orig_len)
            block += frame
            count += 1
            if len(block) >= WRITE_BLOCK:
                write(block)
                block.clear()
        write(block)
    return count
