import io
import struct

import pytest

from gamesight import pcap
from gamesight.errors import MalformedHeader


def _roundtrip(records, tmp_pcap, link_type=pcap.LINKTYPE_RAW_IP):
    pcap.write_capture(records, tmp_pcap, link_type=link_type)
    with open(tmp_pcap, "rb") as fh:
        header = pcap.read_header(fh)
        return header, list(pcap.read_records(fh, header))


def test_roundtrip_little_endian_micro(tmp_pcap):
    records = [(1.5, b"abc"), (2.000001, b"defg")]
    header, out = _roundtrip(records, tmp_pcap)
    assert header.link_type == pcap.LINKTYPE_RAW_IP
    assert header.byte_order == "<"
    assert header.ts_resolution == "micro"
    assert [(ts, data) for ts, data, _ in out] == records
    assert [orig for _, _, orig in out] == [3, 4]


def test_write_returns_count(tmp_pcap):
    assert pcap.write_capture([(0.0, b"x")] * 5, tmp_pcap) == 5


def test_snaplen_cuts_frames_and_keeps_the_wire_length(tmp_pcap):
    pcap.write_capture([(0.0, b"a" * 10), (1.0, b"b" * 4)], tmp_pcap, snaplen=6)
    with open(tmp_pcap, "rb") as fh:
        header = pcap.read_header(fh)
        out = list(pcap.read_records(fh, header))
    assert header.snaplen == 6
    assert [(data, orig) for _, data, orig in out] == [(b"aaaaaa", 10), (b"bbbb", 4)]


def test_big_endian_header_and_records():
    # hand-built big-endian capture with one 2-byte record
    buf = struct.pack(">IHHiIII", pcap.MAGIC_MICRO, 2, 4, 0, 0, 65535, 1)
    buf += struct.pack(">IIII", 10, 500000, 2, 2) + b"hi"
    fh = io.BytesIO(buf)
    header = pcap.read_header(fh)
    assert header.byte_order == ">"
    assert header.link_type == pcap.LINKTYPE_ETHERNET
    out = list(pcap.read_records(fh, header))
    assert out == [(10.5, b"hi", 2)]


def test_nanosecond_magic_truncates_to_micro():
    # [DERIVED] 1 s + 123456789 ns must come out as 1.123456 (floor to µs)
    buf = struct.pack("<IHHiIII", pcap.MAGIC_NANO, 2, 4, 0, 0, 65535, 101)
    buf += struct.pack("<IIII", 1, 123456789, 1, 1) + b"x"
    fh = io.BytesIO(buf)
    header = pcap.read_header(fh)
    assert header.ts_resolution == "nano"
    (ts, _, _), = pcap.read_records(fh, header)
    assert ts == pytest.approx(1.123456, abs=1e-9)


def test_bad_magic_rejected():
    with pytest.raises(MalformedHeader):
        pcap.read_header(io.BytesIO(b"\x00" * 24))


def test_short_header_rejected():
    with pytest.raises(MalformedHeader):
        pcap.read_header(io.BytesIO(b"\xd4\xc3\xb2\xa1"))


def test_unsupported_version_rejected():
    buf = struct.pack("<IHHiIII", pcap.MAGIC_MICRO, 3, 0, 0, 0, 65535, 101)
    with pytest.raises(MalformedHeader):
        pcap.read_header(io.BytesIO(buf))


def test_truncated_record_body_ends_stream(tmp_pcap):
    pcap.write_capture([(0.0, b"aaaa"), (1.0, b"bbbb")], tmp_pcap)
    with open(tmp_pcap, "rb") as fh:
        whole = fh.read()
    fh = io.BytesIO(whole[:-2])  # cut the last record's body short
    header = pcap.read_header(fh)
    out = list(pcap.read_records(fh, header))
    assert len(out) == 1
    assert out[0][1] == b"aaaa"


def test_timestamp_microsecond_rounding(tmp_pcap):
    # write path must not emit usec == 1_000_000
    header, out = _roundtrip([(0.9999996, b"z")], tmp_pcap)
    assert out[0][0] == pytest.approx(1.0, abs=1e-9)
