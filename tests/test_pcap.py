import io
import struct

import pytest

from gamesight import pcap
from gamesight.errors import MalformedHeader
from gamesight.packets import CaptureStats, read_capture
from gamesight.synth import ipv4_udp

# every frame these tests parse is also parsed by the general parser, which
# must agree (`parse_both_ways`)
pytestmark = pytest.mark.usefixtures("parse_both_ways")


def _records(fh, header):
    """`read_records` run to the end, then each record as (ts, its captured
    bytes, orig_len), cut from the chunk it is a view into."""
    return [(ts, buf[start:stop], orig) for ts, buf, start, stop, orig in list(pcap.read_records(fh, header))]


def _roundtrip(records, tmp_pcap, link_type=pcap.LINKTYPE_RAW_IP):
    pcap.write_capture(records, tmp_pcap, link_type=link_type)
    with open(tmp_pcap, "rb") as fh:
        header = pcap.read_header(fh)
        return header, _records(fh, header)


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
        snaplen = struct.unpack("<16xI4x", fh.read(24))[0]
        fh.seek(0)
        header = pcap.read_header(fh)
        out = _records(fh, header)
    assert snaplen == 6
    assert [(data, orig) for _, data, orig in out] == [(b"aaaaaa", 10), (b"bbbb", 4)]


def test_big_endian_header_and_records():
    # hand-built big-endian capture with one 2-byte record
    buf = struct.pack(">IHHiIII", pcap.MAGIC_MICRO, 2, 4, 0, 0, 65535, 1)
    buf += struct.pack(">IIII", 10, 500000, 2, 2) + b"hi"
    fh = io.BytesIO(buf)
    header = pcap.read_header(fh)
    assert header.byte_order == ">"
    assert header.link_type == pcap.LINKTYPE_ETHERNET
    assert list(pcap.read_records(fh, header)) == [(10.5, buf[24:], 16, 18, 2)]


def test_nanosecond_magic_truncates_to_micro():
    # [DERIVED] 1 s + 123456789 ns must come out as 1.123456 (floor to µs)
    buf = struct.pack("<IHHiIII", pcap.MAGIC_NANO, 2, 4, 0, 0, 65535, 101)
    buf += struct.pack("<IIII", 1, 123456789, 1, 1) + b"x"
    fh = io.BytesIO(buf)
    header = pcap.read_header(fh)
    assert header.ts_resolution == "nano"
    (ts, _, _), = _records(fh, header)
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
    out = _records(fh, header)
    assert len(out) == 1
    assert out[0][1] == b"aaaa"


def test_timestamp_microsecond_rounding(tmp_pcap):
    # write path must not emit usec == 1_000_000
    header, out = _roundtrip([(0.9999996, b"z")], tmp_pcap)
    assert out[0][0] == pytest.approx(1.0, abs=1e-9)


# -- chunked reading ------------------------------------------------------

CHUNK = pcap.CHUNK_SIZE


def _frames(sizes):
    return [(i * 0.25, bytes([i % 251]) * size) for i, size in enumerate(sizes)]


def _read_all(fh):
    header = pcap.read_header(fh)
    return header, _records(fh, header)


@pytest.mark.parametrize("first", [CHUNK - 16 - 8, CHUNK - 16 - 20])
def test_record_straddles_a_chunk_boundary(tmp_pcap, first):
    # The first chunk holds the first record and part of the second: for
    # `CHUNK - 24` the boundary falls inside the second record's header,
    # for `CHUNK - 36` inside its body.
    records = _frames([first, 100, 10])
    header, out = _roundtrip(records, tmp_pcap)
    assert [(ts, data) for ts, data, _ in out] == records


def test_every_boundary_offset(tmp_pcap, monkeypatch):
    # with chunks of 1..70 bytes a boundary falls on every offset of these records
    records = _frames([0, 1, 7, 15, 16, 17, 40, 3])
    pcap.write_capture(records, tmp_pcap)
    for size in range(1, 71):
        monkeypatch.setattr(pcap, "CHUNK_SIZE", size)
        with open(tmp_pcap, "rb") as fh:
            _, out = _read_all(fh)
        assert [(ts, data) for ts, data, _ in out] == records, size


def test_record_longer_than_a_chunk(tmp_pcap):
    # up to the longest record libpcap writes
    records = _frames([50, 70_000, 200_000, pcap.MAX_RECORD, 30])
    pcap.write_capture(records, tmp_pcap, snaplen=pcap.MAX_RECORD)
    with open(tmp_pcap, "rb") as fh:
        _, out = _read_all(fh)
    assert [(ts, data, orig) for ts, data, orig in out] == [(ts, f, len(f)) for ts, f in records]


class _ReadSizes(io.BytesIO):
    """A file that records the size of each read asked of it."""

    def __init__(self, data):
        super().__init__(data)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


@pytest.mark.parametrize("chunk", [CHUNK, 30])
@pytest.mark.parametrize("incl_len", [pcap.MAX_RECORD + 1, 0xFFFFFFF0])
def test_record_claiming_more_than_libpcap_writes_ends_stream(monkeypatch, chunk, incl_len):
    # the stream ends at the start of the record that claims too much, and
    # no read asks for its length; with 30-byte chunks its header straddles
    # a chunk boundary
    monkeypatch.setattr(pcap, "CHUNK_SIZE", chunk)
    buf = struct.pack("<IHHiIII", pcap.MAGIC_MICRO, 2, 4, 0, 0, 65535, 101)
    buf += struct.pack("<IIII", 1, 0, 4, 4) + b"abcd"
    buf += struct.pack("<IIII", 2, 0, incl_len, incl_len) + b"x" * 100
    fh = _ReadSizes(buf)
    _, out = _read_all(fh)
    assert out == [(1.0, b"abcd", 4)]
    assert fh.tell() == 24 + 20
    assert max(fh.sizes) <= CHUNK


def test_views_stay_valid_after_the_reader_moves_on(tmp_pcap):
    # 300 records of distinct bytes over six chunks, all held at once after
    # the reader has read past them: each view still cuts its own bytes. The
    # records of a chunk are views into it, back to back from its start, and
    # a record cut by a chunk's end is the whole of a chunk of its own.
    records = _frames([1000 + i for i in range(300)])
    pcap.write_capture(records, tmp_pcap)
    with open(tmp_pcap, "rb") as fh:
        header = pcap.read_header(fh)
        views = list(pcap.read_records(fh, header))
    assert [(ts, buf[start:stop]) for ts, buf, start, stop, _ in views] == records
    chunks = {}
    for _, buf, start, stop, _ in views:
        chunks.setdefault(id(buf), (buf, []))[1].append((start, stop))
    assert 6 <= len(chunks) <= 12
    for buf, spans in chunks.values():
        assert [start for start, _ in spans] == [16] + [stop + 16 for _, stop in spans[:-1]]
        assert len(buf) in (CHUNK, spans[-1][1])
    assert sum(len(spans) == 1 for _, spans in chunks.values()) >= 5  # the records cut by a chunk's end


@pytest.mark.parametrize("order", ["<", ">"])
@pytest.mark.parametrize("magic", [pcap.MAGIC_MICRO, pcap.MAGIC_NANO])
def test_byte_orders_and_resolutions_across_chunks(order, magic):
    # 200 records of 1000 bytes span four chunks; the nanosecond stamps
    # are truncated to whole microseconds
    buf = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, 101)
    for i in range(200):
        usec = i * 4999 + 7
        frac = usec * 1000 + 999 if magic == pcap.MAGIC_NANO else usec
        buf += struct.pack(order + "IIII", 100 + i, frac, 1000, 1500) + bytes([i % 251]) * 1000
    header, out = _read_all(io.BytesIO(buf))
    assert header.byte_order == order
    assert len(out) == 200
    for i, (ts, data, orig) in enumerate(out):
        assert ts == 100 + i + (i * 4999 + 7) / 1e6
        assert (data, orig) == (bytes([i % 251]) * 1000, 1500)


@pytest.mark.parametrize("back, cut_into", [(4, 8), (30, 16 + 40)])
def test_cut_short_just_past_a_chunk_boundary(tmp_path, back, cut_into):
    # 64 records of 16 + 1000 bytes and a filler put the last record's start
    # `back` bytes before the first chunk's end (24 + CHUNK), so the boundary
    # falls inside its header (4) or its body (30); the file ends
    # `cut_into` bytes into that record, just past the boundary.
    start = 24 + CHUNK - back
    filler = start - (24 + 64 * 1016) - 16
    frames = [ipv4_udp("10.0.0.1", "10.0.0.2", 1, 2, b"x" * 972)] * 64
    frames += [ipv4_udp("10.0.0.1", "10.0.0.2", 1, 2, b"y" * (filler - 28))] * 2
    path = tmp_path / "cut.pcap"
    pcap.write_capture([(i * 0.01, f) for i, f in enumerate(frames)], str(path))
    path.write_bytes(path.read_bytes()[: start + cut_into])

    with open(path, "rb") as fh:
        _, out = _read_all(fh)
        assert fh.tell() == start
    assert len(out) == 65
    stats = CaptureStats()
    assert len(list(read_capture(str(path), stats))) == 65
    assert (stats.packets, stats.skipped, stats.truncated_tail) == (65, 0, 1)


# -- block writing --------------------------------------------------------


def test_snaplen_above_the_longest_record_is_refused(tmp_path):
    # a record of more than MAX_RECORD bytes would end the reader's stream
    path = tmp_path / "big.pcap"
    records = [(0.0, b"a" * 10), (1.0, b"b" * (pcap.MAX_RECORD + 5)), (2.0, b"c")]
    with pytest.raises(ValueError, match="snaplen"):
        pcap.write_capture(records, str(path), snaplen=pcap.MAX_RECORD + 1)
    assert not path.exists()
    assert pcap.write_capture(records, str(path), snaplen=pcap.MAX_RECORD) == 3
    with open(path, "rb") as fh:
        _, out = _read_all(fh)
    assert [(ts, len(data), orig) for ts, data, orig in out] == [
        (0.0, 10, 10),
        (1.0, pcap.MAX_RECORD, pcap.MAX_RECORD + 5),
        (2.0, 1, 1),
    ]
    stats = CaptureStats()
    list(read_capture(str(path), stats))
    assert (stats.packets + stats.skipped, stats.truncated_tail, stats.snaplen_truncated) == (3, 0, 1)


def test_block_writer_matches_records_packed_directly(tmp_pcap):
    # more than two blocks of records, one frame longer than a block, which
    # the snaplen cuts, and a stamp whose microseconds round up into the
    # next second
    stamps = [(1000 + i, i * 997 % 1_000_000) for i in range(2500)]
    frames = [bytes([i % 251]) * (900 + i % 300) for i in range(2500)]
    frames[1200] = bytes(range(256)) * (pcap.WRITE_BLOCK // 256 + 100)
    records = [(sec + usec / 1e6, frame) for (sec, usec), frame in zip(stamps, frames)]
    records.append((5.9999996, b"last"))
    stamps.append((6, 0))
    assert sum(len(f) for _, f in records) > 2 * pcap.WRITE_BLOCK

    snaplen = pcap.MAX_RECORD
    assert pcap.write_capture(records, tmp_pcap, link_type=pcap.LINKTYPE_ETHERNET, snaplen=snaplen) == 2501
    expected = [struct.pack("<IHHiIII", pcap.MAGIC_MICRO, 2, 4, 0, 0, snaplen, pcap.LINKTYPE_ETHERNET)]
    for (sec, usec), (_, frame) in zip(stamps, records):
        expected += [struct.pack("<IIII", sec, usec, min(len(frame), snaplen), len(frame)), frame[:snaplen]]
    with open(tmp_pcap, "rb") as fh:
        assert fh.read() == b"".join(expected)
