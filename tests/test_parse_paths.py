"""`parse_packet` parses the common frame with one unpack and hands every
other frame to `_parse_general`, the reference parser. The two must agree on
every input: the same tuple or `SkipReason`, and the same fragment-cache
entries afterwards. `parse_packet` parses a record in place in the chunk
it was read in, so each frame is also parsed at a random offset between
random bytes, which a read past the frame's end would see. Structured
frames vary every field the two paths read, by Hypothesis and by a sweep of
each field's edge values; raw random bytes cover the rest."""

import itertools
import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from gamesight.packets import ETH_IPV4, ETH_IPV6, ETH_VLAN, TCP, UDP, _FragCache, _parse_general, parse_packet
from gamesight.pcap import LINKTYPE_ETHERNET, LINKTYPE_RAW_IP

ADDRS = {4: [b"\x0a\x00\x00\x01", b"\xc0\x00\x02\x0a"], 6: [bytes(range(16)), bytes(range(16, 32))]}
# EtherTypes: IPv4, IPv6, a second 802.1Q tag (QinQ), ARP, and values one
# byte away from IPv4, IPv6 and 802.1Q
ETHERTYPES = [ETH_IPV4, ETH_IPV6, ETH_VLAN, 0x0806, 0x0801, 0x0900, 0x86DC, 0x87DD, 0x8101, 0x8200]
U16 = st.integers(0, 0xFFFF)


def build(version, proto, payload=b"", length_delta=0, words=5, ihl=5, frag=0, first=None, addrs=(0, 1), ip_id=1):
    """An IP packet whose fields are given: the IP length field is the
    right one plus `length_delta` (mod 2**16), `words` is the TCP data offset
    and `first` replaces the version/IHL (IPv4) or version (IPv6) byte."""
    if proto == UDP:
        body = struct.pack("!HHHH", 40000, 49003, 8 + len(payload), 0) + payload
    elif proto == TCP:
        options = bytes(range(max(0, words - 5) * 4))
        body = struct.pack("!HHIIBBHHH", 40000, 443, 7, 9, words << 4, 0x18, 0, 0, 0) + options + payload
    else:
        body = payload
    src, dst = (ADDRS[version][i] for i in addrs)
    if version == 4:
        options = bytes(max(0, ihl - 5) * 4)
        length = (20 + len(options) + len(body) + length_delta) & 0xFFFF
        first = 0x40 | ihl if first is None else first
        return struct.pack("!BBHHHBBH4s4s", first, 0, length, ip_id, frag, 64, proto, 0, src, dst) + options + body
    length = (len(body) + length_delta) & 0xFFFF
    first = 0x60 if first is None else first
    return struct.pack("!BxxxHBB16s16s", first, length, proto, 64, src, dst) + body


def link(ip, link_type, ethertype=None, tags=()):
    """`ip` framed for `link_type`: raw IP, or Ethernet with a tag of VLAN 1
    for each TPID in `tags` (802.1Q: `ETH_VLAN`)."""
    if link_type != LINKTYPE_ETHERNET:
        return ip
    tags = b"".join(struct.pack("!HH", tpid, 1) for tpid in tags)
    return b"\x02" * 6 + b"\x04" * 6 + tags + struct.pack("!H", ethertype) + ip


def _parse_both(frames, with_cache, rnd):
    """Parse each frame with `_parse_general`, and with `parse_packet` both
    as a whole and in place between up to 40 and up to 64 of `rnd`'s random
    bytes: the same results, and the same fragment-cache entries."""
    general_cache, whole_cache, placed_cache = (_FragCache() if with_cache else None for _ in range(3))
    for i, (raw, link_type, orig_len) in enumerate(frames):
        ts = i * 0.25
        expected = _parse_general(raw, link_type, ts, general_cache, orig_len)
        assert parse_packet(raw, link_type, ts, whole_cache, orig_len) == expected, (raw.hex(), link_type, orig_len)
        start = rnd.randint(0, 40)
        buf = rnd.randbytes(start) + raw + rnd.randbytes(rnd.randint(0, 64))
        got = parse_packet(buf, link_type, ts, placed_cache, orig_len, start, start + len(raw))
        assert got == expected, (buf.hex(), start, link_type, orig_len)
        if with_cache:
            assert whole_cache.entries == general_cache.entries == placed_cache.entries


def usually(draw, value, other):
    """`value` four times in five, else a draw of `other`: each field of a
    structured frame is mostly right, so that many frames are common ones."""
    return value if draw(st.integers(0, 4)) < 4 else draw(other)


@st.composite
def frame(draw):
    """(raw, link type, orig_len) of a frame whose fields and cut are drawn."""
    version = draw(st.sampled_from([4, 6]))
    proto = usually(draw, draw(st.sampled_from([UDP, TCP])), st.integers(0, 255))
    ip = build(
        version,
        proto,
        payload=draw(st.binary(max_size=48)),
        length_delta=usually(draw, 0, st.one_of(st.integers(-12, 12), U16)),
        words=usually(draw, 5, st.integers(0, 15)),
        ihl=usually(draw, 5, st.integers(0, 15)),
        frag=usually(draw, draw(st.sampled_from([0, 0x4000])), st.one_of(st.sampled_from([0x2000, 0x0001, 0x2005]), U16)),
        first=usually(draw, None, st.integers(0, 255)),
        addrs=(draw(st.integers(0, 1)), draw(st.integers(0, 1))),  # few addresses and ids, so heads and tails meet
        ip_id=draw(st.integers(1, 2)),
    )
    link_type = usually(draw, draw(st.sampled_from([LINKTYPE_RAW_IP, LINKTYPE_ETHERNET])), st.integers(0, 300))
    ethertype = usually(draw, ETH_IPV4 if version == 4 else ETH_IPV6, st.one_of(st.sampled_from(ETHERTYPES), U16))
    raw = link(ip, link_type, ethertype, tags=draw(st.sampled_from([(), (), (ETH_VLAN,), (ETH_VLAN, ETH_VLAN), (0x8101,)])))
    if draw(st.integers(0, 3)) == 3:
        raw = raw[: draw(st.integers(0, len(raw)))]
    orig_len = usually(draw, None, st.one_of(st.just(len(raw)), st.integers(0, 2000)))
    return raw, link_type, orig_len


RAW_FRAMES = st.tuples(
    st.binary(max_size=96),
    st.sampled_from([LINKTYPE_RAW_IP, LINKTYPE_ETHERNET, 0]),
    st.one_of(st.none(), st.integers(0, 2000)),
)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(frames=st.lists(frame(), min_size=1, max_size=8), with_cache=st.booleans(), rnd=st.randoms(use_true_random=False))
def test_structured_frames_parse_the_same_on_both_paths(frames, with_cache, rnd):
    _parse_both(frames, with_cache, rnd)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(frames=st.lists(RAW_FRAMES, min_size=1, max_size=4), with_cache=st.booleans(), rnd=st.randoms(use_true_random=False))
def test_random_bytes_parse_the_same_on_both_paths(frames, with_cache, rnd):
    _parse_both(frames, with_cache, rnd)


def test_edge_values_parse_the_same_on_both_paths():
    # every cut of every frame, with and without a longer wire length, for
    # the lengths, data offsets and EtherTypes next to each check's bound
    frames = []
    links = [(LINKTYPE_RAW_IP, None, ())] + [(LINKTYPE_ETHERNET, t, tags) for t in ETHERTYPES for tags in ((), (ETH_VLAN,))]
    for version, proto, payload, delta in itertools.product((4, 6), (UDP, TCP, 1), (b"", b"xyz"), (-4, -3, -1, 0, 1, 0x8000)):
        for words in (0, 4, 5, 6, 15) if proto == TCP else (5,):
            ip = build(version, proto, payload, length_delta=delta, words=words)
            tagged = [(LINKTYPE_ETHERNET, ETH_IPV4 if version == 4 else ETH_IPV6, (tpid,)) for tpid in ETHERTYPES]
            for link_type, ethertype, tags in links + tagged:
                raw = link(ip, link_type, ethertype, tags)
                for cut in range(len(raw) + 1):
                    frames += [(raw[:cut], link_type, None), (raw[:cut], link_type, len(raw))]
    _parse_both(frames, with_cache=False, rnd=random.Random(7))

