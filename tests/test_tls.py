import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from gamesight.synth import build_client_hello
from gamesight.tls import MAX_SEGMENTS, SniReassembler, extract_sni


def test_client_hello_roundtrip():
    hello = build_client_hello("play.example.net")
    assert extract_sni(hello) == "play.example.net"


def test_padded_hello_exact_length_and_parse():
    hello = build_client_hello("203-0-113-7.pnt.nvidiagrid.net", pad_to=517)
    assert len(hello) == 517
    assert extract_sni(hello) == "203-0-113-7.pnt.nvidiagrid.net"


def test_sni_lowercased():
    hello = build_client_hello("Login.Example.COM")
    assert extract_sni(hello) == "login.example.com"


def test_non_handshake_rejected():
    assert extract_sni(b"\x17\x03\x03\x00\x05hello") is None
    assert extract_sni(b"") is None


def test_hello_without_sni_extension():
    hello = bytearray(build_client_hello("a.b"))
    hello[-20:] = b"\x00" * 20  # corrupt the extension block tail
    # must not crash; may or may not find a name, never a wrong type
    out = extract_sni(bytes(hello))
    assert out is None or isinstance(out, str)


def _hello_with(extensions: bytes) -> bytes:
    """A ClientHello record whose extension block is `extensions`."""
    body = b"\x03\x03" + b"\x00" * 32 + b"\x00" + b"\x00\x02\x13\x01" + b"\x01\x00"
    body += struct.pack("!H", len(extensions)) + extensions
    hs = b"\x01" + len(body).to_bytes(3, "big") + body
    return b"\x16\x03\x01" + struct.pack("!H", len(hs)) + hs


def _ext(ext_type: int, data: bytes) -> bytes:
    return struct.pack("!HH", ext_type, len(data)) + data


def _server_name(*entries: tuple[int, bytes]) -> bytes:
    """A server_name extension listing (name type, name) entries."""
    names = b"".join(struct.pack("!BH", kind, len(name)) + name for kind, name in entries)
    return _ext(0, struct.pack("!H", len(names)) + names)


@pytest.mark.parametrize(
    "extensions, name",
    [
        (_ext(0x0A0A, b"") + _ext(0x002B, b"\x02\x03\x04") + _server_name((0, b"Late.Example")), "late.example"),
        (_server_name((1, b"other"), (0, b"host.example")), "host.example"),
        (_server_name((0, "caf\u00e9.example".encode())), None),
        (struct.pack("!HH", 0x002B, 500) + b"\x02\x03\x04" + _server_name((0, b"host.example")), None),
    ],
    ids=["after-grease-and-versions", "other-name-type-first", "non-ascii", "extension-overruns-block"],
)
def test_server_name_extension_layouts(extensions, name):
    assert extract_sni(_hello_with(extensions)) == name


def test_reassembler_split_hello():
    # [DERIVED] a ClientHello split across two TCP segments must still yield
    # the name once the second segment arrives
    hello = build_client_hello("split.example.org", pad_to=900)
    r = SniReassembler()
    assert r.feed(hello[:400]) is None
    assert not r.done
    assert r.feed(hello[400:]) == "split.example.org"
    assert r.done


def test_reassembler_gives_up_after_cap():
    r = SniReassembler()
    for _ in range(MAX_SEGMENTS):
        r.feed(b"\x00" * 10)
    assert r.done
    assert r.feed(build_client_hello("late.example")) is None


def test_reassembler_byte_cap():
    r = SniReassembler()
    r.feed(b"\x16" + b"\xff" * 9000)
    assert r.done


@settings(max_examples=300)
@given(st.binary(max_size=600))
def test_fuzz_extract_never_crashes(data):
    out = extract_sni(data)
    assert out is None or isinstance(out, str)


def test_fuzz_truncations_of_real_hello():
    hello = build_client_hello("trunc.example.com", pad_to=517, rng=random.Random(3))
    for cut in range(len(hello)):
        out = extract_sni(hello[:cut])
        assert out is None or out == "trunc.example.com"
