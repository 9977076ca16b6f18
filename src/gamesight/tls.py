"""Extraction of the SNI host name from TLS ClientHello payloads.

The parser is defensive: any malformed, truncated or non-handshake input
yields None. It never reads past declared record/extension lengths.
"""

from __future__ import annotations

import struct
from typing import Optional

HANDSHAKE = 0x16
CLIENT_HELLO = 0x01
EXT_SERVER_NAME = 0x0000

# reassembly limits for split ClientHellos
MAX_SEGMENTS = 3
MAX_BUFFER = 8192


def extract_sni(payload: bytes) -> Optional[str]:
    """Return the server_name from a TLS ClientHello, or None."""
    if len(payload) < 9 or payload[0] != HANDSHAKE:
        return None
    record_len = (payload[3] << 8) | payload[4]
    body = payload[5 : 5 + record_len]
    if len(body) < 4 or body[0] != CLIENT_HELLO:
        return None
    hs_len = (body[1] << 16) | (body[2] << 8) | body[3]
    hello = body[4 : 4 + hs_len]
    if len(hello) < hs_len:
        # ClientHello spans more TCP segments than we were given
        return None
    return _parse_hello_body(hello)


def _parse_hello_body(hello: bytes) -> Optional[str]:
    pos = 2 + 32  # client_version + random
    if len(hello) < pos + 1:
        return None
    sid_len = hello[pos]
    pos += 1 + sid_len
    if len(hello) < pos + 2:
        return None
    cs_len = struct.unpack_from("!H", hello, pos)[0]
    pos += 2 + cs_len
    if len(hello) < pos + 1:
        return None
    comp_len = hello[pos]
    pos += 1 + comp_len
    if len(hello) < pos + 2:
        return None
    ext_total = struct.unpack_from("!H", hello, pos)[0]
    pos += 2
    end = min(pos + ext_total, len(hello))
    while pos + 4 <= end:
        ext_type, ext_len = struct.unpack_from("!HH", hello, pos)
        pos += 4
        if pos + ext_len > end:
            return None
        if ext_type == EXT_SERVER_NAME:
            return _parse_sni_ext(hello[pos : pos + ext_len])
        pos += ext_len
    return None


def _parse_sni_ext(data: bytes) -> Optional[str]:
    if len(data) < 5:
        return None
    list_len = struct.unpack_from("!H", data, 0)[0]
    pos = 2
    end = min(2 + list_len, len(data))
    while pos + 3 <= end:
        name_type = data[pos]
        name_len = struct.unpack_from("!H", data, pos + 1)[0]
        pos += 3
        if pos + name_len > end:
            return None
        if name_type == 0:
            try:
                return data[pos : pos + name_len].decode("ascii").lower()
            except UnicodeDecodeError:
                return None
        pos += name_len
    return None


class SniReassembler:
    """Accumulates the first upstream TCP payload bytes of a flow until a
    ClientHello parse succeeds or the segment/byte cap is reached.
    `gave_up` tells a handshake record that reached the cap unread from a
    flow that carries no TLS."""

    __slots__ = ("buf", "segments", "done", "gave_up")

    def __init__(self):
        self.buf = b""
        self.segments = 0
        self.done = False
        self.gave_up = False

    def feed(self, payload: bytes) -> Optional[str]:
        if self.done:
            return None
        self.segments += 1
        self.buf += payload
        name = extract_sni(self.buf)
        if name is not None:
            self.done = True
            self.buf = b""
            return name
        if self.segments >= MAX_SEGMENTS or len(self.buf) >= MAX_BUFFER:
            self.done = True
            self.gave_up = bool(self.buf) and self.buf[0] == HANDSHAKE
            self.buf = b""
        return None
