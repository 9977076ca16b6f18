"""Fixed-seed synthetic captures for the three benchmark workloads.

Gaming sessions come from ``synth.gen_session`` so that each one carries its
generator manifest, which is the oracle. The traffic around them (short
HTTPS connections, DNS-size UDP, QUIC-like UDP bulk) is built here with
``synth.build_client_hello`` for the ClientHellos. Every input is derived
from the seed; the shape of a workload (session profiles, client and flow
counts) is fixed, so that runs with different seeds measure the same work.
"""

from __future__ import annotations

import random
import socket
import struct

from gamesight import pcap, synth

T0 = 1_700_000_000.0

# Ethernet MAC pair shared by every frame; the analyzer ignores MACs.
_MACS = bytes.fromhex("02000000000102000000000a")
_IP4 = struct.Struct("!BBHHHBBH4s4s")
_IP6 = struct.Struct("!IHBB16s16s")
_TCP = struct.Struct("!HHIIBBHHH")
_UDP = struct.Struct("!HHHH")
_SYN, _FIN, _PSH, _ACK = 0x02, 0x01, 0x08, 0x10
_U32 = 0xFFFFFFFF


def _frame(src: str, dst: str, proto: int, l4: bytes) -> bytes:
    if ":" in src:
        return (
            _IP6.pack(
                6 << 28,
                len(l4),
                proto,
                64,
                socket.inet_pton(socket.AF_INET6, src),
                socket.inet_pton(socket.AF_INET6, dst),
            )
            + l4
        )
    return (
        _IP4.pack(0x45, 0, 20 + len(l4), 0, 0, 64, proto, 0, socket.inet_aton(src), socket.inet_aton(dst))
        + l4
    )


def _tcp(src, dst, sport, dport, seq, ack, flags, payload=b""):
    return _frame(src, dst, 6, _TCP.pack(sport, dport, seq & _U32, ack & _U32, 5 << 4, flags, 65535, 0, 0) + payload)


def _udp(src, dst, sport, dport, payload):
    return _frame(src, dst, 17, _UDP.pack(sport, dport, 8 + len(payload), 0) + payload)


def _ether(frame: bytes, vlan: int) -> bytes:
    ethertype = 0x86DD if frame[0] >> 4 == 6 else 0x0800
    if vlan:
        return _MACS + struct.pack("!HHH", 0x8100, vlan, ethertype) + frame
    return _MACS + struct.pack("!H", ethertype) + frame


def _domain(rng: random.Random) -> str:
    """A non-gaming name: never prefix-matches a codebook pattern."""
    return "%s%03d.%s.example" % (
        rng.choice(("www", "cdn", "api", "static", "mail")),
        rng.randrange(1000),
        rng.choice(("news", "shop", "video", "docs", "social", "bank")),
    )


def _https(emit, rng, t, client, server, cport, rtt):
    """Short TLS connection: handshake, ClientHello, two server segments, FIN."""
    cseq, sseq = rng.getrandbits(31), rng.getrandbits(31)
    emit(t, _tcp(client, server, cport, 443, cseq, 0, _SYN))
    cseq += 1
    emit(t + rtt, _tcp(server, client, 443, cport, sseq, cseq, _SYN | _ACK))
    sseq += 1
    t += rtt + 0.001
    emit(t, _tcp(client, server, cport, 443, cseq, sseq, _ACK))
    hello = synth.build_client_hello(_domain(rng), rng=rng)
    emit(t + 0.0005, _tcp(client, server, cport, 443, cseq, sseq, _PSH | _ACK, hello))
    cseq += len(hello)
    t += 0.0005 + rtt
    for size in (1460, 900):
        emit(t, _tcp(server, client, 443, cport, sseq, cseq, _PSH | _ACK, b"\x17" * size))
        sseq += size
        t += 0.0003
    emit(t + 0.002, _tcp(client, server, cport, 443, cseq, sseq, _FIN | _ACK))


def _dns(emit, t, client, resolver, cport, rtt):
    emit(t, _udp(client, resolver, cport, 53, b"\x00" * 40))
    emit(t + rtt, _udp(resolver, client, 53, cport, b"\x00" * 120))


def _quic_bulk(emit, rng, t, client, server, cport, packets):
    """Downstream 1200 B datagrams at ~1 ms with an upstream ack every tenth."""
    for i in range(packets):
        t += rng.uniform(0.0005, 0.0015)
        emit(t, _udp(server, client, 443, cport, b"\x00" * 1200))
        if i % 10 == 9:
            emit(t + 0.0002, _udp(client, server, cport, 443, b"\x00" * 40))


class _Capture:
    """Time-ordered frame list; ties keep emission order."""

    def __init__(self):
        self.items: list[tuple[float, bytes]] = []

    def emit(self, ts: float, frame: bytes) -> None:
        self.items.append((ts, frame))

    def records(self) -> list[tuple[float, bytes]]:
        self.items.sort(key=lambda it: it[0])
        return self.items


def _session(capture, profile, vlan=None):
    """Add one synth session; ``vlan`` None keeps its RawIP frames, otherwise
    they become Ethernet frames with that 802.1Q tag (0: untagged)."""
    records, manifest = synth.gen_session(profile)
    for ts, frame in records:
        capture.emit(ts, frame if vlan is None else _ether(frame, vlan))
    return manifest.data


# -- workloads ---------------------------------------------------------


def browser_bulk(seed: int):
    """One 60 s GFN browser session at 60 fps and 34 Mbps (RawIP)."""
    capture = _Capture()
    manifest = _session(
        capture,
        synth.SessionProfile(
            platform="gfn",
            setup="browser",
            fps_schedule=[(0.0, 60)],
            resolution_schedule=[(0.0, "fhd")],
            bitrate_bps=34e6,
            duration_s=60.0,
            seed=seed,
            client_ip="10.20.0.2",
            server_ip="198.51.100.20",
            base_ts=T0,
        ),
    )
    return capture.records(), [manifest], "10.0.0.0/8", pcap.LINKTYPE_RAW_IP


# (platform, setup, os, fps, band, rtt_ms) of the campus-mix sessions
CAMPUS_SESSIONS = (
    ("gfn", "desktop_app", "windows", 60, "hd", 12.0),
    ("gfn", "mobile_app", "android", 30, "sd", 35.0),
    ("gfn", "browser", "macos", 60, "sd", 20.0),
    ("xbox", "hardware_console", "windows", 60, "hd", 25.0),
    ("xbox", "pc_browser", "windows", 30, "hd", 50.0),
    ("xbox", "mobile_browser", "ios", 30, "sd", 80.0),
)
CAMPUS_SESSION_S = 15.0
CAMPUS_SPAN_S = 70.0
CAMPUS_CLIENTS_V4 = 240
CAMPUS_CLIENTS_V6 = 60
CAMPUS_HTTPS = 9000
CAMPUS_DNS = 2000
CAMPUS_QUIC = 100
CAMPUS_QUIC_PACKETS = 100


def campus_mix(seed: int):
    """Six concurrent sessions among 300 background clients (Ethernet, some
    frames VLAN-tagged, some background clients on IPv6)."""
    rng = random.Random(seed)
    capture = _Capture()
    emit = capture.emit
    manifests = []
    for i, (platform, setup, os_name, fps, band, rtt) in enumerate(CAMPUS_SESSIONS):
        profile = synth.SessionProfile(
            platform=platform,
            setup=setup,
            os=os_name,
            fps_schedule=[(0.0, fps)],
            resolution_schedule=[(0.0, band)],
            rtt_ms=rtt,
            duration_s=CAMPUS_SESSION_S,
            seed=rng.randrange(1 << 30),
            client_ip="10.1.0.%d" % (10 + i),
            server_ip="198.51.100.%d" % (30 + i),
            base_ts=T0 + 8.0 * i + rng.uniform(0.0, 2.0),
        )
        manifests.append(_session(capture, profile, vlan=100 if i % 2 else 0))

    clients = ["10.2.%d.%d" % (i // 200, 10 + i % 200) for i in range(CAMPUS_CLIENTS_V4)]
    clients += ["fd00:2::%x" % (0x10 + i) for i in range(CAMPUS_CLIENTS_V6)]
    vlans = {c: (200 if i % 3 == 0 else 0) for i, c in enumerate(clients)}
    servers4 = ["198.18.%d.%d" % (i // 250, 1 + i % 250) for i in range(400)]
    servers6 = ["2001:db8::%x" % (0x100 + i) for i in range(100)]
    next_port = {c: 20000 for c in clients}

    def tagged(c):
        vlan = vlans[c]
        return lambda ts, frame: emit(ts, _ether(frame, vlan))

    def flow_start(c):
        port = next_port[c]
        next_port[c] = port + 1
        return T0 + rng.uniform(0.0, CAMPUS_SPAN_S), port

    def server_for(c):
        return rng.choice(servers6 if ":" in c else servers4)

    for _ in range(CAMPUS_HTTPS):
        c = rng.choice(clients)
        t, port = flow_start(c)
        _https(tagged(c), rng, t, c, server_for(c), port, rng.uniform(0.005, 0.08))
    for _ in range(CAMPUS_DNS):
        c = rng.choice(clients)
        t, port = flow_start(c)
        resolver = "2001:db8::53" if ":" in c else "198.18.255.53"
        _dns(tagged(c), t, c, resolver, port, rng.uniform(0.002, 0.03))
    for _ in range(CAMPUS_QUIC):
        c = rng.choice(clients)
        t, port = flow_start(c)
        _quic_bulk(tagged(c), rng, t, c, server_for(c), port, CAMPUS_QUIC_PACKETS)
    return capture.records(), manifests, "10.0.0.0/8,fd00::/8", pcap.LINKTYPE_ETHERNET


NAT_CLIENTS = 4
NAT_CONNECTIONS = 400
NAT_SPAN_S = 540.0  # inside the detector's 600 s observation horizon
NAT_SESSION_AT_S = 500.0


def nat_churn(seed: int):
    """Four NAT addresses with 400 short TLS connections each over 9 minutes;
    the first also runs a GFN desktop session near the end of the window."""
    rng = random.Random(seed)
    capture = _Capture()
    nats = ["10.3.0.%d" % (1 + i) for i in range(NAT_CLIENTS)]
    servers = ["198.18.%d.%d" % (i // 250, 1 + i % 250) for i in range(400)]
    for nat in nats:
        for k in range(NAT_CONNECTIONS):
            t = T0 + rng.uniform(0.0, NAT_SPAN_S)
            _https(capture.emit, rng, t, nat, rng.choice(servers), 20000 + k, rng.uniform(0.005, 0.08))
    manifest = _session(
        capture,
        synth.SessionProfile(
            platform="gfn",
            setup="desktop_app",
            os="windows",
            fps_schedule=[(0.0, 30)],
            resolution_schedule=[(0.0, "sd")],
            rtt_ms=18.0,
            duration_s=6.0,
            seed=rng.randrange(1 << 30),
            client_ip=nats[0],
            server_ip="198.51.100.40",
            base_ts=T0 + NAT_SESSION_AT_S,
        ),
    )
    return capture.records(), [manifest], "10.0.0.0/8", pcap.LINKTYPE_RAW_IP


WORKLOADS = {
    "browser-bulk": browser_bulk,
    "campus-mix": campus_mix,
    "nat-churn": nat_churn,
}


def count_flows(records, link_type: int) -> int:
    """Distinct TCP/UDP conversations (direction-agnostic five-tuples)."""
    seen = set()
    for _, raw in records:
        off = 0
        if link_type == pcap.LINKTYPE_ETHERNET:
            off = 18 if raw[12:14] == b"\x81\x00" else 14
        if raw[off] >> 4 == 6:
            proto, a, b, l4 = raw[off + 6], raw[off + 8 : off + 24], raw[off + 24 : off + 40], off + 40
        else:
            proto, a, b = raw[off + 9], raw[off + 12 : off + 16], raw[off + 16 : off + 20]
            l4 = off + (raw[off] & 0x0F) * 4
        ends = sorted(((a, raw[l4 : l4 + 2]), (b, raw[l4 + 2 : l4 + 4])))
        seen.add((proto, ends[0], ends[1]))
    return len(seen)
