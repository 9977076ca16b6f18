"""Synthetic session generator: ground-truth-annotated captures that
reproduce the platform/gameplay flow anatomy and volumetric envelopes.

The manifest is computed from the profile and the generation plan, never
from the emitted packets, so it stays an independent oracle for the
analyzer.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass, field
from operator import itemgetter
from socket import inet_aton
from typing import Optional

from . import pcap
from .classify import (
    ROLE_COMBINED,
    ROLE_DOWN_AUDIO,
    ROLE_DOWN_VIDEO,
    ROLE_MGMT,
    ROLE_STUN,
    ROLE_UP_AUDIO,
    ROLE_USER_INPUT,
)
from .errors import BandMismatch, InvalidProfile

MANIFEST_SCHEMA = "gamesight-manifest/1"

VIDEO_FULL_SIZE = 1466
MARKER_MIN = 216
MARKER_MAX = 1465
FRAME_JITTER_S = 0.002
FRAME_SIZE_JITTER = 0.2

HEARTBEAT_PERIOD_S = 2.0
HEARTBEAT_UP_LEN = 51
HEARTBEAT_DOWN_LEN = 46

DOWN_AUDIO_PPS = 300
DOWN_AUDIO_PAYLOAD = 15  # ~37 kbps at 300 pps
UP_AUDIO_PPS = 100
UP_AUDIO_PAYLOAD = 19  # ~15 kbps at 100 pps
AUDIO_REVERSE_PPS = 2
AUDIO_REVERSE_PAYLOAD = 10  # ~156 bps at 2 pps
INPUT_IDLE_PPS = 11
INPUT_ACTIVE_PPS_MAX = 267
INPUT_UP_PAYLOAD = 35
INPUT_DOWN_PAYLOAD = 4
STUN_PERIOD_S = 2.0
STUN_PAYLOAD = 20

# peak-bandwidth envelope (bps) per (fps, band): generated video must sit inside
BAND_RANGES = {
    (60, "fhd"): (23e6, 35e6),
    (60, "hd"): (15e6, 21e6),
    (60, "sd"): (5.5e6, 13e6),
    (30, "fhd"): (15e6, 22e6),
    (30, "hd"): (9e6, 13e6),
    (30, "sd"): (5.5e6, 8e6),
}

DEFAULT_BITRATES = {
    (60, "fhd"): 29e6,
    (60, "hd"): 18e6,
    (60, "sd"): 10e6,
    (30, "fhd"): 18e6,
    (30, "hd"): 11e6,
    (30, "sd"): 6.5e6,
}

# management handshake payload sizes per OS (after the TCP handshake)
MGMT_DOWN_SIZES = {
    "windows": [1460, 1460, 502],
    "macos": [1412, 1412],
    "android": [3455],
    "ios": [3450],
}
MGMT_HELLO_LEN = 517

GFN_SETUPS = ("desktop_app", "mobile_app", "browser")
XBOX_SETUPS = ("hardware_console", "pc_browser", "mobile_browser")


def _dotted_quad(ip) -> bool:
    """Four decimal labels from 0 to 255. A leading zero is refused, since
    `inet_aton` reads such a label as octal."""
    labels = ip.split(".") if isinstance(ip, str) else ()
    return len(labels) == 4 and all(
        label.isascii() and label.isdigit() and str(int(label)) == label and int(label) <= 255 for label in labels
    )


@dataclass
class SessionProfile:
    platform: str  # "gfn" | "xbox"
    setup: str
    os: str = "windows"
    fps_schedule: list = field(default_factory=lambda: [(0.0, 60)])
    resolution_schedule: list = field(default_factory=lambda: [(0.0, "fhd")])
    bitrate_bps: Optional[float] = None  # default: mid-band for (fps, band)
    rtt_ms: float = 20.0
    duration_s: float = 30.0
    seed: int = 1
    client_ip: str = "192.0.2.10"
    server_ip: str = "203.0.113.7"
    base_ts: float = 1_700_000_000.0
    strip_sni: bool = False

    def validate(self) -> None:
        if self.platform == "gfn":
            if self.setup not in GFN_SETUPS:
                raise InvalidProfile("unknown gfn setup %r" % self.setup)
        elif self.platform == "xbox":
            if self.setup not in XBOX_SETUPS:
                raise InvalidProfile("unknown xbox setup %r" % self.setup)
        else:
            raise InvalidProfile("unknown platform %r" % self.platform)
        if self.os not in MGMT_DOWN_SIZES:
            raise InvalidProfile("unknown os %r" % self.os)
        for name, ip in (("client_ip", self.client_ip), ("server_ip", self.server_ip)):
            if not _dotted_quad(ip):
                raise InvalidProfile("%s must be a dotted-quad IPv4 address, not %r" % (name, ip))
        # a comparison with NaN is false, so these refuse it as well; the
        # manifest has a qoe truth entry for each whole second of gameplay
        if not 1 <= self.duration_s < float("inf"):
            raise InvalidProfile("duration must be finite and positive, at least 1 s, not %r" % self.duration_s)
        if not 0 <= self.rtt_ms < float("inf"):
            raise InvalidProfile("rtt must be finite and non-negative, not %r" % self.rtt_ms)
        if not self.fps_schedule or self.fps_schedule[0][0] != 0.0:
            raise InvalidProfile("fps schedule must cover [0, duration)")
        if not self.resolution_schedule or self.resolution_schedule[0][0] != 0.0:
            raise InvalidProfile("resolution schedule must cover [0, duration)")
        for _, fps in self.fps_schedule:
            if fps not in (30, 60):
                raise InvalidProfile("fps must be 30 or 60")
        for _, band in self.resolution_schedule:
            if band not in ("fhd", "hd", "sd"):
                raise InvalidProfile("unknown resolution band %r" % band)

    def is_console_class(self) -> bool:
        return self.platform == "gfn" and self.setup in ("desktop_app", "mobile_app")

    def mgmt_port(self) -> int:
        return 322 if self.is_console_class() else 49100


# -- raw packet builders (IPv4 over RawIP link) ------------------------

# IPv4 header and the transport header after it, packed in one call
_IPV4_UDP = struct.Struct("!BBHHHBBH4s4sHHHH")
_IPV4_TCP = struct.Struct("!BBHHHBBH4s4sHHIIBBHHH")


def ipv4_udp(src: str, dst: str, sport: int, dport: int, payload: bytes) -> bytes:
    n = len(payload)
    return _IPV4_UDP.pack(
        0x45, 0, 28 + n, 0, 0, 64, 17, 0, inet_aton(src), inet_aton(dst), sport, dport, 8 + n, 0
    ) + payload


def ipv4_tcp(
    src: str,
    dst: str,
    sport: int,
    dport: int,
    seq: int,
    ack: int,
    flags: int,
    payload: bytes = b"",
) -> bytes:
    return _IPV4_TCP.pack(
        0x45, 0, 40 + len(payload), 0, 0, 64, 6, 0, inet_aton(src), inet_aton(dst),
        sport, dport, seq & 0xFFFFFFFF, ack & 0xFFFFFFFF, 5 << 4, flags, 65535, 0, 0,
    ) + payload


class _UdpFrames(dict):
    """Zero-payload UDP frames of one flow direction, keyed by payload size.

    Each size is built once and the same `bytes` object is handed out for
    every packet of that size, so the plan's memory grows with the distinct
    sizes, not with the packet count."""

    def __init__(self, src: str, dst: str, sport: int, dport: int):
        super().__init__()
        self.ends = (src, dst, sport, dport)

    def __missing__(self, size: int) -> bytes:
        frame = self[size] = ipv4_udp(*self.ends, b"\x00" * size)
        return frame


def build_client_hello(server_name: str, pad_to: Optional[int] = None, rng: Optional[random.Random] = None) -> bytes:
    """Minimal TLS 1.2-style ClientHello carrying a server_name extension,
    optionally padded (padding extension) to an exact payload length."""
    rng = rng or random.Random(0)
    name = server_name.encode("ascii")
    sni_ext = struct.pack("!HH", 0, len(name) + 5) + struct.pack("!HBH", len(name) + 3, 0, len(name)) + name
    ciphers = struct.pack("!H", 8) + b"\x13\x01\x13\x02\xc0\x2b\xc0\x2f"
    hello = (
        b"\x03\x03"
        + bytes(rng.getrandbits(8) for _ in range(32))
        + b"\x00"  # empty session id
        + ciphers
        + b"\x01\x00"  # null compression
    )
    exts = sni_ext
    if pad_to is not None:
        # 5 record + 4 handshake + len(hello) + 2 ext-len + exts + 4 pad hdr + n
        base = 5 + 4 + len(hello) + 2 + len(exts) + 4
        if pad_to < base:
            raise ValueError("pad_to too small for ClientHello")
        exts += struct.pack("!HH", 21, pad_to - base) + b"\x00" * (pad_to - base)
    body = hello + struct.pack("!H", len(exts)) + exts
    hs = b"\x01" + len(body).to_bytes(3, "big") + body
    return b"\x16\x03\x01" + struct.pack("!H", len(hs)) + hs


# -- generation plan helpers -------------------------------------------


class _TcpConv:
    """Client/server TCP conversation emitter with coherent seq/ack state;
    `plan` is the list of (ts, frame) records it appends to."""

    def __init__(self, plan: list, client_ip, server_ip, cport, sport, rtt_s, rng):
        self.plan = plan
        self.client_ip, self.server_ip = client_ip, server_ip
        self.cport, self.sport = cport, sport
        self.rtt_s = rtt_s
        self.cseq = rng.randrange(1 << 31)
        self.sseq = rng.randrange(1 << 31)

    def handshake(self, t: float) -> float:
        syn = ipv4_tcp(self.client_ip, self.server_ip, self.cport, self.sport, self.cseq, 0, 0x02)
        self.plan.append((t, syn))
        self.cseq += 1
        syn_ack = ipv4_tcp(self.server_ip, self.client_ip, self.sport, self.cport, self.sseq, self.cseq, 0x12)
        self.plan.append((t + self.rtt_s, syn_ack))
        self.sseq += 1
        ack = ipv4_tcp(self.client_ip, self.server_ip, self.cport, self.sport, self.cseq, self.sseq, 0x10)
        self.plan.append((t + self.rtt_s + 0.001, ack))
        return t + self.rtt_s + 0.002

    def send_up(self, t: float, payload: bytes) -> None:
        frame = ipv4_tcp(self.client_ip, self.server_ip, self.cport, self.sport, self.cseq, self.sseq, 0x18, payload)
        self.plan.append((t, frame))
        self.cseq += len(payload)

    def send_down(self, t: float, payload: bytes) -> None:
        frame = ipv4_tcp(self.server_ip, self.client_ip, self.sport, self.cport, self.sseq, self.cseq, 0x18, payload)
        self.plan.append((t, frame))
        self.sseq += len(payload)


# -- video -------------------------------------------------------------


def _value_at(schedule, t):
    cur = schedule[0][1]
    for start, v in schedule:
        if t >= start:
            cur = v
    return cur


def _scheduled_video(profile: SessionProfile, seed: int, t_play: float, frames: _UdpFrames):
    """Downstream video honoring the fps/resolution schedules, planned once:
    the capture records, each frame's marker offset from `t_play`, and the
    manifest's `qoe` truth per second. Each frame is N full packets and one
    marker, 50 us apart."""
    records: list[tuple[float, bytes]] = []
    markers: list[float] = []
    truth: list[dict] = []
    rng = random.Random(seed)
    full = frames[VIDEO_FULL_SIZE]
    for s in range(int(profile.duration_s)):
        fps = _value_at(profile.fps_schedule, s)
        band = _value_at(profile.resolution_schedule, s)
        bitrate = profile.bitrate_bps or DEFAULT_BITRATES[(fps, band)]
        lo, hi = BAND_RANGES[(fps, band)]
        if not lo <= bitrate <= hi:
            raise BandMismatch(
                "bitrate %.1f Mbps outside %s@%dfps band" % (bitrate / 1e6, band, fps)
            )
        sec_rng = random.Random(rng.randrange(1 << 30))
        mean_frame = bitrate / (8 * fps)
        spacing = 1.0 / fps
        for k in range(fps):
            t = k * spacing + sec_rng.uniform(-FRAME_JITTER_S, FRAME_JITTER_S)
            t = max(t, k * spacing - FRAME_JITTER_S, 0.0)
            frame_bytes = int(mean_frame * sec_rng.uniform(1 - FRAME_SIZE_JITTER, 1 + FRAME_SIZE_JITTER))
            n_full = frame_bytes // VIDEO_FULL_SIZE
            marker = min(max(frame_bytes % VIDEO_FULL_SIZE, MARKER_MIN), MARKER_MAX)
            records.extend((t_play + (s + (t + i * 5e-5)), full) for i in range(n_full))
            t_marker = t + n_full * 5e-5
            records.append((t_play + (s + t_marker), frames[marker]))
            markers.append(round(s + t_marker, 6))
        truth.append(
            {"ts": t_play + s, "fps": fps, "bitrate_mbps": bitrate / 1e6, "resolution": band}
        )
    return records, markers, truth


# -- session -----------------------------------------------------------

_GFN_PLATFORM_DOMAINS = {
    "core": [
        "login.nvidia.com",
        "events.nvidia.com",
        "userstore.nvidia.com",
        "gfnpc.api.entitlement-prod.nvidiagrid.net",
    ],
    "desktop_app": [
        "cms.nvidia.com",
        "als.nvidia.com",
        "gx-target-experiments-frontend-api.nvidia.com",
    ],
    "mobile_app": ["img.nvidiagrid.net"],
    "browser": ["play.nvidia.com"],
    "selection": ["server_syd1_pnt.nvidiagrid.net"],
}

_XBOX_PLATFORM_DOMAINS = {
    "core": ["login.xboxlive.com", "regional-node.xboxlive.com"],
    "hardware_console": ["xgpuconsole.xboxlive.com"],
    "pc_browser": ["xgpuweb.xboxlive.com"],
    "mobile_browser": ["xgpu.xboxlive.com"],
    "selection": [],
}


def _gameplay_sni(profile: SessionProfile) -> str:
    dashed = profile.server_ip.replace(".", "-")
    if profile.platform == "gfn":
        return "%s.pnt.nvidiagrid.net" % dashed
    return "%s.cloudgame.xboxlive.com" % dashed


def _opaque(rng: random.Random, n: int) -> bytes:
    # first byte kept clear of the TLS handshake content type
    return b"\x00" + bytes(rng.getrandbits(8) for _ in range(n - 1))


def _platform_flow(plan, profile, rng, t, names, server_i, client_i) -> None:
    """A TLS flow to name `server_i`'s server, 203.0.113.(10+server_i):443,
    from client port 40000+client_i."""
    domain = names[server_i]
    server_ip = "203.0.113.%d" % (10 + server_i)
    conv = _TcpConv(plan, profile.client_ip, server_ip, 40000 + client_i, 443, profile.rtt_ms / 1000.0, rng)
    t = conv.handshake(t)
    if profile.strip_sni:
        hello = _opaque(rng, 180 + len(domain))
    else:
        hello = build_client_hello(domain, rng=rng)
    conv.send_up(t, hello)
    t += profile.rtt_ms / 1000.0
    conv.send_down(t, b"\x00" * 1460)
    conv.send_down(t + 0.001, b"\x00" * 800)
    conv.send_up(t + 0.02, b"\x00" * 100)


def _cbr_stream(plan, rng, flow, t0, duration, up_pps, up_len, down_pps, down_len):
    """Constant-rate bidirectional UDP stream (audio/input envelopes) on
    `flow`, its (upstream, downstream) frame caches. Each direction draws
    its start phase, upstream first, even when its rate is 0."""
    for frames, pps, length in zip(flow, (up_pps, down_pps), (up_len, down_len)):
        start = t0 + rng.uniform(0, 0.01)
        if pps > 0:
            gap, frame = 1.0 / pps, frames[length]
            plan.extend((start + i * gap, frame) for i in range(int(duration * pps)))


@dataclass
class GroundTruthManifest:
    data: dict

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.data, fh, indent=2)
            fh.write("\n")


def gen_session(profile: SessionProfile) -> tuple[list[tuple[float, bytes]], GroundTruthManifest]:
    """Full session plan (time-ordered records) plus its ground truth."""
    profile.validate()
    rng = random.Random(profile.seed)
    plan: list[tuple[float, bytes]] = []
    rtt_s = profile.rtt_ms / 1000.0
    domains = _GFN_PLATFORM_DOMAINS if profile.platform == "gfn" else _XBOX_PLATFORM_DOMAINS

    # platform phase: core services in sequential order, then setup-specific
    t = profile.base_ts
    platform_start = t
    names = list(domains["core"]) + list(domains[profile.setup]) + list(domains["selection"])
    for i in range(len(names)):
        _platform_flow(plan, profile, rng, t, names, i, i)
        t += 0.25

    flows: list[dict] = []

    def flow(role, cport, sport, proto="UDP"):
        """Declare a gameplay flow: its manifest entry, and its (upstream,
        downstream) frame caches, the one source of its UDP packets."""
        flows.append(
            {
                "role": role,
                "client_ip": profile.client_ip,
                "client_port": cport,
                "server_ip": profile.server_ip,
                "server_port": sport,
                "proto": proto,
            }
        )
        return (
            _UdpFrames(profile.client_ip, profile.server_ip, cport, sport),
            _UdpFrames(profile.server_ip, profile.client_ip, sport, cport),
        )

    # gameplay management flow with embedded-IP service name
    mgmt, _ = flow(ROLE_MGMT, 51000, profile.mgmt_port(), proto="TCP")
    conv = _TcpConv(plan, *mgmt.ends, rtt_s, rng)
    t_hello = conv.handshake(t + 0.3)
    if profile.strip_sni:
        hello = _opaque(rng, MGMT_HELLO_LEN)
    else:
        hello = build_client_hello(_gameplay_sni(profile), pad_to=MGMT_HELLO_LEN, rng=rng)
    conv.send_up(t_hello, hello)
    td = t_hello + rtt_s
    for size in MGMT_DOWN_SIZES[profile.os]:
        conv.send_down(td, b"\x00" * size)
        td += 0.001

    # gameplay flows start shortly after registration
    t_play = t_hello + 0.2
    duration = profile.duration_s
    gameplay_end = t_play + duration

    # heartbeat pairs every 2 s on the management flow
    hb = t_hello + 1.0
    while hb < gameplay_end:
        conv.send_up(hb, b"\x00" * HEARTBEAT_UP_LEN)
        conv.send_down(hb + rtt_s, b"\x00" * HEARTBEAT_DOWN_LEN)
        hb += HEARTBEAT_PERIOD_S

    video_seed = rng.randrange(1 << 30)
    if profile.is_console_class():
        video = flow(ROLE_DOWN_VIDEO, 49005, rng.randrange(47000, 48900))
        audio_down = flow(ROLE_DOWN_AUDIO, 49003, rng.randrange(47000, 48900))
        audio_up = flow(ROLE_UP_AUDIO, 49004, rng.randrange(47000, 48900))
        user_input = flow(ROLE_USER_INPUT, 49006, rng.randrange(47000, 48900))
        video_records, _, qoe = _scheduled_video(profile, video_seed, t_play, video[1])
        plan.extend(video_records)
        # sparse upstream receiver feedback on the video flow
        _cbr_stream(plan, rng, video, t_play, duration, 2, 24, 0, 0)
        _cbr_stream(
            plan, rng, audio_down, t_play, duration,
            AUDIO_REVERSE_PPS, AUDIO_REVERSE_PAYLOAD, DOWN_AUDIO_PPS, DOWN_AUDIO_PAYLOAD,
        )
        _cbr_stream(
            plan, rng, audio_up, t_play, duration,
            UP_AUDIO_PPS, UP_AUDIO_PAYLOAD, AUDIO_REVERSE_PPS, AUDIO_REVERSE_PAYLOAD,
        )
        # two-state input activity, matched packet rates both ways
        active = False
        for s in range(int(duration)):
            if s >= 3 and rng.random() < 0.3:
                active = not active
            pps = rng.randint(50, INPUT_ACTIVE_PPS_MAX) if active else INPUT_IDLE_PPS
            _cbr_stream(plan, rng, user_input, t_play + s, 1.0, pps, INPUT_UP_PAYLOAD, pps, INPUT_DOWN_PAYLOAD)
    else:
        # single combined media+input flow (browser and all XBox setups)
        if profile.platform == "xbox":
            media_sport = rng.randrange(1040, 1186)
            stun_sport = media_sport + 2
        else:
            media_sport = rng.randrange(47000, 48900)
            stun_sport = rng.randrange(49200, 49900)
        up, down = flow(ROLE_COMBINED, 50100, media_sport)
        stun_up, stun_down = flow(ROLE_STUN, 3478, stun_sport)
        video_records, markers, qoe = _scheduled_video(profile, video_seed, t_play, down)
        plan.extend(video_records)
        # per-frame companions after each marker: downstream audio, upstream audio, input
        for toff in markers:
            base = t_play + toff
            plan.append((base + 5e-4, down[DOWN_AUDIO_PAYLOAD]))
            plan.append((base + 7e-4, up[UP_AUDIO_PAYLOAD]))
            plan.append((base + 9e-4, up[INPUT_UP_PAYLOAD]))
        # low-rate STUN helper flow
        hb = t_play + rng.uniform(0, 0.3)
        while hb < gameplay_end:
            plan.append((hb, stun_up[STUN_PAYLOAD]))
            plan.append((hb + rtt_s, stun_down[STUN_PAYLOAD]))
            hb += STUN_PERIOD_S

    # back to the platform after gameplay: name 1 again, from the next client port
    _platform_flow(plan, profile, rng, gameplay_end + 1.0, names, 1, len(names))

    # the sort is stable: records with equal timestamps keep emission order
    plan.sort(key=itemgetter(0))
    capture_end = plan[-1][0] if plan else gameplay_end

    manifest = GroundTruthManifest(
        {
            "schema": MANIFEST_SCHEMA,
            "platform": profile.platform,
            "setup": profile.setup,
            "os": profile.os,
            "seed": profile.seed,
            "client_ip": profile.client_ip,
            "server_ip": profile.server_ip,
            "rtt_ms": profile.rtt_ms,
            "strip_sni": profile.strip_sni,
            "timeline": {
                "platform_start": platform_start,
                "gameplay_start": t_play,
                "gameplay_end": gameplay_end,
                "capture_end": capture_end,
            },
            "packet_count": len(plan),
            "flows": flows,
            "qoe": qoe,
        }
    )
    return plan, manifest


def write_session(profile: SessionProfile, pcap_path: str, manifest_path: str) -> GroundTruthManifest:
    records, manifest = gen_session(profile)
    pcap.write_capture(records, pcap_path, link_type=pcap.LINKTYPE_RAW_IP)
    manifest.save(manifest_path)
    return manifest
