"""Per-session QoE estimation: client-platform latency, video frame rate
from payload-size patterns, and resolution band from peak bitrate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .flows import WINDOW_S
from .packets import Direction, PacketRecord

U32 = 1 << 32

FPS_LOW = "low"
FPS_MEDIUM = "medium"
FPS_HIGH = "high"

RES_FHD = "fhd"
RES_HD = "hd"
RES_SD = "sd"
RES_UNKNOWN = "unknown"

PENDING_EXPIRY_S = 4.0  # two heartbeat periods
FRAME_SIZE_MARGIN = 1  # bytes below the running max that still count as full size
WARMUP_INTERVALS = 2

# Resolution band edges (bps of peak bitrate) per nominal frame-rate row:
# sd <= lo < hd <= hi < fhd. Each edge sits at the midpoint of the gap
# between the observed peak-bandwidth ranges of the two bands.
RES_EDGES_60 = (13_000_000.0, 22_000_000.0)
RES_EDGES_30 = (8_000_000.0, 14_000_000.0)
NOMINAL_FPS_SPLIT = 45.0  # above it the 60 fps row applies
ACTIVITY_FLOOR_BPS = 2_000_000.0  # below it the resolution is unknown


@dataclass(slots=True)
class LatencySample:
    ts: float  # downstream arrival time
    latency_ms: float


class LatencyTracker:
    """Pairs upstream management packets with their acknowledging
    downstream packets via expected ack = seq + payload (u32 wrapping)."""

    def __init__(self):
        self.pending: dict[int, float] = {}
        self.samples: list[LatencySample] = []
        self.negative_discarded = 0

    def feed(self, pkt: PacketRecord) -> Optional[LatencySample]:
        if pkt.flags is None or pkt.direction is None:
            return None
        if pkt.direction is Direction.UPSTREAM:
            if pkt.payload_len > 0:  # pure ACKs are never registered
                self.pending[(pkt.seq + pkt.payload_len) % U32] = pkt.ts
                self._expire(pkt.ts)
            return None
        t_up = self.pending.pop(pkt.ack, None)
        if t_up is None:
            return None
        delta = pkt.ts - t_up
        if delta < 0:
            self.negative_discarded += 1
            return None
        sample = LatencySample(ts=pkt.ts, latency_ms=delta * 1000.0)
        self.samples.append(sample)
        return sample

    def _expire(self, now: float) -> None:
        if len(self.pending) > 8:
            horizon = now - PENDING_EXPIRY_S
            for ack in [a for a, t in self.pending.items() if t < horizon]:
                del self.pending[ack]


@dataclass(slots=True)
class FpsSample:
    interval_start: float
    fps: float


class FrameRateTracker:
    """Frame counting from the payload-size pattern of a video flow.

    A growing running maximum identifies full-size data packets; a drop
    below (max - `FRAME_SIZE_MARGIN`) right after a full-size packet marks
    the end of one frame. Fps is emitted per elapsed `WINDOW_S` interval; empty
    intervals yield zero. The interval origin advances by whole intervals
    so that rates are per-interval rather than cumulative.
    """

    def __init__(self):
        self.frame_count = 0
        self.t_start: Optional[float] = None
        self.size_max = 0
        self.flag_max = False

    def feed(self, payload_len: int, ts: float) -> list[FpsSample]:
        out: list[FpsSample] = []
        if self.t_start is None:
            self.t_start = ts
            self.size_max = payload_len
        while ts > self.t_start + WINDOW_S:
            out.append(FpsSample(self.t_start, self.frame_count / WINDOW_S))
            self.frame_count = 0
            self.t_start += WINDOW_S
        if payload_len > self.size_max:
            self.size_max = payload_len
            return out
        if payload_len < self.size_max - FRAME_SIZE_MARGIN:
            if self.flag_max:
                self.frame_count += 1
                self.flag_max = False
            return out
        self.flag_max = True
        return out


class FlowQoe:
    """Streaming QoE inputs of one candidate gameplay flow, fed with its
    downstream packets in capture order: the frame-rate samples and the
    bytes per interval, both counted from the first downstream packet.
    Packets wait in `pending` until `start`, once the flow's role is known."""

    __slots__ = ("tracker", "fps_samples", "t0", "interval_bytes", "pending")

    def __init__(self):
        self.tracker = FrameRateTracker()
        self.fps_samples: list[FpsSample] = []
        self.t0: Optional[float] = None
        self.interval_bytes: dict[int, int] = {}
        self.pending: Optional[list[tuple[int, float]]] = []

    def feed(self, payload_len: int, ts: float) -> None:
        if self.pending is not None:
            self.pending.append((payload_len, ts))
            return
        if self.t0 is None:
            self.t0 = ts
        idx = int((ts - self.t0) / WINDOW_S)
        self.interval_bytes[idx] = self.interval_bytes.get(idx, 0) + payload_len
        self.fps_samples.extend(self.tracker.feed(payload_len, ts))

    def start(self) -> None:
        pending, self.pending = self.pending, None
        for payload_len, ts in pending or ():
            self.feed(payload_len, ts)


def fps_band(fps: float) -> str:
    if fps < 40:
        return FPS_LOW
    if fps <= 50:
        return FPS_MEDIUM
    return FPS_HIGH


def resolution_band(fps: float, peak_bitrate_bps: float) -> str:
    if peak_bitrate_bps < ACTIVITY_FLOOR_BPS:
        return RES_UNKNOWN
    lo, hi = RES_EDGES_60 if fps > NOMINAL_FPS_SPLIT else RES_EDGES_30
    if peak_bitrate_bps <= lo:
        return RES_SD
    if peak_bitrate_bps <= hi:
        return RES_HD
    return RES_FHD


@dataclass(slots=True)
class QoeSample:
    ts: float
    latency_ms: Optional[float]
    fps: Optional[float]
    fps_band: Optional[str]
    bitrate_mbps: float
    resolution: str
    warmup: bool = False
