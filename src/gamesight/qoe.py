"""Per-session QoE estimation: client-platform latency, video frame rate
from payload-size patterns, and resolution band from peak bitrate."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .flows import WINDOW_S, FlowState

U32 = 1 << 32

FPS_LOW = "low"
FPS_MEDIUM = "medium"
FPS_HIGH = "high"

RES_FHD = "fhd"
RES_HD = "hd"
RES_SD = "sd"
RES_UNKNOWN = "unknown"

PENDING_EXPIRY_S = 4.0  # two heartbeat periods
PEAK_WINDOW_INTERVALS = 10  # trailing windows whose peak bitrate sets the resolution band
NO_PACKETS = (0, 0, 0, 0)  # the counts of a window the flow has no entry for
FRAME_SIZE_MARGIN = 1  # bytes below the running max that still count as full size
WARMUP_INTERVALS = 2

# Resolution band edges (bps of peak bitrate) per nominal frame-rate row:
# sd <= lo < hd <= hi < fhd. Each edge sits at the midpoint of the gap
# between the observed peak-bandwidth ranges of the two bands.
RES_EDGES_60 = (13_000_000.0, 22_000_000.0)
RES_EDGES_30 = (8_000_000.0, 14_000_000.0)
NOMINAL_FPS_SPLIT = 45.0  # above it the 60 fps row applies
ACTIVITY_FLOOR_BPS = 2_000_000.0  # below it the resolution is unknown


class LatencyTracker:
    """Pairs upstream management packets with their acknowledging
    downstream packets via expected ack = seq + payload (u32 wrapping), and
    files each latency under the grid window (`ts // WINDOW_S`) that its
    downstream packet arrives in. An upstream packet waits in `pending`
    until its ack comes or `expire` drops it."""

    def __init__(self):
        self.pending: dict[int, float] = {}
        self.windows: dict[int, list[float]] = {}  # arrival window -> latencies in ms, in arrival order
        self.count = 0  # latencies filed in `windows`
        self.negative_discarded = 0

    def feed(self, pkt: tuple, down: bool) -> Optional[float]:
        """One packet tuple (`PacketRecord` layout) of the flow; `down` is its
        direction, as `FlowState.down` has it after the flow table counted it.
        Returns the latency in ms that the packet completes, or None."""
        ts, _, _, _, _, _, payload_len, seq, ack, flags, _ = pkt
        if flags is None:
            return None
        if not down:
            if payload_len > 0:  # pure ACKs are never registered
                self.pending[(seq + payload_len) % U32] = ts
            return None
        t_up = self.pending.pop(ack, None)
        if t_up is None:
            return None
        delta = ts - t_up
        if delta < 0:
            self.negative_discarded += 1
            return None
        latency_ms = delta * 1000.0
        self.windows.setdefault(int(ts // WINDOW_S), []).append(latency_ms)
        self.count += 1
        return latency_ms

    def expire(self, now: float) -> None:
        """Drop the upstream packets sent more than `PENDING_EXPIRY_S` before
        `now` and not yet acknowledged: their acks no longer pair. The
        analyzer's capture-time tick calls it."""
        horizon = now - PENDING_EXPIRY_S
        self.pending = {ack: t for ack, t in self.pending.items() if t >= horizon}


@dataclass(slots=True)
class FpsSample:
    window: int  # index on the flow table's grid (ts // WINDOW_S)
    fps: float


NO_SAMPLES = ()  # what `FrameRateTracker.feed` returns while no window closes


class FrameRateTracker:
    """Frame counting from the payload-size pattern of a video flow.

    A growing running maximum identifies full-size data packets; a drop
    below (max - `FRAME_SIZE_MARGIN`) right after a full-size packet marks
    the end of one frame. Frames are counted per window of the flow table's
    grid (`ts // WINDOW_S`), and fps is emitted for a window once a later
    packet closes it; windows without packets yield zero. Only windows the
    flow covers whole are emitted: not the one holding its first packet,
    nor the last one, which never closes. A packet that closes no window
    gets the shared empty `NO_SAMPLES`, so no list is made per packet. A
    packet earlier than the open window counts in the open window. Every
    sample returned is also kept in `samples`.
    """

    __slots__ = ("frame_count", "window", "window_end", "whole", "size_max", "full_size", "flag_max", "samples")

    def __init__(self):
        self.frame_count = 0
        self.window: Optional[int] = None  # grid index of the open window
        # capture time at which the open window closes; -inf before the first
        # packet, so that it opens a window
        self.window_end = -math.inf
        self.whole = False  # the open window began after the first packet, so the flow covers it
        self.size_max = 0
        self.full_size = -FRAME_SIZE_MARGIN  # size_max - FRAME_SIZE_MARGIN: smaller packets can end a frame
        self.flag_max = False
        self.samples: list[FpsSample] = []

    def feed(self, payload_len: int, ts: float) -> Sequence[FpsSample]:
        out = NO_SAMPLES
        if ts >= self.window_end:
            idx = int(ts // WINDOW_S)
            if self.window is None:
                self.size_max = payload_len
                self.full_size = payload_len - FRAME_SIZE_MARGIN
            else:
                out = [FpsSample(self.window, self.frame_count / WINDOW_S)] if self.whole else []
                out.extend(FpsSample(w, 0.0) for w in range(self.window + 1, idx))
                self.samples.extend(out)
                self.frame_count = 0
                self.whole = True
            self.window = idx
            self.window_end = (idx + 1) * WINDOW_S
        if payload_len > self.size_max:
            self.size_max = payload_len
            self.full_size = payload_len - FRAME_SIZE_MARGIN
            return out
        if payload_len < self.full_size:
            if self.flag_max:
                self.frame_count += 1
                self.flag_max = False
            return out
        self.flag_max = True
        return out


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


def gameplay_rows(latency: LatencyTracker, video: Optional[FlowState]) -> tuple[list[dict], int]:
    """A gameplay's QoE rows: one per whole window of its video flow, on the
    flow table's grid. Each row is the dict of its `qoe.csv` cells but
    `session_id`, rounded as they are written. The frame rate comes from the
    flow's frame-rate tracker, the bitrate and trailing peak from the flow's
    own windows, and the latency from the samples that arrived in the
    window. There are none without a video flow (None). Also returns how
    many latency samples no row reports: those in a window without a row,
    or all of them when there are no rows."""
    if video is None:
        return [], latency.count
    windows = video.windows
    reported = 0
    rows = []
    for fs in video.frames.samples:
        idx = fs.window
        peak = max(windows.get(j, NO_PACKETS)[2] * 8 for j in range(idx - PEAK_WINDOW_INTERVALS + 1, idx + 1))
        lat_vals = latency.windows.get(idx)
        if lat_vals:
            reported += len(lat_vals)
        rows.append(
            {
                "ts": round(idx * WINDOW_S, 6),
                "latency_ms": round(sum(lat_vals) / len(lat_vals), 3) if lat_vals else None,
                "fps": round(fs.fps, 3),
                "fps_band": fps_band(fs.fps),
                "bitrate_mbps": round(windows.get(idx, NO_PACKETS)[2] * 8 / 1e6, 4),
                "resolution": resolution_band(fs.fps, peak),
            }
        )
    return rows, latency.count - reported
