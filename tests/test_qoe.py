import math
import random

import pytest

from gamesight.flows import SWEEP_S, WINDOW_S
from gamesight.pipeline import Analyzer
from gamesight.qoe import (
    FPS_HIGH,
    FPS_LOW,
    FPS_MEDIUM,
    FRAME_SIZE_MARGIN,
    NO_SAMPLES,
    FpsSample,
    FrameRateTracker,
    LatencyTracker,
    RES_FHD,
    RES_HD,
    RES_SD,
    RES_UNKNOWN,
    U32,
    fps_band,
    resolution_band,
)
from gamesight.synth import build_client_hello

from conftest import tcp_record

CLIENT = "192.0.2.10"
SERVER = "203.0.113.7"
UP, DOWN = False, True  # a packet's direction, as `FlowState.down` has it


def _up(ts, seq, length):
    return tcp_record(ts, CLIENT, 51000, SERVER, 322, length, seq=seq)


def _down(ts, ack, length=0):
    return tcp_record(ts, SERVER, 322, CLIENT, 51000, length, ack=ack)


# -- latency ------------------------------------------------------------


def test_latency_pairing_20ms():
    t = LatencyTracker()
    t.feed(_up(10.0, seq=1000, length=51), UP)
    latency_ms = t.feed(_down(10.020, ack=1051), DOWN)
    assert latency_ms == pytest.approx(20.0)
    assert t.windows == {10: [latency_ms]} and t.count == 1


def test_pure_acks_never_registered():
    t = LatencyTracker()
    t.feed(_up(10.0, seq=1000, length=0), UP)
    assert t.feed(_down(10.020, ack=1000), DOWN) is None
    assert t.windows == {} and t.count == 0


def test_unmatched_ack_ignored():
    t = LatencyTracker()
    t.feed(_up(10.0, seq=1000, length=51), UP)
    assert t.feed(_down(10.1, ack=9999), DOWN) is None
    assert t.pending  # original pair still waiting


def test_sequence_wraparound():
    # [DERIVED] seq near 2^32: expected ack wraps to (seq + len) mod 2^32
    t = LatencyTracker()
    seq = U32 - 5
    t.feed(_up(1.0, seq=seq, length=10), UP)
    assert (seq + 10) % U32 == 5
    assert t.feed(_down(1.008, ack=5), DOWN) == pytest.approx(8.0)


def test_negative_delta_discarded():
    t = LatencyTracker()
    t.feed(_up(10.0, seq=1, length=5), UP)
    assert t.feed(_down(9.5, ack=6), DOWN) is None
    assert t.negative_discarded == 1
    assert t.windows == {} and t.count == 0


def _registered():
    """An analyzer whose one gameplay its management flow's ClientHello
    registered at 0.0, and the gameplay's latency tracker, where the
    registering packet waits for its ack (1 + its length). The packet ran
    the first tick, so the next runs on the first packet at `SWEEP_S` or
    later."""
    analyzer = Analyzer(client_nets=("192.0.2.0/24",))
    hello = build_client_hello("203-0-113-7.pnt.nvidiagrid.net")
    analyzer._feed([tcp_record(0.0, CLIENT, 51000, SERVER, 322, len(hello), seq=1, payload=hello)])
    (reg,) = analyzer.detector.registrations.values()
    assert reg.latency.pending == {1 + len(hello): 0.0}
    return analyzer, reg.latency


def test_pending_expiry():
    # feeding expires nothing; the analyzer's tick expires every entry more
    # than PENDING_EXPIRY_S old, however many are pending
    analyzer, t = _registered()
    analyzer._feed([_up(0.1 * i, seq=i * 1000, length=10) for i in range(1, 10)])
    analyzer._feed([_up(SWEEP_S - 0.5, seq=980000, length=10)])
    assert len(t.pending) == 11
    analyzer._feed([_up(SWEEP_S + 1.0, seq=990000, length=10)])  # runs a tick at 6.0
    assert sorted(t.pending.values()) == [SWEEP_S - 0.5, SWEEP_S + 1.0]
    analyzer._feed([_down(SWEEP_S + 1.01, ack=1010)])
    assert t.count == 0  # an expired pair
    analyzer._feed([_down(SWEEP_S + 1.02, ack=980010)])
    assert t.count == 1  # a pair the tick kept
    # a single entry, acked 10 s later: the packet of the ack runs a tick
    # first, which expires the entry, so the ack pairs with nothing
    analyzer, t = _registered()
    (ack,) = t.pending
    analyzer._feed([_down(10.0, ack=ack)])
    assert t.pending == {} and t.count == 0


# -- frame rate (running-max / marker state machine) -------------------


def _run(tracker, events):
    out = []
    for size, ts in events:
        out.extend(tracker.feed(size, ts))
    return out


def test_thirty_frame_groups_measure_30fps():
    # [DERIVED] 30 groups/s of (full, full, marker) -> 30 fps in every whole
    # window; the stream starts mid-window, so window 0 is partial
    events = []
    for sec in range(4):
        for k in range(30):
            base = 0.5 + sec + k / 30.0
            events += [(1466, base), (1466, base + 1e-4), (400, base + 2e-4)]
    samples = _run(FrameRateTracker(), events)
    assert len(samples) >= 2
    assert [s.window for s in samples] == [1, 2, 3]
    for s in samples:
        assert s.fps == pytest.approx(30.0)


def test_constant_size_stream_is_zero_fps():
    events = [(1200, i / 500.0) for i in range(1500)]
    samples = _run(FrameRateTracker(), events)
    assert samples
    assert all(s.fps == 0.0 for s in samples)


def test_no_double_count_without_intervening_full_size():
    # full, marker, marker: only one frame despite two small packets
    tr = FrameRateTracker()
    _run(tr, [(1466, 0.0), (400, 0.001), (300, 0.002)])
    assert tr.frame_count == 1


def test_growing_max_packets_not_counted_as_markers():
    # a rising running maximum must not register frames
    tr = FrameRateTracker()
    _run(tr, [(100, 0.0), (200, 0.01), (300, 0.02), (1466, 0.03)])
    assert tr.frame_count == 0


def test_empty_interval_emits_zero():
    samples = _run(
        FrameRateTracker(),
        [(1466, 0.5), (1466, 1.0), (400, 1.001), (1466, 5.0), (400, 5.001)],
    )
    assert samples[0].fps == pytest.approx(1.0)
    assert [s.fps for s in samples[1:4]] == [0.0, 0.0, 0.0]
    assert [s.window for s in samples] == [1, 2, 3, 4]


def test_interval_origin_advances():
    # windows sit on the wall grid (ts // WINDOW_S), not at the first packet;
    # the window holding the first packet is partial and never emitted, even
    # though it holds a frame, and the last window never closes
    tr = FrameRateTracker()
    samples = _run(
        tr,
        [(1466, 0.3), (400, 0.301), (1466, 1.05), (400, 1.051), (1466, 2.05), (400, 2.051), (1466, 3.05)],
    )
    assert [s.window for s in samples] == [1, 2]
    assert [s.fps for s in samples] == [1.0, 1.0]


def test_size_margin_boundary():
    # a drop of exactly the 1-byte margin below max is NOT a marker; one more byte is
    tr = FrameRateTracker()
    _run(tr, [(1466, 0.0), (1465, 0.001)])
    assert tr.frame_count == 0
    tr = FrameRateTracker()
    _run(tr, [(1466, 0.0), (1464, 0.001)])
    assert tr.frame_count == 1


def test_a_held_tracker_keeps_what_it_returns_live():
    # a packet that closes no window gets the shared empty result; a tracker
    # keeps exactly the samples it returns (the packets a flow holds until its
    # role is known are replayed through the same `feed`)
    rng = random.Random(11)
    events, ts = [], 0.3
    for _ in range(4000):
        ts += rng.uniform(1.0, 3.5) if rng.random() < 0.003 else rng.expovariate(300.0)
        events.append((rng.choice((400, 1200, 1465, 1466, rng.randrange(0, 1500))), ts))
    tracker = FrameRateTracker()
    returns = [tracker.feed(size, t) for size, t in events]
    windows = [int(t // WINDOW_S) for _, t in events]
    quiet = [r for i, r in enumerate(returns) if i == 0 or windows[i] == windows[i - 1]]
    assert len(quiet) > len(events) - 100
    assert all(not r and len(r) == 0 and r is NO_SAMPLES for r in quiet)
    assert sum(len(r) for r in returns) > 20  # gaps give windows of zero fps too
    assert tracker.samples == [s for r in returns for s in r]


class _OracleTracker:
    """The frame-rate tracker as it was before it cached its open window's
    end and full-size threshold: the window index of every packet, and the
    threshold, computed per packet."""

    def __init__(self):
        self.frame_count = 0
        self.window = None
        self.whole = False
        self.size_max = 0
        self.flag_max = False

    def feed(self, payload_len, ts):
        out = NO_SAMPLES
        idx = int(ts // WINDOW_S)
        if self.window is None:
            self.window = idx
            self.size_max = payload_len
        elif idx > self.window:
            out = [FpsSample(self.window, self.frame_count / WINDOW_S)] if self.whole else []
            out.extend(FpsSample(w, 0.0) for w in range(self.window + 1, idx))
            self.frame_count = 0
            self.window = idx
            self.whole = True
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


def _stepping_stream(rng: random.Random, count: int) -> list:
    """(size, ts) events that cross windows, skip windows, land on window
    boundaries and one ulp either side of them, and step back in time."""
    events, ts = [], rng.uniform(0.0, 3.0)
    for _ in range(count):
        step = rng.random()
        if step < 0.01:
            ts += rng.uniform(1.0, 4.0) * WINDOW_S  # skip windows
        elif step < 0.05:
            ts = float(int(ts // WINDOW_S) + 1) * WINDOW_S  # the next boundary
            ts = rng.choice((ts, math.nextafter(ts, -math.inf), math.nextafter(ts, math.inf)))
        elif step < 0.08:
            late = max(0.0, ts - rng.uniform(0.0, 2.5) * WINDOW_S)  # back in time, maybe windows back
            events.append((rng.choice((400, 1466, rng.randrange(0, 1500))), late))
            continue
        else:
            ts += rng.expovariate(200.0)
        events.append((rng.choice((1466, 1466, 1466, 400, 400, 1465, 1464, rng.randrange(0, 1467))), ts))
    return events


@pytest.mark.parametrize("seed", range(12))
def test_tracker_matches_the_per_packet_window_oracle(seed):
    rng = random.Random(seed)
    events = _stepping_stream(rng, 3000)
    oracle, tracker = _OracleTracker(), FrameRateTracker()
    emitted = []
    for size, ts in events:
        want = oracle.feed(size, ts)
        got = tracker.feed(size, ts)
        assert list(got) == list(want), (size, ts)
        assert (tracker.frame_count, tracker.size_max) == (oracle.frame_count, oracle.size_max)
        emitted += want
    assert tracker.samples == emitted
    assert sum(s.fps == 0.0 for s in emitted) > 5  # skipped windows emitted zeros
    assert sum(s.fps > 0.0 for s in emitted) > 5  # closed windows emitted their frames


# -- bands --------------------------------------------------------------


def test_fps_bands():
    assert fps_band(30.0) == FPS_LOW
    assert fps_band(39.9) == FPS_LOW
    assert fps_band(40.0) == FPS_MEDIUM
    assert fps_band(50.0) == FPS_MEDIUM
    assert fps_band(50.1) == FPS_HIGH
    assert fps_band(60.0) == FPS_HIGH


def test_resolution_edges_60fps_row():
    assert resolution_band(60.0, 22.0e6) == RES_HD  # inclusive upper edge
    assert resolution_band(60.0, 22.1e6) == RES_FHD
    assert resolution_band(60.0, 13.0e6) == RES_SD
    assert resolution_band(60.0, 13.1e6) == RES_HD


def test_resolution_edges_30fps_row():
    assert resolution_band(30.0, 8.0e6) == RES_SD
    assert resolution_band(30.0, 9.0e6) == RES_HD
    assert resolution_band(30.0, 15.0e6) == RES_FHD


def test_resolution_nominal_split():
    # 12 Mbps peak: HD on the 60 fps row, HD on the 30 fps row too; 13.5 Mbps
    # differs: SD-ish on 60 row edges vs FHD-ish threshold on 30 row
    assert resolution_band(46.0, 13.5e6) == RES_HD  # 60 fps row
    assert resolution_band(44.0, 13.5e6) == RES_HD  # 30 fps row (< 14 M edge)
    assert resolution_band(44.0, 14.5e6) == RES_FHD
    assert resolution_band(46.0, 14.5e6) == RES_HD


def test_resolution_activity_floor():
    assert resolution_band(60.0, 1.9e6) == RES_UNKNOWN
