"""Acceptance suite: nine criteria, one printed PASS/FAIL line each.

Criteria 1-5 share a 90-session synthetic corpus (3 GFN setups x {30,60} fps
x {fhd,hd,sd} bands x 5 seeds, 20 s gameplay, RTT cycled over {5,20,80} ms).
The generator manifest is the oracle throughout.
"""

import itertools
import os
import random
import time

import pytest

from gamesight.pipeline import Analyzer
from gamesight.qoe import FrameRateTracker, WARMUP_INTERVALS
from gamesight.flows import FlowTable
from gamesight.packets import PacketRecord, UDP
from gamesight.synth import SessionProfile, write_session

NETS = ("192.0.2.0/24",)
SETUPS = ("desktop_app", "mobile_app", "browser")
FPS_VALUES = (30, 60)
BANDS = ("fhd", "hd", "sd")
SEEDS = (1, 2, 3, 4, 5)
RTTS = (5.0, 20.0, 80.0)
GAMEPLAY_S = 20.0
PEAK_WINDOW = 10  # trailing intervals feeding the resolution peak


def _report_line(num: int, ok: bool, detail: str) -> None:
    print("CRITERION %d: %s — %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


class SessionResult:
    def __init__(self, setup, fps, band, rtt_ms, manifest, report, analyze_s):
        self.setup = setup
        self.fps = fps
        self.band = band
        self.rtt_ms = rtt_ms
        self.manifest = manifest.data
        self.sessions = [s.to_dict() for s in report.sessions]
        self.qoe = report.qoe
        self.flow_roles = [
            {(f["client_port"], f["server_port"]): f["role"] for f in s["gameplay_flows"]}
            for s in self.sessions
        ]
        self.analyze_s = analyze_s


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    results = []
    total_analyze = 0.0
    total_generate = 0.0
    rtt_cycle = itertools.cycle(RTTS)
    for i, (setup, fps, band, seed) in enumerate(
        itertools.product(SETUPS, FPS_VALUES, BANDS, SEEDS)
    ):
        rtt = next(rtt_cycle)
        profile = SessionProfile(
            platform="gfn",
            setup=setup,
            fps_schedule=[(0.0, fps)],
            resolution_schedule=[(0.0, band)],
            rtt_ms=rtt,
            duration_s=GAMEPLAY_S,
            seed=1000 + i,
        )
        path = str(root / "s.pcap")
        t0 = time.perf_counter()
        manifest = write_session(profile, path, str(root / "s.json"))
        total_generate += time.perf_counter() - t0

        t0 = time.perf_counter()
        report = Analyzer(client_nets=NETS).analyze_file(path)
        dt = time.perf_counter() - t0
        total_analyze += dt
        results.append(SessionResult(setup, fps, band, rtt, manifest, report, dt))
        os.unlink(path)  # keep the corpus dir small
    return {"results": results, "analyze_s": total_analyze, "generate_s": total_generate}


def test_criterion_1_detection_accuracy(corpus):
    results = corpus["results"]
    detected = sum(1 for r in results if len(r.sessions) == 1)
    setup_ok = sum(
        1 for r in results if r.sessions and r.sessions[0]["setup"] == r.setup
    )
    platform_ok = sum(
        1 for r in results if r.sessions and r.sessions[0]["platform"] == "gfn"
    )
    runtime = corpus["analyze_s"]
    ok = detected == setup_ok == platform_ok == len(results) == 90 and runtime <= 300.0
    _report_line(
        1,
        ok,
        "detected %d/90, setup correct %d/90, analyze runtime %.1f s (limit 300 s)"
        % (detected, setup_ok, runtime),
    )


def _qoe_vs_truth(r):
    """Pairs (sample, truth_entry, k) indexed from gameplay start."""
    samples = r.qoe[r.sessions[0]["session_id"]]
    truth = r.manifest["qoe"]
    return [(s, truth[k], k) for k, s in enumerate(samples) if k < len(truth)]


def test_criterion_2_frame_rate(corpus):
    worst_mean = 0.0
    worst_interval = 0.0
    for r in corpus["results"]:
        errs = [
            abs(s.fps - t["fps"])
            for s, t, k in _qoe_vs_truth(r)
            if k >= WARMUP_INTERVALS and s.fps is not None
        ]
        assert errs
        worst_mean = max(worst_mean, sum(errs) / len(errs))
        worst_interval = max(worst_interval, max(errs))
    ok = worst_mean < 2.0 and worst_interval <= 5.0
    _report_line(
        2,
        ok,
        "worst per-session mean |fps error| %.3f (< 2), worst interval %.2f (<= 5)"
        % (worst_mean, worst_interval),
    )


def test_criterion_3_resolution(corpus):
    match = total = 0
    for r in corpus["results"]:
        for s, t, k in _qoe_vs_truth(r):
            if k < PEAK_WINDOW:  # steady segment: trailing peak window is full
                continue
            total += 1
            match += s.resolution == t["resolution"]
    acc = match / total
    ok = acc >= 0.95
    _report_line(3, ok, "resolution accuracy %.2f%% on %d steady samples (>= 95%%)" % (acc * 100, total))


def test_criterion_4_latency(corpus):
    by_rtt = {rtt: [] for rtt in RTTS}
    rates = []
    for r in corpus["results"]:
        samples = r.qoe[r.sessions[0]["session_id"]]
        lat = [s.latency_ms for s in samples if s.latency_ms is not None]
        assert lat, "session produced no latency samples"
        by_rtt[r.rtt_ms].extend(lat)
        rates.append(len(lat) / GAMEPLAY_S)
    bias_ok = all(abs(sum(v) / len(v) - rtt) <= 1.0 for rtt, v in by_rtt.items())
    rate_ok = all(0.4 <= rate <= 0.6 for rate in rates)
    means = {rtt: sum(v) / len(v) for rtt, v in by_rtt.items()}
    ok = bias_ok and rate_ok
    _report_line(
        4,
        ok,
        "means %s ms for injected {5,20,80} ms (±1 ms), sample rates %.2f–%.2f /s (0.5±0.1)"
        % ({k: round(v, 3) for k, v in means.items()}, min(rates), max(rates)),
    )


def test_criterion_5_flow_roles(corpus, tmp_path):
    errors = 0
    checked = 0
    for r in corpus["results"]:
        truth = {
            (f["client_port"], f["server_port"]): f["role"] for f in r.manifest["flows"]
        }
        got = r.flow_roles[0]
        checked += len(truth)
        errors += sum(1 for k, role in truth.items() if got.get(k) != role)

    # XBox sessions: combined media and STUN flows separated there too
    for setup in ("hardware_console", "pc_browser"):
        profile = SessionProfile(
            platform="xbox",
            setup=setup,
            fps_schedule=[(0.0, 60)],
            resolution_schedule=[(0.0, "hd")],
            duration_s=10.0,
            seed=77,
        )
        path = str(tmp_path / "x.pcap")
        manifest = write_session(profile, path, str(tmp_path / "x.json"))
        report = Analyzer(client_nets=NETS).analyze_file(path)
        truth = {
            (f["client_port"], f["server_port"]): f["role"]
            for f in manifest.data["flows"]
        }
        got = {
            (f["client_port"], f["server_port"]): f["role"]
            for f in report.sessions[0].to_dict()["gameplay_flows"]
        }
        checked += len(truth)
        errors += sum(1 for k, role in truth.items() if got.get(k) != role)

    ok = errors == 0
    _report_line(5, ok, "%d role errors over %d labeled flows (console + browser + xbox)" % (errors, checked))


def test_criterion_6_signature_fallback(tmp_path):
    cases = [
        ("desktop_app", "windows", "console_app"),
        ("desktop_app", "macos", "console_app"),
        ("mobile_app", "android", "console_app"),
        ("browser", "ios", "browser"),
        ("browser", "windows", "browser"),
    ]
    hits = 0
    for i, (setup, os_name, agent) in enumerate(cases):
        profile = SessionProfile(
            platform="gfn",
            setup=setup,
            os=os_name,
            fps_schedule=[(0.0, 60)],
            resolution_schedule=[(0.0, "sd")],
            duration_s=8.0,
            seed=300 + i,
            strip_sni=True,
        )
        path = str(tmp_path / "strip.pcap")
        write_session(profile, path, str(tmp_path / "strip.json"))
        report = Analyzer(client_nets=NETS).analyze_file(path)
        if (
            len(report.sessions) == 1
            and report.sessions[0].os_hint == os_name
            and report.sessions[0].setup == agent
        ):
            hits += 1
    ok = hits == len(cases)
    _report_line(6, ok, "OS/agent identified for %d/%d SNI-stripped captures (need 100%%)" % (hits, len(cases)))


def _reference_frame_count(sizes, margin=1):
    """Independent restatement of the frame-marker rule: a frame is counted
    exactly when a packet drops below (running max - margin) and the previous
    non-growing packet sat at the running max (within margin)."""
    count = 0
    size_max = None
    armed = False
    for s in sizes:
        if size_max is None:
            # the very first packet defines the max and counts as "at max"
            size_max = s
            armed = True
            continue
        if s > size_max:
            size_max = s
            continue
        if s < size_max - margin:
            if armed:
                count += 1
                armed = False
        else:
            armed = True
    return count


def test_criterion_7_frame_detector_properties():
    rng = random.Random(42)
    cases = 0
    failures = 0
    while cases < 10_000:
        kind = rng.randrange(3)
        if kind == 0:  # adversarial small random sequences
            sizes = [rng.randrange(1, 1500) for _ in range(rng.randrange(1, 40))]
        elif kind == 1:  # video-like frame groups
            sizes = []
            for _ in range(rng.randrange(1, 30)):
                sizes += [1466] * rng.randrange(1, 6) + [rng.randrange(216, 1466)]
        else:  # constant stream
            sizes = [rng.randrange(100, 1500)] * rng.randrange(1, 60)

        tracker = FrameRateTracker()
        prev_max = 0
        monotone = True
        for i, s in enumerate(sizes):
            tracker.feed(s, i * 1e-4)  # all inside one interval
            if tracker.size_max < prev_max:
                monotone = False
            prev_max = tracker.size_max

        ref = _reference_frame_count(sizes)
        ok = tracker.frame_count == ref and monotone
        if kind == 2:
            ok = ok and tracker.frame_count == 0  # constant stream -> 0 frames
        failures += not ok
        cases += 1
    _report_line(7, failures == 0, "%d randomized state-machine cases, %d failures" % (cases, failures))


def test_criterion_8_flow_accounting():
    rng = random.Random(7)
    failures = 0
    for _ in range(1000):
        table = FlowTable(client_nets=NETS)
        endpoints = [
            ("192.0.2.%d" % rng.randrange(1, 40), rng.randrange(1024, 65000))
            for _ in range(3)
        ] + [
            ("203.0.113.%d" % rng.randrange(1, 40), rng.randrange(1, 65000))
            for _ in range(3)
        ]
        ts = 0.0
        for _ in range(rng.randrange(20, 200)):
            ts += rng.random() * 0.2
            a = rng.choice(endpoints)
            b = rng.choice(endpoints)
            if a == b:
                continue
            pkt = PacketRecord(ts, a[0], a[1], b[0], b[1], UDP, rng.randrange(0, 1500))
            mirror = PacketRecord(ts, b[0], b[1], a[0], a[1], UDP, 0)
            k1, d1 = table.canonical_key(pkt)
            k2, d2 = table.canonical_key(mirror)
            if k1 != k2 or d1 is d2:  # canonicalization must be an involution
                failures += 1
            table.update(pkt)
        for flow in table.flows.values():
            pkts = sum(w[0] + w[1] for w in flow.windows.values())
            bts = sum(w[2] + w[3] for w in flow.windows.values())
            if pkts != flow.total_pkts or bts != flow.total_bytes:
                failures += 1
    _report_line(8, failures == 0, "1000 fuzzed streams, %d conservation/involution failures" % failures)


def test_criterion_9_throughput(tmp_path):
    # ~1 GB browser-profile capture: 34 Mbps video for 235 s -> ~750k packets
    profile = SessionProfile(
        platform="gfn",
        setup="browser",
        fps_schedule=[(0.0, 60)],
        resolution_schedule=[(0.0, "fhd")],
        bitrate_bps=34e6,
        duration_s=235.0,
        seed=9,
    )
    path = str(tmp_path / "big.pcap")
    manifest = write_session(profile, path, str(tmp_path / "big.json"))
    size_gb = os.path.getsize(path) / 1e9
    packets = manifest.data["packet_count"]

    t0 = time.perf_counter()
    report = Analyzer(client_nets=NETS).analyze_file(path)
    elapsed = time.perf_counter() - t0
    os.unlink(path)

    ok = (
        size_gb >= 0.95
        and packets >= 600_000
        and elapsed <= 60.0
        and len(report.sessions) == 1
    )
    _report_line(
        9,
        ok,
        "%.2f GB / %d packets analyzed in %.1f s (limit 60 s)" % (size_gb, packets, elapsed),
    )
