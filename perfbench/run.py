"""Benchmark of ``gamesight analyze`` on fixed-seed synthetic captures.

    python3 perfbench/run.py --workload browser-bulk --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout. One run:

1. generates the workload's capture at least ``SETUP_REPS`` times and for
   at least ``SETUP_MIN_S``, each time in its own process (``synth`` holds
   the whole capture in memory), and checks that every generation gives
   the same bytes;
2. for ``--seconds``, runs ``gamesight analyze`` through ``cli.main`` in a
   fresh process per repetition, receiving only the capture and
   ``--client-nets``, and checks every output against the manifests;
   before and after each untraced repetition it times the fixed task in
   ``reference.py``, and ``analyze_kpps`` and ``analyze_mbps`` divide by the
   wall seconds rescaled to that task's nominal speed, so that a shared
   host slowing down between runs does not read as the program slowing;
3. with ``--trace 1``, alternates each untraced repetition with a traced
   one (``tracing.py``) and with ROADMAP's staged breakdown (record reader,
   frame parse, flow table, full ``Analyzer``), and reports per-layer
   metrics instead of end-to-end ones.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The line before it holds
the details: environment, input size, output digests, sample counts and
per-repetition figures. Both are also written under ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from reference import NOMINAL_S, reference_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("browser-bulk", "campus-mix", "nat-churn")
SETUP_REPS = 3
SETUP_MIN_S = 4.0  # workloads that generate fast set up more often
MIN_REPS = 3  # untraced analyses per run, however short --seconds is
RUN_BUDGET_S = 170.0  # a run must end within 180 s

# Staged breakdown on the browser-bulk shape, in kpps: hand-measured in
# ROADMAP "Recent", and measured again on a copy when the benchmark was
# specified. Printed beside the stages for comparison only.
STAGE_REFERENCES = {
    "roadmap": {"reader": 1000.0, "parse": 170.0, "flows": 77.0, "analyzer": 70.0},
    "specification": {"reader": 1000.0, "parse": 239.0, "flows": 124.0, "analyzer": 105.0},
}
STAGES = ("reader", "parse", "flows", "analyzer")

END_TO_END = {
    "analyze_kpps": "kpps",
    "analyze_mbps": "MB/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "resolution_accuracy": "ratio",
}

COUNT, SECONDS = "count", "s"
PER_LAYER = {
    "pcap.records": COUNT,
    "pcap.read_s": SECONDS,
    "pcap.write_s": SECONDS,
    "packets.parsed": COUNT,
    "packets.skipped": COUNT,
    "packets.parse_s": SECONDS,
    "flows.updates": COUNT,
    "flows.created": COUNT,
    "flows.update_s": SECONDS,
    "flows.table_size": COUNT,
    "flows.evictions": COUNT,
    "flows.orientation_warnings": COUNT,
    "tls.feeds": COUNT,
    "tls.sni_found": COUNT,
    "tls.feed_s": SECONDS,
    "tls.sni_yield": "ratio",
    "detector.names_observed": COUNT,
    "detector.evaluate_calls": COUNT,
    "detector.names_scanned": COUNT,
    "detector.evaluate_s": SECONDS,
    "detector.s": SECONDS,
    "detector.sessions": COUNT,
    "detector.registrations": COUNT,
    "classify.calls": COUNT,
    "classify.unclassified": COUNT,
    "classify.s": SECONDS,
    "qoe.latency_feeds": COUNT,
    "qoe.latency_samples": COUNT,
    "qoe.latency_s": SECONDS,
    "qoe.frame_feeds": COUNT,
    "qoe.frame_s": SECONDS,
    "qoe.samples": COUNT,
    "fps_mae": "fps",
    "latency_mae_ms": "ms",
    "pipeline.udp_buffered": COUNT,
    "pipeline.finalize_s": SECONDS,
    "pipeline.self_s": SECONDS,
    "report.write_s": SECONDS,
    "report.qoe_rows": COUNT,
    "cli.self_s": SECONDS,
    "synth.generate_s": SECONDS,
    "synth.records": COUNT,
    "proc.cpu_s": SECONDS,
    "proc.cpu_util": "ratio",
    "trace.total_s": SECONDS,
    "trace.overhead_s": SECONDS,
    "stage.reader_kpps": "kpps",
    "stage.parse_kpps": "kpps",
    "stage.flows_kpps": "kpps",
    "stage.analyzer_kpps": "kpps",
    "proc.wall_kpps": "kpps",
    "host.reference_s": SECONDS,
}


class BenchError(Exception):
    pass


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=20
            )
            sha = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "gamesight").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = WORK / workload
        self.capture = self.dir / "capture.pcap"
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.setups: list[dict] = []
        self.reps: list[dict] = []
        self.traced: list[dict] = []
        self.staged: list[dict] = []
        self.verdicts: list[dict] = []
        self.output_digests: set[tuple[str, str]] = set()
        self._outputs = 0

    def child(self, *args: str) -> tuple[dict, float]:
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError("run budget of %.0f s exhausted" % RUN_BUDGET_S)
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), *args],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("child %s timed out" % args[0]) from exc
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError("child %s failed:\n%s" % (args[0], proc.stderr[-2000:]))
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall

    def rel(self, path: Path) -> str:
        return str(path.relative_to(ROOT))

    # -- steps -----------------------------------------------------------

    def setup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        args = ["generate", self.workload, str(self.seed), self.rel(self.dir)]
        start = perf_counter()
        self.setups.append(self.child(*args, "--describe")[0])
        while len(self.setups) < SETUP_REPS or perf_counter() - start < SETUP_MIN_S:
            self.setups.append(self.child(*args)[0])
        self.input = dict(self.setups[0])
        self.manifests = json.loads((self.dir / "manifests.json").read_text())

    def analyze(self, traced: bool) -> dict:
        self._outputs += 1
        out = self.dir / ("out-%d" % self._outputs)
        args = ["analyze", self.rel(self.capture), self.input["client_nets"], self.rel(out)]
        result, wall = self.child(*(args + ["--trace"] if traced else args))
        result["wall_s"] = wall
        if Path(result["gamesight"]).resolve().parent.parent != SRC:
            raise BenchError("analyzed with gamesight from %s, not %s" % (result["gamesight"], SRC))
        self.output_digests.add((_sha256(out / "sessions.jsonl"), _sha256(out / "qoe.csv")))
        from oracle import check

        self.verdicts.append(check(str(out / "sessions.jsonl"), str(out / "qoe.csv"), self.manifests))
        shutil.rmtree(out)
        return result

    def measure(self) -> None:
        start = perf_counter()
        before = reference_s()
        while True:
            rep = self.analyze(traced=False)
            after = reference_s()
            rep["reference_s"] = (before + after) / 2
            self.reps.append(rep)
            before = after
            if self.trace:
                self.traced.append(self.analyze(traced=True))
                before = reference_s()
            if len(self.reps) >= MIN_REPS and perf_counter() - start >= self.seconds:
                break
        if self.trace:
            self.staged.append(self.child("stages", self.rel(self.capture), self.input["client_nets"])[0])
        self.measured_s = perf_counter() - start

    # -- results ---------------------------------------------------------

    def rescaled_s(self) -> list[float]:
        """Analysis wall seconds at the reference task's nominal speed."""
        return [r["analyze_s"] * NOMINAL_S / r["reference_s"] for r in self.reps]

    def end_to_end(self) -> dict:
        packets, size = self.input["records"], self.input["bytes"]
        return {
            "analyze_kpps": median(packets / s / 1e3 for s in self.rescaled_s()),
            "analyze_mbps": median(size / s / 1e6 for s in self.rescaled_s()),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in self.reps),
            "setup_s": median(s["generate_s"] + s["write_s"] for s in self.setups)
            + median(r["import_s"] + r["init_s"] for r in self.reps),
            "resolution_accuracy": self.verdicts[0]["resolution_accuracy"],
        }

    def per_layer(self) -> dict:
        out = {
            name: median(t["layers"][name] for t in self.traced)
            for name in self.traced[0]["layers"]
        }
        out["fps_mae"] = self.verdicts[0]["fps_mae"]
        out["latency_mae_ms"] = self.verdicts[0]["latency_mae_ms"]
        out["pcap.write_s"] = median(s["write_s"] for s in self.setups)
        out["synth.generate_s"] = median(s["generate_s"] for s in self.setups)
        out["synth.records"] = self.input["records"]
        out["proc.cpu_s"] = median(r["cpu_s"] for r in self.reps)
        out["proc.cpu_util"] = median(r["cpu_s"] / r["wall_s"] for r in self.reps)
        out["proc.wall_kpps"] = median(self.input["records"] / r["analyze_s"] / 1e3 for r in self.reps)
        out["host.reference_s"] = median(r["reference_s"] for r in self.reps)
        out["trace.overhead_s"] = median(t["analyze_s"] for t in self.traced) - median(
            r["analyze_s"] for r in self.reps
        )
        for stage in STAGES:
            out["stage.%s_kpps" % stage] = median(
                self.input["records"] / s[stage + "_s"] / 1e3 for s in self.staged
            )
        return out

    def result(self) -> tuple[dict, dict]:
        attempted = sum(v["attempted"] for v in self.verdicts)
        failed = sum(v["failed"] for v in self.verdicts)
        setup_digests = {s["capture_sha256"] for s in self.setups}
        values = self.per_layer() if self.trace else self.end_to_end()
        units = PER_LAYER if self.trace else END_TO_END
        correct = (
            failed == 0
            and len(setup_digests) == 1
            and len(self.output_digests) == 1
            and all(values.get(name) is not None for name in units)
        )
        metrics = {
            name: {"value": values[name] if values.get(name) is not None else 0.0, "unit": unit}
            for name, unit in units.items()
        }
        sessions_sha, qoe_sha = sorted(self.output_digests)[0]
        verdict = self.verdicts[0]
        detail = {
            "workload": self.workload,
            "trace": int(self.trace),
            "environment": environment(self.seed),
            "input": {
                "packets": self.input["records"],
                "bytes": self.input["bytes"],
                "flows": self.input["flows"],
                "expected_sessions": len(self.manifests),
                "capture_sha256": self.input["capture_sha256"],
                "client_nets": self.input["client_nets"],
            },
            "outputs": {
                "sessions_sha256": sessions_sha,
                "qoe_sha256": qoe_sha,
                "distinct_outputs": len(self.output_digests),
                "distinct_captures": len(setup_digests),
            },
            "samples": {
                "setup": len(self.setups),
                "analyze": len(self.reps),
                "traced": len(self.traced),
                "staged": len(self.staged),
                "measured_s": self.measured_s,
                "fps_errors": verdict["fps_samples"],
                "resolution_samples": verdict["resolution_samples"],
                "latency_errors": verdict["latency_samples"],
            },
            "failures": sorted({f for v in self.verdicts for f in v["failures"]}),
            "analyze_s": [r["analyze_s"] for r in self.reps],
            "reference_s": [r["reference_s"] for r in self.reps],
            "rescaled_analyze_s": self.rescaled_s(),
            "setup_s": [s["generate_s"] + s["write_s"] for s in self.setups],
        }
        if self.trace:
            total = values["trace.total_s"]
            self_s = {}
            for t in self.traced:
                for name, secs in t["layer_self_s"].items():
                    self_s.setdefault(name, []).append(secs)
            detail["layer_share"] = {
                name: median(v) / total for name, v in sorted(self_s.items())
            }
            detail["stage_kpps"] = {
                "measured": {s: values["stage.%s_kpps" % s] for s in STAGES},
                **STAGE_REFERENCES,
            }
            detail["traced_analyze_s"] = [t["analyze_s"] for t in self.traced]
        result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        return result, detail


def _report(run: Run, result: dict, detail: dict) -> None:
    print(
        "# %s seed %d trace %d: medians of %d setups, %d analyses (%d traced) in %.1f s;"
        " %d packets, %d bytes, %d flows, %d sessions"
        % (
            run.workload,
            run.seed,
            run.trace,
            len(run.setups),
            len(run.reps),
            len(run.traced),
            detail["samples"]["measured_s"],
            detail["input"]["packets"],
            detail["input"]["bytes"],
            detail["input"]["flows"],
            detail["input"]["expected_sessions"],
        )
    )
    for name, m in result["metrics"].items():
        print("#   %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    if run.trace:
        ref = detail["stage_kpps"]
        print("#   stages (kpps)      measured  roadmap  specification")
        for s in STAGES:
            print(
                "#   %-16s %10.1f %8.0f %14.0f"
                % (s, ref["measured"][s], ref["roadmap"][s], ref["specification"][s])
            )
    for failure in detail["failures"]:
        print("# FAILED %s" % failure)
    print("# failed %d / attempted %d" % (result["failed"], result["attempted"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gamesight" / "__init__.py").is_file():
        print("no gamesight sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.setup()
        run.measure()
        result, detail = run.result()
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (results / (stem + ".json")).write_text(json.dumps({"result": result, "detail": detail}, indent=2) + "\n")
    _report(run, result, detail)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
