"""Tests of the benchmark itself (generator, oracle, tracing, contract).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gamesight import cli, pcap, pipeline  # noqa: E402
from gamesight.synth import SessionProfile, write_session  # noqa: E402

NETS = "192.0.2.0/24"


def _capture_digest(workload: str, seed: int, path: Path) -> str:
    records, _, _, link = workloads.WORKLOADS[workload](seed)
    pcap.write_capture(records, str(path), link_type=link)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_same_seed_same_capture(tmp_path):
    first = _capture_digest("nat-churn", 7, tmp_path / "a.pcap")
    assert _capture_digest("nat-churn", 7, tmp_path / "b.pcap") == first
    assert _capture_digest("nat-churn", 8, tmp_path / "c.pcap") != first


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """A 6 s desktop session analyzed through cli.main, with its manifest."""
    root = tmp_path_factory.mktemp("analyzed")
    profile = SessionProfile(platform="gfn", setup="desktop_app", duration_s=6.0, seed=3)
    manifest = write_session(profile, str(root / "s.pcap"), str(root / "s.json"))
    cli.main(
        ["analyze", "--pcap", str(root / "s.pcap"), "--client-nets", NETS, "--out", str(root)],
        standalone_mode=False,
    )
    return root, manifest.data


def _mutated(root: Path, tmp_path: Path, mutate) -> str:
    lines = (root / "sessions.jsonl").read_text().splitlines()
    sessions = [json.loads(line) for line in lines[1:]]
    mutate(sessions)
    path = tmp_path / "sessions.jsonl"
    path.write_text("\n".join([lines[0]] + [json.dumps(s) for s in sessions]) + "\n")
    return str(path)


def test_oracle_accepts_unmodified_output(analyzed):
    root, manifest = analyzed
    verdict = oracle.check(str(root / "sessions.jsonl"), str(root / "qoe.csv"), [manifest])
    assert (verdict["attempted"], verdict["failed"]) == (1, 0), verdict["failures"]
    assert verdict["resolution_samples"] > 0


def test_oracle_fails_swapped_flow_role(analyzed, tmp_path):
    root, manifest = analyzed

    def swap(sessions):
        flows = [f for f in sessions[0]["gameplay_flows"] if f["proto"] == "UDP"]
        flows[0]["role"], flows[1]["role"] = flows[1]["role"], flows[0]["role"]

    verdict = oracle.check(_mutated(root, tmp_path, swap), str(root / "qoe.csv"), [manifest])
    assert (verdict["attempted"], verdict["failed"]) == (1, 1)
    assert "role" in verdict["failures"][0]


def test_oracle_fails_extra_and_missing_sessions(analyzed, tmp_path):
    root, manifest = analyzed

    def extra(sessions):
        sessions.append(dict(sessions[0], session_id="s9", client_ip="192.0.2.99"))

    verdict = oracle.check(_mutated(root, tmp_path, extra), str(root / "qoe.csv"), [manifest])
    assert (verdict["attempted"], verdict["failed"]) == (2, 1)

    verdict = oracle.check(_mutated(root, tmp_path, list.clear), str(root / "qoe.csv"), [manifest])
    assert (verdict["attempted"], verdict["failed"]) == (1, 1)


def test_traced_self_times_add_up_to_total(analyzed, tmp_path):
    root, _ = analyzed
    original = pipeline.Analyzer.analyze_file
    tracer = tracing.Tracer()
    with tracer.install():
        argv = ["analyze", "--pcap", str(root / "s.pcap"), "--client-nets", NETS, "--out", str(tmp_path)]
        tracer.run(cli.main, argv, standalone_mode=False)
    assert pipeline.Analyzer.analyze_file is original

    m = tracer.metrics()
    layers = sum(agg[2] for name, agg in tracer.layers.items() if not name.startswith("pipeline."))
    assert layers + m["pipeline.self_s"] == pytest.approx(m["trace.total_s"], rel=1e-9)
    assert m["pcap.records"] == m["packets.parsed"] + m["packets.skipped"] == m["flows.updates"]
    assert m["detector.sessions"] == m["detector.registrations"] == 1
    assert m["report.qoe_rows"] == m["qoe.samples"] > 0
    assert 0 < m["pipeline.finalize_s"] < m["trace.total_s"]
    assert (tmp_path / "qoe.csv").read_bytes() == (root / "qoe.csv").read_bytes()


def test_benchmark_json_matches_run():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "%s/run.py" % BENCH.name, "--workload", "nat-churn", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
