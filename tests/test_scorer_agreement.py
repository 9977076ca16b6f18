"""`report.score` and the benchmark's `perfbench/oracle.check` give the same
verdicts and QoE errors on the same outputs, so the oracle can be replaced
by the scorer without changing what the benchmark reports."""

import importlib.util
import json
from pathlib import Path

import pytest

from gamesight import cli, pcap
from gamesight.report import load_qoe_csv, load_sessions_jsonl, score, write_qoe_csv
from gamesight.synth import SessionProfile, gen_session

ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
KEYS = ("attempted", "failed", "fps_mae", "resolution_accuracy", "latency_mae_ms")


def _oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _analyzed(root: Path, profiles) -> list[dict]:
    """`analyze` on one capture of the profiles' sessions; their manifests."""
    records, manifests = [], []
    for profile in profiles:
        session, manifest = gen_session(profile)
        records += session
        manifests.append(manifest.data)
    pcap.write_capture(sorted(records, key=lambda r: r[0]), str(root / "s.pcap"))
    argv = ["analyze", "--pcap", str(root / "s.pcap"), "--client-nets", "192.0.2.0/24", "--out", str(root)]
    cli.main(argv, standalone_mode=False)
    return manifests


def _unchanged(sessions, rows):
    pass


def _swap_roles(sessions, rows):
    flows = [f for f in sessions[0]["gameplay_flows"] if f["proto"] == "UDP"]
    flows[0]["role"], flows[1]["role"] = flows[1]["role"], flows[0]["role"]


def _extra_session(sessions, rows):
    sessions.append(dict(sessions[0], session_id="s9", client_ip="192.0.2.99"))


def _missing_session(sessions, rows):
    sessions.clear()


def _perturbed_rows(sessions, rows):
    """Rows off their truth in fps, resolution, latency and time, so that
    every error is nonzero; one row moves to the next truth second."""
    for i, row in enumerate(rows):
        row["fps"] += i % 3 - 1
        if row["latency_ms"] is not None:
            row["latency_ms"] += i % 4 - 1.5
        if i % 4 == 0:
            row["resolution"] = "sd"
        row["ts"] += 0.6 if i == 5 else 0.3


ONE = [SessionProfile(platform="gfn", setup="desktop_app", duration_s=6.0, seed=3)]
TWO = [
    SessionProfile(platform="gfn", setup="desktop_app", client_ip="192.0.2.10", duration_s=6.0, seed=3),
    SessionProfile(
        platform="gfn", setup="browser", client_ip="192.0.2.11", fps_schedule=[(0.0, 30)],
        rtt_ms=80.0, duration_s=6.0, seed=4,
    ),
]


@pytest.mark.parametrize(
    "profiles, mutate",
    [
        (ONE, _unchanged),
        (ONE, _swap_roles),
        (ONE, _extra_session),
        (ONE, _missing_session),
        (TWO, _unchanged),
        (TWO, _perturbed_rows),
    ],
    ids=["clean", "swapped-role", "extra-session", "missing-session", "two-clients", "two-clients-perturbed"],
)
def test_scorer_agrees_with_the_benchmark_oracle(tmp_path, profiles, mutate):
    manifests = _analyzed(tmp_path, profiles)
    lines = (tmp_path / "sessions.jsonl").read_text().splitlines()
    sessions = [json.loads(line) for line in lines[1:]]
    rows = load_qoe_csv(str(tmp_path / "qoe.csv"))
    mutate(sessions, rows)
    path = tmp_path / "mutated.jsonl"
    path.write_text("\n".join([lines[0]] + [json.dumps(s) for s in sessions]) + "\n")
    qoe = str(tmp_path / "mutated.csv")
    write_qoe_csv(qoe, rows)

    expected = _oracle().check(str(path), qoe, manifests)
    got = score(load_sessions_jsonl(str(path)), load_qoe_csv(qoe), manifests)
    assert {k: got[k] for k in KEYS} == {k: expected[k] for k in KEYS}
    assert got["attempted"] > 0 and len(got["failures"]) == got["failed"]
