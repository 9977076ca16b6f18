"""Aggregation of QoE series into distribution views and truth-error metrics."""

from __future__ import annotations

import csv
import json
import math
from typing import Optional

from .qoe import WARMUP_INTERVALS

QOE_SCHEMA = "gamesight-qoe/2"  # /2: rows on the flow table's whole one-second windows
QOE_SCHEMAS_READ = ("gamesight-qoe/1", QOE_SCHEMA)
SESSIONS_SCHEMA = "gamesight-sessions/1"

QOE_COLUMNS = ["ts", "session_id", "latency_ms", "fps", "fps_band", "bitrate_mbps", "resolution"]


class SchemaError(Exception):
    pass


def write_qoe_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# schema=%s\n" % QOE_SCHEMA)
        writer = csv.DictWriter(fh, fieldnames=QOE_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row[k]) for k in QOE_COLUMNS})


def load_qoe_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if first not in ["# schema=%s" % schema for schema in QOE_SCHEMAS_READ]:
            raise SchemaError("unexpected qoe schema header: %r" % first)
        reader = csv.DictReader(fh)
        if reader.fieldnames != QOE_COLUMNS:
            raise SchemaError("unexpected qoe columns: %r" % (reader.fieldnames,))
        rows = []
        for raw in reader:
            rows.append(
                {
                    "ts": float(raw["ts"]),
                    "session_id": raw["session_id"],
                    "latency_ms": float(raw["latency_ms"]) if raw["latency_ms"] else None,
                    "fps": float(raw["fps"]) if raw["fps"] else None,
                    "fps_band": raw["fps_band"] or None,
                    "bitrate_mbps": float(raw["bitrate_mbps"]),
                    "resolution": raw["resolution"],
                }
            )
        return rows


def write_sessions_jsonl(path: str, sessions: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": SESSIONS_SCHEMA}) + "\n")
        for s in sessions:
            fh.write(json.dumps(s) + "\n")


def load_sessions_jsonl(path: str) -> list[dict]:
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("schema") != SESSIONS_SCHEMA:
            raise SchemaError("unexpected sessions schema: %r" % header)
        return [json.loads(line) for line in fh if line.strip()]


def _percentile(values: list[float], q: float) -> float:
    xs = sorted(values)
    if not xs:
        return math.nan
    rank = max(0, math.ceil(q * len(xs)) - 1)
    return xs[rank]


def _shares(counts: dict[str, int]) -> dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        return {}
    return {k: v / total for k, v in sorted(counts.items())}


def summarize(rows: list[dict], session_setups: Optional[dict[str, str]] = None) -> dict:
    """Time shares per fps band and resolution band plus latency percentiles,
    grouped by user setup when a session->setup mapping is supplied."""
    groups: dict[str, list[dict]] = {}
    for row in rows:
        setup = "all"
        if session_setups is not None:
            setup = session_setups.get(row["session_id"], "unknown")
        groups.setdefault(setup, []).append(row)

    out = {"groups": {}}
    for setup, grp in sorted(groups.items()):
        fps_counts: dict[str, int] = {}
        res_counts: dict[str, int] = {}
        latencies = []
        for row in grp:
            if row["fps_band"]:
                fps_counts[row["fps_band"]] = fps_counts.get(row["fps_band"], 0) + 1
            res_counts[row["resolution"]] = res_counts.get(row["resolution"], 0) + 1
            if row["latency_ms"] is not None:
                latencies.append(row["latency_ms"])
        out["groups"][setup] = {
            "seconds": len(grp),
            "fps_band_share": _shares(fps_counts),
            "resolution_share": _shares(res_counts),
            "latency_ms": {
                "p50": _percentile(latencies, 0.50),
                "p90": _percentile(latencies, 0.90),
                "p99": _percentile(latencies, 0.99),
            },
        }
    return out


def truth_errors(rows: list[dict], manifest: dict) -> dict:
    """Error metrics against a generator manifest (single-session captures).

    Measured samples are matched to truth seconds by index from gameplay
    start; the warm-up intervals are excluded from the fps error.
    """
    truth = manifest.get("qoe", [])
    if not truth:
        raise SchemaError("manifest has no qoe truth")
    t_start = truth[0]["ts"]
    fps_errors = []
    res_total = 0
    res_match = 0
    latency_bias = []
    rtt = manifest.get("rtt_ms")
    for row in rows:
        k = int(round(row["ts"] - t_start))
        if k < 0 or k >= len(truth):
            continue
        entry = truth[k]
        if row["fps"] is not None and k >= WARMUP_INTERVALS:
            fps_errors.append(abs(row["fps"] - entry["fps"]))
        res_total += 1
        if row["resolution"] == entry["resolution"]:
            res_match += 1
        if row["latency_ms"] is not None and rtt is not None:
            latency_bias.append(row["latency_ms"] - rtt)
    return {
        "mean_abs_fps_error": sum(fps_errors) / len(fps_errors) if fps_errors else math.nan,
        "resolution_accuracy": res_match / res_total if res_total else math.nan,
        "latency_bias_ms": sum(latency_bias) / len(latency_bias) if latency_bias else math.nan,
        "samples": len(rows),
    }
