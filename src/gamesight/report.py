"""Analysis outputs: their rows, files, distribution views and scores against generator manifests."""

from __future__ import annotations

import csv
import json
import math
from typing import Optional

from .qoe import WARMUP_INTERVALS

QOE_SCHEMA = "gamesight-qoe/2"  # /2: rows on the flow table's whole one-second windows
SESSIONS_SCHEMA = "gamesight-sessions/2"  # /2: one line per gameplay

QOE_COLUMNS = ["ts", "session_id", "latency_ms", "fps", "fps_band", "bitrate_mbps", "resolution"]


class SchemaError(Exception):
    pass


def capture_outputs(rep, capture: str, prefix: str = "") -> tuple[list[dict], list[dict]]:
    """The sessions.jsonl objects and qoe.csv rows of one analyzed capture:
    each gameplay's `to_dict` with `prefix` on its two ids and the capture's
    path, and its QoE rows with its prefixed id."""
    sessions = [reg.to_dict() for reg in rep.gameplays]
    for d in sessions:
        d["session_id"] = prefix + d["session_id"]
        if d["platform_session"] is not None:
            d["platform_session"] = prefix + d["platform_session"]
        d["capture"] = capture
    rows = [{**row, "session_id": prefix + reg.session_id} for reg in rep.gameplays for row in reg.rows]
    return sessions, rows


def write_qoe_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# schema=%s\n" % QOE_SCHEMA)
        writer = csv.DictWriter(fh, fieldnames=QOE_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row[k]) for k in QOE_COLUMNS})


def load_qoe_csv(path: str) -> list[dict]:
    """The rows of a qoe.csv, as `capture_outputs` returns them. Every row of
    the schema has `fps` and `fps_band`, and finite numbers; any other row is
    refused."""
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if first != "# schema=%s" % QOE_SCHEMA:
            raise SchemaError("unexpected qoe schema header: %r" % first)
        reader = csv.DictReader(fh)
        if reader.fieldnames != QOE_COLUMNS:
            raise SchemaError("unexpected qoe columns: %r" % (reader.fieldnames,))
        rows = []
        for raw in reader:
            if None in raw or None in raw.values():
                raise SchemaError("qoe line %d does not have the %d columns" % (reader.line_num + 1, len(QOE_COLUMNS)))
            if not (raw["fps"] and raw["fps_band"]):
                raise SchemaError("qoe line %d has no fps or no fps_band" % (reader.line_num + 1))
            row = {
                "ts": float(raw["ts"]),
                "session_id": raw["session_id"],
                "latency_ms": float(raw["latency_ms"]) if raw["latency_ms"] else None,
                "fps": float(raw["fps"]),
                "fps_band": raw["fps_band"],
                "bitrate_mbps": float(raw["bitrate_mbps"]),
                "resolution": raw["resolution"],
            }
            if not all(math.isfinite(row[k]) for k in ("ts", "latency_ms", "fps", "bitrate_mbps") if row[k] is not None):
                raise SchemaError("qoe line %d has a non-finite number" % (reader.line_num + 1))
            rows.append(row)
        return rows


def write_sessions_jsonl(path: str, sessions: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": SESSIONS_SCHEMA}) + "\n")
        for s in sessions:
            fh.write(json.dumps(s) + "\n")


NUMBER = (int, float)
# the fields `score` reads of a manifest, and of each entry of its `flows`
# and `qoe` lists, with their JSON types; a manifest's flows and a session's
# `gameplay_flows` share their fields
MANIFEST_FIELDS = {"platform": str, "setup": str, "client_ip": str, "server_ip": str, "rtt_ms": NUMBER}
FLOW_FIELDS = {"client_ip": str, "client_port": int, "server_ip": str, "server_port": int, "proto": str, "role": str}
MANIFEST_QOE_FIELDS = {"ts": NUMBER, "fps": NUMBER, "resolution": str}
# the fields `score`, `summarize` and `_roles` read of a sessions.jsonl line
SESSION_FIELDS = {
    "session_id": str,
    "client_ip": str,
    "platform": str,
    "setup": str,
    "gameplay_server_ip": str,
}


def _bad_fields(obj: dict, types: dict) -> list[str]:
    """The fields of `obj` that are missing, not of their type, or a
    non-finite number (JSON's `NaN` and `Infinity`)."""
    return [
        k for k, t in types.items()
        if k not in obj or not isinstance(obj[k], t) or isinstance(obj[k], bool)
        or (t is NUMBER and not math.isfinite(obj[k]))
    ]


def _bad_entries(obj: dict, name: str, types: dict) -> list[str]:
    """The wrong parts of `obj[name]`, a list of objects with `types` fields."""
    entries = obj.get(name)
    if not isinstance(entries, list):
        return [name]
    bad = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            bad.append("%s[%d]" % (name, i))
        else:
            bad += ["%s[%d].%s" % (name, i, field) for field in _bad_fields(entry, types)]
    return bad


def load_sessions_jsonl(path: str) -> list[dict]:
    """The sessions of a sessions.jsonl, with every field the report reads checked."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        if not isinstance(header, dict) or header.get("schema") != SESSIONS_SCHEMA:
            raise SchemaError("unexpected sessions schema: %r" % header)
        sessions = [json.loads(line) for line in fh if line.strip()]
    if not all(isinstance(s, dict) for s in sessions):
        raise SchemaError("a sessions line is not a JSON object")
    for i, session in enumerate(sessions):
        bad = _bad_fields(session, SESSION_FIELDS) + _bad_entries(session, "gameplay_flows", FLOW_FIELDS)
        if bad:
            raise SchemaError("session %d of %s has missing or wrong-typed fields: %s" % (i + 1, path, ", ".join(bad)))
    return sessions


def load_manifest(path: str) -> dict:
    """A generator manifest, with every field `score` reads checked."""
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise SchemaError("manifest %s is not a JSON object" % path)
    bad = _bad_fields(manifest, MANIFEST_FIELDS)
    bad += _bad_entries(manifest, "flows", FLOW_FIELDS) + _bad_entries(manifest, "qoe", MANIFEST_QOE_FIELDS)
    if bad:
        raise SchemaError("manifest %s has missing, wrong-typed or non-finite fields: %s" % (path, ", ".join(bad)))
    return manifest


def _percentile(values: list[float], q: float) -> Optional[float]:
    """The nearest-rank percentile, or None without values."""
    xs = sorted(values)
    if not xs:
        return None
    rank = max(0, math.ceil(q * len(xs)) - 1)
    return xs[rank]


def _shares(counts: dict[str, int]) -> dict[str, float]:
    total = sum(counts.values())
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


def pair_rows(rows: list[dict], truth: list[dict]) -> list[tuple[dict, dict, int]]:
    """(row, truth entry, k) for each row with 0 <= k < len(truth), where k is
    `int(round(row ts - first truth ts))`. A row whose distance to the first
    truth second is not finite (two far-apart finite times) pairs with none."""
    if not truth:
        raise SchemaError("manifest has no qoe truth")
    first = truth[0]["ts"]
    distances = ((row, row["ts"] - first) for row in rows)
    pairs = ((row, int(round(d))) for row, d in distances if math.isfinite(d))
    return [(row, truth[k], k) for row, k in pairs if 0 <= k < len(truth)]


def match_sessions(sessions: list[dict], manifests: list[dict]) -> tuple[list[tuple], list[dict]]:
    """Give each manifest, in order, a session of its client that no earlier
    manifest took, preferring one of the manifest's gameplay server, or None.
    Returns the (manifest, session) pairs and the sessions no manifest took."""
    left = list(sessions)
    pairs = []
    for m in manifests:
        mine = [s for s in left if s["client_ip"] == m["client_ip"]]
        session = next((s for s in mine if s["gameplay_server_ip"] == m["server_ip"]), mine[0] if mine else None)
        if session is not None:
            left.remove(session)
        pairs.append((m, session))
    return pairs, left


def _roles(flows: list[dict]) -> dict:
    return {(f["client_ip"], f["client_port"], f["server_ip"], f["server_port"], f["proto"]): f["role"] for f in flows}


def role_errors(flows: list[dict], truth_flows: list[dict]) -> dict:
    """Each five-tuple whose role in a session's `gameplay_flows` differs
    from its role in a manifest's `flows`, as (role, truth role), with None
    for a flow that one of them does not list."""
    got, want = _roles(flows), _roles(truth_flows)
    errors = {key: (got.get(key), role) for key, role in want.items() if got.get(key) != role}
    errors.update((key, (role, None)) for key, role in got.items() if key not in want)
    return errors


def _problems(session: dict, manifest: dict) -> list[str]:
    """How a session differs from its manifest: platform, setup, gameplay
    server and flow roles."""
    fields = (("platform", "platform"), ("setup", "setup"), ("gameplay_server_ip", "server_ip"))
    problems = ["%s %r != %r" % (f, session[f], manifest[k]) for f, k in fields if session[f] != manifest[k]]
    for key, roles in role_errors(session["gameplay_flows"], manifest["flows"]).items():
        problems.append("flow %s:%s-%s:%s/%s role %r != %r" % (*key, *roles))
    return problems


def _mean(xs: list) -> Optional[float]:
    return sum(xs) / len(xs) if xs else None


def _errors(scored: list[tuple[list, float]]) -> dict:
    """The fps MAE past the warm-up, the resolution accuracy, and the latency
    MAE and signed bias over matches' paired rows, each with its `rtt_ms`."""
    fps, hits, latency = [], [], []
    for pairs, rtt in scored:
        fps += [abs(row["fps"] - t["fps"]) for row, t, k in pairs if k >= WARMUP_INTERVALS]
        hits += [row["resolution"] == t["resolution"] for row, t, _ in pairs]
        latency += [row["latency_ms"] - rtt for row, _, _ in pairs if row["latency_ms"] is not None]
    return {
        "fps_mae": _mean(fps),
        "resolution_accuracy": _mean(hits),
        "latency_mae_ms": _mean([abs(e) for e in latency]),
        "latency_bias_ms": _mean(latency),
    }


def score(sessions: list[dict], rows: list[dict], manifests: list[dict]) -> dict:
    """Score output sessions and QoE rows against generator manifests. Each
    manifest is one operation, failed when `match_sessions` finds it no
    session or `_problems` finds any, and so is each session no manifest
    took. Returns the pooled results, and each match's under `matches`."""
    pairs, unmatched = match_sessions(sessions, manifests)
    scored, matches, failures = [], [], []
    for m, s in pairs:
        problems = ["session missing"] if s is None else _problems(s, m)
        paired = [] if s is None else pair_rows([r for r in rows if r["session_id"] == s["session_id"]], m["qoe"])
        scored.append((paired, m["rtt_ms"]))
        if problems:
            failures.append("%s: %s" % (m["client_ip"], "; ".join(problems)))
        sid = None if s is None else s["session_id"]
        matches.append({"client_ip": m["client_ip"], "session_id": sid, "problems": problems, **_errors(scored[-1:])})
    failures += ["%s %s: no manifest describes this session" % (s["session_id"], s["client_ip"]) for s in unmatched]
    pooled = {"attempted": len(pairs) + len(unmatched), "failed": len(failures), "failures": failures}
    return {**pooled, **_errors(scored), "matches": matches}
