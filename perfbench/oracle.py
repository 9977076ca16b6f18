"""Checks ``analyze`` outputs against the generator manifests.

Each expected session is one operation. It fails when no output session has
its client address, or when its platform, setup, gameplay server or any
gameplay flow role differs from the manifest. Every output session that no
manifest describes is one more operation, and a failed one.

QoE samples are paired with truth the way ``report.truth_errors`` pairs
them (by whole seconds from gameplay start, warm-up excluded from the fps
error), per session, and the errors are pooled over all sessions.
"""

from __future__ import annotations

from gamesight.qoe import WARMUP_INTERVALS
from gamesight.report import load_qoe_csv, load_sessions_jsonl


def _flow_roles(flows) -> dict:
    return {
        (f["client_ip"], f["client_port"], f["server_ip"], f["server_port"], f["proto"]): f["role"]
        for f in flows
    }


def _problems(session: dict, manifest: dict) -> list[str]:
    out = []
    for field, expected in (
        ("platform", manifest["platform"]),
        ("setup", manifest["setup"]),
        ("gameplay_server_ip", manifest["server_ip"]),
    ):
        if session.get(field) != expected:
            out.append("%s %r != %r" % (field, session.get(field), expected))
    got = _flow_roles(session.get("gameplay_flows", []))
    for key, role in _flow_roles(manifest["flows"]).items():
        if got.pop(key, None) != role:
            out.append("flow %s:%s role != %s" % (key[1], key[3], role))
    for key, role in got.items():
        out.append("unexpected flow %s:%s as %s" % (key[1], key[3], role))
    return out


def check(sessions_path: str, qoe_path: str, manifests: list[dict]) -> dict:
    sessions = load_sessions_jsonl(sessions_path)
    rows_by_session: dict[str, list[dict]] = {}
    for row in load_qoe_csv(qoe_path):
        rows_by_session.setdefault(row["session_id"], []).append(row)

    unmatched = list(sessions)
    failures = []
    fps_err, lat_err = [], []
    res_total = res_match = 0
    for m in manifests:
        candidates = [s for s in unmatched if s["client_ip"] == m["client_ip"]]
        if not candidates:
            failures.append("%s: session missing" % m["client_ip"])
            continue
        session = next((s for s in candidates if s.get("gameplay_server_ip") == m["server_ip"]), candidates[0])
        unmatched.remove(session)
        problems = _problems(session, m)
        if problems:
            failures.append("%s: %s" % (m["client_ip"], "; ".join(problems)))

        truth = m["qoe"]
        t_start = truth[0]["ts"]
        for row in rows_by_session.get(session["session_id"], []):
            k = int(round(row["ts"] - t_start))
            if k < 0 or k >= len(truth):
                continue
            if row["fps"] is not None and k >= WARMUP_INTERVALS:
                fps_err.append(abs(row["fps"] - truth[k]["fps"]))
            res_total += 1
            res_match += row["resolution"] == truth[k]["resolution"]
            if row["latency_ms"] is not None:
                lat_err.append(abs(row["latency_ms"] - m["rtt_ms"]))
    for s in unmatched:
        failures.append("%s %s: no manifest describes this session" % (s["session_id"], s["client_ip"]))

    return {
        "attempted": len(manifests) + len(unmatched),
        "failed": len(failures),
        "failures": failures,
        "fps_mae": sum(fps_err) / len(fps_err) if fps_err else None,
        "fps_samples": len(fps_err),
        "resolution_accuracy": res_match / res_total if res_total else None,
        "resolution_samples": res_total,
        "latency_mae_ms": sum(lat_err) / len(lat_err) if lat_err else None,
        "latency_samples": len(lat_err),
    }
