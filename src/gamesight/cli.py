"""Command-line front end: analyze captures, generate synthetic sessions,
and aggregate QoE reports."""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import sys
from pathlib import Path

import click

from .classify import ClassifierCriteria
from .codebook import default_codebook_path, load_codebooks
from .errors import BandMismatch, InvalidProfile, MalformedHeader
from .pipeline import Analyzer
from .report import (
    QOE_COLUMNS,
    SchemaError,
    load_qoe_csv,
    load_sessions_jsonl,
    summarize,
    truth_errors,
    write_qoe_csv,
    write_sessions_jsonl,
)
from .synth import DEFAULT_BITRATES, SessionProfile, write_session

log = logging.getLogger("gamesight")

PROFILES = {
    # profile name -> (platform, setup, default os)
    "gfn-desktop": ("gfn", "desktop_app", "windows"),
    "gfn-mobile": ("gfn", "mobile_app", "android"),
    "gfn-browser": ("gfn", "browser", "windows"),
    "xbox-console": ("xbox", "hardware_console", "windows"),
    "xbox-pc-browser": ("xbox", "pc_browser", "windows"),
    "xbox-mobile-browser": ("xbox", "mobile_browser", "ios"),
}


@click.group()
def main():
    """Passive cloud-gaming traffic analysis toolkit."""
    level = os.environ.get("CGL_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


@main.command()
@click.option("--pcap", "pcaps", multiple=True, required=True, type=click.Path())
@click.option("--client-nets", default="", help="Comma-separated client CIDRs.")
@click.option("--codebook", default=None, type=click.Path(), help="Codebook config file.")
@click.option("--out", "out_dir", default=".", type=click.Path())
def analyze(pcaps, client_nets, codebook, out_dir):
    """Run the full pipeline on capture files; writes sessions.jsonl and qoe.csv."""
    codebook = codebook or default_codebook_path()
    if not Path(codebook).exists():
        click.echo("codebook not found: %s" % codebook, err=True)
        sys.exit(1)
    books, crit_dict = load_codebooks(codebook)
    criteria = ClassifierCriteria.from_dict(crit_dict) if crit_dict else ClassifierCriteria()

    nets = tuple(n.strip() for n in client_nets.split(",") if n.strip())
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    sessions = []
    qoe_rows = []
    counters = {}
    for i, path in enumerate(pcaps):
        analyzer = Analyzer(codebooks=books, criteria=criteria, client_nets=nets)
        try:
            rep = analyzer.analyze_file(path)
        except (MalformedHeader, FileNotFoundError) as exc:
            click.echo("malformed capture %s: %s" % (path, exc), err=True)
            sys.exit(2)
        prefix = "" if len(pcaps) == 1 else "c%d-" % i
        for session in rep.sessions:
            d = session.to_dict()
            d["session_id"] = prefix + d["session_id"]
            d["capture"] = str(path)
            sessions.append(d)
        for sid, samples in rep.qoe.items():
            for s in samples:
                qoe_rows.append(
                    {
                        "ts": round(s.ts, 6),
                        "session_id": prefix + sid,
                        "latency_ms": None if s.latency_ms is None else round(s.latency_ms, 3),
                        "fps": None if s.fps is None else round(s.fps, 3),
                        "fps_band": s.fps_band,
                        "bitrate_mbps": round(s.bitrate_mbps, 4),
                        "resolution": s.resolution,
                    }
                )
        for k, v in rep.counters.items():
            if isinstance(v, dict):
                merged = counters.setdefault(k, {})
                for reason, n in v.items():
                    merged[reason] = merged.get(reason, 0) + n
            else:
                counters[k] = counters.get(k, 0) + v
        rows = sum(len(samples) for samples in rep.qoe.values())
        log.info("%s: %d sessions, %d qoe samples", path, len(rep.sessions), rows)

    write_sessions_jsonl(str(out / "sessions.jsonl"), sessions)
    write_qoe_csv(str(out / "qoe.csv"), qoe_rows)
    click.echo(
        json.dumps(
            {"sessions": len(sessions), "qoe_samples": len(qoe_rows), "counters": counters}
        )
    )


@main.command()
@click.option("--profile", required=True, type=click.Choice(sorted(PROFILES)))
@click.option("--fps", required=True, type=click.Choice(["30", "60"]))
@click.option("--resolution", required=True, type=click.Choice(["fhd", "hd", "sd"]))
@click.option("--rtt-ms", default=20.0, show_default=True)
@click.option("--duration", default=30.0, show_default=True, help="Gameplay seconds.")
@click.option("--seed", default=1, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--os", "os_name", default=None, type=click.Choice(["windows", "macos", "android", "ios"]))
@click.option("--bitrate-mbps", default=None, type=float, help="Video bitrate (default: mid-band).")
@click.option("--strip-sni", is_flag=True, help="Emit opaque bytes instead of ClientHellos.")
def generate(profile, fps, resolution, rtt_ms, duration, seed, out_path, os_name, bitrate_mbps, strip_sni):
    """Generate a synthetic session capture plus its ground-truth manifest."""
    platform, setup, default_os = PROFILES[profile]
    fps = int(fps)
    if (fps, resolution) not in DEFAULT_BITRATES:
        click.echo("unsupported fps/resolution combination", err=True)
        sys.exit(1)
    prof = SessionProfile(
        platform=platform,
        setup=setup,
        os=os_name or default_os,
        fps_schedule=[(0.0, fps)],
        resolution_schedule=[(0.0, resolution)],
        bitrate_bps=None if bitrate_mbps is None else bitrate_mbps * 1e6,
        rtt_ms=rtt_ms,
        duration_s=duration,
        seed=seed,
        strip_sni=strip_sni,
    )
    manifest_path = str(Path(out_path).with_suffix(".manifest.json"))
    try:
        manifest = write_session(prof, out_path, manifest_path)
    except (InvalidProfile, BandMismatch) as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)
    click.echo(
        json.dumps(
            {
                "capture": str(out_path),
                "manifest": manifest_path,
                "packet_count": manifest.data["packet_count"],
            }
        )
    )


@main.command(name="report")
@click.option("--in", "qoe_path", required=True, type=click.Path())
@click.option("--truth", default=None, type=click.Path(), help="Ground-truth manifest.")
@click.option("--sessions", default=None, type=click.Path(), help="sessions.jsonl for per-setup grouping.")
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
@click.option("--out", "out_path", default=None, type=click.Path())
def report_cmd(qoe_path, truth, sessions, fmt, out_path):
    """Aggregate a qoe.csv into band shares, latency percentiles and, with
    --truth, error metrics against the manifest."""
    try:
        rows = load_qoe_csv(qoe_path)
        setups = None
        if sessions:
            setups = {s["session_id"]: s["setup"] for s in load_sessions_jsonl(sessions)}
        summary = summarize(rows, setups)
        if truth:
            with open(truth) as fh:
                summary["truth_errors"] = truth_errors(rows, json.load(fh))
    except (SchemaError, KeyError, ValueError) as exc:
        click.echo("schema mismatch: %s" % exc, err=True)
        sys.exit(1)

    if fmt == "json":
        text = json.dumps(summary, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["setup", "metric", "key", "value"])
        for setup, g in summary["groups"].items():
            writer.writerow([setup, "seconds", "", g["seconds"]])
            for k, v in g["fps_band_share"].items():
                writer.writerow([setup, "fps_band_share", k, "%.6f" % v])
            for k, v in g["resolution_share"].items():
                writer.writerow([setup, "resolution_share", k, "%.6f" % v])
            for k, v in g["latency_ms"].items():
                writer.writerow([setup, "latency_ms", k, "%.3f" % v])
        for k, v in summary.get("truth_errors", {}).items():
            writer.writerow(["", "truth_error", k, v])
        text = buf.getvalue()

    if out_path:
        Path(out_path).write_text(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


if __name__ == "__main__":
    main()
