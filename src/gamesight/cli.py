"""Command-line front end: analyze captures, generate synthetic sessions,
and aggregate QoE reports."""

from __future__ import annotations

import csv
import io
import ipaddress
import json
import logging
import os
import sys
from pathlib import Path

import click

from .codebook import default_codebook_path, load_codebooks
from .errors import BandMismatch, InvalidProfile, MalformedHeader
from .pipeline import Analyzer
from .report import (
    SchemaError,
    capture_outputs,
    load_manifest,
    load_qoe_csv,
    load_sessions_jsonl,
    score,
    summarize,
    write_qoe_csv,
    write_sessions_jsonl,
)

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
    try:
        books = load_codebooks(codebook)
    except OSError as exc:  # missing, a directory, unreadable
        click.echo("cannot read codebook %s: %s" % (codebook, exc.strerror), err=True)
        sys.exit(1)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        click.echo("malformed codebook %s: %s: %s" % (codebook, type(exc).__name__, exc), err=True)
        sys.exit(1)

    try:
        nets = tuple(ipaddress.ip_network(n.strip()) for n in client_nets.split(",") if n.strip())
    except ValueError as exc:
        click.echo("malformed --client-nets: %s" % exc, err=True)
        sys.exit(1)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        click.echo("cannot write to %s: %s" % (out, exc), err=True)
        sys.exit(1)

    sessions = []
    qoe_rows = []
    counters = {}
    for i, path in enumerate(pcaps):
        analyzer = Analyzer(codebooks=books, client_nets=nets)
        try:
            rep = analyzer.analyze_file(path)
        except (MalformedHeader, OSError) as exc:
            click.echo("malformed capture %s: %s" % (path, exc), err=True)
            sys.exit(2)
        found, rows = capture_outputs(rep, str(path), "" if len(pcaps) == 1 else "c%d-" % i)
        sessions += found
        qoe_rows += rows
        for k, v in rep.counters.items():
            if isinstance(v, dict):
                merged = counters.setdefault(k, {})
                for reason, n in v.items():
                    merged[reason] = merged.get(reason, 0) + n
            else:
                counters[k] = counters.get(k, 0) + v
        log.info("%s: %d sessions, %d qoe samples", path, len(found), len(rows))

    try:
        write_sessions_jsonl(str(out / "sessions.jsonl"), sessions)
        write_qoe_csv(str(out / "qoe.csv"), qoe_rows)
    except OSError as exc:
        click.echo("cannot write to %s: %s" % (out, exc), err=True)
        sys.exit(1)
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
    from .synth import SessionProfile, write_session

    platform, setup, default_os = PROFILES[profile]
    prof = SessionProfile(
        platform=platform,
        setup=setup,
        os=os_name or default_os,
        fps_schedule=[(0.0, int(fps))],
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
    except OSError as exc:  # a missing directory, or a directory in its place
        click.echo("cannot write %s: %s" % (exc.filename, exc.strerror), err=True)
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
@click.option("--truth", "truths", multiple=True, type=click.Path(), help="Ground-truth manifest (repeatable).")
@click.option("--sessions", "sessions_path", default=None, type=click.Path(), help="sessions.jsonl (needed by --truth).")
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
@click.option("--out", "out_path", default=None, type=click.Path())
def report_cmd(qoe_path, truths, sessions_path, fmt, out_path):
    """Aggregate a qoe.csv into band shares, latency percentiles and, with
    --truth, scores of its sessions against the manifests."""
    try:
        rows = load_qoe_csv(qoe_path)
        sessions = load_sessions_jsonl(sessions_path) if sessions_path else None
        manifests = [load_manifest(path) for path in truths]
        if manifests and sessions is None:
            click.echo("report --truth needs --sessions", err=True)
            sys.exit(1)
        summary = summarize(rows, None if sessions is None else {s["session_id"]: s["setup"] for s in sessions})
        if manifests:
            summary["truth"] = score(sessions, rows, manifests)
    except (SchemaError, KeyError, ValueError) as exc:
        click.echo("schema mismatch: %s" % exc, err=True)
        sys.exit(1)
    except OSError as exc:
        click.echo("cannot read %s: %s" % (exc.filename, exc.strerror), err=True)
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
                writer.writerow([setup, "latency_ms", k, "" if v is None else "%.3f" % v])
        for k, v in summary.get("truth", {}).items():
            if k not in ("failures", "matches"):  # the pooled scalars only
                writer.writerow(["", "truth", k, v])
        text = buf.getvalue()

    if out_path:
        try:
            Path(out_path).write_text(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            click.echo("cannot write %s: %s" % (out_path, exc.strerror), err=True)
            sys.exit(1)
    else:
        click.echo(text)


if __name__ == "__main__":
    main()
