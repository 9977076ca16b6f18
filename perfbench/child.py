"""One measured step of the benchmark, run in a fresh interpreter.

    python3 perfbench/child.py generate WORKLOAD SEED DIR [--describe]
    python3 perfbench/child.py analyze PCAP NETS OUT [--trace]
    python3 perfbench/child.py stages PCAP NETS

Each prints one JSON object as its last line of standard output. ``run.py``
starts these; they are separate processes so that the generator's memory
never counts towards the analyzer's peak RSS, and so that every analysis
starts from a cold interpreter.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generate(workload: str, seed: int, out_dir: str, describe: bool) -> dict:
    from gamesight import pcap

    import workloads

    out = Path(out_dir)
    t0 = perf_counter()
    records, manifests, nets, link = workloads.WORKLOADS[workload](seed)
    t1 = perf_counter()
    pcap.write_capture(records, str(out / "capture.pcap"), link_type=link)
    t2 = perf_counter()
    result = {
        "generate_s": t1 - t0,
        "write_s": t2 - t1,
        "records": len(records),
        "bytes": (out / "capture.pcap").stat().st_size,
        "capture_sha256": _sha256(out / "capture.pcap"),
    }
    if describe:
        result["flows"] = workloads.count_flows(records, link)
        result["client_nets"] = nets
        (out / "manifests.json").write_text(json.dumps(manifests))
    return result


def analyze(pcap_path: str, nets: str, out_dir: str, traced: bool) -> dict:
    t0 = perf_counter()
    from gamesight import cli

    import_s = perf_counter() - t0
    marks = {}

    class TimedAnalyzer(cli.Analyzer):
        def __init__(self, *args, **kwargs):
            start = perf_counter()
            marks.setdefault("start", start)
            super().__init__(*args, **kwargs)
            marks["init_s"] = perf_counter() - start

    argv = ["analyze", "--pcap", pcap_path, "--client-nets", nets, "--out", out_dir]
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        with tracer.install():
            _time_analyze(cli, TimedAnalyzer, marks, lambda: tracer.run(cli.main, argv, standalone_mode=False))
        tracer.write_spans(str(Path(out_dir) / "spans.jsonl"))
    else:
        _time_analyze(cli, TimedAnalyzer, marks, lambda: cli.main(argv, standalone_mode=False))

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "import_s": import_s,
        "init_s": marks["init_s"],
        "analyze_s": marks["end"] - marks["start"],
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "gamesight": cli.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layer_self_s"] = {name: agg[2] for name, agg in tracer.layers.items()}
    return result


def _time_analyze(cli, analyzer_cls, marks, call) -> None:
    """Run ``call`` with the span end marked once qoe.csv is written."""
    write_qoe = cli.write_qoe_csv

    def timed_write(*args, **kwargs):
        write_qoe(*args, **kwargs)
        marks["end"] = perf_counter()

    saved = cli.Analyzer
    cli.Analyzer, cli.write_qoe_csv = analyzer_cls, timed_write
    try:
        call()
    finally:
        cli.Analyzer, cli.write_qoe_csv = saved, write_qoe


def stages(pcap_path: str, nets: str) -> dict:
    """ROADMAP's staged baseline, each stage untraced over the whole capture."""
    from gamesight import packets, pcap, pipeline
    from gamesight.flows import FlowTable

    client_nets = tuple(n for n in nets.split(",") if n)

    def reader():
        with open(pcap_path, "rb") as fh:
            header = pcap.read_header(fh)
            for _ in pcap.read_records(fh, header):
                pass

    def parse():
        for _ in packets.read_capture(pcap_path):
            pass

    def table():
        update = FlowTable(client_nets=client_nets).update
        for pkt in packets.read_capture(pcap_path):
            update(pkt)

    def full():
        pipeline.Analyzer(client_nets=client_nets).analyze_file(pcap_path)

    out = {}
    for name, fn in (("reader", reader), ("parse", parse), ("flows", table), ("analyzer", full)):
        t0 = perf_counter()
        fn()
        out[name + "_s"] = perf_counter() - t0
    return out


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "generate":
        result = generate(args[0], int(args[1]), args[2], "--describe" in args)
    elif mode == "analyze":
        result = analyze(args[0], args[1], args[2], "--trace" in args)
    elif mode == "stages":
        result = stages(args[0], args[1])
    else:
        print("unknown mode %r" % mode, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
