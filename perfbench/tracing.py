"""Outside-in tracing of one ``gamesight analyze`` run.

``Tracer.install()`` replaces gamesight's public entry points with timing
wrappers for the duration of a ``with`` block; nothing in the package
changes. Every wrapper pushes a frame on one stack, so a layer's self time
is its duration minus the time of the wrapped calls it made, and the self
times of all layers add up to the root span. Per-packet layers are only
aggregated (calls, total, self); per-call layers also keep each span with
its parent, written out by ``write_spans`` when the run ends.

Counting done in a hook after a span closes is charged to the caller's self
time; the overall cost of tracing shows as traced minus untraced time.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from time import perf_counter

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.layers: dict[str, list] = {}  # span name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.counts = dict.fromkeys(
            (
                "packets.skipped",
                "flows.created",
                "pipeline.udp_buffered",
                "tls.started",
                "tls.sni_found",
                "detector.names_scanned",
                "classify.unclassified",
                "qoe.latency_samples",
                "qoe.samples",
                "report.qoe_rows",
            ),
            0,
        )
        self.finalize_s = 0.0
        self.analyzer = None
        self._exhausted_at = None
        self._stack = [[0.0, 0.0, 0]]  # sentinel frame: start, child time, span id
        self._ids = itertools.count(1)

    # -- spans -----------------------------------------------------------

    def span(self, name, fn, keep=False, before=None, after=None):
        """Wrap ``fn`` so that each call is timed as layer ``name``."""
        stack, layers, spans, ids = self._stack, self.layers, self.spans, self._ids
        agg = layers.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            start = perf_counter()
            frame = [start, 0.0, next(ids) if keep else 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                stack[-1][1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if keep:
                    spans.append((frame[2], name, start, end, stack[-1][2]))
            if after is not None:
                after(args, result, end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _records(self, read_records):
        """``pcap.read_records`` is a generator: time each step of it."""
        stack = self._stack
        agg = self.layers.setdefault("pcap.read", [0, 0.0, 0.0])

        def traced(fh, header):
            it = read_records(fh, header)
            while True:
                start = perf_counter()
                try:
                    rec = next(it)
                except StopIteration:
                    rec = None
                end = perf_counter()
                dur = end - start
                stack[-1][1] += dur
                agg[1] += dur
                agg[2] += dur
                if rec is None:
                    self._exhausted_at = end
                    return
                agg[0] += 1
                yield rec

        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch gamesight's public entry points; restore them on exit."""
        from gamesight import cli, detector, flows, packets, pcap, pipeline, qoe, tls

        counts = self.counts
        det = detector.SessionDetector
        skip = packets.SkipReason

        def parsed(args, result, end):
            if isinstance(result, skip):
                counts["packets.skipped"] += 1

        def updated(args, flow, end):
            if flow.total_pkts == 1:
                counts["flows.created"] += 1
            if flow.key.proto == packets.UDP:
                counts["pipeline.udp_buffered"] += 1

        def tls_start(args):
            if args[0].segments == 0:
                counts["tls.started"] += 1

        def tls_found(args, name, end):
            if name is not None:
                counts["tls.sni_found"] += 1

        def scanned(args):
            st = args[0].clients.get(args[1])
            if st is not None:
                counts["detector.names_scanned"] += len(st.observed_names)

        def classified(args, role, end):
            if role == "unclassified":
                counts["classify.unclassified"] += 1

        def latency(args, sample, end):
            if sample is not None:
                counts["qoe.latency_samples"] += 1

        def frames(args, samples, end):
            counts["qoe.samples"] += len(samples)

        def rows(args):
            counts["report.qoe_rows"] += len(args[1])

        def analyzed(args, report, end):
            self.analyzer = args[0]
            if self._exhausted_at is not None:
                self.finalize_s += end - self._exhausted_at
                self._exhausted_at = None

        patches = [
            (pcap, "read_records", self._records(pcap.read_records)),
            (packets, "parse_packet", self.span("packets.parse", packets.parse_packet, after=parsed)),
            (flows.FlowTable, "update", self.span("flows.update", flows.FlowTable.update, after=updated)),
            (tls.SniReassembler, "feed", self.span("tls.feed", tls.SniReassembler.feed, before=tls_start, after=tls_found)),
            (det, "observe_service_name", self.span("detector.observe", det.observe_service_name, keep=True)),
            (det, "evaluate_codebook", self.span("detector.evaluate", det.evaluate_codebook, keep=True, before=scanned)),
            (det, "register_gameplay_server", self.span("detector.register", det.register_gameplay_server, keep=True)),
            (det, "register_by_signature", self.span("detector.register", det.register_by_signature, keep=True)),
            (det, "end_session", self.span("detector.end", det.end_session, keep=True)),
            (pipeline, "classify_flow", self.span("classify.flow", pipeline.classify_flow, keep=True, after=classified)),
            (qoe.LatencyTracker, "feed", self.span("qoe.latency", qoe.LatencyTracker.feed, after=latency)),
            (qoe.FrameRateTracker, "feed", self.span("qoe.frame", qoe.FrameRateTracker.feed, after=frames)),
            (pipeline.Analyzer, "analyze_file", self.span("pipeline.analyze", pipeline.Analyzer.analyze_file, keep=True, after=analyzed)),
            (cli, "write_sessions_jsonl", self.span("report.write", cli.write_sessions_jsonl, keep=True)),
            (cli, "write_qoe_csv", self.span("report.write", cli.write_qoe_csv, keep=True, before=rows)),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, wrapper in patches:
                setattr(obj, attr, wrapper)
            yield self
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span."""
        return self.span(ROOT, fn, keep=True)(*args, **kwargs)

    # -- results ---------------------------------------------------------

    @property
    def total_s(self) -> float:
        return self.layers[ROOT][1]

    def self_s(self, prefix: str) -> float:
        """Self time of every layer whose span name starts with ``prefix``."""
        return sum(agg[2] for name, agg in self.layers.items() if name.startswith(prefix))

    def calls(self, name: str) -> int:
        return self.layers.get(name, [0])[0]

    def metrics(self) -> dict:
        """Per-layer counts (plain numbers) and self times (seconds)."""
        c = self.counts
        table = self.analyzer.table if self.analyzer is not None else None
        detector = self.analyzer.detector if self.analyzer is not None else None
        records = self.calls("pcap.read")
        started = c["tls.started"]
        return {
            "pcap.records": records,
            "pcap.read_s": self.self_s("pcap."),
            "packets.parsed": self.calls("packets.parse") - c["packets.skipped"],
            "packets.skipped": c["packets.skipped"],
            "packets.parse_s": self.self_s("packets."),
            "flows.updates": self.calls("flows.update"),
            "flows.created": c["flows.created"],
            "flows.update_s": self.self_s("flows."),
            "flows.table_size": len(table.flows) if table is not None else 0,
            "flows.evictions": table.evictions if table is not None else 0,
            "flows.orientation_warnings": table.orientation_warnings if table is not None else 0,
            "tls.feeds": self.calls("tls.feed"),
            "tls.sni_found": c["tls.sni_found"],
            "tls.feed_s": self.self_s("tls."),
            "tls.sni_yield": c["tls.sni_found"] / started if started else 0.0,
            "detector.names_observed": self.calls("detector.observe"),
            "detector.evaluate_calls": self.calls("detector.evaluate"),
            "detector.names_scanned": c["detector.names_scanned"],
            "detector.evaluate_s": self.self_s("detector.evaluate"),
            "detector.s": self.self_s("detector."),
            "detector.sessions": len(detector.sessions) if detector is not None else 0,
            "detector.registrations": len(detector.registrations) if detector is not None else 0,
            "classify.calls": self.calls("classify.flow"),
            "classify.unclassified": c["classify.unclassified"],
            "classify.s": self.self_s("classify."),
            "qoe.latency_feeds": self.calls("qoe.latency"),
            "qoe.latency_samples": c["qoe.latency_samples"],
            "qoe.latency_s": self.self_s("qoe.latency"),
            "qoe.frame_feeds": self.calls("qoe.frame"),
            "qoe.frame_s": self.self_s("qoe.frame"),
            "qoe.samples": c["qoe.samples"],
            "pipeline.udp_buffered": c["pipeline.udp_buffered"],
            "pipeline.finalize_s": self.finalize_s,
            "pipeline.self_s": self.self_s("pipeline."),
            "report.write_s": self.self_s("report."),
            "report.qoe_rows": c["report.qoe_rows"],
            "cli.self_s": self.self_s("cli."),
            "trace.total_s": self.total_s,
        }

    def write_spans(self, path: str) -> None:
        """Per-call spans as JSON lines, times relative to the root start."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "parent": parent, "start_s": start - origin, "dur_s": end - start}
                    )
                    + "\n"
                )
