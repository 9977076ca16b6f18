"""End-to-end analysis pipeline: capture -> flows -> sessions -> QoE."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .classify import (
    CLASSIFY_WINDOWS,
    ClassifierCriteria,
    ROLE_MGMT,
    ROLE_UNCLASSIFIED,
    VIDEO_ROLES,
    classify_flow,
    is_gameplay_flow,
    starts_gameplay,
)
from .codebook import ServiceCodebook, default_codebooks, match_setup_signature
from .detector import STATE_ENDED, ServerRegistration, SessionDetector, SessionRecord
from .flows import WINDOW_S, FlowKey, FlowTable
from .packets import UDP, CaptureStats, Direction, read_capture
from .qoe import (
    WARMUP_INTERVALS,
    FlowQoe,
    LatencyTracker,
    QoeSample,
    ResolutionTable,
    fps_band,
)
from .tls import SniReassembler

PEAK_WINDOW_INTERVALS = 10


@dataclass
class AnalysisReport:
    sessions: list[SessionRecord] = field(default_factory=list)
    qoe: dict[str, list[QoeSample]] = field(default_factory=dict)
    signature_matches: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)


class Analyzer:
    """Single-capture pipeline; one instance per input file."""

    def __init__(
        self,
        codebooks: Optional[list[ServiceCodebook]] = None,
        criteria: Optional[ClassifierCriteria] = None,
        client_nets: tuple = (),
        resolution_table: Optional[ResolutionTable] = None,
    ):
        if codebooks is None:
            codebooks, crit_dict = default_codebooks()
            if criteria is None and crit_dict:
                criteria = ClassifierCriteria.from_dict(crit_dict)
        self.codebooks = codebooks
        self.criteria = criteria or ClassifierCriteria()
        self.table = FlowTable(client_nets=client_nets)
        self.detector = SessionDetector(codebooks)
        self.resolution_table = resolution_table or ResolutionTable()
        self.mgmt_ports = {p for cb in codebooks for p in cb.mgmt_ports}
        # per-flow side state
        self._reassemblers: dict[FlowKey, SniReassembler] = {}
        self._latency: dict[FlowKey, LatencyTracker] = {}
        self._flow_qoe: dict[FlowKey, FlowQoe] = {}
        self._sig_done: set[FlowKey] = set()
        self._sig_match: dict[FlowKey, tuple[str, str]] = {}

    # -- streaming ----------------------------------------------------

    def analyze_file(self, path: str) -> AnalysisReport:
        stats = CaptureStats()
        for pkt in read_capture(path, stats):
            self._feed(pkt)
        return self._finalize(stats)

    def _feed(self, pkt) -> None:
        flow = self.table.update(pkt)
        key = flow.key
        if key.proto == UDP:
            state = self._flow_qoe.get(key)
            if state is None:
                if flow.total_pkts > 1 or not any(
                    is_gameplay_flow(flow, reg, self.criteria)
                    for reg in self.detector.registrations.values()
                ):
                    return
                state = self._flow_qoe[key] = FlowQoe()
            elif (
                state.pending is not None
                and int(pkt.ts // WINDOW_S) - int(flow.first_ts // WINDOW_S) >= CLASSIFY_WINDOWS
            ):
                # the windows that classify the flow have closed: only a
                # video flow goes on to the frame detector
                if not any(
                    self._role(flow, reg) in VIDEO_ROLES
                    for reg in self.detector.registrations.values()
                ):
                    del self._flow_qoe[key]
                    return
                state.start()
            if pkt.direction is Direction.DOWNSTREAM:  # upstream never feeds the frame detector
                state.feed(pkt.payload_len, pkt.ts)
            return

        tracker = self._latency.get(key)
        if tracker is not None:
            tracker.feed(pkt)
        if pkt.payload_len == 0:
            return

        if flow.sni is None and pkt.direction is Direction.UPSTREAM:
            reasm = self._reassemblers.get(key)
            if reasm is None and key not in self._sig_done:
                reasm = SniReassembler()
                self._reassemblers[key] = reasm
            if reasm is not None and not reasm.done:
                if pkt.payload is not None:
                    name = reasm.feed(pkt.payload)
                    if name:
                        self._on_sni(flow, name, pkt)
                if reasm.done:
                    del self._reassemblers[key]

        if (
            key.server_port in self.mgmt_ports
            and key not in self._sig_match
            and key not in self._sig_done
        ):
            self._try_signature(flow, pkt.ts)

    def _role(self, flow, reg: ServerRegistration) -> Optional[str]:
        """Role of a UDP flow in `reg`'s gameplay, None if it does not start it."""
        if not starts_gameplay(flow, reg, self.criteria):
            return None
        return classify_flow(flow, self.table.window_series(flow), reg, self.criteria)

    def _on_sni(self, flow, name: str, pkt) -> None:
        flow.sni = name
        key = flow.key
        self.detector.observe_service_name(key, name, pkt.ts)
        self.detector.evaluate_codebook(key.client_ip, pkt.ts)
        if key.server_port in self.mgmt_ports:
            reg = self.detector.register_gameplay_server(name, key, pkt.ts)
            if reg is not None and key not in self._latency:
                tracker = LatencyTracker()
                self._latency[key] = tracker
                tracker.feed(pkt)  # the registering packet starts a pending pair

    def _try_signature(self, flow, ts: float) -> None:
        key = flow.key
        up = flow.first_payload_sizes_up
        down = flow.first_payload_sizes_down
        for cb in self.codebooks:
            hit = match_setup_signature(cb.signatures, up, down, key.server_port, cb.mgmt_ports)
            if hit is not None:
                os_name, setup_class = hit
                self._sig_match[key] = hit
                self._sig_done.add(key)
                if key not in self.detector.registrations:
                    self.detector.register_by_signature(key, ts, cb.platform_id, setup_class)
                if key not in self._latency:
                    self._latency[key] = LatencyTracker()
                return
        if len(down) >= 4 and len(up) >= 4:
            self._sig_done.add(key)  # no signature will ever prefix-match now

    # -- finalization -------------------------------------------------

    def _finalize(self, stats: CaptureStats) -> AnalysisReport:
        report = AnalysisReport()
        now = self.table.now
        fallback_ids = itertools.count(1)
        unclassified = 0

        for key, reg in self.detector.registrations.items():
            session = reg.session
            if session is None:
                session = SessionRecord(
                    session_id="u%d" % next(fallback_ids),
                    client_ip=reg.client_ip,
                    platform_id=reg.platform_id,
                    setup=reg.setup_class if reg.via_signature else "unknown",
                    detected_at=reg.registered_at,
                    gameplay_server_ip=reg.server_ip,
                    gameplay_started_at=reg.registered_at,
                )
                self.detector.sessions.append(session)
            hit = self._sig_match.get(key)
            if hit is not None:
                session.os_hint = hit[0]
            session.gameplay_flows.append((key, ROLE_MGMT))
            video_flow = None
            for flow in self.table.flows.values():
                role = self._role(flow, reg) if flow.key.proto == UDP else None
                if role is None:
                    continue  # unrelated to this gameplay start
                if role == ROLE_UNCLASSIFIED:
                    unclassified += 1
                session.gameplay_flows.append((flow.key, role))
                if role in VIDEO_ROLES:
                    video_flow = flow
            report.qoe[session.session_id] = self._session_qoe(key, video_flow)

        for session in self.detector.sessions:
            session.state = STATE_ENDED
            if session.ended_at is None:
                session.ended_at = now
            report.sessions.append(session)

        for key, (os_name, setup_class) in self._sig_match.items():
            report.signature_matches.append(
                {
                    "client_ip": key.client_ip,
                    "server_ip": key.server_ip,
                    "server_port": key.server_port,
                    "os": os_name,
                    "setup_class": setup_class,
                }
            )

        report.counters = {
            "packets": stats.packets,
            "skipped": stats.skipped,
            "skip_reasons": dict(stats.skip_reasons),
            "orientation_warnings": self.table.orientation_warnings,
            "flow_evictions": self.table.evictions,
            "unclassified_flows": unclassified,
            "negative_latency_discarded": sum(
                t.negative_discarded for t in self._latency.values()
            ),
        }
        return report

    def _session_qoe(self, mgmt_key: FlowKey, video_flow) -> list[QoeSample]:
        state = None if video_flow is None else self._flow_qoe.get(video_flow.key)
        if state is None:
            return []
        state.start()  # a flow shorter than its classifying windows is still pending
        if state.t0 is None:
            return []
        t0, interval_bytes = state.t0, state.interval_bytes

        latency_buckets: dict[int, list[float]] = {}
        lat = self._latency.get(mgmt_key)
        if lat is not None:
            for sample in lat.samples:
                idx = int((sample.ts - t0) // 1.0)
                latency_buckets.setdefault(idx, []).append(sample.latency_ms)

        samples = []
        for k, fs in enumerate(state.fps_samples):
            bits = interval_bytes.get(k, 0) * 8
            peak = max(
                interval_bytes.get(j, 0) * 8
                for j in range(max(0, k - PEAK_WINDOW_INTERVALS + 1), k + 1)
            )
            lat_vals = latency_buckets.get(k)
            samples.append(
                QoeSample(
                    ts=fs.interval_start,
                    latency_ms=sum(lat_vals) / len(lat_vals) if lat_vals else None,
                    fps=fs.fps,
                    fps_band=fps_band(fs.fps),
                    bitrate_mbps=bits / 1e6,
                    resolution=self.resolution_table.infer(fs.fps, peak),
                    warmup=k < WARMUP_INTERVALS,
                )
            )
        return samples
