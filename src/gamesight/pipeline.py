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
    starts_gameplay,
)
from .codebook import ServiceCodebook, default_codebooks, match_setup_signature
from .detector import STATE_ENDED, ServerRegistration, SessionDetector, SessionRecord
from .flows import WINDOW_S, FlowState, FlowTable
from .packets import UDP, CaptureStats, read_capture
from .qoe import FlowQoe, LatencyTracker, QoeSample, fps_band, resolution_band
from .tls import SniReassembler

PEAK_WINDOW_INTERVALS = 10
NO_PACKETS = (0, 0, 0, 0)  # the counts of a window the flow has no entry for


@dataclass
class AnalysisReport:
    sessions: list[SessionRecord] = field(default_factory=list)
    qoe: dict[str, list[QoeSample]] = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


class Analyzer:
    """Single-capture pipeline; one instance per input file."""

    def __init__(
        self,
        codebooks: Optional[list[ServiceCodebook]] = None,
        criteria: Optional[ClassifierCriteria] = None,
        client_nets: tuple = (),
    ):
        if codebooks is None:
            codebooks, crit_dict = default_codebooks()
            if criteria is None and crit_dict:
                criteria = ClassifierCriteria.from_dict(crit_dict)
        self.codebooks = codebooks
        self.criteria = criteria or ClassifierCriteria()
        self.table = FlowTable(client_nets=client_nets)
        self.detector = SessionDetector(codebooks)
        self.mgmt_ports = {p for cb in codebooks for p in cb.mgmt_ports}

    # -- streaming ----------------------------------------------------

    def analyze_file(self, path: str) -> AnalysisReport:
        stats = CaptureStats()
        for pkt in read_capture(path, stats):
            self._feed(pkt)
        return self._finalize(stats)

    def _feed(self, pkt: tuple) -> None:
        """One packet tuple (`PacketRecord` layout). The flow table counts
        it first and leaves its direction in `flow.down`."""
        flow = self.table.update(pkt)
        ts, _, _, _, _, proto, payload_len, _, _, _, payload = pkt
        if proto == UDP:
            if flow.total_pkts == 1:
                self._join(flow)
            if flow.gameplay is None:
                return
            if flow.role is None and int(ts // WINDOW_S) - int(flow.first_ts // WINDOW_S) >= CLASSIFY_WINDOWS:
                self._decide(flow)  # the windows that classify the flow have closed
            if flow.qoe is not None and flow.down:
                flow.qoe.feed(payload_len, ts)  # upstream never feeds the frame detector
            return

        if flow.latency is not None:
            flow.latency.feed(pkt, flow.down)
        if payload_len == 0:
            return

        if flow.sni is None and not flow.down:
            reasm = flow.reasm
            if reasm is None and flow.signature is None:
                reasm = flow.reasm = SniReassembler()
            if reasm is not None and not reasm.done and payload is not None:
                name = reasm.feed(payload)
                if name:
                    self._on_sni(flow, name, pkt)

        if flow.signature is None and flow.key.server_port in self.mgmt_ports:
            self._try_signature(flow, ts)

    def _join(self, flow) -> None:
        """A new UDP flow joins the first registration whose gameplay it starts,
        with QoE state to hold its downstream packets until its role is known."""
        for reg in self.detector.registrations.values():
            if starts_gameplay(flow, reg, self.criteria):
                flow.gameplay = reg
                flow.qoe = FlowQoe()
                reg.flows.append(flow)
                return

    def _registered(self, reg: ServerRegistration, mgmt_flow) -> None:
        """Record a new registration's management flow and adopt the UDP flows
        already in the table that start its gameplay (out of time order, they
        came before the registering packet); having missed packets, they get no QoE."""
        reg.flows.append(mgmt_flow)
        for flow in self.table.flows.values():
            if flow.gameplay is None and flow.key.proto == UDP and starts_gameplay(flow, reg, self.criteria):
                flow.gameplay = reg
                reg.flows.append(flow)

    def _decide(self, flow) -> None:
        """Role of a joined flow from its first closed windows, decided once;
        only a video flow keeps its QoE state."""
        flow.role = classify_flow(flow, self.table.window_series(flow), flow.gameplay, self.criteria)
        if flow.qoe is not None and flow.role in VIDEO_ROLES:
            flow.qoe.start()
        else:
            flow.qoe = None

    def _on_sni(self, flow, name: str, pkt: tuple) -> None:
        flow.sni = name
        key = flow.key
        ts = pkt[0]
        self.detector.observe_service_name(key, name, ts)
        self.detector.evaluate_codebook(key.client_ip, ts)
        if key.server_port in self.mgmt_ports:
            reg = self.detector.register_gameplay_server(name, key, ts)
            if reg is not None:
                self._registered(reg, flow)
                if flow.latency is None:
                    flow.latency = LatencyTracker()
                    flow.latency.feed(pkt, flow.down)  # the registering packet starts a pending pair

    def _try_signature(self, flow, ts: float) -> None:
        key = flow.key
        up = flow.first_payload_sizes_up
        down = flow.first_payload_sizes_down
        for cb in self.codebooks:
            hit = match_setup_signature(cb.signatures, up, down, key.server_port, cb.mgmt_ports)
            if hit is not None:
                flow.signature = hit
                if key not in self.detector.registrations:
                    reg = self.detector.register_by_signature(key, ts, cb.platform_id, hit[1])
                    self._registered(reg, flow)
                if flow.latency is None:
                    flow.latency = LatencyTracker()
                return
        if len(down) >= 4 and len(up) >= 4:
            flow.signature = ()  # no signature will ever prefix-match now

    # -- finalization -------------------------------------------------

    def _finalize(self, stats: CaptureStats) -> AnalysisReport:
        report = AnalysisReport()
        now = self.table.now
        fallback_ids = itertools.count(1)
        unclassified = 0
        negative_latency = 0
        latency_unreported = 0

        for reg in self.detector.registrations.values():
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
            mgmt, *joined = reg.flows
            if mgmt.signature:
                session.os_hint = mgmt.signature[0]
            if mgmt.latency is not None:
                negative_latency += mgmt.latency.negative_discarded
            session.gameplay_flows.append((mgmt.key, ROLE_MGMT))
            video = None
            for flow in joined:
                if flow.role is None:
                    self._decide(flow)  # ended before its classifying windows closed
                if flow.role == ROLE_UNCLASSIFIED:
                    unclassified += 1
                session.gameplay_flows.append((flow.key, flow.role))
                if flow.role in VIDEO_ROLES:
                    video = flow
            rows, unreported = self._session_qoe(mgmt.latency, video)
            report.qoe[session.session_id] = rows
            latency_unreported += unreported

        for session in self.detector.sessions:
            session.state = STATE_ENDED
            if session.ended_at is None:
                session.ended_at = now
            report.sessions.append(session)

        report.counters = {
            "packets": stats.packets,
            "skipped": stats.skipped,
            "skip_reasons": dict(stats.skip_reasons),
            "truncated_tail": stats.truncated_tail,
            "snaplen_truncated": stats.snaplen_truncated,
            "orientation_warnings": self.table.orientation_warnings,
            "flow_evictions": self.table.evictions,
            "unclassified_flows": unclassified,
            "negative_latency_discarded": negative_latency,
            "latency_unreported": latency_unreported,
        }
        return report

    def _session_qoe(
        self, latency: Optional[LatencyTracker], video: Optional[FlowState]
    ) -> tuple[list[QoeSample], int]:
        """One sample per whole window of the video flow, on the flow table's
        grid: its bitrate and trailing peak come from the flow's own windows.
        Also returns how many latency samples no row reports: those in a
        window without a row, or all of them when there is no video flow."""
        lat_total = 0 if latency is None else len(latency.samples)
        if video is None or video.qoe is None:
            return [], lat_total
        windows = video.windows
        lat_reported = 0

        latency_buckets: dict[int, list[float]] = {}
        if latency is not None:
            for sample in latency.samples:
                latency_buckets.setdefault(int(sample.ts // WINDOW_S), []).append(sample.latency_ms)

        samples = []
        for fs in video.qoe.fps_samples:
            idx = fs.window
            peak = max(
                windows.get(j, NO_PACKETS)[2] * 8 for j in range(idx - PEAK_WINDOW_INTERVALS + 1, idx + 1)
            )
            lat_vals = latency_buckets.get(idx)
            if lat_vals:
                lat_reported += len(lat_vals)
            samples.append(
                QoeSample(
                    ts=idx * WINDOW_S,
                    latency_ms=sum(lat_vals) / len(lat_vals) if lat_vals else None,
                    fps=fs.fps,
                    fps_band=fps_band(fs.fps),
                    bitrate_mbps=windows.get(idx, NO_PACKETS)[2] * 8 / 1e6,
                    resolution=resolution_band(fs.fps, peak),
                )
            )
        return samples, lat_total - lat_reported
