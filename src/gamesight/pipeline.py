"""End-to-end analysis pipeline: capture -> flows -> sessions -> QoE."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .classify import (
    CLASSIFY_WINDOWS,
    MGMT_WINDOW_S,
    ROLE_MGMT,
    ROLE_UNCLASSIFIED,
    VIDEO_ROLES,
    classify_flow,
    starts_gameplay,
)
from .codebook import ServiceCodebook, default_codebooks, match_setup_signature
from .detector import ServerRegistration, SessionDetector
from .flows import WINDOW_S, FlowState, FlowTable
from .packets import TCP_SYN, UDP, CaptureStats, read_capture
from .qoe import FrameRateTracker, LatencyTracker, QoeSample, fps_band, resolution_band
from .tls import SniReassembler

PEAK_WINDOW_INTERVALS = 10
FIRST_PAYLOADS_CAP = 4  # handshake sizes kept each way: the longest signature has 4 entries
NO_PACKETS = (0, 0, 0, 0)  # the counts of a window the flow has no entry for


@dataclass
class AnalysisReport:
    """One capture's sessions, in the order they were made, and its gameplays:
    the registrations in registration order, each holding its QoE rows."""

    sessions: list  # SessionRecord
    gameplays: list[ServerRegistration]
    counters: dict


class Analyzer:
    """Single-capture pipeline; one instance per input file."""

    def __init__(
        self,
        codebooks: Optional[list[ServiceCodebook]] = None,
        client_nets: tuple = (),
    ):
        if codebooks is None:
            codebooks = default_codebooks()
        self.codebooks = codebooks
        self.table = FlowTable(client_nets=client_nets)
        self.detector = SessionDetector(codebooks)
        self.mgmt_ports = {p for cb in codebooks for p in cb.mgmt_ports}
        self._unjoined: deque[FlowState] = deque()  # UDP flows that joined nothing at their first packet, in creation order
        self.unadopted = 0  # flows a registration could not adopt: see `_registered`
        self.sni_given_up = 0  # ClientHello reassemblies that hit their segment or byte cap

    # -- streaming ----------------------------------------------------

    def analyze_file(self, path: str) -> AnalysisReport:
        stats = CaptureStats()
        self._feed(read_capture(path, stats))
        return self._finalize(stats)

    def _feed(self, packets: Iterable[tuple]) -> None:
        """Packet tuples (`PacketRecord` layout), in file order. The flow
        table counts each first and leaves its direction in `flow.down`. A
        packet of a decided video flow only feeds its frame-rate tracker when
        it goes downstream; every other packet goes to `_side_state`."""
        update = self.table.update
        side_state = self._side_state
        for pkt in packets:
            flow = update(pkt)
            frames = flow.frames
            if frames is not None and frames.pending is None:
                if flow.down:  # upstream never feeds the frame detector
                    frames.feed(pkt[6], pkt[0])
            else:
                side_state(flow, pkt)

    def _side_state(self, flow: FlowState, pkt: tuple) -> None:
        """The per-packet state of a flow the flow table has just counted
        `pkt` in: joining, classifying and holding on UDP; latency, SNI
        reassembly and setup signatures on TCP."""
        ts, _, _, _, _, proto, payload_len, _, _, flags, payload = pkt
        if proto == UDP:
            if flow.total_pkts == 1:
                self._join(flow)
            if flow.gameplay is None:
                unjoined = self._unjoined
                if unjoined and unjoined[0].first_ts < self.table.now - MGMT_WINDOW_S:
                    self._drop_unadoptable()
                return
            if flow.role is None and int(ts // WINDOW_S) - int(flow.first_ts // WINDOW_S) >= CLASSIFY_WINDOWS:
                self._decide(flow)  # the windows that classify the flow have closed
            frames = flow.frames
            if frames is not None and flow.down:  # upstream never feeds the frame detector
                if frames.pending is None:
                    frames.feed(payload_len, ts)
                else:
                    frames.pending.append((payload_len, ts))  # held until the role is known
            return

        if flow.latency is not None:
            flow.latency.feed(pkt, flow.down)
        if payload_len == 0:
            return

        if flow.sni is None and not flow.down:
            reasm = flow.reasm
            if reasm is None and flow.signature is None:
                reasm = flow.reasm = SniReassembler()
            if reasm is not None and payload is not None:
                name = reasm.feed(payload)
                if reasm.done:  # found, read empty, or given up: reassembly never starts again on this flow
                    flow.sni, flow.reasm = name or "", None
                    if name:
                        self._on_sni(flow, name, pkt)
                    elif reasm.gave_up:
                        self.sni_given_up += 1

        if flow.signature is None and flow.key.server_port in self.mgmt_ports:
            # the handshake sizes a setup signature matches; a SYN's data is
            # left out, a tail fragment (no TCP header, so no flags) is not
            if flow.first_payload_sizes_up is None:
                flow.first_payload_sizes_up, flow.first_payload_sizes_down = [], []
            if flags is None or not flags & TCP_SYN:
                sizes = flow.first_payload_sizes_down if flow.down else flow.first_payload_sizes_up
                if len(sizes) < FIRST_PAYLOADS_CAP:
                    sizes.append(payload_len)
            self._try_signature(flow, pkt)

    def _join(self, flow) -> None:
        """A new UDP flow joins the first registration whose gameplay it starts,
        with a frame-rate tracker whose `pending` holds its downstream packets
        until its role is known.
        A flow that joins none waits in `_unjoined` for a registration to adopt it."""
        for reg in self.detector.registrations.values():
            if starts_gameplay(flow, reg):
                flow.gameplay = reg
                flow.frames = FrameRateTracker()
                reg.flows.append(flow)
                return
        self._unjoined.append(flow)

    def _drop_unadoptable(self) -> None:
        """Take the flows that started more than `MGMT_WINDOW_S` of capture
        time ago off the front of `_unjoined`; those that nothing adopted
        drop their windows, which only an adoption could read."""
        unjoined = self._unjoined
        bound = self.table.now - MGMT_WINDOW_S
        while unjoined and unjoined[0].first_ts < bound:
            flow = unjoined.popleft()
            if flow.gameplay is None:
                flow.drop_windows()

    def _registered(self, reg: Optional[ServerRegistration], mgmt_flow, pkt: tuple) -> None:
        """Give a new registration (None: refused) its management flow, with a
        latency tracker the registering packet starts, and adopt the UDP flows
        already in the table that start its gameplay (out of time order, they
        came before the registering packet); having missed packets, they get no
        QoE. Marked with the registration, none of these flows expires. A flow
        that has dropped its windows (`_drop_unadoptable`) cannot be
        classified: it is counted in `unadopted` instead."""
        if reg is None:
            return
        mgmt_flow.gameplay = reg
        mgmt_flow.role = ROLE_MGMT
        mgmt_flow.latency = LatencyTracker()
        mgmt_flow.latency.feed(pkt, mgmt_flow.down)
        reg.flows.append(mgmt_flow)
        for flow in self.table.flows.values():
            if flow.gameplay is None and flow.key.proto == UDP and starts_gameplay(flow, reg):
                if flow.windows is None:
                    self.unadopted += 1
                else:
                    flow.gameplay = reg
                    reg.flows.append(flow)

    def _decide(self, flow) -> None:
        """Role of a joined flow from its first closed windows, decided once;
        only a video flow keeps its windows and frame-rate tracker, which
        then takes the packets it held."""
        flow.role = classify_flow(flow, self.table.window_series(flow), flow.gameplay)
        if flow.role not in VIDEO_ROLES:
            flow.drop_windows()  # only the video flow's windows feed QoE
            flow.frames = None
        elif flow.frames is not None:
            flow.frames.start()

    def _on_sni(self, flow, name: str, pkt: tuple) -> None:
        key = flow.key
        ts = pkt[0]
        self.detector.observe_service_name(key, name, ts)
        self.detector.evaluate_codebook(key.client_ip, ts)
        if key.server_port in self.mgmt_ports:
            self._registered(self.detector.register_gameplay_server(name, key, ts), flow, pkt)

    def _try_signature(self, flow, pkt: tuple) -> None:
        key = flow.key
        up = flow.first_payload_sizes_up
        down = flow.first_payload_sizes_down
        for cb in self.codebooks:
            hit = match_setup_signature(cb.signatures, up, down, key.server_port, cb.mgmt_ports)
            if hit is not None:
                flow.signature = hit
                if flow.gameplay is None:  # its SNI has not registered it
                    self._registered(self.detector.register_by_signature(key, pkt[0], cb.platform_id, hit[1]), flow, pkt)
                return
        if len(down) >= FIRST_PAYLOADS_CAP and len(up) >= FIRST_PAYLOADS_CAP:
            flow.signature = ()  # no signature will ever prefix-match now

    # -- finalization -------------------------------------------------

    def _finalize(self, stats: CaptureStats) -> AnalysisReport:
        gameplays = list(self.detector.registrations.values())
        unclassified = 0
        negative_latency = 0
        latency_unreported = 0

        for reg in gameplays:
            latency = reg.flows[0].latency
            negative_latency += latency.negative_discarded
            video = None
            for flow in reg.flows:
                if flow.role is None:
                    self._decide(flow)  # ended before its classifying windows closed
                if flow.role == ROLE_UNCLASSIFIED:
                    unclassified += 1
                if flow.role in VIDEO_ROLES:
                    video = flow
            reg.rows, unreported = self._session_qoe(latency, video)
            latency_unreported += unreported

        for session in self.detector.sessions:
            if session.ended_at is None:
                session.ended_at = self.table.now

        counters = {
            "packets": stats.packets,
            "skipped": stats.skipped,
            "skip_reasons": dict(stats.skip_reasons),
            "truncated_tail": stats.truncated_tail,
            "snaplen_truncated": stats.snaplen_truncated,
            "orientation_warnings": self.table.orientation_warnings,
            "flow_evictions": self.table.evictions,
            "flows_expired": self.table.expiries,
            "unadopted_flows": self.unadopted,
            "repeated_registrations": self.detector.repeated_registrations,
            "sni_reassembly_given_up": self.sni_given_up,
            "unclassified_flows": unclassified,
            "negative_latency_discarded": negative_latency,
            "latency_unreported": latency_unreported,
        }
        return AnalysisReport(list(self.detector.sessions), gameplays, counters)

    def _session_qoe(self, latency: LatencyTracker, video: Optional[FlowState]) -> tuple[list[QoeSample], int]:
        """One sample per whole window of the video flow, on the flow table's
        grid: its bitrate and trailing peak come from the flow's own windows.
        Also returns how many latency samples no row reports: those in a
        window without a row, or all of them when there is no video flow."""
        lat_total = len(latency.samples)
        if video is None or video.frames is None:
            return [], lat_total
        windows = video.windows
        lat_reported = 0

        latency_buckets: dict[int, list[float]] = {}
        for sample in latency.samples:
            latency_buckets.setdefault(int(sample.ts // WINDOW_S), []).append(sample.latency_ms)

        samples = []
        for fs in video.frames.samples:
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
