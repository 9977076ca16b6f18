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
from .codebook import ServiceCodebook, default_codebooks
from .detector import ServerRegistration, SessionDetector
from .flows import WINDOW_S, FlowState, FlowTable
from .packets import TCP_SYN, UDP, CaptureStats, read_capture
from .qoe import FrameRateTracker, LatencyTracker, gameplay_rows
from .tls import SniReassembler


@dataclass
class AnalysisReport:
    """One capture's gameplays, the registrations in registration order,
    each holding its QoE rows, and its counters."""

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
        self.table = FlowTable(client_nets=client_nets)
        self.detector = SessionDetector(codebooks)
        self._unjoined: deque[FlowState] = deque()  # UDP flows that joined nothing at their first packet, in creation order
        self.unadopted = 0  # flows a registration could not adopt: see `_registered`
        self.sni_given_up = 0  # ClientHello reassemblies that hit their segment or byte cap
        self.unregistered_mgmt = 0  # management-port flows certain to register nothing: see `_unregistered`

    # -- streaming ----------------------------------------------------

    def analyze_file(self, path: str) -> AnalysisReport:
        stats = CaptureStats()
        self._feed(read_capture(path, stats))
        return self._finalize(stats)

    def _feed(self, packets: Iterable[tuple]) -> None:
        """Packet tuples (`PacketRecord` layout), in file order. The flow
        table counts each first and leaves its direction in `flow.down`. A
        packet of a decided video flow (the one flow with a frame-rate
        tracker) only feeds the tracker when it goes downstream; every other
        packet goes to `_side_state`."""
        update = self.table.update
        side_state = self._side_state
        for pkt in packets:
            flow = update(pkt)
            frames = flow.frames
            if frames is not None:
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
            if flow.role is None:  # once decided, a flow holds nothing, and `_feed` feeds a video one's tracker
                if flow.down and flow.held is not None:  # upstream never feeds the frame detector
                    flow.held.append((payload_len, ts))  # held until the role is known
                if int(ts // WINDOW_S) - int(flow.first_ts // WINDOW_S) >= CLASSIFY_WINDOWS:
                    self._decide(flow)  # the windows that classify the flow have closed
            return

        if flow.latency is not None:
            flow.latency.feed(pkt, flow.down)
        if payload_len == 0:
            return

        detector = self.detector
        if flow.signature is None and flow.first_payload_sizes_up is None:  # the flow's first data
            if flow.key.server_port in detector.signatures:
                flow.first_payload_sizes_up, flow.first_payload_sizes_down = [], []
            else:
                flow.signature = ()  # no signature names its port

        if flow.sni is None and not flow.down:
            reasm = flow.reasm
            if reasm is None:  # the first upstream data: no signature can have matched before it
                reasm = flow.reasm = SniReassembler()
            if payload is not None:
                name = reasm.feed(payload)
                if reasm.done:  # found, read empty, or given up: reassembly never starts again on this flow
                    flow.sni, flow.reasm = name or "", None
                    if name:
                        self._on_sni(flow, name, pkt)
                    elif reasm.gave_up:
                        self.sni_given_up += 1
                    if flow.signature == ():
                        self._unregistered(flow)

        if flow.signature is None:
            # the handshake sizes a setup signature matches, each way as many
            # as the longest signature reads; a SYN's data is left out, a tail
            # fragment (no TCP header, so no flags) is not
            if flags is None or not flags & TCP_SYN:
                sizes = flow.first_payload_sizes_down if flow.down else flow.first_payload_sizes_up
                if len(sizes) < (detector.longest_down if flow.down else detector.longest_up):
                    sizes.append(payload_len)
            self._try_signature(flow, pkt)

    def _join(self, flow) -> None:
        """A new UDP flow joins the first registration whose gameplay it starts,
        and holds its downstream packets in `held` until its role is known.
        A flow that joins none waits in `_unjoined` for a registration to adopt it."""
        for reg in self.detector.registrations.values():
            if starts_gameplay(flow, reg):
                flow.gameplay = reg
                flow.held = []
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
        only a video flow keeps its windows, and gets a frame-rate tracker
        that first takes the packets the flow held. An adopted flow held
        none and gets no tracker."""
        flow.role = classify_flow(flow, self.table.window_series(flow), flow.gameplay)
        held, flow.held = flow.held, None
        if flow.role not in VIDEO_ROLES:
            flow.drop_windows()  # only the video flow's windows feed QoE
        elif held is not None:
            frames = flow.frames = FrameRateTracker()
            for payload_len, ts in held:
                frames.feed(payload_len, ts)

    def _on_sni(self, flow, name: str, pkt: tuple) -> None:
        key = flow.key
        ts = pkt[0]
        self.detector.observe_service_name(key, name, ts)
        self.detector.evaluate_codebook(key.client_ip, ts)
        if key.server_port in self.detector.mgmt_ports:
            self._registered(self.detector.register_gameplay_server(name, key, ts), flow, pkt)

    def _try_signature(self, flow, pkt: tuple) -> None:
        key, detector = flow.key, self.detector
        up, down = flow.first_payload_sizes_up, flow.first_payload_sizes_down
        hit = detector.match_signature(key.server_port, up, down)
        if hit is not None:
            platform_id, flow.signature = hit
            if flow.gameplay is None:  # its SNI has not registered it
                self._registered(detector.register_by_signature(key, pkt[0], platform_id, flow.signature[1]), flow, pkt)
        elif len(up) >= detector.longest_up and len(down) >= detector.longest_down:
            flow.signature = ()  # the sizes are all kept and no signature prefixes them
            if flow.sni is not None:  # its ClientHello reassembly is done
                self._unregistered(flow)

    def _unregistered(self, flow) -> None:
        """Count a flow to a management port that has become certain to
        register nothing: its ClientHello reassembly is done, and no
        signature on its port can still match. Called once per flow."""
        if flow.gameplay is None and flow.key.server_port in self.detector.mgmt_ports:
            self.unregistered_mgmt += 1

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
            reg.rows, unreported = gameplay_rows(latency, video)
            latency_unreported += unreported

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
            "unregistered_mgmt_flows": self.unregistered_mgmt,
            "platform_sessions": len(self.detector.sessions),
            "repeated_registrations": self.detector.repeated_registrations,
            "sni_reassembly_given_up": self.sni_given_up,
            "unclassified_flows": unclassified,
            "negative_latency_discarded": negative_latency,
            "latency_unreported": latency_unreported,
        }
        return AnalysisReport(gameplays, counters)
