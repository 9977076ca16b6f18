"""Bidirectional flow table with per-window volumetric counts."""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .packets import TCP_SYN, Direction, ip_text

if TYPE_CHECKING:
    from .detector import ServerRegistration
    from .qoe import FlowQoe, LatencyTracker
    from .tls import SniReassembler

WINDOW_S = 1.0  # volumetric window length, also the QoE grid step
DEFAULT_TABLE_CAP = 1_048_576
FIRST_PAYLOADS_CAP = 4  # longest handshake signature has 4 entries


class FlowKey(NamedTuple):
    """A flow's five-tuple, client side first. Addresses are packed as in
    `PacketRecord`; `SessionRecord.to_dict` writes their text."""

    client_ip: bytes
    client_port: int
    server_ip: bytes
    server_port: int
    proto: int


@dataclass(slots=True)
class FlowState:
    """One bidirectional flow, keyed client side first. A packet tuple
    carries no direction: `FlowTable.update` finds it with the flow and
    keeps it in `down` (True: downstream, server to client), so `down` is
    the direction of the packet counted last, which the analyzer reads
    right after the update."""

    key: FlowKey
    first_ts: float
    last_ts: float
    # window index (ts // WINDOW_S) -> [pkts_in, pkts_out, bytes_in, bytes_out]:
    # "in" is downstream, bytes are payload bytes, and a window without
    # packets has no entry. The classifier, and QoE for a video flow, read
    # these lists as they are.
    windows: dict = field(default_factory=dict)
    first_payload_sizes_up: list = field(default_factory=list)
    first_payload_sizes_down: list = field(default_factory=list)
    sni: Optional[str] = None
    total_pkts: int = 0
    total_bytes: int = 0
    guessed: bool = False  # orientation guessed: each packet counts an orientation warning
    down: bool = False  # the last counted packet went server to client
    # analyzer state, dropped with the flow when it is evicted
    reasm: Optional[SniReassembler] = None  # the one ClientHello reassembly of a TCP flow
    latency: Optional[LatencyTracker] = None  # on a registered management flow
    signature: Optional[tuple] = None  # management port: (os, setup_class), or () once none can match
    gameplay: Optional[ServerRegistration] = None  # UDP: the gameplay start it joined
    role: Optional[str] = None  # decided once, when its classifying windows close
    qoe: Optional[FlowQoe] = None  # frame-rate inputs while it may be the video flow


class FlowTable:
    """Single-writer flow accumulator keyed by canonical five-tuple.

    Windows are aligned to multiples of `WINDOW_S` in absolute capture
    time, so every flow's window grid lines up for cross-flow comparison.
    """

    def __init__(
        self,
        client_nets: Iterable[str] = (),
        cap: int = DEFAULT_TABLE_CAP,
    ):
        # each client net as an integer range: (IP version, first, last address)
        self.client_nets = [
            (net.version, int(net.network_address), int(net.broadcast_address))
            for net in map(ipaddress.ip_network, client_nets)
        ]
        self.cap = cap
        self.flows: dict[FlowKey, FlowState] = {}
        self.now = 0.0
        self.orientation_warnings = 0
        self.evictions = 0

    # -- orientation ---------------------------------------------------

    def _is_client(self, ip: bytes) -> bool:
        version = 4 if len(ip) == 4 else 6
        value = int.from_bytes(ip, "big")
        return any(v == version and lo <= value <= hi for v, lo, hi in self.client_nets)

    def _orient(self, src_ip: bytes, src_port: int, dst_ip: bytes, dst_port: int) -> tuple[bool, bool]:
        """(upstream, guessed): upstream iff the source is client-side. When
        neither (or both) side is in the configured nets the lower
        (ip, port) is deemed the client, so that the key stays
        involution-stable, and the orientation counts as guessed. That
        order compares address text, which is not the packed bytes' order
        (10.0.0.10 < 10.0.0.9)."""
        src_is_client = self._is_client(src_ip)
        if src_is_client != self._is_client(dst_ip):
            return src_is_client, False
        return (ip_text(src_ip), src_port) < (ip_text(dst_ip), dst_port), True

    def canonical_key(self, pkt: tuple) -> tuple[FlowKey, Direction]:
        """Same key for both directions of a packet tuple (`PacketRecord`
        layout); Upstream iff the source is client-side."""
        _, src, sport, dst, dport, proto = pkt[:6]
        up, guessed = self._orient(src, sport, dst, dport)
        if guessed:
            self.orientation_warnings += 1
        if up:
            return FlowKey(src, sport, dst, dport, proto), Direction.UPSTREAM
        return FlowKey(dst, dport, src, sport, proto), Direction.DOWNSTREAM

    # -- updates -------------------------------------------------------

    def update(self, pkt: tuple) -> FlowState:
        """Count a packet tuple (`PacketRecord` layout) in its flow, and keep
        its direction there as `FlowState.down`.

        A flow is keyed as `canonical_key` has it once, when it is created; a
        packet and its reply never key two flows, so a later packet finds
        its flow under its reversed five-tuple (downstream) or under its
        own (upstream). The reversed tuple is tried first, which keeps a
        self-addressed packet downstream, as `canonical_key` has it.
        """
        ts, src, sport, dst, dport, proto, size, _, _, flags, _ = pkt
        flows = self.flows
        flow = flows.get((dst, dport, src, sport, proto))
        if flow is not None:
            down = True
        else:
            flow = flows.get((src, sport, dst, dport, proto))
            if flow is not None:
                down = False
            else:
                up, guessed = self._orient(src, sport, dst, dport)
                key = FlowKey(src, sport, dst, dport, proto) if up else FlowKey(dst, dport, src, sport, proto)
                if len(flows) >= self.cap:
                    self._evict_oldest()
                flow = flows[key] = FlowState(key=key, first_ts=ts, last_ts=ts, guessed=guessed)
                down = not up
        if flow.guessed:
            self.orientation_warnings += 1
        flow.down = down
        if ts > self.now:
            self.now = ts
        if ts > flow.last_ts:
            flow.last_ts = ts
        flow.total_pkts += 1
        flow.total_bytes += size

        idx = int(ts // WINDOW_S)
        win = flow.windows.get(idx)
        if win is None:
            win = flow.windows[idx] = [0, 0, 0, 0]
        if down:
            win[0] += 1
            win[2] += size
        else:
            win[1] += 1
            win[3] += size

        if size > 0 and not (flags is not None and flags & TCP_SYN):
            sizes = flow.first_payload_sizes_down if down else flow.first_payload_sizes_up
            if len(sizes) < FIRST_PAYLOADS_CAP:
                sizes.append(size)
        return flow

    def _evict_oldest(self) -> None:
        victim = min(self.flows.values(), key=lambda f: f.last_ts)
        del self.flows[victim.key]
        self.evictions += 1

    # -- window access -------------------------------------------------

    def window_series(self, flow: FlowState) -> list[list[int]]:
        """The flow's closed windows, first to last, as count lists (see
        `FlowState.windows`); a window with no packet reads as zeros."""
        last = min(int(flow.last_ts // WINDOW_S), int(self.now // WINDOW_S) - 1)
        first = int(flow.first_ts // WINDOW_S)
        return [flow.windows.get(idx) or [0, 0, 0, 0] for idx in range(first, last + 1)]
