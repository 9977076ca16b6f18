"""Bidirectional flow table with per-window volumetric counts."""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .packets import TCP_SYN, Direction, PacketRecord

if TYPE_CHECKING:
    from .detector import ServerRegistration
    from .qoe import FlowQoe, LatencyTracker
    from .tls import SniReassembler

WINDOW_S = 1.0  # volumetric window length, also the QoE grid step
DEFAULT_TABLE_CAP = 1_048_576
FIRST_PAYLOADS_CAP = 4  # longest handshake signature has 4 entries


class FlowKey(NamedTuple):
    client_ip: str
    client_port: int
    server_ip: str
    server_port: int
    proto: int


@dataclass(slots=True)
class FlowState:
    key: FlowKey
    first_ts: float
    last_ts: float
    # window index (ts // WINDOW_S) -> [pkts_in, pkts_out, bytes_in, bytes_out]:
    # "in" is downstream, bytes are payload bytes, and a window without
    # packets has no entry. The classifier reads these lists as they are.
    windows: dict = field(default_factory=dict)
    first_payload_sizes_up: list = field(default_factory=list)
    first_payload_sizes_down: list = field(default_factory=list)
    sni: Optional[str] = None
    total_pkts: int = 0
    total_bytes: int = 0
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
        self.client_nets = [ipaddress.ip_network(n) for n in client_nets]
        self.cap = cap
        self.flows: dict[FlowKey, FlowState] = {}
        self.now = 0.0
        self.orientation_warnings = 0
        self.evictions = 0
        self._client_cache: dict[str, bool] = {}

    # -- orientation ---------------------------------------------------

    def _is_client(self, ip: str) -> bool:
        hit = self._client_cache.get(ip)
        if hit is None:
            addr = ipaddress.ip_address(ip)
            hit = any(addr in net for net in self.client_nets)
            self._client_cache[ip] = hit
        return hit

    def canonical_key(self, pkt: PacketRecord) -> tuple[FlowKey, Direction]:
        """Same key for both directions; Upstream iff the source is client-side."""
        src_is_client = self._is_client(pkt.src_ip)
        dst_is_client = self._is_client(pkt.dst_ip)
        if src_is_client and not dst_is_client:
            up = True
        elif dst_is_client and not src_is_client:
            up = False
        else:
            # neither (or both) side in the configured nets: lower IP is
            # deemed the client so that the key stays involution-stable
            self.orientation_warnings += 1
            up = (pkt.src_ip, pkt.src_port) < (pkt.dst_ip, pkt.dst_port)
        if up:
            key = FlowKey(pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port, pkt.proto)
            return key, Direction.UPSTREAM
        key = FlowKey(pkt.dst_ip, pkt.dst_port, pkt.src_ip, pkt.src_port, pkt.proto)
        return key, Direction.DOWNSTREAM

    # -- updates -------------------------------------------------------

    def update(self, pkt: PacketRecord) -> FlowState:
        key, direction = self.canonical_key(pkt)
        pkt.direction = direction
        if pkt.ts > self.now:
            self.now = pkt.ts
        flow = self.flows.get(key)
        if flow is None:
            if len(self.flows) >= self.cap:
                self._evict_oldest()
            flow = FlowState(key=key, first_ts=pkt.ts, last_ts=pkt.ts)
            self.flows[key] = flow
        flow.last_ts = max(flow.last_ts, pkt.ts)
        flow.total_pkts += 1
        flow.total_bytes += pkt.payload_len

        idx = int(pkt.ts // WINDOW_S)
        win = flow.windows.get(idx)
        if win is None:
            win = [0, 0, 0, 0]
            flow.windows[idx] = win
        if direction is Direction.DOWNSTREAM:
            win[0] += 1
            win[2] += pkt.payload_len
        else:
            win[1] += 1
            win[3] += pkt.payload_len

        if pkt.payload_len > 0 and not (pkt.flags is not None and pkt.flags & TCP_SYN):
            sizes = (
                flow.first_payload_sizes_up
                if direction is Direction.UPSTREAM
                else flow.first_payload_sizes_down
            )
            if len(sizes) < FIRST_PAYLOADS_CAP:
                sizes.append(pkt.payload_len)
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
