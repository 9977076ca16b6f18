"""Bidirectional flow table with per-window volumetric counts on UDP flows."""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional

from .packets import TCP_FIN, TCP_RST, UDP, ip_text

if TYPE_CHECKING:
    from .detector import ServerRegistration
    from .qoe import FrameRateTracker
    from .tls import SniReassembler

# volumetric window length, also the QoE grid step; a whole number of
# seconds, so that window idx is exactly [idx * WINDOW_S, (idx + 1) * WINDOW_S)
# of capture time, the times ts with int(ts // WINDOW_S) == idx
WINDOW_S = 1.0
DEFAULT_TABLE_CAP = 1_048_576
SWEEP_S = 5.0  # capture seconds between expiry sweeps
CLOSED_LINGER_S = 10.0  # a closed flow expires this long after its last packet
IDLE_TIMEOUT_S = 60.0  # any other flow expires this long after its last packet
CLOSING = TCP_FIN | TCP_RST


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
    # these lists as they are. Only a UDP flow has them (None on TCP), and
    # the analyzer drops them from a joined flow it decides is not video.
    windows: Optional[dict] = None
    # the open window: the counts list `windows` holds for the window
    # [win_start, win_end) of capture time, which the flow's last counted
    # packet fell in; None once `drop_windows` dropped the windows
    win: Optional[list] = None
    win_start: float = 0.0
    win_end: float = 0.0
    # payload sizes of the first data packets each way (a SYN's data left
    # out), which setup signatures match: the analyzer records them on a TCP
    # flow to a port a signature names while its signature is undecided;
    # elsewhere they stay None
    first_payload_sizes_up: Optional[list] = None
    first_payload_sizes_down: Optional[list] = None
    sni: Optional[str] = None  # "" once a ClientHello reassembly finished without a name
    total_pkts: int = 0
    down: bool = False  # the last counted packet went server to client
    closed: bool = False  # a TCP packet of the flow carried FIN or RST
    # analyzer state, dropped with the flow when it is evicted or expires
    reasm: Optional[SniReassembler] = None  # a TCP flow's one ClientHello reassembly, gone once it finishes
    # (os, setup_class) once a signature matched; () once none can, which is
    # known at a TCP flow's first data when no signature names its port
    signature: Optional[tuple] = None
    gameplay: Optional[ServerRegistration] = None  # the registration it is the management flow of, or joined
    role: Optional[str] = None  # set at registration on the mgmt flow; decided once its classifying windows close
    held: Optional[list] = None  # a joined flow's downstream (payload_len, ts), until its role is decided
    frames: Optional[FrameRateTracker] = None  # on a joined flow decided to be video

    def drop_windows(self) -> None:
        """Stop counting windows: drop them with the open window."""
        self.windows = self.win = None


class FlowTable:
    """Single-writer flow accumulator keyed by canonical five-tuple.

    Only UDP flows count windows. They are aligned to multiples of
    `WINDOW_S` in absolute capture time, so every flow's window grid lines
    up for cross-flow comparison.

    The sweep is the analyzer's one capture-time tick: every piece of work
    that capture time drives runs there, and nowhere per packet. The first
    packet, and then the first packet `SWEEP_S` or more after the last
    sweep, sweeps the table before it is counted, with that packet's time
    as `now`. First the flows that no registration holds
    (`FlowState.gameplay` is None) and whose last packet is more than
    `CLOSED_LINGER_S` (closed flows) or `IDLE_TIMEOUT_S` (the others)
    older than `now` expire; a later packet on an expired five-tuple starts
    a new flow. Then the sweep calls `on_sweep(now)`, the steps its owner
    adds (`Analyzer._tick` lists them in order); a bare table adds none.
    """

    def __init__(self, client_nets: Iterable[str] = ()):
        # each client net as an integer range: (IP version, first, last address)
        self.client_nets = [
            (net.version, int(net.network_address), int(net.broadcast_address))
            for net in map(ipaddress.ip_network, client_nets)
        ]
        self.cap = DEFAULT_TABLE_CAP
        self.flows: dict[FlowKey, FlowState] = {}
        self.now = 0.0
        self.orientation_warnings = 0
        self.evictions = 0
        self.expiries = 0
        self._next_sweep = 0.0
        self.on_sweep: Callable[[float], None] = lambda now: None

    # -- orientation ---------------------------------------------------

    def _is_client(self, ip: bytes) -> bool:
        version = 4 if len(ip) == 4 else 6
        value = int.from_bytes(ip, "big")
        return any(v == version and lo <= value <= hi for v, lo, hi in self.client_nets)

    def canonical_key(self, pkt: tuple) -> tuple[FlowKey, bool]:
        """Same key for both directions of a packet tuple (`PacketRecord`
        layout), and whether the packet goes downstream (as `FlowState.down`):
        upstream iff the source is client-side. When neither (or both) side
        is in the configured nets the lower (ip, port) is deemed the client,
        so that the key stays involution-stable, and the call counts an
        orientation warning. That order compares address text, which is not
        the packed bytes' order (10.0.0.10 < 10.0.0.9)."""
        _, src, sport, dst, dport, proto = pkt[:6]
        up = self._is_client(src)
        if up == self._is_client(dst):
            self.orientation_warnings += 1
            up = (ip_text(src), sport) < (ip_text(dst), dport)
        if up:
            return FlowKey(src, sport, dst, dport, proto), False
        return FlowKey(dst, dport, src, sport, proto), True

    # -- updates -------------------------------------------------------

    def update(self, pkt: tuple) -> FlowState:
        """Count a packet tuple (`PacketRecord` layout) in its flow, and keep
        its direction there as `FlowState.down`.

        A flow is keyed as `canonical_key` has it once, when it is created,
        which counts one orientation warning for a flow whose orientation is
        guessed; a packet and its reply never key two flows, so a later
        packet finds its flow under its reversed five-tuple (downstream) or
        under its own (upstream). The reversed tuple is tried first, which keeps a
        self-addressed packet downstream, as `canonical_key` has it.
        """
        ts, src, sport, dst, dport, proto, size, _, _, flags, _ = pkt
        if ts >= self._next_sweep:
            self._sweep(ts)
        flows = self.flows
        flow = flows.get((dst, dport, src, sport, proto))
        if flow is not None:
            down = True
        else:
            flow = flows.get((src, sport, dst, dport, proto))
            if flow is not None:
                down = False
            else:
                key, down = self.canonical_key(pkt)
                if len(flows) >= self.cap:
                    self._evict_oldest()
                flow = flows[key] = FlowState(key=key, first_ts=ts, last_ts=ts, windows={} if proto == UDP else None)
        flow.down = down
        if ts > self.now:
            self.now = ts
        if ts > flow.last_ts:
            flow.last_ts = ts
        flow.total_pkts += 1
        if flags and flags & CLOSING:
            flow.closed = True

        if flow.windows is not None:
            if flow.win_start <= ts < flow.win_end:
                win = flow.win
            else:  # a new window, or a late packet: index it, and open its window
                idx = int(ts // WINDOW_S)
                win = flow.windows.get(idx)
                if win is None:
                    win = flow.windows[idx] = [0, 0, 0, 0]
                flow.win, flow.win_start, flow.win_end = win, idx * WINDOW_S, (idx + 1) * WINDOW_S
            if down:
                win[0] += 1
                win[2] += size
            else:
                win[1] += 1
                win[3] += size
        return flow

    def _sweep(self, now: float) -> None:
        """Drop the flows that have expired by `now`, then run `on_sweep`
        (see the class doc)."""
        self._next_sweep = now + SWEEP_S
        closed_cutoff = now - CLOSED_LINGER_S
        idle_cutoff = now - IDLE_TIMEOUT_S
        expired = [
            key
            for key, flow in self.flows.items()
            if flow.gameplay is None and flow.last_ts < (closed_cutoff if flow.closed else idle_cutoff)
        ]
        for key in expired:
            del self.flows[key]
        self.expiries += len(expired)
        self.on_sweep(now)

    def _evict_oldest(self) -> None:
        victim = min(self.flows.values(), key=lambda f: f.last_ts)
        del self.flows[victim.key]
        self.evictions += 1

    # -- window access -------------------------------------------------

    def window_series(self, flow: FlowState, count: int) -> list[list[int]]:
        """The flow's first `count` closed windows at most, first to last, as
        count lists (see `FlowState.windows`); a window with no packet reads
        as zeros. So a packet far past the flow's first costs no more than
        `count` lists."""
        first = int(flow.first_ts // WINDOW_S)
        last = min(int(flow.last_ts // WINDOW_S), int(self.now // WINDOW_S) - 1, first + count - 1)
        return [flow.windows.get(idx) or [0, 0, 0, 0] for idx in range(first, last + 1)]
