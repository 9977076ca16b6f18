"""Session detection: codebook correlation of service names, user-setup
identification and gameplay-server registration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .codebook import (
    CLASS_BROWSER,
    SETUP_UNKNOWN,
    ServiceCodebook,
    decode_gameplay_name,
    labels_match,
)
from .flows import FlowKey
from .packets import ip_text

OBSERVATION_HORIZON_S = 600.0

STATE_PLATFORM = "platform"
STATE_GAMEPLAY = "gameplay"
STATE_ENDED = "ended"


@dataclass
class SessionRecord:
    """One platform session, as its codebook match decided it. `to_dict` reads
    its gameplay fields from `gameplays` and writes its packed addresses as text."""

    session_id: str
    client_ip: bytes
    platform_id: str
    setup: str
    detected_at: float
    setup_ambiguous: bool = False
    ended_at: Optional[float] = None
    gameplays: list = field(default_factory=list)  # ServerRegistration, in registration order

    @property
    def state(self) -> str:
        if self.ended_at is not None:
            return STATE_ENDED
        return STATE_GAMEPLAY if self.gameplays else STATE_PLATFORM

    def to_dict(self) -> dict:
        last = self.gameplays[-1] if self.gameplays else None
        # the last handshake-size signature match of a management flow
        hints = [reg.flows[0].signature[0] for reg in self.gameplays if reg.flows[0].signature]
        return {
            "session_id": self.session_id,
            "client_ip": ip_text(self.client_ip),
            "platform": self.platform_id,
            "setup": self.setup,
            "os_hint": hints[-1] if hints else None,
            "detected_at": self.detected_at,
            "state": self.state,
            "gameplay_server_ip": None if last is None else ip_text(last.server_ip),
            "gameplay_started_at": None if last is None else last.registered_at,
            "ended_at": self.ended_at,
            "gameplay_flows": [
                {
                    "client_ip": ip_text(f.key.client_ip),
                    "client_port": f.key.client_port,
                    "server_ip": ip_text(f.key.server_ip),
                    "server_port": f.key.server_port,
                    "proto": "TCP" if f.key.proto == 6 else "UDP",
                    "role": f.role,
                }
                for reg in self.gameplays
                for f in reg.flows
            ],
        }


@dataclass(eq=False)
class ServerRegistration:
    """One gameplay: a registered gameplay server, its management flow and the
    UDP flows that joined it (`flows`, each with its `FlowState.role`), the QoE
    `rows` the analyzer gives it, and its `session`, platform or fallback."""

    client_ip: bytes  # packed, as in FlowKey
    server_ip: bytes
    registered_at: float
    setup_class: str  # console_app | browser
    platform_id: str
    server_port_range: Optional[tuple[int, int]] = None
    ip_mismatch_warning: bool = False
    session: Optional[SessionRecord] = None
    flows: list = field(default_factory=list)  # FlowState: the mgmt flow, then each UDP flow that joined
    rows: list = field(default_factory=list)  # QoeSample, one per whole window of its video flow


@dataclass
class ClientState:
    observed_names: dict = field(default_factory=dict)  # codebook pattern -> newest ts of a name it matched
    newest_match: dict = field(default_factory=dict)  # matched patterns -> (ts, arrival) of the newest such name
    session: Optional[SessionRecord] = None


class SessionDetector:
    """Per-client stateful matcher over observed service domains, and the one
    place that matches what the analyzer reads off the wire (service names,
    handshake sizes) against the codebooks."""

    def __init__(self, codebooks: list[ServiceCodebook]):
        self.codebooks = codebooks
        self.clients: dict[bytes, ClientState] = {}  # by packed client address
        self.sessions: list[SessionRecord] = []
        self.registrations: dict[FlowKey, ServerRegistration] = {}
        self.repeated_registrations = 0  # refused: their management flow's key has one already
        self._ids = itertools.count(1)
        self._fallback_ids = itertools.count(1)
        self._codebook = {cb.platform_id: cb for cb in codebooks}
        self._arrivals = itertools.count()  # orders names of equal time for the setup tie-break
        # every distinct pattern of every codebook, split once and filed by
        # its first label: a name is matched against them when it is
        # observed and never again
        patterns = dict.fromkeys(
            p
            for cb in codebooks
            for table in (cb.core_services, *cb.setup_tables.values())
            for p in table
        )
        self._patterns: dict[str, list[tuple[str, list[str]]]] = {}
        for p in patterns:
            plabels = p.lower().split(".")
            self._patterns.setdefault(plabels[0], []).append((p, plabels))
        self._any_first = self._patterns.pop("*", [])  # patterns starting with a '*' label
        # by server port, in codebook order: the codebooks with their setup
        # class, and the handshake-size signatures with their platform and
        # (os, setup class); a signature with no up sizes matches nothing
        self.mgmt_ports: dict[int, list[tuple[ServiceCodebook, str]]] = {}
        self.signatures: dict[int, list[tuple[list, list, str, tuple]]] = {}
        for cb in codebooks:
            for port, setup_class in cb.mgmt_ports.items():
                self.mgmt_ports.setdefault(port, []).append((cb, setup_class))
            for sig in filter(lambda s: s.upstream_sizes, cb.signatures):
                for port in sig.dst_ports:
                    hit = (sig.os, cb.mgmt_ports.get(port, CLASS_BROWSER))
                    self.signatures.setdefault(port, []).append((sig.upstream_sizes, sig.downstream_sizes, cb.platform_id, hit))
        entries = [e for port_entries in self.signatures.values() for e in port_entries]
        self.longest_up = max((len(e[0]) for e in entries), default=0)  # the most sizes a signature reads upstream
        self.longest_down = max((len(e[1]) for e in entries), default=0)  # and downstream

    # -- service name observation -------------------------------------

    def observe_service_name(self, key: FlowKey, name: str, ts: float) -> None:
        """Record, for each codebook pattern the name matches, the newest time
        a name matched it. No score and no tie-break reads a name that
        matches none, so such a name changes nothing."""
        labels = name.lower().split(".")
        candidates = itertools.chain(self._patterns.get(labels[0], ()), self._any_first)
        matches = tuple(p for p, plabels in candidates if labels_match(plabels, labels))
        if not matches:
            return
        st = self.clients.get(key.client_ip)
        if st is None:
            st = self.clients[key.client_ip] = ClientState()
        held = st.observed_names
        for p in matches:
            held[p] = max(held.get(p, ts), ts)
        stamp = (ts, next(self._arrivals))
        st.newest_match[matches] = max(st.newest_match.get(matches, stamp), stamp)

    # -- codebook evaluation ------------------------------------------

    def evaluate_codebook(self, client_ip: bytes, ts: float) -> Optional[SessionRecord]:
        """Open a platform session, and return it, when every core pattern of
        a codebook matched a name no older than `OBSERVATION_HORIZON_S`
        before `ts`; a client has one open session until `end_session`.
        While the open session has no gameplay, refine its setup from the
        names within the same horizon."""
        st = self.clients.get(client_ip)
        if st is None or (st.session is not None and st.session.gameplays):
            return None
        horizon = ts - OBSERVATION_HORIZON_S
        present = {p for p, newest in st.observed_names.items() if newest >= horizon}
        if st.session is not None:
            # setup-specific services may show up after the core set is
            # complete; keep refining the setup until gameplay starts
            setup, ambiguous = self._pick_setup(self._codebook[st.session.platform_id], st, present, horizon)
            if setup != SETUP_UNKNOWN:
                st.session.setup = setup
                st.session.setup_ambiguous = ambiguous
            return None  # idempotent until the session ends
        for cb in self.codebooks:
            if not all(p in present for p in cb.core_services):
                continue
            setup, ambiguous = self._pick_setup(cb, st, present, horizon)
            session = SessionRecord(
                session_id="s%d" % next(self._ids),
                client_ip=client_ip,
                platform_id=cb.platform_id,
                setup=setup,
                detected_at=ts,
                setup_ambiguous=ambiguous,
            )
            st.session = session
            self.sessions.append(session)
            return session
        return None

    def _pick_setup(
        self, cb: ServiceCodebook, st: ClientState, present: set, horizon: float
    ) -> tuple[str, bool]:
        scores: dict[str, float] = {}
        for setup, table in cb.setup_tables.items():
            if not table:
                scores[setup] = 0.0
                continue
            matched = sum(1 for p in table if p in present)
            scores[setup] = matched / len(table)
        if not scores:
            return SETUP_UNKNOWN, False
        best = max(scores.values())
        if best < cb.setup_score_threshold:
            return SETUP_UNKNOWN, False
        top = [s for s, v in scores.items() if v == best]
        if len(top) == 1:
            return top[0], False
        # tie: most recent domain that discriminates between the tied tables.
        # Names with the same matches discriminate alike, so only the newest
        # name of each set of matches within the horizon counts.
        newest, pick = (horizon, -1), None  # precedes every stamp within the horizon
        for matches, stamp in st.newest_match.items():
            if stamp > newest:
                hits = [s for s in top if any(p in matches for p in cb.setup_tables[s])]
                if len(hits) == 1:
                    newest, pick = stamp, hits[0]
        if pick is None:
            return SETUP_UNKNOWN, True
        return pick, False

    # -- gameplay server registration ---------------------------------

    def register_gameplay_server(self, name: str, key: FlowKey, ts: float) -> Optional[ServerRegistration]:
        for cb, setup_class in self.mgmt_ports.get(key.server_port, ()):
            embedded_ip = decode_gameplay_name(cb.gameplay_name_pattern, name)
            if embedded_ip is not None:
                mismatch = embedded_ip != ip_text(key.server_ip)
                return self._register(key, ts, cb, setup_class, mismatch, by_signature=False)
        return None

    def match_signature(self, port: int, up: list, down: list) -> Optional[tuple[str, tuple[str, str]]]:
        """`(platform, (os, setup class))` of the first signature on `port`
        whose sizes prefix the flow's handshake sizes `up` and `down`, or None."""
        for sig_up, sig_down, platform_id, hit in self.signatures.get(port, ()):
            if up[: len(sig_up)] == sig_up and down[: len(sig_down)] == sig_down:
                return platform_id, hit
        return None

    def register_by_signature(
        self, key: FlowKey, ts: float, platform_id: str, setup_class: str
    ) -> Optional[ServerRegistration]:
        """Encryption-agnostic fallback: a handshake-size signature match on
        a management-port flow registers its server without an SNI."""
        return self._register(key, ts, self._codebook[platform_id], setup_class, False, by_signature=True)

    def _register(
        self, key: FlowKey, ts: float, cb: ServiceCodebook, setup_class: str, ip_mismatch: bool, by_signature: bool
    ) -> Optional[ServerRegistration]:
        """Keep a new registration under its management flow's key and return
        it, or count a repeat on a key that has one and return None. A kept
        registration joins its client's open platform session, which enters
        gameplay, if that is of its platform or `by_signature` (other platforms'
        handshakes match a signature too), or else gets its own fallback
        session (`u1`, `u2`, ... in registration order) with the signature's
        class as its setup, or unknown."""
        if key in self.registrations:
            self.repeated_registrations += 1
            return None
        reg = self.registrations[key] = ServerRegistration(
            client_ip=key.client_ip,
            server_ip=key.server_ip,
            registered_at=ts,
            setup_class=setup_class,
            platform_id=cb.platform_id,
            server_port_range=cb.server_port_range,
            ip_mismatch_warning=ip_mismatch,
        )
        st = self.clients.get(key.client_ip)
        if st is not None and st.session is not None and (by_signature or st.session.platform_id == cb.platform_id):
            reg.session = st.session
        else:
            reg.session = SessionRecord(
                session_id="u%d" % next(self._fallback_ids),
                client_ip=key.client_ip,
                platform_id=cb.platform_id,
                setup=setup_class if by_signature else SETUP_UNKNOWN,
                detected_at=ts,
            )
            self.sessions.append(reg.session)
        reg.session.gameplays.append(reg)
        return reg

    def end_session(self, client_ip: bytes, ts: float) -> None:
        st = self.clients.get(client_ip)
        if st is not None and st.session is not None:
            st.session.ended_at = ts
            st.session = None
