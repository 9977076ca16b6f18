"""Session detection: codebook correlation of service names, user-setup
identification and gameplay-server registration."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .codebook import (
    SETUP_UNKNOWN,
    ServiceCodebook,
    decode_gameplay_name,
    labels_match,
)
from .flows import FlowKey

OBSERVATION_HORIZON_S = 600.0

STATE_PLATFORM = "platform"
STATE_GAMEPLAY = "gameplay"
STATE_ENDED = "ended"


@dataclass
class SessionRecord:
    session_id: str
    client_ip: str
    platform_id: str
    setup: str
    detected_at: float
    state: str = STATE_PLATFORM
    setup_ambiguous: bool = False
    os_hint: Optional[str] = None  # from a handshake-size signature match
    gameplay_server_ip: Optional[str] = None
    gameplay_started_at: Optional[float] = None
    ended_at: Optional[float] = None
    gameplay_flows: list = field(default_factory=list)  # (FlowKey, role)

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "client_ip": self.client_ip,
            "platform": self.platform_id,
            "setup": self.setup,
            "os_hint": self.os_hint,
            "detected_at": self.detected_at,
            "state": self.state,
            "gameplay_server_ip": self.gameplay_server_ip,
            "gameplay_started_at": self.gameplay_started_at,
            "ended_at": self.ended_at,
            "gameplay_flows": [
                {
                    "client_ip": k.client_ip,
                    "client_port": k.client_port,
                    "server_ip": k.server_ip,
                    "server_port": k.server_port,
                    "proto": "TCP" if k.proto == 6 else "UDP",
                    "role": role,
                }
                for k, role in self.gameplay_flows
            ],
        }


@dataclass
class ServerRegistration:
    client_ip: str
    server_ip: str
    registered_at: float
    setup_class: str  # console_app | browser
    mgmt_key: FlowKey
    platform_id: str
    server_port_range: Optional[tuple[int, int]] = None
    ip_mismatch_warning: bool = False
    via_signature: bool = False
    session: Optional[SessionRecord] = None
    flows: list = field(default_factory=list)  # FlowState: the mgmt flow, then each UDP flow that joined


@dataclass
class ClientState:
    client_ip: str
    observed_names: deque = field(default_factory=deque)  # (ts, name, matched patterns)
    pattern_counts: dict = field(default_factory=dict)  # pattern -> observed names it matches
    names_seen: int = 0  # names observed so far; observed_names holds the newest of them
    newest_match: dict = field(default_factory=dict)  # matched patterns -> newest such name's index
    session: Optional[SessionRecord] = None


class SessionDetector:
    """Per-client stateful matcher over observed service domains."""

    def __init__(self, codebooks: list[ServiceCodebook]):
        self.codebooks = codebooks
        self.clients: dict[str, ClientState] = {}
        self.sessions: list[SessionRecord] = []
        self.registrations: dict[FlowKey, ServerRegistration] = {}
        self._ids = itertools.count(1)
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

    def _client(self, client_ip: str) -> ClientState:
        st = self.clients.get(client_ip)
        if st is None:
            st = ClientState(client_ip=client_ip)
            self.clients[client_ip] = st
        return st

    # -- service name observation -------------------------------------

    def observe_service_name(self, key: FlowKey, name: str, ts: float) -> None:
        st = self._client(key.client_ip)
        name = name.lower()
        labels = name.split(".")
        candidates = itertools.chain(self._patterns.get(labels[0], ()), self._any_first)
        matches = tuple(p for p, plabels in candidates if labels_match(plabels, labels))
        st.observed_names.append((ts, name, matches))
        counts = st.pattern_counts
        for p in matches:
            counts[p] = counts.get(p, 0) + 1
        if matches:
            st.newest_match[matches] = st.names_seen
        st.names_seen += 1
        self._prune(st, ts)

    def _prune(self, st: ClientState, now: float) -> None:
        horizon = now - OBSERVATION_HORIZON_S
        names = st.observed_names
        counts = st.pattern_counts
        while names and names[0][0] < horizon:
            for p in names.popleft()[2]:
                if counts[p] == 1:
                    del counts[p]
                else:
                    counts[p] -= 1

    # -- codebook evaluation ------------------------------------------

    def evaluate_codebook(self, client_ip: str, ts: float) -> Optional[SessionRecord]:
        """Fires once per platform-session start when all core services match."""
        st = self.clients.get(client_ip)
        if st is None or not st.observed_names:
            return None
        if st.session is not None and st.session.state != STATE_ENDED:
            # setup-specific services may show up after the core set is
            # complete; keep refining the setup until gameplay starts
            if st.session.state == STATE_PLATFORM:
                cb = next(
                    (c for c in self.codebooks if c.platform_id == st.session.platform_id),
                    None,
                )
                if cb is not None:
                    self._prune(st, ts)
                    setup, ambiguous = self._pick_setup(cb, st)
                    if setup != SETUP_UNKNOWN:
                        st.session.setup = setup
                        st.session.setup_ambiguous = ambiguous
            return None  # idempotent until the session ends
        self._prune(st, ts)
        counts = st.pattern_counts
        for cb in self.codebooks:
            if not all(p in counts for p in cb.core_services):
                continue
            setup, ambiguous = self._pick_setup(cb, st)
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

    def _pick_setup(self, cb: ServiceCodebook, st: ClientState) -> tuple[str, bool]:
        scores: dict[str, float] = {}
        counts = st.pattern_counts
        for setup, table in cb.setup_tables.items():
            if not table:
                scores[setup] = 0.0
                continue
            matched = sum(1 for p in table if p in counts)
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
        # name of each set of matches that is still in the window counts.
        oldest = st.names_seen - len(st.observed_names)
        newest, pick = -1, None
        for matches, n in st.newest_match.items():
            if n >= oldest and n > newest:
                hits = [s for s in top if any(p in matches for p in cb.setup_tables[s])]
                if len(hits) == 1:
                    newest, pick = n, hits[0]
        if pick is None:
            return SETUP_UNKNOWN, True
        return pick, False

    # -- gameplay server registration ---------------------------------

    def register_gameplay_server(
        self, name: str, key: FlowKey, ts: float
    ) -> Optional[ServerRegistration]:
        for cb in self.codebooks:
            setup_class = cb.mgmt_ports.get(key.server_port)
            if setup_class is None:
                continue
            embedded_ip = decode_gameplay_name(cb.gameplay_name_pattern, name)
            if embedded_ip is None:
                continue
            reg = ServerRegistration(
                client_ip=key.client_ip,
                server_ip=key.server_ip,
                registered_at=ts,
                setup_class=setup_class,
                mgmt_key=key,
                platform_id=cb.platform_id,
                server_port_range=cb.server_port_range,
                ip_mismatch_warning=(embedded_ip != key.server_ip),
            )
            self.registrations[key] = reg
            self._enter_gameplay(reg)
            return reg
        return None

    def register_by_signature(
        self, key: FlowKey, ts: float, platform_id: str, setup_class: str
    ) -> ServerRegistration:
        """Encryption-agnostic fallback: a handshake-size signature match on
        a management-port flow registers its server without an SNI."""
        cb = next((c for c in self.codebooks if c.platform_id == platform_id), None)
        reg = ServerRegistration(
            client_ip=key.client_ip,
            server_ip=key.server_ip,
            registered_at=ts,
            setup_class=setup_class,
            mgmt_key=key,
            platform_id=platform_id,
            server_port_range=cb.server_port_range if cb else None,
            via_signature=True,
        )
        if key not in self.registrations:
            self.registrations[key] = reg
            self._enter_gameplay(reg)
        return reg

    def _enter_gameplay(self, reg: ServerRegistration) -> None:
        """A new registration joins its client's open platform session,
        which enters gameplay."""
        st = self.clients.get(reg.client_ip)
        if st is not None and st.session is not None and st.session.state != STATE_ENDED:
            st.session.state = STATE_GAMEPLAY
            st.session.gameplay_server_ip = reg.server_ip
            st.session.gameplay_started_at = reg.registered_at
            reg.session = st.session

    def end_session(self, client_ip: str, ts: float) -> None:
        st = self.clients.get(client_ip)
        if st is not None and st.session is not None:
            st.session.state = STATE_ENDED
            st.session.ended_at = ts
            st.session = None
