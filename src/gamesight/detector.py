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


@dataclass
class SessionRecord:
    """One platform session of a client: what a codebook match decided of
    its names. A gameplay that takes it copies its setup at registration."""

    session_id: str  # p1, p2, ... in detection order
    client_ip: bytes
    platform_id: str
    setup: str
    detected_at: float
    setup_ambiguous: bool = False
    ended_at: Optional[float] = None


@dataclass(eq=False)
class ServerRegistration:
    """One gameplay, written as one sessions.jsonl line by `to_dict`: a
    registered gameplay server, its management flow and the UDP flows that
    joined it (`flows`, each with its `FlowState.role`), the QoE `rows` the
    analyzer gives it, and the `platform_session` it took its platform and
    setup from, if any."""

    client_ip: bytes  # packed, as in FlowKey
    server_ip: bytes
    registered_at: float
    setup_class: str  # console_app | browser
    platform_id: str
    session_id: str  # s1, s2, ... in registration order
    setup: str
    server_port_range: Optional[tuple[int, int]] = None
    ip_mismatch_warning: bool = False
    platform_session: Optional[SessionRecord] = None
    flows: list = field(default_factory=list)  # FlowState: the mgmt flow, then each UDP flow that joined
    rows: list = field(default_factory=list)  # qoe.csv cells but session_id, per whole window of its video flow

    def to_dict(self) -> dict:
        """Its sessions.jsonl object, with its packed addresses as text."""
        session = self.platform_session
        signature = self.flows[0].signature  # the management flow's handshake-size match
        return {
            "session_id": self.session_id,
            "platform_session": None if session is None else session.session_id,
            "client_ip": ip_text(self.client_ip),
            "platform": self.platform_id,
            "setup": self.setup,
            "os_hint": signature[0] if signature else None,
            "detected_at": None if session is None else session.detected_at,
            "gameplay_server_ip": ip_text(self.server_ip),
            "gameplay_started_at": self.registered_at,
            "ended_at": max(f.last_ts for f in self.flows),
            "gameplay_flows": [
                {
                    "client_ip": ip_text(f.key.client_ip),
                    "client_port": f.key.client_port,
                    "server_ip": ip_text(f.key.server_ip),
                    "server_port": f.key.server_port,
                    "proto": "TCP" if f.key.proto == 6 else "UDP",
                    "role": f.role,
                }
                for f in self.flows
            ],
        }


@dataclass
class ClientState:
    observed_names: dict = field(default_factory=dict)  # codebook pattern -> newest ts of a name it matched
    newest_match: dict = field(default_factory=dict)  # matched patterns -> (ts, arrival) of the newest such name
    sessions: dict = field(default_factory=dict)  # platform -> its open SessionRecord, in opening order


class SessionDetector:
    """Per-client stateful matcher over observed service domains, and the one
    place that matches what the analyzer reads off the wire (service names,
    handshake sizes) against the codebooks."""

    def __init__(self, codebooks: list[ServiceCodebook]):
        self.codebooks = codebooks
        self.clients: dict[bytes, ClientState] = {}  # by packed client address
        self.sessions: list[SessionRecord] = []  # platform sessions, in detection order
        self.registrations: dict[FlowKey, ServerRegistration] = {}  # gameplays, in registration order
        self.repeated_registrations = 0  # refused: their management flow's key has one already
        self._session_ids = itertools.count(1)
        self._gameplay_ids = itertools.count(1)
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

    def evaluate_codebook(self, client_ip: bytes, ts: float) -> None:
        """Open a platform session for each codebook with none open for the
        client whose every core pattern matched a name no older than
        `OBSERVATION_HORIZON_S` before `ts`; it stays open until
        `end_session`. Refine each open session's setup from the names
        within the same horizon: setup-specific services may show up after
        the core set is complete."""
        st = self.clients.get(client_ip)
        if st is None:
            return
        horizon = ts - OBSERVATION_HORIZON_S
        present = {p for p, newest in st.observed_names.items() if newest >= horizon}
        for cb in self.codebooks:
            session = st.sessions.get(cb.platform_id)
            if session is not None:
                setup, ambiguous = self._pick_setup(cb, st, present, horizon)
                if setup != SETUP_UNKNOWN:
                    session.setup, session.setup_ambiguous = setup, ambiguous
            elif all(p in present for p in cb.core_services):
                setup, ambiguous = self._pick_setup(cb, st, present, horizon)
                session = SessionRecord("p%d" % next(self._session_ids), client_ip, cb.platform_id, setup, ts, ambiguous)
                st.sessions[cb.platform_id] = session
                self.sessions.append(session)

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
        """Keep a new gameplay under its management flow's key and return it,
        or count a repeat on a key that has one and return None. A gameplay
        takes its platform and setup from its client's open platform session
        of its own platform, or, registered `by_signature` (other platforms'
        handshakes match a signature too), from the one opened last. Without
        one, its setup is the signature's class, or unknown for a name."""
        if key in self.registrations:
            self.repeated_registrations += 1
            return None
        st = self.clients.get(key.client_ip)
        open_sessions = {} if st is None else st.sessions
        if by_signature:
            session = next(reversed(open_sessions.values()), None)
        else:
            session = open_sessions.get(cb.platform_id)
        if session is not None:
            platform_id, setup = session.platform_id, session.setup
        else:
            platform_id, setup = cb.platform_id, setup_class if by_signature else SETUP_UNKNOWN
        reg = self.registrations[key] = ServerRegistration(
            client_ip=key.client_ip,
            server_ip=key.server_ip,
            registered_at=ts,
            setup_class=setup_class,
            platform_id=platform_id,
            session_id="s%d" % next(self._gameplay_ids),
            setup=setup,
            server_port_range=cb.server_port_range,
            ip_mismatch_warning=ip_mismatch,
            platform_session=session,
        )
        return reg

    def end_session(self, client_ip: bytes, ts: float) -> None:
        """End the client's open platform sessions at `ts`."""
        st = self.clients.get(client_ip)
        if st is not None:
            for session in st.sessions.values():
                session.ended_at = ts
            st.sessions = {}
