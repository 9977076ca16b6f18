import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamesight.codebook import (
    ServiceCodebook,
    SetupSignature,
    decode_gameplay_name,
    default_codebook_path,
    default_codebooks,
    load_codebooks,
    wildcard_match,
)
from gamesight.detector import OBSERVATION_HORIZON_S, SessionDetector, SessionRecord
from gamesight.flows import FlowKey
from gamesight.packets import ip_text

from conftest import packed

CLIENT = packed("192.0.2.10")


def _detector():
    books = default_codebooks()
    return SessionDetector(books)


def _key(server_ip="203.0.113.20", sport=443, cport=40000, proto=6):
    return FlowKey(CLIENT, cport, packed(server_ip), sport, proto)


GFN_CORE = [
    "login.nvidia.com",
    "events.nvidia.com",
    "userstore.nvidia.com",
    "gfnpc.api.entitlement-prod.nvidiagrid.net",
]


def _observe(det, names, t0=0.0, step=1.0):
    for i, n in enumerate(names):
        det.observe_service_name(_key(cport=40000 + i), n, t0 + i * step)
        det.evaluate_codebook(CLIENT, t0 + i * step)


# -- wildcard / decoding ------------------------------------------------


def test_wildcard_prefix_on_labels():
    assert wildcard_match("login.nvidia", "login.nvidia.com")
    assert wildcard_match("login.nvidia.com", "login.nvidia.com")
    assert not wildcard_match("login.nvidia.com.extra", "login.nvidia.com")
    assert not wildcard_match("xgpu.xboxlive", "xgpuweb.xboxlive.com")  # label equality, not prefix
    assert wildcard_match("*.nvidia", "cms.nvidia.com")
    assert not wildcard_match("*.nvidia", "nvidia.com")


def test_decode_gameplay_name():
    # dashed server IP embedded in the management SNI
    pat = "{ip}.pnt.nvidiagrid.net"
    assert decode_gameplay_name(pat, "203-0-113-7.pnt.nvidiagrid.net") == "203.0.113.7"
    assert decode_gameplay_name(pat, "203-0-113.pnt.nvidiagrid.net") is None
    assert decode_gameplay_name(pat, "evil.example.com") is None
    assert decode_gameplay_name(pat, "1-2-3-999.pnt.nvidiagrid.net") is None


# -- codebook correlation ----------------------------------------------


def test_all_core_required():
    det = _detector()
    _observe(det, GFN_CORE[:3])
    assert det.sessions == []
    _observe(det, GFN_CORE[3:], t0=3.0)
    assert len(det.sessions) == 1
    assert (det.sessions[0].session_id, det.sessions[0].platform_id) == ("p1", "gfn")


def test_setup_refined_after_core_completes():
    det = _detector()
    _observe(det, GFN_CORE)
    assert det.sessions[0].setup == "unknown"
    _observe(det, ["cms.nvidia.com", "als.nvidia.com", "gx-target-experiments-frontend-api.nvidia.com"], t0=5.0)
    assert det.sessions[0].setup == "desktop_app"
    assert not det.sessions[0].setup_ambiguous


def test_partial_setup_below_threshold_stays_unknown():
    det = _detector()
    _observe(det, GFN_CORE + ["cms.nvidia.com"])  # 1/3 of the desktop table
    assert det.sessions[0].setup == "unknown"


def test_xbox_pc_browser_setup():
    det = _detector()
    _observe(det, ["login.xboxlive.com", "regional-node.xboxlive.com", "xgpuweb.xboxlive.com"])
    assert len(det.sessions) == 1
    assert det.sessions[0].platform_id == "xbox"
    assert det.sessions[0].setup == "pc_browser"


def test_idempotent_until_session_ends():
    det = _detector()
    _observe(det, GFN_CORE)
    _observe(det, GFN_CORE, t0=10.0)
    assert len(det.sessions) == 1
    det.end_session(CLIENT, 20.0)
    _observe(det, GFN_CORE, t0=21.0)
    assert len(det.sessions) == 2


def test_horizon_pruning_blocks_stale_names():
    det = _detector()
    _observe(det, GFN_CORE[:3], t0=0.0)
    # the fourth core domain arrives 700 s later: first three fell out of the
    # 10-minute observation horizon
    det.observe_service_name(_key(cport=41000), GFN_CORE[3], 700.0)
    det.evaluate_codebook(CLIENT, 700.0)
    assert det.sessions == []


# -- gameplay server registration --------------------------------------


def test_register_gameplay_server_console_port():
    det = _detector()
    _observe(det, GFN_CORE)
    key = _key(server_ip="203.0.113.7", sport=322, cport=51000)
    reg = det.register_gameplay_server("203-0-113-7.pnt.nvidiagrid.net", key, 5.0)
    assert reg is not None
    assert reg.setup_class == "console_app"
    assert not reg.ip_mismatch_warning
    assert reg.platform_session is det.sessions[0]
    assert ip_text(reg.server_ip) == "203.0.113.7"


def test_register_flags_ip_mismatch():
    det = _detector()
    key = _key(server_ip="203.0.113.99", sport=322)
    reg = det.register_gameplay_server("203-0-113-7.pnt.nvidiagrid.net", key, 5.0)
    assert reg.ip_mismatch_warning


def test_register_xbox_carries_port_range():
    det = _detector()
    key = _key(server_ip="203.0.113.7", sport=49100)
    reg = det.register_gameplay_server("203-0-113-7.cloudgame.xboxlive.com", key, 5.0)
    assert reg.platform_id == "xbox"
    assert reg.server_port_range == (1040, 1190)


def test_non_gameplay_name_not_registered():
    det = _detector()
    key = _key(sport=322)
    assert det.register_gameplay_server("login.nvidia.com", key, 5.0) is None
    assert det.registrations == {}


def test_wrong_port_not_registered():
    det = _detector()
    key = _key(server_ip="203.0.113.7", sport=443)
    assert det.register_gameplay_server("203-0-113-7.pnt.nvidiagrid.net", key, 5.0) is None


# -- handshake-size signatures -----------------------------------------


@pytest.mark.parametrize(
    "up,down,port,expect",
    [
        ([517], [1460, 1460, 502], 322, ("windows", "console_app")),
        ([517, 99], [1460, 1460, 502, 31], 49100, ("windows", "browser")),
        ([517], [1412, 1412], 322, ("macos", "console_app")),
        ([517], [3455], 322, ("android", "console_app")),
        ([517], [3450], 49100, ("ios", "browser")),
        ([517], [3450], 322, None),  # ios signature only on the browser port
        ([516], [1460, 1460, 502], 322, None),
        ([517], [1460, 1460], 322, None),  # windows needs all three down sizes
        ([], [1460, 1460, 502], 322, None),
    ],
)
def test_signature_matching(up, down, port, expect):
    hit = _detector().match_signature(port, up, down)
    assert hit == (None if expect is None else ("gfn", expect))


def test_signature_tables_follow_the_codebooks():
    """Each signature is filed under each port it names, in codebook order,
    with its codebook's class for the port (browser when the port is no
    management port of it); one without up sizes, which matches nothing,
    is left out, and counts toward neither longest size list."""
    signatures = [
        SetupSignature(os="linux", dst_ports=[322], upstream_sizes=[], downstream_sizes=[1, 2, 3, 4, 5, 6]),
        SetupSignature(os="linux", dst_ports=[322, 7000], upstream_sizes=[517, 80], downstream_sizes=[900]),
    ]
    other = ServiceCodebook(
        platform_id="p", core_services=["a.x"], setup_tables={}, gameplay_name_pattern="{ip}.x",
        mgmt_ports={322: "console_app"}, signatures=signatures,
    )
    det = SessionDetector(default_codebooks() + [other])
    assert [entry[2:] for entry in det.signatures[322]] == [
        ("gfn", ("windows", "console_app")),
        ("gfn", ("macos", "console_app")),
        ("gfn", ("android", "console_app")),
        ("p", ("linux", "console_app")),
    ]
    assert det.signatures[7000] == [([517, 80], [900], "p", ("linux", "browser"))]
    assert (det.longest_up, det.longest_down) == (2, 3)
    assert [cb.platform_id for cb, _ in det.mgmt_ports[49100]] == ["gfn", "xbox"]
    assert det.match_signature(7000, [517, 80, 1], [900]) == ("p", ("linux", "browser"))
    assert det.match_signature(7000, [517], [900]) is None


def test_register_by_signature():
    # no platform session is open: the gameplay has none, and the
    # signature's agent class as its setup
    det = _detector()
    key = _key(server_ip="203.0.113.7", sport=322)
    reg = det.register_by_signature(key, 3.0, "gfn", "console_app")
    assert det.registrations[key] is reg
    assert (reg.session_id, reg.setup, reg.platform_id, reg.registered_at) == ("s1", "console_app", "gfn", 3.0)
    assert reg.platform_session is None and det.sessions == []
    # a repeat on the same key is refused, as by name, and counted
    assert det.register_by_signature(key, 4.0, "gfn", "console_app") is None
    assert det.register_gameplay_server("203-0-113-7.pnt.nvidiagrid.net", key, 5.0) is None
    assert det.registrations == {key: reg}
    assert det.repeated_registrations == 2


def test_name_registration_without_a_platform_session_gets_a_fallback():
    # the fallback setup of a name is unknown
    det = _detector()
    key = _key(server_ip="203.0.113.7", sport=322)
    reg = det.register_gameplay_server("203-0-113-7.pnt.nvidiagrid.net", key, 3.0)
    assert (reg.session_id, reg.setup, reg.platform_id, reg.platform_session) == ("s1", "unknown", "gfn", None)
    # a second one from the same client is the next gameplay
    other = det.register_gameplay_server("203-0-113-8.pnt.nvidiagrid.net", _key(server_ip="203.0.113.8", sport=322), 4.0)
    assert (other.session_id, other.platform_session) == ("s2", None)
    assert det.sessions == []


def test_signature_registration_joins_the_open_platform_session():
    det = _detector()
    _observe(det, GFN_CORE)
    session = det.sessions[0]
    key = _key(server_ip="203.0.113.7", sport=322)
    reg = det.register_by_signature(key, 30.0, "gfn", "console_app")
    assert reg.platform_session is session
    assert det.sessions == [session]
    assert (reg.setup, ip_text(reg.server_ip), reg.registered_at) == (session.setup, "203.0.113.7", 30.0)


def test_a_name_registration_joins_only_a_session_of_its_platform():
    det = _detector()
    _observe(det, GFN_CORE)
    gfn = det.sessions[0]
    key = _key(server_ip="198.51.100.7", sport=49100)
    reg = det.register_gameplay_server("198-51-100-7.cloudgame.xboxlive.com", key, 30.0)
    assert (reg.platform_id, reg.session_id, reg.setup, reg.platform_session) == ("xbox", "s1", "unknown", None)
    assert det.sessions == [gfn]
    # a GFN gameplay name takes the open GFN session
    gfn_reg = det.register_gameplay_server("203-0-113-7.pnt.nvidiagrid.net", _key(server_ip="203.0.113.7", sport=322), 31.0)
    assert (gfn_reg.session_id, gfn_reg.platform_session) == ("s2", gfn)


def test_a_signature_registration_joins_a_session_of_any_platform():
    # GFN's handshake sizes also match XBox management flows, so a signature
    # registration's platform is no reason to keep out of the open session:
    # it takes the platform and setup of the session opened last
    det = _detector()
    _observe(det, ["login.xboxlive.com", "regional-node.xboxlive.com"])
    (xbox,) = det.sessions
    assert xbox.platform_id == "xbox"
    reg = det.register_by_signature(_key(server_ip="198.51.100.7", sport=49100), 30.0, "gfn", "browser")
    assert (reg.platform_session, reg.platform_id, reg.setup) == (xbox, "xbox", xbox.setup)
    _observe(det, GFN_CORE, t0=31.0)
    xbox_then_gfn = det.sessions
    assert [s.platform_id for s in xbox_then_gfn] == ["xbox", "gfn"]
    reg = det.register_by_signature(_key(server_ip="198.51.100.8", sport=49100), 40.0, "gfn", "browser")
    assert (reg.platform_session, reg.platform_id) == (xbox_then_gfn[1], "gfn")


def test_a_client_has_one_open_session_per_platform():
    """GFN and XBox core names of one client open one session each; more
    names of either open no other. Each open session's setup is refined
    after a gameplay takes it, and the gameplay keeps the setup it copied
    at its registration."""
    det = _detector()
    _observe(det, GFN_CORE + ["login.xboxlive.com", "regional-node.xboxlive.com"] + GFN_CORE)
    gfn, xbox = det.sessions
    assert [(s.session_id, s.platform_id) for s in det.sessions] == [("p1", "gfn"), ("p2", "xbox")]
    assert det.clients[CLIENT].sessions == {"gfn": gfn, "xbox": xbox}
    reg = det.register_gameplay_server("203-0-113-7.pnt.nvidiagrid.net", _key(server_ip="203.0.113.7", sport=322), 20.0)
    assert (reg.platform_session, reg.setup) == (gfn, "unknown")
    _observe(det, ["cms.nvidia.com", "als.nvidia.com", "gx-target-experiments-frontend-api.nvidia.com"], t0=21.0)
    _observe(det, ["xgpuweb.xboxlive.com"], t0=25.0)
    assert (gfn.setup, xbox.setup, reg.setup) == ("desktop_app", "pc_browser", "unknown")
    later = det.register_gameplay_server("203-0-113-8.pnt.nvidiagrid.net", _key(server_ip="203.0.113.8", sport=322), 30.0)
    assert (later.platform_session, later.setup) == (gfn, "desktop_app")
    det.end_session(CLIENT, 40.0)
    assert (gfn.ended_at, xbox.ended_at, det.clients[CLIENT].sessions) == (40.0, 40.0, {})


# -- setup tie-break ----------------------------------------------------


def test_tie_goes_to_the_most_recent_discriminating_domain():
    det = _detector()
    _observe(det, GFN_CORE + ["img.nvidiagrid.net", "play.nvidia.com"])
    assert det.sessions[0].setup == "browser"  # both tables score 1.0
    assert not det.sessions[0].setup_ambiguous
    det = _detector()
    _observe(det, GFN_CORE + ["play.nvidia.com", "img.nvidiagrid.net"])
    assert det.sessions[0].setup == "mobile_app"


def _tied_codebook():
    return ServiceCodebook(
        platform_id="p",
        core_services=["a.x"],
        setup_tables={"one": ["b.x"], "two": ["b.x"]},
        gameplay_name_pattern="{ip}.x",
        mgmt_ports={},
    )


def test_tie_without_a_discriminating_domain_is_ambiguous():
    det = SessionDetector([_tied_codebook()])
    _observe(det, ["b.x.com", "a.x.com"])
    assert det.sessions[0].setup == "unknown"
    assert det.sessions[0].setup_ambiguous


def test_a_codebook_without_setups_gives_unknown_not_ambiguous():
    book = ServiceCodebook(
        platform_id="p", core_services=["a.x"], setup_tables={}, gameplay_name_pattern="{ip}.x", mgmt_ports={}
    )
    det = SessionDetector([book])
    _observe(det, ["a.x.com"])
    assert (det.sessions[0].setup, det.sessions[0].setup_ambiguous) == ("unknown", False)


def test_a_repeated_platform_id_is_refused(tmp_path):
    # the detector's per-platform tables would take the last entry of an id
    # and its signature matching the first, so the loader refuses the file
    with open(default_codebook_path()) as fh:
        data = json.load(fh)
    data["platforms"].append({**data["platforms"][1], "platform": "gfn"})
    path = tmp_path / "codebook.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="platform 'gfn' is listed twice"):
        load_codebooks(str(path))
    assert [cb.platform_id for cb in default_codebooks()] == ["gfn", "xbox"]


def test_refinement_ignores_an_ambiguous_tie():
    # the tie appears only after the core set completed: refinement keeps
    # the session's setup and its ambiguity flag as they were
    det = SessionDetector([_tied_codebook()])
    _observe(det, ["a.x.com", "b.x.com"])
    assert det.sessions[0].setup == "unknown"
    assert not det.sessions[0].setup_ambiguous


def test_tie_break_reads_only_names_in_the_window():
    book = ServiceCodebook(
        platform_id="p",
        core_services=["a.x"],
        setup_tables={"one": ["b.x"], "two": ["b.*"]},
        gameplay_name_pattern="{ip}.x",
        mgmt_ports={},
    )
    # b.x matches both tables; only b.z tells them apart
    det = SessionDetector([book])
    _observe(det, ["b.z"])
    _observe(det, ["b.x", "a.x.com"], t0=OBSERVATION_HORIZON_S, step=0.0)  # b.z on the horizon
    assert (det.sessions[0].setup, det.sessions[0].setup_ambiguous) == ("two", False)
    det = SessionDetector([book])
    _observe(det, ["b.z"])
    _observe(det, ["b.x", "a.x.com"], t0=OBSERVATION_HORIZON_S + 1.0, step=0.0)
    assert (det.sessions[0].setup, det.sessions[0].setup_ambiguous) == ("unknown", True)


# -- incremental matching against a full rescan -------------------------


class RescanDetector:
    """Reference: keeps every name it is given and, at each evaluation,
    rescans the names no older than the horizon before `now` against every
    pattern."""

    def __init__(self, codebooks):
        self.codebooks = codebooks
        self.names = {}  # client -> list of (ts, arrival, name), every name observed
        self.open = {}  # client -> {platform: SessionRecord not yet ended}
        self.sessions = []

    def observe(self, client, name, ts):
        names = self.names.setdefault(client, [])
        names.append((ts, len(names), name.lower()))

    def _window(self, client, now):
        return [e for e in self.names.get(client, ()) if e[0] >= now - OBSERVATION_HORIZON_S]

    def evaluate(self, client, now):
        window = self._window(client, now)
        names = [n for _, _, n in window]
        opened = self.open.setdefault(client, {})
        for cb in self.codebooks:
            setup, ambiguous = self._pick_setup(cb, window)
            session = opened.get(cb.platform_id)
            if session is not None:
                if setup != "unknown":
                    session.setup, session.setup_ambiguous = setup, ambiguous
            elif all(any(wildcard_match(p, n) for n in names) for p in cb.core_services):
                session = SessionRecord("p", client, cb.platform_id, setup, now)
                session.setup_ambiguous = ambiguous
                opened[cb.platform_id] = session
                self.sessions.append(session)

    def _pick_setup(self, cb, window):
        names = [n for _, _, n in window]
        scores = {
            s: (sum(any(wildcard_match(p, n) for n in names) for p in t) / len(t) if t else 0.0)
            for s, t in cb.setup_tables.items()
        }
        if not scores or max(scores.values()) < cb.setup_score_threshold:
            return "unknown", False
        top = [s for s, v in scores.items() if v == max(scores.values())]
        if len(top) == 1:
            return top[0], False
        for _, _, name in sorted(window, reverse=True):  # newest by (ts, arrival) first
            hits = [s for s in top if any(wildcard_match(p, name) for p in cb.setup_tables[s])]
            if len(hits) == 1:
                return hits[0], False
        return "unknown", True

    def end(self, client):
        self.open.pop(client, None)


WILD_CODEBOOK = ServiceCodebook(
    platform_id="wild",
    core_services=["a.x", "*.y"],
    # c.x matches a pattern of s1 and one of s2, so it never tells them
    # apart; s4 and s5 always score alike, so b.x alone is ambiguous
    setup_tables={"s1": ["b.x", "c.x"], "s2": ["c.*", "d.*"], "s3": [], "s4": ["b.x"], "s5": ["b.x"]},
    gameplay_name_pattern="{ip}.x",
    mgmt_ports={},
    setup_score_threshold=0.5,
)

CODEBOOK_NAMES = [
    "login.nvidia.com", "LOGIN.Nvidia.COM", "events.nvidia.com", "EVENTS.Nvidia.COM",
    "userstore.nvidia.com", "USERSTORE.Nvidia.COM",
    "gfnpc.api.entitlement-prod.nvidiagrid.net",
    "GFNPC.api.Entitlement-Prod.NvidiaGrid.net",
    "cms.nvidia.com", "als.nvidia.com", "gx-target-experiments-frontend-api.nvidia.com",
    "img.nvidiagrid.net", "IMG.nvidiagrid.net", "play.nvidia.com", "Play.Nvidia.Com",
    "login.xboxlive.com", "regional-node.xboxlive.com", "xgpu.xboxlive.com",
    "xgpuweb.xboxlive.com", "XGPUconsole.xboxlive.com",
    "a.x.com", "A.X", "q.y", "Q.Y.net", "b.x.com", "c.x", "c.z", "d.z", "D.Z.org",
]  # fmt: skip
NOISE_NAMES = [
    "y.net", "nvidia.com", "login", "login.nvidia", "nvidia.login.com", "xgpuweb", "x.a", "example.org",
]  # fmt: skip

STEP = st.tuples(
    st.sampled_from(["observe"] * 3 + ["observe+evaluate"] * 3 + ["evaluate", "end"]),
    st.sampled_from([CLIENT, CLIENT, CLIENT, packed("192.0.2.11")]),
    st.one_of(
        st.sampled_from(CODEBOOK_NAMES), st.sampled_from(CODEBOOK_NAMES), st.sampled_from(NOISE_NAMES)
    ),
    # mostly short steps; some out of order, some landing exactly on the horizon
    st.sampled_from([0.0, 1.0, 1.0, 2.0, 5.0, 10.0, 30.0, 300.0, 600.0, 700.0, -1.0, -30.0, -600.0]),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(wild=st.booleans(), steps=st.lists(STEP, min_size=40, max_size=120))
def test_incremental_detector_matches_full_rescan(wild, steps):
    books = ([WILD_CODEBOOK] if wild else []) + default_codebooks()
    det, ref = SessionDetector(books), RescanDetector(books)
    now = 0.0
    for op, client, name, dt in steps:
        now += dt
        if op.startswith("observe"):
            det.observe_service_name(FlowKey(client, 40000, packed("203.0.113.20"), 443, 6), name, now)
            ref.observe(client, name, now)
        if op.endswith("evaluate"):
            det.evaluate_codebook(client, now)
            ref.evaluate(client, now)
        if op == "end":
            det.end_session(client, now)
            ref.end(client)
        assert [
            (s.platform_id, s.setup, s.setup_ambiguous, s.detected_at) for s in det.sessions
        ] == [(s.platform_id, s.setup, s.setup_ambiguous, s.detected_at) for s in ref.sessions]


# -- evaluation cost ------------------------------------------------------


def test_evaluate_cost_does_not_grow_with_the_window(monkeypatch):
    # work = pattern comparisons (calls of whichever matcher the detector
    # uses) plus entries of the client's state visited, inside one
    # evaluate_codebook call
    import gamesight.detector as detector_module

    work = 0
    for name in ("wildcard_match", "labels_match"):
        matcher = getattr(detector_module, name, None)
        if matcher is not None:

            def counting(*args, _matcher=matcher):
                nonlocal work
                work += 1
                return _matcher(*args)

            monkeypatch.setattr(detector_module, name, counting)

    class Visited(dict):
        def _visit(self, n=1):
            nonlocal work
            work += n

        def __getitem__(self, key):
            self._visit()
            return dict.__getitem__(self, key)

        def get(self, key, default=None):
            self._visit()
            return dict.get(self, key, default)

        def __contains__(self, key):
            self._visit()
            return dict.__contains__(self, key)

        def __iter__(self):
            self._visit(len(self))
            return dict.__iter__(self)

        def items(self):
            self._visit(len(self))
            return dict.items(self)

        def values(self):
            self._visit(len(self))
            return dict.values(self)

    def evaluate_work(observed):
        counted = []
        # detection with no core domain yet, setup refinement, and a
        # refinement that breaks a tie between the mobile and browser tables
        for first in ([], GFN_CORE, GFN_CORE + ["img.nvidiagrid.net", "play.nvidia.com"]):
            det = _detector()
            _observe(det, first)
            for i in range(observed):  # names that match a core pattern, so that the client holds them
                det.observe_service_name(_key(cport=1000 + i), "login.nvidia.n%d.com" % i, 10.0 + i * 0.1)
            st = det.clients[CLIENT]
            st.observed_names, st.newest_match = Visited(st.observed_names), Visited(st.newest_match)
            before = work
            det.evaluate_codebook(CLIENT, 10.0 + observed * 0.1)
            counted.append((work - before, [s.setup for s in det.sessions]))
        return counted

    small = evaluate_work(400)
    assert [setups for _, setups in small] == [[], ["unknown"], ["browser"]]
    assert all(n > 0 for n, _ in small)
    assert evaluate_work(4000) == small
    # the matcher the counter wraps is the one observing a name runs
    before = work
    _detector().observe_service_name(_key(), "login.nvidia.com", 0.0)
    assert work > before


def test_names_that_match_no_pattern_are_not_kept():
    """130 names a second for 600 s from 300 clients (the SNI rate of a
    campus tap), none of them in a codebook: the detector keeps no name and
    no client state."""
    det = _detector()
    keys = [FlowKey(packed("10.0.%d.%d" % divmod(c, 256)), 40000, packed("198.51.100.1"), 443, 6) for c in range(300)]
    for i in range(130 * 600):
        key = keys[i % 300]
        det.observe_service_name(key, "www%d.news.example" % (i % 5000), i / 130)
        det.evaluate_codebook(key.client_ip, i / 130)
    assert det.clients == {}
    assert det.sessions == []


EVALUATED_AT = 1500.0


@pytest.mark.parametrize("login_last", [False, True], ids=["login-first", "login-last"])
@pytest.mark.parametrize(
    "login_at, sessions",
    [(EVALUATED_AT - OBSERVATION_HORIZON_S - 1.0, []), (EVALUATED_AT - OBSERVATION_HORIZON_S, ["gfn"])],
    ids=["past-the-horizon", "on-the-horizon"],
)
def test_a_core_name_counts_only_within_the_horizon(login_at, sessions, login_last):
    """login.nvidia.com opens a session with the rest of the core set,
    evaluated at 1500 s, only if it is no more than the horizon older,
    whether it arrives before or after the rest. A newer name that matches
    nothing, seen before it, holds nothing back."""
    det = _detector()
    det.observe_service_name(_key(cport=1), "news.example.org", login_at + 100.0)
    if not login_last:
        det.observe_service_name(_key(cport=2), "login.nvidia.com", login_at)
    for i, name in enumerate(GFN_CORE[1:]):
        det.observe_service_name(_key(cport=10 + i), name, EVALUATED_AT)
    if login_last:
        det.observe_service_name(_key(cport=2), "login.nvidia.com", login_at)
    det.evaluate_codebook(CLIENT, EVALUATED_AT)
    assert [s.platform_id for s in det.sessions] == sessions
