import math
import random

import pytest

from gamesight.classify import CLASSIFY_WINDOWS
from gamesight.flows import CLOSED_LINGER_S, IDLE_TIMEOUT_S, SWEEP_S, WINDOW_S, FlowTable
from gamesight.packets import TCP_FIN, TCP_RST, TCP_SYN, ip_text

from conftest import packed, tcp_record, udp_record

CLIENT = "192.0.2.10"
SERVER = "203.0.113.7"
NETS = ("192.0.2.0/24",)
TCP_ACK = 0x10


def test_canonical_key_involution():
    table = FlowTable(client_nets=NETS)
    up = udp_record(0.0, CLIENT, 5000, SERVER, 443, 10)
    down = udp_record(0.1, SERVER, 443, CLIENT, 5000, 10)
    k1, d1 = table.canonical_key(up)
    k2, d2 = table.canonical_key(down)
    assert k1 == k2
    assert d1 is False  # upstream
    assert d2 is True  # downstream
    assert (ip_text(k1.client_ip), ip_text(k1.server_ip)) == (CLIENT, SERVER)


def test_orientation_warning_when_no_net_matches():
    table = FlowTable(client_nets=())
    a = udp_record(0.0, "10.0.0.1", 1, "10.0.0.2", 2, 5)
    b = udp_record(0.0, "10.0.0.2", 2, "10.0.0.1", 1, 5)
    k1, _ = table.canonical_key(a)
    k2, _ = table.canonical_key(b)
    assert k1 == k2  # still involution-stable via lower-IP rule
    assert table.orientation_warnings == 2


@pytest.mark.parametrize(
    "low_text, high_text",
    [("10.0.0.10", "10.0.0.9"), ("2001:db8::10", "2001:db8::a"), ("2001:db8::10", "2001:db8::9")],
)
def test_guessed_orientation_follows_address_text_order(low_text, high_text):
    # the packed bytes order these pairs the other way round; the client
    # side of a guessed flow is the lower address text, either way the
    # flow's first packet goes, and the flow counts one warning
    assert packed(low_text) > packed(high_text)
    for first, second in ((low_text, high_text), (high_text, low_text)):
        table = FlowTable(client_nets=NETS)
        flow = table.update(udp_record(0.0, first, 5000, second, 5000, 10))
        table.update(udp_record(0.1, second, 5000, first, 5000, 10))
        assert (ip_text(flow.key.client_ip), ip_text(flow.key.server_ip)) == (low_text, high_text)
        assert len(table.flows) == 1
        assert table.orientation_warnings == 1


def _random_packets(rng: random.Random, count: int) -> list:
    """Packets among client and server addresses of both IP versions: one
    side in the client nets, both sides, neither, and self-addressed."""
    hosts = {
        4: (["192.0.2.%d" % i for i in (1, 2, 10)], ["203.0.113.%d" % i for i in (1, 7, 200)]),
        6: (["2001:db8:1::%x" % i for i in (1, 2, 0xA)], ["2001:db8:2::%x" % i for i in (1, 7, 0xC8)]),
    }
    ports = (53, 443, 5000, 49003)
    out = []
    for i in range(count):
        clients, servers = hosts[rng.choice((4, 6))]
        pool = rng.choice((clients + servers, clients, servers))
        src, dst = rng.choice(pool), rng.choice(pool)
        sport, dport = rng.choice(ports), rng.choice(ports)
        if i % 17 == 0:
            dst, dport = src, sport  # self-addressed
        proto = rng.choice((udp_record, tcp_record))
        out.append(proto(i * 0.01, src, sport, dst, dport, rng.randrange(0, 1400)))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_update_direction_matches_canonical_key(seed):
    nets = ("192.0.2.0/24", "2001:db8:1::/64")
    reference = FlowTable(client_nets=nets)
    table = FlowTable(client_nets=nets)
    keys = set()
    guessed_flows = 0
    for pkt in _random_packets(random.Random(seed), 2000):
        warnings = reference.orientation_warnings
        key, down = reference.canonical_key(pkt)
        flow = table.update(pkt)
        assert flow.key == key
        assert flow.down is down
        if pkt.src_ip == pkt.dst_ip and pkt.src_port == pkt.dst_port:
            assert down is True
        if flow.total_pkts == 1:
            guessed_flows += reference.orientation_warnings - warnings
        keys.add(key)
    assert set(table.flows) == keys
    # one warning per flow created with a guessed orientation, not one per packet
    assert 0 < table.orientation_warnings == guessed_flows < reference.orientation_warnings


def test_orientation_warnings_count_each_guessed_flow():
    table = FlowTable(client_nets=NETS)
    for i in range(3):
        table.update(udp_record(i, "10.0.0.1", 1, "10.0.0.2", 2, 5))
        table.update(udp_record(i, "10.0.0.2", 2, "10.0.0.1", 1, 5))
        table.update(udp_record(i, "10.0.0.1", 3, "10.0.0.2", 2, 5))
        table.update(udp_record(i, CLIENT, 1, SERVER, 2, 5))
    assert len(table.flows) == 3
    assert table.orientation_warnings == 2  # neither side of the 10.0.0.0/8 flows is in the nets


def test_client_nets_match_by_version_and_range():
    table = FlowTable(client_nets=("10.0.0.0/8", "2001:db8::/32"))
    assert table._is_client(packed("10.0.0.0"))
    assert table._is_client(packed("10.255.255.255"))
    assert not table._is_client(packed("11.0.0.0"))
    assert not table._is_client(packed("9.255.255.255"))
    assert table._is_client(packed("2001:db8:ffff::1"))
    assert not table._is_client(packed("2001:db9::1"))
    assert not table._is_client(packed("::a00:1"))  # 10.0.0.1's value, but IPv6


def test_window_rates_example():
    # [DERIVED] 600 downstream packets spread over 2 s -> 300 pps per window
    table = FlowTable(client_nets=NETS)
    flow = None
    for i in range(600):
        flow = table.update(udp_record(i * (2.0 / 600), SERVER, 443, CLIENT, 5000, 100))
    pkts_in, pkts_out, _, _ = flow.windows[0]
    assert pkts_in / WINDOW_S == pytest.approx(300.0)
    assert pkts_out / WINDOW_S == 0.0


def test_window_bitrate_example():
    # [DERIVED] 3000 x 1416 B downstream in one second ~= 33.98 Mbps
    table = FlowTable(client_nets=NETS)
    flow = None
    for i in range(3000):
        flow = table.update(udp_record(i / 3000.0, SERVER, 443, CLIENT, 5000, 1416))
    bps_in = flow.windows[0][2] * 8 / WINDOW_S
    assert bps_in == pytest.approx(3000 * 1416 * 8)
    assert bps_in / 1e6 == pytest.approx(33.984)


def test_unclosed_window_raises():
    # An open window, or one past the flow's last packet, is never served;
    # a window no packet fell in has no entry of its own.
    table = FlowTable(client_nets=NETS)
    flow = table.update(udp_record(0.5, CLIENT, 1, SERVER, 2, 10))
    assert table.window_series(flow, CLASSIFY_WINDOWS) == []  # window [0,1) not closed while now < 1.0
    table.now = 99.5
    assert table.window_series(flow, CLASSIFY_WINDOWS) == [[0, 1, 0, 10]]  # window 99 lies past the flow
    with pytest.raises(KeyError):
        flow.windows[99]


def test_conservation_window_sums_equal_totals():
    table = FlowTable(client_nets=NETS)
    flow = None
    for i in range(257):
        src, sport, dst, dport = (
            (CLIENT, 7, SERVER, 8) if i % 3 else (SERVER, 8, CLIENT, 7)
        )
        flow = table.update(udp_record(i * 0.037, src, sport, dst, dport, 10 + i % 50))
    pkts = sum(w[0] + w[1] for w in flow.windows.values())
    bts = sum(w[2] + w[3] for w in flow.windows.values())
    assert pkts == flow.total_pkts == 257
    assert bts == sum(10 + i % 50 for i in range(257))


def test_window_series_gap_free():
    table = FlowTable(client_nets=NETS)
    flow = table.update(udp_record(0.2, CLIENT, 1, SERVER, 2, 10))
    assert table.window_series(flow, 4) == []  # window [0,1) is still open
    flow = table.update(udp_record(3.7, CLIENT, 1, SERVER, 2, 10))
    assert [w[1] for w in table.window_series(flow, 4)] == [1, 0, 0]  # open window 3 left out
    table.now = 5.0
    series = table.window_series(flow, 4)
    assert len(series) == 4  # windows 0..3, including the empty 1 and 2
    assert [w[1] for w in series] == [1, 0, 0, 1]
    # capped: the first CLASSIFY_WINDOWS (3) only, which is all the classifier reads
    assert [w[1] for w in table.window_series(flow, CLASSIFY_WINDOWS)] == [1, 0, 0]


def test_only_udp_flows_count_windows():
    table = FlowTable(client_nets=NETS)
    tcp = table.update(tcp_record(0.0, CLIENT, 1, SERVER, 443, 100))
    udp = table.update(udp_record(0.0, CLIENT, 1, SERVER, 443, 100))
    table.update(tcp_record(1.5, SERVER, 443, CLIENT, 1, 1460))
    assert tcp.windows is None
    assert tcp.total_pkts == 2
    assert udp.windows == {0: [0, 1, 0, 100]}


def test_eviction_at_cap():
    table = FlowTable(client_nets=NETS)
    table.cap = 3
    for i in range(4):
        table.update(udp_record(float(i), CLIENT, 1000 + i, SERVER, 2, 10))
    assert len(table.flows) == 3
    assert table.evictions == 1
    ports = {k.client_port for k in table.flows}
    assert 1000 not in ports  # the oldest-idle flow went first


# -- expiry --------------------------------------------------------------


def _tick(table, ts):
    """A packet of another, busy flow that moves the capture clock to `ts`."""
    table.update(udp_record(ts, "192.0.2.99", 53, SERVER, 53, 1))


@pytest.mark.parametrize("flags", [TCP_FIN | TCP_ACK, TCP_RST], ids=["fin", "rst"])
def test_a_closed_flow_expires_a_linger_after_its_last_packet(flags):
    table = FlowTable(client_nets=NETS)
    flow = table.update(tcp_record(0.0, CLIENT, 1, SERVER, 443, 0, flags=TCP_SYN))  # sweeps; next sweep at 5
    table.update(tcp_record(1.0, SERVER, 443, CLIENT, 1, 0, flags=flags))
    assert flow.closed
    _tick(table, 1.0 + CLOSED_LINGER_S - SWEEP_S)  # sweep at 6; next at 11
    _tick(table, 1.0 + CLOSED_LINGER_S)  # sweep at 11: the last packet is exactly the linger old
    assert table.flows[flow.key] is flow
    assert table.expiries == 0
    _tick(table, 1.0 + CLOSED_LINGER_S + SWEEP_S)
    assert flow.key not in table.flows
    assert table.expiries == 1


@pytest.mark.parametrize("record", [udp_record, tcp_record], ids=["udp", "tcp"])
def test_an_idle_flow_expires_after_the_idle_timeout(record):
    table = FlowTable(client_nets=NETS)
    flow = table.update(record(0.0, CLIENT, 1, SERVER, 443, 100))
    for k in range(1, int(IDLE_TIMEOUT_S / SWEEP_S) + 1):
        _tick(table, k * SWEEP_S)  # sweeps up to the one at exactly the timeout
    assert table.flows[flow.key] is flow
    assert not flow.closed
    _tick(table, IDLE_TIMEOUT_S + SWEEP_S)
    assert flow.key not in table.flows
    assert table.expiries == 1
    assert len(table.flows) == 1  # the clock's own flow


def test_a_packet_on_an_expired_five_tuple_starts_a_new_flow():
    table = FlowTable(client_nets=NETS)
    old = table.update(udp_record(0.0, CLIENT, 1, SERVER, 443, 100))
    table.update(udp_record(0.5, SERVER, 443, CLIENT, 1, 200))
    _tick(table, IDLE_TIMEOUT_S + 1.0)
    new = table.update(udp_record(IDLE_TIMEOUT_S + 2.0, SERVER, 443, CLIENT, 1, 300))
    assert new is not old
    assert new.key == old.key  # oriented afresh, by the client nets
    assert (new.total_pkts, new.first_ts) == (1, IDLE_TIMEOUT_S + 2.0)
    assert new.windows == {int(IDLE_TIMEOUT_S + 2.0): [1, 0, 300, 0]}
    assert table.expiries == 1


def _boundary_stream(rng: random.Random, count: int) -> list:
    """UDP packets of a few IPv4 and IPv6 flows, both directions, whose times
    cross windows, skip windows, land on window boundaries and one ulp either
    side of them, and step back into earlier windows."""
    pairs = [
        (CLIENT, SERVER),
        ("192.0.2.11", "198.51.100.9"),
        ("2001:db8:1::a", "2001:db8:2::7"),
        ("2001:db8:1::b", "2001:db8:2::c8"),
    ]
    out, ts = [], 0.0
    for _ in range(count):
        step = rng.random()
        if step < 0.01:
            ts += rng.uniform(1.0, 4.0) * WINDOW_S  # skip windows
        elif step < 0.06:
            edge = (int(ts // WINDOW_S) + rng.choice((0, 1))) * WINDOW_S
            ts = max(ts, rng.choice((edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf))))
        else:
            ts += rng.expovariate(400.0)
        at = ts
        if rng.random() < 0.05:  # late: back into the open window or earlier ones
            at = max(0.0, ts - rng.uniform(0.0, 3.0) * WINDOW_S)
            if rng.random() < 0.5:
                edge = float(int(at // WINDOW_S)) * WINDOW_S
                at = rng.choice((edge, math.nextafter(edge, math.inf)))
        client, server = rng.choice(pairs)
        src, dst = (client, server) if rng.random() < 0.3 else (server, client)
        sport, dport = (5000, 49003) if src == client else (49003, 5000)
        out.append(udp_record(at, src, sport, dst, dport, rng.randrange(0, 1400)))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_windows_equal_indexing_every_packet(seed):
    # the open window a flow keeps gives the same counts as indexing each
    # packet by int(ts // WINDOW_S); a flow whose windows are dropped part
    # way through counts no window again
    rng = random.Random(seed)
    packets = _boundary_stream(rng, 6000)
    nets = ("192.0.2.0/24", "2001:db8:1::/64")
    table = FlowTable(client_nets=nets)
    reference: dict = {}
    dropped, drop_at, after_drop = None, len(packets) // 2, 0
    for i, pkt in enumerate(packets):
        flow = table.update(pkt)
        if i == drop_at:
            dropped = flow
            flow.drop_windows()
        elif flow is dropped:
            after_drop += 1
        if flow is dropped:
            continue
        counts = reference.setdefault(flow.key, {}).setdefault(int(pkt.ts // WINDOW_S), [0, 0, 0, 0])
        counts[0 if flow.down else 1] += 1
        counts[2 if flow.down else 3] += pkt.payload_len
    assert (len(table.flows), table.expiries) == (4, 0)  # one key is one flow
    for key, flow in table.flows.items():
        if flow is dropped:
            assert flow.windows is None and flow.win is None and after_drop > 100
        else:
            assert flow.windows == reference[key]
    # the streams did reach every case the window cache decides on
    stamps = [p.ts for p in packets]
    assert any(t == int(t) and t > 0 for t in stamps)
    assert any(math.nextafter(t, math.inf) == math.ceil(t) for t in stamps if t != int(t))
    assert any(math.nextafter(math.floor(t), math.inf) == t for t in stamps if t != int(t))
    assert any(b < a for a, b in zip(stamps, stamps[1:]))
    assert any(int(b // WINDOW_S) - int(a // WINDOW_S) > 1 for a, b in zip(stamps, stamps[1:]))
