import pytest

from gamesight.flows import WINDOW_S, FlowTable
from gamesight.packets import Direction

from conftest import tcp_record, udp_record

CLIENT = "192.0.2.10"
SERVER = "203.0.113.7"
NETS = ("192.0.2.0/24",)


def test_canonical_key_involution():
    table = FlowTable(client_nets=NETS)
    up = udp_record(0.0, CLIENT, 5000, SERVER, 443, 10)
    down = udp_record(0.1, SERVER, 443, CLIENT, 5000, 10)
    k1, d1 = table.canonical_key(up)
    k2, d2 = table.canonical_key(down)
    assert k1 == k2
    assert d1 is Direction.UPSTREAM
    assert d2 is Direction.DOWNSTREAM
    assert (k1.client_ip, k1.server_ip) == (CLIENT, SERVER)


def test_orientation_warning_when_no_net_matches():
    table = FlowTable(client_nets=())
    a = udp_record(0.0, "10.0.0.1", 1, "10.0.0.2", 2, 5)
    b = udp_record(0.0, "10.0.0.2", 2, "10.0.0.1", 1, 5)
    k1, _ = table.canonical_key(a)
    k2, _ = table.canonical_key(b)
    assert k1 == k2  # still involution-stable via lower-IP rule
    assert table.orientation_warnings == 2


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
    assert table.window_series(flow) == []  # window [0,1) not closed while now < 1.0
    table.now = 99.5
    assert table.window_series(flow) == [[0, 1, 0, 10]]  # window 99 lies past the flow
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
    assert bts == flow.total_bytes


def test_window_series_gap_free():
    table = FlowTable(client_nets=NETS)
    flow = table.update(udp_record(0.2, CLIENT, 1, SERVER, 2, 10))
    assert table.window_series(flow) == []  # window [0,1) is still open
    flow = table.update(udp_record(3.7, CLIENT, 1, SERVER, 2, 10))
    assert [w[1] for w in table.window_series(flow)] == [1, 0, 0]  # open window 3 left out
    table.now = 5.0
    series = table.window_series(flow)
    assert len(series) == 4  # windows 0..3, including the empty 1 and 2
    assert [w[1] for w in series] == [1, 0, 0, 1]


def test_first_payload_sizes_exclude_syn_and_cap_at_four():
    table = FlowTable(client_nets=NETS)
    flow = table.update(tcp_record(0.0, CLIENT, 1, SERVER, 322, 12, flags=0x02))  # SYN w/ data
    for i, size in enumerate([517, 100, 200, 300, 400]):
        flow = table.update(tcp_record(0.1 + i * 0.1, CLIENT, 1, SERVER, 322, size))
    assert flow.first_payload_sizes_up == [517, 100, 200, 300]
    flow = table.update(tcp_record(1.0, SERVER, 322, CLIENT, 1, 1460))
    assert flow.first_payload_sizes_down == [1460]


def test_eviction_at_cap():
    table = FlowTable(client_nets=NETS, cap=3)
    for i in range(4):
        table.update(udp_record(float(i), CLIENT, 1000 + i, SERVER, 2, 10))
    assert len(table.flows) == 3
    assert table.evictions == 1
    ports = {k.client_port for k in table.flows}
    assert 1000 not in ports  # the oldest-idle flow went first
