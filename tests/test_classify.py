import pytest

from gamesight.classify import (
    CLASSIFY_WINDOWS,
    INPUT_PPS_DELTA_MAX,
    ROLE_COMBINED,
    ROLE_DOWN_AUDIO,
    ROLE_DOWN_VIDEO,
    ROLE_STUN,
    ROLE_UNCLASSIFIED,
    ROLE_UP_AUDIO,
    ROLE_USER_INPUT,
    classify_flow,
    classify_windows,
    starts_gameplay,
)
from gamesight.detector import ServerRegistration
from gamesight.flows import FlowKey, FlowState

from conftest import packed, stats


def _windows(pps_in, pps_out, bps_in, n=3):
    return [stats(pps_in=pps_in, pps_out=pps_out, bps_in=bps_in) for _ in range(n)]


# -- console-class volumetric rules (paper envelope examples) ----------


def test_down_video():
    # 28 Mbps inbound at ~2400 pps
    assert classify_windows(_windows(2400, 2, 28e6), "console_app") == ROLE_DOWN_VIDEO


def test_down_audio():
    # 300 pps in vs 2 pps out, ~36 kbps
    assert classify_windows(_windows(300, 2, 36e3), "console_app") == ROLE_DOWN_AUDIO


def test_up_audio():
    # 2 pps in vs 100 pps out
    assert classify_windows(_windows(2, 100, 160), "console_app") == ROLE_UP_AUDIO


def test_user_input_balanced_rates():
    # matched 180 pps both ways -> |delta| <= 10
    assert classify_windows(_windows(180, 175, 60e3), "console_app") == ROLE_USER_INPUT


@pytest.mark.parametrize(
    "windows, role",
    [
        (_windows(60, 50, 1e4), ROLE_USER_INPUT),
        (_windows(50, 60, 1e4), ROLE_USER_INPUT),
        # a flow that ends after two windows is classified at finalize on
        # their median, which can sit half a packet per second past the line
        ([stats(pps_in=60, pps_out=50), stats(pps_in=61, pps_out=50)], ROLE_DOWN_AUDIO),
        ([stats(pps_in=50, pps_out=60), stats(pps_in=50, pps_out=61)], ROLE_UP_AUDIO),
        (_windows(61, 50, 1e4), ROLE_DOWN_AUDIO),
        (_windows(50, 61, 1e4), ROLE_UP_AUDIO),
    ],
    ids=["+10", "-10", "+10.5", "-10.5", "+11", "-11"],
)
def test_console_delta_boundary(windows, role):
    # below the video bitrate every console flow gets one of three roles: a
    # pps delta of at most INPUT_PPS_DELTA_MAX is input, any wider one audio
    assert INPUT_PPS_DELTA_MAX == 10.0
    assert classify_windows(windows, "console_app") == role


# -- browser-class rules -----------------------------------------------


def test_stun_low_rate():
    assert classify_windows(_windows(1, 1, 200), "browser") == ROLE_STUN


def test_combined_media_input():
    assert classify_windows(_windows(900, 120, 20e6), "browser") == ROLE_COMBINED


def test_browser_mid_rate_unclassified():
    assert classify_windows(_windows(20, 20, 1e5), "browser") == ROLE_UNCLASSIFIED


def test_empty_windows_unclassified():
    assert classify_windows([], "console_app") == ROLE_UNCLASSIFIED


def test_median_skips_startup_transient():
    # first window is a cold partial one; the median ignores it
    windows = [
        stats(pps_in=10, bps_in=1e5),
        stats(pps_in=2400, bps_in=28e6),
        stats(pps_in=2500, bps_in=29e6),
    ]
    assert classify_windows(windows, "console_app") == ROLE_DOWN_VIDEO
    assert CLASSIFY_WINDOWS == 3


# -- candidate gating ---------------------------------------------------


def _reg(server_ip="203.0.113.7", port_range=None):
    return ServerRegistration(
        client_ip=packed("192.0.2.10"),
        server_ip=packed(server_ip),
        registered_at=100.0,
        setup_class="console_app",
        platform_id="gfn",
        session_id="s1",
        setup="desktop_app",
        server_port_range=port_range,
    )


def _flow(server_ip="203.0.113.7", sport=47000, first_ts=100.2):
    key = FlowKey(packed("192.0.2.10"), 49005, packed(server_ip), sport, 17)
    return FlowState(key=key, first_ts=first_ts, last_ts=first_ts + 5)


def test_gate_server_ip():
    flow = _flow(server_ip="203.0.113.99")
    assert not starts_gameplay(flow, _reg())


def test_gate_client_ip():
    flow = FlowState(key=FlowKey(packed("192.0.2.11"), 49005, packed("203.0.113.7"), 47000, 17), first_ts=100.2, last_ts=105.2)
    assert not starts_gameplay(flow, _reg())


def test_gate_start_window():
    assert not starts_gameplay(_flow(first_ts=101.0), _reg())
    assert not starts_gameplay(_flow(first_ts=99.0), _reg())
    assert starts_gameplay(_flow(first_ts=100.4), _reg())


def test_gate_port_range():
    reg = _reg(port_range=(1040, 1190))
    assert classify_flow(_flow(sport=47000), _windows(2400, 2, 28e6), reg) == ROLE_UNCLASSIFIED
    assert classify_flow(_flow(sport=1100), _windows(2400, 2, 28e6), reg) == ROLE_DOWN_VIDEO
