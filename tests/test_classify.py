import dataclasses
import math

import pytest

from gamesight.classify import (
    CLASSIFY_WINDOWS,
    ClassifierCriteria,
    LabeledFlow,
    ROLE_COMBINED,
    ROLE_DOWN_AUDIO,
    ROLE_DOWN_VIDEO,
    ROLE_STUN,
    ROLE_UNCLASSIFIED,
    ROLE_UP_AUDIO,
    ROLE_USER_INPUT,
    calibrate,
    classify_flow,
    classify_windows,
    starts_gameplay,
)
from gamesight.codebook import default_codebook_path, load_codebooks
from gamesight.detector import ServerRegistration
from gamesight.errors import InseparableClasses
from gamesight.flows import FlowKey, FlowState

from conftest import packed, stats

CRIT = ClassifierCriteria()


def _windows(pps_in, pps_out, bps_in, n=3):
    return [stats(pps_in=pps_in, pps_out=pps_out, bps_in=bps_in) for _ in range(n)]


# -- console-class volumetric rules (paper envelope examples) ----------


def test_down_video():
    # 28 Mbps inbound at ~2400 pps
    assert classify_windows(_windows(2400, 2, 28e6), "console_app", CRIT) == ROLE_DOWN_VIDEO


def test_down_audio():
    # 300 pps in vs 2 pps out, ~36 kbps
    assert classify_windows(_windows(300, 2, 36e3), "console_app", CRIT) == ROLE_DOWN_AUDIO


def test_up_audio():
    # 2 pps in vs 100 pps out
    assert classify_windows(_windows(2, 100, 160), "console_app", CRIT) == ROLE_UP_AUDIO


def test_user_input_balanced_rates():
    # matched 180 pps both ways -> |delta| <= 10
    assert classify_windows(_windows(180, 175, 60e3), "console_app", CRIT) == ROLE_USER_INPUT


def test_console_ambiguous_band_unclassified():
    # never reachable with integer pps and the default 10/10 thresholds, but
    # a custom criteria set can open a gap between "balanced" and "dominant"
    crit = ClassifierCriteria(input_pps_delta_max=5.0, audio_dominance_pps_delta=20.0)
    assert classify_windows(_windows(50, 40, 1e4), "console_app", crit) == ROLE_UNCLASSIFIED


# -- browser-class rules -----------------------------------------------


def test_stun_low_rate():
    assert classify_windows(_windows(1, 1, 200), "browser", CRIT) == ROLE_STUN


def test_combined_media_input():
    assert classify_windows(_windows(900, 120, 20e6), "browser", CRIT) == ROLE_COMBINED


def test_browser_mid_rate_unclassified():
    assert classify_windows(_windows(20, 20, 1e5), "browser", CRIT) == ROLE_UNCLASSIFIED


def test_empty_windows_unclassified():
    assert classify_windows([], "console_app", CRIT) == ROLE_UNCLASSIFIED


def test_median_skips_startup_transient():
    # first window is a cold partial one; the median ignores it
    windows = [
        stats(pps_in=10, bps_in=1e5),
        stats(pps_in=2400, bps_in=28e6),
        stats(pps_in=2500, bps_in=29e6),
    ]
    assert classify_windows(windows, "console_app", CRIT) == ROLE_DOWN_VIDEO
    assert CLASSIFY_WINDOWS == 3


# -- candidate gating ---------------------------------------------------


def _reg(server_ip="203.0.113.7", port_range=None):
    return ServerRegistration(
        client_ip=packed("192.0.2.10"),
        server_ip=packed(server_ip),
        registered_at=100.0,
        setup_class="console_app",
        platform_id="gfn",
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
    assert classify_flow(_flow(sport=47000), _windows(2400, 2, 28e6), reg, CRIT) == ROLE_UNCLASSIFIED
    assert classify_flow(_flow(sport=1100), _windows(2400, 2, 28e6), reg, CRIT) == ROLE_DOWN_VIDEO


# -- calibration --------------------------------------------------------


def _labeled(pps_in, pps_out, bps_in, role, n=5):
    return LabeledFlow(
        stats=[stats(pps_in=pps_in, pps_out=pps_out, bps_in=bps_in) for _ in range(n)],
        true_role=role,
    )


def _training_set():
    return [
        _labeled(2400, 2, 20e6, ROLE_DOWN_VIDEO),
        _labeled(2800, 2, 28e6, ROLE_DOWN_VIDEO),
        _labeled(300, 2, 36e3, ROLE_DOWN_AUDIO),
        _labeled(2, 100, 160, ROLE_UP_AUDIO),
        _labeled(120, 118, 34e3, ROLE_USER_INPUT),
    ]


def test_calibrate_geometric_mean_threshold():
    crit = calibrate(_training_set())
    # [DERIVED] quietest video = 20 Mbps, loudest non-video = 36 kbps
    assert crit.video_min_bps_in == pytest.approx(math.sqrt(20e6 * 36e3))
    # widest input spread = |120-118| = 2, +1 pps margin
    assert crit.input_pps_delta_max == pytest.approx(3.0)
    assert crit.audio_dominance_pps_delta == pytest.approx(3.0)


def test_calibrate_reproduces_labels():
    crit = calibrate(_training_set())
    for lf in _training_set():
        assert classify_windows(lf.stats, "console_app", crit) == lf.true_role


def test_calibrate_inseparable_overlap():
    bad = _training_set() + [_labeled(2000, 2, 21e6, ROLE_DOWN_AUDIO)]
    with pytest.raises(InseparableClasses):
        calibrate(bad)


def test_calibrate_requires_all_roles():
    with pytest.raises(ValueError):
        calibrate(_training_set()[:3])


def test_labeled_flow_needs_five_windows():
    with pytest.raises(ValueError):
        _labeled(1, 1, 1, ROLE_USER_INPUT, n=4)


# -- criteria serialization --------------------------------------------


def test_criteria_roundtrip():
    crit = ClassifierCriteria(video_min_bps_in=7e6, input_pps_delta_max=3.0)
    assert ClassifierCriteria.from_dict(dataclasses.asdict(crit)) == crit
    assert [f.name for f in dataclasses.fields(ClassifierCriteria)] == [
        "video_min_bps_in",
        "input_pps_delta_max",
        "audio_dominance_pps_delta",
    ]  # the thresholds `calibrate` sets, and no other


def test_criteria_validation():
    # a key that is not a calibrated threshold is rejected, not ignored
    for key in ("mgmt_window_s", "video_min_bps"):
        with pytest.raises(TypeError, match=key):
            ClassifierCriteria.from_dict({"video_min_bps_in": 7e6, key: 1.0})


def test_shipped_codebook_carries_the_default_criteria():
    assert load_codebooks(default_codebook_path())[1] == ClassifierCriteria()
