"""Role classification of gameplay UDP flows from volumetric profiles."""

from __future__ import annotations

import statistics
from typing import TYPE_CHECKING

from .codebook import CLASS_BROWSER
from .flows import WINDOW_S, FlowState

if TYPE_CHECKING:
    from .detector import ServerRegistration

ROLE_MGMT = "gameplay_mgmt"
ROLE_DOWN_VIDEO = "down_video"
ROLE_DOWN_AUDIO = "down_audio"
ROLE_UP_AUDIO = "up_audio"
ROLE_USER_INPUT = "user_input"
ROLE_COMBINED = "combined_media_input"
ROLE_STUN = "stun_webrtc"
ROLE_UNCLASSIFIED = "unclassified"

VIDEO_ROLES = (ROLE_DOWN_VIDEO, ROLE_COMBINED)  # the flows QoE is measured on

CLASSIFY_WINDOWS = 3  # median over the first closed windows skips the startup transient
STUN_MAX_PPS = 2.0  # browser class: total pps at or below this is the STUN flow
COMBINED_MIN_PPS = 100.0  # browser class: total pps at or above this is the combined flow
VIDEO_MIN_BPS_IN = 5e6  # console class: inbound bps above this is the video flow
INPUT_PPS_DELTA_MAX = 10.0  # console class: |pps in - pps out| at or below this is user input
MGMT_WINDOW_S = 0.5  # a gameplay UDP flow starts at most this long after its registration


def _median_profile(windows: list[list[int]]) -> tuple[float, float, float]:
    """Median (pps_in, pps_out, bps_in) over the given window count lists
    (`FlowState.windows` layout)."""
    pps_in = statistics.median(w[0] / WINDOW_S for w in windows)
    pps_out = statistics.median(w[1] / WINDOW_S for w in windows)
    bps_in = statistics.median(w[2] * 8 / WINDOW_S for w in windows)
    return pps_in, pps_out, bps_in


def classify_windows(windows: list[list[int]], setup_class: str) -> str:
    """Pure volumetric classification given a flow's closed window counts;
    only the first `CLASSIFY_WINDOWS` of them are read."""
    if not windows:
        return ROLE_UNCLASSIFIED
    pps_in, pps_out, bps_in = _median_profile(windows[:CLASSIFY_WINDOWS])
    if setup_class == CLASS_BROWSER:
        if pps_in + pps_out <= STUN_MAX_PPS:
            return ROLE_STUN
        if pps_in + pps_out >= COMBINED_MIN_PPS:
            return ROLE_COMBINED
        return ROLE_UNCLASSIFIED
    # console application: four single-purpose flows
    if bps_in > VIDEO_MIN_BPS_IN:
        return ROLE_DOWN_VIDEO
    delta = pps_in - pps_out
    if abs(delta) <= INPUT_PPS_DELTA_MAX:
        return ROLE_USER_INPUT
    return ROLE_DOWN_AUDIO if delta > 0 else ROLE_UP_AUDIO


def starts_gameplay(flow: FlowState, reg: ServerRegistration) -> bool:
    """Whether `flow` goes from the registration's client to the registered
    gameplay server and starts within `MGMT_WINDOW_S` of the registration."""
    return (
        flow.key.server_ip == reg.server_ip
        and flow.key.client_ip == reg.client_ip
        and reg.registered_at <= flow.first_ts <= reg.registered_at + MGMT_WINDOW_S
    )


def classify_flow(flow: FlowState, windows: list[list[int]], reg: ServerRegistration) -> str:
    """Role of a gameplay UDP flow that joined `reg` (see `starts_gameplay`),
    or unclassified when its server port is outside the platform's gameplay
    port range."""
    if reg.server_port_range is not None:
        lo, hi = reg.server_port_range
        if not lo <= flow.key.server_port <= hi:
            return ROLE_UNCLASSIFIED
    return classify_windows(windows, reg.setup_class)
