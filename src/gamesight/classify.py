"""Role classification of gameplay UDP flows from volumetric profiles."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InseparableClasses
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

CONSOLE_ROLES = (ROLE_DOWN_VIDEO, ROLE_DOWN_AUDIO, ROLE_UP_AUDIO, ROLE_USER_INPUT)
VIDEO_ROLES = (ROLE_DOWN_VIDEO, ROLE_COMBINED)  # the flows QoE is measured on

CLASSIFY_WINDOWS = 3  # median over the first closed windows skips the startup transient
STUN_MAX_PPS = 2.0  # browser class: total pps at or below this is the STUN flow
COMBINED_MIN_PPS = 100.0  # browser class: total pps at or above this is the combined flow
MGMT_WINDOW_S = 0.5  # a gameplay UDP flow starts at most this long after its registration


@dataclass
class ClassifierCriteria:
    """The console-class thresholds `calibrate` derives from labelled flows."""

    video_min_bps_in: float = 5_000_000.0
    input_pps_delta_max: float = 10.0
    audio_dominance_pps_delta: float = 10.0

    @classmethod
    def from_dict(cls, d: dict) -> "ClassifierCriteria":
        """Raises TypeError on a key that is not a field, ValueError on a
        value that is not a number."""
        return cls(**{k: float(v) for k, v in d.items()})


def _median_profile(windows: list[list[int]]) -> tuple[float, float, float]:
    """Median (pps_in, pps_out, bps_in) over the given window count lists
    (`FlowState.windows` layout)."""
    pps_in = statistics.median(w[0] / WINDOW_S for w in windows)
    pps_out = statistics.median(w[1] / WINDOW_S for w in windows)
    bps_in = statistics.median(w[2] * 8 / WINDOW_S for w in windows)
    return pps_in, pps_out, bps_in


def classify_windows(windows: list[list[int]], setup_class: str, criteria: ClassifierCriteria) -> str:
    """Pure volumetric classification given a flow's closed window counts;
    only the first `CLASSIFY_WINDOWS` of them are read."""
    if not windows:
        return ROLE_UNCLASSIFIED
    pps_in, pps_out, bps_in = _median_profile(windows[:CLASSIFY_WINDOWS])
    if setup_class == "browser":
        if pps_in + pps_out <= STUN_MAX_PPS:
            return ROLE_STUN
        if pps_in + pps_out >= COMBINED_MIN_PPS:
            return ROLE_COMBINED
        return ROLE_UNCLASSIFIED
    # console application: four single-purpose flows
    if bps_in > criteria.video_min_bps_in:
        return ROLE_DOWN_VIDEO
    delta = pps_in - pps_out
    if abs(delta) <= criteria.input_pps_delta_max:
        return ROLE_USER_INPUT
    if delta > criteria.audio_dominance_pps_delta:
        return ROLE_DOWN_AUDIO
    if -delta > criteria.audio_dominance_pps_delta:
        return ROLE_UP_AUDIO
    return ROLE_UNCLASSIFIED


def starts_gameplay(flow: FlowState, reg: ServerRegistration) -> bool:
    """Whether `flow` goes from the registration's client to the registered
    gameplay server and starts within `MGMT_WINDOW_S` of the registration."""
    return (
        flow.key.server_ip == reg.server_ip
        and flow.key.client_ip == reg.client_ip
        and reg.registered_at <= flow.first_ts <= reg.registered_at + MGMT_WINDOW_S
    )


def classify_flow(
    flow: FlowState,
    windows: list[list[int]],
    reg: ServerRegistration,
    criteria: ClassifierCriteria,
) -> str:
    """Role of a gameplay UDP flow that joined `reg` (see `starts_gameplay`),
    or unclassified when its server port is outside the platform's gameplay
    port range."""
    if reg.server_port_range is not None:
        lo, hi = reg.server_port_range
        if not lo <= flow.key.server_port <= hi:
            return ROLE_UNCLASSIFIED
    return classify_windows(windows, reg.setup_class, criteria)


# -- calibration -------------------------------------------------------


@dataclass
class LabeledFlow:
    stats: list[list[int]]  # window count lists, `FlowState.windows` layout
    true_role: str
    setup_class: str = "console_app"

    def __post_init__(self):
        if len(self.stats) < 5:
            raise ValueError("labeled flows need at least 5 windows")


@dataclass
class CalibrationConflict:
    flow: LabeledFlow
    predicted: str

    def __repr__(self):
        return "CalibrationConflict(true=%s, predicted=%s)" % (
            self.flow.true_role,
            self.predicted,
        )


def calibrate(labeled: list[LabeledFlow]) -> ClassifierCriteria:
    """Derive classification thresholds from labeled flows.

    The video threshold is the geometric mean of the loudest non-video
    flow and the quietest steady video flow; packet-rate deltas come from
    the widest spread seen on true user-input flows plus a 1 pps margin.
    Raises InseparableClasses when the result cannot reproduce the labels.
    """
    by_role: dict[str, list[LabeledFlow]] = {}
    for lf in labeled:
        by_role.setdefault(lf.true_role, []).append(lf)
    for role in CONSOLE_ROLES:
        if not by_role.get(role):
            raise ValueError("calibration needs at least one %s flow" % role)

    def steady_bps_in(lf: LabeledFlow) -> float:
        return _median_profile(lf.stats)[2]

    video_min = min(steady_bps_in(lf) for lf in by_role[ROLE_DOWN_VIDEO])
    non_video_max = max(
        steady_bps_in(lf)
        for role in CONSOLE_ROLES
        if role != ROLE_DOWN_VIDEO
        for lf in by_role[role]
    )
    if non_video_max >= video_min:
        raise InseparableClasses(
            "video inbound throughput overlaps non-video flows "
            "(%.0f bps vs %.0f bps)" % (non_video_max, video_min)
        )
    video_threshold = math.sqrt(video_min * non_video_max)

    profiles = [_median_profile(lf.stats) for lf in by_role[ROLE_USER_INPUT]]
    input_delta = max(abs(pps_in - pps_out) for pps_in, pps_out, _ in profiles)
    delta_threshold = input_delta + 1.0

    criteria = ClassifierCriteria(
        video_min_bps_in=video_threshold,
        input_pps_delta_max=delta_threshold,
        audio_dominance_pps_delta=delta_threshold,
    )

    conflicts = []
    for lf in labeled:
        predicted = classify_windows(lf.stats, lf.setup_class, criteria)
        if predicted != lf.true_role:
            conflicts.append(CalibrationConflict(flow=lf, predicted=predicted))
    if conflicts:
        raise InseparableClasses(
            "calibrated criteria misclassify %d training flows" % len(conflicts),
            conflicts=conflicts,
        )
    return criteria
