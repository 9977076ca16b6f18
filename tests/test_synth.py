import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from gamesight import pcap, report
from gamesight.errors import BandMismatch, InvalidProfile
from gamesight.synth import (
    BAND_RANGES,
    DEFAULT_BITRATES,
    DOWN_AUDIO_PAYLOAD,
    GFN_SETUPS,
    INPUT_UP_PAYLOAD,
    MARKER_MAX,
    MARKER_MIN,
    SessionProfile,
    UP_AUDIO_PAYLOAD,
    VIDEO_FULL_SIZE,
    XBOX_SETUPS,
    build_client_hello,
    _scheduled_video,
    _UdpFrames,
    gen_session,
    write_session,
)


def _profile(**kw):
    base = dict(
        platform="gfn",
        setup="desktop_app",
        fps_schedule=[(0.0, 60)],
        resolution_schedule=[(0.0, "fhd")],
        rtt_ms=20.0,
        duration_s=6.0,
        seed=11,
    )
    base.update(kw)
    return SessionProfile(**base)


# -- video plan arithmetic ---------------------------------------------


def _video_payloads(profile):
    """Payload sizes of the video records the planner makes for `profile`."""
    frames = _UdpFrames(profile.server_ip, profile.client_ip, 47000, 49005)
    records, markers, _ = _scheduled_video(profile, profile.seed, 0.0, frames)
    return [len(frame) - 28 for _, frame in records], markers


def test_frame_packetization_counts():
    # [DERIVED] 25 Mbps at 60 fps -> mean frame 25e6/(8*60) ~= 52083 B
    # -> ~35 full 1466 B packets plus one marker per frame
    sizes, markers = _video_payloads(_profile(duration_s=1.0, bitrate_bps=25e6, seed=1))
    marker_sizes = [s for s in sizes if s < VIDEO_FULL_SIZE]
    fulls = [s for s in sizes if s == VIDEO_FULL_SIZE]
    assert len(marker_sizes) == len(markers) == 60  # one marker per frame
    assert len(fulls) / 60 == pytest.approx(25e6 / (8 * 60) / VIDEO_FULL_SIZE, rel=0.05)
    assert all(MARKER_MIN <= s <= MARKER_MAX for s in marker_sizes)


def test_video_bitrate_close_to_target():
    profile = _profile(duration_s=10.0, fps_schedule=[(0.0, 30)], resolution_schedule=[(0.0, "hd")], seed=2)
    sizes, _ = _video_payloads(profile)
    assert sum(sizes) * 8 / 10.0 == pytest.approx(11e6, rel=0.03)


def test_video_band_envelope_enforced():
    with pytest.raises(BandMismatch):
        gen_session(_profile(bitrate_bps=50e6))
    records, manifest = gen_session(_profile(bitrate_bps=29e6))
    assert records
    assert {e["bitrate_mbps"] for e in manifest.data["qoe"]} == {29.0}


def test_default_bitrates_sit_mid_band():
    for key, bitrate in DEFAULT_BITRATES.items():
        lo, hi = BAND_RANGES[key]
        assert lo < bitrate < hi


# -- profile validation -------------------------------------------------


def test_profile_validation_errors():
    with pytest.raises(InvalidProfile):
        _profile(platform="stadia").validate()
    with pytest.raises(InvalidProfile):
        _profile(setup="tv_app").validate()
    with pytest.raises(InvalidProfile, match="unknown xbox setup 'desktop_app'"):
        _profile(platform="xbox").validate()
    with pytest.raises(InvalidProfile):
        _profile(os="beos").validate()
    with pytest.raises(InvalidProfile):
        _profile(fps_schedule=[(0.0, 45)]).validate()
    with pytest.raises(InvalidProfile, match="fps schedule"):
        _profile(fps_schedule=[(1.0, 60)]).validate()
    with pytest.raises(InvalidProfile):
        _profile(resolution_schedule=[(1.0, "hd")]).validate()
    with pytest.raises(InvalidProfile, match="unknown resolution band 'uhd'"):
        _profile(resolution_schedule=[(0.0, "uhd")]).validate()
    with pytest.raises(InvalidProfile):
        _profile(duration_s=0).validate()
    # an infinite duration would never end the heartbeat loop
    for duration in (-1.0, float("inf"), float("nan")):
        with pytest.raises(InvalidProfile, match="duration must be finite and positive"):
            _profile(duration_s=duration).validate()
    # under a second, the manifest would have no qoe truth for `report` to score
    with pytest.raises(InvalidProfile, match="at least 1 s, not 0.5"):
        _profile(duration_s=0.5).validate()
    _profile(duration_s=1.0).validate()
    # a negative RTT would put every server reply before its request
    for rtt in (-20.0, float("inf"), float("nan")):
        with pytest.raises(InvalidProfile, match="rtt must be finite and non-negative"):
            _profile(rtt_ms=rtt).validate()
    _profile(rtt_ms=0.0).validate()


@pytest.mark.parametrize(
    "ip",
    ["10.0.1", "10.0.0.256", "10.0.0.01", "1.2.3.4.5", "2001:db8::1", "\u0661.2.3.4", None],
)
@pytest.mark.parametrize("field", ["client_ip", "server_ip"])
def test_profile_rejects_malformed_addresses(field, ip):
    # inet_aton would read "10.0.1" as 10.0.0.1 and "01" as octal
    with pytest.raises(InvalidProfile, match=field):
        gen_session(_profile(**{field: ip}))


def test_profile_accepts_dotted_quads():
    _profile(client_ip="0.0.0.0", server_ip="255.255.255.255").validate()


def test_mgmt_port_selection():
    assert _profile(setup="desktop_app").mgmt_port() == 322
    assert _profile(setup="mobile_app").mgmt_port() == 322
    assert _profile(setup="browser").mgmt_port() == 49100
    assert _profile(platform="xbox", setup="hardware_console").mgmt_port() == 49100


def test_client_hello_refuses_a_pad_to_below_its_own_length():
    hello = build_client_hello("203-0-113-7.pnt.nvidiagrid.net", pad_to=517)
    assert len(hello) == 517
    with pytest.raises(ValueError, match="pad_to too small"):
        build_client_hello("203-0-113-7.pnt.nvidiagrid.net", pad_to=100)


# -- session plan -------------------------------------------------------


def test_determinism_byte_identical(tmp_path):
    p1, p2 = str(tmp_path / "a.pcap"), str(tmp_path / "b.pcap")
    write_session(_profile(), p1, str(tmp_path / "a.json"))
    write_session(_profile(), p2, str(tmp_path / "b.json"))
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert json.load(open(tmp_path / "a.json")) == json.load(open(tmp_path / "b.json"))


def test_different_seeds_differ(tmp_path):
    r1, _ = gen_session(_profile(seed=1))
    r2, _ = gen_session(_profile(seed=2))
    assert [f for _, f in r1] != [f for _, f in r2]


def test_records_time_ordered():
    records, _ = gen_session(_profile())
    times = [ts for ts, _ in records]
    assert times == sorted(times)


def test_manifest_contents():
    _, manifest = gen_session(_profile())
    d = manifest.data
    assert d["schema"] == "gamesight-manifest/1"
    assert d["platform"] == "gfn"
    assert d["setup"] == "desktop_app"
    roles = sorted(f["role"] for f in d["flows"])
    assert roles == ["down_audio", "down_video", "gameplay_mgmt", "up_audio", "user_input"]
    assert len(d["qoe"]) == 6
    for entry in d["qoe"]:
        assert entry["fps"] == 60
        assert entry["resolution"] == "fhd"
    tl = d["timeline"]
    assert tl["platform_start"] < tl["gameplay_start"] < tl["gameplay_end"] <= tl["capture_end"]


def test_browser_profile_flow_anatomy():
    _, manifest = gen_session(_profile(setup="browser"))
    roles = sorted(f["role"] for f in manifest.data["flows"])
    assert roles == ["combined_media_input", "gameplay_mgmt", "stun_webrtc"]


def test_xbox_udp_ports_in_range():
    _, manifest = gen_session(_profile(platform="xbox", setup="hardware_console"))
    for f in manifest.data["flows"]:
        if f["proto"] == "UDP" and f["role"] == "combined_media_input":
            assert 1040 <= f["server_port"] <= 1190


def _platform(setup):
    return "gfn" if setup in GFN_SETUPS else "xbox"


@pytest.mark.parametrize("setup", GFN_SETUPS + XBOX_SETUPS)
def test_repeated_udp_frames_are_built_once(setup):
    # each flow builds one frame per direction and payload size and hands the
    # same object to every packet of that size
    records, _ = gen_session(_profile(platform=_platform(setup), setup=setup, duration_s=10.0))
    udp = [frame for _, frame in records if frame[9] == 17]
    objects = len({id(frame) for frame in udp})
    assert objects == len(set(udp))
    assert objects < len(udp) / 20


def _five_tuple(frame):
    """(src, dst, sport, dport, proto) of a generated IPv4 frame."""
    ips = ".".join(map(str, frame[12:16])), ".".join(map(str, frame[16:20]))
    ports = int.from_bytes(frame[20:22], "big"), int.from_bytes(frame[22:24], "big")
    return (*ips, *ports, {6: "TCP", 17: "UDP"}[frame[9]])


@pytest.mark.parametrize(
    "setup, strip_sni",
    [(setup, False) for setup in GFN_SETUPS + XBOX_SETUPS] + [("mobile_app", True)],
)
def test_manifest_names_exactly_the_gameplay_flows(setup, strip_sni):
    """Every five-tuple of the capture that involves the gameplay server,
    client side first, is a flow of the manifest, and every manifest flow
    is in the capture."""
    profile = _profile(platform=_platform(setup), setup=setup, strip_sni=strip_sni, duration_s=5.0)
    records, manifest = gen_session(profile)
    server = manifest.data["server_ip"]
    seen = set()
    for _, frame in records:
        src, dst, sport, dport, proto = _five_tuple(frame)
        if src == server:
            seen.add((dst, dport, src, sport, proto))
        elif dst == server:
            seen.add((src, sport, dst, dport, proto))
    flows = [(f["client_ip"], f["client_port"], f["server_ip"], f["server_port"], f["proto"]) for f in manifest.data["flows"]]
    assert len(flows) == len(set(flows))
    assert seen == set(flows)


@pytest.mark.parametrize(
    "profile_kw, markers",
    [
        (dict(setup="browser", fps_schedule=[(0.0, 30)], resolution_schedule=[(0.0, "hd")], seed=32), 240),
        (dict(platform="xbox", setup="pc_browser", seed=5), 480),
    ],
)
def test_companions_follow_each_frame_marker(profile_kw, markers):
    """On the combined flow, each frame's marker is followed by one
    downstream audio, one upstream audio and one input packet, 0.5, 0.7 and
    0.9 ms after it."""
    records, manifest = gen_session(_profile(duration_s=8.0, **profile_kw))
    (combined,) = [f for f in manifest.data["flows"] if f["role"] == "combined_media_input"]
    down, up = {}, {}
    for ts, frame in records:
        if frame[9] != 17:
            continue
        sport, dport = int.from_bytes(frame[20:22], "big"), int.from_bytes(frame[22:24], "big")
        if (sport, dport) == (combined["server_port"], combined["client_port"]):
            down.setdefault(len(frame) - 28, []).append(ts)
        elif (sport, dport) == (combined["client_port"], combined["server_port"]):
            up.setdefault(len(frame) - 28, []).append(ts)
    marker_ts = sorted(ts for size, times in down.items() if MARKER_MIN <= size <= MARKER_MAX for ts in times)
    assert len(marker_ts) == markers
    for times, delay in ((down[DOWN_AUDIO_PAYLOAD], 5e-4), (up[UP_AUDIO_PAYLOAD], 7e-4), (up[INPUT_UP_PAYLOAD], 9e-4)):
        assert len(times) == markers
        assert all(abs(ts - marker - delay) <= 1e-6 for marker, ts in zip(marker_ts, sorted(times)))


def test_manifest_roundtrip(tmp_path):
    _, manifest = gen_session(_profile())
    path = str(tmp_path / "m.json")
    manifest.save(path)
    assert report.load_manifest(path) == manifest.data


def test_packet_count_matches_written_records(tmp_path):
    profile = _profile(duration_s=4.0)
    records, manifest = gen_session(profile)
    n = pcap.write_capture(records, str(tmp_path / "c.pcap"))
    assert n == manifest.data["packet_count"] == len(records)


def test_schedule_change_reflected_in_truth():
    profile = _profile(
        duration_s=8.0,
        fps_schedule=[(0.0, 60), (4.0, 30)],
        resolution_schedule=[(0.0, "fhd"), (4.0, "hd")],
    )
    _, manifest = gen_session(profile)
    q = manifest.data["qoe"]
    assert [e["fps"] for e in q] == [60] * 4 + [30] * 4
    assert [e["resolution"] for e in q] == ["fhd"] * 4 + ["hd"] * 4


# -- pinned generator bytes ---------------------------------------------

# sha256 of the .pcap and the manifest JSON that `write_session` writes for
# 8 s sessions: the four profiles of tests/test_golden.py's CASES and two
# XBox profiles. The generator is the analyzer's oracle, so a change that
# only makes it faster must leave these bytes as they are.
GENERATOR_PINS = {
    "console": (
        dict(setup="desktop_app", resolution_schedule=[(0.0, "fhd")], rtt_ms=20.0, seed=31),
        "bd13596557172e13729a1bac520a293450026ae4d917d58dc9fd0bba019d135f",
        "02f677aa6baabcdd3f187fb7843789b2b4259d8222ea6d074319814e3c09dfeb",
    ),
    "browser": (
        dict(setup="browser", fps_schedule=[(0.0, 30)], resolution_schedule=[(0.0, "hd")], rtt_ms=80.0, seed=32),
        "43815d3cee9930e8939ce90fcc4fcd3cf714757fc849faceaeeda18692bfd514",
        "557220f0594ae64b41169022e701627de717f0cc4164c2a9d0d52d1c59177e5b",
    ),
    "short": (
        dict(setup="desktop_app", rtt_ms=20.0, seed=34, duration_s=2.5),
        "1183c6a35d77c376f031066a918ccb1151e46cc7ab26e9338e6a3c8a7f685f5f",
        "4214427fbefb8c50783ab4974acd5bd4b5d14b6237d1b7aa5c4ffe042033119d",
    ),
    "strip-sni": (
        dict(setup="mobile_app", os="android", rtt_ms=5.0, seed=33, strip_sni=True),
        "43b2e1f01b2284eeb8a7b9e2927bc3492b682c93e3086f4e5979f70df4e0ba2b",
        "414dfd176c863572391c13acfe9582f7c512b1f2319c2e446894307e813b2bf5",
    ),
    "xbox-console": (
        dict(platform="xbox", setup="hardware_console"),
        "182a978717407c369a4b3a00be89aaa7707842451fac75bf11346cffd3cf9454",
        "b2348d10fed07d62925da5e39597f3a19435c7742f65961bd6e9b281355ec172",
    ),
    "xbox-pc-browser-strip-sni": (
        dict(platform="xbox", setup="pc_browser", strip_sni=True),
        "537648e5e36c9884a3ef0e7b6d44beaa3597617aef50a58849233b88f24e64f3",
        "4c67ef92ce8e83ffbcafc83e44d4db702185c087f0e8a6b64069b273a16e81b3",
    ),
}


@pytest.mark.parametrize("case", sorted(GENERATOR_PINS))
def test_generator_bytes_pinned(tmp_path, case):
    profile_kw, pcap_sha, manifest_sha = GENERATOR_PINS[case]
    profile = SessionProfile(**{"platform": "gfn", "duration_s": 8.0, **profile_kw})
    write_session(profile, str(tmp_path / "s.pcap"), str(tmp_path / "s.json"))
    assert hashlib.sha256((tmp_path / "s.pcap").read_bytes()).hexdigest() == pcap_sha
    assert hashlib.sha256((tmp_path / "s.json").read_bytes()).hexdigest() == manifest_sha


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_benchmark_nat_churn_capture_pinned(tmp_path):
    """The benchmark's smallest input, written as the benchmark writes it:
    a generator change that alters what the benchmark measures shows here."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    records, _, _, link = workloads.WORKLOADS["nat-churn"](7)
    path = tmp_path / "capture.pcap"
    pcap.write_capture(records, str(path), link_type=link)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == "1f3e4fe942f9fbee2e2770b6f48e298a4b16a069009e8026f5b71ac49c2d8ec6"
