"""Byte-identity of `analyze` outputs on short fixed-seed sessions.

The digests were recorded with the analyzer that buffered every UDP packet
until the end of the capture and replayed the video flow into the frame
detector. The streaming analyzer must reproduce them byte for byte; a
change that alters an output on purpose re-records them and says why. The
short session ends before its video flow's classifying windows close, so
its QoE comes from the packets still waiting when the capture ends.
"""

import hashlib
import struct

import pytest

from gamesight import cli, pcap
from gamesight.packets import ETH_IPV4, ETH_IPV6
from gamesight.synth import SessionProfile, gen_session, write_session

CASES = {
    "console": (
        dict(setup="desktop_app", resolution_schedule=[(0.0, "fhd")], rtt_ms=20.0, seed=31),
        "cbe04ed2718f958ab73b781adb5e61d1e6359caa0ceb2d6939bdbb2c0e709fc6",
        "c715dbff6741c2cacc6de592c44fa7a74a6e519ec80b48c53f495ac4ff8bdadd",
    ),
    "browser": (
        dict(setup="browser", fps_schedule=[(0.0, 30)], resolution_schedule=[(0.0, "hd")], rtt_ms=80.0, seed=32),
        "b4cc7d3405646742a6fe6d9d31e6efe474cd406b5557ee3dbe7ad787a5a4861b",
        "12e9534b1c7bda8f9d9c20cce1dfce7c9187a2b3e02e7952f780865632fdf18b",
    ),
    "short": (
        dict(setup="desktop_app", rtt_ms=20.0, seed=34, duration_s=2.5),
        "8140acc5c351cfde7de8512a0a4f1eb3ea03fa70577ecf3ba441879950c4a3b3",
        "930b3f3ca9a87d420af8c3223db9f7740e354932b6c4d7aae8864fcdd85ae36a",
    ),
    "strip-sni": (
        dict(setup="mobile_app", os="android", rtt_ms=5.0, seed=33, strip_sni=True),
        "d46cd601d04109dbd27708a727404d3c05830fff8106d8438c0bb68fd6a5f395",
        "1432d00c9f38a65c01b874b6010e0380a3861763807a2f9805ad32487e9199a2",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _profile(profile_kw) -> SessionProfile:
    return SessionProfile(**{"platform": "gfn", "duration_s": 8.0, **profile_kw})


def _analyze(tmp_path, monkeypatch) -> tuple[str, str]:
    """Analyze `tmp_path/s.pcap` from inside `tmp_path`, so that the relative
    capture name written to sessions.jsonl is stable."""
    monkeypatch.chdir(tmp_path)
    cli.main(
        ["analyze", "--pcap", "s.pcap", "--client-nets", "192.0.2.0/24", "--out", "out"],
        standalone_mode=False,
    )
    return _sha256(tmp_path / "out" / "sessions.jsonl"), _sha256(tmp_path / "out" / "qoe.csv")


def analyze_digests(tmp_path, monkeypatch, profile_kw) -> tuple[str, str]:
    """Generate one GFN session (8 s unless given) and analyze it."""
    write_session(_profile(profile_kw), str(tmp_path / "s.pcap"), str(tmp_path / "s.manifest.json"))
    return _analyze(tmp_path, monkeypatch)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_byte_identical(tmp_path, monkeypatch, case):
    profile_kw, sessions_sha, qoe_sha = CASES[case]
    assert analyze_digests(tmp_path, monkeypatch, profile_kw) == (sessions_sha, qoe_sha)


# Ethernet header (destination, source MAC) before the EtherType, and the
# same with one 802.1Q tag (TPID 0x8100, VLAN 1).
LINK_HEADERS = {
    "ethernet": b"\x02" * 6 + b"\x04" * 6,
    "vlan": b"\x02" * 6 + b"\x04" * 6 + struct.pack("!HH", 0x8100, 1),
}


@pytest.mark.parametrize("link", sorted(LINK_HEADERS))
def test_link_layer_leaves_outputs_byte_identical(tmp_path, monkeypatch, link):
    # the analyzer ignores the link layer: the console case's records in
    # Ethernet frames give that case's recorded digests
    profile_kw, sessions_sha, qoe_sha = CASES["console"]
    records, _ = gen_session(_profile(profile_kw))
    head = LINK_HEADERS[link]
    frames = [(ts, head + struct.pack("!H", ETH_IPV4 if ip[0] >> 4 == 4 else ETH_IPV6) + ip) for ts, ip in records]
    pcap.write_capture(frames, str(tmp_path / "s.pcap"), link_type=pcap.LINKTYPE_ETHERNET)
    assert _analyze(tmp_path, monkeypatch) == (sessions_sha, qoe_sha)
