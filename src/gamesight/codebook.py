"""Per-platform service codebooks: domain tables, management ports and
handshake payload-size signatures.

The file format is the contract; entries are data. A default codebook
covering GeForce NOW and XBox Cloud Gaming ships with the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

SETUP_UNKNOWN = "unknown"

CLASS_CONSOLE_APP = "console_app"
CLASS_BROWSER = "browser"

DEFAULT_SETUP_SCORE_THRESHOLD = 0.6


@dataclass
class SetupSignature:
    os: str  # windows | macos | android | ios
    dst_ports: list[int]
    upstream_sizes: list[int]
    downstream_sizes: list[int]

    def matches(self, up: list[int], down: list[int], dst_port: int) -> bool:
        if dst_port not in self.dst_ports:
            return False
        if not self.upstream_sizes or len(up) < len(self.upstream_sizes):
            return False
        if up[: len(self.upstream_sizes)] != self.upstream_sizes:
            return False
        if len(down) < len(self.downstream_sizes):
            return False
        return down[: len(self.downstream_sizes)] == self.downstream_sizes


@dataclass
class ServiceCodebook:
    platform_id: str
    core_services: list[str]
    setup_tables: dict[str, list[str]]
    gameplay_name_pattern: str  # contains an "{ip}" placeholder (dashed IP)
    mgmt_ports: dict[int, str]  # port -> setup class
    signatures: list[SetupSignature] = field(default_factory=list)
    server_port_range: Optional[tuple[int, int]] = None
    setup_score_threshold: float = DEFAULT_SETUP_SCORE_THRESHOLD

    def __post_init__(self):
        if not self.core_services:
            raise ValueError("core_services must be non-empty")
        self.core_services = [p.lower() for p in self.core_services]
        self.setup_tables = {
            k: [p.lower() for p in v] for k, v in self.setup_tables.items()
        }


def wildcard_match(pattern: str, name: str) -> bool:
    """Prefix match on dot-separated labels; a '*' label matches any one label."""
    return labels_match(pattern.lower().split("."), name.lower().split("."))


def labels_match(plabels: list[str], nlabels: list[str]) -> bool:
    """`wildcard_match` on names already lowercased and split into labels."""
    if len(plabels) > len(nlabels):
        return False
    return all(p == "*" or p == n for p, n in zip(plabels, nlabels))


def decode_gameplay_name(pattern: str, name: str) -> Optional[str]:
    """Decode the dashed server IP embedded in a gameplay management SNI.

    Returns the dotted IP, or None if the name does not fit the pattern.
    """
    if "{ip}" not in pattern:
        return None
    prefix, suffix = pattern.lower().split("{ip}", 1)
    name = name.lower()
    if not name.startswith(prefix) or not name.endswith(suffix):
        return None
    dashed = name[len(prefix) : len(name) - len(suffix)]
    parts = dashed.split("-")
    if len(parts) != 4 or not all(p.isdigit() and 0 <= int(p) <= 255 for p in parts):
        return None
    return ".".join(str(int(p)) for p in parts)


def match_setup_signature(
    signatures: list[SetupSignature],
    first_payload_sizes_up: list[int],
    first_payload_sizes_down: list[int],
    dst_port: int,
    mgmt_ports: dict[int, str],
) -> Optional[tuple[str, str]]:
    """Exact prefix match of handshake payload sizes -> (os, setup class)."""
    if not first_payload_sizes_up:
        return None
    for sig in signatures:
        if sig.matches(first_payload_sizes_up, first_payload_sizes_down, dst_port):
            setup_class = mgmt_ports.get(dst_port, CLASS_BROWSER)
            return sig.os, setup_class
    return None


# -- loading -----------------------------------------------------------


def _codebook_from_dict(d: dict) -> ServiceCodebook:
    sigs = [
        SetupSignature(
            os=s["os"],
            dst_ports=list(s["dst_ports"]),
            upstream_sizes=list(s["up"]),
            downstream_sizes=list(s["down"]),
        )
        for s in d.get("signatures", [])
    ]
    rng = d.get("server_port_range")
    return ServiceCodebook(
        platform_id=d["platform"],
        core_services=list(d["core"]),
        setup_tables={k: list(v) for k, v in d["setups"].items()},
        gameplay_name_pattern=d["gameplay_pattern"],
        mgmt_ports={int(p): c for p, c in d["mgmt_ports"]},
        signatures=sigs,
        server_port_range=(rng[0], rng[1]) if rng else None,
        setup_score_threshold=d.get("setup_score_threshold", DEFAULT_SETUP_SCORE_THRESHOLD),
    )


def load_codebooks(path: str) -> tuple[list[ServiceCodebook], dict]:
    """Load codebooks plus an optional classifier `criteria` section."""
    with open(path) as fh:
        data = json.load(fh)
    books = [_codebook_from_dict(d) for d in data["platforms"]]
    return books, data.get("criteria", {})


def default_codebook_path() -> str:
    return str(resources.files("gamesight").joinpath("data/codebooks.json"))


def default_codebooks() -> tuple[list[ServiceCodebook], dict]:
    return load_codebooks(default_codebook_path())
