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

CLASS_BROWSER = "browser"

DEFAULT_SETUP_SCORE_THRESHOLD = 0.6


@dataclass
class SetupSignature:
    os: str  # windows | macos | android | ios
    dst_ports: list[int]
    upstream_sizes: list[int]
    downstream_sizes: list[int]


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
        where = "platform %r" % self.platform_id
        self.core_services = _lowered(self.core_services, "core of " + where)
        if not self.core_services:
            raise ValueError("core_services must be non-empty")
        self.setup_tables = {
            k: _lowered(v, "setup %r of %s" % (k, where)) for k, v in self.setup_tables.items()
        }
        rng, threshold = self.server_port_range, self.setup_score_threshold
        if rng is not None and not (len(rng) == 2 and all(type(p) is int for p in rng) and rng[0] <= rng[1]):
            raise ValueError("server_port_range of %s must be two ports lo <= hi, not %r" % (where, list(rng)))
        if type(threshold) not in (int, float):  # a bool is not a threshold
            raise ValueError("setup_score_threshold of %s must be a number, not %r" % (where, threshold))
        pattern = self.gameplay_name_pattern
        if not (isinstance(pattern, str) and "{ip}" in pattern):
            raise ValueError("gameplay_pattern of %s must be a string containing {ip}, not %r" % (where, pattern))
        bad = [[p, c] for p, c in self.mgmt_ports.items() if not (type(p) is int and isinstance(c, str))]
        if bad:
            raise ValueError("mgmt_ports of %s must pair an int port with a string class, not %r" % (where, bad[0]))


def _lowered(patterns, what: str) -> list[str]:
    """`patterns` lowercased; ValueError naming `what` unless it is a list of strings."""
    if not isinstance(patterns, list) or not all(isinstance(p, str) for p in patterns):
        raise ValueError("%s must be a list of strings, not %r" % (what, patterns))
    return [p.lower() for p in patterns]


def _ints(values, what: str) -> list[int]:
    """`values`; ValueError naming `what` unless it is a list of ints."""
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise ValueError("%s must be a list of ints, not %r" % (what, values))
    return values


def wildcard_match(pattern: str, name: str) -> bool:
    """Prefix match on dot-separated labels; a '*' label matches any one label."""
    return labels_match(pattern.lower().split("."), name.lower().split("."))


def labels_match(plabels: list[str], nlabels: list[str]) -> bool:
    """`wildcard_match` on names already lowercased and split into labels."""
    if len(plabels) > len(nlabels):
        return False
    return all(p == "*" or p == n for p, n in zip(plabels, nlabels))


def decode_gameplay_name(pattern: str, name: str) -> Optional[str]:
    """Decode the dashed server IP embedded in a gameplay management SNI;
    `pattern` contains "{ip}", as `ServiceCodebook` requires.

    Returns the dotted IP, or None if the name does not fit the pattern.
    """
    prefix, suffix = pattern.lower().split("{ip}", 1)
    name = name.lower()
    if not name.startswith(prefix) or not name.endswith(suffix):
        return None
    dashed = name[len(prefix) : len(name) - len(suffix)]
    parts = dashed.split("-")
    if len(parts) != 4 or not all(p.isdigit() and 0 <= int(p) <= 255 for p in parts):
        return None
    return ".".join(str(int(p)) for p in parts)


# -- loading -----------------------------------------------------------

# the keys the file format has at each level; any other key is refused
CODEBOOK_KEYS = {"platforms"}
PLATFORM_KEYS = {
    "platform", "core", "setups", "gameplay_pattern", "mgmt_ports",
    "signatures", "server_port_range", "setup_score_threshold",
}
SIGNATURE_KEYS = {"os", "dst_ports", "up", "down"}


def _check_keys(d: dict, keys: set, where: str) -> None:
    """Raise ValueError naming the keys of `d` outside `keys`."""
    unknown = sorted(d.keys() - keys)
    if unknown:
        raise ValueError("unknown key %s in %s" % (", ".join(map(repr, unknown)), where))


def _signature_from_dict(s: dict, platform: str) -> SetupSignature:
    where = "a %s signature" % platform
    _check_keys(s, SIGNATURE_KEYS, where)
    if not isinstance(s["os"], str):
        raise ValueError("os of %s must be a string, not %r" % (where, s["os"]))
    return SetupSignature(
        os=s["os"],
        dst_ports=_ints(s["dst_ports"], "dst_ports of " + where),
        upstream_sizes=_ints(s["up"], "up of " + where),
        downstream_sizes=_ints(s["down"], "down of " + where),
    )


def _codebook_from_dict(d: dict) -> ServiceCodebook:
    _check_keys(d, PLATFORM_KEYS, "platform %r" % d.get("platform"))
    sigs = [_signature_from_dict(s, d["platform"]) for s in d.get("signatures", [])]
    rng = d.get("server_port_range")
    return ServiceCodebook(
        platform_id=d["platform"],
        core_services=d["core"],
        setup_tables=d["setups"],
        gameplay_name_pattern=d["gameplay_pattern"],
        mgmt_ports=dict(d["mgmt_ports"]),
        signatures=sigs,
        server_port_range=None if rng is None else tuple(rng),
        setup_score_threshold=d.get("setup_score_threshold", DEFAULT_SETUP_SCORE_THRESHOLD),
    )


def load_codebooks(path: str) -> list[ServiceCodebook]:
    """Load a codebook file. Raises ValueError on a key the format does not
    have, at any level, a malformed value or a platform id listed twice, and
    KeyError on a missing key."""
    with open(path) as fh:
        data = json.load(fh)
    _check_keys(data, CODEBOOK_KEYS, "the codebook")
    books = [_codebook_from_dict(d) for d in data["platforms"]]
    ids = [cb.platform_id for cb in books]
    for i, platform_id in enumerate(ids):
        if platform_id in ids[:i]:
            raise ValueError("platform %r is listed twice in the codebook" % platform_id)
    return books


def default_codebook_path() -> str:
    return str(resources.files("gamesight").joinpath("data/codebooks.json"))


def default_codebooks() -> list[ServiceCodebook]:
    return load_codebooks(default_codebook_path())
