"""A fixed pure-Python task that measures how fast the host runs right now.

The benchmark's hosts are shared: the same code analyzes a capture up to
1.8 times slower in one minute than in the next, and CPU time swings with
wall time, so the slowdown is in the processor, not in waiting for it.
``run.py`` times this task before and after every untraced analysis and
rescales the analysis's wall seconds by how much slower than
``NOMINAL_S`` the host ran. The task imports nothing from ``gamesight``, so
a change to the program never changes it; it imitates the program's mix of
work (header unpacking, tuple-keyed dict lookups, small-object updates,
label splitting) so that host slowdowns hit both alike.
"""

from __future__ import annotations

import gc
import struct
from time import perf_counter

# The task's median time on the 2-core Xeon (KVM guest) the benchmark was
# tuned on. It only sets the scale of the rescaled figures.
NOMINAL_S = 0.25

_HEADER = struct.Struct("!BBHHHBBH4s4s")
_FRAMES = bytes(range(20)) * 50
_NAMES = ["a%d.example%d.com" % (i, i % 7) for i in range(200)]
_PATTERNS = [p.split(".") for p in ("*.example3.com", "a1.*.com", "b.c.d")]


class _Flow:
    __slots__ = ("proto", "ttl", "packets")

    def __init__(self, proto: int, ttl: int):
        self.proto, self.ttl, self.packets = proto, ttl, 0


def _work() -> int:
    total = 0
    table: dict = {}
    for i in range(750_000):
        total += i
        table[i & 1023] = total
    matches = 0
    for _ in range(60):
        flows: dict = {}
        for i in range(1000):
            h = _HEADER.unpack_from(_FRAMES, (i % 40) * 20)
            key = (h[8], h[9], h[3] ^ i, i & 255)
            flow = flows.get(key)
            if flow is None:
                flow = flows[key] = _Flow(h[0], h[1])
            flow.packets += 1
        for name in _NAMES:
            labels = name.lower().split(".")
            for pattern in _PATTERNS:
                if len(pattern) <= len(labels) and all(p == "*" or p == n for p, n in zip(pattern, labels)):
                    matches += 1
    return matches


def reference_s() -> float:
    """Wall seconds of one run of the fixed task, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
