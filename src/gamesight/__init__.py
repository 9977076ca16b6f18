"""Passive cloud-gaming traffic analysis: session detection, flow role
classification and per-second QoE estimation from packet captures, plus a
ground-truth-annotated synthetic capture generator."""

from .errors import BandMismatch, GamesightError, InvalidProfile, MalformedHeader
from .pipeline import AnalysisReport, Analyzer

__version__ = "0.1.0"

_SYNTH = ("GroundTruthManifest", "SessionProfile", "gen_session", "write_session")


def __getattr__(name):
    # the generator is imported on first use: `analyze` never compiles it
    if name in _SYNTH:
        from . import synth

        return getattr(synth, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "BandMismatch",
    "GamesightError",
    "GroundTruthManifest",
    "InvalidProfile",
    "MalformedHeader",
    "SessionProfile",
    "gen_session",
    "write_session",
    "__version__",
]
