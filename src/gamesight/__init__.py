"""Passive cloud-gaming traffic analysis: session detection, flow role
classification and per-second QoE estimation from packet captures, plus a
ground-truth-annotated synthetic capture generator."""

from .errors import BandMismatch, GamesightError, InvalidProfile, MalformedHeader
from .pipeline import AnalysisReport, Analyzer
from .synth import GroundTruthManifest, SessionProfile, gen_session, write_session

__version__ = "0.1.0"

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
