"""Exception types shared across the toolkit."""


class GamesightError(Exception):
    """Base class for all toolkit errors."""


class MalformedHeader(GamesightError):
    """Capture file is unreadable (bad magic or truncated global header)."""


class InvalidProfile(GamesightError):
    """Synthetic session profile is internally inconsistent."""


class BandMismatch(GamesightError):
    """Requested video bitrate falls outside the declared resolution band."""
