"""Exception types shared across the package."""


class DraaError(Exception):
    """Base class for package errors."""


class ConfigError(DraaError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


class InvariantError(DraaError):
    """An internal invariant was violated (maps to CLI exit code 3)."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        msg = invariant if not detail else f"{invariant}: {detail}"
        super().__init__(msg)


class DuplicateBroadcastError(DraaError):
    """An agent posted twice in the same epoch."""
