"""Exception types raised by kamcrit."""


class KamcritError(Exception):
    """Base class for all kamcrit errors."""


class DomainError(KamcritError, ValueError):
    """Invalid argument or state (non-finite input, bad winding fraction, ...)."""


class RefinementError(KamcritError):
    """Newton polish of an orbit failed (singular Jacobian or divergence)."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history if history is not None else []


class ContinuationError(KamcritError):
    """Continuation in K hit the minimum step size."""

    def __init__(self, message, last_good_k=None):
        super().__init__(message)
        self.last_good_k = last_good_k


class BracketingError(KamcritError):
    """No sign change of R - 1 brackets the threshold, a residue is not finite,
    or another bracket precondition failed."""


class WidthMeasurementError(KamcritError):
    """Island-width measurement aborted because the orbit escaped the resonance."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics if diagnostics is not None else {}


class NoInteriorMinimumError(KamcritError):
    """No sampled distance curve has an interior minimum on the grid."""


class MergeConflictError(KamcritError):
    """Result merge found duplicate keys with differing values."""

    def __init__(self, message, conflicts=None):
        super().__init__(message)
        self.conflicts = conflicts if conflicts is not None else []


class ConfigError(KamcritError, ValueError):
    """Invalid scan configuration or config file syntax."""
