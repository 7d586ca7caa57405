"""Exception types raised by the library.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError/TypeError are reserved for programming errors (bad argument
types, out-of-domain scalars).
"""
from __future__ import annotations


class FracwickError(Exception):
    """Base class for all library-specific errors."""


class SingularCovarianceError(FracwickError):
    """Covariance matrix not positive definite even after the jitter schedule."""


class EmbeddingFailureError(FracwickError):
    """Circulant embedding produced a materially negative eigenvalue."""


class GridMismatchError(FracwickError):
    """Two grid-indexed objects do not live on compatible grids."""


class LongMemoryRequiredError(FracwickError):
    """Operation needs the long-memory regime (Hurst parameter > 1/2)."""


class DriftBlowupError(FracwickError):
    """A solver produced a non-finite state value."""


class VarianceOverflowError(FracwickError):
    """A sample variance is too large for a float."""


class NonConvergenceError(FracwickError):
    """Fixed-point iteration failed to reach tolerance within its budget."""


class UnsupportedCaseError(FracwickError):
    """Requested case is outside the closed family an operation supports."""


class ConfigError(FracwickError):
    """Experiment configuration is malformed or violates the schema."""
