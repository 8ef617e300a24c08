"""Exception hierarchy shared by all modules.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map them onto exit codes (domain problems -> 1, numerical
failures -> 2, witness search exhaustion -> 3).
"""


class SchottkyError(Exception):
    """Base class for all library errors."""


class DomainError(SchottkyError):
    """Invalid geometry or an evaluation at a geometric pole."""


class SingularEvaluationError(SchottkyError):
    """Prime-function evaluation too close to a denominator zero."""


class ConvergenceError(SchottkyError):
    """An iterative solve (Newton, continuation, optimizer) did not converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class TruncationQualityError(SchottkyError):
    """A truncation-quality diagnostic (constant modulus, boundary deviation,
    a distance c* not below 1) exceeded its tolerance; usually cured by a
    larger word length or basis order."""


class AdmissibilityError(SchottkyError):
    """A zero configuration violates the harmonic-measure admissibility
    condition (or its reindexed radius-product form)."""


class ResourceLimitError(SchottkyError):
    """Word enumeration would exceed the configured cap."""


class ResolutionError(SchottkyError):
    """A discretization is too coarse for the requested quantity
    (winding sampling, raster grid)."""
