"""Proper holomorphic maps and Caratheodory distances on multiply connected
circular domains, built on the Schottky-Klein prime function."""

from .domain import (
    INFINITY,
    Circle,
    CircularDomain,
    MobiusMap,
    ValidationReport,
    mobius_apply,
    mobius_compose,
    mobius_invert,
    reflect,
    validate_domain,
)
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    DomainError,
    ResolutionError,
    ResourceLimitError,
    SchottkyError,
    SingularEvaluationError,
    TruncationQualityError,
)
from .group import (
    WordEnumeration,
    enumerate_words,
    generators,
    realize,
    tail_estimate,
)
from .harmonic import (
    GreenFunction,
    HarmonicModel,
    IntegralsFirstKind,
    PeriodMatrix,
    har_relation_residual,
    integrals_first_kind,
    solve_harmonic_measures,
)
from .prime import PrimeEvaluator

# The heavier layers keep their own namespaces: schottky.slitmaps (eta,
# eta_l, slit radii), schottky.propermaps (zero configs, builds, boundary
# data), schottky.distance (distances, rasters, witness search),
# schottky.verify (acceptance suites).

__version__ = "0.1.0"
