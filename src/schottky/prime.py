"""Truncated-product evaluation of the Schottky-Klein prime function.

The prime function of a circular domain generalizes the factor (z - y) of
the unit disk: it is analytic in the fundamental region with a single zero
on the group orbit of y, and it is the building block of every conformal
map and proper map in this library.  It is evaluated here by truncating the
classical product over a half set of the Schottky group:

    omega(z, y) = (z - y) * prod_theta [(z - theta(y)) (y - theta(z))]
                                     / [(z - theta(z)) (y - theta(y))]

Each factor is invariant under theta -> theta^-1, which is exactly why the
result does not depend on which half set is chosen.
"""

from __future__ import annotations

import warnings

import numpy as np

from .domain import CircularDomain, _pointwise, validate_domain
from .errors import DomainError, SingularEvaluationError
from .group import (
    WordEnumeration,
    adaptive_word_length,
    enumerate_words,
    generators,
    realize_all,
)

__all__ = ["PrimeEvaluator"]

# Accumulate in log space beyond this many product factors to limit drift.
_LOG_SPACE_THRESHOLD = 1000


class PrimeEvaluator:
    """Caches a realized half set of the Schottky group and evaluates the
    truncated prime-function product.

    Immutable after construction; all evaluation methods are pure, so one
    evaluator can serve any number of threads.  For g = 0 the evaluator is
    trivial and omega(z, y) = z - y exactly.

    Parameters
    ----------
    domain:
        A validated circular domain.
    max_word_length:
        Truncation level L.  When omitted, the smallest L <= 8 whose tail
        estimate is below ``tail_tol`` is chosen; a warning is issued if
        even L = 8 does not reach it.
    enumeration:
        Optional explicit word enumeration (used e.g. to test independence
        of the half-set choice).
    """

    def __init__(
        self,
        domain: CircularDomain,
        max_word_length: int | None = None,
        enumeration: WordEnumeration | None = None,
        tail_tol: float = 1e-10,
        singular_tol: float = 1e-8,
    ):
        report = validate_domain(domain)
        if not report.is_valid:
            raise DomainError("invalid domain: " + "; ".join(report.messages))
        self.domain = domain
        self.validation = report
        self.singular_tol = singular_tol

        if enumeration is not None:
            if max_word_length is not None and enumeration.max_length != max_word_length:
                raise DomainError("enumeration length disagrees with max_word_length")
        elif domain.g == 0:
            enumeration = enumerate_words(0, 0)
        else:
            if max_word_length is None:
                max_word_length, tail = adaptive_word_length(domain, tol=tail_tol)
                if tail >= tail_tol:
                    warnings.warn(
                        f"tail estimate {tail:.2e} above {tail_tol:.1e} at L={max_word_length}",
                        stacklevel=2,
                    )
            enumeration = enumerate_words(domain.g, max_word_length)
        self.enumeration = enumeration
        self.max_word_length = enumeration.max_length

        self._maps = realize_all(domain, enumeration)
        half = [m for m, keep in zip(self._maps, enumeration.half_set_mask) if keep]
        self._half_a = np.array([m.a for m in half], dtype=complex)
        self._half_b = np.array([m.b for m in half], dtype=complex)
        self._half_c = np.array([m.c for m in half], dtype=complex)
        self._half_d = np.array([m.d for m in half], dtype=complex)
        self._gens = generators(domain) if domain.g else []
        self._sqrt_signs: dict[int, float] = {}

    @property
    def half_set_size(self) -> int:
        return len(self._half_a)

    # -- low-level tables ------------------------------------------------

    def theta_table(self, z: np.ndarray) -> np.ndarray:
        """Images of the points under every half-set map, shape
        (half_set_size, len(z)).  Exposed so grid sweeps can reuse it."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        num = self._half_a[:, None] * z[None, :] + self._half_b[:, None]
        den = self._half_c[:, None] * z[None, :] + self._half_d[:, None]
        return num / den

    def _theta_point(self, y: complex) -> np.ndarray:
        num = self._half_a * y + self._half_b
        den = self._half_c * y + self._half_d
        return num / den

    # -- prime function --------------------------------------------------

    def omega(self, z, y: complex):
        """Truncated prime function; ``z`` may be a scalar or an array
        (``y`` is a scalar; use antisymmetry for the other layout)."""
        return _pointwise(lambda z: self._omega_impl(z, complex(y), self.theta_table(z)), z)

    def omega_with_table(self, z: np.ndarray, theta_z: np.ndarray, y: complex) -> np.ndarray:
        """Same as :meth:`omega` with a precomputed ``theta_table(z)``."""
        return self._omega_impl(np.asarray(z, dtype=complex), complex(y), theta_z)

    def _omega_impl(self, z, y, th_z):
        if self.half_set_size == 0:
            return z - y
        th_y = self._theta_point(y)
        diag_z = z[None, :] - th_z
        diag_y = y - th_y
        if min(np.min(np.abs(diag_z)), np.min(np.abs(diag_y))) < self.singular_tol:
            raise SingularEvaluationError(
                "evaluation point within tolerance of a Moebius fixed point"
            )
        factors = (z[None, :] - th_y[:, None]) * (y - th_z) / (diag_z * diag_y[:, None])
        return (z - y) * _product(factors)

    def omega_ratio(self, z, y1: complex, y2: complex):
        """omega(z, y1) / omega(z, y2) with the shared (z - theta(z))
        denominators cancelled.  This is the workhorse behind the slit maps;
        the cancellation also removes the z fixed-point guard, which matters
        when z sits on a boundary circle."""
        return _pointwise(
            lambda z: self.omega_ratio_with_table(z, self.theta_table(z), y1, y2), z)

    def omega_ratio_with_table(
        self, z: np.ndarray, theta_z: np.ndarray, y1: complex, y2: complex
    ) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        y1, y2 = complex(y1), complex(y2)
        if self.half_set_size == 0:
            return (z - y1) / (z - y2)
        t1 = self._theta_point(y1)
        t2 = self._theta_point(y2)
        d1 = y1 - t1
        d2 = y2 - t2
        if min(np.min(np.abs(d1)), np.min(np.abs(d2))) < self.singular_tol:
            raise SingularEvaluationError(
                "zero location within tolerance of a Moebius fixed point"
            )
        factors = (
            (z[None, :] - t1[:, None])
            * (y1 - theta_z)
            * d2[:, None]
            / ((z[None, :] - t2[:, None]) * (y2 - theta_z) * d1[:, None])
        )
        return (z - y1) / (z - y2) * _product(factors)

    # -- defining properties as residuals ---------------------------------

    def sqrt_dtheta(self, j: int, z):
        """Analytic square root of the derivative of generator ``j``:
        +- r_j / (1 - conj(q_j) z), with the global sign calibrated once so
        the prime-function shift identity holds (the identity fixes the root
        only implicitly)."""
        c = self.domain.circle(j)
        sign = self._sqrt_signs.get(j, 1.0)
        return sign * c.r / (1.0 - c.q.conjugate() * np.asarray(z, dtype=complex))

    def calibrate_sqrt_sign(self, j: int, v) -> float:
        z0, y0 = self._reference_pair()
        best = min(
            (+1.0, -1.0),
            key=lambda s: self._shift_residual(z0, y0, j, v, s),
        )
        self._sqrt_signs[j] = best
        return best

    def functional_equation_residual(self, z: complex, y: complex, j: int, v) -> float:
        """Relative residual of the shift property

        |omega(theta_j z, y) - exp(2 pi i (v_j(y) - v_j(z)) - pi i tau_jj)
          * sqrt(theta_j') * omega(z, y)| / |omega(z, y)|.

        Vacuously 0 for g = 0.
        """
        if self.domain.g == 0:
            return 0.0
        if j not in self._sqrt_signs:
            self.calibrate_sqrt_sign(j, v)
        return self._shift_residual(complex(z), complex(y), j, v, self._sqrt_signs[j])

    def _shift_residual(self, z, y, j, v, sign) -> float:
        theta = self._gens[j - 1]
        lhs = self.omega(theta(z), y)
        tau_jj = v.period_matrix().tau[j - 1, j - 1]
        phase = np.exp(2j * np.pi * (v.eval_v(j, y) - v.eval_v(j, z)) - 1j * np.pi * tau_jj)
        c = self.domain.circle(j)
        sq = sign * c.r / (1.0 - c.q.conjugate() * z)
        base = self.omega(z, y)
        return abs(lhs - phase * sq * base) / abs(base)

    def symmetry_residuals(self, z: complex, y: complex) -> tuple[float, float]:
        """(conjugation-reflection residual, exchange-antisymmetry residual)."""
        z, y = complex(z), complex(y)
        w = self.omega(z, y)
        r1 = abs(
            w.conjugate()
            + z.conjugate() * y.conjugate() * self.omega(1 / z.conjugate(), 1 / y.conjugate())
        )
        r2 = abs(w + self.omega(y, z))
        return r1, r2

    def _reference_pair(self) -> tuple[complex, complex]:
        """Two interior points on/near the positive real axis, used as the
        calibration anchor (0.9 when available)."""
        d = self.domain
        for z0 in (0.9, 0.9j, -0.9, 0.7, 0.7j, -0.7):
            z0 = complex(z0)
            if d.contains(z0, margin=1e-3):
                break
        else:
            raise DomainError("could not find a reference point in the domain")
        for y0 in (0.4j, 0.55, -0.35, 0.2 + 0.3j, -0.6j):
            y0 = complex(y0)
            if d.contains(y0, margin=1e-3) and abs(y0 - z0) > 0.1:
                return z0, y0
        raise DomainError("could not find a reference pair in the domain")


def _product(factors: np.ndarray) -> np.ndarray:
    if factors.shape[0] > _LOG_SPACE_THRESHOLD:
        # exp(sum(log ...)) reproduces the product regardless of the branch
        # each principal log picks, and keeps thousands of near-unity factors
        # from accumulating rounding drift.
        with np.errstate(divide="ignore"):
            return np.exp(np.sum(np.log(factors), axis=0))
    return np.prod(factors, axis=0)
