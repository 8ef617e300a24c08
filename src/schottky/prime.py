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

Ratios omega(z, y1)/omega(z, y2), and products of them over several pairs
(the proper maps), are one fused pass over the words: ``RatioProduct``.
Every product over the words follows one drift rule: plain within blocks of
at most ``_LOG_SPACE_THRESHOLD`` words, log space across blocks.
"""

from __future__ import annotations

import warnings

import numpy as np

from .domain import CircularDomain, _pointwise, validate_domain
from .errors import DomainError, SingularEvaluationError
from .group import (
    WordEnumeration,
    adaptive_ball,
    enumerate_words,
    generators,
    realize_all,
)

__all__ = ["PrimeEvaluator", "RatioProduct"]

# Products over the words multiply at most this many factors plainly (a
# block) and combine the block products in log space, which keeps thousands
# of near-unity factors from accumulating rounding drift at the cost of one
# log per block.  It is also the word extent of a ``RatioProduct`` tile.
_LOG_SPACE_THRESHOLD = 1000
# Points per tile of a ``RatioProduct`` pass.  A full tile's temporaries are
# 512 KB each, so a tile stays in a core's L2 cache whatever the batch; on a
# 2-core Xeon with 2 MB of L2 per core, 32 ran a 64-point degree-4 map call
# about 10% faster than 64 and 1024-point calls about 20% faster than 128.
_POINT_TILE = 32


class PrimeEvaluator:
    """Holds the realized word ball of the Schottky group and evaluates the
    truncated prime-function product.

    The ball is realized once, as ``mobius_table`` (the ``realize_all``
    table: rows a, b, c, d over every enumerated word, identity included);
    the product runs over its half-set columns.  Every other product over
    the ball (``lift_blaschke``, the group-averaged Blaschke route of the
    slit maps) reads the same table.

    The product evaluations are pure, so one evaluator can serve any number
    of threads.  The one state written after construction is the sign of
    ``sqrt_dtheta(j, .)``: +1 until ``calibrate_sqrt_sign`` (or the first
    ``functional_equation_residual`` for circle j) calibrates it.  For g = 0 the evaluator is
    trivial and omega(z, y) = z - y exactly.

    Parameters
    ----------
    domain:
        A validated circular domain.
    max_word_length:
        Truncation level L.  When omitted, the smallest L <= 8 whose tail
        estimate is below ``tail_tol`` is chosen; a warning is issued if
        no L up to 8 whose word ball fits the word cap reaches it.
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

        table = None
        if enumeration is not None:
            if max_word_length is not None and enumeration.max_length != max_word_length:
                raise DomainError("enumeration length disagrees with max_word_length")
        elif domain.g == 0:
            enumeration = enumerate_words(0, 0)
        elif max_word_length is None:
            max_word_length, tail, enumeration, table = adaptive_ball(domain, tol=tail_tol)
            if tail >= tail_tol:
                warnings.warn(
                    f"tail estimate {tail:.2e} above {tail_tol:.1e} at L={max_word_length}",
                    stacklevel=2,
                )
        else:
            enumeration = enumerate_words(domain.g, max_word_length)
        self.enumeration = enumeration
        self.max_word_length = enumeration.max_length
        self.mobius_table = realize_all(domain, enumeration) if table is None else table
        self._half_a, self._half_b, self._half_c, self._half_d = (
            self.mobius_table[:, enumeration.half_set_mask])
        self._gens = generators(domain) if domain.g else []
        self._sqrt_signs: dict[int, float] = {}

    @property
    def half_set_size(self) -> int:
        return len(self._half_a)

    # -- low-level tables ------------------------------------------------

    def theta_table(self, z: np.ndarray) -> np.ndarray:
        """Images of the points under every half-set map, shape
        (half_set_size, len(z)).  Exposed so grid sweeps can reuse it."""
        return self._theta_tile(slice(None), np.atleast_1d(np.asarray(z, dtype=complex))).T

    def _theta_tile(self, words: slice, z: np.ndarray) -> np.ndarray:
        """Images of the points under a range of half-set words, shape
        (len(z), words): one contiguous row per point."""
        num = self._half_a[None, words] * z[:, None] + self._half_b[None, words]
        den = self._half_c[None, words] * z[:, None] + self._half_d[None, words]
        return num / den

    def _theta_point(self, y: complex) -> np.ndarray:
        return self._theta_tile(slice(None), np.array([complex(y)]))[0]

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
        return _pointwise(lambda z: self.omega_ratio_with_table(z, None, y1, y2), z)

    def omega_ratio_with_table(
        self, z: np.ndarray, theta_z: np.ndarray | None, y1: complex, y2: complex
    ) -> np.ndarray:
        """Same as :meth:`omega_ratio` with a precomputed ``theta_table(z)``
        (or None to form it tile by tile): the one-pair ``RatioProduct``."""
        return RatioProduct(self, [y1], [y2])(np.asarray(z, dtype=complex), theta_z)

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


class RatioProduct:
    """prod_k omega(z, y1_k) / omega(z, y2_k) for fixed pairs (y1_k, y2_k),
    in one pass over the half-set words.

    The factors of all pairs at one (word theta, point z) are fused into one,

        c_theta * prod_k (z - theta(y1_k)) (y1_k - theta(z))
                       / [(z - theta(y2_k)) (y2_k - theta(z))],

    one complex division per (word, point) whatever the number of pairs;
    the (z - theta(z)) denominators cancel.  Everything free of z is
    computed here once: theta(y1_k), theta(y2_k), the fixed-point guard and
    the per-word column c_theta = prod_k (y2_k - theta(y2_k)) /
    (y1_k - theta(y1_k)).  The column stays per word, since its product over
    all words overflows.  A call runs over tiles of at most
    ``_LOG_SPACE_THRESHOLD`` words by ``_POINT_TILE`` points, forming
    theta(z) per tile, and reduces by the rule of ``_product``: plain within
    a tile, log space across the word tiles.  Each point's value depends
    only on that point, not on the batch it came in.
    """

    def __init__(self, ev: PrimeEvaluator, y1, y2):
        self.ev = ev
        self.y1 = np.atleast_1d(np.asarray(y1, dtype=complex))
        self.y2 = np.atleast_1d(np.asarray(y2, dtype=complex))
        if self.y1.shape != self.y2.shape or self.y1.ndim != 1:
            raise DomainError("RatioProduct needs two equally long lists of points")
        if ev.half_set_size == 0:
            return
        self._t1 = ev._theta_tile(slice(None), self.y1)  # (pairs, words)
        self._t2 = ev._theta_tile(slice(None), self.y2)
        d1 = self.y1[:, None] - self._t1
        d2 = self.y2[:, None] - self._t2
        if min(np.abs(d1).min(initial=np.inf), np.abs(d2).min(initial=np.inf)) < ev.singular_tol:
            raise SingularEvaluationError(
                "zero location within tolerance of a Moebius fixed point"
            )
        self._col = np.prod(d2 / d1, axis=0)

    def __call__(self, z: np.ndarray, theta_z: np.ndarray | None = None) -> np.ndarray:
        """Values at the 1-d points ``z``; ``theta_z`` optionally supplies
        ``theta_table(z)``."""
        y1, y2 = self.y1, self.y2
        out = np.prod((z[None, :] - y1[:, None]) / (z[None, :] - y2[:, None]), axis=0)
        if self.ev.half_set_size == 0 or len(y1) == 0:
            return out
        t1, t2, col = self._t1, self._t2, self._col
        words = self.ev.half_set_size
        step = _LOG_SPACE_THRESHOLD
        for p0 in range(0, len(z), _POINT_TILE):
            pts = slice(p0, p0 + _POINT_TILE)
            zt = z[pts, None]
            blocks = []
            for w0 in range(0, words, step):
                rows = slice(w0, w0 + step)
                # tiles are (points, words), so each point is reduced on its
                # own contiguous row, the same way in any batch
                if theta_z is None:
                    th = self.ev._theta_tile(rows, z[pts])
                else:
                    th = np.ascontiguousarray(theta_z[rows, pts].T)
                num = col[None, rows] * (zt - t1[0, None, rows]) * (y1[0] - th)
                den = (zt - t2[0, None, rows]) * (y2[0] - th)
                for k in range(1, len(y1)):
                    num *= zt - t1[k, None, rows]
                    num *= y1[k] - th
                    den *= zt - t2[k, None, rows]
                    den *= y2[k] - th
                num /= den
                blocks.append(np.prod(num, axis=1))
            out[pts] *= _combine(blocks)
        return out


def _product(factors: np.ndarray) -> np.ndarray:
    """Product over the words of factors shaped (words, points), by the drift
    rule: plain within blocks of at most ``_LOG_SPACE_THRESHOLD`` words, log
    space across blocks.  Each point's block is reduced as one contiguous
    row, so its value does not depend on the other points of the batch."""
    step = _LOG_SPACE_THRESHOLD
    return _combine([np.prod(np.ascontiguousarray(factors[i:i + step].T), axis=1)
                     for i in range(0, max(len(factors), 1), step)])


def _combine(blocks: list[np.ndarray]) -> np.ndarray:
    """Product of block products: a single block as it is, several as
    exp(sum(log ...)), which reproduces the product regardless of the branch
    each principal log picks."""
    if len(blocks) == 1:
        return blocks[0]
    with np.errstate(divide="ignore"):
        return np.exp(np.sum(np.log(blocks), axis=0))
