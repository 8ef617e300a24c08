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

This module is the only one that forms a product over the word ball.  Every
such product -- omega itself, ratios omega(z, y1)/omega(z, y2) and products
of them over several pairs (``RatioProduct``, behind the slit maps and the
product forms of the proper maps; a pair whose y2 is the point at infinity
stands for the limit behind eta(., 0)), and the group-averaged Blaschke
products over the whole ball (``ball_blaschke``) -- supplies its own factor
per (point, word) to one tiled reducer, ``_reduce``.  It runs over tiles of
``_POINT_TILE`` points by ``_LOG_SPACE_THRESHOLD`` words, forms the images
of the points per tile, multiplies plainly within a tile and in log space
across word tiles.  No product forms a (words x points) array, and each
point's value depends only on that point, not on the batch it came in.
"""

from __future__ import annotations

import warnings

import numpy as np

from .domain import CircularDomain, _pointwise, validate_domain
from .errors import DomainError, SingularEvaluationError
from .group import (
    _TAIL_TOL,
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
# log per block.  It is also the word extent of a ``_reduce`` tile.
_LOG_SPACE_THRESHOLD = 1000
# Points per tile of a ``_reduce`` pass.  A full tile's temporaries are
# 512 KB each, so a tile stays in a core's L2 cache whatever the batch; on a
# 2-core Xeon with 2 MB of L2 per core, 32 ran a 64-point degree-4 map call
# about 10% faster than 64 and 1024-point calls about 20% faster than 128.
_POINT_TILE = 32
# A point within this distance of a Moebius fixed point of a word is refused.
_SINGULAR_TOL = 1e-8


class PrimeEvaluator:
    """Holds the realized word ball of the Schottky group and evaluates the
    truncated prime-function product.

    The ball is realized once, as ``mobius_table`` (the ``realize_all``
    table: rows a, b, c, d over every enumerated word, identity included);
    the prime-function products run over its half-set columns, and
    ``ball_blaschke`` (behind ``lift_blaschke`` and the group-averaged
    Blaschke route of the slit maps) over all of it.

    The evaluator is immutable after construction, so one evaluator can
    serve any number of threads.  For g = 0 it is trivial and
    omega(z, y) = z - y exactly.

    Parameters
    ----------
    domain:
        A validated circular domain.
    max_word_length:
        Truncation level L.  When omitted, the smallest L <= 8 whose tail
        estimate is below 1e-10 (``group._TAIL_TOL``) is chosen; a warning is
        issued if no L up to 8 whose word ball fits the word cap reaches it.
    enumeration:
        Optional explicit word enumeration (used e.g. to test independence
        of the half-set choice).
    """

    def __init__(
        self,
        domain: CircularDomain,
        max_word_length: int | None = None,
        enumeration: WordEnumeration | None = None,
    ):
        report = validate_domain(domain)
        if not report.is_valid:
            raise DomainError("invalid domain: " + "; ".join(report.messages))
        self.domain = domain

        table = None
        if enumeration is not None:
            if enumeration.g != domain.g:
                raise DomainError(
                    f"enumeration of {enumeration.g} generators for a domain with {domain.g}")
            if max_word_length is not None and enumeration.max_length != max_word_length:
                raise DomainError("enumeration length disagrees with max_word_length")
        elif domain.g == 0:
            enumeration = enumerate_words(0, 0)
        elif max_word_length is None:
            max_word_length, tail, enumeration, table = adaptive_ball(domain)
            if tail >= _TAIL_TOL:
                warnings.warn(
                    f"tail estimate {tail:.2e} above {_TAIL_TOL:.1e} at L={max_word_length}",
                    stacklevel=2,
                )
        else:
            enumeration = enumerate_words(domain.g, max_word_length)
        self.enumeration = enumeration
        self.max_word_length = enumeration.max_length
        self.mobius_table = realize_all(domain, enumeration) if table is None else table
        self._half = self.mobius_table[:, enumeration.half_set_mask]
        self._gens = generators(domain)

    @property
    def half_set_size(self) -> int:
        return self._half.shape[1]

    def _theta_point(self, y: complex) -> np.ndarray:
        return _images(self._half, slice(None), np.array([complex(y)]))[0]

    # -- prime function --------------------------------------------------

    def omega(self, z, y: complex):
        """Truncated prime function; ``z`` may be a scalar or an array
        (``y`` is a scalar; use antisymmetry for the other layout)."""
        return _pointwise(lambda z: self._omega(z, complex(y)), z)

    def _omega(self, z: np.ndarray, y: complex) -> np.ndarray:
        if self.half_set_size == 0:
            return z - y
        th_y = self._theta_point(y)
        diag_y = y - th_y

        def factor(th, zt, rows):
            diag_z = zt - th
            if min(np.abs(diag_z).min(), np.abs(diag_y[rows]).min()) < _SINGULAR_TOL:
                raise SingularEvaluationError(
                    "evaluation point within tolerance of a Moebius fixed point"
                )
            return (zt - th_y[None, rows]) * (y - th) / (diag_z * diag_y[None, rows])

        return (z - y) * _reduce(self._half, z, factor)

    def omega_ratio_with_table(self, z: np.ndarray, y1: complex, y2: complex) -> np.ndarray:
        """omega(z, y1) / omega(z, y2) at the 1-d points ``z``, with the
        shared (z - theta(z)) denominators cancelled: the one-pair
        ``RatioProduct`` (y2 may be ``INFINITY``).  The cancellation also
        removes the z fixed-point guard, which matters when z sits on a
        boundary circle."""
        return RatioProduct(self, [y1], [y2])(np.asarray(z, dtype=complex))

    # -- products over the whole ball ---------------------------------------

    def ball_blaschke(self, zeros, z):
        """prod_theta B(theta(z)) / B(theta(1)) over the whole truncated ball
        (identity included), B the finite Blaschke product with the given
        zeros normalized to 1 at 1 (``blaschke_eval``).  With the first-kind
        exponential factor this is the Blaschke lift; for one zero p it is
        the group-averaged route to eta(., p)."""
        a, b, c, d = self.mobius_table
        at_one = blaschke_eval(zeros, (a + b) / (c + d))

        def factor(th, zt, rows):
            return blaschke_eval(zeros, th) / at_one[None, rows]

        return _pointwise(lambda z: _reduce(self.mobius_table, z, factor), z)

    # -- defining properties as residuals ---------------------------------

    def sqrt_dtheta(self, j: int, z):
        """The square root of the derivative of generator ``j`` that the
        prime function's shift identity takes, -r_j / (1 - conj(q_j) z).
        The other root, +r_j / (1 - conj(q_j) z), leaves an O(1) residual
        in ``functional_equation_residual``."""
        c = self.domain.circle(j)
        z = complex(z) if np.isscalar(z) else np.asarray(z, dtype=complex)
        return -c.r / (1.0 - c.q.conjugate() * z)

    def functional_equation_residual(self, z: complex, y: complex, j: int, v) -> float:
        """Relative residual of the shift property

        |omega(theta_j z, y) - exp(2 pi i (v_j(y) - v_j(z)) - pi i tau_jj)
          * sqrt(theta_j'(z)) * omega(z, y)| / |omega(z, y)|,

        with the root ``sqrt_dtheta``.  Vacuously 0 for g = 0.
        """
        if self.domain.g == 0:
            return 0.0
        z, y = complex(z), complex(y)
        lhs = self.omega(self._gens[j - 1](z), y)
        tau_jj = v.period_matrix().tau[j - 1, j - 1]
        phase = np.exp(2j * np.pi * (v.eval_v(j, y) - v.eval_v(j, z)) - 1j * np.pi * tau_jj)
        base = self.omega(z, y)
        return abs(lhs - phase * self.sqrt_dtheta(j, z) * base) / abs(base)

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

    def _reference_point(self) -> complex:
        """An interior point on or near the positive real axis (0.9 when
        available), where constants of the slit maps are measured."""
        for z0 in (0.9, 0.9j, -0.9, 0.7, 0.7j, -0.7):
            if self.domain.contains(complex(z0), margin=1e-3):
                return complex(z0)
        raise DomainError("could not find a reference point in the domain")


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
    all words overflows.  A call is one ``_reduce`` pass.

    A pair whose y2 is ``INFINITY`` stands for the limit
    lim_{y2 -> infinity} -y2 omega(z, y1) / omega(z, y2), the pair behind
    eta(., 0): its leading factor is (z - y1), and per word

        (z - theta(y1)) (y1 - theta(z)) / [(y1 - theta(y1)) (z - theta(inf))]

    with theta(inf) = a/c, the factors (y2 - theta(y2)) / (y2 - theta(z))
    tending to 1.  Such pairs are multiplied in after the finite ones.
    """

    def __init__(self, ev: PrimeEvaluator, y1, y2):
        self.ev = ev
        y1 = np.atleast_1d(np.asarray(y1, dtype=complex))
        y2 = np.atleast_1d(np.asarray(y2, dtype=complex))
        if y1.shape != y2.shape or y1.ndim != 1:
            raise DomainError("RatioProduct needs two equally long lists of points")
        limit = np.isinf(y2)
        # the finite pairs first, then the finite ends of the limit pairs
        self._y1, self._y2 = np.concatenate([y1[~limit], y1[limit]]), y2[~limit]
        nf = self._finite = len(self._y2)
        if ev.half_set_size == 0:
            return
        self._t1 = _images(ev._half, slice(None), self._y1)  # (pairs, words)
        self._t2 = _images(ev._half, slice(None), self._y2)
        d1 = self._y1[:, None] - self._t1
        d2 = self._y2[:, None] - self._t2
        if min(np.abs(d1).min(initial=np.inf), np.abs(d2).min(initial=np.inf)) < _SINGULAR_TOL:
            raise SingularEvaluationError(
                "zero location within tolerance of a Moebius fixed point"
            )
        self._col = np.prod(d2 / d1[:nf], axis=0)
        if limit.any():
            a, _, c, _ = ev._half
            # |c / a| = |1 / theta(inf)| vanishes where theta fixes infinity
            if np.any(np.abs(c) < _SINGULAR_TOL * np.abs(a)):
                raise SingularEvaluationError("infinity within tolerance of a Moebius fixed point")
            self._t_inf = a / c
            self._col = self._col / np.prod(d1[nf:], axis=0)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Values at the 1-d points ``z``."""
        y1, y2, nf = self._y1, self._y2, self._finite
        out = np.prod((z[None, :] - y1[:nf, None]) / (z[None, :] - y2[:, None]), axis=0)
        for y in y1[nf:]:
            out *= z - y
        if self.ev.half_set_size == 0 or len(y1) == 0:
            return out
        t1, t2, col = self._t1, self._t2, self._col

        def factor(th, zt, rows):
            num = col[None, rows] * (zt - t1[0, None, rows]) * (y1[0] - th)
            den = (zt - t2[0, None, rows]) * (y2[0] - th) if nf else zt - self._t_inf[None, rows]
            for k in range(1, nf):
                num *= zt - t1[k, None, rows]
                num *= y1[k] - th
                den *= zt - t2[k, None, rows]
                den *= y2[k] - th
            for k in range(max(nf, 1), len(y1)):
                num *= zt - t1[k, None, rows]
                num *= y1[k] - th
                den *= zt - self._t_inf[None, rows]
            num /= den
            return num

        out *= _reduce(self.ev._half, z, factor)
        return out


def blaschke_eval(zeros, z):
    """Finite Blaschke product with the given zeros, normalized to 1 at 1;
    ``z`` may be a scalar or an array of any shape.  Part of the public API
    of ``propermaps``."""
    def value(z):
        acc = np.ones(z.shape, dtype=complex)
        for p in zeros:
            p = complex(p)
            acc *= (z - p) / (1.0 - p.conjugate() * z)
            acc /= (1.0 - p) / (1.0 - p.conjugate())
        return acc

    return _pointwise(value, z)


def _images(table: np.ndarray, words: slice, z: np.ndarray) -> np.ndarray:
    """Images of the 1-d points ``z`` under a range of the words of a
    (4, words) Moebius table, shape (len(z), words): one row per point."""
    a, b, c, d = table[:, words]
    return (a[None, :] * z[:, None] + b[None, :]) / (c[None, :] * z[:, None] + d[None, :])


def _reduce(table: np.ndarray, z: np.ndarray, factor) -> np.ndarray:
    """prod over the words of ``table`` of factor(th, zt, rows), at the 1-d
    points ``z``.  The pass runs over tiles of at most ``_POINT_TILE``
    points by ``_LOG_SPACE_THRESHOLD`` words: ``th`` holds the tile's images
    (``_images``), ``zt`` its points as a column and ``rows`` its word
    slice, and ``factor`` returns the tile's factors, shape (points, words).
    Each point's factors are multiplied plainly along its own contiguous row
    within a tile and combined in log space across word tiles, so its value
    does not depend on the batch it came in."""
    out = np.empty(len(z), dtype=complex)
    words, step = table.shape[1], _LOG_SPACE_THRESHOLD
    for p0 in range(0, len(z), _POINT_TILE):
        pts = slice(p0, p0 + _POINT_TILE)
        blocks = []
        for w0 in range(0, words, step):
            rows = slice(w0, w0 + step)
            blocks.append(np.prod(factor(_images(table, rows, z[pts]), z[pts, None], rows),
                                  axis=1))
        out[pts] = _combine(blocks)
    return out


def _combine(blocks: list[np.ndarray]) -> np.ndarray:
    """Product of block products: a single block as it is, several as
    exp(sum(log ...)), which reproduces the product regardless of the branch
    each principal log picks."""
    if len(blocks) == 1:
        return blocks[0]
    with np.errstate(divide="ignore"):
        return np.exp(np.sum(np.log(blocks), axis=0))
