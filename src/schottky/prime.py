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
across word tiles.  No product forms a (words x points) array, and a
point's value has the same bits alone as in any batch, but for the one
exception ``_combine`` names.

On a boundary circle a ``RatioProduct`` has a second route, ``routed``: the
circle's Laurent series in w = (z - q) / r (``_CircleSeries``), whose
coefficients are power sums of the image points of the pairs over the
whole ball.  A circle's series is built on its first point, once, to the
order where each image point's tail bound falls below 2^-53, and a circle
that would need more than ``_SERIES_MAX_ORDER`` terms, or more terms than
the direct pass forms factors per point, keeps the direct pass.  The proper
maps evaluate through ``routed``; their normalizations at z = 1, the slit
maps and the Blaschke lift take the direct pass.
"""

from __future__ import annotations

import functools
import threading
import warnings

import numpy as np

from .domain import CircularDomain, _pointwise, validate_domain
from .errors import DomainError, SingularEvaluationError
from .group import _TAIL_TOL, generators, word_ball

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

    The ball is realized once, by ``group.word_ball``, as ``mobius_table``
    (rows a, b, c, d over every word of the ball, identity included); the
    prime-function products run over its half-set columns, and
    ``ball_blaschke`` (behind ``lift_blaschke`` and the group-averaged
    Blaschke route of the slit maps) over all of it.

    The evaluator is immutable after construction, so one evaluator can
    serve any number of threads.  For g = 0 the ball is the identity and
    omega(z, y) = z - y exactly.

    Parameters
    ----------
    domain:
        A validated circular domain.
    max_word_length:
        Truncation level L.  When omitted, the smallest L <= 8 whose tail
        estimate is below 1e-10 (``group._TAIL_TOL``) is chosen; a warning is
        issued if no L up to 8 whose word ball fits the word cap reaches it.
    """

    def __init__(self, domain: CircularDomain, max_word_length: int | None = None):
        report = validate_domain(domain)
        if not report.is_valid:
            raise DomainError("invalid domain: " + "; ".join(report.messages))
        self.domain = domain
        self.enumeration, self.mobius_table, tail = word_ball(domain, max_word_length)
        self.max_word_length = self.enumeration.max_length
        if tail is not None and tail >= _TAIL_TOL:  # only the adaptive length has a tail
            warnings.warn(
                f"tail estimate {tail:.2e} above {_TAIL_TOL:.1e} at L={self.max_word_length}",
                stacklevel=2,
            )
        self._half = self.mobius_table[:, self.enumeration.half_set_mask]
        self._gens = generators(domain)

    @property
    def half_set_size(self) -> int:
        return self._half.shape[1]

    # -- prime function --------------------------------------------------

    def omega(self, z, y: complex):
        """Truncated prime function; ``z`` may be a scalar or an array
        (``y`` is a scalar; use antisymmetry for the other layout)."""
        return _pointwise(lambda z: self._omega(z, complex(y)), z)

    def _omega(self, z: np.ndarray, y: complex) -> np.ndarray:
        th_y = _images(self._half, slice(None), np.array([y]))[0]
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

    ``routed`` evaluates points on a boundary circle from that circle's
    Laurent series instead (``_CircleSeries``), built on first use.
    """

    def __init__(self, ev: PrimeEvaluator, y1, y2):
        self.ev = ev
        self._series: dict[int, _CircleSeries | None] = {}
        self._series_lock = threading.Lock()
        y1 = np.atleast_1d(np.asarray(y1, dtype=complex))
        y2 = np.atleast_1d(np.asarray(y2, dtype=complex))
        if y1.shape != y2.shape or y1.ndim != 1:
            raise DomainError("RatioProduct needs two equally long lists of points")
        limit = np.isinf(y2)
        # the finite pairs first, then the finite ends of the limit pairs
        self._y1, self._y2 = np.concatenate([y1[~limit], y1[limit]]), y2[~limit]
        nf = self._finite = len(self._y2)
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
        factors = [(z - a) / (z - b) for a, b in zip(y1, y2)] + [z - y for y in y1[nf:]]
        if not factors:
            return np.ones(len(z), dtype=complex)
        out = functools.reduce(np.multiply, factors)
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

        return out * _reduce(self.ev._half, z, factor)

    def routed(self, z: np.ndarray) -> np.ndarray:
        """Values at the 1-d points ``z``: a point on a boundary circle, to
        rounding (``_ON_CIRCLE_TOL``), from that circle's series, every
        other point, and every point of a circle without a series, by the
        direct pass.  Which route a point takes depends only on the product
        and the point."""
        d = self.ev.domain
        centers, radii = np.append(0j, d.centers), np.append(1.0, d.radii)
        gap = np.abs(np.abs(z[:, None] - centers) - radii)
        on = gap <= _ON_CIRCLE_TOL * (np.abs(centers) + radii)
        circle = np.where(on.any(axis=1), on.argmax(axis=1), -1)
        out = np.empty(len(z), dtype=complex)
        direct = circle < 0
        for l in range(len(radii)):
            on_l = circle == l
            if not on_l.any():
                continue
            series = self._circle_series(l)
            if series is None:
                direct |= on_l
            else:
                out[on_l] = series(z[on_l])
        if direct.any():
            out[direct] = self(z[direct])
        return out

    def _circle_series(self, l: int) -> _CircleSeries | None:
        """The series of boundary circle l, built at most once; None when
        the direct pass is the cheaper route there (``_CircleSeries.build``)."""
        with self._series_lock:
            if l not in self._series:
                self._series[l] = _CircleSeries.build(self, l)
            return self._series[l]


# A point is on boundary circle (q, r) when | |z - q| - r | is at most this
# times |q| + r: some hundred ulps of the circle's coordinates, above the
# rounding of the samples q + r exp(i t).  Off the circle by delta r, the
# series' tail bound grows by the factor (1 + delta)^N, below 1 + 1e-4 at
# this tolerance and N <= 1024 for every circle with r >= 1e-6 |q|.
_ON_CIRCLE_TOL = 2.0**-44
# Each image point's Laurent terms are summed until its tail bound falls
# below this: the unit roundoff of a double.
_SERIES_TOL = 2.0**-53
# The highest series order built.  A circle that needs more (a zero or pole
# of the product within about 4e-2 r of it) keeps the direct pass.  At this
# order a 64-point Horner evaluation takes about 3 ms where the L = 6
# direct pass of a degree-3 map on the triply connected domain takes about
# 3.9 ms (one BLAS thread), so beyond it a build would not pay for itself.
_SERIES_MAX_ORDER = 1024
# Image points per tile of a series build: a tile's arrays stay near 256 KB
# each, so a build needs no more memory than a ``_reduce`` tile, whatever
# the ball and the number of pairs (one tile on the triply connected
# domain at L = 6, three for a degree-4 map at L = 5 with g = 3).
_SERIES_TILE = 2**14


class _CircleSeries:
    """The product of a ``RatioProduct`` on one boundary circle (q, r), as
    the Laurent series in w = (z - q) / r

        C w^k exp(sum_n alpha_n w^-n + beta_n w^n).

    By y - theta(z) = (c y - a)(z - theta^-1(y)) / (c z + d), each half-set
    word's factor equals, up to a constant, the product over theta and
    theta^-1 of (z - theta(y1_k)) / (z - theta(y2_k)); the (c z + d) cancel.
    So the product is a constant times the product over the whole ball
    (``mobius_table``, identity included) of (z - a_num) / (z - a_den), the
    a_num the images of the y1_k and the a_den those of the finite y2_k and,
    for each limit pair, theta(inf) = a/c of every word but the identity.
    With every image point a in w-coordinates, a point inside the circle
    contributes log(1 - a/w) = -sum_n a^n w^-n / n and one power of w, a
    point outside it log(1 - w/a) = -sum_n a^-n w^n / n.  So alpha_n and
    beta_n are -1/n times the signed power sums of the points inside and of
    the reciprocals of those outside, and k counts inside numerator points
    less inside denominator points.  C is set by the direct pass at z = q + r,
    where w = 1 and the exponent is the sum of the coefficients.

    A point with ratio rho = min(|a|, 1/|a|) leaves the sums after N terms
    once its tail bound rho^(N+1) / (1 - rho) is below ``_SERIES_TOL``, and
    the largest such N is the circle's order.
    """

    def __init__(self, q: complex, r: float, k: int, scale: complex, coef: np.ndarray):
        self.q, self.r, self.k, self.scale = q, r, k, scale
        # (N, 2, 1): per order n, from the highest, alpha_n and beta_n
        self._steps = coef[:, ::-1].T[:, :, None]

    @classmethod
    def build(cls, product: RatioProduct, l: int) -> _CircleSeries | None:
        """The series of boundary circle l, or None when an image point lies
        on it or needs more terms than the cap: ``_SERIES_MAX_ORDER``, or
        fewer where the direct pass forms fewer word-pair factors per point
        (a Horner step costs less than one such factor; a small ball, like
        the annulus's, is cheaper direct).  The image points are formed and
        summed in tiles of the words, at most ``_SERIES_TILE`` points each."""
        circle = product.ev.domain.circle(l)
        a, b, c, d = product.ev.mobius_table
        # every word followed by z -> (z - q) / r, so the images come out in w
        table = np.stack([(a - circle.q * c) / circle.r, (b - circle.q * d) / circle.r, c, d])
        ys = np.concatenate([product._y1, product._y2])
        weights = np.repeat([1.0, -1.0], [len(product._y1), len(product._y2)])
        limits = len(product._y1) - product._finite
        cap = min(_SERIES_MAX_ORDER, product.ev.half_set_size * len(product._y1))
        sums = np.zeros((2, cap), dtype=complex)  # alpha, beta
        order, k = 0, 0.0
        step = max(1, _SERIES_TILE // (len(ys) + 1))
        for w0 in range(0, table.shape[1], step):
            words = slice(w0, w0 + step)
            w = _images(table, words, ys).ravel()
            weight = np.repeat(weights, len(w) // len(ys))
            if limits:
                ta, _, tc, _ = table[:, words]
                finite = tc != 0  # theta(inf) of every word but the identity
                w = np.append(w, ta[finite] / tc[finite])
                weight = np.append(weight, np.full(finite.sum(), -float(limits)))
            tile = _laurent_terms(w, weight, cap)
            if tile is None:
                return None
            k += tile[0]
            for row, coef in enumerate(tile[1:]):
                sums[row, :len(coef)] += coef
                order = max(order, len(coef))
        coef = sums[:, :order]
        scale = product(np.array([circle.q + circle.r]))[0] / np.exp(coef.sum())
        return cls(circle.q, circle.r, round(k), scale, coef)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Values at the 1-d points ``z``, by Horner's rule in 1/w and in w
        at once.  Every step is an out-of-place elementwise operation, so a
        point's value does not depend on the batch it came in."""
        w = (z - self.q) / self.r
        x = np.stack([1.0 / w, w])
        acc = np.zeros(x.shape, dtype=complex)
        for c in self._steps:
            acc = (acc + c) * x
        return self.scale * w**self.k * np.exp(acc[0] + acc[1])


def _laurent_terms(w: np.ndarray, weight: np.ndarray, cap: int):
    """(k, alpha, beta) of the image points ``w`` with their weights (+1 a
    numerator point, -m a denominator point of m pairs), or None when a
    point lies on the circle or needs more than ``cap`` terms."""
    size = np.abs(w)
    inside = size < 1.0
    rho = np.where(inside, size, 1.0 / np.maximum(size, 1.0))
    if not rho.max() < 1.0:
        return None
    with np.errstate(divide="ignore"):  # an image point at the circle's centre
        terms = np.ceil(np.log(_SERIES_TOL * (1.0 - rho)) / np.log(rho)) - 1.0
    if terms.max() > cap:
        return None
    inner, outer = inside & (terms >= 1), ~inside & (terms >= 1)
    return (weight[inside].sum(),
            _power_sums(w[inner], weight[inner], terms[inner]),
            _power_sums(1.0 / w[outer], weight[outer], terms[outer]))


def _power_sums(x: np.ndarray, weight: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """-(1/n) sum_i weight_i x_i^n for n = 1..max(terms), point i taking
    part while n <= terms_i: the points sorted by their term counts, so
    those still taking part at each n are a prefix."""
    order = np.argsort(-terms)
    x, power, terms = x[order], weight[order] * x[order], terms[order]
    steps = np.arange(1, int(terms.max(initial=0.0)) + 1)
    sums = []
    for m in np.searchsorted(-terms, -steps, side="right").tolist():
        head = power[:m]
        sums.append(np.add.reduce(head))
        head *= x[:m]
    return -np.array(sums, dtype=complex) / steps


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
    does not depend on the batch it came in (see ``_combine``)."""
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


def _combine(blocks: list[np.ndarray]):
    """Product of block products: none as 1, one as it is, several as
    exp(sum(log ...)), which reproduces the product regardless of the branch
    each principal log picks.  The logs, like a ``RatioProduct``'s pairs,
    are joined one at a time and out of place, so a lone point has the bits
    it has in a batch: numpy 2.4.6 rounds a sum or product over a short
    contiguous axis, and an in-place multiply of one element, its own way.
    That still moves a lone point by an ulp in a tile of one word (the
    disk's ball, a one-word half set), through a factor's in-place steps."""
    if len(blocks) < 2:
        return blocks[0] if blocks else 1.0
    with np.errstate(divide="ignore"):
        return np.exp(functools.reduce(np.add, [np.log(b) for b in blocks]))
