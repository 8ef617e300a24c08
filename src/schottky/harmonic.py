"""Harmonic measures, their analytic completions, the Green's function,
first-kind integrals and the period matrix, via a least-squares series
method.

Each harmonic measure u_j (value 1 on inner circle j, 0 on the other
boundary circles) is fitted in the classical basis for circular domains:
a constant, one log term per inner circle, negative powers centered at each
inner circle and positive powers for the outer circle.  Everything in the
basis is exactly harmonic, so the only error is the boundary misfit of the
least-squares fit, which converges spectrally in the basis order.

Every evaluation reads one table of the basis powers, points last: the
collocation matrix is its real interleaved view, and values, completions
and derivatives are its contractions with coefficients prepared per fit.

The analytic completions of the fitted measures span the holomorphic
differentials of the domain; normalizing their circle periods produces the
integrals of the first kind v_j, and the same normalization gives the period
matrix in closed form, tau = 2C, with C the normalizing combination (see
``IntegralsFirstKind``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import CircularDomain, _pointwise, validate_domain
from .errors import ConvergenceError, DomainError

__all__ = [
    "HarmonicModel",
    "GreenFunction",
    "IntegralsFirstKind",
    "PeriodMatrix",
    "solve_harmonic_measures",
    "integrals_first_kind",
    "har_relation_residual",
]


class HarmonicModel:
    """Least-squares representation of the harmonic measures u_1..u_g.

    u_0 is never fitted; it is defined as 1 - sum of the others, which makes
    the partition of unity exact.  The model holds the collocation points
    (``colloc`` per circle, circle by circle), the reduced QR factors ``q``,
    ``r`` of the basis matrix on them and the inverses of ``r``'s diagonal
    blocks (``blocks``), so every boundary fit on the same basis -- the
    measures here, each pole of a ``GreenFunction`` -- is one projection
    and one blocked back substitution (``solve_dirichlet``).  ``cond`` is
    the 1-norm condition number of ``r`` (that of the collocation matrix).

    Immutable after construction apart from one memo: ``residual``, the
    boundary misfit of the measures on a fresh sample, is computed the
    first time it is read (concurrent first reads compute the same value).
    Its evaluators are pure and thread-safe.
    """

    def __init__(self, domain: CircularDomain, order: int, colloc: int,
                 points: np.ndarray, q: np.ndarray, r: np.ndarray, blocks: list,
                 cond: float):
        self.domain = domain
        self.order = order
        self.colloc = colloc
        self.points = points
        self.q, self.r, self.blocks = q, r, blocks
        self.cond = cond
        # u_j has the value 1 on inner circle j and 0 on the other circles
        data = np.repeat(np.eye(domain.g + 1)[:, 1:], colloc, axis=0)
        self.coeffs = self.solve_dirichlet(data).T  # (g, n_basis) real
        # per circle, the value rows of the measures, then their derivative rows
        series = _series(domain, order, self.coeffs)  # (g, 2, g+1, order+1)
        self._table_rows = series.transpose(2, 1, 0, 3).reshape(domain.g + 1, -1, order + 1)

    @cached_property
    def residual(self) -> float:
        """``boundary_misfit``, computed on first read."""
        return self.boundary_misfit()

    def solve_dirichlet(self, values: np.ndarray) -> np.ndarray:
        """Basis coefficients, shape (n_basis, k), of the least-squares fits
        to boundary values given at the collocation points, shape
        (len(points), k): one projection and one triangular solve."""
        return _tri_solve(self.r, self.blocks, self.q.T @ values)

    @property
    def g(self) -> int:
        return self.domain.g

    # -- real evaluation ---------------------------------------------------

    def eval_u_all(self, z) -> np.ndarray:
        """Values of (u_1, ..., u_g) at z, shape z.shape + (g,) (``_batch``)."""
        z, shape = _batch(z)
        return self.eval_u_grad(z)[0].reshape(shape + (self.g,))

    def eval_u(self, j: int, z):
        """Harmonic measure u_j; j = 0 returns 1 - sum of the others."""
        def u(z):
            vals = self.eval_u_all(z)
            return 1.0 - vals.sum(axis=-1) if j == 0 else vals[..., j - 1]

        return _pointwise(u, z, float)

    def eval_u_grad(self, z) -> tuple[np.ndarray, np.ndarray]:
        """The values of (u_1, ..., u_g) at z (``eval_u_all``) and their
        gradients, encoded as du/dx - i du/dy (the complex derivative of
        each completion); shapes (len(z), g) each.  One product of the power
        table with the value and derivative rows of every circle, then one
        multiply by r_l/(z - q_l) per inner circle.  Every value and
        derivative of the measures comes from here."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        g = self.g
        table = _power_table(self.domain, self.order, z)
        sums = self._table_rows @ table  # (g+1, 2g, n)
        w = table[:g, 1]  # r_l / (z - q_l)
        u = sums[:, :g].real.sum(axis=0) - self.coeffs[:, 1 : 1 + g] @ np.log(np.abs(w))
        du = (sums[:g, g:] * w[:, None]).sum(axis=0) + sums[g, g:]
        return u.T, du.T

    def eval_normal_derivative(self, j: int, l: int, z):
        """Normal derivative of u_j on boundary circle l, in the direction
        pointing into the domain (away from the circle for inner circles,
        toward the origin on the unit circle): Re((du/dx - i du/dy) n)."""
        c = self.domain.circle(l)

        def derivative(z):
            n = (z - c.q) / np.abs(z - c.q)
            if l == 0:
                n = -n
            grad = self.eval_u_grad(z)[1]
            w = -grad.sum(axis=1) if j == 0 else grad[:, j - 1]
            return (w * n).real

        return _pointwise(derivative, z, float)

    def normal_derivative_matrix(self) -> tuple[np.ndarray, float]:
        """The g x g matrix of inward normal derivatives of the measures at
        the point of angle 0 on each inner circle, with its condition
        number.  This matrix is nonsingular for every valid domain; the
        Newton completions rely on that, so it is surfaced as a checkable
        invariant."""
        g = self.g
        mat = np.empty((g, g))
        for k in range(g):
            w = self.domain.circle(k + 1).point(0.0)
            for j in range(1, g + 1):
                mat[j - 1, k] = self.eval_normal_derivative(j, k + 1, w)
        cond = float(np.linalg.cond(mat)) if g else 1.0
        return mat, cond

    def boundary_misfit(self) -> float:
        """Max deviation of the fitted measures from their boundary data,
        evaluated on a fresh sample of twice the collocation points per
        circle."""
        worst = 0.0
        for l in range(self.g + 1):
            pts = self.domain.circle(l).samples(2 * self.colloc)
            vals = self.eval_u_all(pts)
            target = np.zeros(self.g)
            if l >= 1:
                target[l - 1] = 1.0
            worst = max(worst, float(np.max(np.abs(vals - target), initial=0.0)))
        return worst


def solve_harmonic_measures(d: CircularDomain, order: int = 24) -> HarmonicModel:
    """Fit all harmonic measures of the domain by boundary least squares.

    Each circle carries max(4*order, 64) collocation points.  The
    collocation matrix is factored once (reduced QR), the diagonal blocks
    of its triangular factor are inverted once, and the model keeps both
    for every later fit on its basis.  Raises ConvergenceError when the
    factor's 1-norm condition number ||r||_1 ||r^-1||_1 exceeds
    ``_COND_LIMIT``, which usually means the circles are too close together
    for this basis order.
    """
    report = validate_domain(d)
    if not report.is_valid:
        raise DomainError("invalid domain: " + "; ".join(report.messages))
    colloc = max(4 * order, 64)
    points = np.concatenate([d.circle(l).samples(colloc) for l in range(d.g + 1)])
    q, r = np.linalg.qr(_basis_matrix(d, order, points))
    try:
        blocks = _block_inverses(r)
        with np.errstate(all="ignore"):  # a near-singular factor reads as cond = inf
            cond = _cond_1norm(r, blocks)
    except np.linalg.LinAlgError:  # an exact zero on the diagonal
        cond = np.inf
    if cond > _COND_LIMIT:
        raise ConvergenceError(
            f"collocation system condition {cond:.2e} exceeds {_COND_LIMIT:.0e}; "
            "increase the circle separation or reduce the basis order"
        )
    return HarmonicModel(d, order, colloc, points, q, r, blocks, cond)


_COND_LIMIT = 1e14  # largest condition number of a collocation factor


# -- the triangular factor --------------------------------------------------------
#
# Every fit on a model's basis solves with the same triangular factor r, so
# the inverses of its diagonal blocks are formed once; a solve is then block
# substitution in matrix products, for one right-hand side or hundreds.

_BLOCK = 32  # rows per diagonal block of r


def _block_inverses(r: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """(lo, hi, inverse of r[lo:hi, lo:hi]) for the diagonal blocks of the
    upper triangular r.  Raises LinAlgError on an exact zero on the diagonal."""
    n = len(r)
    spans = [(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]
    return [(lo, hi, np.linalg.inv(r[lo:hi, lo:hi])) for lo, hi in spans]


def _tri_solve(r: np.ndarray, blocks, y: np.ndarray) -> np.ndarray:
    """x with r x = y for the upper triangular r whose diagonal blocks are
    inverted in ``blocks``; y has shape (n,) or (n, k)."""
    x = np.empty(y.shape, dtype=np.result_type(r, y))
    for lo, hi, inv in reversed(blocks):
        x[lo:hi] = inv @ (y[lo:hi] - r[lo:hi, hi:] @ x[hi:])
    return x


def _cond_1norm(r: np.ndarray, blocks) -> float:
    """||r||_1 ||r^-1||_1 for the upper triangular r, with r^-1 by block
    substitution; inf for a singular r."""
    inv = _tri_solve(r, blocks, np.eye(len(r)))
    cond = float(np.abs(r).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    return cond if np.isfinite(cond) else np.inf


class GreenFunction:
    """Green's function of the domain on the model's series basis:

        G(z, p) = log(|1 - conj(p) z| |z - p*| / (|z - p| |1 - conj(p*) z|)) + h_p(z),

    where p* is the reflection of the pole in its nearest inner circle and
    h_p is the least-squares fit of minus the logarithmic part on the
    model's collocation points.  The logarithmic part vanishes on the unit
    circle and is constant on the pole's nearest inner circle, so the fitted
    data stay smooth however close the pole is to either; on the unit disk
    (g = 0) it is the whole Green's function.  G vanishes on the boundary and
    is symmetric, and a proper map with zeros p_k has
    log|f| = -sum_k G(., p_k).

    The fits reuse the model's collocation points and QR factors (no
    factorization here): each pole costs one projection and one triangular
    solve.  By the symmetry a caller fits the smaller side of a (points,
    poles) matrix: ``paired`` fits the polish's points, and the raster's
    family sweep fits its pixels when they are fewer than the zeros.
    Immutable after construction.
    """

    def __init__(self, model: HarmonicModel):
        self.model = model

    def _fit(self, poles: np.ndarray):
        """Images of the poles (None on the disk) and the coefficients of their
        fits, shape (n_basis, len(poles)): one projection, one triangular solve.
        On its own circle a pole's data take |z - p*| / |z - p| as the constant
        r / |p - q|, not as two moduli that vanish near a collocation point,
        and on the unit circle, where the log part is exactly 0, they are 0."""
        m = self.model
        d = m.domain
        star = None
        if d.g == 0:
            data = _log_part(m.points[:, None], poles, None)
        else:
            cols = np.arange(len(poles))
            offset = poles[:, None] - d.centers
            near = np.argmin(np.abs(offset) - d.radii, axis=1)
            star = d.centers[near] + d.radii[near] ** 2 / np.conj(offset[cols, near])
            data = _log_part(m.points[:, None], poles, star)
            rows = (near + 1) * m.colloc + np.arange(m.colloc)[:, None]  # circle near + 1
            z = m.points[rows]
            data[rows, cols] = np.log(np.abs(1 - np.conj(poles) * z) * d.radii[near]
                                      / np.abs(offset[cols, near])
                                      / np.abs(1 - np.conj(star) * z))
        data[: m.colloc] = 0.0  # the unit circle's rows
        return star, m.solve_dirichlet(-data)

    def paired(self, poles):
        """G(z, p_b) and its z-derivative dG/dx - i dG/dy, with row b of the
        points paired with pole b alone.  Returns a function of (z, rows):
        z has shape (len(rows), m), rows indexes the poles (default: all, in
        order), and both results have the shape of z.  The poles' fits are
        solved here, once; an evaluation contracts each point's column of
        the power table with its pole's value and derivative rows alone
        (einsum, so a point's result does not depend on its batch), where
        ``__call__`` builds the (points, poles) matrix."""
        p = np.atleast_1d(np.asarray(poles, dtype=complex))
        d, order, g = self.model.domain, self.model.order, self.model.g
        star, coeffs = self._fit(p)
        series = _series(d, order, coeffs.T)  # (poles, 2, g+1, order+1)
        log_coeffs = coeffs[1 : 1 + g].T  # (poles, g)

        def green(z, rows=None):
            z = np.asarray(z, dtype=complex)
            rows = np.arange(len(p)) if rows is None else rows
            pb = p[rows, None]
            sb = None if star is None else star[rows, None]
            table = _power_table(d, order, z.ravel()).reshape(g + 1, order + 1, *z.shape)
            sums = np.einsum("lkbm,bclk->clbm", table, series[rows])
            w = table[:g, 1]  # r_l / (z - q_l)
            val = (_log_part(z, pb, sb) + sums[0].real.sum(axis=0)
                   - (np.log(np.abs(w)) * log_coeffs[rows].T[:, :, None]).sum(axis=0))
            # d/dz of log|1 - conj(p) z| - log|z - p| (+ the image's pair)
            der = -np.conj(pb) / (1 - np.conj(pb) * z) - 1 / (z - pb)
            if sb is not None:
                der = der + 1 / (z - sb) + np.conj(sb) / (1 - np.conj(sb) * z)
            der = der + (sums[1, :g] * w).sum(axis=0) + sums[1, g]
            return val, der

        return green

    def __call__(self, z, poles) -> np.ndarray:
        """G(z_i, p_m), shape (len(z), len(poles))."""
        p = np.atleast_1d(np.asarray(poles, dtype=complex))
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        star, coeffs = self._fit(p)
        m = self.model
        return _log_part(z[:, None], p, star) + _basis_matrix(m.domain, m.order, z) @ coeffs


def _log_part(z: np.ndarray, p: np.ndarray, star: np.ndarray | None) -> np.ndarray:
    """log(|1 - conj(p) z| |z - p*| / (|z - p| |1 - conj(p*) z|)), broadcast
    over z, the poles p and their images p* (no image terms when None)."""
    num, den = np.abs(1 - np.conj(p) * z), np.abs(z - p)
    if star is not None:
        num, den = num * np.abs(z - star), den * np.abs(1 - np.conj(star) * z)
    with np.errstate(divide="ignore"):
        return np.log(num / den)


# -- basis ------------------------------------------------------------------
#
# The power table at n points, complex, shape (g+1, order+1, n), points last:
#   table[l, k] = w_l^k, w_l = r_l / (z - q_l)    inner circle l + 1 (l < g)
#   table[g, k] = z^k                             outer circle
# with row 0 equal to 1.  The real basis (``_basis_matrix``) is the constant,
# the logs log(|z - q_l| / r_l) = -log|w_l|, then Re, Im of the table's rows
# 1..N, circle by circle.  Every column is the real part of an analytic (or
# log) function, so Re, Im coefficients b, b' give the completion's
# coefficient b - i b'; as d/dz w^k = -(k / r) w^k w and d/dz z^k =
# k z^(k-1), derivatives contract the same table (``_series``).


def _batch(z) -> tuple[np.ndarray, tuple[int, ...]]:
    """``z`` raveled to a 1-d complex batch, and the shape that the batch
    calls' results take ahead of their axis of g functions: z's own, or
    (1,) for a scalar."""
    z = np.asarray(z, dtype=complex)
    return z.ravel(), z.shape or (1,)


def _power_table(d: CircularDomain, order: int, z: np.ndarray) -> np.ndarray:
    """The power table (g+1, order+1, len(z)) of the points z, filled by
    block doubling: rows h+1 .. 2h are rows 1 .. h times row h.  One point
    is built as two: alone, a multiply would loop across the circles, whose
    interleaved input and output ranges send numpy to its scalar loop, which
    rounds unlike the vector loop of any larger batch."""
    g, n = d.g, len(z)
    if n == 1:
        z = np.repeat(z, 2)
    table = np.empty((g + 1, order + 1, len(z)), dtype=complex)
    table[:, 0] = 1.0
    table[:g, 1] = d.radii[:, None] / (z - d.centers[:, None])
    table[g, 1] = z
    h = 1
    while h < order:
        top = min(2 * h, order)
        np.multiply(table[:, 1 : top - h + 1], table[:, h : h + 1],
                    out=table[:, h + 1 : top + 1])
        h = top
    return table[..., :n]


def _basis_matrix(d: CircularDomain, order: int, z: np.ndarray) -> np.ndarray:
    """The real basis at the points z, shape (n, 1 + g + 2 order (g+1)): the
    constant, the log columns, then the power table's real interleaved view."""
    g, n = d.g, len(z)
    table = _power_table(d, order, z)
    out = np.empty((n, 1 + g + 2 * order * (g + 1)))
    out[:, 0] = 1.0
    out[:, 1 : 1 + g] = -np.log(np.abs(table[:g, 1])).T
    out[:, 1 + g :].view(complex).reshape(n, g + 1, order)[:] = table[:, 1:].transpose(2, 0, 1)
    return out


def _series(d: CircularDomain, order: int, coeffs: np.ndarray) -> np.ndarray:
    """Complex coefficients over the power table for real basis coefficients
    (m, n_basis): shape (m, 2, g+1, order+1), value rows then derivative
    rows.  Re of a value row's contraction plus the log terms is the value
    (the constant sits in the outer circle's row 0); a derivative row's
    contraction, times w_l on inner circle l, is d/dz of that circle's part
    of the completion (k c_k shifted down a row on the outer circle; -k c_k
    / r_l, and the log coefficient a_l / r_l in row 0, on the inner ones)."""
    g, m = d.g, len(coeffs)
    ks = np.arange(order + 1)
    out = np.zeros((m, 2, g + 1, order + 1), dtype=complex)
    val, der = out[:, 0], out[:, 1]
    pairs = coeffs[:, 1 + g :].reshape(m, g + 1, order, 2)
    val[:, :, 1:] = pairs[..., 0] - 1j * pairs[..., 1]
    val[:, g, 0] = coeffs[:, 0]
    der[:, :g] = -ks * val[:, :g]
    der[:, :g, 0] = coeffs[:, 1 : 1 + g]
    der[:, :g] /= d.radii[:, None]
    der[:, g, :-1] = ks[1:] * val[:, g, 1:]
    return out


# -- integrals of the first kind ---------------------------------------------

_PERIOD_SAMPLES = 512  # trapezoid nodes per circle of the period check


@dataclass(frozen=True)
class PeriodMatrix:
    """g x g matrix of b-periods.  The true matrix is purely imaginary and
    symmetric; the computed one is purely imaginary by construction, and
    ``asymmetry`` (max |tau - tau^T|) reports the reciprocity of the fitted
    fluxes (should be tiny)."""

    tau: np.ndarray
    asymmetry: float


class IntegralsFirstKind:
    """The g holomorphic integrals v_j with unit circle periods (none on the
    disk: values of shape (n, 0), a 0 x 0 period matrix).

    Each v_j is a fixed complex-linear combination of the analytic
    completions of the fitted measures, normalized so v_j(1) = 0 (hence
    Im v_j(1) = 0, matching u(1) = 0 on the unit circle).  Values use
    principal log branches: the imaginary part is globally single-valued,
    while the real part can jump by exact integers across the log cuts --
    harmless everywhere the library uses it, because v_j only ever enters
    through exp(-2 pi i n v_j) with integer n, through its imaginary part,
    or through path integrals of its derivative.

    The period matrix is read off the fit.  With cmat the log-term
    coefficients of the measures and C = inv(cmat) / (2 pi i) the
    combination above, Im v_j = -(1/2 pi) sum_k inv(cmat)_jk u_k, so the
    relation 2i Im v = tau u gives tau = 2C: purely imaginary, and
    symmetric up to the reciprocity of the fitted fluxes.  Immutable after
    construction.
    """

    def __init__(self, model: HarmonicModel):
        self.model = model
        g = model.g
        cmat = model.coeffs[:, 1 : 1 + g]  # log-term coefficient of measure j at circle l
        try:
            inv = np.linalg.inv(cmat)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                "singular period system; harmonic model is degenerate"
            ) from exc
        self.combination = inv / (2j * np.pi)  # (g, g): v_j = sum_k C[j,k] G_k
        self._values = _series(self.domain, model.order, model.coeffs)[:, 0].reshape(
            g, (g + 1) * (model.order + 1))
        # v_j(1) = 0: the offset is v_j(1) before it, in eval_v_all's arithmetic
        self._offset = 0.0
        self._offset = self.eval_v_all(1.0)[0]
        tau = 2 * self.combination
        asymmetry = float(np.max(np.abs(tau - tau.T), initial=0.0))
        self._periods = PeriodMatrix(tau=tau, asymmetry=asymmetry)

    @property
    def domain(self) -> CircularDomain:
        return self.model.domain

    @property
    def g(self) -> int:
        return self.model.g

    def eval_v_all(self, z) -> np.ndarray:
        """All v_j at z, shape z.shape + (g,) (``_batch``); principal branches.
        Each point is contracted with its own column of the power table (einsum,
        not a BLAS product), so its value does not depend on its batch."""
        z, shape = _batch(z)
        d = self.domain
        table = _power_table(d, self.model.order, z).reshape(self._values.shape[1], -1)
        x = (z[:, None] - d.centers) / d.radii
        logs = np.empty(x.shape, dtype=complex)  # np.log's branch, without its slow loop
        logs.real, logs.imag = np.log(np.abs(x)), np.arctan2(x.imag, x.real)
        completions = (np.einsum("bn,jb->nj", table, self._values)
                       + np.einsum("nl,jl->nj", logs, self.model.coeffs[:, 1 : 1 + self.g]))
        v = np.einsum("nk,jk->nj", completions, self.combination) - self._offset
        return v.reshape(shape + (self.g,))

    def eval_v(self, j: int, z):
        return _pointwise(lambda z: self.eval_v_all(z)[..., j - 1], z)

    def v_prime_all(self, z) -> np.ndarray:
        """All v_j' at z, shape z.shape + (g,) (``_batch``): the combination
        of the completions' derivatives (``HarmonicModel.eval_u_grad``)."""
        z, shape = _batch(z)
        return (self.model.eval_u_grad(z)[1] @ self.combination.T).reshape(shape + (self.g,))

    def circle_periods(self) -> np.ndarray:
        """Quadrature check of the defining normalization, on
        ``_PERIOD_SAMPLES`` nodes per circle: entry (i, j) is the period of
        dv_j around boundary circle i+1; should be delta_ij."""
        g = self.g
        out = np.empty((g, g), dtype=complex)
        for i in range(g):
            c = self.domain.circle(i + 1)
            t = np.linspace(0.0, 2 * np.pi, _PERIOD_SAMPLES, endpoint=False)
            pts = c.q + c.r * np.exp(1j * t)
            dz = 1j * c.r * np.exp(1j * t)
            vp = self.v_prime_all(pts)
            out[i] = (vp * dz[:, None]).sum(axis=0) * (2 * np.pi / _PERIOD_SAMPLES)
        return out

    def period_matrix(self) -> PeriodMatrix:
        """The b-periods tau = 2 C, read off the fit (see the class)."""
        return self._periods


def integrals_first_kind(model: HarmonicModel) -> IntegralsFirstKind:
    return IntegralsFirstKind(model)


def har_relation_residual(v: IntegralsFirstKind, z) -> float:
    """Max-norm residual of the identity 2i Im(v(z)) = tau u(z), with the
    period matrix and the measures of ``v`` (0 on the disk)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    lhs = 2j * np.imag(v.eval_v_all(z))
    rhs = v.model.eval_u_all(z) @ v.period_matrix().tau.T
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
