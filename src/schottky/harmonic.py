"""Harmonic measures, their analytic completions, the Green's function,
first-kind integrals and the period matrix, via a least-squares series
method.

Each harmonic measure u_j (value 1 on inner circle j, 0 on the other
boundary circles) is fitted in the classical basis for circular domains:
a constant, one log term per inner circle, negative powers centered at each
inner circle and positive powers for the outer circle.  Everything in the
basis is exactly harmonic, so the only error is the boundary misfit of the
least-squares fit, which converges spectrally in the basis order.

The analytic completions of the fitted measures span the holomorphic
differentials of the domain; normalizing their circle periods produces the
integrals of the first kind v_j, and integrating dv_j along a cycle through
the reflected Schottky double produces the period matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .domain import CircularDomain, _pointwise, validate_domain
from .errors import ConvergenceError, DomainError

__all__ = [
    "HarmonicModel",
    "GreenFunction",
    "IntegralsFirstKind",
    "PeriodMatrix",
    "solve_harmonic_measures",
    "integrals_first_kind",
    "period_matrix",
    "har_relation_residual",
]


class HarmonicModel:
    """Least-squares representation of the harmonic measures u_1..u_g.

    u_0 is never fitted; it is defined as 1 - sum of the others, which makes
    the partition of unity exact.  Construction is deterministic and single
    threaded; the evaluators are pure and thread-safe afterwards.
    """

    def __init__(self, domain: CircularDomain, order: int, colloc: int,
                 coeffs: np.ndarray, residual: float, cond: float):
        self.domain = domain
        self.order = order
        self.colloc = colloc
        self.coeffs = coeffs  # (g, n_basis) real
        self.residual = residual
        self.cond = cond
        self._complex_coeffs = _complexify(domain, order, coeffs)

    @property
    def g(self) -> int:
        return self.domain.g

    @property
    def log_coefficients(self) -> np.ndarray:
        """(g, g) real matrix: log-term coefficient of measure j at inner
        circle l.  Row j, column l."""
        g = self.g
        return self.coeffs[:, 1 : 1 + g].copy()

    # -- real evaluation ---------------------------------------------------

    def eval_u_all(self, z) -> np.ndarray:
        """Values of (u_1, ..., u_g) at z; shape (..., g)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if self.g == 0:
            return np.zeros((len(z), 0))
        return _basis_matrix(self.domain, self.order, z) @ self.coeffs.T

    def eval_u(self, j: int, z):
        """Harmonic measure u_j; j = 0 returns 1 - sum of the others."""
        def u(z):
            vals = self.eval_u_all(z)
            return 1.0 - vals.sum(axis=-1) if j == 0 else vals[..., j - 1]

        return _pointwise(u, z, float)

    def eval_grad_u(self, j: int, z):
        """Gradient (du/dx, du/dy); analytic from the basis derivatives."""
        if j == 0:
            c = -self._complex_coeffs.sum(axis=0)
        else:
            c = self._complex_coeffs[j - 1]

        def grad(z):
            w = _analytic_basis_derivative(self.domain, self.order, z) @ c
            return w.real, -w.imag  # w is the complex derivative of the completion

        return _pointwise(grad, z, float)

    def grad_u_complex(self, z) -> np.ndarray:
        """Gradients of all measures at once, encoded as du/dx - i du/dy
        (the complex derivative of each completion); shape (len(z), g)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if self.g == 0:
            return np.zeros((len(z), 0), dtype=complex)
        hp = _analytic_basis_derivative(self.domain, self.order, z)
        return hp @ self._complex_coeffs.T

    def eval_u_grad(self, z) -> tuple[np.ndarray, np.ndarray]:
        """``eval_u_all`` and ``grad_u_complex`` together, from one table of
        basis powers; shapes (len(z), g) each."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if self.g == 0:
            return np.zeros((len(z), 0)), np.zeros((len(z), 0), dtype=complex)
        basis = _basis_matrix(self.domain, self.order, z)
        powers = _power_block(basis, self.g, self.order)
        hp = _analytic_basis_derivative(self.domain, self.order, z, powers)
        return basis @ self.coeffs.T, hp @ self._complex_coeffs.T

    def eval_normal_derivative(self, j: int, l: int, z):
        """Normal derivative of u_j on boundary circle l, in the direction
        pointing into the domain (away from the circle for inner circles,
        toward the origin on the unit circle)."""
        c = self.domain.circle(l)

        def derivative(z):
            n = (z - c.q) / np.abs(z - c.q)
            if l == 0:
                n = -n
            gx, gy = self.eval_grad_u(j, z)
            return gx * n.real + gy * n.imag

        return _pointwise(derivative, z, float)

    # -- analytic completion ------------------------------------------------

    def completion(self, j: int, z):
        """Analytic completion G_j with Re G_j = u_j (principal log branches;
        the real part is single-valued, the imaginary part is tracked by the
        first-kind integrals)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        h = _analytic_basis(self.domain, self.order, z)
        return h @ self._complex_coeffs[j - 1]

    def completion_derivative(self, j: int, z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        hp = _analytic_basis_derivative(self.domain, self.order, z)
        return hp @ self._complex_coeffs[j - 1]

    def normal_derivative_matrix(self, feet=None) -> tuple[np.ndarray, float]:
        """The g x g matrix of inward normal derivatives of the measures at
        one point per inner circle, with its condition number.  This matrix
        is nonsingular for every valid domain; the Newton completions rely
        on that, so it is surfaced as a checkable invariant."""
        g = self.g
        if feet is None:
            feet = [self.domain.circle(j).point(0.0) for j in range(1, g + 1)]
        mat = np.empty((g, g))
        for k, w in enumerate(feet):
            for j in range(1, g + 1):
                mat[j - 1, k] = self.eval_normal_derivative(j, k + 1, complex(w))
        cond = float(np.linalg.cond(mat)) if g else 1.0
        return mat, cond

    def boundary_misfit(self, samples: int = 512) -> float:
        """Max deviation of the fitted measures from their boundary data,
        evaluated on a fresh sample set."""
        worst = 0.0
        for l in range(self.g + 1):
            pts = self.domain.circle(l).samples(samples)
            vals = self.eval_u_all(pts)
            target = np.zeros(self.g)
            if l >= 1:
                target[l - 1] = 1.0
            worst = max(worst, float(np.max(np.abs(vals - target))))
        return worst


def solve_harmonic_measures(
    d: CircularDomain, order: int = 24, colloc: int | None = None,
    cond_limit: float = 1e14,
) -> HarmonicModel:
    """Fit all harmonic measures of the domain by boundary least squares.

    ``colloc`` is the number of collocation points per circle (default
    max(4*order, 64)).  Raises ConvergenceError when the collocation system
    is hopelessly ill conditioned, which usually means the circles are too
    close together for this basis order.
    """
    report = validate_domain(d)
    if not report.is_valid:
        raise DomainError("invalid domain: " + "; ".join(report.messages))
    g = d.g
    if g == 0:
        return HarmonicModel(d, order, 0, np.zeros((0, 1)), 0.0, 1.0)
    if colloc is None:
        colloc = max(4 * order, 64)
    if colloc < 4 * order:
        raise DomainError("need at least 4*order collocation points per circle")

    rows = []
    rhs = []
    for l in range(g + 1):
        pts = d.circle(l).samples(colloc)
        rows.append(_basis_matrix(d, order, pts))
        target = np.zeros((colloc, g))
        if l >= 1:
            target[:, l - 1] = 1.0
        rhs.append(target)
    amat = np.vstack(rows)
    bmat = np.vstack(rhs)
    coeffs, _, rank, sv = np.linalg.lstsq(amat, bmat, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if cond > cond_limit:
        raise ConvergenceError(
            f"collocation system condition {cond:.2e} exceeds {cond_limit:.0e}; "
            "increase the circle separation or reduce the basis order"
        )
    model = HarmonicModel(d, order, colloc, coeffs.T, 0.0, cond)
    model.residual = model.boundary_misfit(2 * colloc)
    return model


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

    The collocation matrix is factored once (economic QR); each pole then
    costs one projection and one triangular solve.  Immutable after
    construction.
    """

    def __init__(self, model: HarmonicModel):
        d = model.domain
        colloc = model.colloc or max(4 * model.order, 64)
        self.model = model
        self._points = np.concatenate([d.circle(l).samples(colloc) for l in range(d.g + 1)])
        self._q, self._r = np.linalg.qr(_basis_matrix(d, model.order, self._points))

    def kernel(self, poles):
        """G(., p) for each pole, as one function of z that returns an array
        of shape (len(z), len(poles)); the poles' fits are solved here, once."""
        p = np.atleast_1d(np.asarray(poles, dtype=complex))
        d, order = self.model.domain, self.model.order
        if d.g:
            offset = p[:, None] - d.centers
            near = np.argmin(np.abs(offset) - d.radii, axis=1)
            star = d.centers[near] + d.radii[near] ** 2 / np.conj(offset[np.arange(len(p)), near])

        def singular(z: np.ndarray) -> np.ndarray:
            z = z[:, None]
            num, den = np.abs(1 - np.conj(p) * z), np.abs(z - p)
            if d.g:
                num, den = num * np.abs(z - star), den * np.abs(1 - np.conj(star) * z)
            with np.errstate(divide="ignore"):
                return np.log(num / den)

        coeffs = solve_triangular(self._r, -(self._q.T @ singular(self._points)))

        def green(z) -> np.ndarray:
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            return singular(z) + _basis_matrix(d, order, z) @ coeffs

        return green

    def __call__(self, z, poles) -> np.ndarray:
        """G(z_i, p_m), shape (len(z), len(poles))."""
        return self.kernel(poles)(z)


# -- basis ------------------------------------------------------------------
#
# Real basis columns, in order:
#   [0]                 constant 1
#   [1 .. g]            log(|z - q_l| / r_l)                (inner circles)
#   per inner circle l, k = 1..N:  Re s_lk, Im s_lk with
#                       s_lk = ((z - q_l)/r_l)^(-k)
#   outer, k = 1..N:    Re z^k, Im z^k
#
# Every column is the real part of an analytic (or log) function, so the
# complexified coefficients give the analytic completion directly.


def _basis_size(g: int, order: int) -> int:
    return 1 + g + 2 * order * (g + 1)


def _powers(d: CircularDomain, order: int, z: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` (n, g+1, order) with the basis powers: (r_l / (z - q_l))^k
    for each inner circle l, then z^k for the outer circle, k = 1..order."""
    g = d.g
    out[:, :g] = (d.radii / (z[:, None] - d.centers))[:, :, None]
    out[:, g] = z[:, None]
    for lo in range(0, len(z), 128):  # row blocks small enough to stay in cache
        np.cumprod(out[lo : lo + 128], axis=2, out=out[lo : lo + 128])


def _power_block(basis: np.ndarray, g: int, order: int) -> np.ndarray:
    """The power columns of a basis matrix as a complex (n, g+1, order) view;
    in the real basis each Re, Im column pair is one complex number."""
    return basis[:, 1 + g :].view(complex).reshape(len(basis), g + 1, order)


def _basis_matrix(d: CircularDomain, order: int, z: np.ndarray) -> np.ndarray:
    g = d.g
    out = np.empty((len(z), _basis_size(g, order)), dtype=float)
    out[:, 0] = 1.0
    out[:, 1 : 1 + g] = np.log(np.abs(z[:, None] - d.centers) / d.radii)
    _powers(d, order, z, _power_block(out, g, order))
    return out


def _analytic_basis(d: CircularDomain, order: int, z: np.ndarray) -> np.ndarray:
    g = d.g
    out = np.empty((len(z), 1 + g + order * (g + 1)), dtype=complex)
    out[:, 0] = 1.0
    out[:, 1 : 1 + g] = np.log((z[:, None] - d.centers) / d.radii)
    _powers(d, order, z, _power_block(out, g, order))
    return out


def _analytic_basis_derivative(d: CircularDomain, order: int, z: np.ndarray,
                               powers: np.ndarray | None = None) -> np.ndarray:
    g = d.g
    ks = np.arange(1, order + 1)
    shifted = z[:, None] - d.centers
    out = np.empty((len(z), 1 + g + order * (g + 1)), dtype=complex)
    out[:, 0] = 0.0
    out[:, 1 : 1 + g] = 1.0 / shifted
    block = _power_block(out, g, order)
    if powers is None:
        _powers(d, order, z, block)
    else:
        block[:] = powers
    block[:, :g] = block[:, :g] * -ks / shifted[:, :, None]
    # d/dz z^k = k z^(k-1): the outer powers shifted by one
    block[:, g, 1:] = block[:, g, :-1].copy()
    block[:, g, 0] = 1.0
    block[:, g] *= ks
    return out


def _complexify(d: CircularDomain, order: int, coeffs: np.ndarray) -> np.ndarray:
    """Turn the fitted real coefficients into complex coefficients over the
    analytic basis: Re-column beta and Im-column beta' combine into the
    coefficient beta - i beta' of the analytic function."""
    if coeffs.size == 0:
        return np.zeros((0, 1), dtype=complex)
    pairs = coeffs[:, 1 + d.g :].reshape(len(coeffs), (d.g + 1) * order, 2)
    return np.concatenate([coeffs[:, : 1 + d.g], pairs[..., 0] - 1j * pairs[..., 1]], axis=1)


# -- integrals of the first kind ---------------------------------------------


@dataclass(frozen=True)
class PeriodMatrix:
    """g x g matrix of b-periods.  The entries of the true matrix are purely
    imaginary and symmetric; ``max_real`` and ``asymmetry`` report how far the
    computed one is from that, and ``base_point_spread`` how much the cycle
    integral varied over different base points (all should be tiny)."""

    tau: np.ndarray
    max_real: float
    asymmetry: float
    base_point_spread: float


class IntegralsFirstKind:
    """The g holomorphic integrals v_j with unit circle periods.

    Each v_j is a fixed complex-linear combination of the analytic
    completions of the fitted measures, normalized so v_j(1) = 0 (hence
    Im v_j(1) = 0, matching u(1) = 0 on the unit circle).  Values use
    principal log branches: the imaginary part is globally single-valued,
    while the real part can jump by exact integers across the log cuts --
    harmless everywhere the library uses it, because v_j only ever enters
    through exp(-2 pi i n v_j) with integer n, through its imaginary part,
    or through path integrals of its derivative.
    """

    def __init__(self, model: HarmonicModel):
        self.model = model
        g = model.g
        if g == 0:
            raise DomainError("integrals of the first kind need g >= 1")
        cmat = model.log_coefficients  # (j, l)
        try:
            inv = np.linalg.inv(cmat)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                "singular period system; harmonic model is degenerate"
            ) from exc
        self.combination = inv / (2j * np.pi)  # (g, g): v_j = sum_k C[j,k] G_k
        comp1 = np.array([model.completion(k + 1, 1.0)[0] for k in range(g)])
        self._offset = self.combination @ comp1  # subtracted so v_j(1) = 0
        self._period_cache: PeriodMatrix | None = None

    @property
    def domain(self) -> CircularDomain:
        return self.model.domain

    @property
    def g(self) -> int:
        return self.model.g

    def eval_v_all(self, z) -> np.ndarray:
        """All v_j at z, shape (..., g); principal branches."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        h = _analytic_basis(self.domain, self.model.order, z)
        gvals = h @ self.model._complex_coeffs.T  # (n, g) completions
        return gvals @ self.combination.T - self._offset[None, :]

    def eval_v(self, j: int, z):
        return _pointwise(lambda z: self.eval_v_all(z)[..., j - 1], z)

    def v_prime_all(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        hp = _analytic_basis_derivative(self.domain, self.model.order, z)
        gprime = hp @ self.model._complex_coeffs.T
        return gprime @ self.combination.T

    def v_prime(self, j: int, z):
        return _pointwise(lambda z: self.v_prime_all(z)[..., j - 1], z)

    def circle_periods(self, samples: int = 512) -> np.ndarray:
        """Quadrature check of the defining normalization: entry (i, j) is
        the period of dv_j around boundary circle i+1; should be delta_ij."""
        g = self.g
        out = np.empty((g, g), dtype=complex)
        for i in range(g):
            c = self.domain.circle(i + 1)
            t = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
            pts = c.q + c.r * np.exp(1j * t)
            dz = 1j * c.r * np.exp(1j * t)
            vp = self.v_prime_all(pts)
            out[i] = (vp * dz[:, None]).sum(axis=0) * (2 * np.pi / samples)
        return out

    def period_matrix(self, base_points: int = 3) -> PeriodMatrix:
        """b-periods by integrating dv_j along a cycle of the Schottky double:
        from the reflection of a boundary point of circle i, through the unit
        circle, to the point itself.  The half outside the unit disk is pulled
        back by the reflection z -> 1/conj(z), under which dv transforms to
        -conj(v'(1/conj w)) / w^2 dw, so the integrand is only ever evaluated
        where the fitted series is accurate.

        The result is averaged over several base points and the spread is
        reported; for a faithful model it is independent of the base point.
        """
        if self._period_cache is not None:
            return self._period_cache
        g = self.g
        taus = []
        for i in range(1, g + 1):
            rows = []
            for zb in _cycle_base_points(self.domain, i, base_points):
                rows.append(self._cycle_integral(zb))
            taus.append(rows)
        taus = np.array(taus)  # (g, base_points, g)
        tau = taus.mean(axis=1)
        spread = float(np.max(np.abs(taus - tau[:, None, :])))
        self._period_cache = PeriodMatrix(
            tau=tau,
            max_real=float(np.max(np.abs(tau.real))),
            asymmetry=float(np.max(np.abs(tau - tau.T))),
            base_point_spread=spread,
        )
        return self._period_cache

    def _cycle_integral(self, zb: complex) -> np.ndarray:
        """Integral of (dv_1, ..., dv_g) along the two-leg cycle through zb."""
        s = zb / abs(zb)  # crossing point on the unit circle
        nodes, weights = _gauss_nodes()

        # outer leg: from 1/conj(zb) to s, integrand pulled back into the disk
        a, b = 1 / zb.conjugate(), s
        w = a + (b - a) * nodes
        integrand = -np.conj(self.v_prime_all(1 / np.conj(w))) / (w * w)[:, None]
        outer = (b - a) * (weights @ integrand)

        # inner leg: from s to zb
        a, b = s, zb
        w = a + (b - a) * nodes
        inner = (b - a) * (weights @ self.v_prime_all(w))
        return outer + inner


def _cycle_base_points(d: CircularDomain, i: int, count: int) -> list[complex]:
    """Boundary points of circle i whose radial segment to the unit circle
    stays clear of the other circles (the same is then automatic for the
    reflected outer leg).  Prefers large |z| (shorter legs) while spreading
    the picks in angle so the base-point independence check is meaningful."""
    c = d.circle(i)
    candidates = sorted(c.samples(64), key=lambda z: -abs(z))
    picked: list[complex] = []
    for zb in candidates:
        if len(picked) >= count:
            break
        if abs(zb) < 1e-9:
            continue
        if any(abs(np.angle((zb - c.q) / (p - c.q))) < np.pi / 8 for p in picked):
            continue
        clear = True
        for l in range(1, d.g + 1):
            if l == i:
                continue
            other = d.circle(l)
            margin = max(0.25 * other.r, 0.01)
            if _segment_circle_distance(zb, zb / abs(zb), other.q, other.r) < margin:
                clear = False
                break
        if clear:
            picked.append(complex(zb))
    if not picked:
        raise ConvergenceError(f"no unobstructed cycle path found for circle {i}")
    return picked


def _segment_circle_distance(a: complex, b: complex, q: complex, r: float) -> float:
    t = np.linspace(0.0, 1.0, 33)
    pts = a + (b - a) * t
    return float(np.min(np.abs(pts - q)) - r)


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_nodes(n: int = 96) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GAUSS_CACHE[n] = ((x + 1.0) / 2.0, w / 2.0)
    return _GAUSS_CACHE[n]


def integrals_first_kind(model: HarmonicModel) -> IntegralsFirstKind:
    return IntegralsFirstKind(model)


def period_matrix(v: IntegralsFirstKind, d: CircularDomain | None = None) -> PeriodMatrix:
    if d is not None and d is not v.domain:
        raise DomainError("period_matrix called with a foreign domain")
    return v.period_matrix()


def har_relation_residual(
    model: HarmonicModel, v: IntegralsFirstKind, tau: np.ndarray | PeriodMatrix, z
) -> float:
    """Max-norm residual of the identity 2i Im(v(z)) = tau u(z)."""
    t = tau.tau if isinstance(tau, PeriodMatrix) else np.asarray(tau)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    lhs = 2j * np.imag(v.eval_v_all(z))
    rhs = model.eval_u_all(z) @ t.T
    return float(np.max(np.abs(lhs - rhs)))
