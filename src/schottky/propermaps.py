"""Proper holomorphic maps onto the unit disk with prescribed zeros.

A degree-n proper map of a (g+1)-connected circular domain exists exactly
when its prospective zeros p_1..p_n satisfy the harmonic-measure condition

    sum_k u_j(p_k) = n_j   (j = 1..g)

for nonnegative integers n_j; (n_0, ..., n_g) is then the boundary degree
(the covering degree of each boundary circle).  The map itself is the
product form

    f(z) = rot * exp(-2 pi i sum_j n_j v_j(z)) * prod_k eta(z, p_k)

with the rotation fixing f(1) = 1, or equivalently a radius-normalized
product of the eta_l slit maps over any circle-indexed grouping of the
zeros with the right group sizes.  Both forms are implemented, plus the
Newton machinery that completes partial zero sets to admissible ones and
the boundary-data continuation that builds the map with prescribed
preimages of 1 on every boundary circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import UNIT_CIRCLE, CircularDomain, _pointwise
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    DomainError,
    ResolutionError,
    TruncationQualityError,
)
from .harmonic import HarmonicModel, IntegralsFirstKind
from .prime import PrimeEvaluator, RatioProduct, _product
from .slitmaps import eta, eta_l, slit_radius

__all__ = [
    "BoundaryDegree",
    "ZeroConfig",
    "ProperMap",
    "condition1_residual",
    "make_zero_config",
    "complete_zeros",
    "build_proper_map",
    "build_proper_map_alt",
    "condition3_residual",
    "boundary_modulus_deviation",
    "boundary_degree",
    "winding_number",
    "from_boundary_data",
    "blaschke_eval",
    "lift_blaschke",
]


@dataclass(frozen=True)
class BoundaryDegree:
    """Covering degrees (n_0, ..., n_g) of a proper map on the boundary
    circles.  Total degree at least g+1 is the realizability floor."""

    nu: tuple[int, ...]

    def __post_init__(self):
        if any(n < 0 for n in self.nu):
            raise DomainError("boundary degrees must be nonnegative")

    @property
    def n(self) -> int:
        return sum(self.nu)


@dataclass(frozen=True)
class ZeroConfig:
    """A multiset of prospective zeros with a boundary degree and the
    residual vector of the admissibility condition."""

    zeros: tuple[complex, ...]
    nu: tuple[int, ...]
    residual: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residual) if self.residual else 0.0

    def admissible(self, tol: float = 1e-6) -> bool:
        return self.max_residual < tol

    # JSON schema: {"zeros":[[re,im],...], "nu":[n0,...,ng]}

    def to_dict(self) -> dict:
        return {"zeros": [[z.real, z.imag] for z in self.zeros],
                "nu": list(self.nu)}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict())

    @staticmethod
    def parse(text: str) -> tuple[list[complex], tuple[int, ...]]:
        """Parse the schema; the residual needs a harmonic model, so this
        returns the raw (zeros, nu) for make_zero_config."""
        import json

        try:
            data = json.loads(text)
            zeros = [complex(re, im) for re, im in data["zeros"]]
            nu = tuple(int(x) for x in data["nu"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed zero-config JSON: {exc}") from exc
        return zeros, nu


def condition1_residual(model: HarmonicModel, zeros, nu) -> np.ndarray:
    """Per-circle residual |sum_k u_j(p_k) - n_j| of the zero condition.
    Boundary zeros are allowed (the harmonic measures extend continuously)."""
    nu = tuple(int(x) for x in nu)
    if len(nu) != model.g + 1:
        raise DomainError(f"nu must have g+1 = {model.g + 1} entries")
    zeros = np.asarray(list(zeros), dtype=complex)
    if len(zeros) != sum(nu):
        raise AdmissibilityError(
            f"{len(zeros)} zeros cannot realize boundary degree {nu} (needs {sum(nu)})"
        )
    if model.g == 0:
        return np.zeros(0)
    sums = model.eval_u_all(zeros).sum(axis=0)
    return np.abs(sums - np.asarray(nu[1:], dtype=float))


def make_zero_config(model: HarmonicModel, zeros, nu) -> ZeroConfig:
    res = condition1_residual(model, zeros, nu)
    return ZeroConfig(
        tuple(complex(z) for z in zeros),
        tuple(int(x) for x in nu),
        tuple(float(r) for r in res),
    )


# -- Newton completion of zero sets ------------------------------------------
#
# Every construction moves g points along chart rays: from a boundary foot
# along the inward normal there, with one depth unknown per ray.  One solver
# serves them all; its box keeps every depth between the foot and the point
# where the ray meets the next boundary circle.

_CHART_TOL = 1e-11  # max-norm residual of a solved chart


def _ray_exit(d: CircularDomain, foot: complex, direction: complex) -> float:
    """Distance along the inward ray from a boundary foot to the next boundary
    circle it meets (the roots on the foot's own circle lie at depth <= 0)."""
    best = math.inf
    for c in (UNIT_CIRCLE, *d.inner_circles):
        # |foot - q + s u|^2 = r^2 with |u| = 1
        w = foot - c.q
        b = (w.conjugate() * direction).real
        disc = b * b - (abs(w) ** 2 - c.r**2)
        if disc < 0:
            continue
        root = math.sqrt(disc)
        for s in (-b - root, -b + root):
            if s > 1e-12:
                best = min(best, s)
    return best


def _chart_box(d: CircularDomain, feet: np.ndarray, dirs: np.ndarray):
    """Bounds (lo, hi) of the depths of the rays: just off the foot, just
    short of the exit.  A scalar loop on Python complex numbers: the solves
    are mostly one chart, where numpy's per-call cost would dominate."""
    exits = np.array([[_ray_exit(d, f, u) for f, u in zip(row_f, row_u)]
                      for row_f, row_u in zip(feet.tolist(), dirs.tolist())])
    return 1e-12, exits * (1 - 1e-12)


def _level_depths(model: HarmonicModel, circles, feet: np.ndarray, dirs: np.ndarray,
                  levels, box=None) -> tuple[np.ndarray, int]:
    """Depths, shape (B, m), where the point on each ray alone brings the
    measure of its circle down to the level: u_l(foot + s dir) = level with
    l = circles[k] for column k (u_l falls from 1 going inward), and the
    number of batched evaluations made.

    Safeguarded Newton on each ray: the ray keeps a bisection bracket over
    its chart box (``box``, computed when not given) with u_l above the
    level at its low end, starts at the box's midpoint, and after each
    evaluation takes the Newton step from ``eval_u_grad`` when that lands
    inside the bracket, and the bracket's midpoint otherwise: the geometric
    one, sqrt(lo hi), while hi > ``_WIDE_BRACKET`` lo, the arithmetic one
    after.  u_l grows like the log of the depth near a small circle, so on
    a tiny hole the geometric midpoint reaches the decade of the level
    crossing in a few steps, where halving would take twenty.  A ray is
    frozen once its step falls below ``_SEED_TOL`` times its exit, the
    resolution of a 40-step bisection of the box, so its depth is at least
    as close to the level crossing as that bisection's.  After
    ``_SEED_STEPS`` evaluations a ray still moving keeps its last iterate,
    which lies inside its bracket.
    """
    lo, hi = _chart_box(model.domain, feet, dirs) if box is None else box
    hi = hi.flatten()
    lo = np.full(hi.shape, lo)
    tol = _SEED_TOL * hi
    level = np.broadcast_to(levels, feet.shape).ravel()
    cols = np.broadcast_to(np.asarray(circles) - 1, feet.shape).ravel()
    foot, ray = feet.ravel(), dirs.ravel()
    s = 0.5 * (lo + hi)
    active = np.arange(len(s))
    evaluations = 0
    while len(active) and evaluations < _SEED_STEPS:
        at = s[active]
        u, grad = model.eval_u_grad(foot[active] + at * ray[active])
        evaluations += 1
        k, c = np.arange(len(active)), cols[active]
        excess = u[k, c] - level[active]
        above = excess > 0
        lo[active] = np.where(above, at, lo[active])
        hi[active] = np.where(above, hi[active], at)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = at - excess / np.real(grad[k, c] * ray[active])
        inside = (newton >= lo[active]) & (newton <= hi[active])
        a, b = lo[active], hi[active]
        mid = np.where(b > _WIDE_BRACKET * a, np.sqrt(a * b), 0.5 * (a + b))
        s[active] = np.where(inside, newton, mid)
        active = active[np.abs(s[active] - at) > tol[active]]
    return s.reshape(feet.shape), evaluations


_SEED_TOL = 2.0**-41  # of the ray's exit: a 40-step bisection's resolution
# brackets whose ends lie further apart than this ratio fall back to their
# geometric midpoint: the level depths of tiny holes lie decades below the
# box midpoint, where halving the bracket gains one bit per evaluation
_WIDE_BRACKET = 16.0
_SEED_STEPS = 100  # evaluations: a backstop above any seed seen (7 to 25)


def _solve_chart(model: HarmonicModel, feet: np.ndarray, dirs: np.ndarray, target,
                 seed, box=None) -> tuple[np.ndarray, np.ndarray]:
    """Depths s, shape (B, g), with sum_k u(feet + s dirs) = target for each
    row of g rays, and the max-norm residual of each row at its last
    evaluation.

    Plain Newton from the seed depths with every iterate clipped to the
    chart box, at most 40 evaluations.  A row counts as solved once its
    residual is below ``_CHART_TOL``, and is then held fixed (a zeroed step,
    so a batch gives the rows' one-at-a-time results).  A singular Jacobian
    ends the solve with the residuals reached.  ``box`` is the rays' chart
    box, computed when not given.
    """
    lo, hi = _chart_box(model.domain, feet, dirs) if box is None else box
    b, g = feet.shape
    s = np.clip(seed, lo, hi)
    for _ in range(40):
        u, grad = model.eval_u_grad((feet + s * dirs).ravel())
        fval = u.reshape(b, g, g).sum(axis=1) - target
        res = np.abs(fval).max(axis=1, initial=0.0)
        done = res < _CHART_TOL
        if done.all():
            break
        # d(sum_k u_j)/ds_k = Re(grad_k u_j * dir_k): row j, column k
        jac = np.real(grad.reshape(b, g, g) * dirs[:, :, None]).transpose(0, 2, 1)
        try:
            step = np.linalg.solve(jac, -fval[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            break
        s = np.clip(s + np.where(done[:, None], 0.0, step), lo, hi)
    return s, res


def complete_zeros(model: HarmonicModel, fixed, nu, guess) -> list[complex]:
    """Move g free points along their chart rays until the combined zero
    set satisfies the admissibility condition.

    Each guess becomes a chart ray: its foot is the nearest boundary point,
    its direction the inward normal there, and the solve starts at the
    guess's depth along it.  That matches the g-equation/g-unknown square
    system whose Jacobian is the matrix of normal derivatives of the
    measures, nonsingular for any valid domain.  The solver's box keeps the
    points inside the domain; raises ConvergenceError (with the last
    residual) when the chart solve fails.
    """
    g = model.g
    guess = [complex(z) for z in guess]
    fixed = [complex(z) for z in fixed]
    if len(guess) != g:
        raise DomainError(f"need exactly g = {g} guess points")
    nu = tuple(int(x) for x in nu)
    if len(fixed) + len(guess) != sum(nu):
        raise AdmissibilityError("fixed + free zero count must match the degree")
    d = model.domain
    feet, dirs, depths = [], [], []
    for z in guess:
        gaps = [1.0 - abs(z)] + [abs(z - c.q) - c.r for c in d.inner_circles]
        l = int(np.argmin(gaps))
        c = d.circle(l)
        normal = (z - c.q) / abs(z - c.q)
        feet.append(c.q + c.r * normal)
        dirs.append(-normal if l == 0 else normal)
        depths.append(gaps[l])
    feet, dirs = np.array([feet]), np.array([dirs])
    target = np.asarray(nu[1:], dtype=float)
    if fixed:
        target = target - model.eval_u_all(np.asarray(fixed)).sum(axis=0)
    s, res = _solve_chart(model, feet, dirs, target, np.array([depths]))
    if res[0] >= _CHART_TOL:
        raise ConvergenceError("chart solve did not converge", residual=float(res[0]))
    return [complex(z) for z in (feet + s * dirs)[0]]


# -- the maps -----------------------------------------------------------------


class ProperMap:
    """Evaluator for a constructed proper map.

    ``base`` is the raw analytic product (value 1 at z = 1 up to rounding is
    not assumed); the stored rotation fixes f(1) = 1, and an optional disk
    automorphism is post-composed for maps renormalized via the boundary-data
    route.  Pure and thread-safe after construction.
    """

    def __init__(self, domain, zeros, nu, base, rotation=1.0 + 0j, post=None,
                 diagnostics=None):
        self.domain = domain
        self.zeros = tuple(zeros)
        self.nu = tuple(nu)
        self._base = base
        self.rotation = complex(rotation)
        self._post = post  # None or (a, phase): w -> phase * (w-a)/(1-conj(a)w)
        self.diagnostics = dict(diagnostics or {})

    @property
    def degree(self) -> int:
        return sum(self.nu)

    def __call__(self, z):
        def value(z):
            w = self.rotation * self._base(z)
            if self._post is not None:
                a, phase = self._post
                w = phase * (w - a) / (1.0 - a.conjugate() * w)
            return w

        return _pointwise(value, z)

    def single_valuedness_residual(self, samples: int = 256) -> float:
        """Tracked continuation of the map around a loop just outside each
        inner circle must return to its start: the product of successive
        ratios telescopes to 1 unless a branch is mishandled."""
        worst = 0.0
        for c in self.domain.inner_circles:
            rr = c.r + 0.25 * self.domain.boundary_distance(c.q + c.r)
            loop = c.q + rr * np.exp(1j * np.linspace(0, 2 * np.pi, samples + 1))
            vals = self(loop)
            if np.min(np.abs(vals)) < 1e-13:
                continue  # loop hit a zero; certificate not meaningful there
            ratios = vals[1:] / vals[:-1]
            worst = max(worst, abs(np.prod(ratios) - 1.0))
        return worst


def build_proper_map(
    ev: PrimeEvaluator,
    v: IntegralsFirstKind | None,
    config: ZeroConfig,
    admissible_tol: float = 1e-6,
    check_boundary: bool = True,
    boundary_tol: float = 1e-4,
) -> ProperMap:
    """Construct the proper map with the zeros and boundary degree of an
    admissible configuration (product-of-slit-maps form, rotation fixing
    f(1) = 1).

    ``v`` may be None only for the disk (g = 0), where the exponential
    factor is empty and the map is a normalized Blaschke product.
    """
    if not config.admissible(admissible_tol):
        raise AdmissibilityError(
            f"zero configuration residual {config.max_residual:.2e} "
            f"exceeds {admissible_tol:.0e}"
        )
    d = ev.domain
    nu = config.nu
    if len(nu) != d.g + 1:
        raise DomainError("boundary degree length must be g+1")
    zeros = config.zeros
    nvec = np.asarray(nu[1:], dtype=float)

    # the eta factors of the zeros off the origin as one fused ratio
    # product, normalized at z = 1; a zero at the origin keeps its own eta
    moved = [complex(p) for p in zeros if p != 0]
    centered = len(zeros) - len(moved)
    ratios = RatioProduct(ev, moved, [1 / p.conjugate() for p in moved])
    norm = ratios(np.array([1.0 + 0j]))[0]

    def base(z: np.ndarray) -> np.ndarray:
        acc = ratios(z) / norm
        if d.g:
            acc = acc * np.exp(-2j * np.pi * (v.eval_v_all(z) @ nvec))
        if centered:
            acc = acc * eta(ev, z, 0j) ** centered
        return acc

    rotation = 1.0 / base(np.array([1.0 + 0j]))[0]
    f = ProperMap(
        d, zeros, nu, base, rotation,
        diagnostics={"form": "first_kind_product", "max_word_length": ev.max_word_length,
                     "condition_residual": config.max_residual},
    )
    if check_boundary:
        dev = boundary_modulus_deviation(f, samples=64)
        f.diagnostics["boundary_deviation_coarse"] = dev
        if dev > boundary_tol:
            raise TruncationQualityError(
                f"boundary modulus deviation {dev:.2e} exceeds {boundary_tol:.0e}; "
                "increase the word length or basis order"
            )
    return f


def _group_indexed(indexed_zeros) -> dict[int, list[complex]]:
    groups: dict[int, list[complex]] = {}
    for l, p in indexed_zeros:
        groups.setdefault(int(l), []).append(complex(p))
    return groups


def _radius_products(ev: PrimeEvaluator, groups: dict[int, list[complex]]) -> np.ndarray:
    g = ev.domain.g
    prods = np.ones(g + 1)
    for l, pts in groups.items():
        for p in pts:
            for i in range(g + 1):
                if i == l:
                    continue  # own circle maps to the unit circle: factor 1
                prods[i] *= slit_radius(ev, l, i, p)
    return prods


def condition3_residual(ev: PrimeEvaluator, indexed_zeros) -> float:
    """Reindexed admissibility: the product over the zeros of the slit radii
    of circle i must not depend on i.  Returns the max pairwise difference
    of the per-circle products (0 vacuously on the disk)."""
    if ev.domain.g == 0:
        return 0.0
    prods = _radius_products(ev, _group_indexed(indexed_zeros))
    return float(np.max(prods) - np.min(prods))


def build_proper_map_alt(
    ev: PrimeEvaluator,
    indexed_zeros,
    condition_tol: float = 1e-5,
) -> ProperMap:
    """Alternate construction: radius-normalized product of the eta_l slit
    maps over circle-indexed zeros (list of (circle index, zero) pairs).

    The boundary degree is the per-circle group size.  Requires the
    reindexed admissibility condition: the slit-radius products must agree
    across circles to ``condition_tol``.  Agrees with the first-kind-product
    construction up to a unimodular constant, and exactly after both are
    normalized at z = 1.
    """
    d = ev.domain
    groups = _group_indexed(indexed_zeros)
    if any(l < 0 or l > d.g for l in groups):
        raise DomainError("circle index out of range in indexed zeros")
    nu = tuple(len(groups.get(l, ())) for l in range(d.g + 1))
    if d.g:
        prods = _radius_products(ev, groups)
        spread = float(np.max(prods) - np.min(prods))
        if spread > condition_tol:
            raise AdmissibilityError(
                f"slit-radius products differ across circles by {spread:.2e} "
                f"(> {condition_tol:.0e}): indexing is not admissible"
            )
        scale = 1.0 / float(np.exp(np.mean(np.log(prods))))
    else:
        scale = 1.0

    pairs = [(l, p) for l in sorted(groups) for p in groups[l]]

    def base(z: np.ndarray) -> np.ndarray:
        acc = np.full(len(z), scale, dtype=complex)
        for l, p in pairs:
            acc = acc * eta_l(ev, l, z, p)
        return acc

    rotation = 1.0 / base(np.array([1.0 + 0j]))[0]
    zeros = tuple(p for _, p in pairs)
    return ProperMap(
        d, zeros, nu, base, rotation,
        diagnostics={"form": "slit_product", "max_word_length": ev.max_word_length},
    )


# -- boundary diagnostics ------------------------------------------------------


def boundary_modulus_deviation(f, samples: int = 256, domain: CircularDomain | None = None) -> float:
    """Max over all boundary circles of | |f| - 1 | at equispaced samples."""
    d = domain if domain is not None else f.domain
    worst = 0.0
    for l in range(d.g + 1):
        w = d.circle(l).samples(samples)
        worst = max(worst, float(np.max(np.abs(np.abs(f(w)) - 1.0))))
    return worst


def winding_number(values: np.ndarray) -> int:
    """Winding of a closed discrete curve (last point distinct from first)
    about the origin.  Raises ResolutionError if any argument increment
    reaches pi (undersampled) or the total is not near an integer."""
    args = np.angle(values)
    inc = np.diff(np.concatenate([args, args[:1]]))
    inc = (inc + np.pi) % (2 * np.pi) - np.pi
    # wrapped steps close to pi mean the true increment is unresolvable
    if np.max(np.abs(inc)) >= 0.95 * np.pi:
        raise ResolutionError("winding undersampled: argument step near pi")
    total = float(inc.sum() / (2 * np.pi))
    nearest = round(total)
    if abs(total - nearest) > 0.01:
        raise ResolutionError(f"winding {total:.4f} not within 0.01 of an integer")
    return int(nearest)


def boundary_degree(f, l: int, samples: int = 1024, domain: CircularDomain | None = None) -> int:
    """Covering degree of f on boundary circle l via the argument principle.

    The circle is traversed with the boundary orientation of the domain
    (unit circle counterclockwise, inner circles clockwise), which makes the
    degree of a proper map +n_l on every circle and the total over all
    circles equal to the map degree."""
    d = domain if domain is not None else f.domain
    w = d.circle(l).samples(samples)
    if l != 0:
        w = w[::-1]
    return winding_number(f(w))


# -- finite Blaschke products and the disk bridge ------------------------------


def blaschke_eval(zeros, z):
    """Finite Blaschke product with the given zeros, normalized to 1 at 1."""
    def value(z):
        acc = np.ones(len(z), dtype=complex)
        for p in zeros:
            p = complex(p)
            acc *= (z - p) / (1.0 - p.conjugate() * z)
            acc /= (1.0 - p) / (1.0 - p.conjugate())
        return acc

    return _pointwise(value, z)


def lift_blaschke(
    ev: PrimeEvaluator,
    v: IntegralsFirstKind | None,
    zeros,
    admissible_tol: float = 1e-6,
) -> ProperMap:
    """Lift a finite Blaschke product to the proper map of the domain with
    the same zeros: the group-averaged product of B over the truncated word
    ball times the first-kind exponential factor.

    Defined only when the zero set is admissible in the domain (the boundary
    degrees are read off from the measure sums, which must be near-integers).
    """
    d = ev.domain
    zeros = [complex(p) for p in zeros]
    if d.g == 0:
        bd = ()
        nu = (len(zeros),)
    else:
        model = v.model
        sums = model.eval_u_all(np.asarray(zeros)).sum(axis=0)
        njs = np.round(sums).astype(int)
        if np.max(np.abs(sums - njs)) > admissible_tol:
            raise AdmissibilityError(
                f"zero set is not admissible: measure sums {sums} are not integers"
            )
        if np.any(njs < 0):
            raise AdmissibilityError("negative boundary degree implied by the zeros")
        nu = (len(zeros) - int(njs.sum()),) + tuple(int(x) for x in njs)
        if nu[0] < 0:
            raise AdmissibilityError("negative outer boundary degree implied by the zeros")
    nvec = np.asarray(nu[1:], dtype=float)

    a, b, c, dd = ev.mobius_table  # full word ball, identity included
    th1 = (a + b) / (c + dd)
    b_at_th1 = blaschke_eval(zeros, th1)

    def base(z: np.ndarray) -> np.ndarray:
        th_z = (a[:, None] * z[None, :] + b[:, None]) / (
            c[:, None] * z[None, :] + dd[:, None]
        )
        vals = blaschke_eval(zeros, th_z.ravel()).reshape(th_z.shape)
        prod = _product(vals / b_at_th1[:, None])
        if d.g:
            prod = prod * np.exp(-2j * np.pi * (v.eval_v_all(z) @ nvec))
        return prod

    rotation = 1.0 / base(np.array([1.0 + 0j]))[0]
    return ProperMap(
        d, zeros, nu, base, rotation,
        diagnostics={"form": "blaschke_lift", "max_word_length": ev.max_word_length},
    )


# -- boundary-data construction (prescribed preimages of 1) --------------------


def from_boundary_data(
    model: HarmonicModel,
    ev: PrimeEvaluator,
    v: IntegralsFirstKind | None,
    p: complex,
    boundary_points,
    lambdas=None,
    horizon: float = 0.05,
    steps: int = 32,
    target_residual: float = 5e-5,
    min_t: float = 1e-6,
) -> ProperMap:
    """Build the proper map with f(p) = 0 and f(w) = 1 at prescribed
    boundary points, by continuation of the zero set in from the boundary.

    ``boundary_points`` is a sequence of (circle index, point) pairs; the
    number of points on each circle is its boundary degree, and every circle
    needs at least one point.  For degrees above the minimum, ``lambdas``
    gives the positive rate parameters of the extra points (one per extra
    point, in input order; default all 1), which select among the
    n * n_0! ... n_g!-fold preimages of the same map.

    The zero set at time t consists of: the first unit-circle point moved
    inward at rate t/alpha (alpha just below the smallest normal derivative
    of the measures there); the extra points moved inward along their
    normals so the measure of their own circle drops linearly in t (scaled
    by their lambda); and one tethered point per inner circle solved from
    the admissibility condition.  The map built from the zero set at small t,
    recentred so f(p) = 0 and rotated against the prescribed points, then
    converges to the desired map; t is decreased geometrically from the
    horizon until the reported max |f(w) - 1| meets ``target_residual`` or
    t reaches ``min_t``.
    """
    d = model.domain
    g = d.g
    p = complex(p)
    if not d.contains(p):
        raise DomainError("interior point p is not in the domain")

    groups: dict[int, list[complex]] = {}
    order = []
    for l, w in boundary_points:
        l = int(l)
        c = d.circle(l)
        w = complex(w)
        if abs(abs(w - c.q) - c.r) > 1e-8:
            raise DomainError(f"point {w} is not on boundary circle {l}")
        w = c.q + c.r * (w - c.q) / abs(w - c.q)  # project exactly
        groups.setdefault(l, []).append(w)
        order.append((l, len(groups[l]) - 1))
    missing = [l for l in range(g + 1) if l not in groups]
    if missing:
        raise DomainError(f"need at least one point on every circle; missing {missing}")
    if len(set(w for pts in groups.values() for w in pts)) != sum(
        len(pts) for pts in groups.values()
    ):
        raise DomainError("boundary points must be distinct")
    nu = tuple(len(groups.get(l, ())) for l in range(g + 1))
    n = sum(nu)

    free = [(l, k) for l in range(g + 1) for k in range(1, nu[l])]
    if lambdas is None:
        lambdas = [1.0] * len(free)
    lambdas = [float(x) for x in lambdas]
    if len(lambdas) != len(free):
        raise DomainError(f"need {len(free)} lambda values, got {len(lambdas)}")
    if any(x <= 0 for x in lambdas):
        raise DomainError("lambda rates must be positive")
    lam = dict(zip(free, lambdas))

    w00 = groups[0][0]
    n00 = -w00 / abs(w00)  # inward normal on the unit circle
    if g:
        dn = [abs(model.eval_normal_derivative(j, 0, w00)) for j in range(1, g + 1)]
        alpha = 0.9 * min(dn)
        if alpha <= 0:
            raise ConvergenceError("vanishing normal derivative at the base point")
    else:
        alpha = 1.0

    inward = {}
    for l in range(g + 1):
        c = d.circle(l)
        for k, w in enumerate(groups[l]):
            nrm = (w - c.q) / abs(w - c.q)
            inward[(l, k)] = -nrm if l == 0 else nrm

    def driven_zeros(t: float) -> list[complex]:
        """Positions of the n-g driven points at time t."""
        pts = [w00 + (t / alpha) * n00]
        for (l, k) in free:
            w = groups[l][k]
            rate = lam[(l, k)]
            if l == 0:
                pts.append(w + (rate * t / alpha) * inward[(l, k)])
            else:
                level = 1.0 - rate * t / max(nu[l] - 1, 1)
                ray = np.array([[inward[(l, k)]]])
                s, _ = _level_depths(model, [l], np.array([[w]]), ray, level)
                pts.append(w + s[0, 0] * inward[(l, k)])
        return pts

    feet = np.array([[groups[j][0] for j in range(1, g + 1)]], dtype=complex)
    dirs = np.array([[inward[(j, 0)] for j in range(1, g + 1)]], dtype=complex)
    depths = np.zeros(g)

    def tether(t: float, depths0: np.ndarray) -> tuple[np.ndarray, list[complex]]:
        driven = driven_zeros(t)  # never empty: the first unit-circle point is driven
        target = np.asarray(nu[1:], dtype=float) - model.eval_u_all(np.asarray(driven)).sum(axis=0)
        s, res = _solve_chart(model, feet, dirs, target, depths0[None])
        if res[0] >= _CHART_TOL:
            raise ConvergenceError("tether chart solve did not converge", residual=float(res[0]))
        return s[0], driven + [complex(z) for z in (feet + s * dirs)[0]]

    # march t up to the horizon with adaptive substeps (warm-starting Newton)
    t_reached = 0.0
    t_step = horizon / steps
    while t_reached < horizon - 1e-15:
        t_next = min(horizon, t_reached + t_step)
        try:
            depths_new, zeros_at = tether(t_next, depths)
        except ConvergenceError as exc:
            t_step *= 0.5
            if t_step < horizon / (steps * 1024):
                raise ConvergenceError(
                    f"continuation stalled at t = {t_reached:.3g}: {exc}",
                    residual=exc.residual,
                ) from exc
            continue
        if not np.all(d.contains(np.asarray(zeros_at))):
            raise ConvergenceError(
                f"tethered zero left the domain at t = {t_next:.3g}"
            )
        depths = depths_new
        t_reached = t_next

    # walk back down in t, building maps until the prescribed-point residual
    # is small enough
    targets = np.array([w for l in range(g + 1) for w in groups[l]], dtype=complex)
    best: ProperMap | None = None
    best_res = np.inf
    t = horizon
    while True:
        depths, zeros_t = tether(t, depths)
        config = make_zero_config(model, zeros_t, nu)
        base_map = build_proper_map(ev, v, config, check_boundary=False)
        a = base_map(p)
        f_pre = ProperMap(d, base_map.zeros, nu, base_map._base, base_map.rotation,
                          post=(a, 1.0 + 0j))
        vals = f_pre(targets)
        mu = vals.mean()
        phase = mu.conjugate() / abs(mu)
        f = ProperMap(
            d, base_map.zeros, nu, base_map._base, base_map.rotation,
            post=(a, phase),
            diagnostics={"form": "boundary_data", "t": t,
                         "max_word_length": ev.max_word_length},
        )
        res = float(np.max(np.abs(f(targets) - 1.0)))
        f.diagnostics["prescribed_point_residual"] = res
        f.diagnostics["interior_zero_residual"] = float(abs(f(p)))
        if res < best_res:
            best, best_res = f, res
        if res < target_residual or t / 2 < min_t:
            break
        t /= 2.0

    if g and best is not None:
        best.diagnostics["derivative_ratios"] = _derivative_ratios(
            best, groups, inward, lam, free
        )
    return best


def _derivative_ratios(f, groups, inward, lam, free):
    """A-posteriori check data for the rate parameters: finite-difference
    |f'| along the inward normals, reported as ratios to the base point."""
    h = 1e-6
    w00 = groups[0][0]
    d00 = abs(f(w00 + h * inward[(0, 0)]) - f(w00)) / h
    out = {}
    for (l, k) in free:
        w = groups[l][k]
        dlk = abs(f(w + h * inward[(l, k)]) - f(w)) / h
        out[f"{l},{k}"] = {"measured": d00 / dlk, "lambda": lam[(l, k)]}
    return out
