"""Proper holomorphic maps onto the unit disk with prescribed zeros.

A degree-n proper map of a (g+1)-connected circular domain exists exactly
when its prospective zeros p_1..p_n satisfy the harmonic-measure condition

    sum_k u_j(p_k) = n_j   (j = 1..g)

for nonnegative integers n_j; (n_0, ..., n_g) is then the boundary degree
(the covering degree of each boundary circle).  The map itself is the
product form

    f(z) = rot * exp(-2 pi i sum_j n_j v_j(z)) * prod_k eta(z, p_k)

with the rotation fixing f(1) = 1, or equivalently the product of the
eta_l slit maps over any circle-indexed grouping of the zeros with the
right group sizes, rotated the same way (the slit radii enter only its
admissibility check).  Both forms are implemented, plus the Newton
machinery that completes partial zero sets to admissible ones and the
boundary-data construction that builds the map with prescribed preimages
of 1 on every boundary circle, by one walk down in the time t of a family
of zero sets that tends to those points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import INFINITY, CircularDomain, _pointwise, reflect
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    DomainError,
    ResolutionError,
    TruncationQualityError,
)
from .harmonic import HarmonicModel, IntegralsFirstKind
from .prime import PrimeEvaluator, RatioProduct, _HoleExpansion, blaschke_eval
from .slitmaps import slit_radius

__all__ = [
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


_ADMISSIBLE_TOL = 1e-6  # largest measure-sum residual of an admissible zero set
_BOUNDARY_TOL = 1e-4  # largest | |f| - 1 | of a built map on the coarse boundary samples
_CONDITION_TOL = 1e-5  # largest spread of the slit-radius products of an indexing
_LOOP_SAMPLES = 256  # steps of the single-valuedness loop around each inner circle


@dataclass(frozen=True)
class ZeroConfig:
    """A multiset of prospective zeros with a boundary degree and the
    residual vector of the admissibility condition."""

    zeros: tuple[complex, ...]
    nu: tuple[int, ...]
    residual: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residual, default=0.0)

    def admissible(self) -> bool:
        return self.max_residual < _ADMISSIBLE_TOL

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


def _chart_box(d: CircularDomain, feet: np.ndarray, dirs: np.ndarray):
    """Bounds (lo, hi) of the depths of the rays, each of the feet's shape:
    just off the foot, 1024 ulps of |foot|, and just short of the exit, the
    nearest root s > 1e-12 of |foot - q + s dir| = r over the boundary
    circles (|dir| = 1; the roots on the foot's own circle lie at depth <= 0,
    up to a rounding far below 1e-12, whatever |foot|).  The depth floor
    scales with the foot, so a zero may sit closer to a tiny hole than any
    fixed depth: on D(0.4, 1e-6) the level depths lie near 1e-13.  One pass
    over rays x circles."""
    w = feet[..., None] - np.append(0j, d.centers)
    u = dirs[..., None]
    b = w.real * u.real + w.imag * u.imag
    disc = b * b - (np.hypot(w.real, w.imag) ** 2 - np.append(1.0, d.radii) ** 2)
    root = np.sqrt(np.maximum(disc, 0.0))
    s = np.stack([-b - root, -b + root])
    s = np.where((disc >= 0) & (s > 1e-12), s, np.inf)
    return 1024 * np.spacing(np.abs(feet)), s.min(axis=(0, -1)) * (1 - 1e-12)


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
    lo, hi = lo.flatten(), hi.flatten()
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
                 seed, box=None) -> tuple:
    """Depths s, shape (B, g), with sum_k u(feet + s dirs) = target for each
    row of g rays; and, from the last evaluation, each row's max-norm residual
    and the gradients du[b, k, j] = du_j/dz at point k of row b.

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
        u, du = model.eval_u_grad((feet + s * dirs).ravel())
        fval = u.reshape(b, g, g).sum(axis=1) - target
        res = np.abs(fval).max(axis=1, initial=0.0)
        done = res < _CHART_TOL
        if done.all():
            break
        # d(sum_k u_j)/ds_k = Re(grad_k u_j * dir_k): row j, column k
        jac = np.real(du.reshape(b, g, g) * dirs[:, :, None]).transpose(0, 2, 1)
        try:
            step = np.linalg.solve(jac, -fval[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            break
        # solved rows keep their depths, so their gradients stay current
        s = np.clip(s + np.where(done[:, None], 0.0, step), lo, hi)
    return s, res, du.reshape(b, g, g)


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
    s, res, _ = _solve_chart(model, feet, dirs, target, np.array([depths]))
    if res[0] >= _CHART_TOL:
        raise ConvergenceError("chart solve did not converge", residual=float(res[0]))
    return [complex(z) for z in (feet + s * dirs)[0]]


# -- the maps -----------------------------------------------------------------


def _product_route(ev: PrimeEvaluator, y1, y2):
    """The evaluator a map takes for its fused ratio product, and the
    product's direct pass at z = 1.  The evaluator is the product's
    expansion about the holes, built here once, routing each point
    (``_HoleExpansion.routed``), or the product itself when the build
    returns None (the disk, the annulus, a zero near every circle)."""
    ratios = RatioProduct(ev, y1, y2)
    expansion = _HoleExpansion.build(ratios)
    route = ratios if expansion is None else expansion.routed
    return route, ratios(np.array([1.0 + 0j]))[0]


class ProperMap:
    """Evaluator for a constructed proper map.

    ``base`` is the raw analytic product; the stored rotation fixes
    f(1) = 1 (``build_proper_map`` normalizes its product at z = 1 and
    needs none), and an optional disk automorphism is post-composed for
    maps renormalized via the boundary-data route.  Immutable after
    construction, so one map can serve any number of threads: a
    product-built map's expansion about the holes is built with the map
    (``_product_route``), and a value never depends on the calls before it.
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

    def single_valuedness_residual(self) -> float:
        """Tracked continuation of the map around a loop just outside each
        inner circle, in ``_LOOP_SAMPLES`` steps, must return to its start:
        the product of successive ratios telescopes to 1 unless a branch is
        mishandled."""
        worst = 0.0
        for c in self.domain.inner_circles:
            rr = c.r + 0.25 * self.domain.boundary_distance(c.q + c.r)
            loop = c.q + rr * np.exp(1j * np.linspace(0, 2 * np.pi, _LOOP_SAMPLES + 1))
            vals = self(loop)
            if np.min(np.abs(vals)) < 1e-13:
                continue  # loop hit a zero; certificate not meaningful there
            ratios = vals[1:] / vals[:-1]
            worst = max(worst, abs(np.prod(ratios) - 1.0))
        return worst


def build_proper_map(
    ev: PrimeEvaluator,
    v: IntegralsFirstKind,
    config: ZeroConfig,
    check_boundary: bool = True,
) -> ProperMap:
    """Construct the proper map with the zeros and boundary degree of an
    admissible configuration (product-of-slit-maps form, f(1) = 1).

    On the disk (g = 0) ``v`` is empty, the exponential factor is 1 and the
    map is the normalized Blaschke product.  With ``check_boundary`` a
    deviation of |f| from 1 above ``_BOUNDARY_TOL`` on 64 samples per
    boundary circle raises TruncationQualityError.

    The map evaluates its product through ``_product_route``: points on a
    boundary circle from the product's expansion about the holes, built
    with the map, interior points and the normalization at z = 1 by the
    direct pass.  That normalization and v(1) = 0 make the map 1 at z = 1,
    to an ulp of the division, with no rotation.
    """
    if not config.admissible():
        raise AdmissibilityError(
            f"zero configuration residual {config.max_residual:.2e} "
            f"exceeds {_ADMISSIBLE_TOL:.0e}"
        )
    d = ev.domain
    nu = config.nu
    if len(nu) != d.g + 1:
        raise DomainError("boundary degree length must be g+1")
    zeros = config.zeros
    nvec = np.asarray(nu[1:], dtype=float)

    # the eta factors of all zeros as one fused ratio product, normalized at
    # z = 1 by the direct pass; a zero at the origin pairs with the point at
    # infinity
    route, norm = _product_route(
        ev, zeros, [INFINITY if p == 0 else 1 / p.conjugate() for p in zeros])

    def base(z: np.ndarray) -> np.ndarray:
        return route(z) / norm * np.exp(-2j * np.pi * (v.eval_v_all(z) @ nvec))

    f = ProperMap(
        d, zeros, nu, base,
        diagnostics={"form": "first_kind_product", "max_word_length": ev.max_word_length,
                     "condition_residual": config.max_residual},
    )
    if check_boundary:
        dev = boundary_modulus_deviation(f, samples=64)
        f.diagnostics["boundary_deviation_coarse"] = dev
        if dev > _BOUNDARY_TOL:
            raise TruncationQualityError(
                f"boundary modulus deviation {dev:.2e} exceeds {_BOUNDARY_TOL:.0e}; "
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
    prods = _radius_products(ev, _group_indexed(indexed_zeros))
    return float(np.max(prods) - np.min(prods))


def build_proper_map_alt(
    ev: PrimeEvaluator,
    indexed_zeros,
) -> ProperMap:
    """Alternate construction: the product of the eta_l slit maps over
    circle-indexed zeros (list of (circle index, zero) pairs), rotated so
    f(1) = 1.

    The boundary degree is the per-circle group size.  Requires the
    reindexed admissibility condition: the slit-radius products must agree
    across circles to ``_CONDITION_TOL``.  The map is one ``RatioProduct``
    over the pairs (p, phi_l(p)), phi_l the reflection in circle l (the
    point at infinity for p = 0 on the unit circle): the slit-radius scale
    and each eta_l's prefactor and rotation are constants, which the
    rotation at z = 1 cancels.  Agrees with the first-kind-product
    construction up to a unimodular constant, and exactly after both are
    normalized at z = 1.  Evaluates through ``_product_route``, as
    ``build_proper_map`` does.
    """
    d = ev.domain
    groups = _group_indexed(indexed_zeros)
    if any(l < 0 or l > d.g for l in groups):
        raise DomainError("circle index out of range in indexed zeros")
    nu = tuple(len(groups.get(l, ())) for l in range(d.g + 1))
    prods = _radius_products(ev, groups)
    spread = float(np.max(prods) - np.min(prods))
    if spread > _CONDITION_TOL:
        raise AdmissibilityError(
            f"slit-radius products differ across circles by {spread:.2e} "
            f"(> {_CONDITION_TOL:.0e}): indexing is not admissible"
        )

    pairs = [(l, p) for l in sorted(groups) for p in groups[l]]
    zeros = tuple(p for _, p in pairs)
    route, at_one = _product_route(
        ev, zeros, [INFINITY if (l, p) == (0, 0) else reflect(d, l, p) for l, p in pairs])
    return ProperMap(
        d, zeros, nu, route, 1.0 / at_one,
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


# -- the disk bridge: lifted Blaschke products ---------------------------------


def lift_blaschke(
    ev: PrimeEvaluator,
    v: IntegralsFirstKind,
    zeros,
) -> ProperMap:
    """Lift a finite Blaschke product to the proper map of the domain with
    the same zeros: the group-averaged product of B over the truncated word
    ball (``ev.ball_blaschke``) times the first-kind exponential factor.
    It is the truncated product of ``build_proper_map`` written over the
    whole ball, so the two agree to rounding at any word length.  It
    evaluates every point by the direct pass.

    Defined only when the zero set is admissible in the domain (the boundary
    degrees are read off from the measure sums, which must lie within
    ``_ADMISSIBLE_TOL`` of integers).  On the disk (g = 0) ``v`` is empty
    and the lift is the normalized Blaschke product itself.
    """
    d = ev.domain
    zeros = [complex(p) for p in zeros]
    sums = v.model.eval_u_all(np.asarray(zeros)).sum(axis=0)
    njs = np.round(sums).astype(int)
    if np.max(np.abs(sums - njs), initial=0.0) > _ADMISSIBLE_TOL:
        raise AdmissibilityError(
            f"zero set is not admissible: measure sums {sums} are not integers"
        )
    if np.any(njs < 0):
        raise AdmissibilityError("negative boundary degree implied by the zeros")
    nu = (len(zeros) - int(njs.sum()),) + tuple(int(x) for x in njs)
    if nu[0] < 0:
        raise AdmissibilityError("negative outer boundary degree implied by the zeros")
    nvec = np.asarray(nu[1:], dtype=float)

    def base(z: np.ndarray) -> np.ndarray:
        return ev.ball_blaschke(zeros, z) * np.exp(-2j * np.pi * (v.eval_v_all(z) @ nvec))

    rotation = 1.0 / base(np.array([1.0 + 0j]))[0]
    return ProperMap(
        d, zeros, nu, base, rotation,
        diagnostics={"form": "blaschke_lift", "max_word_length": ev.max_word_length},
    )


# -- boundary-data construction (prescribed preimages of 1) --------------------


def from_boundary_data(
    ev: PrimeEvaluator,
    v: IntegralsFirstKind,
    p: complex,
    boundary_points,
    lambdas=None,
) -> ProperMap:
    """Build the proper map with f(p) = 0 and f(w) = 1 at prescribed
    boundary points, from zero sets that tend to the prescribed points.

    ``boundary_points`` is a sequence of (circle index, point) pairs; the
    number of points on each circle is its boundary degree, and every circle
    needs at least one point.  For degrees above the minimum, ``lambdas``
    gives the positive rate parameters of the extra points (one per extra
    point, in input order; default all 1), which select among the
    n * n_0! ... n_g!-fold preimages of the same map.  What a lambda sets
    depends on the circle of its point.  On the unit circle it is the
    limiting derivative ratio |f'(w_00)| / |f'(w)| at the point w against
    the first unit-circle point w_00 (the annulus r = 0.25 reads 0.4997,
    1.0000 and 2.0012 for lambda = 0.5, 1 and 2).  On an inner circle it
    only scales how fast that circle's measure falls at the point, and the
    derivative ratio is far from lambda (0.11 and 0.22 there for lambda =
    0.5 and 1); once lambda t / (n_l - 1) outruns the first point's pull on
    the measure, the tether target exceeds 1 at every t and the build
    raises ConvergenceError (on that annulus from lambda = 1.2 on).  The
    built map reports the measured ratios in
    ``diagnostics["derivative_ratios"]``.

    The zero set at time t consists of: the first unit-circle point moved
    inward at rate t/alpha (alpha just below the smallest normal derivative
    of the measures there); the extra points moved inward along their
    normals so the measure of their own circle drops linearly in t (scaled
    by their lambda); and one tethered point per inner circle, on the inward
    normal at that circle's first point, solved from the admissibility
    condition.  The map built from the zero set at small t, recentred so
    f(p) = 0 and rotated against the prescribed points, converges to the
    desired map as t -> 0.

    One walk down in t builds it.  It starts at t = ``_HORIZON`` with the
    tethers seeded cold, at the depths where each alone brings its circle's
    measure to its target, and halves t after each map, each tether solve
    warm-started from the last, until the reported max |f(w) - 1| is below
    ``_TARGET_RESIDUAL`` or t would fall below ``_MIN_T``.  A tether solve
    that fails, or puts a zero outside the domain, halves t and seeds cold
    again.  That always ends: as t -> 0 the tethered zeros tend to their
    feet, where the Jacobian is the matrix of normal derivatives of the
    measures, nonsingular for any valid domain.  Raises ConvergenceError
    when t would fall below ``_MIN_T`` with the tether still failing.
    """
    model = v.model
    d = model.domain
    g = d.g
    p = complex(p)
    if not d.contains(p):
        raise DomainError("interior point p is not in the domain")

    groups: dict[int, list[complex]] = {}
    for l, w in boundary_points:
        l = int(l)
        c = d.circle(l)
        w = complex(w)
        if abs(abs(w - c.q) - c.r) > 1e-8:
            raise DomainError(f"point {w} is not on boundary circle {l}")
        w = c.q + c.r * (w - c.q) / abs(w - c.q)  # project exactly
        groups.setdefault(l, []).append(w)
    missing = [l for l in range(g + 1) if l not in groups]
    if missing:
        raise DomainError(f"need at least one point on every circle; missing {missing}")
    if len(set(w for pts in groups.values() for w in pts)) != sum(
        len(pts) for pts in groups.values()
    ):
        raise DomainError("boundary points must be distinct")
    nu = tuple(len(groups.get(l, ())) for l in range(g + 1))

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

    def tether(t: float, seed=None) -> tuple[np.ndarray, list[complex]]:
        """Depths of the tethered points at time t, from the seed depths or
        cold, and the whole zero set; raises ConvergenceError when the chart
        solve fails or a zero lies outside the domain."""
        driven = driven_zeros(t)  # never empty: the first unit-circle point is driven
        target = np.asarray(nu[1:], dtype=float) - model.eval_u_all(np.asarray(driven)).sum(axis=0)
        if seed is None:
            seed, _ = _level_depths(model, range(1, g + 1), feet, dirs, target)
        s, res, _ = _solve_chart(model, feet, dirs, target, seed)
        if res[0] >= _CHART_TOL:
            raise ConvergenceError(f"tether chart solve did not converge at t = {t:.3g}",
                                   residual=float(res[0]))
        zeros = driven + [complex(z) for z in (feet + s * dirs)[0]]
        if not np.all(d.contains(np.asarray(zeros))):
            raise ConvergenceError(f"tethered zero left the domain at t = {t:.3g}")
        return s, zeros

    targets = np.array([w for l in range(g + 1) for w in groups[l]], dtype=complex)
    best: ProperMap | None = None
    best_res = np.inf
    t, depths = _HORIZON, None
    while True:
        try:
            depths, zeros_t = tether(t, depths)
        except ConvergenceError:
            if t / 2 < _MIN_T:
                raise
            t, depths = t / 2, None
            continue
        config = make_zero_config(model, zeros_t, nu)
        base_map = build_proper_map(ev, v, config, check_boundary=False)
        a = base_map(p)
        w = base_map(targets)
        mu = np.mean((w - a) / (1.0 - a.conjugate() * w))
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
        if res < _TARGET_RESIDUAL or t / 2 < _MIN_T:
            break
        t /= 2.0

    if g and best is not None:
        best.diagnostics["derivative_ratios"] = _derivative_ratios(
            best, groups, inward, lam, free
        )
    return best


_HORIZON = 0.05  # the t at which the walk down in t starts
_TARGET_RESIDUAL = 5e-5  # max |f(w) - 1| at which the walk down in t stops
_MIN_T = 1e-6  # the walk's floor in t


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
