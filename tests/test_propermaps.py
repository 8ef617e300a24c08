import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Tools, counting_reduce, interior_points
from schottky.distance import wang_yin_eval
from schottky.domain import INFINITY, UNIT_CIRCLE, Circle, CircularDomain
from schottky.errors import (
    AdmissibilityError,
    ConvergenceError,
    DomainError,
    ResolutionError,
    SingularEvaluationError,
)
from schottky import prime
from schottky.harmonic import solve_harmonic_measures
from schottky.prime import PrimeEvaluator, RatioProduct
from schottky.propermaps import (
    blaschke_eval,
    boundary_degree,
    boundary_modulus_deviation,
    build_proper_map,
    build_proper_map_alt,
    complete_zeros,
    condition1_residual,
    condition3_residual,
    from_boundary_data,
    lift_blaschke,
    make_zero_config,
    winding_number,
    ZeroConfig,
)
from schottky.propermaps import _CHART_TOL, _chart_box, _level_depths, _solve_chart
from schottky.slitmaps import eta, eta_l
from schottky.verify import _assign_circles


# -- admissibility -------------------------------------------------------------


def test_condition1_annulus_product_rule(annulus_tools):
    # sum u_1 = log|p1 p2|/log r: the pair (0.5, -0.5) gives exactly 1
    res = condition1_residual(annulus_tools.model, [0.5, -0.5], (1, 1))
    assert res[0] < 1e-10
    res = condition1_residual(annulus_tools.model, [0.5, 0.5], (1, 1))
    assert res[0] < 1e-10  # double zero permitted
    res = condition1_residual(annulus_tools.model, [0.5, 0.4], (1, 1))
    assert res[0] > 0.05


def test_condition1_boundary_points_are_exact(triply_tools):
    m = triply_tools.model
    w = [m.domain.circle(l).point(0.3) for l in range(3)]
    res = condition1_residual(m, w, (1, 1, 1))
    assert np.max(res) < 1e-8


def test_condition1_count_mismatch(triply_tools):
    with pytest.raises(AdmissibilityError):
        condition1_residual(triply_tools.model, [0.2], (1, 1, 1))


def test_zero_config_json_round_trip(annulus_tools):
    from schottky.propermaps import ZeroConfig

    config = make_zero_config(annulus_tools.model, [0.5, -0.5], (1, 1))
    zeros, nu = ZeroConfig.parse(config.to_json())
    assert zeros == [0.5, -0.5]
    assert nu == (1, 1)
    with pytest.raises(DomainError):
        ZeroConfig.parse('{"zeros": "nope"}')


def test_complete_zeros_annulus(annulus_tools):
    done = complete_zeros(annulus_tools.model, [0.5], (1, 1), [-0.4])
    assert abs(done[0]) == pytest.approx(0.5, abs=1e-10)


def test_complete_zeros_already_solved_converges_fast(annulus_tools):
    done = complete_zeros(annulus_tools.model, [0.5], (1, 1), [-0.5])
    assert done[0] == pytest.approx(-0.5, abs=1e-10)


def test_complete_zeros_error_paths(annulus_tools):
    with pytest.raises((ConvergenceError, DomainError)):
        # guess whose chart line cannot satisfy the condition
        complete_zeros(annulus_tools.model, [0.95], (2, 0), [0.9])


# -- the chart solver -------------------------------------------------------------


def _random_charts(domain, count, seed):
    """Rays from random feet on the inner circles along the outward normals."""
    rng = np.random.default_rng(seed)
    dirs = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (count, domain.g)))
    return domain.centers + domain.radii * dirs, dirs


def _ray_exit(d, foot: complex, direction: complex) -> float:
    """Reference scalar loop: distance along the inward ray from a boundary
    foot to the next boundary circle it meets."""
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


def _exits(domain, feet, dirs):
    return np.array([[_ray_exit(domain, f, u) for f, u in zip(rf, ru)]
                     for rf, ru in zip(feet.tolist(), dirs.tolist())])


@pytest.mark.parametrize("inward", [False, True])
def test_chart_box_equals_the_scalar_loop(inward):
    # outward normals from the inner circles (the charts), and inward rays
    # from the unit circle, which cross every circle in their way
    d = CircularDomain((Circle(-0.5 + 0j, 0.12), Circle(0.45 + 0.1j, 0.1),
                        Circle(-0.05 - 0.55j, 0.1)))
    feet, dirs = _random_charts(d, 500, seed=30)
    if inward:
        feet = dirs.copy()
        dirs = -dirs * np.exp(0.3j * np.random.default_rng(31).uniform(-1, 1, dirs.shape))
    lo, hi = _chart_box(d, feet, dirs)
    assert np.array_equal(lo, 1024 * np.spacing(np.abs(feet)))
    # the loop squares |w| with libm's pow, which is not always correctly
    # rounded, the batch with one multiply: an ulp apart on a few rays
    ref = _exits(d, feet, dirs) * (1 - 1e-12)
    assert np.all(np.isfinite(hi)) and np.max(np.abs(hi - ref) / ref) < 4.5e-16


def test_chart_box_skips_the_own_circle_near_the_origin():
    # feet within 1e-16 of the origin on a circle through it: the own
    # circle's root at depth 0 rounds to about 1e-17, far above 1024 ulps
    # of |foot|, so the roots are filtered at 1e-12, not at the depth floor
    d = CircularDomain((Circle(0.3 + 0j, 0.3), Circle(-0.5 + 0j, 0.1)))
    dirs = np.exp(1j * (np.pi + np.linspace(-1e-6, 1e-6, 201)))[:, None]
    feet = 0.3 + 0.3 * dirs
    assert np.abs(feet).min() < 1e-16
    _, hi = _chart_box(d, feet, dirs)
    assert np.allclose(hi, _exits(d, feet, dirs) * (1 - 1e-12), rtol=1e-15)
    assert hi.min() > 0.3


def test_chart_batch_equals_rows(triply_tools):
    m = triply_tools.model
    feet, dirs = _random_charts(m.domain, 12, seed=7)
    target = 1.0 - m.eval_u_all(0.3j)[0]  # the extremal search's charts
    seed, _ = _level_depths(m, [1, 2], feet, dirs, target)
    s, res, _ = _solve_chart(m, feet, dirs, target, seed)
    assert np.all(res < _CHART_TOL)
    for k in range(len(feet)):
        row, row_res, _ = _solve_chart(m, feet[k : k + 1], dirs[k : k + 1], target, seed[k : k + 1])
        assert row_res[0] < _CHART_TOL
        assert np.max(np.abs(row[0] - s[k])) < 1e-12


def test_chart_depths_stay_in_box(triply_tools, annulus_tools):
    m = triply_tools.model
    feet, dirs = _random_charts(m.domain, 40, seed=8)
    rng = np.random.default_rng(9)
    target = rng.uniform(-1.0, 2.0, (40, 2))  # many of these cannot be met
    seed = rng.uniform(-1.0, 3.0, (40, 2))  # many of these lie outside the box
    s, res, _ = _solve_chart(m, feet, dirs, target, seed)
    assert np.all(s > 0) and np.all(s < _exits(m.domain, feet, dirs))
    assert np.any(res >= _CHART_TOL) and np.any(res < _CHART_TOL)
    # complete_zeros' failing chart above: from the foot 1 toward the inner
    # circle, asking for a negative measure
    am = annulus_tools.model
    target = -am.eval_u_all(0.95)[0]
    feet, dirs = np.array([[1.0 + 0j]]), np.array([[-1.0 + 0j]])
    s, res, _ = _solve_chart(am, feet, dirs, target, np.array([[0.1]]))
    exit_depth = _exits(am.domain, feet, dirs)[0, 0]
    assert exit_depth == pytest.approx(0.75)
    assert res[0] >= _CHART_TOL
    assert 0 < s[0, 0] < exit_depth


def _bisection_depths(model, circles, feet, dirs, levels):
    """The reference seed: 40 bisection steps over each ray's chart box."""
    lo, hi = 1e-12, _exits(model.domain, feet, dirs) * (1 - 1e-12)
    cols = np.asarray(circles) - 1
    k = np.arange(feet.shape[1])
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        u = model.eval_u_all((feet + mid * dirs).ravel()).reshape(*feet.shape, -1)
        above = u[:, k, cols] > levels
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 0.5 * (lo + hi)


# (inner circles, base point): the raster benchmark's domain, and the
# shrinking-hole family (anchor circle at -0.5, hole of radius eps at 0.4)
# with the base point 1e-4 off the anchor, facing away from the hole
_SEED_CASES = {
    "raster": (((-0.5, 0.1), (0.5, 0.1)), 0.3j),
    **{f"hole-{eps:g}": (((-0.5, 0.15), (0.4, eps)), -0.5 - (0.15 + 1e-4))
       for eps in (0.05, 1e-3, 1e-6)},
}


# batched evaluations each case's seed takes: the geometric midpoint of a
# wide bracket reaches the tiny holes' depths in a few steps
_SEED_EVALUATIONS = {"raster": 7, "hole-0.05": 7, "hole-0.001": 16, "hole-1e-06": 25}


@pytest.mark.parametrize("case", list(_SEED_CASES))
def test_level_depths_match_bisection(case):
    from schottky.distance import _build_family, _ExtremalSearch

    circles, p_tilde = _SEED_CASES[case]
    model = solve_harmonic_measures(CircularDomain(tuple(Circle(q + 0j, r) for q, r in circles)))
    search = _ExtremalSearch(model, p_tilde)
    d = model.domain
    # the raster families' charts: 6 x 6 and 12 x 12 grids of foot angles
    angles = np.concatenate([np.stack(np.meshgrid(*[np.arange(n) * (2 * np.pi / n)] * 2,
                                                  indexing="ij"), axis=-1).reshape(-1, 2)
                             for n in (6, 12)])
    feet = d.centers + d.radii * np.exp(1j * angles)
    dirs = (feet - d.centers) / d.radii  # as the search builds them
    newton, evaluations = _level_depths(model, [1, 2], feet, dirs, search.targets)
    reference = _bisection_depths(model, [1, 2], feet, dirs, search.targets)
    # within the bisection's resolution of the box, 2^-40 of the exit; at
    # eps = 1e-6 the hole's depths are about 7e-12, and that resolution is up
    # to 8.7% of them: there the reference is the coarser of the two
    exits = _exits(d, feet, dirs)
    assert np.all(np.abs(newton - reference) <= 2.0**-40 * exits)
    assert evaluations <= _SEED_EVALUATIONS[case]
    # the same family members as the reference-seeded chart solves
    solved, res, _ = _solve_chart(model, feet, dirs, search.targets, reference)
    ok = res < _CHART_TOL
    # the family builds each chart once: the 12 x 12 grid's charts with an
    # odd multiple of pi / 6 among their angles
    rest = np.any(np.indices((12, 12)).reshape(2, -1) % 2, axis=0)
    built = ok & np.concatenate([np.ones(36, dtype=bool), rest])
    (coarse, fine), charts = _build_family(search, 6, 12)
    family = np.concatenate([coarse, fine])
    assert charts == 36 + rest.sum() == 144 and len(family) == built.sum()
    assert np.max(np.abs(family - (feet + solved * dirs)[built])) < 1e-12


# -- construction ---------------------------------------------------------------


def test_disk_proper_map_is_blaschke(disk_tools):
    config = make_zero_config(disk_tools.model, [0.2, -0.3j], (2,))
    f = build_proper_map(disk_tools.ev, disk_tools.v, config)
    pts = interior_points(disk_tools.domain, 20, seed=5)
    assert np.max(np.abs(f(pts) - blaschke_eval([0.2, -0.3j], pts))) < 1e-14
    assert boundary_modulus_deviation(f) < 1e-12


def test_disk_lift_is_the_blaschke_product(disk_tools):
    zeros = [0.2, -0.3j, 0.5 + 0.1j]
    lift = lift_blaschke(disk_tools.ev, disk_tools.v, zeros)
    f = build_proper_map(disk_tools.ev, disk_tools.v,
                         make_zero_config(disk_tools.model, zeros, (3,)))
    pts = interior_points(disk_tools.domain, 20, seed=12)
    assert lift.nu == (3,)
    assert np.max(np.abs(lift(pts) - blaschke_eval(zeros, pts))) < 1e-12
    assert np.max(np.abs(lift(pts) - f(pts))) < 1e-12


def test_annulus_map_against_wang_yin(annulus_tools):
    config = make_zero_config(annulus_tools.model, [0.5, -0.5], (1, 1))
    f = build_proper_map(annulus_tools.ev, annulus_tools.v, config)
    pts = interior_points(annulus_tools.domain, 40, seed=6)
    wy = wang_yin_eval(0.25, [0.5, -0.5], 1, pts)
    ratio = f(pts) / wy
    assert np.abs(np.abs(ratio) - 1).max() < 1e-9
    assert np.std(ratio) < 1e-7


def test_map_vanishes_at_zeros_and_fixes_one(annulus_tools):
    config = make_zero_config(annulus_tools.model, [0.5, -0.5], (1, 1))
    f = build_proper_map(annulus_tools.ev, annulus_tools.v, config)
    assert abs(f(0.5)) < 1e-9
    assert abs(f(-0.5)) < 1e-9
    assert f(1.0) == pytest.approx(1.0, abs=1e-10)


def _per_zero_route(tools, zeros, nu):
    """The map as the per-zero product: rotation * exp(-2 pi i sum n_j v_j)
    * prod_k eta(., p_k), each eta its own pass over the words."""
    def value(z):
        acc = np.exp(-2j * np.pi * (tools.v.eval_v_all(z) @ np.asarray(nu[1:], dtype=float)))
        for p in zeros:
            acc = acc * eta(tools.ev, z, p)
        return acc
    return lambda z: value(z) / value(np.array([1.0 + 0j]))[0]


def _g3_map(tools):
    dom = tools.domain
    guess = [c.q + (c.r + 0.3 * dom.boundary_distance(c.q + c.r)) * np.exp(1j * a)
             for c, a in zip(dom.inner_circles, (0.5, 2.0, 1.0))]
    fixed, nu = [0j, 0.1 + 0.5j], (2, 1, 1, 1)
    zeros = fixed + complete_zeros(tools.model, fixed, nu, guess)
    return build_proper_map(tools.ev, tools.v, make_zero_config(tools.model, zeros, nu))


def _triply_map(tools, check_boundary=True):
    fixed = [0.1 + 0.55j]
    zeros = fixed + complete_zeros(tools.model, fixed, (1, 1, 1), [-0.3 - 0.2j, 0.3 - 0.2j])
    return build_proper_map(tools.ev, tools.v, make_zero_config(tools.model, zeros, (1, 1, 1)),
                            check_boundary=check_boundary)


@pytest.mark.parametrize("case", ["annulus", "triply", "g3"])
def test_fused_product_matches_per_zero_route(case, annulus_tools, triply_tools, g3_tools):
    if case == "annulus":
        tools = annulus_tools
        f = build_proper_map(tools.ev, tools.v,
                             make_zero_config(tools.model, [0.5, -0.5], (1, 1)))
    elif case == "triply":  # 728 words: one word tile
        tools = triply_tools
        f = _triply_map(tools)
    else:  # 2343 words: three word tiles, and a zero at the origin
        tools = g3_tools
        f = _g3_map(tools)
        assert 0j in f.zeros
    pts = interior_points(tools.domain, 50, seed=21)
    ref = _per_zero_route(tools, f.zeros, f.nu)(pts)
    assert np.max(np.abs(f(pts) / ref - 1)) < 1e-12


def test_fused_product_does_not_depend_on_batch(g3_tools):
    # every product over the word ball has the same bits in batches of 1000,
    # 64, 7 and 1, over many point tiles: the fused product of the map's
    # zeros off the origin, the same with the origin's limit pair (0,
    # infinity), omega and eta(., 0) (three half-set word tiles), and the
    # Blaschke product over the whole ball (five word tiles)
    f = _g3_map(g3_tools)
    ev = g3_tools.ev
    moved = [p for p in f.zeros if p != 0]
    routes = (RatioProduct(ev, moved, [1 / p.conjugate() for p in moved]),
              RatioProduct(ev, [0j] + moved, [INFINITY] + [1 / p.conjugate() for p in moved]),
              lambda z: ev.omega(z, moved[0]),
              lambda z: eta(ev, z, 0j),
              lambda z: ev.ball_blaschke(moved, z))
    pts = interior_points(g3_tools.domain, 1000, seed=22, margin=0.02)
    for route in routes:
        full = route(pts)
        for size in (64, 7):
            parts = np.concatenate([route(pts[i:i + size]) for i in range(0, 1000, size)])
            assert np.array_equal(parts, full)
        for i in range(0, 1000, 37):
            assert route(pts[i:i + 1])[0] == full[i]
    # the map as a whole adds the first-kind integrals, contracted per point
    whole = f(pts)
    assert all(f(complex(pts[i])) == whole[i] for i in range(0, 1000, 37))


@pytest.mark.parametrize("case", ["triply", "g3"])
def test_slit_form_map_matches_per_pair_route(case, triply_tools, g3_tools):
    # the one ratio product of the slit form against the product of its
    # eta_l factors, each its own pass, normalized at 1: verify triply's
    # indexing, and the g3 map with its zero at the origin on circle 0
    if case == "triply":
        tools = triply_tools
        fixed = [0.1 + 0.55j]
        zeros = fixed + complete_zeros(tools.model, fixed, (1, 1, 1), [-0.3 - 0.2j, 0.3 - 0.2j])
        indexed = list(zip(_assign_circles(tools.domain, zeros), zeros))
    else:
        tools = g3_tools
        indexed = list(zip((0, 0, 1, 2, 3), _g3_map(tools).zeros))
    f = build_proper_map_alt(tools.ev, indexed)

    def route(z):
        acc = np.ones(len(z), dtype=complex)
        for l, p in indexed:
            acc = acc * eta_l(tools.ev, l, z, p)
        return acc

    pts = interior_points(tools.domain, 50, seed=25)
    ref = route(pts) / route(np.array([1.0 + 0j]))[0]
    assert np.max(np.abs(f(pts) / ref - 1)) < 1e-12


def test_build_guards_zeros_at_fixed_points(annulus_tools):
    # 0 is a fixed point of every word of the annulus group: a zero next to
    # it is refused when the map is built, before any evaluation
    config = ZeroConfig((1e-12 + 0j, 0.5 + 0j), (1, 1), (0.0,))
    with pytest.raises(SingularEvaluationError):
        build_proper_map(annulus_tools.ev, annulus_tools.v, config, check_boundary=False)


def test_build_rejects_inadmissible(annulus_tools):
    config = make_zero_config(annulus_tools.model, [0.5, 0.4], (1, 1))
    with pytest.raises(AdmissibilityError):
        build_proper_map(annulus_tools.ev, annulus_tools.v, config)


def test_boundary_windings(annulus_tools):
    config = make_zero_config(annulus_tools.model, [0.5, -0.5], (1, 1))
    f = build_proper_map(annulus_tools.ev, annulus_tools.v, config)
    degs = [boundary_degree(f, l) for l in (0, 1)]
    assert degs == [1, 1]
    assert sum(degs) == f.degree


def test_winding_resolution_error():
    t = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    with pytest.raises(ResolutionError):
        winding_number(np.exp(4j * t))  # pi steps at 8 samples are unresolvable
    assert winding_number(np.exp(1j * t)) == 1
    assert winding_number(np.exp(-2j * t)) == -2


def test_single_valuedness(annulus_tools):
    config = make_zero_config(annulus_tools.model, [0.5, -0.5], (1, 1))
    f = build_proper_map(annulus_tools.ev, annulus_tools.v, config)
    assert f.single_valuedness_residual() < 1e-8


def test_alt_build_agrees(annulus_tools):
    f = build_proper_map(annulus_tools.ev, annulus_tools.v,
                         make_zero_config(annulus_tools.model, [0.5, -0.5], (1, 1)))
    falt = build_proper_map_alt(annulus_tools.ev, [(0, 0.5), (1, -0.5)])
    pts = interior_points(annulus_tools.domain, 20, seed=8)
    assert np.max(np.abs(f(pts) - falt(pts))) < 1e-6
    # swapped assignment with the same group sizes gives the same map
    fswap = build_proper_map_alt(annulus_tools.ev, [(0, -0.5), (1, 0.5)])
    assert np.max(np.abs(f(pts) - fswap(pts))) < 1e-6


def test_condition3(annulus_tools):
    assert condition3_residual(annulus_tools.ev, [(0, 0.5), (1, -0.5)]) < 1e-7
    # non-admissible sizes: both zeros on the outer circle needs nu=(2,0),
    # which violates the measure condition, and the radius products expose it
    bad = condition3_residual(annulus_tools.ev, [(0, 0.5), (0, -0.4)])
    assert bad > 1e-3
    with pytest.raises(AdmissibilityError):
        build_proper_map_alt(annulus_tools.ev, [(0, 0.5), (0, -0.4)])


def test_condition3_disk_vacuous(disk_tools):
    assert condition3_residual(disk_tools.ev, [(0, 0.2), (0, -0.3)]) == 0.0


# -- the boundary route: one expansion about the holes -------------------------


def _map_product(ev, zeros):
    """The ratio product behind ``build_proper_map`` for these zeros."""
    return RatioProduct(ev, zeros, [INFINITY if p == 0 else 1 / np.conj(p) for p in zeros])


@pytest.mark.parametrize("case", ["disk", "annulus", "triply", "g3"])
def test_boundary_route_matches_direct_pass(case, disk_tools, annulus_tools, triply_tools,
                                            g3_tools):
    # triply and g3 take the expansion on every circle (g3's map has a zero
    # at the origin, a limit pair); the disk's and the annulus's balls are
    # so small that the direct pass is the cheaper route there
    if case == "disk":
        tools, f = disk_tools, build_proper_map(
            disk_tools.ev, disk_tools.v, make_zero_config(disk_tools.model, [0.3, -0.2 + 0.4j], (2,)))
    elif case == "annulus":
        tools, f = annulus_tools, build_proper_map(
            annulus_tools.ev, annulus_tools.v,
            make_zero_config(annulus_tools.model, [0.5, -0.5], (1, 1)))
    elif case == "triply":
        tools, f = triply_tools, _triply_map(triply_tools)
    else:
        tools, f = g3_tools, _g3_map(g3_tools)
    ratios = _map_product(tools.ev, f.zeros)
    expansion = prime._HoleExpansion.build(ratios)
    if case in ("disk", "annulus"):
        assert expansion is None
        return
    assert all(orders is not None for orders in expansion.circle_orders)
    for l in range(tools.domain.g + 1):
        w = tools.domain.circle(l).samples(1024)
        assert np.max(np.abs(expansion.routed(w) / ratios(w) - 1)) < 1e-12
        assert boundary_degree(f, l) == f.nu[l]


@pytest.mark.parametrize("case", ["triply", "g3"])
def test_hole_expansion_holds_inside_the_domain(case, triply_tools, g3_tools):
    # summed in full, the expansion is the product on the whole closed
    # domain, up to a thousandth of a radius from the circles
    tools = triply_tools if case == "triply" else g3_tools
    f = _triply_map(tools) if case == "triply" else _g3_map(tools)
    ratios = _map_product(tools.ev, f.zeros)
    z = interior_points(tools.domain, 200, seed=8, margin=1e-3)
    assert np.max(np.abs(prime._HoleExpansion.build(ratios)(z) / ratios(z) - 1)) < 1e-12


@pytest.mark.parametrize("case", ["triply", "g3"])
def test_map_build_makes_two_one_point_direct_passes(case, triply_tools, g3_tools, monkeypatch):
    # the expansion's constant and the normalization at z = 1; the boundary
    # check's 64 samples per circle all take the expansion
    calls = counting_reduce(monkeypatch)
    tools = triply_tools if case == "triply" else g3_tools
    f = _triply_map(tools) if case == "triply" else _g3_map(tools)
    assert calls == [1, 1]
    # the product divided by its own direct pass at z = 1, times
    # exp(-2 pi i v(1) . n) with v(1) = 0 exactly, needs no rotation
    assert f.rotation == 1.0
    assert np.all(tools.v.eval_v_all(1.0) == 0.0)
    assert abs(f(1.0) - 1.0) < 1e-15


def test_boundary_checks_make_no_direct_pass(triply_tools, monkeypatch):
    f = _triply_map(triply_tools)
    calls = counting_reduce(monkeypatch)
    assert [boundary_degree(f, l) for l in range(3)] == [1, 1, 1]
    assert boundary_modulus_deviation(f) < 1e-5
    assert calls == []
    f(interior_points(triply_tools.domain, 40, seed=5))
    assert sum(calls) == 40


def test_boundary_route_does_not_depend_on_batch_or_history(triply_tools):
    f = _triply_map(triply_tools)
    fresh = _triply_map(triply_tools, check_boundary=False)  # never evaluated yet
    for l in range(3):
        w = triply_tools.domain.circle(l).samples(1024)
        if l == 1:
            fresh(interior_points(triply_tools.domain, 10, seed=4))
        first = fresh(w[7:8])
        whole = f(w)
        assert np.array_equal(first, whole[7:8])
        for size in (7, 64):
            parts = np.concatenate([f(w[i:i + size]) for i in range(0, 1024, size)])
            assert np.array_equal(parts, whole)
        assert np.array_equal(fresh(w), whole)
        assert all(f(complex(w[i])) == whole[i] for i in range(0, 1024, 37))


def test_boundary_route_falls_back_near_a_zero(triply_tools, monkeypatch):
    # a zero 1e-6 from circle 1 would need about 1e6 terms there
    t = triply_tools
    fixed = [-0.5 + 0.100001j]
    zeros = fixed + complete_zeros(t.model, fixed, (1, 1, 1), [0.2 - 0.85j, 0.5 + 0.13j])
    f = build_proper_map(t.ev, t.v, make_zero_config(t.model, zeros, (1, 1, 1)))
    w = t.domain.circle(1).samples(64)
    calls = counting_reduce(monkeypatch)
    f(w)
    assert sum(calls) == 64
    # the completed zeros lie within 1e-5 of circles 0 and 2: no circle
    # keeps the expansion
    assert prime._HoleExpansion.build(_map_product(t.ev, zeros)) is None
    # the same zero among others far from circles 0 and 2 leaves them theirs
    ratios = _map_product(t.ev, [fixed[0], 0.1 + 0.3j])
    expansion = prime._HoleExpansion.build(ratios)
    assert [orders is None for orders in expansion.circle_orders] == [False, True, False]
    w = t.domain.circle(1).samples(64)
    assert np.array_equal(expansion.routed(w), ratios(w))
    for l in (0, 2):
        w = t.domain.circle(l).samples(256)
        assert np.max(np.abs(expansion.routed(w) / ratios(w) - 1)) < 1e-12


@pytest.mark.parametrize("form", ["first_kind_product", "slit_product"])
def test_map_build_makes_one_expansion(form, triply_tools, monkeypatch):
    # the build expands the product once; evaluating the map, on its
    # boundary circles or inside, builds nothing more
    t = triply_tools
    zeros = _triply_map(t, check_boundary=False).zeros
    built = []
    build = prime._HoleExpansion.build.__func__

    def counted(cls, product):
        built.append(product)
        return build(cls, product)

    monkeypatch.setattr(prime._HoleExpansion, "build", classmethod(counted))
    if form == "first_kind_product":
        f = build_proper_map(t.ev, t.v, make_zero_config(t.model, zeros, (1, 1, 1)),
                             check_boundary=False)
    else:
        f = build_proper_map_alt(t.ev, list(zip(_assign_circles(t.domain, zeros), zeros)))
    assert len(built) == 1
    assert boundary_modulus_deviation(f) < 1e-5
    f(interior_points(t.domain, 10, seed=4))
    assert len(built) == 1


def test_degree_zero_map_is_one(triply_tools):
    # no pairs: the expansion has no terms and serves every circle
    t = triply_tools
    f = build_proper_map(t.ev, t.v, make_zero_config(t.model, [], (0, 0, 0)))
    z = np.append(interior_points(t.domain, 5, seed=2), t.domain.circle(1).samples(8))
    assert np.all(f(z) == 1.0)


def test_boundary_series_is_built_once_under_threads(triply_tools):
    # the map's one expansion is built with it; eight threads evaluating
    # its boundary points at once agree bit for bit
    f = _triply_map(triply_tools, check_boundary=False)
    w = np.concatenate([triply_tools.domain.circle(l).samples(64) for l in range(3)])
    results = [None] * 8

    def work(k):
        results[k] = f(w)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(np.array_equal(r, results[0]) for r in results)


@pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 2)])
def test_pointwise_calls_keep_the_shape_of_z(shape, triply_tools):
    t = triply_tools
    f = _triply_map(t)
    pts = np.append(interior_points(t.domain, 2, seed=6), t.domain.circle(1).samples(2))
    z = pts[:math.prod(shape)].reshape(shape)
    calls = [f, lambda z: eta(t.ev, z, 0.3j), lambda z: eta_l(t.ev, 1, z, 0.3j),
             lambda z: t.ev.omega(z, 0.3j), lambda z: t.model.eval_u(1, z),
             lambda z: t.v.eval_v(1, z), lambda z: t.ev.ball_blaschke([0.3j], z)]
    for call in calls:
        out = call(z)
        assert out.shape == shape
        assert np.array_equal(out.ravel(), call(z.ravel()))
    # the batch calls add an axis of the g functions, and take a 0-d z as
    # a batch of one
    for call in (t.model.eval_u_all, t.v.eval_v_all, t.v.v_prime_all):
        out = call(z)
        assert out.shape == (shape or (1,)) + (t.domain.g,)
        assert np.array_equal(out.reshape(-1, t.domain.g), call(z.ravel()))


# -- boundary data ---------------------------------------------------------------


def test_from_boundary_data_disk(disk_tools):
    f = from_boundary_data(disk_tools.ev, disk_tools.v, 0j, [(0, 1.0)])
    pts = interior_points(disk_tools.domain, 10, seed=9)
    assert np.max(np.abs(f(pts) - pts)) < 1e-10


def test_from_boundary_data_annulus(annulus_tools):
    f = from_boundary_data(annulus_tools.ev, annulus_tools.v, 0.5j, [(0, 1.0), (1, 0.25)])
    assert abs(f(0.5j)) < 1e-10
    assert abs(f(1.0) - 1) < 1e-5
    assert abs(f(0.25) - 1) < 1e-5
    assert [boundary_degree(f, l) for l in (0, 1)] == [1, 1]


def test_from_boundary_data_higher_degree(annulus_tools):
    # nu = (2, 1): one extra unit-circle point with a rate parameter
    pts_spec = [(0, 1.0), (0, np.exp(2.4j)), (1, 0.25j)]
    f = from_boundary_data(annulus_tools.ev, annulus_tools.v, 0.5j, pts_spec, lambdas=[1.3])
    assert f.nu == (2, 1)
    assert f.diagnostics["prescribed_point_residual"] < 1e-4
    degs = [boundary_degree(f, l) for l in (0, 1)]
    assert degs == [2, 1]
    ratios = f.diagnostics["derivative_ratios"]
    measured = ratios["0,1"]["measured"]
    assert measured == pytest.approx(1.3, rel=0.1)


# Boundary data whose tether fails at the horizon t = 0.05, and in the first
# case again after a warm start at t = 0.0125: the walk halves t and seeds
# cold until it holds.  The second case has an extra point on an inner
# circle, where the map turns fast (its derivative ratio reads about 0.013),
# so its windings need 4096 samples per circle.
FAILED_TETHER_CASES = [
    ("triply", 0.57 - 0.62j, [(0, 3.2), (1, -1.55), (2, -1.13), (2, -1.99)], 256),
    ("triply", 0.34 + 0.81j, [(0, -0.57), (0, -0.24), (1, 2.9), (1, 3.5), (2, 0.4)], 4096),
    ("g3", -0.7 - 0.2j, [(0, 0.5), (1, 3.3), (2, 0.0), (3, 1.7)], 256),
]


@pytest.mark.parametrize("name, p, angles, samples", FAILED_TETHER_CASES)
def test_from_boundary_data_builds_after_a_failed_tether(name, p, angles, samples, request):
    tools = request.getfixturevalue(f"{name}_tools")
    points = [(l, tools.domain.circle(l).point(a)) for l, a in angles]
    f = from_boundary_data(tools.ev, tools.v, p, points)
    assert f.diagnostics["prescribed_point_residual"] < 1e-4
    assert abs(f(p)) < 1e-8
    sizes = [sum(1 for l, _ in angles if l == k) for k in range(tools.domain.g + 1)]
    assert list(f.nu) == sizes
    assert [boundary_degree(f, l, samples=samples)
            for l in range(tools.domain.g + 1)] == sizes


def _random_boundary_data(domain, rng):
    """One point at a uniform angle on every circle, a second with
    probability 0.3, and p uniform in the square at least 0.1 inside."""
    points = []
    for l in range(domain.g + 1):
        points.append((l, domain.circle(l).point(rng.uniform(0, 2 * np.pi))))
        if rng.uniform() < 0.3:
            points.append((l, domain.circle(l).point(rng.uniform(0, 2 * np.pi))))
    while True:
        p = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if domain.contains(p, margin=0.1):
            return p, points


def test_from_boundary_data_random_sweep(triply_tools, g3_tools):
    # six seeded data sets per domain: every one builds
    for tools in (triply_tools, g3_tools):
        rng = np.random.default_rng(1)
        for _ in range(6):
            p, points = _random_boundary_data(tools.domain, rng)
            f = from_boundary_data(tools.ev, tools.v, p, points)
            assert f.diagnostics["prescribed_point_residual"] < 1e-4
            assert abs(f(p)) < 1e-8


def test_from_boundary_data_pins_the_verify_triply_map(triply_tools):
    tools = triply_tools
    points = [(0, complex(np.exp(0.4j))), (1, -0.5 + 0.1j), (2, 0.5 + 0.1j)]
    f = from_boundary_data(tools.ev, tools.v, 0.1 + 0.55j, points)
    assert f.diagnostics["t"] == 3.90625e-4
    assert f.diagnostics["prescribed_point_residual"] == pytest.approx(4.3597766801e-05,
                                                                       rel=1e-9)


def test_from_boundary_data_input_validation(annulus_tools):
    ev, v = annulus_tools.ev, annulus_tools.v
    with pytest.raises(DomainError):
        from_boundary_data(ev, v, 0.5j, [(0, 1.0)])  # missing circle 1
    with pytest.raises(DomainError):
        from_boundary_data(ev, v, 0.5j, [(0, 0.5), (1, 0.25)])  # not on circle
    with pytest.raises(DomainError):
        from_boundary_data(ev, v, 0.1, [(0, 1.0), (1, 0.25)])  # p not interior


# -- Blaschke bridge --------------------------------------------------------------


def test_blaschke_eval_normalization():
    assert blaschke_eval([0.2], 0.5) == pytest.approx(1 / 3)
    w = np.exp(1j * np.linspace(0, 2 * np.pi, 32, endpoint=False))
    assert np.max(np.abs(np.abs(blaschke_eval([0.2, -0.4j], w)) - 1)) < 1e-12


@given(st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False))
@settings(max_examples=50, deadline=None)
def test_blaschke_interior_contraction(p):
    pts = np.array([0.3 + 0.1j, -0.5j, 0.7])
    assert np.all(np.abs(blaschke_eval([p], pts)) < 1.0 + 1e-12)


def test_lift_blaschke_matches_build(annulus_tools):
    f = build_proper_map(annulus_tools.ev, annulus_tools.v,
                         make_zero_config(annulus_tools.model, [0.5, -0.5], (1, 1)))
    lift = lift_blaschke(annulus_tools.ev, annulus_tools.v, [0.5, -0.5])
    pts = interior_points(annulus_tools.domain, 20, seed=10)
    assert np.max(np.abs(lift(pts) - f(pts))) < 1e-6
    assert lift.nu == (1, 1)


@pytest.mark.parametrize("case", ["triply", "g3"])
def test_blaschke_routes_are_the_same_truncated_product(case, triply_tools, g3_tools):
    # eta and its group-averaged Blaschke route, and the proper map and its
    # Blaschke lift, are one truncated product over the ball written two
    # ways: they agree to rounding, while moving L moves them by far more
    tools = triply_tools if case == "triply" else g3_tools
    f = _triply_map(tools) if case == "triply" else _g3_map(tools)
    z = interior_points(tools.domain, 30, seed=12)
    p = 0.2 - 0.3j
    assert np.max(np.abs(eta(tools.ev, z, p) - tools.ev.ball_blaschke([p], z))) < 1e-12
    assert np.max(np.abs(lift_blaschke(tools.ev, tools.v, f.zeros)(z) - f(z))) < 1e-12
    coarse = PrimeEvaluator(tools.domain, max_word_length=3)
    assert np.max(np.abs(eta(coarse, z, p) - eta(tools.ev, z, p))) > 1e-8


def test_lift_blaschke_rejects_inadmissible(annulus_tools):
    with pytest.raises(AdmissibilityError):
        lift_blaschke(annulus_tools.ev, annulus_tools.v, [0.5, 0.4])


def test_semigroup_zero_union(annulus_tools):
    z1, z2 = [0.5, -0.5], [0.5j, -0.5j]
    pts = interior_points(annulus_tools.domain, 20, seed=11)
    lhs = blaschke_eval(z1 + z2, pts)
    rhs = blaschke_eval(z1, pts) * blaschke_eval(z2, pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_product_and_composition_degrees(annulus_tools):
    m, ev, v = annulus_tools.model, annulus_tools.ev, annulus_tools.v
    f = build_proper_map(ev, v, make_zero_config(m, [0.5, -0.5], (1, 1)))
    g = build_proper_map(ev, v, make_zero_config(m, [0.5j, -0.5j], (1, 1)))
    product = lambda z: f(z) * g(z)
    dom = annulus_tools.domain
    assert boundary_modulus_deviation(product, 256, domain=dom) < 2e-5
    degs = [boundary_degree(product, l, domain=dom) for l in (0, 1)]
    assert degs == [2, 2]
    comp = lambda z: blaschke_eval([0.0, 0.3], f(z))
    degs = [boundary_degree(comp, l, domain=dom) for l in (0, 1)]
    assert degs == [2, 2]  # deg h * deg f per circle
