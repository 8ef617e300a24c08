import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Tools, interior_points
from schottky.distance import wang_yin_eval
from schottky.domain import Circle, CircularDomain
from schottky.errors import (
    AdmissibilityError,
    ConvergenceError,
    DomainError,
    ResolutionError,
    SingularEvaluationError,
)
from schottky.harmonic import solve_harmonic_measures
from schottky.prime import RatioProduct
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
from schottky.propermaps import _CHART_TOL, _level_depths, _ray_exit, _solve_chart
from schottky.slitmaps import eta


@pytest.fixture(scope="module")
def g3_tools():
    # a 4-connected domain at L = 5: 2343 half-set words, three word tiles
    return Tools(CircularDomain((Circle(-0.5 + 0j, 0.12), Circle(0.45 + 0.1j, 0.1),
                                 Circle(-0.05 - 0.55j, 0.1))), length=5)


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


def _exits(domain, feet, dirs):
    return np.array([[_ray_exit(domain, f, u) for f, u in zip(rf, ru)]
                     for rf, ru in zip(feet, dirs)])


def test_chart_batch_equals_rows(triply_tools):
    m = triply_tools.model
    feet, dirs = _random_charts(m.domain, 12, seed=7)
    target = 1.0 - m.eval_u_all(0.3j)[0]  # the extremal search's charts
    seed, _ = _level_depths(m, [1, 2], feet, dirs, target)
    s, res = _solve_chart(m, feet, dirs, target, seed)
    assert np.all(res < _CHART_TOL)
    for k in range(len(feet)):
        row, row_res = _solve_chart(m, feet[k : k + 1], dirs[k : k + 1], target, seed[k : k + 1])
        assert row_res[0] < _CHART_TOL
        assert np.max(np.abs(row[0] - s[k])) < 1e-12


def test_chart_depths_stay_in_box(triply_tools, annulus_tools):
    m = triply_tools.model
    feet, dirs = _random_charts(m.domain, 40, seed=8)
    rng = np.random.default_rng(9)
    target = rng.uniform(-1.0, 2.0, (40, 2))  # many of these cannot be met
    seed = rng.uniform(-1.0, 3.0, (40, 2))  # many of these lie outside the box
    s, res = _solve_chart(m, feet, dirs, target, seed)
    assert np.all(s > 0) and np.all(s < _exits(m.domain, feet, dirs))
    assert np.any(res >= _CHART_TOL) and np.any(res < _CHART_TOL)
    # complete_zeros' failing chart above: from the foot 1 toward the inner
    # circle, asking for a negative measure
    am = annulus_tools.model
    target = -am.eval_u_all(0.95)[0]
    feet, dirs = np.array([[1.0 + 0j]]), np.array([[-1.0 + 0j]])
    s, res = _solve_chart(am, feet, dirs, target, np.array([[0.1]]))
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
    solved, res = _solve_chart(model, feet, dirs, search.targets, reference)
    ok = res < _CHART_TOL
    coarse, fine = _build_family(search, 6, 12)
    family = np.array(coarse + fine)
    assert len(family) == ok.sum()
    assert np.max(np.abs(family - (feet + solved * dirs)[ok])) < 1e-12


# -- construction ---------------------------------------------------------------


def test_disk_proper_map_is_blaschke(disk_tools):
    config = make_zero_config(disk_tools.model, [0.2, -0.3j], (2,))
    f = build_proper_map(disk_tools.ev, None, config)
    pts = interior_points(disk_tools.domain, 20, seed=5)
    assert np.max(np.abs(f(pts) - blaschke_eval([0.2, -0.3j], pts))) < 1e-14
    assert boundary_modulus_deviation(f) < 1e-12


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


@pytest.mark.parametrize("case", ["annulus", "triply", "g3"])
def test_fused_product_matches_per_zero_route(case, annulus_tools, triply_tools, g3_tools):
    if case == "annulus":
        tools = annulus_tools
        f = build_proper_map(tools.ev, tools.v,
                             make_zero_config(tools.model, [0.5, -0.5], (1, 1)))
    elif case == "triply":  # 728 words: one word tile
        tools = triply_tools
        fixed = [0.1 + 0.55j]
        zeros = fixed + complete_zeros(tools.model, fixed, (1, 1, 1), [-0.3 - 0.2j, 0.3 - 0.2j])
        f = build_proper_map(tools.ev, tools.v, make_zero_config(tools.model, zeros, (1, 1, 1)))
    else:  # 2343 words: three word tiles, and a zero at the origin
        tools = g3_tools
        f = _g3_map(tools)
        assert 0j in f.zeros
    pts = interior_points(tools.domain, 50, seed=21)
    ref = _per_zero_route(tools, f.zeros, f.nu)(pts)
    assert np.max(np.abs(f(pts) / ref - 1)) < 1e-12


def test_fused_product_does_not_depend_on_batch(g3_tools):
    # the fused product of the map's zeros off the origin, over three word
    # tiles and many point tiles, in batches of 1000, 64, 7 and 1
    f = _g3_map(g3_tools)
    moved = [p for p in f.zeros if p != 0]
    ratios = RatioProduct(g3_tools.ev, moved, [1 / p.conjugate() for p in moved])
    pts = interior_points(g3_tools.domain, 1000, seed=22, margin=0.02)
    full = ratios(pts)
    for size in (64, 7):
        parts = np.concatenate([ratios(pts[i:i + size]) for i in range(0, 1000, size)])
        assert np.max(np.abs(parts - full)) < 1e-15
    for i in range(0, 1000, 37):
        assert abs(ratios(pts[i:i + 1])[0] - full[i]) < 1e-15
    # the map as a whole adds the first-kind integrals, contracted per point
    whole = f(pts)
    assert max(abs(f(complex(pts[i])) - whole[i]) for i in range(0, 1000, 37)) < 1e-15


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


# -- boundary data ---------------------------------------------------------------


def test_from_boundary_data_disk(disk_tools):
    f = from_boundary_data(disk_tools.model, disk_tools.ev, None, 0j, [(0, 1.0)])
    pts = interior_points(disk_tools.domain, 10, seed=9)
    assert np.max(np.abs(f(pts) - pts)) < 1e-10


def test_from_boundary_data_annulus(annulus_tools):
    f = from_boundary_data(annulus_tools.model, annulus_tools.ev, annulus_tools.v,
                           0.5j, [(0, 1.0), (1, 0.25)])
    assert abs(f(0.5j)) < 1e-10
    assert abs(f(1.0) - 1) < 1e-5
    assert abs(f(0.25) - 1) < 1e-5
    assert [boundary_degree(f, l) for l in (0, 1)] == [1, 1]


def test_from_boundary_data_higher_degree(annulus_tools):
    # nu = (2, 1): one extra unit-circle point with a rate parameter
    pts_spec = [(0, 1.0), (0, np.exp(2.4j)), (1, 0.25j)]
    f = from_boundary_data(annulus_tools.model, annulus_tools.ev, annulus_tools.v,
                           0.5j, pts_spec, lambdas=[1.3])
    assert f.nu == (2, 1)
    assert f.diagnostics["prescribed_point_residual"] < 1e-4
    degs = [boundary_degree(f, l) for l in (0, 1)]
    assert degs == [2, 1]
    ratios = f.diagnostics["derivative_ratios"]
    measured = ratios["0,1"]["measured"]
    assert measured == pytest.approx(1.3, rel=0.1)


def test_from_boundary_data_input_validation(annulus_tools):
    m, ev, v = annulus_tools.model, annulus_tools.ev, annulus_tools.v
    with pytest.raises(DomainError):
        from_boundary_data(m, ev, v, 0.5j, [(0, 1.0)])  # missing circle 1
    with pytest.raises(DomainError):
        from_boundary_data(m, ev, v, 0.5j, [(0, 0.5), (1, 0.25)])  # not on circle
    with pytest.raises(DomainError):
        from_boundary_data(m, ev, v, 0.1, [(0, 1.0), (1, 0.25)])  # p not interior


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
