import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import interior_points
from schottky.distance import wang_yin_eval
from schottky.errors import (
    AdmissibilityError,
    ConvergenceError,
    DomainError,
    ResolutionError,
)
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
)
from schottky.propermaps import _CHART_TOL, _level_depths, _ray_exit, _solve_chart


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
    seed = _level_depths(m, [1, 2], feet, dirs, target)
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
