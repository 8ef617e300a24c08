import numpy as np
import pytest

from conftest import interior_points
from schottky.domain import Circle, CircularDomain
from schottky.propermaps import build_proper_map, complete_zeros, make_zero_config
from schottky.distance import wang_yin_eval
from schottky.harmonic import (
    GreenFunction,
    _basis_matrix,
    _power_table,
    _tri_solve,
    har_relation_residual,
    integrals_first_kind,
    solve_harmonic_measures,
)
from schottky.prime import PrimeEvaluator


def walk_on_spheres(domain, z0, which, walkers=20000, eps=1e-3, seed=0):
    """Monte-Carlo oracle for the harmonic measure of inner circle
    ``which``: random walks jump to a uniform point on the largest disk
    that fits, and are absorbed at the first boundary within eps."""
    rng = np.random.default_rng(seed)
    z = np.full(walkers, complex(z0))
    hits = 0
    active = np.ones(walkers, dtype=bool)
    for _ in range(10000):
        if not active.any():
            break
        za = z[active]
        dists = [1.0 - np.abs(za)]
        for c in domain.inner_circles:
            dists.append(np.abs(za - c.q) - c.r)
        dists = np.array(dists)
        nearest = np.argmin(dists, axis=0)
        dmin = dists[nearest, np.arange(len(za))]
        absorbed = dmin < eps
        hits += int(np.sum(nearest[absorbed] == which))
        angles = rng.uniform(0, 2 * np.pi, size=len(za))
        za = za + dmin * np.exp(1j * angles)
        keep = ~absorbed
        idx = np.nonzero(active)[0]
        z[idx[keep]] = za[keep]
        active[idx[absorbed]] = False
    return hits / walkers


def test_annulus_measure_closed_form(annulus_tools):
    m = annulus_tools.model
    assert m.eval_u(1, 0.5) == pytest.approx(0.5, abs=1e-10)
    pts = interior_points(m.domain, 20, seed=1)
    expected = np.log(np.abs(pts)) / np.log(0.25)
    assert np.max(np.abs(m.eval_u(1, pts) - expected)) < 1e-10


def test_boundary_values(triply_tools):
    m = triply_tools.model
    assert m.residual < 1e-8
    for l in range(3):
        pts = m.domain.circle(l).samples(64)
        vals = m.eval_u_all(pts)
        target = np.zeros(2)
        if l:
            target[l - 1] = 1
        assert np.max(np.abs(vals - target)) < 1e-8


def test_measures_in_unit_interval_and_partition(triply_tools):
    m = triply_tools.model
    pts = interior_points(m.domain, 50, seed=3)
    vals = m.eval_u_all(pts)
    assert np.all(vals > 0) and np.all(vals < 1)
    u0 = m.eval_u(0, pts)
    assert np.allclose(u0 + vals.sum(axis=1), 1.0)


def test_measure_against_walk_on_spheres_oracle():
    domain = CircularDomain((Circle(-0.5 + 0j, 0.15), Circle(0.5 + 0j, 0.15)))
    model = solve_harmonic_measures(domain, order=20)
    u1 = model.eval_u(1, 0j)
    u2 = model.eval_u(2, 0j)
    assert 0 < u1 < 1 and 0 < u2 < 1 and u1 + u2 < 1
    mc = walk_on_spheres(domain, 0j, which=1, walkers=20000, seed=7)
    assert abs(mc - u1) < 2e-2


def test_gradient_matches_finite_differences(triply_tools):
    m = triply_tools.model
    pts = interior_points(m.domain, 10, seed=5)
    h = 1e-5
    grads = m.eval_u_grad(pts)[1]  # du/dx - i du/dy
    for z, grad in zip(pts, grads):
        z = complex(z)
        for j in (1, 2):
            gx, gy = grad[j - 1].real, -grad[j - 1].imag
            fx = (m.eval_u(j, z + h) - m.eval_u(j, z - h)) / (2 * h)
            fy = (m.eval_u(j, z + 1j * h) - m.eval_u(j, z - 1j * h)) / (2 * h)
            assert gx == pytest.approx(fx, abs=1e-6)
            assert gy == pytest.approx(fy, abs=1e-6)


def test_normal_derivative_signs_on_boundary(triply_tools):
    # u_j drops from 1 moving into the domain off its own circle, so the
    # inward derivative is negative there; on the unit circle it grows
    # from 0 into the domain, so the inward derivative is positive
    m = triply_tools.model
    for j in (1, 2):
        w = m.domain.circle(j).samples(16)
        assert np.all(m.eval_normal_derivative(j, j, w) < 0)
        w0 = m.domain.circle(0).samples(16)
        assert np.all(m.eval_normal_derivative(j, 0, w0) > 0)


def test_mean_value_property(triply_tools):
    m = triply_tools.model
    rng = np.random.default_rng(11)
    pts = interior_points(m.domain, 20, seed=11, margin=0.15)
    for z in pts:
        rad = 0.3 * m.domain.boundary_distance(complex(z))
        circle = complex(z) + rad * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        for j in (1, 2):
            mean = m.eval_u(j, circle).mean()
            assert mean == pytest.approx(m.eval_u(j, complex(z)), abs=1e-8)


def test_conditioning_limit_raises(monkeypatch):
    import schottky.harmonic as harmonic
    from schottky.errors import ConvergenceError

    monkeypatch.setattr(harmonic, "_COND_LIMIT", 1.0)
    with pytest.raises(ConvergenceError, match="separation"):
        solve_harmonic_measures(CircularDomain((Circle(0j, 0.25),)), order=24)


def test_normal_derivative_matrix_nonsingular(triply_tools):
    mat, cond = triply_tools.model.normal_derivative_matrix()
    assert abs(np.linalg.det(mat)) > 0
    assert np.isfinite(cond)
    # diagonal dominance: each measure responds most to its own circle
    assert abs(mat[0, 0]) > abs(mat[0, 1])
    assert abs(mat[1, 1]) > abs(mat[1, 0])


def test_first_kind_integrals_annulus(annulus_tools):
    v = annulus_tools.v
    val = v.eval_v(1, 0.25)
    assert val == pytest.approx(np.log(0.25) / (2j * np.pi), abs=1e-10)
    periods = v.circle_periods()
    assert periods[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_circle_periods_identity(triply_tools):
    periods = triply_tools.v.circle_periods()
    assert np.max(np.abs(periods - np.eye(2))) < 1e-8


def test_v_reflection_symmetry(triply_tools):
    # v_j(1/conj(z)) = conj(v_j(z)).  The raw series is accurate only in a
    # moderate neighborhood of the closed disk (the period machinery pulls
    # deeper reflections back inside), so sample points whose reflections
    # stay within |w| < 1.25.
    v = triply_tools.v
    rng = np.random.default_rng(13)
    count = 0
    while count < 10:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if not (0.88 < abs(z) < 0.97) or not v.domain.contains(z):
            continue
        count += 1
        lhs = v.eval_v_all(1 / np.conj(z))[0]
        rhs = np.conj(v.eval_v_all(z)[0])
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_v_normalized_at_one(triply_tools):
    vals = triply_tools.v.eval_v_all(1.0 + 0j)[0]
    assert np.max(np.abs(vals)) < 1e-12


def test_period_matrix_annulus(annulus_tools):
    pm = annulus_tools.v.period_matrix()
    assert pm.tau[0, 0] == pytest.approx(np.log(0.25**2) / (2j * np.pi), abs=1e-14)


def test_period_matrix_triply(triply_tools):
    pm = triply_tools.v.period_matrix()
    assert np.array_equal(pm.tau, 2 * triply_tools.v.combination)
    assert not pm.tau.real.any()
    assert pm.asymmetry < 1e-7
    assert pm.tau[0, 1] == pytest.approx(pm.tau[1, 0], abs=1e-7)


def _cycle_periods(v, zb):
    """Integral of (dv_1, ..., dv_g) along the cycle of the Schottky double
    through the boundary point zb: from its reflection 1/conj(zb) to the
    unit circle, a leg pulled back into the disk by z -> 1/conj(z) (where dv
    becomes -conj(v'(1/conj w)) / w^2 dw), then on to zb."""
    x, w = np.polynomial.legendre.leggauss(96)
    x, w = (x + 1) / 2, w / 2
    s, a = zb / abs(zb), 1 / np.conj(zb)
    pts = a + (s - a) * x
    outer = (s - a) * (w @ (-np.conj(v.v_prime_all(1 / np.conj(pts))) / (pts * pts)[:, None]))
    pts = s + (zb - s) * x
    return outer + (zb - s) * (w @ v.v_prime_all(pts))


def test_period_matrix_matches_cycle_integrals(triply_tools):
    # an independent route: row i of tau is the cycle integral through the
    # point of circle i nearest the unit circle
    d, v = triply_tools.domain, triply_tools.v
    cycles = np.array([_cycle_periods(v, c.q + c.r * c.q / abs(c.q))
                       for c in d.inner_circles])
    assert np.max(np.abs(cycles - v.period_matrix().tau)) < 1e-8


def test_period_matrix_on_a_domain_with_aligned_circles():
    # both circles on the positive real axis, so the radial segment from the
    # inner one to the unit circle crosses the outer one
    d = CircularDomain((Circle(0.3 + 0j, 0.1), Circle(0.7 + 0j, 0.22)))
    v = integrals_first_kind(solve_harmonic_measures(d))
    pm = v.period_matrix()
    assert not pm.tau.real.any() and pm.asymmetry < 1e-8
    # the shift identity converges in the truncation level with this tau
    pairs = list(zip(interior_points(d, 4, seed=17), interior_points(d, 4, seed=3, margin=0.03)))
    worst = {}
    for L in (6, 8):
        ev = PrimeEvaluator(d, max_word_length=L)
        worst[L] = [max(ev.functional_equation_residual(z, y, j, v) for z, y in pairs)
                    for j in (1, 2)]
    assert all(w8 < 0.2 * w6 for w6, w8 in zip(worst[6], worst[8]))


def test_first_kind_integrals_are_immutable(triply_tools):
    v = integrals_first_kind(triply_tools.model)
    before = dict(vars(v))
    v.period_matrix()
    v.eval_v_all(interior_points(triply_tools.domain, 5, seed=4))
    v.circle_periods()
    assert vars(v).keys() == before.keys()
    assert all(vars(v)[k] is before[k] for k in before)


def test_first_kind_integrals_on_the_disk(disk_tools):
    # g = 0: no integrals, an empty period matrix, and the general code
    v = integrals_first_kind(disk_tools.model)
    pts = interior_points(disk_tools.domain, 5, seed=2)
    assert v.eval_v_all(pts).shape == (5, 0) and v.v_prime_all(pts).shape == (5, 0)
    pm = v.period_matrix()
    assert pm.tau.shape == (0, 0) and pm.asymmetry == 0.0
    assert v.circle_periods().shape == (0, 0)
    assert har_relation_residual(v, pts) == 0.0


def test_har_relation(annulus_tools, triply_tools):
    # both sides equal u_1 * tau_11 at z = 0.5
    assert har_relation_residual(annulus_tools.v, [0.5]) < 1e-7
    # on the unit circle both sides vanish
    assert har_relation_residual(annulus_tools.v, [np.exp(0.3j), np.exp(2.1j)]) < 1e-7
    pts = interior_points(triply_tools.domain, 10, seed=21)
    assert har_relation_residual(triply_tools.v, pts) < 1e-6


# -- one basis, and the Green's function on it --------------------------------------


def test_real_basis_is_interleaved_analytic_basis(triply_tools):
    # the collocation matrix is the power table in its real interleaved view
    d = triply_tools.domain
    z = interior_points(d, 40, seed=2, margin=0.0)
    real = _basis_matrix(d, 24, z)
    table = _power_table(d, 24, z)
    g = d.g
    assert table.shape == (g + 1, 25, len(z)) and np.all(table[:, 0] == 1)
    assert np.array_equal(real[:, 0], np.ones(len(z)))
    powers = table[:, 1:].transpose(2, 0, 1).reshape(len(z), -1)
    assert np.array_equal(real[:, 1 + g :: 2], powers.real)
    assert np.array_equal(real[:, 2 + g :: 2], powers.imag)
    logs = np.log(np.abs(z[:, None] - d.centers) / d.radii)
    assert np.max(np.abs(real[:, 1 : 1 + g] - logs)) < 1e-15


@pytest.mark.parametrize("order", [24, 64])
def test_power_table_rows_are_the_basis_powers(triply_tools, order):
    d = triply_tools.domain
    # interior points, and points 1e-3 off every boundary circle
    near = [c.q + (c.r + 1e-3) * np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False))
            for c in d.inner_circles]
    near.append((1 - 1e-3) * np.exp(1j * np.linspace(0.1, 2 * np.pi, 16, endpoint=False)))
    z = np.concatenate([interior_points(d, 40, seed=3, margin=0.0), *near])
    table = _power_table(d, order, z)
    ks = np.arange(order + 1)[:, None]
    direct = [(c.r / (z - c.q)) ** ks for c in d.inner_circles] + [z**ks]
    for row, ref in zip(table, direct):
        assert np.max(np.abs(row - ref) / np.abs(ref)) < 1e-14
    # a point's column does not depend on the batch it is built in
    for k in range(len(z)):
        assert np.array_equal(_power_table(d, order, z[k : k + 1])[..., 0], table[..., k])


def test_fused_values_and_gradients(triply_tools):
    m = triply_tools.model
    z = interior_points(m.domain, 15, seed=4)
    u, grad = m.eval_u_grad(z)
    assert np.array_equal(u, m.eval_u_all(z))
    h = 1e-5
    dx = (m.eval_u_all(z + h) - m.eval_u_all(z - h)) / (2 * h)
    dy = (m.eval_u_all(z + 1j * h) - m.eval_u_all(z - 1j * h)) / (2 * h)
    assert np.max(np.abs(grad - (dx - 1j * dy))) < 1e-6


def test_gradients_match_central_differences_at_order_64(triply_tools):
    m = solve_harmonic_measures(triply_tools.domain, order=64)
    z = interior_points(m.domain, 15, seed=4)
    u, grad = m.eval_u_grad(z)
    assert np.array_equal(u, m.eval_u_all(z))
    h = 1e-5
    dx = (m.eval_u_all(z + h) - m.eval_u_all(z - h)) / (2 * h)
    dy = (m.eval_u_all(z + 1j * h) - m.eval_u_all(z - 1j * h)) / (2 * h)
    assert np.max(np.abs(grad - (dx - 1j * dy))) < 1e-7


def test_green_function_symmetric(triply_tools):
    d = triply_tools.domain
    green = GreenFunction(triply_tools.model)
    # interior points, and points on chart rays of both inner circles 0.2 to
    # 0.002 from the circle, where the family zeros of a raster sit
    angles = np.array([0.0, 1.0, np.pi / 2, 2.5, np.pi])
    depths = np.array([0.2, 0.05, 0.02, 0.005, 0.002])
    z = np.concatenate([interior_points(d, 12, seed=6)] + [
        d.circle(l).q + (d.circle(l).r + depths) * np.exp(1j * angles) for l in (1, 2)])
    # last, a pixel of a 30 x 30 raster 8e-17 outside circle 2 and as close
    # to a collocation point, where G vanishes to rounding from either side
    z = np.append(z, 0.5 + 0.10000000000000009j)
    vals = green(z, z)
    off = ~np.eye(len(z), dtype=bool)
    assert np.all(vals[:-1, :-1][off[:-1, :-1]] > 0)
    assert np.max(np.abs(vals[off] - vals.T[off])) < 1e-10


@pytest.mark.parametrize("depth", [0.2, 0.05, 0.02, 0.005, 0.002])
def test_green_function_vanishes_on_boundary(triply_tools, depth):
    d = triply_tools.domain
    green = GreenFunction(triply_tools.model)
    c = d.circle(1)
    # poles on normals of circle 1 facing the other circle, the outer
    # circle and in between; a fresh boundary sample, off the collocation grid
    poles = c.q + (c.r + depth) * np.exp(1j * np.array([0.0, 1.0, np.pi / 2, 2.5, np.pi]))
    bd = np.concatenate([
        d.circle(l).q + d.circle(l).r * np.exp(1j * (np.linspace(0, 2 * np.pi, 1000, endpoint=False) + 1e-3))
        for l in range(d.g + 1)
    ])
    assert np.max(np.abs(green(bd, poles))) < 1e-8


@pytest.mark.parametrize("case", ["disk", "triply"])
def test_green_function_pole_at_a_unit_circle_collocation_point(case, disk_tools,
                                                                triply_tools):
    # a pole within rounding inside the unit circle, next to a collocation
    # point, where the log part's data cancel to 0 only in exact arithmetic
    # (on triply the fit read 1.9e-4 and 2.1e-5 here)
    model = (disk_tools if case == "disk" else triply_tools).model
    pole = model.points[5] * (1 - 2.2e-16)
    assert model.domain.contains(pole)
    assert np.max(np.abs(GreenFunction(model)([0.2 + 0.3j, -0.1 - 0.4j], [pole]))) < 1e-9


def test_green_function_pairs_match_kernel_and_derivative(triply_tools):
    green = GreenFunction(triply_tools.model)
    poles = interior_points(triply_tools.domain, 4, seed=9)
    z = interior_points(triply_tools.domain, 12, seed=10).reshape(4, 3)
    paired = green.paired(poles)
    vals, ders = paired(z)
    for b in range(4):
        assert np.max(np.abs(vals[b] - green(z[b], poles[b : b + 1])[:, 0])) < 1e-14
    h = 1e-6
    dx = (paired(z + h)[0] - paired(z - h)[0]) / (2 * h)
    dy = (paired(z + 1j * h)[0] - paired(z - 1j * h)[0]) / (2 * h)
    assert np.max(np.abs(ders - (dx - 1j * dy))) < 1e-7
    rows = np.array([2, 0])
    sub_vals, sub_ders = paired(z[rows], rows)
    assert np.array_equal(sub_vals, vals[rows]) and np.array_equal(sub_ders, ders[rows])


def test_green_function_matches_prime_product(triply_tools):
    t = triply_tools  # L = 6
    fixed = [0.1 + 0.55j]
    zeros = fixed + complete_zeros(t.model, fixed, (1, 1, 1), [-0.3 - 0.2j, 0.3 - 0.2j])
    f = build_proper_map(t.ev, t.v, make_zero_config(t.model, zeros, (1, 1, 1)))
    z = interior_points(t.domain, 30, seed=8, margin=0.02)
    via_green = np.exp(-GreenFunction(t.model)(z, zeros).sum(axis=1))
    assert np.max(np.abs(np.abs(f(z)) - via_green)) < 1e-8


def test_green_function_closed_forms(disk_tools, annulus_tools):
    z = np.array([0.3 + 0.1j, -0.5j, 0.6])
    p = np.array([0.0, 0.4 + 0.2j])
    disk = GreenFunction(disk_tools.model)(z, p)
    expected = np.log(np.abs((1 - np.conj(p) * z[:, None]) / (z[:, None] - p)))
    assert np.max(np.abs(disk - expected)) < 1e-14
    annulus = GreenFunction(annulus_tools.model)(z, [0.5, -0.5])
    wy = np.abs(wang_yin_eval(0.25, [0.5, -0.5], 1, z))
    assert np.max(np.abs(np.exp(-annulus.sum(axis=1)) - wy)) < 1e-12


_ONE_FACTORIZATION_DOMAINS = {
    "triply": CircularDomain((Circle(-0.5 + 0j, 0.1), Circle(0.5 + 0j, 0.1))),
    "4-connected": CircularDomain((Circle(-0.5 + 0j, 0.12), Circle(0.45 + 0.1j, 0.1),
                                   Circle(-0.05 - 0.55j, 0.1))),
    # the shrinking-hole family: anchor circle at -0.5, hole at 0.4
    "hole-0.05": CircularDomain((Circle(-0.5 + 0j, 0.15), Circle(0.4 + 0j, 0.05))),
    "hole-1e-6": CircularDomain((Circle(-0.5 + 0j, 0.15), Circle(0.4 + 0j, 1e-6))),
}


def _measure_data(domain, points_per_circle):
    """Boundary values of u_1..u_g, circle by circle."""
    return np.repeat(np.eye(domain.g + 1)[:, 1:], points_per_circle, axis=0)


@pytest.mark.parametrize("name", list(_ONE_FACTORIZATION_DOMAINS))
def test_measures_fit_from_the_models_factors(name):
    d = _ONE_FACTORIZATION_DOMAINS[name]
    model = solve_harmonic_measures(d)
    # the reference: an SVD least-squares solve of the same system
    amat = _basis_matrix(d, model.order, model.points)
    ref, *_ = np.linalg.lstsq(amat, _measure_data(d, model.colloc), rcond=None)
    z = interior_points(d, 200, seed=3, margin=0.01)
    assert np.max(np.abs(model.eval_u_all(z) - _basis_matrix(d, model.order, z) @ ref)) < 1e-13
    # the same boundary misfit on the fresh sample the model reports
    fresh = np.concatenate([d.circle(l).samples(2 * model.colloc) for l in range(d.g + 1)])
    misfit = np.max(np.abs(_basis_matrix(d, model.order, fresh) @ ref
                           - _measure_data(d, 2 * model.colloc)))
    assert model.residual == pytest.approx(misfit, abs=1e-13)
    # cond is a 1-norm condition number; it bounds the 2-norm one within a
    # factor of the basis size
    cond, n = np.linalg.cond(amat), amat.shape[1]
    assert cond / n <= model.cond <= cond * n


# scipy is a test-only oracle for the numpy factor routines
_ORACLE_DOMAINS = ["triply", "4-connected", "hole-1e-6"]


@pytest.mark.parametrize("name", _ORACLE_DOMAINS)
@pytest.mark.parametrize("k", [1, 2, 300])
def test_block_triangular_solve_matches_scipy(name, k):
    from scipy.linalg import solve_triangular

    model = solve_harmonic_measures(_ONE_FACTORIZATION_DOMAINS[name])
    rng = np.random.default_rng(k)
    y = rng.standard_normal((len(model.r), k))
    ref = solve_triangular(model.r, y)
    got = _tri_solve(model.r, model.blocks, y)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    # one right-hand side as a vector
    ref = solve_triangular(model.r, y[:, 0])
    got = _tri_solve(model.r, model.blocks, y[:, 0])
    assert got.shape == ref.shape and np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", _ORACLE_DOMAINS)
def test_cond_matches_lapack_estimate(name):
    from scipy.linalg import qr
    from scipy.linalg.lapack import dtrcon

    d = _ONE_FACTORIZATION_DOMAINS[name]
    model = solve_harmonic_measures(d)
    _, r = qr(_basis_matrix(d, model.order, model.points), mode="economic")
    # the exact 1-norm condition number; LAPACK's estimate is a lower bound
    assert model.cond == pytest.approx(np.linalg.cond(r, 1), rel=1e-12)
    rcond, info = dtrcon(r)
    assert info == 0
    assert 1.0 / rcond <= model.cond * (1 + 1e-12)


def test_cond_of_a_singular_factor_stops_the_fit(monkeypatch):
    # a zero column makes r singular: cond is infinite, and the fit refuses
    import schottky.harmonic as harmonic

    basis = harmonic._basis_matrix

    def degenerate(*args):
        out = basis(*args)
        out[:, 3] = 0.0
        return out

    monkeypatch.setattr(harmonic, "_basis_matrix", degenerate)
    from schottky.errors import ConvergenceError

    with pytest.raises(ConvergenceError, match="condition inf exceeds"):
        solve_harmonic_measures(_ONE_FACTORIZATION_DOMAINS["triply"])


def test_residual_is_a_first_use_memo():
    model = solve_harmonic_measures(_ONE_FACTORIZATION_DOMAINS["triply"])
    assert "residual" not in vars(model)
    assert model.residual == model.boundary_misfit()
    assert "residual" in vars(model)


def test_green_function_runs_no_factorization(monkeypatch, triply_tools, disk_tools):
    def refuse(*args, **kwargs):
        raise AssertionError("GreenFunction factored or inverted a matrix")

    import scipy.linalg

    for module in (np.linalg, scipy.linalg):
        for name in ("qr", "inv"):
            monkeypatch.setattr(module, name, refuse)
    z = np.array([0.3 + 0.1j, -0.5j, 0.6])
    p = np.array([0.0, 0.4 + 0.2j])
    green = GreenFunction(disk_tools.model)
    expected = np.log(np.abs((1 - np.conj(p) * z[:, None]) / (z[:, None] - p)))
    assert np.max(np.abs(green(z, p) - expected)) < 1e-14
    green = GreenFunction(triply_tools.model)
    z = np.array([0.3 + 0.1j, -0.5j, 0.2 - 0.4j])
    assert np.max(np.abs(green(z, p) - green(p, z).T)) < 1e-10


def test_first_kind_integrals_do_not_depend_on_batch():
    d = _ONE_FACTORIZATION_DOMAINS["4-connected"]
    v = integrals_first_kind(solve_harmonic_measures(d))
    z = interior_points(d, 1000, seed=22, margin=0.02)
    whole = v.eval_v_all(z)
    for i in range(1000):
        assert np.array_equal(v.eval_v_all(z[i : i + 1])[0], whole[i])
