import math

import numpy as np
import pytest

import schottky.distance as distance
from conftest import interior_points
from schottky.distance import (
    BallRaster,
    DistanceOptions,
    ball_raster,
    caratheodory_distance,
    disconnection_thresholds,
    mobius_distance,
    product_distance,
    wang_yin_eval,
)
from schottky.distance import _FOUR_CONN, _label_components, _shifts
from schottky.domain import Circle, CircularDomain
from schottky.errors import (
    AdmissibilityError,
    DomainError,
    ResolutionError,
    TruncationQualityError,
)
from schottky.harmonic import GreenFunction, solve_harmonic_measures
from schottky.propermaps import build_proper_map, make_zero_config


@pytest.fixture
def four_starts(monkeypatch):
    """Four multi-start rows per distance instead of eight."""
    monkeypatch.setattr(distance, "_N_STARTS", 4)


@pytest.fixture
def fine_angles_8(monkeypatch):
    """A fine raster family of 8 foot angles per circle instead of 12."""
    monkeypatch.setattr(distance, "_FINE_ANGLES", 8)


def disk_m(z, p):
    return abs((z - p) / (1 - np.conj(p) * z))


# -- closed forms ----------------------------------------------------------------


def test_disk_distances(disk_tools):
    m, ev = disk_tools.model, disk_tools.ev
    assert mobius_distance(m, ev, None, 0.0, 0.5).value == pytest.approx(0.5)
    assert mobius_distance(m, ev, None, 0.2, 0.5).value == pytest.approx(1 / 3)
    assert caratheodory_distance(m, ev, None, 0.0, 0.5) == pytest.approx(math.atanh(0.5))


def test_caratheodory_is_atanh_of_mobius(annulus_tools, four_starts):
    t = annulus_tools
    cs = mobius_distance(t.model, t.ev, t.v, 0.5, -0.4j).value
    c = caratheodory_distance(t.model, t.ev, t.v, 0.5, -0.4j)
    assert c == pytest.approx(math.atanh(cs))


def test_annulus_against_dense_sweep_oracle(annulus_tools):
    t = annulus_tools
    res = mobius_distance(t.model, t.ev, t.v, 0.5, -0.5)
    best = 0.0
    for phi in np.linspace(0, 2 * np.pi, 1500, endpoint=False):
        p2 = 0.5 * np.exp(1j * phi)
        best = max(best, abs(wang_yin_eval(0.25, [0.5, p2], 1, -0.5)))
    assert res.value == pytest.approx(best, abs=1e-5)


def test_symmetry(annulus_tools, four_starts):
    t = annulus_tools
    a = mobius_distance(t.model, t.ev, t.v, 0.5, -0.4j).value
    b = mobius_distance(t.model, t.ev, t.v, -0.4j, 0.5).value
    assert abs(a - b) < 2e-4


def test_triangle_inequality_and_disk_lower_bound(annulus_tools, four_starts):
    t = annulus_tools
    pts = [complex(z) for z in interior_points(t.domain, 5, seed=42, margin=0.1)]
    n = len(pts)
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            val = mobius_distance(t.model, t.ev, t.v, pts[i], pts[j]).value
            dist[i, j] = dist[j, i] = math.atanh(val)
            assert val >= disk_m(pts[j], pts[i]) - 1e-6
    count = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                assert dist[i, j] <= dist[i, k] + dist[k, j] + 5e-4
                count += 1
    assert count >= 20


def test_base_point_must_be_interior(annulus_tools):
    with pytest.raises(DomainError):
        mobius_distance(annulus_tools.model, annulus_tools.ev, annulus_tools.v,
                        0.1, 0.5)


@pytest.mark.parametrize("zeta", [0.47, 1.5, 0.5])
def test_target_point_must_be_interior(triply_tools, zeta):
    # in the hole (0.5, 0.1), outside the unit disk, and at the hole's centre:
    # these used to return c* = 8.82 and 4.4e11 and raise ConvergenceError
    t = triply_tools
    with pytest.raises(DomainError):
        mobius_distance(t.model, t.ev, t.v, 0.3j, zeta)


def test_stagnation_sets_warning_flag(annulus_tools, monkeypatch):
    # one row of at most 2 trials (g = 1)
    monkeypatch.setattr(distance, "_N_STARTS", 1)
    monkeypatch.setattr(distance, "_TRIALS_PER_ANGLE", 2)
    t = annulus_tools
    res = mobius_distance(t.model, t.ev, t.v, 0.5, -0.4j)
    assert res.warning is not None


def test_product_distance():
    assert product_distance(0.8, 0) == pytest.approx(0.8)
    assert product_distance(0.1, 0.5) == pytest.approx(math.atanh(0.5))
    with pytest.raises(DomainError):
        product_distance(-0.1, 0.2)
    # the disk factor's distance is finite only inside the unit disk
    for lam in (1.0, 0.5 + 1j, -2.0):
        with pytest.raises(DomainError):
            product_distance(0.5, lam)


def test_pixel_of_refuses_points_off_the_grid():
    raster = BallRaster((-1.0, -1.0, 1.0, 1.0), 20, 20, 0j, 0.5, np.full((20, 20), np.nan))
    assert raster.pixel_of(-1 - 1j) == (0, 0)
    assert raster.pixel_of(0.999 + 0.999j) == (19, 19)
    assert raster.pixel_of(-0.05 + 0.95j) == (19, 9)
    # less than a pixel beyond the left or lower edge is off the grid too
    for z in (-1.001 - 1.001j, -1.001 + 0j, -1.001j, 1.0 + 0j, 1j):
        with pytest.raises(ResolutionError):
            raster.pixel_of(z)


def test_product_distance_ball_is_product_of_balls():
    r = 0.7
    c1 = np.linspace(0, 1.4, 25)
    lam = np.linspace(0, 0.95, 25)
    inside = np.array([[product_distance(a, b) < r for b in lam] for a in c1])
    expected = (c1[:, None] < r) & (np.arctanh(lam)[None, :] < r)
    assert np.array_equal(inside, expected)


# -- rasters ----------------------------------------------------------------------


def test_disk_ball_raster_area(disk_tools):
    raster = ball_raster(disk_tools.model, disk_tools.ev, None, 0.0, 0.5,
                         resolution=150)
    assert raster.component_count() == 1
    inside = raster.labels >= 0
    frac = np.mean(raster.labels[inside] > 0)
    assert frac == pytest.approx(0.25, abs=0.0075)  # ball is |z| < 0.5


def test_annulus_small_ball_single_component(annulus_tools, fine_angles_8):
    t = annulus_tools
    raster = ball_raster(t.model, t.ev, t.v, 0.5, 0.3, resolution=80,
                         opts=DistanceOptions(refine_cap=200))
    assert raster.component_of(0.5) >= 1
    assert raster.component_count() == 1


def test_raster_nesting_and_intersection(annulus_tools, fine_angles_8):
    t = annulus_tools
    raster = ball_raster(t.model, t.ev, t.v, 0.5, 0.5, resolution=60,
                         opts=DistanceOptions(refine_cap=100))
    small = raster.relabel(0.35) > 0
    big = raster.relabel(0.55) > 0
    assert np.all(big[small])
    # single-map balls contain the intersection ball: c* >= |Phi_P| pointwise,
    # with |Phi_P| from the prime-function product (an independent route)
    from schottky.distance import _ExtremalSearch

    search = _ExtremalSearch(t.model, 0.5)
    pts, _, ok, _ = search.solve_depths(np.array([2.0]))
    assert ok
    f = build_proper_map(t.ev, t.v, make_zero_config(t.model, [0.5, *pts], (1, 1)))
    centers = raster.pixel_centers().ravel()
    inside = ~np.isnan(raster.values.ravel())
    single = np.abs(f(centers[inside]))
    assert np.all(raster.values.ravel()[inside] >= single - 2e-3)


def test_family_equals_per_row_solves(triply_tools):
    from schottky.distance import _ExtremalSearch, _build_family

    search = _ExtremalSearch(triply_tools.model, 0.3j)
    family, = _build_family(search, 6)
    grid = np.arange(6) * (2 * np.pi / 6)
    rows = []
    for a1 in grid:
        for a2 in grid:
            pts, _, ok, _ = search.solve_depths(np.array([a1, a2]))
            if ok:
                rows.append(pts)
    assert len(family) == len(rows) == 36
    assert np.max(np.abs(np.array(family) - np.array(rows))) < 1e-12


def test_raster_center_must_be_inside(annulus_tools):
    t = annulus_tools
    with pytest.raises(Exception):
        ball_raster(t.model, t.ev, t.v, 0.5, 0.3, bbox=(0.6, 0.6, 1.0, 1.0),
                    resolution=20)


def test_raster_csv_round_trip(tmp_path, disk_tools):
    raster = ball_raster(disk_tools.model, disk_tools.ev, None, 0.2, 0.4,
                         resolution=40)
    path = tmp_path / "raster.csv"
    raster.to_csv(path)
    back = BallRaster.from_csv(path)
    assert np.array_equal(back.values, raster.values, equal_nan=True)
    assert back.bbox == raster.bbox
    assert back.center == raster.center
    assert back.threshold == raster.threshold
    # byte-identical rewrite
    path2 = tmp_path / "raster2.csv"
    back.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_annulus_no_disconnection(annulus_tools, fine_angles_8):
    t = annulus_tools
    raster = ball_raster(t.model, t.ev, t.v, 0.5, 0.6, resolution=100,
                         opts=DistanceOptions(refine_cap=200))
    hit = disconnection_thresholds(raster, 0.5, -0.5,
                                   np.linspace(0.15, 0.95, 25),
                                   require_compact=False)
    assert hit is None


# -- annulus oracle ----------------------------------------------------------------


def test_wang_yin_unimodular_and_condition():
    w = np.exp(1j * np.linspace(0, 2 * np.pi, 50, endpoint=False))
    vals = np.abs(wang_yin_eval(0.25, [0.5, -0.5], 1, w))
    assert np.max(np.abs(vals - 1)) < 1e-9
    with pytest.raises(AdmissibilityError):
        wang_yin_eval(0.25, [0.5, 0.4], 1, 0.7)
    with pytest.raises(AdmissibilityError):
        wang_yin_eval(0.25, [], 0, 0.7)


def test_witness_scans_only_thresholds_above_c_star(monkeypatch):
    scanned = []
    scan = distance.disconnection_thresholds

    def record(raster, p_tilde, zeta, thresholds, **kw):
        scanned.append(np.array(thresholds))
        return scan(raster, p_tilde, zeta, thresholds, **kw)

    monkeypatch.setattr(distance, "disconnection_thresholds", record)
    # c*(p_tilde, zeta) = 0.99797 leaves thresholds in (c*, 1] to scan
    near = distance.find_disconnected_ball(
        shrink_center=-0.1 + 0j, shrink_radii=(0.05,), p_depths=(0.3,), zeta_gap=0.1,
        resolution=24).diagnostics["attempts"][0]
    assert "scan" not in near and len(scanned) == 1
    lo, hi = near["scan_window"]
    assert near["c_star_zeta"] < lo < hi <= 1.0
    assert np.all(scanned[0] > near["c_star_zeta"]) and np.all(scanned[0] <= 1.0)
    # c* = 0.99973 (the default family): no window, no raster, no scan
    far = distance.find_disconnected_ball(
        shrink_radii=(0.05,), p_depths=(0.02,), resolution=24).diagnostics["attempts"][0]
    lo, hi = far["scan_window"]
    assert far["scan"] == "empty" and lo >= hi and lo > far["c_star_zeta"]
    assert len(scanned) == 1


@pytest.mark.parametrize("radius", [0.1, 0.05, 0.02])
def test_beta_proxies_match_the_slit_map_products(radius):
    # the Green's-function moduli against |eta|, |eta_l| from the L = 7
    # product, on the default witness family
    from schottky.distance import _beta_proxies
    from schottky.domain import Circle, CircularDomain
    from schottky.harmonic import solve_harmonic_measures
    from schottky.prime import PrimeEvaluator
    from schottky.slitmaps import eta, eta_l

    anchor, center = Circle(-0.5 + 0j, 0.15), 0.4 + 0j
    dom = CircularDomain((anchor, Circle(center, radius)))
    zeta = center + (radius + 0.02)
    beta = _beta_proxies(solve_harmonic_measures(dom), zeta, anchor, 2, center, radius)
    ev = PrimeEvaluator(dom, max_word_length=7)
    pts = [zeta, anchor.q + anchor.r * 1j]
    a, b = np.abs(eta(ev, pts, center + radius + 1e-3))
    assert beta["beta1_proxy"] == pytest.approx(a / b, rel=1e-7)
    a, b = np.abs(eta_l(ev, 2, pts, (1 - 1e-3) * zeta / abs(zeta)))
    assert beta["beta2_proxy"] == pytest.approx(a / b, rel=1e-7)


def test_witness_search_runs_at_a_tiny_hole():
    # the zero's reflection in a hole of radius 1e-6 lies within about 1e-12
    # of that generator's fixed point, where a prime-function product is
    # singular; the Green's-function proxies stay finite
    attempt = distance.find_disconnected_ball(
        shrink_radii=(1e-6,), p_depths=(0.02,), resolution=24).diagnostics["attempts"][0]
    for key in ("beta1_proxy", "beta2_proxy", "beta_product", "c_star_zeta"):
        assert math.isfinite(attempt[key]) and attempt[key] > 0, key
    assert attempt["beta1_proxy"] < 1 < attempt["beta2_proxy"]


def test_witness_search_needs_no_prime_function(monkeypatch):
    from schottky.prime import PrimeEvaluator

    def refuse(*args, **kwargs):
        raise AssertionError("the witness search built a PrimeEvaluator")

    monkeypatch.setattr(PrimeEvaluator, "__init__", refuse)
    witness = distance.find_disconnected_ball(shrink_radii=(0.05,), p_depths=(0.02,),
                                              resolution=24)
    assert not witness.found and witness.diagnostics["attempts"][0]["beta_product"] > 0


# -- batched ascent ----------------------------------------------------------------


def _chart_objective(search, green, angles):
    pts, s, ok, du = search.solve_depths(angles[None, :])
    assert ok.all()
    return search._objective(green, np.array([0]), pts, angles[None, :], s, du)


def test_ascent_gradient_matches_central_difference(triply_tools):
    from schottky.distance import _ExtremalSearch

    search = _ExtremalSearch(triply_tools.model, 0.3j)
    green = search.green.paired(np.array([-0.2 - 0.4j]))
    rng = np.random.default_rng(7)
    h = 1e-4
    for angles in rng.uniform(0, 2 * np.pi, size=(3, 2)):
        _, grad = _chart_objective(search, green, angles)
        diff = [(_chart_objective(search, green, angles + h * e)[0]
                 - _chart_objective(search, green, angles - h * e)[0])[0] / (2 * h)
                for e in np.eye(2)]
        assert np.max(np.abs(grad[0] - diff)) < 1e-6 * np.max(np.abs(grad[0]))


def test_objective_reads_the_chart_solves_gradients(triply_tools):
    from schottky.distance import _ExtremalSearch

    search = _ExtremalSearch(triply_tools.model, 0.3j)
    zetas = np.array([-0.2 - 0.4j, 0.1 + 0.6j, 0.7 + 0j])
    green = search.green.paired(zetas)
    angles = np.random.default_rng(5).uniform(0, 2 * np.pi, size=(3, 2))
    pts, s, ok, du = search.solve_depths(angles)
    assert ok.all()
    fresh = triply_tools.model.eval_u_grad(pts.ravel())[1].reshape(3, 2, 2)
    assert np.array_equal(du, fresh)
    rows = np.arange(3)
    read = search._objective(green, rows, pts, angles, s, du)
    evaluated = search._objective(green, rows, pts, angles, s, fresh)
    assert all(np.array_equal(a, b) for a, b in zip(read, evaluated))


def test_ascent_batch_equals_rows(triply_tools):
    from schottky.distance import _ExtremalSearch

    search = _ExtremalSearch(triply_tools.model, 0.3j)
    zetas = np.array([-0.2 - 0.4j, 0.1 + 0.6j, 0.7 + 0j, -0.3 + 0.2j, 0.05 - 0.05j])
    seeds = np.random.default_rng(3).uniform(0, 2 * np.pi, size=(len(zetas), 2))
    batch = search.ascend(zetas, seeds, 200)
    for k in range(len(zetas)):
        row = search.ascend(zetas[k : k + 1], seeds[k : k + 1], 200)
        assert abs(row.values[0] - batch.values[k]) < 1e-12
        assert np.max(np.abs(row.zeros[0] - batch.zeros[k])) < 1e-12
        assert row.evaluations[0] == batch.evaluations[k]
        assert row.capped[0] == batch.capped[k]


def test_raster_band_pixels_reach_mobius_distance(triply_tools):
    t = triply_tools
    opts = DistanceOptions()
    raster = ball_raster(t.model, t.ev, t.v, 0.3j, 0.6, resolution=20, opts=opts)
    band = np.argwhere(np.abs(raster.values - 0.6) < opts.refine_margin)
    assert len(band) == raster.diagnostics["polished"] > 0
    # 6^2 + 12^2 family charts, all solved, from one batched seed that
    # needs fewer evaluations than the 40 of a bisection; the polish reads
    # the gradients of each chart solve (this is the benchmark's raster-g2)
    assert raster.diagnostics == {"family_charts": [180, 180], "seed_evaluations": 7,
                                  "polished": 8, "ascent_iterations": 9, "chart_solves": 10,
                                  "capped": 0}
    centers = raster.pixel_centers()
    for iy, ix in band:
        exact = mobius_distance(t.model, t.ev, t.v, 0.3j, complex(centers[iy, ix])).value
        assert abs(raster.values[iy, ix] - exact) < 1e-8


def _fine_band(triply_tools, resolution):
    """The raster-g2 search (p_tilde = 0.3i, r = 0.6), its fine family and the
    pixels the fine family sweeps at this resolution, as ``ball_raster``
    picks them from the coarse envelope."""
    search = distance._ExtremalSearch(triply_tools.model, 0.3j)
    coarse, fine = distance._build_family(search, distance._COARSE_ANGLES,
                                          distance._FINE_ANGLES)
    raster = BallRaster((-1.0, -1.0, 1.0, 1.0), resolution, resolution, 0.3j, 0.6, None)
    zs = raster.pixel_centers().ravel()
    zs = zs[triply_tools.domain.contains(zs)]
    total, _ = distance._member_min(search, zs, coarse, search.green(zs, search.p)[:, 0])
    return search, fine, zs[np.abs(np.exp(-total) - 0.6) < distance._BAND_MARGIN]


@pytest.mark.parametrize("resolution, count", [(20, 22), (100, 590)])
def test_member_min_is_the_same_from_either_side(triply_tools, resolution, count):
    # 22 band pixels fit the pixels, 590 fit the 288 zeros: either way gives
    # the envelope and argmin of both orientations
    search, fine, z = _fine_band(triply_tools, resolution)
    zeros = np.asarray(fine).ravel()
    assert (len(z), len(zeros)) == (count, 288)
    base = search.green(z, search.p)[:, 0]
    total, best = distance._member_min(search, z, fine, base)
    for green in (search.green(z, zeros), search.green(zeros, z).T):
        sums = green.reshape(len(z), len(fine), 2).sum(axis=2)
        assert np.max(np.abs(base + sums.min(axis=1) - total)) < 1e-12
        assert np.array_equal(np.argmin(sums, axis=1), best)


def test_raster_fits_the_smaller_side(triply_tools, monkeypatch):
    fits = []
    fit = GreenFunction._fit

    def counted(self, poles):
        fits.append(len(poles))
        return fit(self, poles)

    monkeypatch.setattr(GreenFunction, "_fit", counted)
    t = triply_tools
    ball_raster(t.model, t.ev, t.v, 0.3j, 0.6, resolution=20)
    # the center's pole, the coarse family's 36 x 2 zeros, the fine sweep's
    # 22 band pixels (not the fine family's 144 x 2 zeros), the 8 polished
    assert fits == [1, 72, 22, 8]
    fits.clear()
    ball_raster(t.model, t.ev, t.v, 0.3j, 0.6, resolution=100)
    # more band pixels than zeros: the fine sweep fits the zeros
    assert fits[:3] == [1, 72, 288]


def test_component_count_without_inside_pixels(tmp_path):
    path = tmp_path / "outside.csv"
    BallRaster((-1.0, -1.0, 1.0, 1.0), 3, 2, 0j, 0.5, np.full((2, 3), np.nan)).to_csv(path)
    raster = BallRaster.from_csv(path)
    assert np.all(raster.labels == -1)
    assert raster.component_count() == 0


# -- raster morphology against scipy.ndimage (a test-only oracle) -------------------


def _oracle_masks(triply_tools):
    rng = np.random.default_rng(40)
    yy, xx = np.mgrid[-40:40, -50:50]
    ball = (xx**2 + yy**2 < 35**2) & ((xx - 10) ** 2 + (yy - 5) ** 2 > 8**2)
    # the raster-g2 benchmark raster at seed 0
    raster = ball_raster(triply_tools.model, None, None, 0.3j, 0.6, resolution=20)
    return {
        "empty": np.zeros((7, 9), dtype=bool),
        "full": np.ones((7, 9), dtype=bool),
        "1xn": rng.uniform(size=(1, 40)) < 0.5,
        "nx1": rng.uniform(size=(40, 1)) < 0.5,
        "random": rng.uniform(size=(120, 90)) < 0.5,
        "ball with a hole": ball,
        "raster-g2": ~np.isnan(raster.values) & (raster.values < 0.6),
    }


def test_morphology_matches_ndimage(triply_tools):
    from scipy import ndimage
    yy, xx = np.mgrid[-3:4, -3:4]
    disk = xx**2 + yy**2 <= 9
    for name, mask in _oracle_masks(triply_tools).items():
        labels, count = ndimage.label(mask, structure=_FOUR_CONN)
        got = _label_components(mask)
        assert got.dtype == np.int32 and np.array_equal(got, labels), name
        assert np.array_equal(np.logical_and.reduce(_shifts(mask, disk)),
                              ndimage.binary_erosion(mask, structure=disk)), name
        assert np.array_equal(np.logical_or.reduce(_shifts(mask, _FOUR_CONN)),
                              ndimage.binary_dilation(mask, structure=_FOUR_CONN)), name
    rng = np.random.default_rng(41)
    for _ in range(200):  # random shapes and densities
        mask = rng.uniform(size=rng.integers(1, 30, 2)) < rng.uniform(0.2, 0.8)
        assert np.array_equal(_label_components(mask),
                              ndimage.label(mask, structure=_FOUR_CONN)[0])


def test_raster_labels_match_ndimage(triply_tools):
    from scipy import ndimage
    raster = ball_raster(triply_tools.model, None, None, 0.3j, 0.6, resolution=24)
    inside = ~np.isnan(raster.values)
    for r in (0.3, 0.6, 0.9, 0.99):
        labels = raster.relabel(r)
        ref, count = ndimage.label(inside & (raster.values < r), structure=_FOUR_CONN)
        ref[~inside] = -1
        assert np.array_equal(labels, ref) and raster.component_count() == count
        grown = ndimage.binary_dilation(~inside, structure=_FOUR_CONN)
        for label in range(1, count + 1):
            mask = labels == label
            assert raster.touches_domain_boundary(label) == bool((grown & mask).any())
            for radius in (1, 3):
                yy, xx = np.mgrid[-radius : radius + 1, -radius : radius + 1]
                disk = xx**2 + yy**2 <= radius**2
                assert raster.component_has_disk(label, radius) == bool(
                    ndimage.binary_erosion(mask, structure=disk).any())


# -- values above 1 ------------------------------------------------------------------

# the basis at order 24 puts c* 3.1e-10 above 1 here: a base point 1e-4 off the
# anchor circle and a probe 1e-4 off the tiny hole
_ABOVE_ONE = CircularDomain((Circle(-0.5 + 0j, 0.3), Circle(0.7 + 0j, 0.01)))


def test_mobius_distance_flags_a_value_above_one():
    model = solve_harmonic_measures(_ABOVE_ONE, order=24)
    res = mobius_distance(model, None, None, -0.8001, 0.7101)
    assert res.value > 1  # as computed, not clamped
    assert f"1 - c* = {1 - res.value:.3e}" in res.warning
    with pytest.raises(TruncationQualityError, match="order-24 basis"):
        caratheodory_distance(model, None, None, -0.8001, 0.7101)
