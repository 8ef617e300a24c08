import math

import numpy as np
import pytest

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
from schottky.errors import AdmissibilityError, DomainError
from schottky.propermaps import build_proper_map, make_zero_config

FAST = DistanceOptions(n_starts=4)


def disk_m(z, p):
    return abs((z - p) / (1 - np.conj(p) * z))


# -- closed forms ----------------------------------------------------------------


def test_disk_distances(disk_tools):
    m, ev = disk_tools.model, disk_tools.ev
    assert mobius_distance(m, ev, None, 0.0, 0.5).value == pytest.approx(0.5)
    assert mobius_distance(m, ev, None, 0.2, 0.5).value == pytest.approx(1 / 3)
    assert caratheodory_distance(m, ev, None, 0.0, 0.5) == pytest.approx(math.atanh(0.5))


def test_caratheodory_is_atanh_of_mobius(annulus_tools):
    t = annulus_tools
    cs = mobius_distance(t.model, t.ev, t.v, 0.5, -0.4j, FAST).value
    c = caratheodory_distance(t.model, t.ev, t.v, 0.5, -0.4j, FAST)
    assert c == pytest.approx(math.atanh(cs))


def test_annulus_against_dense_sweep_oracle(annulus_tools):
    t = annulus_tools
    res = mobius_distance(t.model, t.ev, t.v, 0.5, -0.5)
    best = 0.0
    for phi in np.linspace(0, 2 * np.pi, 1500, endpoint=False):
        p2 = 0.5 * np.exp(1j * phi)
        best = max(best, abs(wang_yin_eval(0.25, [0.5, p2], 1, -0.5)))
    assert res.value == pytest.approx(best, abs=1e-5)


def test_symmetry(annulus_tools):
    t = annulus_tools
    a = mobius_distance(t.model, t.ev, t.v, 0.5, -0.4j, FAST).value
    b = mobius_distance(t.model, t.ev, t.v, -0.4j, 0.5, FAST).value
    assert abs(a - b) < 2e-4


def test_triangle_inequality_and_disk_lower_bound(annulus_tools):
    t = annulus_tools
    pts = [complex(z) for z in interior_points(t.domain, 5, seed=42, margin=0.1)]
    n = len(pts)
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            val = mobius_distance(t.model, t.ev, t.v, pts[i], pts[j], FAST).value
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


def test_stagnation_sets_warning_flag(annulus_tools):
    t = annulus_tools
    res = mobius_distance(t.model, t.ev, t.v, 0.5, -0.4j,
                          DistanceOptions(n_starts=1, nm_maxiter=2))
    assert res.warning is not None


def test_product_distance():
    assert product_distance(0.8, 0) == pytest.approx(0.8)
    assert product_distance(0.1, 0.5) == pytest.approx(math.atanh(0.5))
    with pytest.raises(DomainError):
        product_distance(-0.1, 0.2)


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


def test_annulus_small_ball_single_component(annulus_tools):
    t = annulus_tools
    raster = ball_raster(t.model, t.ev, t.v, 0.5, 0.3, resolution=80,
                         opts=DistanceOptions(refine_cap=200, coarse_angles=6,
                                              family_angles=8))
    assert raster.component_of(0.5) >= 1
    assert raster.component_count() == 1


def test_raster_nesting_and_intersection(annulus_tools):
    t = annulus_tools
    raster = ball_raster(t.model, t.ev, t.v, 0.5, 0.5, resolution=60,
                         opts=DistanceOptions(refine_cap=100, coarse_angles=6,
                                              family_angles=8))
    small = raster.relabel(0.35) > 0
    big = raster.relabel(0.55) > 0
    assert np.all(big[small])
    # single-map balls contain the intersection ball: c* >= |Phi_P| pointwise,
    # with |Phi_P| from the prime-function product (an independent route)
    from schottky.distance import _ExtremalSearch

    search = _ExtremalSearch(t.model, 0.5)
    pts, _, ok = search.solve_depths(np.array([2.0]))
    assert ok
    f = build_proper_map(t.ev, t.v, make_zero_config(t.model, [0.5, *pts], (1, 1)))
    centers = raster.pixel_centers().ravel()
    inside = ~np.isnan(raster.values.ravel())
    single = np.abs(f(centers[inside]))
    assert np.all(raster.values.ravel()[inside] >= single - 2e-3)


def test_family_equals_per_row_solves(triply_tools):
    from schottky.distance import _ExtremalSearch, _build_family

    search = _ExtremalSearch(triply_tools.model, 0.3j)
    family = _build_family(search, 6)
    grid = np.arange(6) * (2 * np.pi / 6)
    rows = []
    for a1 in grid:
        for a2 in grid:
            pts, _, ok = search.solve_depths(np.array([a1, a2]))
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


def test_annulus_no_disconnection(annulus_tools):
    t = annulus_tools
    raster = ball_raster(t.model, t.ev, t.v, 0.5, 0.6, resolution=100,
                         opts=DistanceOptions(refine_cap=200, coarse_angles=6,
                                              family_angles=8))
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
