import copy

import numpy as np
import pytest

from conftest import interior_points
from schottky.domain import INFINITY, Circle, CircularDomain
from schottky.errors import SingularEvaluationError
from schottky.harmonic import integrals_first_kind, solve_harmonic_measures
from schottky.prime import PrimeEvaluator, RatioProduct, _combine, _images

ANNULUS = CircularDomain((Circle(0j, 0.25),))
TRIPLY = CircularDomain((Circle(-0.5 + 0j, 0.1), Circle(0.5 + 0j, 0.1)))
FOUR = CircularDomain((Circle(-0.5 + 0j, 0.12), Circle(0.45 + 0.1j, 0.1),
                       Circle(-0.05 - 0.55j, 0.1)))


def annulus_omega_oracle(z, y, r=0.25, terms=8):
    """Independent scalar route for the one-generator product."""
    val = z - y
    for k in range(1, terms + 1):
        q = r ** (2 * k)
        val *= (z - q * y) * (y - q * z) / ((z - q * z) * (y - q * y))
    return val


def test_disk_omega_is_difference(disk_tools):
    assert disk_tools.ev.omega(0.3, 0.1) == pytest.approx(0.2)


def test_omega_vanishes_at_diagonal(annulus_tools):
    assert annulus_tools.ev.omega(0.4, 0.4) == 0


def test_omega_derivative_normalization(annulus_tools):
    # omega(z, y)/(z - y) -> 1 as z -> y
    y = 0.45 + 0.2j
    h = 1e-6
    val = annulus_tools.ev.omega(y + h, y) / h
    assert abs(val - 1) < 1e-4


def test_omega_matches_annulus_oracle(annulus_tools):
    rng = np.random.default_rng(2)
    pts = interior_points(annulus_tools.domain, 40, seed=2)
    for z, y in zip(pts[:20], pts[20:]):
        lhs = annulus_tools.ev.omega(complex(z), complex(y))
        rhs = annulus_omega_oracle(complex(z), complex(y))
        assert abs(lhs - rhs) < 1e-10


def test_omega_zero_free_off_orbit(annulus_tools):
    ev = annulus_tools.ev
    y = 0.5
    orbit = [y * 0.25 ** (2 * k) for k in range(-3, 4)]
    pts = interior_points(ev.domain, 60, seed=9)
    clear = [z for z in pts if all(abs(z - w) > 0.05 for w in orbit)]
    vals = np.abs(ev.omega(np.array(clear), y))
    assert vals.min() > 1e-4


def test_omega_vectorized_matches_scalar(annulus_tools):
    pts = interior_points(annulus_tools.domain, 10, seed=4)
    vec = annulus_tools.ev.omega(pts, 0.5)
    for z, v in zip(pts, vec):
        assert annulus_tools.ev.omega(complex(z), 0.5) == pytest.approx(v)


def test_symmetry_residuals_disk(disk_tools):
    r1, r2 = disk_tools.ev.symmetry_residuals(0.5, 0.3j)
    assert r1 < 1e-15
    assert r2 == 0


def test_symmetry_residuals_annulus(annulus_tools):
    r1, r2 = annulus_tools.ev.symmetry_residuals(0.7, 0.4)
    assert r1 < 1e-9
    assert r2 < 1e-12


def test_symmetry_residuals_triply(triply_tools):
    pts = interior_points(triply_tools.domain, 10, seed=12)
    for z, y in zip(pts[:5], pts[5:]):
        r1, r2 = triply_tools.ev.symmetry_residuals(complex(z), complex(y))
        assert r1 < 1e-8
        assert r2 < 1e-12


def test_functional_equation_annulus(annulus_tools):
    res = annulus_tools.ev.functional_equation_residual(0.6, 0.4j, 1, annulus_tools.v)
    assert res < 1e-6


def test_functional_equation_monotone_in_length(annulus_tools):
    residuals = []
    for L in (2, 4, 6):
        ev = PrimeEvaluator(annulus_tools.domain, max_word_length=L)
        residuals.append(ev.functional_equation_residual(0.6, 0.4j, 1, annulus_tools.v))
    assert residuals[0] > residuals[1] > residuals[2]


def test_functional_equation_monotone_triply(triply_tools):
    residuals = []
    for L in (2, 4, 6):
        ev = PrimeEvaluator(triply_tools.domain, max_word_length=L)
        residuals.append(ev.functional_equation_residual(0.25 + 0.3j, -0.3j, 1, triply_tools.v))
    assert residuals[0] > residuals[1] > residuals[2]


def test_functional_equation_disk_vacuous(disk_tools):
    assert disk_tools.ev.functional_equation_residual(0.3, 0.2, 1, None) == 0.0


def _shift_residual(ev, v, j, z, y, sign=1.0):
    """The shift identity written out with ``sign * sqrt_dtheta``."""
    lhs = ev.omega(ev._gens[j - 1](z), y)
    tau_jj = v.period_matrix().tau[j - 1, j - 1]
    phase = np.exp(2j * np.pi * (v.eval_v(j, y) - v.eval_v(j, z)) - 1j * np.pi * tau_jj)
    base = ev.omega(z, y)
    return abs(lhs - phase * sign * ev.sqrt_dtheta(j, z) * base) / abs(base)


@pytest.mark.parametrize("d", [ANNULUS, TRIPLY, FOUR], ids=["annulus", "triply", "four"])
def test_sqrt_dtheta_takes_the_root_of_the_shift_identity(d):
    # a fresh evaluator, with nothing calibrated: the fixed root -r/(1 - conj(q) z)
    # satisfies the identity on every circle, and the other root misses by O(1)
    v = integrals_first_kind(solve_harmonic_measures(d))
    ev = PrimeEvaluator(d, max_word_length=5)
    for j in range(1, d.g + 1):
        for z, y in ((0.9, 0.4j), (0.2 + 0.6j, -0.3 - 0.2j)):
            assert _shift_residual(ev, v, j, z, y) < 1e-5
            assert _shift_residual(ev, v, j, z, y, sign=-1.0) > 0.1
            assert ev.functional_equation_residual(z, y, j, v) == _shift_residual(ev, v, j, z, y)
    z = np.array([0.9, 0.2 + 0.6j])
    ref = [ev.sqrt_dtheta(1, complex(x)) for x in z]
    assert np.allclose(ev.sqrt_dtheta(1, z), ref, rtol=1e-15, atol=0)


def test_half_set_choice_does_not_matter(triply_tools):
    ev_o = PrimeEvaluator(triply_tools.domain, max_word_length=4)
    mirrored = ~ev_o.enumeration.half_set_mask
    mirrored[0] = False
    ev_m = copy.copy(ev_o)
    ev_m._half = ev_o.mobius_table[:, mirrored]
    z, y = 0.3 + 0.2j, -0.4j
    a, b = ev_o.omega(z, y), ev_m.omega(z, y)
    assert abs(a - b) / abs(a) < 1e-10


def test_singular_guard():
    # the fixed points of the annulus group are 0 and infinity; asking for
    # omega at a y whose orbit degenerates trips the guard
    ev = PrimeEvaluator(CircularDomain((Circle(0j, 0.25),)), max_word_length=4)
    with pytest.raises(SingularEvaluationError):
        ev.omega(0.5, 1e-12)


def test_log_space_product_path():
    # force the log-space accumulation branch and compare against the
    # direct product on a short truncation of the same factors
    ev = PrimeEvaluator(CircularDomain((Circle(0j, 0.25),)), max_word_length=8)
    z, y = 0.7, 0.4
    direct = ev.omega(z, y)
    import schottky.prime as prime_mod

    old = prime_mod._LOG_SPACE_THRESHOLD
    prime_mod._LOG_SPACE_THRESHOLD = 1
    try:
        logged = ev.omega(z, y)
    finally:
        prime_mod._LOG_SPACE_THRESHOLD = old
    assert logged == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("length", [999, 1000, 1001, 2500])
def test_blocked_product_equals_log_space_product(length):
    # plain within blocks of 1000 factors, log space across blocks: the
    # same product as exp(sum(log ...)) over every single factor
    rng = np.random.default_rng(length)
    factors = np.exp(1e-2 * (rng.standard_normal((length, 5))
                             + 1j * rng.standard_normal((length, 5))))
    factors[:, 4] *= -1  # every principal log on the branch cut side
    logged = np.exp(np.sum(np.log(factors), axis=0))
    blocks = [np.prod(factors[i:i + 1000], axis=0) for i in range(0, length, 1000)]
    assert np.max(np.abs(_combine(blocks) / logged - 1)) < 1e-12


def _theta_table(ev, z):
    """Images of the points under every half-set map, shape
    (half_set_size, len(z))."""
    return _images(ev._half, slice(None), np.atleast_1d(np.asarray(z, dtype=complex))).T


def test_ratio_product_matches_per_factor_formula(triply_tools, monkeypatch):
    # the fused, tiled pass against the ratios written out factor by factor
    # over the whole table and multiplied in log space; 100 words per tile
    # gives eight word tiles, and 100 points give four point tiles
    import schottky.prime as prime_mod

    monkeypatch.setattr(prime_mod, "_LOG_SPACE_THRESHOLD", 100)
    ev = triply_tools.ev
    z = interior_points(ev.domain, 100, seed=31)
    y1 = np.array([0.1 + 0.55j, -0.3 - 0.2j, 0.3 - 0.2j])
    y2 = 1 / y1.conj()
    th_z = _theta_table(ev, z)
    prefactor, logs = np.ones(len(z), dtype=complex), np.zeros(len(z), dtype=complex)
    for a, b in zip(y1, y2):
        ta, tb = _theta_table(ev, a)[:, 0], _theta_table(ev, b)[:, 0]
        factors = ((z - ta[:, None]) * (a - th_z) * (b - tb)[:, None]
                   / ((z - tb[:, None]) * (b - th_z) * (a - ta)[:, None]))
        prefactor *= (z - a) / (z - b)
        logs += np.log(factors).sum(axis=0)
    expected = prefactor * np.exp(logs)
    ratios = RatioProduct(ev, y1, y2)
    assert np.max(np.abs(ratios(z) / expected - 1)) < 1e-12


def test_ratio_product_limit_pair(triply_tools, monkeypatch):
    # a pair (y1, INFINITY) mixed with a finite pair, against its factors
    # written out (leading z - y1, per word (z - theta(y1)) (y1 - theta(z))
    # / [(y1 - theta(y1)) (z - a/c)]) over eight word tiles, and against
    # -Y omega(z, y1) / omega(z, Y) at a large finite Y
    import schottky.prime as prime_mod

    monkeypatch.setattr(prime_mod, "_LOG_SPACE_THRESHOLD", 100)
    ev = triply_tools.ev
    z = interior_points(ev.domain, 40, seed=32)
    p, y = 0.2 - 0.1j, 0.1 + 0.55j
    a, _, c, _ = ev._half
    th_z, tp = _theta_table(ev, z), _theta_table(ev, p)[:, 0]
    factors = (z - tp[:, None]) * (p - th_z) / ((p - tp)[:, None] * (z - (a / c)[:, None]))
    finite = RatioProduct(ev, [y], [1 / y.conjugate()])(z)
    expected = finite * (z - p) * np.exp(np.log(factors).sum(axis=0))
    limit = RatioProduct(ev, [y, p], [1 / y.conjugate(), INFINITY])(z)
    assert np.max(np.abs(limit / expected - 1)) < 1e-12
    big = 1e7 * (1 + 1j)
    near = -big * RatioProduct(ev, [p], [big])(z)
    assert np.max(np.abs(near / RatioProduct(ev, [p], [INFINITY])(z) - 1)) < 1e-6


def test_ratio_product_refuses_a_limit_pair_when_a_word_fixes_infinity(annulus_tools):
    # every word of the centred annulus group fixes 0 and infinity (c = 0)
    with pytest.raises(SingularEvaluationError):
        RatioProduct(annulus_tools.ev, [0.5], [INFINITY])


def test_omega_memory_is_flat_in_the_word_count(triply_tools):
    # 6560 half-set words: a (words x points) table of 1000 points would
    # hold 105 MB per temporary; the tiled pass holds a few 512 KB tiles
    import tracemalloc

    ev = PrimeEvaluator(triply_tools.domain, max_word_length=8)
    z = interior_points(ev.domain, 1000, seed=41)
    tracemalloc.start()
    try:
        vals = ev.omega(z, 0.1 + 0.3j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert np.all(np.isfinite(vals))
