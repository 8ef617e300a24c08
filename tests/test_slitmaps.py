import numpy as np
import pytest

from conftest import counting_reduce, interior_points
from schottky.domain import Circle, CircularDomain
from schottky.errors import DomainError, TruncationQualityError
from schottky.prime import PrimeEvaluator
from schottky.slitmaps import (
    eta,
    eta_j_relation_residual,
    eta_l,
    slit_radius,
)


def blaschke(z, p):
    return (z - p) / (1 - np.conj(p) * z)


def test_disk_eta_is_blaschke_factor(disk_tools):
    assert eta(disk_tools.ev, 0.5, 0.2) == pytest.approx(1 / 3)
    pts = interior_points(disk_tools.domain, 15, seed=2)
    p = 0.3 - 0.25j
    expected = blaschke(pts, p) / blaschke(1.0, p)
    assert np.max(np.abs(eta(disk_tools.ev, pts, p) - expected)) < 1e-14


def test_eta_vanishes_at_base_point(annulus_tools):
    for p in (0.5, -0.4 + 0.2j):
        assert abs(eta(annulus_tools.ev, p, p)) < 1e-14


def test_eta_normalized_at_one(annulus_tools, triply_tools):
    for tools, p in ((annulus_tools, 0.45), (triply_tools, -0.2 + 0.3j)):
        assert eta(tools.ev, 1.0, p) == pytest.approx(1.0, abs=1e-10)


def test_eta_unimodular_on_unit_circle(annulus_tools):
    w = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
    vals = np.abs(eta(annulus_tools.ev, w, 0.5))
    assert np.max(np.abs(vals - 1)) < 1e-8


def test_eta_constant_modulus_on_every_circle(triply_tools):
    p = -0.15 + 0.1j
    for l in range(3):
        w = triply_tools.domain.circle(l).samples(64)
        vals = np.abs(eta(triply_tools.ev, w, p))
        assert vals.std() < 1e-6


def test_eta_interior_maximum_principle(annulus_tools):
    pts = interior_points(annulus_tools.domain, 50, seed=7)
    assert np.max(np.abs(eta(annulus_tools.ev, pts, 0.5))) < 1.0
    assert np.max(np.abs(eta_l(annulus_tools.ev, 1, pts, 0.6))) < 1.0


def test_eta_injectivity_spot_check(annulus_tools):
    pts = interior_points(annulus_tools.domain, 30, seed=19)
    vals = eta(annulus_tools.ev, pts, 0.45)
    diffs = np.abs(vals[:, None] - vals[None, :])[np.triu_indices(30, 1)]
    assert diffs.min() > 1e-8


def test_eta_center_zero(disk_tools, triply_tools):
    assert eta(disk_tools.ev, 0.37, 0.0) == pytest.approx(0.37)
    # p = 0 lies in the triply domain; limit formula vs small-p evaluation
    pts = interior_points(triply_tools.domain, 10, seed=23)
    lim = eta(triply_tools.ev, pts, 0.0)
    tiny = eta(triply_tools.ev, pts, 1e-9 + 0j)
    assert np.max(np.abs(lim - tiny)) < 1e-7


@pytest.mark.parametrize("case", ["triply", "g3"])
def test_eta_center_matches_group_averaged_blaschke(case, triply_tools, g3_tools):
    # eta(., 0) through the limit pair (0, infinity) against the product of
    # z -> theta(z) / theta(1) over the whole ball
    tools = triply_tools if case == "triply" else g3_tools
    pts = interior_points(tools.domain, 200, seed=29)
    ref = tools.ev.ball_blaschke([0j], pts)
    assert np.max(np.abs(eta(tools.ev, pts, 0.0) - ref)) < 1e-12


def test_eta_l_zero_index_equals_eta(triply_tools):
    pts = interior_points(triply_tools.domain, 20, seed=3)
    p = -0.15 + 0.1j
    a = eta_l(triply_tools.ev, 0, pts, p)
    b = eta(triply_tools.ev, pts, p)
    assert np.max(np.abs(a - b)) < 1e-12


def test_eta_l_unimodular_on_own_circle(annulus_tools, triply_tools):
    w = annulus_tools.domain.circle(1).samples(64)
    vals = np.abs(eta_l(annulus_tools.ev, 1, w, 0.6))
    assert np.max(np.abs(vals - 1)) < 1e-7
    for l in (1, 2):
        w = triply_tools.domain.circle(l).samples(64)
        vals = np.abs(eta_l(triply_tools.ev, l, w, -0.15 + 0.1j))
        assert np.max(np.abs(vals - 1)) < 1e-7


def test_eta_l_rejects_center_zero(triply_tools):
    with pytest.raises(DomainError):
        eta_l(triply_tools.ev, 1, 0.3, 0.0)


def test_slit_radius_annulus(annulus_tools):
    rho = slit_radius(annulus_tools.ev, 0, 1, 0.5)
    assert 0 < rho < 1
    # the common modulus of eta on the inner circle (regression fixture)
    assert rho == pytest.approx(0.5, abs=1e-9)
    rho2 = slit_radius(annulus_tools.ev, 1, 0, 0.6)
    assert 0 < rho2 < 1


def test_slit_radius_errors(annulus_tools, disk_tools, monkeypatch):
    import schottky.slitmaps as slitmaps

    with pytest.raises(DomainError):
        slit_radius(annulus_tools.ev, 0, 0, 0.5)
    with pytest.raises(DomainError):
        slit_radius(disk_tools.ev, 0, 1, 0.3)  # no inner circle to image
    coarse = PrimeEvaluator(annulus_tools.domain, max_word_length=1)
    monkeypatch.setattr(slitmaps, "_SLIT_TOL", 1e-12)
    with pytest.raises(TruncationQualityError):
        slit_radius(coarse, 0, 1, 0.5)


# eta via the Moebius product: the same truncated product as eta, written
# over the whole ball as normalized disk Blaschke factors m(theta(z), p) /
# m(theta(1), p) (``ball_blaschke``); each half-set word's omega-ratio factor
# is, up to a constant, the product of the factors of theta and theta^-1


def test_eta_via_mobius_product_disk(disk_tools):
    val = disk_tools.ev.ball_blaschke([0.2], 0.5)
    assert val == pytest.approx(1 / 3)


def test_eta_via_mobius_product_annulus(annulus_tools):
    z, p = 0.7j, 0.4
    lhs = annulus_tools.ev.ball_blaschke([p], z)
    assert abs(lhs - eta(annulus_tools.ev, z, p)) < 1e-8


def test_eta_via_mobius_product_triply(triply_tools):
    ev5 = PrimeEvaluator(triply_tools.domain, max_word_length=5)
    pts = interior_points(triply_tools.domain, 20, seed=31)
    for z, p in zip(pts[:10], pts[10:]):
        lhs = ev5.ball_blaschke([complex(p)], complex(z))
        assert abs(lhs - eta(ev5, complex(z), complex(p))) < 1e-6


def test_eta_j_relation(annulus_tools, triply_tools, disk_tools):
    pts = interior_points(annulus_tools.domain, 10, seed=37)
    for z in pts:
        assert eta_j_relation_residual(annulus_tools.ev, annulus_tools.v, 1,
                                       complex(z), 0.45) < 1e-7
    assert eta_j_relation_residual(disk_tools.ev, None, 1, 0.3, 0.2) == 0.0
    pts = interior_points(triply_tools.domain, 6, seed=41)
    for z in pts[:3]:
        for j in (1, 2):
            assert eta_j_relation_residual(triply_tools.ev, triply_tools.v, j,
                                           complex(z), -0.15 + 0.1j) < 1e-7


def _four_pass_residual(ev, v, j, z, p):
    # the residual with k and the probe each from their own passes
    z0 = ev._reference_point()
    k = np.exp(-2j * np.pi * v.eval_v(j, z0)) * eta(ev, z0, p) / eta_l(ev, j, z0, p)
    lhs = np.exp(-2j * np.pi * v.eval_v(j, z)) * eta(ev, z, p)
    return abs(lhs - k * eta_l(ev, j, z, p))


@pytest.mark.parametrize("case, js", [("annulus", (1,)), ("triply", (1, 2))])
def test_eta_j_relation_matches_four_passes(case, js, request):
    tools = request.getfixturevalue(f"{case}_tools")
    pts = interior_points(tools.domain, 8, seed=43)
    for z, p in zip(pts[:4], pts[4:]):
        for j in js:
            args = (tools.ev, tools.v, j, complex(z), complex(p))
            assert abs(eta_j_relation_residual(*args) - _four_pass_residual(*args)) < 1e-15


def test_eta_j_relation_makes_one_pass_per_slit_map(triply_tools, monkeypatch):
    calls = counting_reduce(monkeypatch)
    eta_j_relation_residual(triply_tools.ev, triply_tools.v, 2, 0.1 + 0.3j, -0.15 + 0.1j)
    assert calls == [3, 3]  # eta and eta_2, each at z0, the probe and 1


def test_eta_j_relation_constant_modulus(annulus_tools):
    # |k| relates the two slit families: it must match the boundary moduli
    ev, v = annulus_tools.ev, annulus_tools.v
    p = 0.45
    z0 = 0.9
    k = np.exp(-2j * np.pi * v.eval_v(1, z0)) * eta(ev, z0, p) / eta_l(ev, 1, z0, p)
    tau = v.period_matrix().tau[0, 0]
    rho = slit_radius(ev, 0, 1, p)
    expected = np.exp(2 * np.pi * abs(tau) / 2) * rho
    assert abs(k) == pytest.approx(expected, abs=1e-6)


def test_degeneration_to_fewer_circles():
    # as the extra circle shrinks the slit map converges to the reference
    ref = CircularDomain((Circle(-0.5 + 0j, 0.15),))
    ev_ref = PrimeEvaluator(ref, max_word_length=8)
    z, p = 0.3 + 0.55j, -0.1 + 0.2j
    devs = []
    for r in (0.1, 0.05, 0.025):
        dom = CircularDomain((Circle(-0.5 + 0j, 0.15), Circle(0.4 + 0j, r)))
        ev = PrimeEvaluator(dom, max_word_length=6)
        devs.append(abs(eta(ev, z, p) - eta(ev_ref, z, p)))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-3
