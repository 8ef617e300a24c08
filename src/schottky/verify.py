"""Acceptance suites: every headline capability checked at a pinned
tolerance, reusable from the CLI (`schottky verify <suite>`) and the tests.

Suites:
  disk     -- exact degenerations on the unit disk (g = 0)
  annulus  -- closed-form and two-sided-product oracles on the annulus
  triply   -- cross-formula consistency on a 3-connected domain
  witness  -- the disconnected-ball reproduction (soft: reports diagnostics
              when the desk-scale family does not realize the witness)
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .distance import (
    DistanceOptions,
    ball_raster,
    disconnection_thresholds,
    find_disconnected_ball,
    mobius_distance,
    wang_yin_eval,
)
from .domain import Circle, CircularDomain
from .harmonic import (
    GreenFunction,
    har_relation_residual,
    integrals_first_kind,
    solve_harmonic_measures,
)
from .prime import PrimeEvaluator
from .propermaps import (
    blaschke_eval,
    boundary_degree,
    boundary_modulus_deviation,
    build_proper_map,
    build_proper_map_alt,
    complete_zeros,
    from_boundary_data,
    lift_blaschke,
    make_zero_config,
)
from .slitmaps import eta, eta_j_relation_residual, eta_via_mobius_product

__all__ = ["CheckResult", "run_suite", "print_report", "SUITES"]


@dataclass
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "detail": self.detail,
        }


def _check(name, measured, tol, detail="") -> CheckResult:
    return CheckResult(name, float(measured), float(tol), bool(measured < tol), detail)


def _check_true(name, flag, detail="") -> CheckResult:
    return CheckResult(name, 0.0 if flag else 1.0, 0.5, bool(flag), detail)


def _interior_points(domain, count, seed, margin=0.03):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if domain.contains(z, margin=margin):
            out.append(z)
    return np.array(out)


# -- disk suite (criterion 1) --------------------------------------------------


def suite_disk() -> list[CheckResult]:
    disk = CircularDomain()
    ev = PrimeEvaluator(disk)
    model = solve_harmonic_measures(disk)
    out = []

    def m(z, p):
        return (z - p) / (1 - np.conj(p) * z)

    pts = _interior_points(disk, 20, seed=11)
    worst = 0.0
    for p in (0.2, -0.55, 0.8):  # real p: eta reduces to the raw Blaschke factor
        worst = max(worst, float(np.max(np.abs(eta(ev, pts, p) - m(pts, p)))))
    out.append(_check("disk: eta equals the Blaschke factor (real p)", worst, 1e-12))

    p = 0.3 + 0.4j  # complex p: normalized at 1
    worst = float(np.max(np.abs(eta(ev, pts, p) - m(pts, p) / m(1.0, p))))
    out.append(_check("disk: eta equals m(z,p)/m(1,p) (complex p)", worst, 1e-12))

    zeros = [0.2, -0.3j]
    config = make_zero_config(model, zeros, (2,))
    f = build_proper_map(ev, None, config)
    worst = float(np.max(np.abs(f(pts) - blaschke_eval(zeros, pts))))
    out.append(_check("disk: proper map is the normalized Blaschke product", worst, 1e-12))
    out.append(_check("disk: boundary modulus exact", boundary_modulus_deviation(f), 1e-12))

    res = mobius_distance(model, ev, None, 0.2, 0.5)
    out.append(_check("disk: c*(0.2, 0.5) = 1/3", abs(res.value - 1 / 3), 1e-12))
    res = mobius_distance(model, ev, None, 0.0, 0.5)
    out.append(_check("disk: c*(0, 0.5) = 1/2 (Schwarz-Pick)", abs(res.value - 0.5), 1e-12))
    return out


# -- annulus suite (criterion 2, plus 4/5/6 instances) ---------------------------


def _annulus_toolchain(r=0.25, order=24, length=8):
    dom = CircularDomain((Circle(0j, r),))
    model = solve_harmonic_measures(dom, order=order)
    v = integrals_first_kind(model)
    ev = PrimeEvaluator(dom, max_word_length=length)
    return dom, model, v, ev


def suite_annulus() -> list[CheckResult]:
    r = 0.25
    dom, model, v, ev = _annulus_toolchain(r)
    out = []

    pts = _interior_points(dom, 40, seed=5)
    worst = float(np.max(np.abs(model.eval_u(1, pts) - np.log(np.abs(pts)) / np.log(r))))
    out.append(_check("annulus: harmonic measure matches log|z|/log r", worst, 1e-8))

    tau = v.period_matrix().tau[0, 0]
    out.append(_check(
        "annulus: tau_11 matches log(r^2)/(2 pi i)",
        abs(tau - np.log(r**2) / (2j * np.pi)), 1e-7,
        detail=f"tau_11 = {tau:.10g}",
    ))

    config = make_zero_config(model, [0.5, -0.5], (1, 1))
    f = build_proper_map(ev, v, config)
    wy = wang_yin_eval(r, [0.5, -0.5], 1, pts)
    ratio = f(pts) / wy
    rot = ratio.mean()
    worst = float(np.max(np.abs(ratio - rot)))
    out.append(_check("annulus: degree-2 map matches the two-sided product oracle",
                      worst, 1e-7))
    out.append(_check_true(
        "annulus: boundary windings (1, 1)",
        boundary_degree(f, 0) == 1 and boundary_degree(f, 1) == 1,
    ))
    out.extend(_boundary_behavior_checks(dom, model, v, ev, seed=23, count=10,
                                         label="annulus"))
    out.extend(_boundary_data_checks_annulus(dom, model, v, ev))
    return out


def random_admissible_config(dom, model, rng, max_extra=1):
    """A random admissible zero configuration: random boundary degree close
    to the minimum, random interior fixed zeros, and one completion point
    seeded on a random normal of each inner circle (where the measure mass
    must come from, so the chart lines actually cross the solution)."""
    g = dom.g
    nu = [1] * (g + 1)
    if max_extra:
        nu[int(rng.integers(0, g + 1))] += int(rng.integers(0, max_extra + 1))
    n = sum(nu)
    fixed = []
    while len(fixed) < n - g:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if dom.contains(z, margin=0.15):
            fixed.append(z)
    guess = []
    for c in dom.inner_circles:
        ang = rng.uniform(0, 2 * np.pi)
        guess.append(c.q + (c.r + 0.3 * dom.boundary_distance(c.q + c.r)) * np.exp(1j * ang))
    zeros = fixed + complete_zeros(model, fixed, nu, guess)
    return make_zero_config(model, zeros, tuple(nu))


def _boundary_behavior_checks(dom, model, v, ev, seed, count, label, green=None):
    """Criterion 4: random admissible configurations have unimodular
    boundary values and the prescribed windings.  With a Green's function,
    also the cross-route identity |f| = exp(-sum_k G(., p_k)) between the
    product-built maps and the harmonic series basis."""
    rng = np.random.default_rng(seed)
    out = []
    pts = _interior_points(dom, 20, seed=seed)
    worst_dev = 0.0
    worst_green = 0.0
    windings_ok = True
    built = 0
    attempts = 0
    while built < count and attempts < 3 * count:
        attempts += 1
        try:
            config = random_admissible_config(dom, model, rng)
            f = build_proper_map(ev, v, config)
        except Exception:
            continue
        built += 1
        worst_dev = max(worst_dev, boundary_modulus_deviation(f, 256))
        if green is not None:
            via_green = np.exp(-green(pts, f.zeros).sum(axis=1))
            worst_green = max(worst_green, float(np.max(np.abs(np.abs(f(pts)) - via_green))))
        degs = [boundary_degree(f, l) for l in range(dom.g + 1)]
        windings_ok = windings_ok and degs == list(config.nu)
    out.append(_check_true(f"{label}: built {count} random admissible maps",
                           built >= count, detail=f"{built}/{attempts} attempts"))
    out.append(_check(f"{label}: random admissible maps unimodular on the boundary",
                      worst_dev, 1e-5))
    out.append(_check_true(f"{label}: windings equal boundary degrees", windings_ok))
    if green is not None:
        out.append(_check(f"{label}: |f| of random admissible maps equals exp(-sum of Green's functions)",
                          worst_green, 1e-7, detail=f"L={ev.max_word_length}"))
    return out


def _boundary_data_checks_annulus(dom, model, v, ev):
    out = []
    f = from_boundary_data(model, ev, v, 0.5j, [(0, 1.0), (1, 0.25)])
    res = f.diagnostics["prescribed_point_residual"]
    out.append(_check("annulus: boundary-data map hits prescribed points", res, 1e-4))
    out.append(_check("annulus: boundary-data map vanishes at p", abs(f(0.5j)), 1e-8))
    f2 = from_boundary_data(model, ev, v, 0.5j, [(1, 0.25), (0, 1.0)])
    pts = _interior_points(dom, 20, seed=8)
    out.append(_check("annulus: permuted boundary data gives the same map",
                      float(np.max(np.abs(f(pts) - f2(pts)))), 1e-6))
    return out


# -- triply connected suite (criteria 3..6) --------------------------------------


def _triply_toolchain(order=24, length=6):
    dom = CircularDomain((Circle(-0.5 + 0j, 0.1), Circle(0.5 + 0j, 0.1)))
    model = solve_harmonic_measures(dom, order=order)
    v = integrals_first_kind(model)
    ev = PrimeEvaluator(dom, max_word_length=length)
    return dom, model, v, ev


def suite_triply() -> list[CheckResult]:
    dom, model, v, ev = _triply_toolchain()
    out = []
    pts = _interior_points(dom, 30, seed=17)

    # an admissible nu=(1,1,1) configuration via Newton completion
    fixed = [0.1 + 0.55j]
    zeros = fixed + complete_zeros(model, fixed, (1, 1, 1), [-0.3 - 0.2j, 0.3 - 0.2j])
    config = make_zero_config(model, zeros, (1, 1, 1))
    f13 = build_proper_map(ev, v, config)

    indexed = list(zip(_assign_circles(dom, zeros), zeros))
    f14 = build_proper_map_alt(ev, indexed)
    ratio = f13(pts) / f14(pts)
    out.append(_check("triply: product-form and slit-form builds agree up to rotation",
                      float(np.std(ratio)), 1e-6,
                      detail=f"mean ratio {np.mean(ratio):.6f}"))

    worst = 0.0
    for z, p in zip(pts[:10], pts[10:20]):
        mobius = eta_via_mobius_product(dom, ev.enumeration, z, p, table=ev.mobius_table)
        worst = max(worst, abs(mobius - eta(ev, z, p)))
    out.append(_check("triply: group-averaged Blaschke product equals the omega ratio",
                      worst, 1e-6))

    worst = max(
        eta_j_relation_residual(ev, v, j, z, p)
        for j in (1, 2)
        for z, p in zip(pts[:5], pts[5:10])
    )
    out.append(_check("triply: slit-family exchange identity", worst, 1e-7))

    # shift identity at the pinned truncation level; the shifted argument
    # lands deep inside the moved circle's disk, so the probes stay a
    # quarter-radius clear of the circles where the product is converged
    ev5 = PrimeEvaluator(dom, max_word_length=5)
    deep = _interior_points(dom, 10, seed=17, margin=0.25)
    ys = _interior_points(dom, 10, seed=3, margin=0.1)
    worst = max(
        ev5.functional_equation_residual(z, y, j, v)
        for j in (1, 2)
        for z, y in zip(deep, ys)
    )
    out.append(_check("triply: prime-function shift identity (L=5)", worst, 1e-6))

    tau = v.period_matrix()
    worst = har_relation_residual(model, v, tau, pts[:10])
    out.append(_check("triply: measure/first-kind-integral relation", worst, 1e-6))

    out.extend(_boundary_behavior_checks(dom, model, v, ev, seed=31, count=10,
                                         label="triply", green=GreenFunction(model)))
    out.extend(_boundary_data_checks_triply(dom, model, v, ev))
    out.extend(_semigroup_checks(dom, model, v, ev))
    return out


def _assign_circles(dom, zeros):
    """Assign each zero to its nearest boundary circle, one each (a valid
    indexing for the slit-form build when the group sizes match nu)."""
    remaining = list(range(dom.g + 1))
    labels = []
    for z in zeros:
        dists = []
        for l in remaining:
            c = dom.circle(l)
            d = abs(1 - abs(z)) if l == 0 else abs(abs(z - c.q) - c.r)
            dists.append((d, l))
        _, best = min(dists)
        labels.append(best)
        remaining.remove(best)
    return labels


def _boundary_data_checks_triply(dom, model, v, ev):
    out = []
    p = 0.1 + 0.55j
    points = [(0, complex(np.exp(0.4j))), (1, -0.5 + 0.1j), (2, 0.5 + 0.1j)]
    f = from_boundary_data(model, ev, v, p, points)
    res = f.diagnostics["prescribed_point_residual"]
    out.append(_check("triply: boundary-data map hits prescribed points", res, 1e-4))
    out.append(_check("triply: boundary-data map vanishes at p", abs(f(p)), 1e-8))
    f2 = from_boundary_data(model, ev, v, p, [points[2], points[0], points[1]])
    pts = _interior_points(dom, 20, seed=97)
    out.append(_check("triply: permuted boundary data gives the same map",
                      float(np.max(np.abs(f(pts) - f2(pts)))), 1e-6))
    return out


def _semigroup_checks(dom, model, v, ev):
    out = []
    pts = _interior_points(dom, 25, seed=71)

    fixed1 = [0.1 + 0.55j]
    z1 = fixed1 + complete_zeros(model, fixed1, (1, 1, 1), [-0.3 - 0.2j, 0.3 - 0.2j])
    fixed2 = [-0.1 - 0.5j]
    z2 = fixed2 + complete_zeros(model, fixed2, (1, 1, 1), [-0.25 + 0.25j, 0.3 + 0.2j])
    f = build_proper_map(ev, v, make_zero_config(model, z1, (1, 1, 1)))
    g = build_proper_map(ev, v, make_zero_config(model, z2, (1, 1, 1)))

    # disk-side image of the product = product of disk-side images
    lhs = blaschke_eval(z1 + z2, pts)
    rhs = blaschke_eval(z1, pts) * blaschke_eval(z2, pts)
    out.append(_check("semigroup: disk images multiply (zero multiset union)",
                      float(np.max(np.abs(lhs - rhs))), 1e-8))

    product = lambda z: f(z) * g(z)
    degs = [boundary_degree(product, l, domain=dom) for l in range(dom.g + 1)]
    out.append(_check_true(
        "semigroup: product windings add",
        degs == [a + b for a, b in zip(f.nu, g.nu)],
        detail=f"product degrees {degs}",
    ))
    dev = boundary_modulus_deviation(product, 256, domain=dom)
    out.append(_check("semigroup: product stays unimodular on the boundary", dev, 2e-5))

    h_zeros = [0.0, 0.3]  # degree-2 Blaschke factor of the disk
    comp = lambda z: blaschke_eval(h_zeros, f(z))
    degs = [boundary_degree(comp, l, domain=dom) for l in range(dom.g + 1)]
    out.append(_check_true(
        "semigroup: composition windings multiply",
        degs == [2 * x for x in f.nu],
        detail=f"composition degrees {degs}",
    ))

    flift = lift_blaschke(ev, v, z1)
    out.append(_check("semigroup: Blaschke lift reproduces the proper map",
                      float(np.max(np.abs(flift(pts) - f(pts)))), 1e-6))
    return out


# -- witness suite (criterion 7, soft) --------------------------------------------


def suite_witness() -> list[CheckResult]:
    out = []

    # negative control first: no disconnection on the annulus at any threshold
    dom, model, v, ev = _annulus_toolchain(length=5)
    raster = ball_raster(model, ev, v, 0.5, 0.6, resolution=120,
                         opts=DistanceOptions(refine_cap=300))
    hit = disconnection_thresholds(raster, 0.5, -0.5,
                                   np.linspace(0.15, 0.95, 30),
                                   require_compact=False)
    out.append(_check_true("witness: annulus negative control (no disconnection)",
                           hit is None))

    full = os.environ.get("SCHOTTKY_WITNESS_FULL", "") == "1"
    radii = (0.1, 0.05, 0.02) if full else (0.05,)
    depths = (0.05, 0.02) if full else (0.02,)
    witness = find_disconnected_ball(
        shrink_radii=radii, p_depths=depths, resolution=300,
        opts=DistanceOptions(refine_cap=1500, refine_maxiter=30),
    )
    detail_parts = []
    for attempt in witness.diagnostics.get("attempts", []):
        detail_parts.append(
            "r=%g depth=%g beta1=%.3g beta2=%.3g product=%.3g c*=%.5g" % (
                attempt["shrink_radius"], attempt["p_depth"],
                attempt["beta1_proxy"], attempt["beta2_proxy"],
                attempt["beta_product"], attempt["c_star_zeta"],
            )
        )
    detail = "; ".join(detail_parts)
    attempts = witness.diagnostics.get("attempts", [])
    out.append(_check_true(
        "witness: every scan window lies above c*(p_tilde, zeta), or is empty and skipped",
        bool(attempts) and all(
            a["scan_window"][0] > a["c_star_zeta"]
            and (a.get("scan") == "empty") == (a["scan_window"][0] >= a["scan_window"][1])
            for a in attempts),
        detail="; ".join("window=[%.6g, %.6g]%s" % (*a["scan_window"],
                                                   " empty" if a.get("scan") else "")
                         for a in attempts),
    ))
    if witness.found:
        out.append(_check_true(
            "witness: disconnected ball found",
            witness.component_count >= 2 and witness.r2 < witness.r1,
            detail=f"r1={witness.r1:.5g} r2={witness.r2:.5g}; {detail}",
        ))
        out.append(_check_true(
            "witness: closure gap certificate",
            witness.diagnostics["closure_gap"] > witness.diagnostics["pixel_diagonal"],
        ))
    else:
        out.append(CheckResult(
            "witness: disconnected ball (soft; diagnostics reported)",
            1.0, 0.5, False,
            detail="not found at desk scale; " + detail,
        ))
    return out


SUITES = {
    "disk": suite_disk,
    "annulus": suite_annulus,
    "triply": suite_triply,
    "witness": suite_witness,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name}")
    return SUITES[name]()


def print_report(results: list[CheckResult]) -> int:
    """One line per check; returns the number of failures."""
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name}: measured {r.measured:.3e} vs tol {r.tolerance:.1e}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
        failed += 0 if r.passed else 1
    return failed
