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
from .errors import AdmissibilityError, SchottkyError
from .harmonic import (
    GreenFunction,
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
    make_zero_config,
)
from .slitmaps import eta, eta_j_relation_residual

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
    v = integrals_first_kind(model)  # empty on the disk
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
    f = build_proper_map(ev, v, config)
    worst = float(np.max(np.abs(f(pts) - blaschke_eval(zeros, pts))))
    out.append(_check("disk: proper map is the normalized Blaschke product", worst, 1e-12))
    out.append(_check("disk: boundary modulus exact", boundary_modulus_deviation(f), 1e-12))

    res = mobius_distance(model, ev, v, 0.2, 0.5)
    out.append(_check("disk: c*(0.2, 0.5) = 1/3", abs(res.value - 1 / 3), 1e-12))
    res = mobius_distance(model, ev, v, 0.0, 0.5)
    out.append(_check("disk: c*(0, 0.5) = 1/2 (Schwarz-Pick)", abs(res.value - 0.5), 1e-12))
    return out


# -- annulus suite (criterion 2, plus 4/5/6 instances) ---------------------------


def suite_annulus() -> list[CheckResult]:
    r = 0.25
    dom = CircularDomain((Circle(0j, r),))
    model = solve_harmonic_measures(dom)
    v = integrals_first_kind(model)
    ev = PrimeEvaluator(dom, max_word_length=8)
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
    out.extend(_boundary_behavior_checks(v, ev, seed=23, count=10, label="annulus"))
    points = [(0, 1.0), (1, 0.25)]
    out.extend(_boundary_data_checks(v, ev, "annulus", 0.5j, points, points[::-1], seed=8))
    return out


_MAX_EXTRA = 1  # the most a random configuration adds to one boundary degree


def random_admissible_config(model, rng):
    """A random admissible zero configuration: random boundary degree close
    to the minimum (at most ``_MAX_EXTRA`` above it, on one circle), random
    interior fixed zeros, and one completion point seeded on a random normal
    of each inner circle (where the measure mass must come from, so the
    chart lines actually cross the solution).  After the draws, a chart
    target nu_j - sum u_j(fixed) outside (0, 1) raises AdmissibilityError:
    at or below 0 it is out of reach (the measures are positive), and no
    draw of the suites with a target at or above 1 has completed."""
    dom = model.domain
    g = dom.g
    nu = [1] * (g + 1)
    nu[int(rng.integers(0, g + 1))] += int(rng.integers(0, _MAX_EXTRA + 1))
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
    target = np.asarray(nu[1:], dtype=float) - model.eval_u_all(np.asarray(fixed)).sum(axis=0)
    if np.any(target <= 0) or np.any(target >= 1):
        raise AdmissibilityError(f"chart targets {target} lie outside (0, 1)")
    zeros = fixed + complete_zeros(model, fixed, nu, guess)
    return make_zero_config(model, zeros, tuple(nu))


def _boundary_behavior_checks(v, ev, seed, count, label, green=None):
    """Criterion 4: random admissible configurations have unimodular
    boundary values and the prescribed windings.  With a Green's function,
    also the cross-route identity |f| = exp(-sum_k G(., p_k)) between the
    product-built maps and the harmonic series basis."""
    model, dom = v.model, v.domain
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
            config = random_admissible_config(model, rng)
            f = build_proper_map(ev, v, config)
        except SchottkyError:
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


def _boundary_data_checks(v, ev, label, p, points, permuted, seed):
    """Criterion 5: the boundary-data map through ``points`` vanishes at p
    and hits its points, and the same data in the ``permuted`` order gives
    the same map at 20 interior points drawn with ``seed``."""
    out = []
    f = from_boundary_data(ev, v, p, points)
    res = f.diagnostics["prescribed_point_residual"]
    out.append(_check(f"{label}: boundary-data map hits prescribed points", res, 1e-4))
    out.append(_check(f"{label}: boundary-data map vanishes at p", abs(f(p)), 1e-8))
    f2 = from_boundary_data(ev, v, p, permuted)
    pts = _interior_points(v.domain, 20, seed=seed)
    out.append(_check(f"{label}: permuted boundary data gives the same map",
                      float(np.max(np.abs(f(pts) - f2(pts)))), 1e-6))
    return out


# -- triply connected suite (criteria 3..6) --------------------------------------


def suite_triply() -> list[CheckResult]:
    dom = CircularDomain((Circle(-0.5 + 0j, 0.1), Circle(0.5 + 0j, 0.1)))
    model = solve_harmonic_measures(dom)
    v = integrals_first_kind(model)
    ev = PrimeEvaluator(dom, max_word_length=6)
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

    # the truncation against the next word length: the map and eta(., p)
    # at the probes (1.4e-11 and 1.2e-10)
    ev7 = PrimeEvaluator(dom, max_word_length=7)
    f7 = build_proper_map(ev7, v, config, check_boundary=False)
    map_gap = float(np.max(np.abs(f13(pts) - f7(pts))))
    eta_gap = max(abs(eta(ev, z, p) - eta(ev7, z, p)) for z, p in zip(pts[:10], pts[10:20]))
    out.append(_check("triply: L=6 map and eta agree with L=7", max(map_gap, eta_gap), 1e-8,
                      detail=f"map {map_gap:.2e}, eta {eta_gap:.2e}"))

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

    out.append(_check("triply: harmonic-measure boundary misfit", model.residual, 1e-6))

    out.extend(_boundary_behavior_checks(v, ev, seed=31, count=10, label="triply",
                                         green=GreenFunction(model)))
    points = [(0, complex(np.exp(0.4j))), (1, -0.5 + 0.1j), (2, 0.5 + 0.1j)]
    out.extend(_boundary_data_checks(v, ev, "triply", 0.1 + 0.55j, points,
                                     [points[2], points[0], points[1]], seed=97))
    out.extend(_semigroup_checks(v, ev))
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


def _semigroup_checks(v, ev):
    model, dom = v.model, v.domain
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
    return out


# -- witness suite (criterion 7, soft) --------------------------------------------


def suite_witness() -> list[CheckResult]:
    out = []

    # negative control first: no disconnection on the annulus at any threshold
    model = solve_harmonic_measures(CircularDomain((Circle(0j, 0.25),)))
    raster = ball_raster(model, None, None, 0.5, 0.6, resolution=120,
                         opts=DistanceOptions(refine_cap=300))
    hit = disconnection_thresholds(raster, 0.5, -0.5,
                                   np.linspace(0.15, 0.95, 30),
                                   require_compact=False)
    out.append(_check_true("witness: annulus negative control (no disconnection)",
                           hit is None))

    # one attempt of the family; `schottky find-witness` runs the full schedule
    witness = find_disconnected_ball(
        shrink_radii=(0.05,), p_depths=(0.02,), resolution=300,
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
