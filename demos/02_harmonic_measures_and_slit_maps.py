"""Walkthrough: harmonic measures, first-kind integrals, and slit maps.

The least-squares series model resolves each harmonic measure to near
machine precision; its analytic completions produce the first-kind
integrals, the period matrix, and the circularly-slit-disk maps that act as
generalized Blaschke factors.
"""

import numpy as np

from schottky import (
    Circle,
    CircularDomain,
    PrimeEvaluator,
    har_relation_residual,
    integrals_first_kind,
    solve_harmonic_measures,
)
from schottky.slitmaps import eta, eta_l, slit_radius

annulus = CircularDomain((Circle(0j, 0.25),))
model = solve_harmonic_measures(annulus, order=24)
print(f"annulus boundary misfit: {model.residual:.2e}")
print(f"u_1(0.5) = {model.eval_u(1, 0.5):.12f}   (log|z|/log r gives 0.5)")

v = integrals_first_kind(model)
print(f"v_1(0.25) = {v.eval_v(1, 0.25):.10g}   (log z/(2 pi i))")
pm = v.period_matrix()
print(f"tau_11 = {pm.tau[0, 0]:.10g}   (log r^2/(2 pi i) = 0.4412712i)")
print(f"har relation residual at z=0.5: "
      f"{har_relation_residual(v, [0.5]):.2e}")

# 3-connected domain: tau = 2C is read off the fit, purely imaginary by
# construction; its asymmetry is the reciprocity of the fitted fluxes.
triply = CircularDomain((Circle(-0.5 + 0j, 0.1), Circle(0.5 + 0j, 0.1)))
m3 = solve_harmonic_measures(triply, order=24)
v3 = integrals_first_kind(m3)
pm3 = v3.period_matrix()
print("\ntriply connected period matrix (purely imaginary, symmetric):")
print(np.array_str(pm3.tau, precision=6))
print(f"asymmetry {pm3.asymmetry:.1e}")

# Slit maps: unit modulus on the target circle, constant modulus on others.
ev = PrimeEvaluator(triply, max_word_length=6)
p = -0.15 + 0.1j
for l in range(3):
    w = triply.circle(l).samples(64)
    mods = np.abs(eta(ev, w, p))
    print(f"|eta| on circle {l}: mean {mods.mean():.6f}, spread {np.ptp(mods):.1e}")

print(f"eta(1, p) = {eta(ev, 1.0, p):.10g}   (normalized)")
print(f"eta(p, p) = {abs(eta(ev, p, p)):.1e}     (zero at the base point)")

# eta_1 blows its own circle up to the unit circle instead.
w1 = triply.circle(1).samples(64)
print(f"| |eta_1| - 1 | on circle 1: {np.max(np.abs(np.abs(eta_l(ev, 1, w1, p)) - 1)):.1e}")
print(f"slit radius of circle 2 under eta_1: {slit_radius(ev, 1, 2, p):.6f}")
