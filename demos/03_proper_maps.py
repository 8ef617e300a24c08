"""Walkthrough: proper holomorphic maps onto the disk.

Three routes to the same maps: prescribe admissible zeros (two product
formulas that must agree), lift a finite Blaschke product through the
group, or prescribe the preimages of 1 on each boundary circle and let a
walk down in t pull the zeros inside.
"""

import numpy as np

from schottky import (
    Circle,
    CircularDomain,
    PrimeEvaluator,
    integrals_first_kind,
    solve_harmonic_measures,
)
from schottky.distance import wang_yin_eval
from schottky.propermaps import (
    boundary_degree,
    boundary_modulus_deviation,
    build_proper_map,
    build_proper_map_alt,
    complete_zeros,
    condition1_residual,
    from_boundary_data,
    lift_blaschke,
    make_zero_config,
)

annulus = CircularDomain((Circle(0j, 0.25),))
model = solve_harmonic_measures(annulus, order=24)
v = integrals_first_kind(model)
ev = PrimeEvaluator(annulus, max_word_length=8)

# Zeros must satisfy the harmonic-measure condition; on the annulus that is
# the product rule |p_1 p_2| = r.
print("condition residual for {0.5, -0.5}:",
      condition1_residual(model, [0.5, -0.5], (1, 1)))
print("condition residual for {0.5, -0.4}:",
      condition1_residual(model, [0.5, -0.4], (1, 1)))

# Newton completion finds the partner zero on a chart line.
partner = complete_zeros(model, [0.5], (1, 1), [-0.3])[0]
print(f"completed partner of 0.5: {partner:.6g} (|p| = {abs(partner):.6f})")

config = make_zero_config(model, [0.5, -0.5], (1, 1))
f = build_proper_map(ev, v, config)
print(f"\nf(1) = {f(1.0):.10g}, |f(0.5)| = {abs(f(0.5)):.1e}")
print(f"boundary modulus deviation: {boundary_modulus_deviation(f):.2e}")
print(f"windings: {[boundary_degree(f, l) for l in (0, 1)]}")

pts = 0.55 * np.exp(1j * np.linspace(0.2, 6.0, 5))
wy = wang_yin_eval(0.25, [0.5, -0.5], 1, pts)
print(f"against the two-sided product oracle: "
      f"{np.max(np.abs(f(pts) / wy - (f(pts) / wy).mean())):.2e} spread")

falt = build_proper_map_alt(ev, [(0, 0.5), (1, -0.5)])
print(f"slit-product form agrees: {np.max(np.abs(f(pts) - falt(pts))):.2e}")

lift = lift_blaschke(ev, v, [0.5, -0.5])
print(f"Blaschke lift agrees:     {np.max(np.abs(f(pts) - lift(pts))):.2e}")

# Boundary data: f(p) = 0, f(1) = 1, f(0.25) = 1 pins the map uniquely.
fb = from_boundary_data(ev, v, 0.5j, [(0, 1.0), (1, 0.25)])
print(f"\nboundary-data map: |f(p)| = {abs(fb(0.5j)):.1e}, "
      f"f(1) = {fb(1.0):.8g}, f(0.25) = {fb(0.25):.8g}")
print(f"reported residual: {fb.diagnostics['prescribed_point_residual']:.2e}")

# Higher boundary degree on a 3-connected domain.
triply = CircularDomain((Circle(-0.5 + 0j, 0.1), Circle(0.5 + 0j, 0.1)))
m3 = solve_harmonic_measures(triply, order=24)
v3 = integrals_first_kind(m3)
ev3 = PrimeEvaluator(triply, max_word_length=6)
p = 0.1 + 0.55j
f3 = from_boundary_data(ev3, v3, p,
                        [(0, np.exp(0.4j)), (1, -0.5 + 0.1j), (2, 0.5 + 0.1j)])
print(f"\n3-connected Grunsky instance: residual "
      f"{f3.diagnostics['prescribed_point_residual']:.2e}, "
      f"windings {[boundary_degree(f3, l) for l in range(3)]}")
