"""Walkthrough: Moebius/Caratheodory distances and ball rasters.

The distance from a base point is a supremum over proper maps vanishing
there; the library maximizes over charted zero sets.  Rasters of the
distance field drive connectivity analysis of metric balls, and the
witness search hunts for a disconnected ball on the shrinking-circle
family (reporting proximity diagnostics when the desk-scale family does
not realize one).
"""

import numpy as np

from schottky import (
    Circle,
    CircularDomain,
    PrimeEvaluator,
    integrals_first_kind,
    solve_harmonic_measures,
)
from schottky.distance import (
    DistanceOptions,
    ball_raster,
    caratheodory_distance,
    disconnection_thresholds,
    mobius_distance,
    product_distance,
)

annulus = CircularDomain((Circle(0j, 0.25),))
model = solve_harmonic_measures(annulus, order=24)
v = integrals_first_kind(model)
ev = PrimeEvaluator(annulus, max_word_length=6)

res = mobius_distance(model, ev, v, 0.5, -0.5)
print(f"annulus c*(0.5, -0.5) = {res.value:.8f}")
print(f"extremal partner zero: {res.argmax[0]:.6g}")
print(f"caratheodory distance  = {caratheodory_distance(model, ev, v, 0.5, -0.5):.6f}")
print(f"disk lower bound       = {abs((-0.5 - 0.5) / (1 + 0.25)):.6f}")

# product domains: the distance of (a, 0) to (z, lambda) is a max
print(f"\nproduct rule: max(0.8, atanh 0.5) = {product_distance(0.8, 0.5):.6f}")

# raster a ball and label its components
opts = DistanceOptions(refine_cap=300)
raster = ball_raster(model, ev, v, 0.5, 0.6, resolution=100, opts=opts)
print(f"\nannulus ball at r=0.6: {raster.component_count()} component(s)")

hit = disconnection_thresholds(raster, 0.5, -0.5, np.linspace(0.2, 0.95, 25),
                               require_compact=False)
print(f"disconnection on the annulus at any threshold: {hit}")
print("(doubly connected domains never disconnect their balls)")

# The g = 2 witness search is the expensive headline run:
#   schottky find-witness --res 300
# or in reduced form via find_disconnected_ball(shrink_radii=(0.05,),
# p_depths=(0.02,), resolution=150).  It rasters the distance field over
# the family, scans thresholds for a certified split, and reports the
# attained beta proxies either way.
