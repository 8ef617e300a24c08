"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup`` (timed, and
repeated so set-up time is a median), exposes one *round* of tasks (a fixed
list of zero-argument callables that the closed loop runs back to back),
counts the work units of a task's output, and checks the outputs after the
timed section.  The library only ever sees the generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from schottky import Circle, CircularDomain, PrimeEvaluator, verify
from schottky.distance import DistanceOptions, ball_raster, mobius_distance
from schottky.harmonic import integrals_first_kind, solve_harmonic_measures
from schottky.propermaps import (
    boundary_degree,
    boundary_modulus_deviation,
    build_proper_map,
    complete_zeros,
    lift_blaschke,
    make_zero_config,
)
from schottky.slitmaps import eta_j_relation_residual


@dataclass
class Check:
    name: str
    measured: float
    tolerance: float
    passed: bool
    gate: bool = True  # False: reported only, outside `correct` and the digits
    source: str = "benchmark"  # or the library call whose verdict this is

    @property
    def digits(self) -> float:
        """log10(tolerance / measured), capped at 16 (an exact result)."""
        if self.measured <= 0:
            return 16.0
        return min(16.0, math.log10(self.tolerance / self.measured))


def _check(name, measured, tol) -> Check:
    return Check(name, float(measured), float(tol), bool(measured <= tol))


def _check_true(name, flag) -> Check:
    # a yes/no check carries no error size: exact when it holds
    return Check(name, 0.0 if flag else 1.0, 0.5, bool(flag))


def _triply_domain() -> CircularDomain:
    return CircularDomain((Circle(-0.5 + 0j, 0.1), Circle(0.5 + 0j, 0.1)))


class RasterG2:
    """``ball_raster`` on the triply connected domain at L = 4."""

    name = "raster-g2"
    unit = "pixel"
    # 20 x 20 (about 1 s, 7-8 polished band pixels) rather than 64 x 64
    # (about 7 s), so one run holds some 30 rasters and their upper
    # percentile is steady
    resolution = 20
    threshold = 0.6
    probes = 3  # band pixels re-checked against mobius_distance

    def setup(self, seed: int):
        dom = _triply_domain()
        model = solve_harmonic_measures(dom, order=24)
        v = integrals_first_kind(model)
        ev = PrimeEvaluator(dom, max_word_length=4)
        # seed 0 gives 0.3i; other seeds turn it by at most 0.1 rad, which
        # keeps the band (and so the cost) about the same size
        p = 0.3j * complex(math.cos(0.1 * math.sin(seed)), math.sin(0.1 * math.sin(seed)))
        return {"model": model, "v": v, "ev": ev, "p": p, "seed": seed}

    def tasks(self, st):
        def raster():
            return ball_raster(st["model"], st["ev"], st["v"], st["p"], self.threshold,
                               resolution=self.resolution)
        return [raster]

    def work(self, out) -> int:
        return out.nx * out.ny

    def checks(self, st, outputs) -> list[Check]:
        rasters = [r for r in outputs if r is not None]
        if len(rasters) < 2:
            rasters.append(self.tasks(st)[0]())
        first = rasters[0]
        out = [_check_true(
            "raster: identical inputs give identical bytes",
            all(a.values.tobytes() == first.values.tobytes()
                and a.labels.tobytes() == first.labels.tobytes() for a in rasters[1:]),
        )]
        # the ball around a point this far from the holes is one component,
        # and it holds its own center
        out.append(_check_true(
            "raster: one component, containing the center",
            first.component_count() == 1 and first.component_of(st["p"]) == 1,
        ))
        # the band the raster polishes
        margin = DistanceOptions().refine_margin
        band = np.argwhere(np.abs(first.values - self.threshold) < margin)
        rng = np.random.default_rng(st["seed"])
        picks = band[rng.choice(len(band), size=min(self.probes, len(band)), replace=False)]
        centers = first.pixel_centers()
        shortfall, flipped = 0.0, 0
        for iy, ix in picks:
            exact = mobius_distance(st["model"], st["ev"], st["v"], st["p"],
                                    complex(centers[iy, ix])).value
            value = first.values[iy, ix]
            shortfall = max(shortfall, exact - value)
            flipped += (value < self.threshold) != (exact < self.threshold)
        out.append(_check_true(
            f"raster: {len(picks)} band pixels on the same side of r as mobius_distance",
            flipped == 0,
        ))
        # Known defect when this benchmark was introduced: the 40-iteration
        # polish leaves some band pixels more than 1e-4 below mobius_distance
        # (3 of 50 sampled at seed 0, up to 9e-4), so three seeded probes
        # would fail at random seeds.  Reported, not gated.
        out.append(Check(f"raster: band value short of mobius_distance ({len(picks)} pixels)",
                         float(shortfall), 1e-4, bool(shortfall <= 1e-4), gate=False))
        return out


class VerifyTriply:
    """The boundary checks that make up most of ``schottky verify triply``,
    one library call per task; the whole suite runs once per run, after the
    timed section, as the correctness gate.

    ``verify.run_suite("triply")`` is one 7 s call: five of them in a run
    moved its time by 19% between runs of the same code on a shared host.
    About 75% of the suite's time is the boundary checks of degree-3 proper
    maps at L = 6 (``boundary_degree`` on 1024 points per circle and
    ``boundary_modulus_deviation``: the plain-product ``prime`` branch with
    728 half-set words), so a round runs those on maps made from the seed,
    plus the suite's slit-family exchange identity (``slitmaps``)."""

    name = "verify-triply"
    unit = "point"
    maps = 2
    # the suite's first map: nu = (1, 1, 1), one fixed zero near 0.1 + 0.55i
    # and two zeros completed from these guesses
    fixed_zero = 0.1 + 0.55j
    guesses = (-0.3 - 0.2j, 0.3 - 0.2j)
    nu = (1, 1, 1)
    slit_pairs = 5

    def setup(self, seed: int):
        dom = _triply_domain()
        model = solve_harmonic_measures(dom, order=24)
        v = integrals_first_kind(model)
        ev = PrimeEvaluator(dom, max_word_length=6)
        rng = np.random.default_rng(seed)
        maps = []
        for angle in rng.uniform(0.0, 2 * np.pi, self.maps):
            fixed = [self.fixed_zero + 0.05 * np.exp(1j * angle)]
            zeros = fixed + complete_zeros(model, fixed, self.nu, list(self.guesses))
            maps.append(build_proper_map(ev, v, make_zero_config(model, zeros, self.nu)))
        pts = _interior_points(dom, 2 * self.slit_pairs, rng)
        return {"dom": dom, "ev": ev, "v": v, "maps": maps,
                "pairs": list(zip(pts[: self.slit_pairs], pts[self.slit_pairs:]))}

    def tasks(self, st):
        out = []
        for f in st["maps"]:
            out.append(lambda f=f: ("modulus", boundary_modulus_deviation(f, 256)))
            out.extend(lambda f=f, l=l: ("degree", l, boundary_degree(f, l))
                       for l in range(st["dom"].g + 1))

        def slit():
            return ("slit", max(eta_j_relation_residual(st["ev"], st["v"], j, z, p)
                                for j in (1, 2) for z, p in st["pairs"]))
        out.append(slit)
        return out

    def work(self, out) -> int:
        # boundary points evaluated; the slit task counts one per probe
        kind = out[0]
        if kind == "modulus":
            return 3 * 256
        if kind == "degree":
            return 1024
        return 2 * self.slit_pairs

    def checks(self, st, outputs) -> list[Check]:
        n = len(self.tasks(st))
        same = (all(o is not None for o in outputs)
                and all(outputs[k] == outputs[k % n] for k in range(n, len(outputs))))
        out = [_check_true("verify: every round gives identical results", same)]
        first = outputs[:n]
        degrees_ok = all(o[2] == self.nu[o[1]] for o in first if o and o[0] == "degree")
        out.append(_check_true("verify: boundary degrees equal nu = (1, 1, 1)", degrees_ok))
        out.append(_check("verify: boundary modulus deviation (3 x 256 samples)",
                          max(o[1] for o in first if o and o[0] == "modulus"), 1e-5))
        out.append(_check("verify: slit-family exchange identity",
                          max(o[1] for o in first if o and o[0] == "slit"), 1e-7))
        # the CLI's own verdicts at its own tolerances
        out.extend(Check(r.name, r.measured, r.tolerance, r.passed, source="verify.run_suite")
                   for r in verify.run_suite("triply"))
        return out


def _interior_points(dom, count, rng, margin=0.05):
    out = []
    while len(out) < count:
        z = complex(*rng.uniform(-1.0, 1.0, 2))
        if dom.contains(z, margin=margin):
            out.append(z)
    return np.array(out)


class MapEvalG3:
    """A degree-4 proper map of a 4-connected domain at L = 5 (2343 half-set
    words), evaluated at seeded interior points in calls of 64 points."""

    name = "mapeval-g3"
    unit = "point"
    calls_per_round = 8
    points_per_call = 64
    circles = ((-0.5 + 0j, 0.12), (0.45 + 0.1j, 0.1), (-0.05 - 0.55j, 0.1))
    fixed_zero = 0.1 + 0.5j
    guess_angles = (0.5, 2.0, 1.0)

    def setup(self, seed: int):
        dom = CircularDomain(tuple(Circle(q, r) for q, r in self.circles))
        model = solve_harmonic_measures(dom, order=24)
        v = integrals_first_kind(model)
        ev = PrimeEvaluator(dom, max_word_length=5)
        guess = [c.q + (c.r + 0.3 * dom.boundary_distance(c.q + c.r)) * np.exp(1j * a)
                 for c, a in zip(dom.inner_circles, self.guess_angles)]
        fixed = [self.fixed_zero]
        zeros = fixed + complete_zeros(model, fixed, (1, 1, 1, 1), guess)
        f = build_proper_map(ev, v, make_zero_config(model, zeros, (1, 1, 1, 1)))
        rng = np.random.default_rng(seed)
        pts = _interior_points(dom, self.calls_per_round * self.points_per_call, rng,
                               margin=0.02).reshape(self.calls_per_round, self.points_per_call)
        return {"ev": ev, "v": v, "f": f, "zeros": zeros, "pts": pts}

    def tasks(self, st):
        f = st["f"]
        return [lambda z=z: f(z) for z in st["pts"]]

    def work(self, out) -> int:
        return len(out)

    def checks(self, st, outputs) -> list[Check]:
        n = self.calls_per_round
        again = st["f"](st["pts"][0])
        # every round evaluates the same points, and one more call follows
        repeated = (all(o is not None for o in outputs)
                    and again.tobytes() == outputs[0].tobytes()
                    and all(outputs[k].tobytes() == outputs[k % n].tobytes()
                            for k in range(n, len(outputs))))
        out = [_check_true("mapeval: repeated calls give identical values", repeated)]
        out.append(_check("mapeval: boundary modulus deviation (4 x 256 samples)",
                          boundary_modulus_deviation(st["f"], 256), 1e-5))
        lift = lift_blaschke(st["ev"], st["v"], st["zeros"])
        z = st["pts"][0]
        out.append(_check("mapeval: agrees with lift_blaschke",
                          float(np.max(np.abs(lift(z) - st["f"](z)))), 1e-6))
        return out


WORKLOADS = {w.name: w for w in (RasterG2(), VerifyTriply(), MapEvalG3())}
