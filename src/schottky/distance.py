"""Moebius/Caratheodory distances, distance rasters, and the disconnected
ball search.

The Moebius distance from a base point is the supremum of |f(zeta)| over
holomorphic maps into the disk vanishing there; the supremum is attained by
a proper map of degree g+1, so it is computed by maximizing over the
g-dimensional manifold of admissible zero sets {base point} + P.  Each
member of P lives on a chart line normal to one inner circle: the search
moves the g foot angles, and the g depths are re-solved from the zero
condition at every step.  With log|f| = -sum_k G(., p_k) from the domain's
Green's function, the objective and its gradient along the chart are closed
form, and one batched BFGS ascent climbs many (point, start) rows at once.

Rasters of the distance over a pixel grid drive the connectivity analysis:
a sweep over a deterministic family of charted zero sets gives a sharp
lower envelope everywhere, and the pixels near the threshold of interest
are polished by one batched ascent, each from its family argmax.
Flood-fill labels of the sublevel set then certify (or refute)
disconnected balls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .domain import Circle, CircularDomain, _pointwise
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    DomainError,
    ResolutionError,
    TruncationQualityError,
)
from .harmonic import GreenFunction, HarmonicModel, IntegralsFirstKind, solve_harmonic_measures
from .prime import PrimeEvaluator
from .propermaps import _CHART_TOL, _chart_box, _level_depths, _solve_chart

__all__ = [
    "DistanceOptions",
    "DistanceResult",
    "mobius_distance",
    "caratheodory_distance",
    "product_distance",
    "BallRaster",
    "ball_raster",
    "Witness",
    "find_disconnected_ball",
    "wang_yin_eval",
]


def __getattr__(name: str):
    # exists only so perfbench/tracer.py still finds ``distance.minimize``,
    # which it wraps by name: nothing here calls scipy's optimizer, and scipy
    # is not a dependency of the library, so it is imported on first access
    # and never by a run that does not ask for it
    if name == "minimize":
        from scipy.optimize import minimize

        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass(frozen=True)
class DistanceOptions:
    """The extremal search's settings that callers choose.  The seed fixes
    every multi-start draw, so identical inputs give identical outputs.  The
    band polish of a raster takes at most ``refine_cap`` pixels, those
    within ``refine_margin`` of the threshold (a constant), and caps each
    row at ``refine_maxiter`` trial steps.  One distance is an ascent of
    ``_N_STARTS`` rows capped at ``_TRIALS_PER_ANGLE`` g trial steps each.
    """

    seed: int = 0
    refine_cap: int = 4000
    refine_maxiter: int = 40
    refine_margin: ClassVar[float] = 0.025


@dataclass(frozen=True)
class DistanceResult:
    value: float
    argmax: tuple[complex, ...]
    angles: tuple[float, ...]
    warning: str | None = None
    evaluations: int = 0


class _ExtremalSearch:
    """Shared machinery: charted zero sets with the base point fixed, and
    |f(zeta)| = exp(-G(zeta, p_tilde) - sum_k G(zeta, p_k)) from the
    domain's Green's function (magnitude only, so no rotation needed).
    ``seed_evaluations`` counts the batched evaluations of the cold chart
    seeds it has made."""

    def __init__(self, model: HarmonicModel, p_tilde: complex):
        self.model = model
        self.p = complex(p_tilde)
        d = self.domain = model.domain
        self.g = d.g
        self.seed_evaluations = 0
        if not d.contains(self.p):
            raise DomainError("base point is not in the domain")
        self.targets = 1.0 - model.eval_u_all(self.p)[0]  # (g,)
        if np.any(self.targets <= 0) or np.any(self.targets >= 1):
            raise DomainError("base point measures out of range")
        self.green = GreenFunction(model)

    # -- chart ---------------------------------------------------------------

    def solve_depths(self, angles: np.ndarray, seed_depths: np.ndarray | None = None):
        """Zeros on the chart rays at the foot angles, for one chart (shape
        (g,)) or a batch of them (shape (B, g)): returns (points, depths, ok,
        du), with ok False where the chart solve failed (an invalid chart
        point) and du[b, k, j] = du_j/dz at point k of row b, from the chart
        solve's last evaluation (current where ok).  Without seed depths the
        solve starts where each point alone accounts for its own circle's
        target measure."""
        d = self.domain
        angles = np.asarray(angles, dtype=float)
        feet = d.centers + d.radii * np.exp(1j * angles.reshape(-1, self.g))
        dirs = (feet - d.centers) / d.radii
        box = _chart_box(d, feet, dirs)
        if seed_depths is None:
            seed_depths, evaluations = _level_depths(self.model, range(1, self.g + 1), feet,
                                                     dirs, self.targets, box)
            self.seed_evaluations += evaluations
        s, res, du = _solve_chart(self.model, feet, dirs, self.targets, seed_depths, box)
        return ((feet + s * dirs).reshape(angles.shape), s.reshape(angles.shape),
                (res < _CHART_TOL).reshape(angles.shape[:-1]), du)

    # -- batched ascent ------------------------------------------------------

    def _objective(self, green, rows, pts, phi, s, du):
        """F = sum_k G(zeta, p_k) and its gradient in the foot angles for the
        solved charts (zeros pts, angles phi, depths s) of the given rows,
        with the measures' gradients du at pts (``solve_depths``).
        The depths follow the angles through the zero condition, so by the
        implicit function theorem dF/dphi = a - J_phi^T J_s^-T b, with a, b
        the derivatives of F along the turn of each zero about its circle
        and along its ray, and J_phi, J_s those of the measures."""
        e = np.exp(1j * phi)  # the ray directions, dp_k/ds_k
        turn = 1j * (self.domain.radii + s) * e  # dp_k/dphi_k
        val, dg = green(pts, rows)
        j_s = np.real(du * e[:, :, None])  # [b, k, j] = dsum_u_j/ds_k, transposed
        j_phi = np.real(du * turn[:, :, None])
        x = np.linalg.solve(j_s, np.real(dg * e)[:, :, None])[:, :, 0]
        grad = np.real(dg * turn) - np.einsum("bkj,bj->bk", j_phi, x)
        return val.sum(axis=1), grad

    def ascend(self, zetas, seed_angles, maxiter: int, seed_depths=None) -> _Ascent:
        """Maximize |f(zeta)| over the chart, one row per (point, start):
        minimize F = sum_k G(zeta, p_k) over the g foot angles.

        Each row takes BFGS steps with the closed-form gradient, starting
        (and restarting after an uphill direction) from a first step of
        ``_FIRST_TURN`` radians, never more than ``_MAX_TURN`` radians per
        angle, and halves its step when the trial chart fails or F does not
        fall by the Armijo amount.  Every trial is one warm chart solve over
        all active rows.  A row stops when its last angle step (radians, max
        norm) is below ``_XATOL`` and the change of |f| it made below
        ``_FATOL``, or after ``maxiter`` trials.  Stopped rows are frozen,
        so a batch gives its rows' one-at-a-time results."""
        g = self.g
        zetas = np.atleast_1d(np.asarray(zetas, dtype=complex))
        n = len(zetas)
        phi = np.asarray(seed_angles, dtype=float).reshape(n, g).copy()
        green = self.green.paired(zetas)
        base = green(np.full((n, 1), self.p))[0][:, 0]  # G(zeta, p_tilde)
        zeros, s, active, du = self.solve_depths(phi, seed_depths)
        fval, grad = np.full(n, np.inf), np.zeros((n, g))
        rows = np.flatnonzero(active)
        fval[rows], grad[rows] = self._objective(green, rows, zeros[rows], phi[rows], s[rows],
                                                 du[rows])
        inv_hess = _first_turn(grad)
        step_len = np.ones(n)
        trials = np.zeros(n, dtype=int)
        capped = np.zeros(n, dtype=bool)
        iterations = 0
        while True:
            capped |= active & (trials >= maxiter)
            active &= ~capped
            rows = np.flatnonzero(active)
            if not len(rows):
                break
            gr = grad[rows]
            direction = -np.einsum("bij,bj->bi", inv_hess[rows], gr)
            uphill = np.einsum("bi,bi->b", direction, gr) >= 0
            inv_hess[rows[uphill]] = _first_turn(gr[uphill])  # a stale curvature model
            direction[uphill] = -np.einsum("bij,bj->bi", inv_hess[rows[uphill]], gr[uphill])
            step = step_len[rows, None] * direction
            step *= (_MAX_TURN / np.maximum(np.abs(step).max(axis=1), _MAX_TURN))[:, None]
            trial = phi[rows] + step
            pts, s_t, ok, du = self.solve_depths(trial, s[rows])
            trials[rows] += 1
            iterations += 1
            f_t, g_t = np.full(len(rows), np.inf), np.zeros((len(rows), g))
            if ok.any():
                f_t[ok], g_t[ok] = self._objective(green, rows[ok], pts[ok], trial[ok], s_t[ok],
                                                   du[ok])
            change = np.abs(np.exp(-(base[rows] + f_t)) - np.exp(-(base[rows] + fval[rows])))
            active[rows[(np.abs(step).max(axis=1) < _XATOL) & (change < _FATOL)]] = False
            accept = f_t <= fval[rows] + 1e-4 * np.einsum("bi,bi->b", step, gr)
            step_len[rows] = np.where(accept, 1.0, 0.5 * step_len[rows])
            acc = rows[accept]
            _bfgs_update(inv_hess, acc, step[accept], g_t[accept] - gr[accept])
            phi[acc], s[acc], zeros[acc] = trial[accept], s_t[accept], pts[accept]
            fval[acc], grad[acc] = f_t[accept], g_t[accept]
        return _Ascent(np.exp(-(base + fval)), np.mod(phi, 2 * np.pi), zeros, trials + 1,
                       capped, iterations)

    def optimize(self, zeta: complex, opts: DistanceOptions) -> DistanceResult:
        """The multi-start ascent at one point: the starts are the rows of
        one batch, and the best row's last accepted chart is the argmax."""
        zeta = complex(zeta)
        g = self.g
        if g == 0:
            val = abs((zeta - self.p) / (1 - self.p.conjugate() * zeta))
            return DistanceResult(val, (), ())
        rng = np.random.default_rng(opts.seed)
        seeds = [np.array([
            math.atan2((zeta - c.q).imag, (zeta - c.q).real) + np.pi
            for c in self.domain.inner_circles
        ]), np.array([
            math.atan2((self.p - c.q).imag, (self.p - c.q).real)
            for c in self.domain.inner_circles
        ])]
        while len(seeds) < _N_STARTS:
            seeds.append(rng.uniform(0.0, 2 * np.pi, size=g))
        seeds = np.array(seeds[:_N_STARTS])
        run = self.ascend(np.full(len(seeds), zeta), seeds, _TRIALS_PER_ANGLE * g)
        best = int(np.argmax(run.values))
        if not run.values[best] > 0:
            raise ConvergenceError("extremal search failed at every seed")
        value = float(run.values[best])  # as computed: a value above 1 is flagged, not clamped
        warnings = [f"1 - c* = {1 - value:.3e} is not positive: the order-{self.model.order} "
                    "basis cannot resolve c* this close to 1"] if value >= 1 else []
        if run.capped[best]:
            warnings.append("optimizer stagnation: supremum may only be approached")
        return DistanceResult(value, tuple(complex(z) for z in run.zeros[best]),
                              tuple(float(a) for a in run.angles[best]),
                              "; ".join(warnings) or None, int(run.evaluations.sum()))


_N_STARTS = 8  # rows of the multi-start ascent of one distance
_TRIALS_PER_ANGLE = 100  # trial steps per foot angle a row of one distance may take
_MAX_TURN = 0.5  # radians: the longest step of one foot angle in one trial
_XATOL = 1e-4  # radians: a row stops once its angle step is below this
_FATOL = 1e-10  # ... and the change of |f| that step made is below this
_FIRST_TURN = 0.1  # radians: a row's first step, before any curvature is known


@dataclass(frozen=True)
class _Ascent:
    """Per row: |f(zeta)| (0 where the seed chart failed), the angles and
    zeros of the last accepted chart, chart evaluations, and whether the row
    stopped at the cap; per batch: loop iterations (each one chart solve,
    after the seed solve)."""

    values: np.ndarray
    angles: np.ndarray
    zeros: np.ndarray
    evaluations: np.ndarray
    capped: np.ndarray
    iterations: int


def _first_turn(grad: np.ndarray) -> np.ndarray:
    """Inverse Hessians (B, g, g) that turn each row's first step into
    ``_FIRST_TURN`` radians (max norm) downhill."""
    scale = _FIRST_TURN / np.maximum(np.abs(grad).max(axis=1), 1e-300)
    return scale[:, None, None] * np.eye(grad.shape[1])


def _bfgs_update(inv_hess, rows, sk, yk) -> None:
    """BFGS update of the rows' inverse Hessians in place, skipping the
    pairs without positive curvature."""
    sy = np.einsum("bi,bi->b", sk, yk)
    rows, sk, yk, rho = rows[sy > 0], sk[sy > 0], yk[sy > 0], 1.0 / sy[sy > 0]
    left = np.eye(sk.shape[1]) - rho[:, None, None] * sk[:, :, None] * yk[:, None, :]
    inv_hess[rows] = (left @ inv_hess[rows] @ left.transpose(0, 2, 1)
                      + rho[:, None, None] * sk[:, :, None] * sk[:, None, :])


def mobius_distance(
    model: HarmonicModel,
    ev: PrimeEvaluator,
    v: IntegralsFirstKind | None,
    p_tilde: complex,
    zeta: complex,
    opts: DistanceOptions | None = None,
) -> DistanceResult:
    """Moebius distance c*(p_tilde, zeta): the maximum of |f(zeta)| over
    degree-(g+1) proper maps vanishing at the base point, together with the
    maximizing zero set.  Closed form on the disk (g = 0).  |f| comes from
    the domain's Green's function on the harmonic series basis of ``model``;
    ``ev`` and ``v`` are kept for API stability and are not used.  A value
    of 1 or more is returned as computed, with a warning naming 1 - c*.
    Raises DomainError when p_tilde or zeta is not in the domain."""
    search = _ExtremalSearch(model, p_tilde)
    if not model.domain.contains(complex(zeta)):
        raise DomainError("target point is not in the domain")
    return search.optimize(zeta, opts or DistanceOptions())


def caratheodory_distance(
    model: HarmonicModel,
    ev: PrimeEvaluator,
    v: IntegralsFirstKind | None,
    p_tilde: complex,
    zeta: complex,
    opts: DistanceOptions | None = None,
) -> float:
    """atanh of the Moebius distance (the two metrics share sublevel sets).
    Raises TruncationQualityError where the computed c* is not below 1."""
    return _atanh_checked(mobius_distance(model, ev, v, p_tilde, zeta, opts))


def _atanh_checked(res: DistanceResult) -> float:
    """atanh of c*; TruncationQualityError (the result's warning) where c* >= 1."""
    if res.value >= 1:
        raise TruncationQualityError(res.warning)
    return math.atanh(res.value)


def product_distance(c1: float, lam: complex) -> float:
    """Caratheodory distance on a product with a disk factor:
    max of the first-factor distance and atanh|lambda|, lambda in the open
    unit disk."""
    if c1 < 0:
        raise DomainError("distances are nonnegative")
    if not abs(lam) < 1:
        raise DomainError(f"lambda = {lam} is not in the unit disk")
    return max(c1, math.atanh(abs(lam)))


# -- rasters -------------------------------------------------------------------


@dataclass
class BallRaster:
    """Grid of Moebius-distance values with sublevel-set connectivity labels.

    values[iy, ix] is c*(center, pixel); NaN outside the domain.  labels:
    -1 outside, 0 at or above the threshold, 1..k for the connected
    components (4-neighborhood, first-encounter order).  diagnostics: the
    polish counters of ``ball_raster`` (empty on the disk; not part of the
    CSV format)."""

    bbox: tuple[float, float, float, float]
    nx: int
    ny: int
    center: complex
    threshold: float
    values: np.ndarray
    labels: np.ndarray = field(default=None)
    diagnostics: dict = field(default_factory=dict)

    def pixel_centers(self) -> np.ndarray:
        x0, y0, x1, y1 = self.bbox
        xs = x0 + (np.arange(self.nx) + 0.5) * (x1 - x0) / self.nx
        ys = y0 + (np.arange(self.ny) + 0.5) * (y1 - y0) / self.ny
        return xs[None, :] + 1j * ys[:, None]

    @property
    def pixel_size(self) -> tuple[float, float]:
        x0, y0, x1, y1 = self.bbox
        return (x1 - x0) / self.nx, (y1 - y0) / self.ny

    def pixel_of(self, z: complex) -> tuple[int, int]:
        x0, y0, x1, y1 = self.bbox
        ix = math.floor((z.real - x0) / (x1 - x0) * self.nx)
        iy = math.floor((z.imag - y0) / (y1 - y0) * self.ny)
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise ResolutionError(f"point {z} outside the raster bbox")
        return iy, ix

    def relabel(self, threshold: float | None = None) -> np.ndarray:
        """(Re)compute the flood-fill labels of {value < threshold}: the
        4-connected components of the sublevel set, numbered in the order a
        row-major scan first meets them (``_label_components``)."""
        if threshold is not None:
            self.threshold = float(threshold)
        inside = ~np.isnan(self.values)
        mask = inside & (self.values < self.threshold)
        lab = _label_components(mask)
        lab[~inside] = -1
        self.labels = lab
        return lab

    def component_of(self, z: complex) -> int:
        iy, ix = self.pixel_of(z)
        return int(self.labels[iy, ix])

    def component_count(self) -> int:
        return int(self.labels.max(initial=0))

    def component_has_disk(self, label: int, radius_px: int = 3) -> bool:
        """Whether the component contains a full L2 disk of the given pixel
        radius (immunity to single-pixel noise)."""
        mask = self.labels == label
        yy, xx = np.mgrid[-radius_px : radius_px + 1, -radius_px : radius_px + 1]
        disk = (xx**2 + yy**2) <= radius_px**2
        return bool(np.logical_and.reduce(_shifts(mask, disk)).any())  # erosion

    def touches_domain_boundary(self, label: int) -> bool:
        """Whether the component touches a pixel bordering the domain
        complement (negation certifies relative compactness at grid scale)."""
        grown = np.logical_or.reduce(_shifts(self.labels == -1, _FOUR_CONN))  # dilation
        return bool((grown & (self.labels == label)).any())

    # -- CSV format: header comments, then ny rows of nx values ----------------

    def to_csv(self, path) -> None:
        x0, y0, x1, y1 = self.bbox
        fmt = lambda x: f"{x:.17g}"
        with open(path, "w") as fh:
            fh.write(f"# bbox {fmt(x0)} {fmt(y0)} {fmt(x1)} {fmt(y1)}\n")
            fh.write(f"# resolution {self.nx} {self.ny}\n")
            fh.write(f"# center {fmt(self.center.real)} {fmt(self.center.imag)}\n")
            fh.write(f"# threshold {fmt(self.threshold)}\n")
            for row in self.values:
                fh.write(",".join(fmt(vv) for vv in row) + "\n")

    @classmethod
    def from_csv(cls, path) -> "BallRaster":
        header = {}
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    parts = line[1:].split()
                    header[parts[0]] = parts[1:]
                else:
                    rows.append([float(x) for x in line.split(",")])
        bbox = tuple(float(x) for x in header["bbox"])
        nx, ny = (int(x) for x in header["resolution"])
        center = complex(float(header["center"][0]), float(header["center"][1]))
        threshold = float(header["threshold"][0])
        values = np.array(rows)
        if values.shape != (ny, nx):
            raise ResolutionError("CSV value block does not match the declared resolution")
        raster = cls(bbox, nx, ny, center, threshold, values)
        raster.relabel()
        return raster


def _shifts(mask: np.ndarray, structure: np.ndarray) -> list[np.ndarray]:
    """mask[y + dy, x + dx] for each offset (dy, dx) of the centered,
    symmetric structure, False beyond the edges: their AND is the binary
    erosion of the mask by the structure, their OR its dilation."""
    ry, rx = (n // 2 for n in structure.shape)
    padded = np.pad(mask, ((ry, ry), (rx, rx)))
    ny, nx = mask.shape
    return [padded[i : i + ny, j : j + nx] for i, j in np.argwhere(structure)]


def _label_components(mask: np.ndarray) -> np.ndarray:
    """Labels 1..k (int32) of the 4-connected components of a 2-d boolean
    mask, 0 off it, numbered in the order a row-major scan first meets them.

    The nodes are the mask's horizontal runs, numbered in scan order, and
    the edges join runs of neighbouring rows that overlap.  Every run
    points at a run of its component with a smaller or equal number; each
    round hooks the larger of two joined roots onto the smaller and then
    jumps pointers until every run points at its root, so each component
    ends at its first run, and the roots in run order number the components
    in scan order."""
    ny, nx = mask.shape
    start, stop = mask.copy(), mask.copy()
    start[:, 1:] &= ~mask[:, :-1]
    stop[:, :-1] &= ~mask[:, 1:]
    starts = np.flatnonzero(start)  # flat index of each run's first pixel, in scan order
    lengths = np.flatnonzero(stop) + 1 - starts
    # one edge per overlapping pair of runs: the first column of the overlap
    both = mask[:-1] & mask[1:]
    both[:, 1:] &= ~both[:, :-1]
    edge = np.flatnonzero(both)
    upper = np.searchsorted(starts, edge, side="right") - 1
    lower = np.searchsorted(starts, edge + nx, side="right") - 1
    parent = np.arange(len(starts))
    while True:
        pu, pl = parent[upper], parent[lower]
        joined = pu != pl
        if not joined.any():
            break
        upper, lower, pu, pl = upper[joined], lower[joined], pu[joined], pl[joined]
        np.minimum.at(parent, np.maximum(pu, pl), np.minimum(pu, pl))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    root = parent == np.arange(len(parent))
    number = np.cumsum(root, dtype=np.int32)[parent]
    out = np.zeros((ny, nx), dtype=np.int32)
    out[mask] = np.repeat(number, lengths)  # the masked pixels are the runs, in order
    return out


def ball_raster(
    model: HarmonicModel,
    ev: PrimeEvaluator,
    v: IntegralsFirstKind | None,
    p_tilde: complex,
    r: float,
    bbox: tuple[float, float, float, float] = (-1.0, -1.0, 1.0, 1.0),
    resolution: int | tuple[int, int] = 300,
    opts: DistanceOptions | None = None,
) -> BallRaster:
    """Raster of c*(p_tilde, .) over the grid with flood-fill labels of the
    sublevel set {c* < r}.

    The values are computed as the upper envelope of a deterministic family
    of charted extremal maps (a coarse family everywhere, a fine family
    where the coarse value lies within ``_BAND_MARGIN`` of the threshold;
    both solved in one batch, and swept ``_RASTER_CHUNK`` pixels at a time),
    then the pixels within ``refine_margin`` of the threshold (at most
    ``refine_cap``) are polished by one batched ascent, each row seeded
    from its pixel's family argmax and capped at ``refine_maxiter`` trial
    steps; a polished value only replaces a lower one.  Every |f| comes
    from the domain's Green's function on the harmonic series basis of
    ``model``: a family sweep is one (pixels, zeros) Green matrix from one
    fit of its smaller side, by G(z, p) = G(p, z) (``_member_min``).
    ``raster.diagnostics`` counts the families' charts (solved, ok) and
    the batched evaluations of their seeds, and the polish: pixels
    polished, ascent iterations, batched chart solves and rows stopped at
    the cap.  ``ev`` and ``v`` are kept for API stability and are not used.
    Deterministic for a fixed option set.
    """
    if not (0 < r < 1):
        raise DomainError("threshold must be in (0, 1) on the Moebius scale")
    opts = opts or DistanceOptions()
    if isinstance(resolution, int):
        nx = ny = resolution
    else:
        nx, ny = resolution
    search = _ExtremalSearch(model, p_tilde)
    d = model.domain

    raster = BallRaster(tuple(map(float, bbox)), nx, ny, complex(p_tilde), float(r),
                        np.full((ny, nx), np.nan))
    zs = raster.pixel_centers().ravel()
    inside = d.contains(zs)
    if not inside.reshape(ny, nx)[raster.pixel_of(complex(p_tilde))]:
        raise ResolutionError("raster too coarse: center pixel not inside the domain")
    idx = np.nonzero(inside)[0]
    vals = np.zeros(len(idx))

    argmax_member = np.zeros(len(idx), dtype=np.int32)
    if search.g == 0:
        pz = zs[idx]
        vals = np.abs((pz - search.p) / (1 - np.conj(search.p) * pz))
    else:
        coarse, fine = _build_family(search, _COARSE_ANGLES, _FINE_ANGLES)
        family = np.concatenate([coarse, fine])
        for lo in range(0, len(idx), _RASTER_CHUNK):
            zchunk = zs[idx[lo : lo + _RASTER_CHUNK]]
            # -log|f| = G(., p_tilde) + sum_k G(., p_k): the envelope is the
            # smallest sum over the members
            base = search.green(zchunk, search.p)[:, 0]
            total, amax = _member_min(search, zchunk, coarse, base)
            # fine family only where the value could cross the threshold
            band = np.flatnonzero(np.abs(np.exp(-total) - r) < _BAND_MARGIN)
            if len(band):
                fine_total, fine_amax = _member_min(search, zchunk[band], fine, base[band])
                better = fine_total < total[band]
                total[band[better]] = fine_total[better]
                amax[band[better]] = len(coarse) + fine_amax[better]
            vals[lo : lo + len(zchunk)] = np.exp(-total)
            argmax_member[lo : lo + len(zchunk)] = amax

    flat = raster.values.ravel()
    flat[idx] = vals
    raster.values = flat.reshape(ny, nx)

    if search.g:  # the disk's values are exact: nothing to polish
        charts = _COARSE_ANGLES**search.g + _FINE_ANGLES**search.g
        raster.diagnostics = {"family_charts": [charts, len(family)],
                              "seed_evaluations": search.seed_evaluations,
                              **_refine_band(raster, search, opts, idx, argmax_member,
                                             family, zs)}
    raster.relabel()
    return raster


def _build_family(search: _ExtremalSearch, *n_angles: int) -> list[np.ndarray]:
    """Solve the chart for deterministic grids of foot angles, n_angles^g
    charts each, all in one batch; returns one (members, g) array of zeros
    per grid (failed chart points are skipped)."""
    g = search.g
    combos = [np.stack([a.ravel() for a in np.meshgrid(
        *[np.arange(n) * (2 * np.pi / n)] * g, indexing="ij")], axis=1) for n in n_angles]
    pts, _, ok, _ = search.solve_depths(np.concatenate(combos))
    ends = np.cumsum([0] + [len(c) for c in combos])
    return [pts[a:b][ok[a:b]] for a, b in zip(ends, ends[1:])]


def _member_min(search: _ExtremalSearch, z: np.ndarray, members: np.ndarray,
                base: np.ndarray):
    """base + the smallest sum_k G(z, p_k) over the members' zero sets (the
    rows of ``members``), with the index of the member attaining it.  One
    fit serves the whole (pixels, zeros) Green matrix: by G(z, p) = G(p, z)
    it fits the smaller side, the pixels when they are fewer than the zeros
    (as ``GreenFunction.paired`` fits the polish's pixels), else the
    zeros."""
    if not len(members):
        return np.full(len(z), np.inf), np.zeros(len(z), dtype=np.int32)
    zeros = members.ravel()
    green = search.green(zeros, z).T if len(z) < len(zeros) else search.green(z, zeros)
    sums = green.reshape(len(z), len(members), -1).sum(axis=2)
    best = np.argmin(sums, axis=1).astype(np.int32)
    return base + sums[np.arange(len(z)), best], best


def _refine_band(raster, search, opts, idx, argmax_member, family, zs) -> dict:
    """Polish the pixels near the threshold with one batched ascent, each
    seeded from its family argmax; returns the polish counters."""
    r = raster.threshold
    flat = raster.values.ravel()
    band = np.abs(flat[idx] - r) < opts.refine_margin
    order = idx[band]
    if len(order) > opts.refine_cap:
        # keep the pixels closest to the threshold
        key = np.abs(flat[order] - r)
        order = order[np.argsort(key, kind="stable")[: opts.refine_cap]]
        order = np.sort(order)
    stats = {"polished": int(len(order)), "ascent_iterations": 0, "chart_solves": 0,
             "capped": 0}
    if not len(order):
        return stats
    d = search.domain
    # a charted zero sits on the normal ray of its circle: the foot angle is
    # the argument of (zero - center), the depth its distance to the circle
    offsets = family[argmax_member[np.searchsorted(idx, order)]] - d.centers
    for lo in range(0, len(order), _ASCENT_ROWS):
        part = slice(lo, lo + _ASCENT_ROWS)
        run = search.ascend(zs[order[part]], np.angle(offsets[part]), opts.refine_maxiter,
                            np.abs(offsets[part]) - d.radii)
        flat[order[part]] = np.fmax(flat[order[part]], run.values)
        stats["ascent_iterations"] += run.iterations
        stats["chart_solves"] += run.iterations + 1
        stats["capped"] += int(run.capped.sum())
    raster.values = flat.reshape(raster.ny, raster.nx)
    return stats


_COARSE_ANGLES = 6  # foot angles per circle of the coarse family, swept everywhere
_FINE_ANGLES = 12  # ... and of the fine family, swept near the threshold
_ASCENT_ROWS = 512  # band pixels per ascent batch, to bound its memory
_RASTER_CHUNK = 8192  # pixels per family sweep, to bound its memory
_BAND_MARGIN = 0.06  # the fine family runs where the coarse value is this near r


# -- disconnected-ball witness ---------------------------------------------------


@dataclass
class Witness:
    found: bool
    domain: CircularDomain | None = None
    p_tilde: complex | None = None
    zeta: complex | None = None
    r1: float | None = None
    r2: float | None = None
    xi: complex | None = None
    component_count: int = 0
    raster: BallRaster | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "found": self.found,
            "component_count": self.component_count,
            "diagnostics": self.diagnostics,
        }
        if self.domain is not None:
            out["domain"] = self.domain.to_dict()
        for name in ("r1", "r2"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        for name in ("p_tilde", "zeta", "xi"):
            val = getattr(self, name)
            if val is not None:
                out[name] = [val.real, val.imag]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


_MIN_DISK_PX = 3  # pixels: the disk each component of a disconnection must hold
_THRESHOLD_COUNT = 24  # thresholds scanned per witness attempt


def disconnection_thresholds(
    raster: BallRaster,
    p_tilde: complex,
    zeta: complex,
    thresholds,
    require_compact: bool = True,
):
    """Scan thresholds for a certified disconnection: the base point and the
    probe in different 4-connected components, each containing a disk of
    ``_MIN_DISK_PX`` pixels, and (optionally) the whole sublevel set staying
    clear of the domain boundary.  Returns (threshold, labels) or None."""
    for r1 in thresholds:
        lab = raster.relabel(r1)
        try:
            cp = raster.component_of(p_tilde)
            cz = raster.component_of(zeta)
        except ResolutionError:
            continue
        if cp <= 0 or cz <= 0 or cp == cz:
            continue
        if not (raster.component_has_disk(cp, _MIN_DISK_PX)
                and raster.component_has_disk(cz, _MIN_DISK_PX)):
            continue
        if require_compact and any(
            raster.touches_domain_boundary(l) for l in range(1, lab.max() + 1)
        ):
            continue
        return float(r1), lab
    return None


def find_disconnected_ball(
    base_circles=((-0.5 + 0j, 0.15),),
    shrink_center: complex = 0.4 + 0j,
    shrink_radii=(0.1, 0.05, 0.02),
    p_depths=(0.05, 0.02),
    zeta_gap: float = 0.02,
    resolution: int = 300,
    opts: DistanceOptions | None = None,
    order: int = 24,
) -> Witness:
    """Search the shrinking-circle family for a disconnected Moebius ball.

    For each shrink radius and base-point depth the search rasters
    c*(p_tilde, .), scans thresholds above c*(p_tilde, zeta) for a certified
    disconnection, and on success derives the closed-ball witness: the
    far component S, its closest point xi, r2 = c*(p_tilde, xi), and the
    certificate that the open r2-ball stays one pixel diagonal away from xi
    (so its closure cannot contain xi while the closed ball does).

    The thresholds scanned lie in (c*(p_tilde, zeta), 1], within the band
    the raster polishes; every attempt records its ``scan_window``, and an
    attempt whose window is empty (c* within 0.05 refine margins of 1) is
    marked ``"scan": "empty"`` and skipped without a raster.

    On failure returns a Witness with found=False carrying the attained
    proximity proxies of the sufficient condition, so the parameter sweep
    can be extended.  Everything, the proxies included, comes from the
    harmonic model of each domain (basis ``order``).
    """
    opts = opts or DistanceOptions()

    attempts = []
    for radius in shrink_radii:
        circles = tuple(Circle(complex(q), float(r)) for q, r in base_circles)
        circles = circles + (Circle(complex(shrink_center), float(radius)),)
        domain = CircularDomain(circles)
        model = solve_harmonic_measures(domain, order=order)

        anchor = circles[0]
        away = (anchor.q - complex(shrink_center))
        away /= abs(away)
        toward = -away
        zeta = complex(shrink_center) + (radius + zeta_gap) * toward

        shrink_index = len(circles)
        beta = _beta_proxies(model, zeta, anchor, shrink_index, complex(shrink_center), radius)

        for depth in p_depths:
            p_tilde = anchor.q + (anchor.r + depth) * away
            base = mobius_distance(model, None, None, p_tilde, zeta, opts)
            # thresholds strictly above c*(p_tilde, zeta) and at most 1, inside
            # the polished band around the raster threshold
            lo = base.value + max(1e-5, 0.05 * opts.refine_margin)
            hi = min(base.value + 0.95 * opts.refine_margin, 1.0)
            attempt = {
                "shrink_radius": radius,
                "p_depth": depth,
                "c_star_zeta": base.value,
                "scan_window": [lo, hi],
                **beta,
            }
            attempts.append(attempt)
            if lo >= hi:
                attempt["scan"] = "empty"
                continue
            raster = ball_raster(model, None, None, p_tilde, 0.5 * (lo + hi),
                                 resolution=resolution, opts=opts)
            scan = lo + (hi - lo) * np.linspace(0.0, 1.0, _THRESHOLD_COUNT)
            hit = disconnection_thresholds(raster, p_tilde, zeta, scan)
            if hit is None:
                continue
            r1, _ = hit
            raster.relabel(r1)
            far = raster.component_of(zeta)
            far_mask = raster.labels == far
            far_vals = np.where(far_mask, raster.values, np.inf)
            iy, ix = np.unravel_index(np.argmin(far_vals), far_vals.shape)
            xi = complex(raster.pixel_centers()[iy, ix])
            r2 = mobius_distance(model, None, None, p_tilde, xi, opts).value

            px, py = raster.pixel_size
            diag = math.hypot(px, py)
            open_ball = ~np.isnan(raster.values) & (raster.values < r2)
            if open_ball.any():
                centers = raster.pixel_centers()
                gap = float(np.min(np.abs(centers[open_ball] - xi)))
            else:
                gap = math.inf
            attempt.update({"r1": r1, "r2": r2, "closure_gap": gap})
            if gap <= diag or not (r2 < r1):
                continue
            return Witness(
                found=True, domain=domain, p_tilde=complex(p_tilde), zeta=zeta,
                r1=r1, r2=r2, xi=xi,
                component_count=raster.component_count(),
                raster=raster,
                diagnostics={"attempts": attempts, "closure_gap": gap,
                             "pixel_diagonal": diag},
            )
    return Witness(found=False, diagnostics={"attempts": attempts})


def _beta_proxies(model, zeta, anchor, shrink_index, shrink_center, radius):
    """Finite proxies for the sufficient-condition limits: slit-map ratios
    |eta_l(zeta, q)| / |eta_l(w, q)| between the probe point and a point w
    of the anchor circle, with the zero q a small distance off the shrinking
    circle (first, l = 0) and off the unit circle (second, l = the shrinking
    circle).  Disconnection asymptotically requires proxy1 * proxy2 < 1;
    reporting both shows how far a failed sweep was from the regime.

    log|eta_l(., q)| is harmonic off q with a log pole there, vanishes on
    circle l and is constant on the other circles, so it is
    -G(., q) + b . (u - e_l): u the measures, e_l their values on circle l
    (e_0 = 0), and b fixed by the fluxes, cmat^T b = u(q) - e_l, with cmat
    the measures' log-term coefficients.  -b . e_l cancels in the ratio.
    """
    g = model.g
    cmat = model.coeffs[:, 1 : 1 + g]
    green = GreenFunction(model)
    pts = np.array([zeta, anchor.q + anchor.r * 1j])
    u = model.eval_u_all(pts)

    def log_ratio(l, q):
        b = np.linalg.solve(cmat.T, model.eval_u_all(q)[0] - np.eye(g + 1)[l, 1:])
        vals = u @ b - green(pts, [q])[:, 0]
        return vals[0] - vals[1]

    q_probe = shrink_center + (radius + 1e-3) * (zeta - shrink_center) / abs(zeta - shrink_center)
    beta1 = math.exp(log_ratio(0, q_probe))
    qhat = (1 - 1e-3) * zeta / abs(zeta)
    beta2 = math.exp(log_ratio(shrink_index, qhat))
    return {"beta1_proxy": beta1, "beta2_proxy": beta2, "beta_product": beta1 * beta2}


# -- annulus oracle ---------------------------------------------------------------


_WANG_YIN_TERMS = 10  # factor pairs per side of the two-sided product


def wang_yin_eval(r: float, zeros, d: int, z):
    """Proper map of the annulus r < |z| < 1 with the given zeros and inner
    boundary degree d, by the classical two-sided Blaschke-type product
    (rotation normalized at z = 1).  Requires |prod zeros| = r^d; used as an
    independent oracle for the prime-function constructions."""
    zeros = [complex(p) for p in zeros]
    if not zeros:
        raise AdmissibilityError("need at least one zero")
    prod_mod = float(np.prod([abs(p) for p in zeros]))
    if abs(prod_mod - r**d) > 1e-8:
        raise AdmissibilityError(
            f"|prod zeros| = {prod_mod:.12g} != r^d = {r**d:.12g}"
        )

    def raw(w):
        acc = w ** (-float(d)) + 0j
        for p in zeros:
            acc = acc * (w - p) / (1 - np.conj(p) * w)
            for j in range(1, _WANG_YIN_TERMS + 1):
                acc = acc * (w - p * r ** (2 * j)) * (w - p * r ** (-2 * j)) / (
                    (1 - np.conj(p) * r ** (2 * j) * w)
                    * (1 - np.conj(p) * r ** (-2 * j) * w)
                )
        return acc

    return _pointwise(lambda z: raw(z) / raw(np.array([1.0 + 0j]))[0], z)
