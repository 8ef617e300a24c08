"""Moebius/Caratheodory distances, distance rasters, and the disconnected
ball search.

The Moebius distance from a base point is the supremum of |f(zeta)| over
holomorphic maps into the disk vanishing there; the supremum is attained by
a proper map of degree g+1, so it is computed by maximizing over the
g-dimensional manifold of admissible zero sets {base point} + P.  Each
member of P lives on a chart line normal to one inner circle: the optimizer
moves the g foot angles, and the g depths are re-solved from the zero
condition at every step.

Rasters of the distance over a pixel grid drive the connectivity analysis:
a sweep over a deterministic family of charted zero sets gives a sharp
lower envelope everywhere, and pixels near the threshold of interest are
polished with the full per-pixel optimizer.  Flood-fill labels of the
sublevel set then certify (or refute) disconnected balls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.optimize import minimize

from .domain import CircularDomain
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    DomainError,
    ResolutionError,
)
from .harmonic import GreenFunction, HarmonicModel, IntegralsFirstKind, solve_harmonic_measures
from .prime import PrimeEvaluator
from .slitmaps import eta, eta_l

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

_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=int)


@dataclass(frozen=True)
class DistanceOptions:
    """Knobs for the extremal search.  The seed fixes every multi-start
    draw, so identical inputs give identical outputs."""

    seed: int = 0
    n_starts: int = 8
    xatol: float = 1e-4
    fatol: float = 1e-10
    nm_maxiter: int | None = None
    family_angles: int = 12
    coarse_angles: int = 6
    refine_margin: float = 0.025
    band_margin: float = 0.06
    refine_cap: int = 4000
    refine_maxiter: int = 40


@dataclass(frozen=True)
class DistanceResult:
    value: float
    argmax: tuple[complex, ...]
    angles: tuple[float, ...]
    warning: str | None = None


class _ExtremalSearch:
    """Shared machinery: charted zero sets with the base point fixed, and
    |f(zeta)| = exp(-G(zeta, p_tilde) - sum_k G(zeta, p_k)) from the
    domain's Green's function (magnitude only, so no rotation needed)."""

    def __init__(self, model: HarmonicModel, p_tilde: complex):
        self.model = model
        self.p = complex(p_tilde)
        d = model.domain
        self.domain = d
        self.g = d.g
        if not d.contains(self.p):
            raise DomainError("base point is not in the domain")
        if d.g:
            self.targets = 1.0 - model.eval_u_all(self.p)[0]  # (g,)
            if np.any(self.targets <= 0) or np.any(self.targets >= 1):
                raise DomainError("base point measures out of range")
            self.green = GreenFunction(model)

    # -- chart ---------------------------------------------------------------

    def solve_depths(self, angles: np.ndarray, seed_depths: np.ndarray | None = None):
        """Zero positions for the chart angles, or None when the Newton
        solve fails (invalid chart point)."""
        d = self.domain
        g = self.g
        feet = np.array([c.point(a) for c, a in zip(d.inner_circles, angles)], dtype=complex)
        dirs = (feet - d.centers) / d.radii
        exits = np.array([_ray_exit(d, k + 1, feet[k], dirs[k]) for k in range(g)])
        model = self.model
        if seed_depths is None:
            # diagonal seed, one bisection for all circles: the depth where
            # each point alone accounts for its own circle's target measure
            lo, hi = np.full(g, 1e-9), exits * (1 - 1e-9)
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                above = np.diagonal(model.eval_u_all(feet + mid * dirs)) > self.targets
                lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
            s = 0.5 * (lo + hi)
        else:
            s = np.clip(seed_depths, 1e-9, exits * (1 - 1e-9))
        for _ in range(40):
            pts = feet + s * dirs
            u, grad = model.eval_u_grad(pts)
            fval = u.sum(axis=0) - self.targets
            if np.max(np.abs(fval)) < 1e-11:
                if not np.all(d.contains(pts, margin=-1e-12)):
                    return None
                return pts, s
            jac = np.real(grad * dirs[:, None]).T
            try:
                step = np.linalg.solve(jac, -fval)
            except np.linalg.LinAlgError:
                return None
            # stay inside the chart box: nonnegative depth, short of the exit
            s = np.clip(s + step, 1e-12, exits * (1 - 1e-12))
        return None

    # -- per-point optimization -------------------------------------------------

    def optimize(self, zeta: complex, opts: DistanceOptions,
                 extra_seeds=()) -> DistanceResult:
        zeta = complex(zeta)
        g = self.g
        if g == 0:
            val = abs((zeta - self.p) / (1 - self.p.conjugate() * zeta))
            return DistanceResult(val, (), ())
        rng = np.random.default_rng(opts.seed)
        seeds = [np.asarray(s, dtype=float) for s in extra_seeds]
        seeds.append(np.array([
            math.atan2((zeta - c.q).imag, (zeta - c.q).real) + np.pi
            for c in self.domain.inner_circles
        ]))
        seeds.append(np.array([
            math.atan2((self.p - c.q).imag, (self.p - c.q).real)
            for c in self.domain.inner_circles
        ]))
        while len(seeds) < opts.n_starts:
            seeds.append(rng.uniform(0.0, 2 * np.pi, size=g))
        seeds = seeds[: max(opts.n_starts, len(extra_seeds))]

        depth_cache: dict[int, np.ndarray] = {}
        # by symmetry G(., zeta) serves every zero set: one fit per point
        green = self.green.kernel(zeta)
        base = float(green(self.p)[0, 0])

        def objective(phi: np.ndarray) -> float:
            sol = self.solve_depths(phi, depth_cache.get(0))
            if sol is None:
                return 0.5  # repel: valid values are negative (we minimize -|f|)
            pts, s = sol
            depth_cache[0] = s
            return -math.exp(-(base + green(pts).sum()))

        maxiter = opts.nm_maxiter or 100 * g
        best_val, best_phi = -np.inf, None
        warning = None
        for x0 in seeds:
            depth_cache.clear()
            res = minimize(
                objective, x0, method="Nelder-Mead",
                options={"xatol": opts.xatol, "fatol": opts.fatol,
                         "maxiter": maxiter, "maxfev": 4 * maxiter},
            )
            if -res.fun > best_val:
                best_val, best_phi = -res.fun, res.x
                if not res.success:
                    warning = "optimizer stagnation: supremum may only be approached"
                else:
                    warning = None
        if best_phi is None or best_val <= 0:
            raise ConvergenceError("extremal search failed at every seed")
        sol = self.solve_depths(best_phi)
        zeros = tuple(complex(z) for z in sol[0]) if sol else ()
        return DistanceResult(float(best_val), zeros,
                              tuple(float(a) % (2 * np.pi) for a in best_phi), warning)


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
    ``ev`` and ``v`` are kept for API stability and are not used."""
    search = _ExtremalSearch(model, p_tilde)
    return search.optimize(zeta, opts or DistanceOptions())


def caratheodory_distance(
    model: HarmonicModel,
    ev: PrimeEvaluator,
    v: IntegralsFirstKind | None,
    p_tilde: complex,
    zeta: complex,
    opts: DistanceOptions | None = None,
) -> float:
    """atanh of the Moebius distance (the two metrics share sublevel sets)."""
    return math.atanh(mobius_distance(model, ev, v, p_tilde, zeta, opts).value)


def product_distance(c1: float, lam: complex) -> float:
    """Caratheodory distance on a product with a disk factor:
    max of the first-factor distance and atanh|lambda|."""
    if c1 < 0:
        raise DomainError("distances are nonnegative")
    return max(c1, math.atanh(abs(lam)))


# -- rasters -------------------------------------------------------------------


@dataclass
class BallRaster:
    """Grid of Moebius-distance values with sublevel-set connectivity labels.

    values[iy, ix] is c*(center, pixel); NaN outside the domain.  labels:
    -1 outside, 0 at or above the threshold, 1..k for the connected
    components (4-neighborhood, first-encounter order)."""

    bbox: tuple[float, float, float, float]
    nx: int
    ny: int
    center: complex
    threshold: float
    values: np.ndarray
    labels: np.ndarray = field(default=None)

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
        ix = int((z.real - x0) / (x1 - x0) * self.nx)
        iy = int((z.imag - y0) / (y1 - y0) * self.ny)
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise ResolutionError(f"point {z} outside the raster bbox")
        return iy, ix

    def relabel(self, threshold: float | None = None) -> np.ndarray:
        """(Re)compute the flood-fill labels of {value < threshold}."""
        if threshold is not None:
            self.threshold = float(threshold)
        inside = ~np.isnan(self.values)
        mask = inside & (self.values < self.threshold)
        lab, _ = ndimage.label(mask, structure=_FOUR_CONN)
        lab = lab.astype(np.int32)
        lab[~inside] = -1
        self.labels = lab
        return lab

    def component_of(self, z: complex) -> int:
        iy, ix = self.pixel_of(z)
        return int(self.labels[iy, ix])

    def component_count(self) -> int:
        return int(self.labels.max())

    def component_has_disk(self, label: int, radius_px: int = 3) -> bool:
        """Whether the component contains a full L2 disk of the given pixel
        radius (immunity to single-pixel noise)."""
        mask = self.labels == label
        yy, xx = np.mgrid[-radius_px : radius_px + 1, -radius_px : radius_px + 1]
        disk = (xx**2 + yy**2) <= radius_px**2
        return bool(ndimage.binary_erosion(mask, structure=disk).any())

    def touches_domain_boundary(self, label: int) -> bool:
        """Whether the component touches a pixel bordering the domain
        complement (negation certifies relative compactness at grid scale)."""
        outside = self.labels == -1
        grown = ndimage.binary_dilation(outside, structure=_FOUR_CONN.astype(bool))
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


def ball_raster(
    model: HarmonicModel,
    ev: PrimeEvaluator,
    v: IntegralsFirstKind | None,
    p_tilde: complex,
    r: float,
    bbox: tuple[float, float, float, float] = (-1.0, -1.0, 1.0, 1.0),
    resolution: int | tuple[int, int] = 300,
    opts: DistanceOptions | None = None,
    chunk: int = 8192,
) -> BallRaster:
    """Raster of c*(p_tilde, .) over the grid with flood-fill labels of the
    sublevel set {c* < r}.

    The values are computed as the upper envelope of a deterministic family
    of charted extremal maps (a coarse family everywhere, a fine family on
    the band around the threshold), then pixels within ``refine_margin`` of
    the threshold are polished with the per-pixel optimizer seeded from the
    family argmax.  Every |f| comes from the domain's Green's function on
    the harmonic series basis of ``model``: a family sweep is one product of
    the pixel basis with the fits of all the family's zeros.  ``ev`` and
    ``v`` are kept for API stability and are not used.  Deterministic for a
    fixed option set.
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

    family: list = []
    argmax_member = np.zeros(len(idx), dtype=np.int32)
    if search.g == 0:
        pz = zs[idx]
        vals = np.abs((pz - search.p) / (1 - np.conj(search.p) * pz))
    else:
        coarse = _build_family(search, opts.coarse_angles)
        fine = _build_family(search, opts.family_angles)
        family = coarse + fine
        for lo in range(0, len(idx), chunk):
            zchunk = zs[idx[lo : lo + chunk]]
            # -log|f| = G(., p_tilde) + sum_k G(., p_k): the envelope is the
            # smallest sum over the members
            base = search.green(zchunk, search.p)[:, 0]
            total, amax = _member_min(search, zchunk, coarse, base)
            # fine family only where the value could cross the threshold
            band = np.flatnonzero(np.abs(np.exp(-total) - r) < opts.band_margin)
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

    if search.g and opts.refine_cap > 0:
        _refine_band(raster, search, opts, idx, argmax_member, family, zs)
    raster.relabel()
    return raster


def _ray_exit(d: CircularDomain, own: int, foot: complex, direction: complex) -> float:
    """Distance along the inward ray from a boundary foot to the first other
    boundary circle (the chart box for the depth unknown)."""
    best = np.inf
    for l in range(d.g + 1):
        if l == own:
            continue
        c = d.circle(l)
        # |foot - q + s u|^2 = r^2 with |u| = 1
        w = foot - c.q
        b = (w.conjugate() * direction).real
        disc = b * b - (abs(w) ** 2 - c.r**2)
        if disc < 0:
            continue
        root = math.sqrt(disc)
        for s in (-b - root, -b + root):
            if s > 1e-12:
                best = min(best, s)
    return best


def _build_family(search: _ExtremalSearch, n_angles: int):
    """Solve the chart for a deterministic grid of foot angles; returns the
    list of zero tuples (failed chart points are skipped)."""
    g = search.g
    grids = np.meshgrid(*[np.arange(n_angles) * (2 * np.pi / n_angles)] * g,
                        indexing="ij")
    combos = np.stack([a.ravel() for a in grids], axis=1)
    out = []
    depths = None
    for row in combos:
        sol = search.solve_depths(row, depths)
        if sol is None:
            sol = search.solve_depths(row, None)
        if sol is None:
            continue
        pts, depths = sol
        out.append(tuple(complex(z) for z in pts))
    return out


def _member_min(search: _ExtremalSearch, z: np.ndarray, members, base: np.ndarray):
    """base + the smallest sum_k G(z, p_k) over the members' zero sets, with
    the index of the member attaining it; one fit for all the members' zeros."""
    if not members:
        return np.full(len(z), np.inf), np.zeros(len(z), dtype=np.int32)
    zeros = np.asarray(members, dtype=complex)  # (members, g)
    sums = search.green(z, zeros.ravel()).reshape(len(z), *zeros.shape).sum(axis=2)
    best = np.argmin(sums, axis=1).astype(np.int32)
    return base + sums[np.arange(len(z)), best], best


def _refine_band(raster, search, opts, idx, argmax_member, family, zs):
    """Per-pixel Nelder-Mead polish near the threshold, seeded from the
    family argmax (deterministic row-major order)."""
    r = raster.threshold
    flat = raster.values.ravel()
    band = np.abs(flat[idx] - r) < opts.refine_margin
    order = idx[band]
    if len(order) > opts.refine_cap:
        # keep the pixels closest to the threshold
        key = np.abs(flat[order] - r)
        order = order[np.argsort(key, kind="stable")[: opts.refine_cap]]
        order = np.sort(order)
    pos = {pix: k for k, pix in enumerate(idx)}
    for pix in order:
        zeta = zs[pix]
        mi = argmax_member[pos[pix]]
        seed_angles = _angles_of_zeros(family[mi], search.domain)
        res = search.optimize(
            zeta,
            DistanceOptions(seed=opts.seed, n_starts=1, xatol=opts.xatol,
                            fatol=opts.fatol, nm_maxiter=opts.refine_maxiter),
            extra_seeds=[seed_angles],
        )
        if res.value > flat[pix]:
            flat[pix] = res.value
    raster.values = flat.reshape(raster.ny, raster.nx)


def _angles_of_zeros(zeros, d: CircularDomain) -> np.ndarray:
    # a charted zero sits on the normal ray of its circle, so the foot angle
    # is just the argument of (zero - center)
    return np.array([
        math.atan2((z - c.q).imag, (z - c.q).real)
        for z, c in zip(zeros, d.inner_circles)
    ])


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


def disconnection_thresholds(
    raster: BallRaster,
    p_tilde: complex,
    zeta: complex,
    thresholds,
    min_disk_px: int = 3,
    require_compact: bool = True,
):
    """Scan thresholds for a certified disconnection: the base point and the
    probe in different 4-connected components, each containing a disk of
    ``min_disk_px`` pixels, and (optionally) the whole sublevel set staying
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
        if not (raster.component_has_disk(cp, min_disk_px)
                and raster.component_has_disk(cz, min_disk_px)):
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
    max_word_length: int = 4,
    threshold_count: int = 24,
) -> Witness:
    """Search the shrinking-circle family for a disconnected Moebius ball.

    For each shrink radius and base-point depth the search rasters
    c*(p_tilde, .), scans thresholds above c*(p_tilde, zeta) for a certified
    disconnection, and on success derives the closed-ball witness: the
    far component S, its closest point xi, r2 = c*(p_tilde, xi), and the
    certificate that the open r2-ball stays one pixel diagonal away from xi
    (so its closure cannot contain xi while the closed ball does).

    On failure returns a Witness with found=False carrying the attained
    proximity proxies of the sufficient condition, so the parameter sweep
    can be extended.
    """
    opts = opts or DistanceOptions()
    from .domain import Circle  # local import to keep module load light

    attempts = []
    for radius in shrink_radii:
        circles = tuple(Circle(complex(q), float(r)) for q, r in base_circles)
        circles = circles + (Circle(complex(shrink_center), float(radius)),)
        domain = CircularDomain(circles)
        model = solve_harmonic_measures(domain, order=order)
        ev = PrimeEvaluator(domain, max_word_length=max_word_length)

        anchor = circles[0]
        away = (anchor.q - complex(shrink_center))
        away /= abs(away)
        toward = -away
        zeta = complex(shrink_center) + (radius + zeta_gap) * toward

        shrink_index = len(circles)
        beta = _beta_proxies(domain, ev, zeta, anchor, shrink_index,
                             complex(shrink_center), radius)

        for depth in p_depths:
            p_tilde = anchor.q + (anchor.r + depth) * away
            base = mobius_distance(model, ev, None, p_tilde, zeta, opts)
            r_center = min(base.value + 0.5 * opts.refine_margin, 0.98)
            raster = ball_raster(model, ev, None, p_tilde, r_center,
                                 resolution=resolution, opts=opts)
            # scan inside the polished band around the raster threshold
            lo = max(base.value + 1e-5, r_center - 0.45 * opts.refine_margin)
            hi = r_center + 0.45 * opts.refine_margin
            scan = lo + (hi - lo) * np.linspace(0.0, 1.0, threshold_count)
            hit = disconnection_thresholds(raster, p_tilde, zeta, scan)
            attempt = {
                "shrink_radius": radius,
                "p_depth": depth,
                "c_star_zeta": base.value,
                **beta,
            }
            attempts.append(attempt)
            if hit is None:
                continue
            r1, _ = hit
            raster.relabel(r1)
            far = raster.component_of(zeta)
            far_mask = raster.labels == far
            far_vals = np.where(far_mask, raster.values, np.inf)
            iy, ix = np.unravel_index(np.argmin(far_vals), far_vals.shape)
            xi = complex(raster.pixel_centers()[iy, ix])
            r2 = mobius_distance(model, ev, None, p_tilde, xi, opts).value

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


def _beta_proxies(domain, ev, zeta, anchor, shrink_index, shrink_center, radius):
    """Finite proxies for the sufficient-condition limits: slit-map ratios
    between the probe point and the anchor circle, with the zero a small
    distance off the shrinking circle (first) and off the unit circle
    (second).  Disconnection asymptotically requires proxy1 * proxy2 < 1;
    reporting both shows how far a failed sweep was from the regime."""
    w1 = anchor.q + anchor.r * 1j  # a point of the anchor circle
    q_probe = shrink_center + (radius + 1e-3) * (zeta - shrink_center) / abs(zeta - shrink_center)
    beta1 = abs(eta(ev, zeta, q_probe)) / abs(eta(ev, w1, q_probe))
    qhat = (1 - 1e-3) * zeta / abs(zeta)
    beta2 = abs(eta_l(ev, shrink_index, zeta, qhat)) / abs(eta_l(ev, shrink_index, w1, qhat))
    return {
        "beta1_proxy": float(beta1),
        "beta2_proxy": float(beta2),
        "beta_product": float(beta1 * beta2),
    }


# -- annulus oracle ---------------------------------------------------------------


def wang_yin_eval(r: float, zeros, d: int, z, terms: int = 10):
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
    scalar = np.isscalar(z) or isinstance(z, complex)
    z = np.atleast_1d(np.asarray(z, dtype=complex))

    def raw(w):
        acc = w ** (-float(d)) + 0j
        for p in zeros:
            acc = acc * (w - p) / (1 - np.conj(p) * w)
            for j in range(1, terms + 1):
                acc = acc * (w - p * r ** (2 * j)) * (w - p * r ** (-2 * j)) / (
                    (1 - np.conj(p) * r ** (2 * j) * w)
                    * (1 - np.conj(p) * r ** (-2 * j) * w)
                )
        return acc

    out = raw(z) / raw(np.array([1.0 + 0j]))[0]
    return complex(out[0]) if scalar else out
