"""Circular domains, circle reflections and Moebius maps.

A circular domain is the open unit disk minus ``g`` disjoint closed disks.
The unit circle is always boundary index 0; the inner circles are indexed
1..g.  Everything downstream (Schottky groups, the prime function, harmonic
measures) is built on top of the geometry defined here.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError

__all__ = [
    "INFINITY",
    "is_infinity",
    "Circle",
    "CircularDomain",
    "MobiusMap",
    "ValidationReport",
    "validate_domain",
    "reflect",
    "mobius_apply",
    "mobius_compose",
    "mobius_invert",
]

#: Explicit extended-complex value for the point at infinity.  Reflections of
#: circle centers land here, so it is represented rather than overflowed.
INFINITY = complex(math.inf, math.inf)


def is_infinity(z: complex) -> bool:
    return math.isinf(z.real) or math.isinf(z.imag)


@dataclass(frozen=True)
class Circle:
    """A circle with center ``q`` and radius ``r > 0``."""

    q: complex
    r: float

    def point(self, angle: float) -> complex:
        return self.q + self.r * cmath.exp(1j * angle)

    def samples(self, n: int) -> np.ndarray:
        """``n`` equispaced boundary points, starting at angle 0."""
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return self.q + self.r * np.exp(1j * t)


UNIT_CIRCLE = Circle(0j, 1.0)


def _frozen_array(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _pointwise(fn, z, kind=complex):
    """``fn`` applied to ``z`` raveled to a 1-d complex array, its result
    shaped as ``z`` followed by the result's own trailing axes.  A scalar
    ``z`` gets ``kind`` of the result's first entry back."""
    scalar = np.isscalar(z) or isinstance(z, complex)
    z = np.asarray(z, dtype=complex)
    out = fn(z.ravel())
    return kind(out[0]) if scalar else out.reshape(z.shape + out.shape[1:])


@dataclass(frozen=True)
class CircularDomain:
    """Unit disk minus ``g`` disjoint closed inner disks.

    ``inner_circles`` may be empty (g = 0), which is the plain unit disk and
    serves as the degenerate reference case throughout the library.
    """

    inner_circles: tuple[Circle, ...] = field(default_factory=tuple)

    @property
    def g(self) -> int:
        return len(self.inner_circles)

    def circle(self, l: int) -> Circle:
        """Boundary circle by index; 0 is the unit circle."""
        if l == 0:
            return UNIT_CIRCLE
        if 1 <= l <= self.g:
            return self.inner_circles[l - 1]
        raise DomainError(f"no boundary circle with index {l} (g={self.g})")

    # the chart solvers read these on every iteration: built once per
    # (frozen) domain, read-only so no caller can change them for the others

    @cached_property
    def centers(self) -> np.ndarray:
        return _frozen_array([c.q for c in self.inner_circles], complex)

    @cached_property
    def radii(self) -> np.ndarray:
        return _frozen_array([c.r for c in self.inner_circles], float)

    def contains(self, z, margin: float = 0.0):
        """Whether ``z`` lies in the open domain, with an optional safety
        margin (positive margin shrinks the domain)."""
        z = np.asarray(z, dtype=complex)
        inside = np.abs(z) < 1.0 - margin
        for c in self.inner_circles:
            inside &= np.abs(z - c.q) > c.r + margin
        return inside if inside.shape else bool(inside)

    def boundary_distance(self, z) -> float:
        """Distance from ``z`` to the nearest boundary circle (signed inside:
        positive iff ``z`` is in the domain)."""
        z = np.asarray(z, dtype=complex)
        d = 1.0 - np.abs(z)
        for c in self.inner_circles:
            d = np.minimum(d, np.abs(z - c.q) - c.r)
        return d if d.shape else float(d)

    # JSON schema: {"inner_circles":[{"q":[re,im],"r":real},...]}

    @classmethod
    def from_json(cls, text: str) -> "CircularDomain":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"malformed domain JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "CircularDomain":
        if not isinstance(data, dict) or "inner_circles" not in data:
            raise DomainError('domain JSON must contain "inner_circles"')
        circles = []
        for entry in data["inner_circles"]:
            try:
                re, im = entry["q"]
                r = float(entry["r"])
            except (KeyError, TypeError, ValueError) as exc:
                raise DomainError(f"malformed circle entry {entry!r}") from exc
            circles.append(Circle(complex(re, im), r))
        return cls(tuple(circles))

    def to_dict(self) -> dict:
        return {
            "inner_circles": [
                {"q": [c.q.real, c.q.imag], "r": c.r} for c in self.inner_circles
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class MobiusMap:
    """Linear-fractional map z -> (az + b)/(cz + d) with ad - bc != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        if self.det == 0:
            raise DomainError("degenerate Moebius map (ad - bc = 0)")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    def normalized(self) -> "MobiusMap":
        """Scale the coefficients so the determinant is 1 (fixes the scale
        ambiguity; the map itself is unchanged)."""
        s = cmath.sqrt(self.det)
        return MobiusMap(self.a / s, self.b / s, self.c / s, self.d / s)

    def __call__(self, z):
        return mobius_apply(self, z)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        return mobius_compose(self, other)

    def inverse(self) -> "MobiusMap":
        return mobius_invert(self)

    def derivative(self, z):
        """d/dz of the map: det / (cz + d)^2."""
        w = self.c * np.asarray(z, dtype=complex) + self.d
        return self.det / (w * w)


def mobius_apply(m: MobiusMap, z):
    """Apply ``m`` to a scalar or array.  The pole maps to ``INFINITY`` and
    ``INFINITY`` maps to a/c (or ``INFINITY`` when c = 0)."""
    if np.isscalar(z) or isinstance(z, complex):
        z = complex(z)
        if is_infinity(z):
            return INFINITY if m.c == 0 else m.a / m.c
        den = m.c * z + m.d
        if den == 0:
            return INFINITY
        return (m.a * z + m.b) / den
    z = np.asarray(z, dtype=complex)
    den = m.c * z + m.d
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (m.a * z + m.b) / den
    out[den == 0] = INFINITY
    return out


def _mobius_unchecked(a, b, c, d) -> MobiusMap:
    # Bypasses the determinant check: long compositions of strongly
    # contracting maps are mathematically nondegenerate but their computed
    # determinant suffers catastrophic cancellation.
    m = object.__new__(MobiusMap)
    object.__setattr__(m, "a", a)
    object.__setattr__(m, "b", b)
    object.__setattr__(m, "c", c)
    object.__setattr__(m, "d", d)
    return m


def mobius_compose(m1: MobiusMap, m2: MobiusMap) -> MobiusMap:
    """Composition m1 o m2 (apply m2 first).  The coefficients are rescaled
    by their largest modulus, which changes nothing (a Moebius map is a
    projective class) but keeps long composition chains within floating
    range."""
    a = m1.a * m2.a + m1.b * m2.c
    b = m1.a * m2.b + m1.b * m2.d
    c = m1.c * m2.a + m1.d * m2.c
    d = m1.c * m2.b + m1.d * m2.d
    s = max(abs(a), abs(b), abs(c), abs(d))
    if s > 0:
        a, b, c, d = a / s, b / s, c / s, d / s
    return _mobius_unchecked(a, b, c, d)


def mobius_invert(m: MobiusMap) -> MobiusMap:
    return MobiusMap(m.d, -m.b, -m.c, m.a)


def reflect(d: CircularDomain, l: int, z):
    """Reflection in boundary circle ``l``: q + r^2 / (conj(z) - conj(q)).

    An involution; points on the circle are fixed.  Reflecting the center is
    a domain error (the image is the point at infinity, returned explicitly
    for arrays, raised for scalars).
    """
    c = d.circle(l)
    if np.isscalar(z) or isinstance(z, complex):
        z = complex(z)
        if is_infinity(z):
            return c.q
        if z == c.q:
            raise DomainError(f"reflection pole: z equals center of circle {l}")
        return c.q + c.r**2 / (z - c.q).conjugate()
    z = np.asarray(z, dtype=complex)
    w = np.conj(z - c.q)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = c.q + c.r**2 / w
    out[w == 0] = INFINITY
    return out


@dataclass(frozen=True)
class ValidationReport:
    is_valid: bool
    separation: float
    convergence_class: str  # real_axis_centers | well_separated | unverified
    messages: tuple[str, ...] = ()


def validate_domain(d: CircularDomain) -> ValidationReport:
    """Check the domain invariants and classify convergence prospects.

    Never raises: invalid geometry yields ``is_valid=False``.  The
    classification drives expectations for the prime-function product:
    ``real_axis_centers`` is the case with a convergence guarantee,
    ``well_separated`` a cheap sufficient proxy, ``unverified`` means
    evaluation is allowed but convergence is only checked empirically.
    """
    msgs = []
    slacks = []
    for i, c in enumerate(d.inner_circles, start=1):
        if c.r <= 0:
            msgs.append(f"circle {i}: radius {c.r} is not positive")
            slacks.append(c.r)
        s = 1.0 - abs(c.q) - c.r
        slacks.append(s)
        if s <= 0:
            msgs.append(f"circle {i}: not strictly inside the unit disk (slack {s:.3g})")
    for i in range(d.g):
        for j in range(i + 1, d.g):
            ci, cj = d.inner_circles[i], d.inner_circles[j]
            s = abs(ci.q - cj.q) - ci.r - cj.r
            slacks.append(s)
            if s <= 0:
                msgs.append(f"circles {i + 1},{j + 1}: closed disks intersect (slack {s:.3g})")
    separation = min(slacks) if slacks else 1.0
    is_valid = separation > 0

    if not is_valid:
        return ValidationReport(False, separation, "unverified", tuple(msgs))

    if all(c.q.imag == 0.0 for c in d.inner_circles):
        cls = "real_axis_centers"
    elif _well_separated(d):
        cls = "well_separated"
    else:
        cls = "unverified"
        msgs.append("no convergence guarantee; prime-function residuals should be checked")
    return ValidationReport(True, separation, cls, tuple(msgs))


def _well_separated(d: CircularDomain) -> bool:
    # Heuristic proxy for the Burnside-type separation condition: radii small
    # relative to gaps between circles and to the unit circle.
    rmax = max(c.r for c in d.inner_circles)
    gaps = [
        abs(ci.q - cj.q) - ci.r - cj.r
        for i, ci in enumerate(d.inner_circles)
        for cj in d.inner_circles[i + 1 :]
    ]
    if gaps and rmax / min(gaps) >= 0.25:
        return False
    return all(c.r / (1.0 - abs(c.q) - c.r) < 0.25 for c in d.inner_circles)
