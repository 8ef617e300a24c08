"""Circularly-slit-disk maps built from prime-function ratios.

For a base point p in the domain, eta(., p) maps the domain conformally
onto the unit disk with concentric circular arcs removed, sending p to 0
and the unit circle to the unit circle; eta_l(., p) does the same but sends
boundary circle l to the unit circle.  These are the building blocks that
play the role of Blaschke factors for multiply connected domains.

All maps here are normalized so their value at z = 1 is real and positive
(equal to 1 for eta itself, since 1 lies on the unit circle).  The raw
prime-function ratios fix the maps only up to rotation, and this convention
both matches the disk degeneration eta(z, p) = (z - p)/(1 - conj(p) z) for
real p and makes independently built maps comparable.
"""

from __future__ import annotations

import numpy as np

from .domain import INFINITY, _pointwise, reflect
from .errors import DomainError, TruncationQualityError
from .prime import PrimeEvaluator

__all__ = [
    "eta",
    "eta_l",
    "slit_radius",
    "eta_j_relation_residual",
]


def eta(ev: PrimeEvaluator, z, p: complex):
    """Slit map with the unit circle fixed: R(z) / R(1), R the ratio
    omega(z, p) / omega(z, 1/conj(p)), so eta(1, p) = 1 (the paper's
    constant 1/|p| cancels).

    p = 0 is legitimate whenever 0 is in the domain; the reflected point
    1/conj(p) runs off to infinity, and R is the limit pair (0, ``INFINITY``)
    of the ratio product.
    """
    p = complex(p)
    if p == 0 and not ev.domain.contains(0j):
        raise DomainError("p = 0 is not in the domain")
    pair = INFINITY if p == 0 else 1 / p.conjugate()
    return _with_one(ev, z, p, pair, lambda r, r1: r / r1)


def eta_l(ev: PrimeEvaluator, l: int, z, p: complex):
    """Slit map sending boundary circle l to the unit circle and p to 0:
    sqrt((phi_l(p) - q_l)/(p - q_l)) * omega(z, p) / omega(z, phi_l(p)),
    rotated so the value at z = 1 is real positive.

    The prefactor is the circle-centered form of sqrt(phi_l(p)/p); the two
    agree when q_l = 0, and only the centered form keeps |eta_l| = 1 on
    gamma_l for off-center circles.  For l = 0 this is eta (phi_0(p) =
    1/conj(p) and |eta(1, p)| = 1)."""
    p = complex(p)
    if l == 0:
        return eta(ev, z, p)
    if p == 0:
        raise DomainError("p = 0 is not supported for inner slit maps")
    c = ev.domain.circle(l)
    pl = reflect(ev.domain, l, p)
    # the prefactor is unimodular after the rotation at z = 1 and cancels in
    # the normalization; only its modulus survives
    scale = c.r / abs(p - c.q)
    return _with_one(ev, z, p, pl, lambda r, r1: scale * r * (r1.conjugate() / abs(r1)))


def _with_one(ev: PrimeEvaluator, z, y1: complex, y2: complex, combine):
    """combine(r(z), r(1)) for r = omega(., y1) / omega(., y2), with r at
    the points ``z`` and at 1 from one pass."""
    def value(z):
        r = ev.omega_ratio_with_table(np.append(z, 1.0), y1, y2)
        return combine(r[:-1], r[-1])

    return _pointwise(value, z)


_SLIT_SAMPLES = 64  # boundary samples of the image circle in slit_radius
_SLIT_TOL = 1e-6  # largest deviation of those samples' moduli from their mean


def slit_radius(ev: PrimeEvaluator, l: int, i: int, p: complex) -> float:
    """Radius of the circular slit: the common modulus of eta_l(., p) on
    boundary circle i (i != l).  Computed as the mean over ``_SLIT_SAMPLES``
    boundary samples; if the sample moduli deviate by more than
    ``_SLIT_TOL`` the truncation is too coarse and a TruncationQualityError
    is raised."""
    if i == l:
        raise DomainError("slit radius is defined for image circles i != l")
    circle = ev.domain.circle(i)  # raises for out-of-range i (e.g. g = 0)
    w = circle.samples(_SLIT_SAMPLES)
    vals = np.abs(eta_l(ev, l, w, p))
    mean = float(vals.mean())
    dev = float(np.max(np.abs(vals - mean)))
    if dev > _SLIT_TOL:
        raise TruncationQualityError(
            f"slit modulus deviation {dev:.2e} exceeds {_SLIT_TOL:.0e} on circle {i}; "
            "increase the word length"
        )
    return mean


def eta_j_relation_residual(ev: PrimeEvaluator, v, j: int, z, p: complex) -> float:
    """Residual of the identity linking the two slit-map families:
    exp(-2 pi i v_j(z)) eta(z, p) = k(p) eta_j(z, p) for a z-independent
    constant k, measured at the evaluator's reference point z0 (0.9 where
    the domain holds it), with the residual reported at the probe z.  Both
    come from one pass per slit map over [z0, z] and the normalization
    point 1.  Vacuous (0) for g = 0."""
    if ev.domain.g == 0:
        return 0.0
    pts = np.array([ev._reference_point(), complex(z)])
    lhs = np.exp(-2j * np.pi * v.eval_v(j, pts)) * eta(ev, pts, p)
    rhs = eta_l(ev, j, pts, p)
    return float(abs(lhs[1] - lhs[0] / rhs[0] * rhs[1]))
