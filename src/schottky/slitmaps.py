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

from .domain import CircularDomain, _pointwise, reflect
from .errors import DomainError, TruncationQualityError
from .group import WordEnumeration, realize_all
from .prime import PrimeEvaluator, _product

__all__ = [
    "eta",
    "eta_l",
    "slit_radius",
    "eta_via_mobius_product",
    "eta_j_relation_residual",
]


def eta(ev: PrimeEvaluator, z, p: complex):
    """Slit map with the unit circle fixed: the ratio
    omega(z, p) / (|p| omega(z, 1/conj(p))), rescaled so eta(1, p) = 1.

    p = 0 is legitimate whenever 0 is in the domain; the reflected point
    1/conj(p) runs off to infinity but every product factor has a finite
    limit, which is evaluated directly.
    """
    p = complex(p)
    if p == 0:
        return _eta_center(ev, z)
    phat = 1 / p.conjugate()
    num = ev.omega_ratio(z, p, phat)
    den = ev.omega_ratio(1.0, p, phat)
    return num / den


def _eta_center(ev: PrimeEvaluator, z):
    # limit p -> 0 of the normalized ratio: (omega(z,0)/omega(1,0)) times
    # lim_{y->inf} omega(1,y)/omega(z,y), the latter evaluated factor-wise.
    if not ev.domain.contains(0j):
        raise DomainError("p = 0 is not in the domain")

    def value(z):
        base = ev.omega(z, 0j) / ev.omega(1.0, 0j)
        if ev.half_set_size:
            th_inf = ev._half_a / ev._half_c  # theta(infinity)
            th_z = ev.theta_table(z)
            th_one = ev._theta_point(1.0)
            factors = (
                (1.0 - th_inf[:, None])
                * (z[None, :] - th_z)
                / ((z[None, :] - th_inf[:, None]) * (1.0 - th_one[:, None]))
            )
            base = base * _product(factors)
        return base

    return _pointwise(value, z)


def eta_l(ev: PrimeEvaluator, l: int, z, p: complex):
    """Slit map sending boundary circle l to the unit circle and p to 0:
    sqrt((phi_l(p) - q_l)/(p - q_l)) * omega(z, p) / omega(z, phi_l(p)),
    rotated so the value at z = 1 is real positive.

    The prefactor is the circle-centered form of sqrt(phi_l(p)/p); the two
    agree when q_l = 0, and only the centered form keeps |eta_l| = 1 on
    gamma_l for off-center circles.  For l = 0 this reproduces eta exactly
    (phi_0(p) = 1/conj(p) and |eta(1, p)| = 1)."""
    p = complex(p)
    if p == 0:
        if l == 0:
            return _eta_center(ev, z)
        raise DomainError("p = 0 is not supported for inner slit maps")
    c = ev.domain.circle(l)
    pl = reflect(ev.domain, l, p)
    raw_at_1 = ev.omega_ratio(1.0, p, pl)
    num = ev.omega_ratio(z, p, pl)
    # the prefactor is unimodular after the rotation at z = 1 and cancels in
    # the normalization; only its modulus survives
    scale = c.r / abs(p - c.q)
    return scale * num * (raw_at_1.conjugate() / abs(raw_at_1))


def slit_radius(
    ev: PrimeEvaluator,
    l: int,
    i: int,
    p: complex,
    samples: int = 64,
    tol: float = 1e-6,
) -> float:
    """Radius of the circular slit: the common modulus of eta_l(., p) on
    boundary circle i (i != l).  Computed as the mean over boundary samples;
    if the sample moduli deviate by more than ``tol`` the truncation is too
    coarse and a TruncationQualityError is raised."""
    if i == l:
        raise DomainError("slit radius is defined for image circles i != l")
    circle = ev.domain.circle(i)  # raises for out-of-range i (e.g. g = 0)
    w = circle.samples(samples)
    vals = np.abs(eta_l(ev, l, w, p))
    mean = float(vals.mean())
    dev = float(np.max(np.abs(vals - mean)))
    if dev > tol:
        raise TruncationQualityError(
            f"slit modulus deviation {dev:.2e} exceeds {tol:.0e} on circle {i}; "
            "increase the word length"
        )
    return mean


def eta_via_mobius_product(
    d: CircularDomain,
    enumeration: WordEnumeration,
    z,
    p: complex,
    table: np.ndarray | None = None,
):
    """Independent route to eta: the product of disk Blaschke factors
    m(theta(z), p)/m(theta(1), p) over the whole truncated group ball
    (identity included).  Valid on domains where the prime-function product
    converges; agrees with the omega-ratio form to truncation accuracy.
    ``table`` is the ball's ``realize_all`` table, e.g. an evaluator's
    ``mobius_table`` for the same enumeration; it is realized when not
    given."""
    p = complex(p)
    a, b, c, dd = realize_all(d, enumeration) if table is None else table
    th_1 = (a + b) / (c + dd)
    m1 = (th_1 - p) / (1.0 - p.conjugate() * th_1)

    def value(z):
        th_z = (a[:, None] * z[None, :] + b[:, None]) / (c[:, None] * z[None, :] + dd[:, None])
        mz = (th_z - p) / (1.0 - p.conjugate() * th_z)
        return _product(mz / m1[:, None])

    return _pointwise(value, z)


def eta_j_relation_residual(
    ev: PrimeEvaluator,
    v,
    j: int,
    z,
    p: complex,
    z0: complex | None = None,
) -> float:
    """Residual of the identity linking the two slit-map families:
    exp(-2 pi i v_j(z)) eta(z, p) = k(p) eta_j(z, p) for a z-independent
    constant k.  The constant is measured at the reference point z0 and the
    residual is reported at the probe z.  Vacuous (0) for g = 0."""
    if ev.domain.g == 0:
        return 0.0
    if z0 is None:
        z0 = ev._reference_pair()[0]
    k = np.exp(-2j * np.pi * v.eval_v(j, z0)) * eta(ev, z0, p) / eta_l(ev, j, z0, p)
    lhs = np.exp(-2j * np.pi * v.eval_v(j, complex(z))) * eta(ev, z, p)
    return float(abs(lhs - k * eta_l(ev, j, z, p)))
