import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schottky.domain import (
    INFINITY,
    Circle,
    CircularDomain,
    MobiusMap,
    is_infinity,
    mobius_apply,
    mobius_compose,
    mobius_invert,
    reflect,
    validate_domain,
)
from schottky.errors import DomainError

ANNULUS = CircularDomain((Circle(0j, 0.25),))


def test_validate_empty_domain_is_disk():
    report = validate_domain(CircularDomain())
    assert report.is_valid
    assert report.convergence_class == "real_axis_centers"


def test_validate_annulus():
    report = validate_domain(ANNULUS)
    assert report.is_valid
    assert report.convergence_class == "real_axis_centers"
    assert report.separation == pytest.approx(0.75)


def test_validate_rejects_circle_poking_out():
    bad = CircularDomain((Circle(0.5 + 0j, 0.6),))
    report = validate_domain(bad)
    assert not report.is_valid
    assert report.messages


def test_validate_rejects_overlapping_circles():
    bad = CircularDomain((Circle(-0.1 + 0j, 0.15), Circle(0.1 + 0j, 0.15)))
    assert not validate_domain(bad).is_valid


def test_validate_well_separated_complex_centers():
    d = CircularDomain((Circle(0.3 + 0.3j, 0.05), Circle(-0.4 - 0.2j, 0.05)))
    assert validate_domain(d).convergence_class == "well_separated"


def test_validate_unverified_class():
    d = CircularDomain((Circle(0.25 + 0.25j, 0.2), Circle(-0.35 - 0.2j, 0.2)))
    report = validate_domain(d)
    assert report.is_valid
    assert report.convergence_class == "unverified"


def test_reflect_unit_circle():
    assert reflect(ANNULUS, 0, 0.5) == pytest.approx(2.0)


def test_reflect_inner_circle():
    assert reflect(ANNULUS, 1, 0.5) == pytest.approx(0.125)


def test_reflect_fixes_boundary_points():
    d = CircularDomain((Circle(0.3 + 0.1j, 0.2),))
    w = d.circle(1).point(0.7)
    assert reflect(d, 1, w) == pytest.approx(w, abs=1e-13)


def test_reflect_center_is_pole():
    with pytest.raises(DomainError):
        reflect(ANNULUS, 1, 0j)
    assert reflect(ANNULUS, 0, INFINITY) == 0


@given(st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
       st.integers(min_value=0, max_value=1))
@settings(max_examples=100, deadline=None)
def test_reflect_is_involution(z, l):
    circle = ANNULUS.circle(l)
    if abs(z - circle.q) < 1e-3:
        return
    assert abs(reflect(ANNULUS, l, reflect(ANNULUS, l, z)) - z) < 1e-12


def test_mobius_identity():
    m = MobiusMap.identity()
    assert m(0.3 + 0.1j) == 0.3 + 0.1j


def test_mobius_scaling():
    m = MobiusMap(0.0625, 0, 0, 1)
    assert m(1.0) == pytest.approx(0.0625)


def test_mobius_compose_inverse_is_identity_up_to_scalar():
    m = MobiusMap(1, 2, 3, 4)
    comp = mobius_compose(m, mobius_invert(m))
    z = np.array([0.3 + 0.1j, -0.7j, 2.0 + 0j])
    assert np.allclose(comp(z), z)


def test_mobius_pole_goes_to_infinity():
    m = MobiusMap(1, 0, 1, -0.5)  # pole at 0.5
    assert is_infinity(mobius_apply(m, 0.5))
    assert mobius_apply(m, INFINITY) == pytest.approx(1.0)


@given(st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5),
       st.integers(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_mobius_associativity(a, b, c):
    m1 = MobiusMap(1 + a, 2, 0.5j, 4)
    m2 = MobiusMap(2, b - 3j, 1, 1)
    m3 = MobiusMap(1, 1, c * 0.1, 2)
    lhs = mobius_compose(mobius_compose(m1, m2), m3)
    rhs = mobius_compose(m1, mobius_compose(m2, m3))
    for z in (0.1 + 0.2j, -0.4, 0.8j):
        assert abs(lhs(z) - rhs(z)) < 1e-10


def test_degenerate_mobius_rejected():
    with pytest.raises(DomainError):
        MobiusMap(1, 2, 2, 4)


def test_domain_json_round_trip():
    d = CircularDomain((Circle(-0.4 + 0.1j, 0.1), Circle(0.45 + 0j, 0.1)))
    back = CircularDomain.from_json(d.to_json())
    assert back == d


def test_domain_json_rejects_garbage():
    with pytest.raises(DomainError):
        CircularDomain.from_json("{not json")
    with pytest.raises(DomainError):
        CircularDomain.from_json('{"circles": []}')
    with pytest.raises(DomainError):
        CircularDomain.from_json('{"inner_circles": [{"q": [0.0], "r": 0.1}]}')


def test_contains_and_boundary_distance():
    d = ANNULUS
    assert d.contains(0.5)
    assert not d.contains(0.1)
    assert not d.contains(1.1)
    assert d.boundary_distance(0.5) == pytest.approx(0.25)


def test_centers_and_radii_built_once_and_read_only():
    d = CircularDomain((Circle(-0.5 + 0j, 0.1), Circle(0.5 + 0.1j, 0.2)))
    assert d.centers is d.centers and d.radii is d.radii
    assert np.array_equal(d.centers, [-0.5, 0.5 + 0.1j])
    assert np.array_equal(d.radii, [0.1, 0.2])
    with pytest.raises(ValueError):
        d.centers[0] = 0.0
    assert d == CircularDomain(d.inner_circles)  # equality still by the circles
