import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schottky.domain import Circle, CircularDomain
from schottky.errors import DomainError, ResourceLimitError
from schottky.group import (
    adaptive_word_length,
    ball_size,
    enumerate_words,
    generators,
    realize,
    realize_all,
    tail_estimate,
    word_inverse,
)

ANNULUS = CircularDomain((Circle(0j, 0.25),))
TRIPLY = CircularDomain((Circle(-0.5 + 0j, 0.1), Circle(0.5 + 0j, 0.1)))


def test_generator_formula_annulus():
    theta = generators(ANNULUS)[0]
    assert theta(1.0) == pytest.approx(0.0625)
    assert theta(0.5) == pytest.approx(0.03125)


def test_generator_maps_center_image():
    d = CircularDomain((Circle(0.5 + 0j, 0.1),))
    theta = generators(d)[0]
    assert theta(0.0) == pytest.approx(0.5)  # b/d = q


def test_generator_maps_reflected_circle_onto_circle():
    d = CircularDomain((Circle(0.3 + 0.2j, 0.15),))
    theta = generators(d)[0]
    w = d.circle(1).samples(16)
    reflected = 1 / np.conj(w)
    assert np.max(np.abs(theta(reflected) - w)) < 1e-12


def test_word_counts():
    assert len(enumerate_words(2, 1)) == 5
    assert len(enumerate_words(2, 2)) == 17
    assert len(enumerate_words(1, 3)) == 7


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=5))
@settings(max_examples=30, deadline=None)
def test_word_count_matches_closed_form(g, L):
    if ball_size(g, L) > 10000:
        return
    enum = enumerate_words(g, L)
    assert len(enum.words) == ball_size(g, L)
    assert all(len(w) <= L for w in enum.words)


def test_enumeration_order_is_length_major_lexicographic():
    enum = enumerate_words(1, 3)
    assert enum.words == ((), (1,), (-1,), (1, 1), (-1, -1), (1, 1, 1), (-1, -1, -1))


def test_half_set_partition():
    enum = enumerate_words(2, 4)
    marked = {w for w, m in zip(enum.words, enum.half_set_mask) if m}
    assert () not in marked
    for w in enum.words:
        if not w:
            continue
        assert (w in marked) != (word_inverse(w) in marked)


def test_word_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_words(3, 9)


def test_realize_identity_and_powers():
    m = realize(ANNULUS, (1, 1))
    assert m(1.0) == pytest.approx(0.25**4)
    ident = realize(ANNULUS, ())
    assert ident(0.3 + 0.1j) == pytest.approx(0.3 + 0.1j)


def test_realize_rejects_unreduced_word():
    with pytest.raises(DomainError):
        realize(ANNULUS, (1, -1))


def test_realize_is_homomorphism():
    rng = np.random.default_rng(0)
    enum = enumerate_words(2, 3)
    words = [w for w in enum.words if w]
    for _ in range(10):
        u = words[rng.integers(len(words))]
        w = words[rng.integers(len(words))]
        if u and w and u[-1] == -w[0]:
            continue  # product not reduced
        lhs = realize(TRIPLY, u + w)
        rhs = realize(TRIPLY, u).compose(realize(TRIPLY, w))
        for z in (0.2 + 0.3j, -0.7j, 0.9):
            assert abs(lhs(z) - rhs(z)) < 1e-10


def test_realize_inverse_matches_mobius_inverse():
    w = (1, -2, 1)
    lhs = realize(TRIPLY, word_inverse(w))
    rhs = realize(TRIPLY, w).inverse()
    for z in (0.2 + 0.3j, -0.7j):
        assert abs(lhs(z) - rhs(z)) < 1e-10


def test_realize_all_matches_realize():
    enum = enumerate_words(2, 3)
    maps = realize_all(TRIPLY, enum)
    for w, m in zip(enum.words[::7], maps[::7]):
        direct = realize(TRIPLY, w)
        assert abs(m(0.3 + 0.2j) - direct(0.3 + 0.2j)) < 1e-10


def test_tail_estimate_annulus_closed_form():
    # image of the domain closure under theta^3 has diameter 2 r^6
    est = tail_estimate(ANNULUS, 3)
    assert est == pytest.approx(2 * 0.25**6, rel=1e-6)


def test_tail_estimate_empty_group():
    assert tail_estimate(CircularDomain(), 4) == 0.0


def test_tail_estimate_monotone_on_triply():
    estimates = [tail_estimate(TRIPLY, L) for L in range(1, 6)]
    assert all(a > b for a, b in zip(estimates, estimates[1:]))


def test_adaptive_word_length():
    # annulus tails decay like 2 r^(2L): the 1e-10 target needs L = 9, so
    # the adaptive search stops at the cap
    L, est = adaptive_word_length(ANNULUS, tol=1e-10)
    assert L == 8
    assert est == pytest.approx(2 * 0.25**16, rel=1e-6)
    L, est = adaptive_word_length(ANNULUS, tol=1e-8)
    assert L == 7 and est < 1e-8
    assert adaptive_word_length(CircularDomain()) == (0, 0.0)


def test_adaptive_word_length_stops_at_the_word_cap(monkeypatch):
    # the 4-connected domain needs L >= 8 for a 1e-10 tail; under a 200-word
    # cap the search stops at L = 3 (187 words; L = 4 has 937) and reports
    # that length's tail, so the evaluator warns instead of raising
    from schottky.prime import PrimeEvaluator

    dom = CircularDomain((Circle(-0.5 + 0j, 0.12), Circle(0.45 + 0.1j, 0.1),
                          Circle(-0.05 - 0.55j, 0.1)))
    monkeypatch.setenv("SCHOTTKY_MAX_WORDS", "200")
    L, est = adaptive_word_length(dom)
    assert L == 3
    assert est == tail_estimate(dom, 3) and est > 1e-10
    with pytest.warns(UserWarning, match="tail estimate"):
        ev = PrimeEvaluator(dom)
    assert ev.max_word_length == 3
