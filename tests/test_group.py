import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schottky.domain import Circle, CircularDomain, MobiusMap, mobius_compose
from schottky.errors import DomainError, ResourceLimitError
from schottky.group import (
    WordEnumeration,
    adaptive_ball,
    adaptive_word_length,
    ball_size,
    enumerate_words,
    generators,
    realize,
    realize_all,
    tail_estimate,
    word_inverse,
)
from schottky.prime import PrimeEvaluator
from schottky.propermaps import lift_blaschke
from schottky.slitmaps import eta_via_mobius_product

ANNULUS = CircularDomain((Circle(0j, 0.25),))
TRIPLY = CircularDomain((Circle(-0.5 + 0j, 0.1), Circle(0.5 + 0j, 0.1)))
# the 4-connected benchmark domain: circles off the real axis
FOUR = CircularDomain((Circle(-0.5 + 0j, 0.12), Circle(0.45 + 0.1j, 0.1),
                       Circle(-0.05 - 0.55j, 0.1)))


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
    a, b, c, d = realize_all(TRIPLY, enum)
    z = 0.3 + 0.2j
    for i in range(0, len(enum), 7):
        direct = realize(TRIPLY, enum.words[i])
        assert abs((a[i] * z + b[i]) / (c[i] * z + d[i]) - direct(z)) < 1e-10


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
    dom = FOUR
    monkeypatch.setenv("SCHOTTKY_MAX_WORDS", "200")
    L, est = adaptive_word_length(dom)
    assert L == 3
    assert est == tail_estimate(dom, 3) and est > 1e-10
    with pytest.warns(UserWarning, match="tail estimate"):
        ev = PrimeEvaluator(dom)
    assert ev.max_word_length == 3


# -- the word ball as arrays, against the word-by-word loops ---------------------


def _loop_enumeration(g, L):
    """Reference: the ball grown one word at a time, and the half set by
    comparing each word's sort key with its inverse's."""
    def key(w):
        return len(w), tuple((abs(x), 0 if x > 0 else 1) for x in w)

    letters = sorted([j for k in range(1, g + 1) for j in (k, -k)], key=lambda x: key((x,)))
    words, frontier = [()], [()]
    for _ in range(L):
        frontier = [w + (x,) for w in frontier for x in letters if not (w and w[-1] == -x)]
        words.extend(frontier)
    mask = np.array([bool(w) and key(w) < key(word_inverse(w)) for w in words])
    return tuple(words), mask


def _chain_maps(d, words):
    """Reference: every word's map by one scalar ``mobius_compose`` onto its
    parent's, with the generators normalized as ``realize_all`` takes them."""
    gens = [g.normalized() for g in generators(d)] if d.g else []
    invs = [g.inverse().normalized() for g in gens]
    out = {(): MobiusMap.identity()}
    for w in words:
        if w not in out:
            gen = gens[w[-1] - 1] if w[-1] > 0 else invs[-w[-1] - 1]
            out[w] = mobius_compose(out[w[:-1]], gen)
    return [out[w] for w in words]


def _chain_table(d, words):
    maps = _chain_maps(d, words)
    return np.array([[complex(getattr(m, x)) for m in maps] for x in "abcd"])


def _loop_tail(d, length, samples=32):
    """Reference: the largest sampled image diameter, one word at a time."""
    words, mask = _loop_enumeration(d.g, length)
    pts = np.concatenate([d.circle(l).samples(samples) for l in range(d.g + 1)])
    worst = 0.0
    for w, m, marked in zip(words, _chain_maps(d, words), mask):
        if len(w) == length and marked:
            img = m(pts)
            worst = max(worst, float(np.max(np.abs(img[:, None] - img[None, :]))))
    return worst


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("g", [0, 1, 2, 3])
@pytest.mark.parametrize("L", [0, 1, 2, 3, 4, 5])
def test_enumeration_matches_word_loop(g, L):
    enum = enumerate_words(g, L)
    words, mask = _loop_enumeration(g, L)
    assert enum.words == words
    assert np.array_equal(enum.half_set_mask, mask)
    # the level arrays describe the same words
    assert enum.length.tolist() == [len(w) for w in words]
    assert enum.letter.tolist() == [w[-1] if w else 0 for w in words]
    assert [words[p] if p >= 0 else None for p in enum.parent] == [
        w[:-1] if w else None for w in words]


def test_hand_built_enumeration_derives_its_levels():
    enum = enumerate_words(3, 3)
    by_hand = WordEnumeration(3, 3, enum.words, ~enum.half_set_mask)
    for name in ("parent", "letter", "length"):
        assert np.array_equal(getattr(by_hand, name), getattr(enum, name))
    assert _same_bits(realize_all(FOUR, by_hand), realize_all(FOUR, enum))


@pytest.mark.parametrize("d", [ANNULUS, TRIPLY, FOUR], ids=["annulus", "triply", "four"])
def test_realize_all_is_the_scalar_chain_bit_for_bit(d):
    for L in range(7):
        enum = enumerate_words(d.g, L)
        assert _same_bits(realize_all(d, enum), _chain_table(d, enum.words)), L


def test_word_cap_raises_before_allocating():
    # the ball at g = 3, L = 12 has about 3.7e8 words: refused from its size
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            enumerate_words(3, 12)
        with pytest.raises(ResourceLimitError):
            enumerate_words(2, 6, cap=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


@pytest.mark.parametrize("d", [ANNULUS, TRIPLY, FOUR], ids=["annulus", "triply", "four"])
def test_tail_estimate_matches_word_loop(d):
    for L in range(1, 5):
        assert tail_estimate(d, L) == _loop_tail(d, L)


def test_adaptive_ball_is_the_enumerated_ball(monkeypatch):
    # grown one level per length tried, with the tail of each level read off
    # its table: the same length, tail, words and table as enumerating and
    # realizing the ball at that length
    for d, cap, length in ((ANNULUS, None, 8), (TRIPLY, None, 7), (FOUR, "1000", 4)):
        if cap:
            monkeypatch.setenv("SCHOTTKY_MAX_WORDS", cap)
        L, est, enum, table = adaptive_ball(d)
        ref = enumerate_words(d.g, L)
        assert L == length and (L, est) == adaptive_word_length(d)
        assert est == _loop_tail(d, L)
        assert enum.max_length == L and enum.words == ref.words
        for name in ("half_set_mask", "parent", "letter", "length"):
            assert np.array_equal(getattr(enum, name), getattr(ref, name))
        assert _same_bits(table, realize_all(d, ref))


def test_evaluator_reads_one_table():
    ev = PrimeEvaluator(TRIPLY, max_word_length=5)
    table = ev.mobius_table
    assert _same_bits(table, _chain_table(TRIPLY, ev.enumeration.words))
    half = table[:, ev.enumeration.half_set_mask]
    assert _same_bits(np.stack([ev._half_a, ev._half_b, ev._half_c, ev._half_d]), half)
    adaptive = PrimeEvaluator(TRIPLY)
    assert _same_bits(adaptive.mobius_table, PrimeEvaluator(TRIPLY, 7).mobius_table)


def test_product_routes_byte_identical_to_the_scalar_chain(annulus_tools):
    rng = np.random.default_rng(4)
    z = 0.6 * np.exp(2j * np.pi * rng.uniform(size=16))
    # eta's group-averaged Blaschke route: realized, the evaluator's table,
    # and the table of the scalar chain
    for d, L in ((TRIPLY, 5), (FOUR, 4)):
        enum = enumerate_words(d.g, L)
        ev = PrimeEvaluator(d, max_word_length=L)
        ref = eta_via_mobius_product(d, enum, z, 0.05 + 0.1j, table=_chain_table(d, enum.words))
        for table in (None, ev.mobius_table):
            val = eta_via_mobius_product(d, enum, z, 0.05 + 0.1j, table=table)
            assert _same_bits(val, ref)
    # the Blaschke lift, against an evaluator holding the scalar chain
    ev = annulus_tools.ev
    chain = copy.copy(ev)
    chain.mobius_table = _chain_table(ev.domain, ev.enumeration.words)
    zz = 0.5 * np.exp(2j * np.pi * rng.uniform(size=16))
    lift = lift_blaschke(ev, annulus_tools.v, [0.5, -0.5])
    ref = lift_blaschke(chain, annulus_tools.v, [0.5, -0.5])
    assert _same_bits(lift(zz), ref(zz))
