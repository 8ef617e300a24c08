import copy
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schottky import group
from schottky.domain import Circle, CircularDomain, MobiusMap, mobius_compose
from schottky.errors import DomainError, ResourceLimitError
from schottky.group import (
    ball_size,
    enumerate_words,
    generators,
    realize,
    tail_estimate,
    word_ball,
    word_inverse,
)
from schottky.prime import PrimeEvaluator
from schottky.propermaps import lift_blaschke

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


def test_negative_lengths_are_refused():
    for build in (lambda: enumerate_words(2, -1), lambda: word_ball(TRIPLY, -1),
                  lambda: PrimeEvaluator(TRIPLY, -1)):
        with pytest.raises(DomainError):
            build()


def test_realize_identity_and_powers():
    m = realize(ANNULUS, (1, 1))
    assert m(1.0) == pytest.approx(0.25**4)
    ident = realize(ANNULUS, ())
    assert ident(0.3 + 0.1j) == pytest.approx(0.3 + 0.1j)


def test_the_disk_has_no_generators():
    assert generators(CircularDomain()) == []
    assert realize(CircularDomain(), ()) == MobiusMap.identity()


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
    enum, (a, b, c, d), _ = word_ball(TRIPLY, 3)
    z = 0.3 + 0.2j
    for i in range(0, len(enum), 7):
        direct = realize(TRIPLY, enum.words[i])
        assert abs((a[i] * z + b[i]) / (c[i] * z + d[i]) - direct(z)) < 1e-10


def test_tail_estimate_annulus_closed_form():
    # the image of the domain closure under theta^L is the disk of radius
    # r^(2L): diameter 2 r^(2L)
    for L in range(1, 9):
        assert tail_estimate(ANNULUS, L) == pytest.approx(2 * 0.25 ** (2 * L), rel=1e-14)


def test_tail_estimate_empty_group():
    assert tail_estimate(CircularDomain(), 4) == 0.0


def test_tail_estimate_monotone_on_triply():
    estimates = [tail_estimate(TRIPLY, L) for L in range(1, 6)]
    assert all(a > b for a, b in zip(estimates, estimates[1:]))


def test_adaptive_word_length(monkeypatch):
    # annulus tails decay like 2 r^(2L): the 1e-10 target needs L = 9, so
    # the adaptive search stops at the cap
    enum, _, est = word_ball(ANNULUS)
    assert enum.max_length == 8
    assert est == pytest.approx(2 * 0.25**16, rel=1e-14)
    monkeypatch.setattr(group, "_TAIL_TOL", 1e-8)
    enum, _, est = word_ball(ANNULUS)
    assert enum.max_length == 7 and est < 1e-8
    # on the disk the first level is empty, and its tail is 0
    enum, _, est = word_ball(CircularDomain())
    assert (enum.max_length, est) == (0, 0.0)
    # a fixed length computes no tail
    assert word_ball(ANNULUS, 3)[2] is None


def test_adaptive_word_length_stops_at_the_word_cap(monkeypatch):
    # the 4-connected domain needs L >= 8 for a 1e-10 tail; under a 200-word
    # cap the search stops at L = 3 (187 words; L = 4 has 937) and reports
    # that length's tail, so the evaluator warns instead of raising
    dom = FOUR
    monkeypatch.setenv("SCHOTTKY_MAX_WORDS", "200")
    enum, _, est = word_ball(dom)
    assert enum.max_length == 3
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
    parent's, with the generators normalized as ``word_ball`` takes them."""
    gens = [g.normalized() for g in generators(d)]
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
    """Reference: the largest sampled image diameter, one word at a time.
    Sampling bounds the diameter from below."""
    words, mask = _loop_enumeration(d.g, length)
    pts = np.concatenate([d.circle(l).samples(samples) for l in range(d.g + 1)])
    worst = 0.0
    for w, m, marked in zip(words, _chain_maps(d, words), mask):
        if len(w) == length and marked:
            img = m(pts)
            worst = max(worst, float(np.max(np.abs(img[:, None] - img[None, :]))))
    return worst


def _loop_two_point_tail(d, length):
    """Reference: the largest image-circle diameter |M(z+) - M(z-)|, one word
    and one circle at a time, with z+- = q +- r u and u the unit vector from
    q toward the pole -d/c, the direction of -(c q + d) conj(c)."""
    words, mask = _loop_enumeration(d.g, length)
    worst = 0.0
    for w, m, marked in zip(words, _chain_maps(d, words), mask):
        if len(w) == length and marked:
            for l in range(d.g + 1):
                q, r = d.circle(l).q, d.circle(l).r
                u = -(m.c * q + m.d) * m.c.conjugate()
                u = u / abs(u) if u else 1.0
                plus, minus = m(np.array([q + r * u, q - r * u]))
                worst = max(worst, abs(complex(plus - minus)))
    return worst


def _mp_diameters(d, words):
    """Reference: each word's image-circle diameters, largest over the
    boundary circles, from the word's exact composition at 50 digits and
    the image radius r |ad - bc| / ||c q + d|^2 - |c|^2 r^2|."""
    with mpmath.workdps(50):
        gens = {}
        for j, circle in enumerate(d.inner_circles, 1):
            q, r = mpmath.mpc(circle.q), mpmath.mpf(circle.r)
            gens[j] = (r**2 - abs(q) ** 2, q, -mpmath.conj(q), mpmath.mpf(1))
            a, b, c, dd = gens[j]
            gens[-j] = (dd, -b, -c, a)
        out = []
        for w in words:
            a, b, c, dd = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
            for x in w:
                a2, b2, c2, d2 = gens[x]
                a, b, c, dd = a * a2 + b * c2, a * b2 + b * d2, c * a2 + dd * c2, c * b2 + dd * d2
            out.append(float(max(
                2 * mpmath.mpf(circle.r) * abs(a * dd - b * c)
                / abs(abs(c * circle.q + dd) ** 2 - abs(c) ** 2 * mpmath.mpf(circle.r) ** 2)
                for circle in (d.circle(l) for l in range(d.g + 1)))))
        return out


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("g", [0, 1, 2, 3])
@pytest.mark.parametrize("L", [0, 1, 2, 3, 4, 5])
def test_enumeration_matches_word_loop(g, L):
    enum = enumerate_words(g, L)
    words, mask = _loop_enumeration(g, L)
    assert enum.words == words
    assert np.array_equal(enum.half_set_mask, mask)
    assert enum.max_length == (L if g else 0)


@pytest.mark.parametrize("d", [ANNULUS, TRIPLY, FOUR], ids=["annulus", "triply", "four"])
def test_realize_all_is_the_scalar_chain_bit_for_bit(d):
    for L in range(7):
        enum, table, _ = word_ball(d, L)
        assert enum.words == enumerate_words(d.g, L).words
        assert _same_bits(table, _chain_table(d, enum.words)), L


def test_word_cap_raises_before_allocating(monkeypatch):
    # the ball at g = 3, L = 12 has about 3.7e8 words: refused from its size
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            enumerate_words(3, 12)
        with pytest.raises(ResourceLimitError):
            word_ball(FOUR, 12)
        monkeypatch.setenv("SCHOTTKY_MAX_WORDS", "100")
        with pytest.raises(ResourceLimitError):
            enumerate_words(2, 6)
        with pytest.raises(ResourceLimitError):
            word_ball(TRIPLY, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


@pytest.mark.parametrize("d", [ANNULUS, TRIPLY, FOUR], ids=["annulus", "triply", "four"])
def test_tail_estimate_matches_word_loop(d):
    for L in range(1, 5):
        est = tail_estimate(d, L)
        assert est == _loop_two_point_tail(d, L)
        # the sampled diameter is a lower bound, and 32 samples per circle
        # come within 1e-4 of the whole circle
        sampled = _loop_tail(d, L)
        assert sampled * (1 - 1e-12) <= est <= sampled * (1 + 1e-4)


@pytest.mark.parametrize("d", [TRIPLY, FOUR], ids=["triply", "four"])
def test_tail_diameters_match_mpmath(d):
    # every word of length 1 to 3, its diameter against the exact
    # composition; the double word table costs about 1e-10 here
    enum, table, _ = word_ball(d, 3)
    words = range(1, len(enum))
    ours = [group._max_diameter(d, table[:, [i]]) for i in words]
    ref = _mp_diameters(d, [enum.words[i] for i in words])
    assert np.max(np.abs(np.array(ours) / ref - 1)) <= 1e-9
    for L in range(1, 4):
        assert tail_estimate(d, L) == max(x for x, i in zip(ours, words)
                                          if len(enum.words[i]) == L and enum.half_set_mask[i])


def test_adaptive_ball_is_the_enumerated_ball(monkeypatch):
    # the adaptive length stops where a level's tail, read off its table, is
    # small: the same tail as the word loop's, and the words and table of
    # the scalar chain at that length
    for d, cap, length in ((ANNULUS, None, 8), (TRIPLY, None, 7), (FOUR, "1000", 4)):
        if cap:
            monkeypatch.setenv("SCHOTTKY_MAX_WORDS", cap)
        enum, table, est = word_ball(d)
        words, mask = _loop_enumeration(d.g, length)
        assert enum.max_length == length
        assert est == _loop_two_point_tail(d, length) == tail_estimate(d, length)
        assert enum.words == words and np.array_equal(enum.half_set_mask, mask)
        assert _same_bits(table, _chain_table(d, words))


def test_evaluator_reads_one_table():
    ev = PrimeEvaluator(TRIPLY, max_word_length=5)
    table = ev.mobius_table
    assert _same_bits(table, _chain_table(TRIPLY, ev.enumeration.words))
    half = table[:, ev.enumeration.half_set_mask]
    assert _same_bits(ev._half, half)
    adaptive = PrimeEvaluator(TRIPLY)
    assert _same_bits(adaptive.mobius_table, PrimeEvaluator(TRIPLY, 7).mobius_table)


def test_product_routes_byte_identical_to_the_scalar_chain(annulus_tools):
    rng = np.random.default_rng(4)
    z = 0.6 * np.exp(2j * np.pi * rng.uniform(size=16))
    # eta's group-averaged Blaschke route, against an evaluator holding the
    # table of the scalar chain
    for d, L in ((TRIPLY, 5), (FOUR, 4)):
        ev = PrimeEvaluator(d, max_word_length=L)
        chain = copy.copy(ev)
        chain.mobius_table = _chain_table(d, ev.enumeration.words)
        val = ev.ball_blaschke([0.05 + 0.1j], z)
        assert _same_bits(val, chain.ball_blaschke([0.05 + 0.1j], z))
    # the Blaschke lift, against an evaluator holding the scalar chain
    ev = annulus_tools.ev
    chain = copy.copy(ev)
    chain.mobius_table = _chain_table(ev.domain, ev.enumeration.words)
    zz = 0.5 * np.exp(2j * np.pi * rng.uniform(size=16))
    lift = lift_blaschke(ev, annulus_tools.v, [0.5, -0.5])
    ref = lift_blaschke(chain, annulus_tools.v, [0.5, -0.5])
    assert _same_bits(lift(zz), ref(zz))
