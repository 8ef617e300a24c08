"""Free Schottky group machinery: reduced words and their Moebius realizations.

Words are tuples of signed generator indices in {+-1, ..., +-g}; the empty
tuple is the identity.  A word is reduced when no letter is followed by its
negative.  Enumeration is deterministic: length-major, then lexicographic in
the letter order 1 < -1 < 2 < -2 < ...  The half set marks one word out of
each inverse pair {w, w^-1}; by the inversion invariance of the product
factors the prime function does not depend on which one, so the canonical
order is used as the tie break.

The products over the ball are truncated at the word length L where the
images of the domain under the words of length L become small.
``tail_estimate`` gives that size exactly: the image of the domain under a
Moebius map is bounded by image circles, and each image circle's diameter
is the distance between the images of two points of its circle
(``_max_diameter``).  ``adaptive_ball`` grows the ball one level at a time
until the estimate falls below a tolerance.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .domain import CircularDomain, MobiusMap, mobius_compose
from .errors import DomainError, ResourceLimitError

__all__ = [
    "GroupWord",
    "WordEnumeration",
    "generators",
    "enumerate_words",
    "realize",
    "realize_all",
    "tail_estimate",
    "adaptive_ball",
    "word_inverse",
    "is_reduced",
    "ball_size",
    "DEFAULT_WORD_CAP",
]

GroupWord = tuple[int, ...]

DEFAULT_WORD_CAP = 200_000


def word_inverse(w: GroupWord) -> GroupWord:
    return tuple(-x for x in reversed(w))


def is_reduced(w: GroupWord) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def ball_size(g: int, max_length: int) -> int:
    """Number of reduced words of length <= max_length in the free group on
    g generators: 1 + sum_k 2g (2g-1)^(k-1)."""
    return 1 + sum(2 * g * (2 * g - 1) ** (k - 1) for k in range(1, max_length + 1))


@dataclass(frozen=True)
class WordEnumeration:
    """All reduced words up to ``max_length``, canonically ordered, with the
    half-set mask over the non-identity words.

    Row i of the ball also carries, as arrays, the index ``parent[i]`` of
    the word without its last letter (-1 for the identity), that last letter
    ``letter[i]`` (0 for the identity) and the word's ``length[i]``: the
    level structure the realization runs over.  ``enumerate_words`` builds
    them with the words.
    """

    g: int
    max_length: int
    words: tuple[GroupWord, ...]
    half_set_mask: np.ndarray
    parent: np.ndarray
    letter: np.ndarray
    length: np.ndarray

    def __len__(self) -> int:
        return len(self.words)


def word_cap() -> int:
    env = os.environ.get("SCHOTTKY_MAX_WORDS")
    return int(env) if env else DEFAULT_WORD_CAP


def enumerate_words(g: int, max_length: int) -> WordEnumeration:
    """Enumerate all reduced words of length <= ``max_length``.

    The ball is built level by level as arrays of letter ranks (the position
    of a letter in the order 1, -1, 2, -2, ...; a letter's inverse has rank
    ``rank ^ 1``): level k + 1 appends every rank but the inverse of its last
    letter to each word of level k, parents in order, so the canonical order
    follows from the construction.  A word is in the half set when its ranks
    precede, lexicographically, those of its inverse (the columns reversed,
    each rank ^ 1); the two differ, since no reduced word is its own inverse.

    Raises ResourceLimitError, before allocating anything, when the ball
    size would exceed ``word_cap()`` (200,000 unless the environment
    variable SCHOTTKY_MAX_WORDS sets another).
    """
    if g < 0 or max_length < 0:
        raise DomainError("g and max_length must be nonnegative")
    _check_cap(g, max_length)
    return _assemble(g, max_length, islice(_levels(g), max_length))


def _check_cap(g: int, max_length: int) -> None:
    n, cap = ball_size(g, max_length), word_cap()
    if n > cap:
        raise ResourceLimitError(
            f"word ball of size {n} exceeds cap {cap} (g={g}, L={max_length})"
        )


def _levels(g: int):
    """The levels k = 1, 2, ... of the ball on g generators, as arrays:
    yields (parent, ranks, half) per level, where word i of the level is
    word parent[i] of the level before with one more letter, ranks[i] are
    its k letter ranks and half[i] says whether it is in the half set."""
    ranks = np.zeros((1, 0), dtype=np.intp)  # level 0: the identity
    while True:
        parent = np.repeat(np.arange(len(ranks)), 2 * g)
        rank = np.tile(np.arange(2 * g), len(ranks))
        if ranks.shape[1]:
            keep = rank != (ranks[parent, -1] ^ 1)
            parent, rank = parent[keep], rank[keep]
        ranks = np.concatenate([ranks[parent], rank[:, None]], axis=1)
        inverse = ranks[:, ::-1] ^ 1
        first = np.argmax(ranks != inverse, axis=1)
        rows = np.arange(len(ranks))
        yield parent, ranks, ranks[rows, first] < inverse[rows, first]


def _assemble(g: int, max_length: int, levels) -> WordEnumeration:
    """The enumeration of the identity followed by the given levels."""
    by_rank = np.array([j for k in range(1, g + 1) for j in (k, -k)], dtype=np.intp)
    words: list[GroupWord] = [()]
    masks, parents, letters, lengths = [[False]], [[-1]], [[0]], [[0]]
    start, size = 0, 1  # first row and size of the level before
    for parent, ranks, half in levels:
        words.extend(map(tuple, by_rank[ranks].tolist()))
        masks.append(half)
        parents.append(parent + start)
        letters.append(by_rank[ranks[:, -1]])
        lengths.append(np.full(len(ranks), ranks.shape[1]))
        start, size = start + size, len(ranks)
    return WordEnumeration(g, max_length, tuple(words), *(
        np.concatenate(x) for x in (masks, parents, letters, lengths)))


def generators(d: CircularDomain) -> list[MobiusMap]:
    """The Schottky generators (none on the disk): each is the reflection
    in an inner circle composed with the reflection in the unit circle,

        theta_j(z) = q_j + r_j^2 z / (1 - conj(q_j) z).
    """
    gens = []
    for c in d.inner_circles:
        a = c.r**2 - abs(c.q) ** 2
        gens.append(MobiusMap(a, c.q, -c.q.conjugate(), 1.0).normalized())
    return gens


def realize(d: CircularDomain, w: GroupWord) -> MobiusMap:
    """Left-to-right composition of generators: realize(u + v) equals
    realize(u) o realize(v).  The identity word gives the identity map."""
    if not is_reduced(w):
        raise DomainError(f"word {w} is not reduced")
    gens = generators(d)
    m = MobiusMap.identity()
    for letter in w:
        gen = gens[abs(letter) - 1]
        if letter < 0:
            gen = gen.inverse().normalized()
        m = mobius_compose(m, gen)
    return m


def realize_all(d: CircularDomain, enum: WordEnumeration) -> np.ndarray:
    """Coefficients of every enumerated word's map, shape (4, len(enum)):
    rows a, b, c, d of (a z + b) / (c z + d), the identity included.

    One level per batch: each word is its parent's map composed with the
    generator of its last letter (see ``_compose``), so the table equals
    the scalar chain of ``mobius_compose`` calls bit for bit.
    """
    table = np.empty((4, len(enum)), dtype=complex)
    table[:, enum.length == 0] = _IDENTITY
    gens = _generator_table(d)
    for k in range(1, enum.max_length + 1):
        rows = np.flatnonzero(enum.length == k)
        letter = enum.letter[rows]
        table[:, rows] = _compose(table[:, enum.parent[rows]],
                                  gens[:, 2 * (np.abs(letter) - 1) + (letter < 0)])
    return table


_IDENTITY = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex)


def _generator_table(d: CircularDomain) -> np.ndarray:
    """Coefficients of the letters' maps by rank, shape (4, 2g): generator j
    and its inverse, normalized as ``realize`` takes them."""
    gens = [g.normalized() for g in generators(d)]
    return np.array([[m.a, m.b, m.c, m.d] for g in gens
                     for m in (g, g.inverse().normalized())], dtype=complex).reshape(-1, 4).T


def _compose(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Column by column ``mobius_compose(m1, m2)`` of two coefficient
    tables, bit for bit.  That takes Python's arithmetic, part by part:
    products as in ``_mul``, moduli as ``np.hypot`` of the parts (``np.abs``
    on complex numbers rounds differently from Python's ``abs``), and the
    parts divided one by one (numpy's complex division by a real multiplies
    by a reciprocal)."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    out = np.stack([_mul(a1, a2) + _mul(b1, c2), _mul(a1, b2) + _mul(b1, d2),
                    _mul(c1, a2) + _mul(d1, c2), _mul(c1, b2) + _mul(d1, d2)])
    scale = np.hypot(out.real, out.imag).max(axis=0)
    scale[~(scale > 0)] = 1.0  # mobius_compose leaves these unscaled
    out.real /= scale
    out.imag /= scale
    return out


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y with the four real products and two sums of Python's complex
    multiplication; numpy's complex multiply may fuse them and round
    differently."""
    out = np.empty(x.shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def tail_estimate(d: CircularDomain, length: int) -> float:
    """Truncation control: the largest Euclidean diameter of w(closure of the
    domain) over the half-set words w of exactly the given length, in closed
    form (``_max_diameter``).  For g = 0 or length 0 there are no such
    words and the estimate is 0.
    """
    enum = enumerate_words(d.g, length)
    table = realize_all(d, enum)
    return _max_diameter(d, table[:, (enum.length == length) & enum.half_set_mask])


def _max_diameter(d: CircularDomain, maps: np.ndarray) -> float:
    """The largest diameter of the domain closure's images under the
    non-identity maps of a coefficient table (0 for none), in closed form.

    A map M(z) = (a z + b) / (c z + d) sends the domain to the region
    bounded by its boundary circles' images, one of which encloses the
    others, so the image's diameter is the largest of theirs.  On the circle
    |z - q| = r take z+- = q +- r u, u the unit vector from q toward the pole
    -d/c (u = 1 when c = 0 or the pole is q).  The line through q and the
    pole meets the circle at right angles and passes through the pole, so M
    sends it to a line through the image circle's centre: M(z+) and M(z-)
    are the ends of a diameter, of length |M(z+) - M(z-)|.

    u is the direction of -(c q + d) conj(c), formed in Python's complex
    arithmetic part by part (``_mul``, moduli as ``np.hypot``), and M is
    applied as ``MobiusMap`` applies a scalar map to an array, so the
    estimate equals a word-by-word loop over scalar maps bit for bit.
    """
    a, b, c, dd = maps
    worst = 0.0
    for l in range(d.g + 1):
        circle = d.circle(l)
        u = -_mul(_mul(c, circle.q) + dd, c.conj())  # (pole - q) |c|^2
        size = np.hypot(u.real, u.imag)
        u[size == 0], size[size == 0] = 1.0, 1.0  # c = 0, or the pole at q
        u.real /= size
        u.imag /= size
        plus, minus = [(a * z + b) / (c * z + dd)
                       for z in (circle.q + _mul(u, circle.r), circle.q - _mul(u, circle.r))]
        chord = plus - minus
        worst = max(worst, float(np.hypot(chord.real, chord.imag).max(initial=0.0)))
    return worst


_TAIL_TOL = 1e-10  # the adaptive word length is the smallest whose tail is below this
_MAX_LENGTH = 8  # ... and at most this


def adaptive_ball(d: CircularDomain) -> tuple[int, float, WordEnumeration, np.ndarray]:
    """The smallest word length whose tail estimate is below ``_TAIL_TOL``,
    capped at ``_MAX_LENGTH`` and at the largest length whose word ball fits
    ``word_cap()``: returns (length, achieved tail estimate, the word ball at
    that length, its ``realize_all`` table).  The ball is grown one level
    per length tried: each level is enumerated and realized once, and its
    tail estimate read off its half-set columns."""
    if d.g == 0:
        return 0, 0.0, enumerate_words(0, 0), _IDENTITY.copy()
    top = max((L for L in range(1, _MAX_LENGTH + 1)
               if L == 1 or ball_size(d.g, L) <= word_cap()), default=0)
    _check_cap(d.g, top)
    gens = _generator_table(d)
    levels, tables = [], [_IDENTITY]
    length, est = 0, np.inf
    for length, level in zip(range(1, top + 1), _levels(d.g)):
        parent, ranks, half = level
        tables.append(_compose(tables[-1][:, parent], gens[:, ranks[:, -1]]))
        levels.append(level)
        est = _max_diameter(d, tables[-1][:, half])
        if est < _TAIL_TOL:
            break
    return length, est, _assemble(d.g, length, levels), np.concatenate(tables, axis=1)
