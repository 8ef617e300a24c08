"""Free Schottky group machinery: reduced words and their Moebius realizations.

Words are tuples of signed generator indices in {+-1, ..., +-g}; the empty
tuple is the identity.  A word is reduced when no letter is followed by its
negative.  Enumeration is deterministic: length-major, then lexicographic in
the letter order 1 < -1 < 2 < -2 < ...  The half set marks one word out of
each inverse pair {w, w^-1}; by the inversion invariance of the product
factors the prime function does not depend on which one, so the canonical
order is used as the tie break.
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
    "adaptive_word_length",
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
    if g == 0 or max_length == 0:
        return 1
    return 1 + sum(2 * g * (2 * g - 1) ** (k - 1) for k in range(1, max_length + 1))


@dataclass(frozen=True)
class WordEnumeration:
    """All reduced words up to ``max_length``, canonically ordered, with the
    half-set mask over the non-identity words.

    Row i of the ball also carries, as arrays, the index ``parent[i]`` of
    the word without its last letter (-1 for the identity), that last letter
    ``letter[i]`` (0 for the identity) and the word's ``length[i]``: the
    level structure the realization runs over.  ``enumerate_words`` builds
    them with the words; an enumeration made by hand from words alone
    derives them from the words, each of whose prefixes must be listed.
    """

    g: int
    max_length: int
    words: tuple[GroupWord, ...]
    half_set_mask: np.ndarray
    parent: np.ndarray | None = None
    letter: np.ndarray | None = None
    length: np.ndarray | None = None

    def __post_init__(self):
        if self.parent is None or self.letter is None or self.length is None:
            index = {w: i for i, w in enumerate(self.words)}
            n = len(self.words)
            object.__setattr__(self, "parent", np.fromiter(
                (index[w[:-1]] if w else -1 for w in self.words), np.intp, n))
            object.__setattr__(self, "letter", np.fromiter(
                (w[-1] if w else 0 for w in self.words), np.intp, n))
            object.__setattr__(self, "length", np.fromiter(map(len, self.words), np.intp, n))

    def half_set(self) -> list[GroupWord]:
        return [w for w, m in zip(self.words, self.half_set_mask) if m]

    def __len__(self) -> int:
        return len(self.words)


def word_cap() -> int:
    env = os.environ.get("SCHOTTKY_MAX_WORDS")
    return int(env) if env else DEFAULT_WORD_CAP


def enumerate_words(g: int, max_length: int, cap: int | None = None) -> WordEnumeration:
    """Enumerate all reduced words of length <= ``max_length``.

    The ball is built level by level as arrays of letter ranks (the position
    of a letter in the order 1, -1, 2, -2, ...; a letter's inverse has rank
    ``rank ^ 1``): level k + 1 appends every rank but the inverse of its last
    letter to each word of level k, parents in order, so the canonical order
    follows from the construction.  A word is in the half set when its ranks
    precede, lexicographically, those of its inverse (the columns reversed,
    each rank ^ 1); the two differ, since no reduced word is its own inverse.

    Raises ResourceLimitError, before allocating anything, when the ball
    size would exceed the cap (default 200,000, overridable via
    SCHOTTKY_MAX_WORDS).
    """
    if g < 0 or max_length < 0:
        raise DomainError("g and max_length must be nonnegative")
    _check_cap(g, max_length, cap)
    return _assemble(g, max_length, islice(_levels(g), max_length))


def _check_cap(g: int, max_length: int, cap: int | None = None) -> None:
    cap = word_cap() if cap is None else cap
    n = ball_size(g, max_length)
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
    """The Schottky generators: each is the reflection in an inner circle
    composed with the reflection in the unit circle,

        theta_j(z) = q_j + r_j^2 z / (1 - conj(q_j) z).
    """
    if d.g < 1:
        raise DomainError("generators need at least one inner circle")
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
    gens = generators(d) if d.g else []
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
    gens = [g.normalized() for g in generators(d)] if d.g else []
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


def tail_estimate(d: CircularDomain, length: int, samples: int = 32) -> float:
    """Truncation control: the largest Euclidean diameter of w(closure of the
    domain) over the half-set words w of exactly the given length.

    The domain closure is sampled on its boundary circles; a Moebius map
    sends the region between them to the region between the image circles,
    so the diameter of the sampled image bounds the image region.  For g = 0
    there are no words and the estimate is 0.
    """
    if d.g == 0 or length == 0:
        return 0.0
    enum = enumerate_words(d.g, length)
    table = realize_all(d, enum)
    return _max_diameter(d, table[:, (enum.length == length) & enum.half_set_mask], samples)


# words whose sampled images are compared at once by ``_max_diameter``: a
# block's pairwise differences take 8 MB at 32 samples per circle, g = 2
_TAIL_BLOCK = 32


def _max_diameter(d: CircularDomain, maps: np.ndarray, samples: int = 32) -> float:
    """The largest diameter of the sampled domain boundary's images under
    the maps of a coefficient table (0 for none)."""
    pts = np.concatenate([d.circle(l).samples(samples) for l in range(d.g + 1)])
    worst = 0.0
    for i in range(0, maps.shape[1], _TAIL_BLOCK):
        a, b, c, dd = maps[:, i:i + _TAIL_BLOCK, None]
        img = (a * pts + b) / (c * pts + dd)
        diam = np.abs(img[:, :, None] - img[:, None, :]).max(axis=(1, 2))
        worst = max(worst, float(diam.max()))
    return worst


def adaptive_word_length(
    d: CircularDomain, tol: float = 1e-10, max_len: int = 8
) -> tuple[int, float]:
    """Smallest word length whose tail estimate is below ``tol``, capped at
    ``max_len`` and at the largest length whose word ball fits ``word_cap()``.
    Returns (length, achieved tail estimate)."""
    length, est, _, _ = adaptive_ball(d, tol, max_len)
    return length, est


def adaptive_ball(
    d: CircularDomain, tol: float = 1e-10, max_len: int = 8
) -> tuple[int, float, WordEnumeration, np.ndarray]:
    """``adaptive_word_length`` together with the word ball at that length
    and its ``realize_all`` table, grown one level per length tried: each
    level is enumerated and realized once, and its tail estimate read off
    its half-set columns."""
    if d.g == 0:
        return 0, 0.0, enumerate_words(0, 0), _IDENTITY.copy()
    top = max((L for L in range(1, max_len + 1)
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
        if est < tol:
            break
    return length, est, _assemble(d.g, length, levels), np.concatenate(tables, axis=1)
