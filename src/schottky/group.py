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
    "word_inverse",
    "is_reduced",
    "ball_size",
    "DEFAULT_WORD_CAP",
]

GroupWord = tuple[int, ...]

DEFAULT_WORD_CAP = 200_000


def _letter_key(letter: int) -> tuple[int, int]:
    return (abs(letter), 0 if letter > 0 else 1)


def word_key(w: GroupWord) -> tuple:
    return (len(w), tuple(_letter_key(x) for x in w))


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
    half-set mask over the non-identity words."""

    g: int
    max_length: int
    words: tuple[GroupWord, ...]
    half_set_mask: np.ndarray

    def half_set(self) -> list[GroupWord]:
        return [w for w, m in zip(self.words, self.half_set_mask) if m]

    def __len__(self) -> int:
        return len(self.words)


def word_cap() -> int:
    env = os.environ.get("SCHOTTKY_MAX_WORDS")
    return int(env) if env else DEFAULT_WORD_CAP


def enumerate_words(g: int, max_length: int, cap: int | None = None) -> WordEnumeration:
    """Enumerate all reduced words of length <= ``max_length``.

    Raises ResourceLimitError when the ball size would exceed the cap
    (default 200,000, overridable via SCHOTTKY_MAX_WORDS).
    """
    if g < 0 or max_length < 0:
        raise DomainError("g and max_length must be nonnegative")
    cap = word_cap() if cap is None else cap
    n = ball_size(g, max_length)
    if n > cap:
        raise ResourceLimitError(
            f"word ball of size {n} exceeds cap {cap} (g={g}, L={max_length})"
        )
    letters = sorted(
        [j for k in range(1, g + 1) for j in (k, -k)], key=_letter_key
    )
    words: list[GroupWord] = [()]
    frontier: list[GroupWord] = [()]
    for _ in range(max_length):
        nxt = []
        for w in frontier:
            for letter in letters:
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        frontier = nxt
        words.extend(frontier)

    index = {w: i for i, w in enumerate(words)}
    mask = np.zeros(len(words), dtype=bool)
    for w, i in index.items():
        if not w:
            continue
        winv = word_inverse(w)
        # mark w iff it precedes its inverse in the canonical order
        if word_key(w) < word_key(winv):
            mask[i] = True
    return WordEnumeration(g, max_length, tuple(words), mask)


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


def realize_all(d: CircularDomain, enum: WordEnumeration) -> list[MobiusMap]:
    """Realize every enumerated word, reusing each word's parent (the words
    are ordered so that any proper prefix appears earlier)."""
    gens = [g.normalized() for g in generators(d)] if d.g else []
    invs = [g.inverse().normalized() for g in gens]
    out: dict[GroupWord, MobiusMap] = {(): MobiusMap.identity()}
    maps = []
    for w in enum.words:
        if w not in out:
            letter = w[-1]
            gen = gens[letter - 1] if letter > 0 else invs[-letter - 1]
            out[w] = mobius_compose(out[w[:-1]], gen)
        maps.append(out[w])
    return maps


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
    maps = realize_all(d, enum)
    pts = np.concatenate([d.circle(l).samples(samples) for l in range(d.g + 1)])
    worst = 0.0
    for w, m, marked in zip(enum.words, maps, enum.half_set_mask):
        if len(w) != length or not marked:
            continue
        img = m(pts)
        diam = _diameter(img)
        worst = max(worst, diam)
    return worst


def _diameter(pts: np.ndarray) -> float:
    return float(np.max(np.abs(pts[:, None] - pts[None, :])))


def adaptive_word_length(
    d: CircularDomain, tol: float = 1e-10, max_len: int = 8
) -> tuple[int, float]:
    """Smallest word length whose tail estimate is below ``tol``, capped at
    ``max_len`` and at the largest length whose word ball fits ``word_cap()``.
    Returns (length, achieved tail estimate)."""
    if d.g == 0:
        return 0, 0.0
    est = np.inf
    for L in range(1, max_len + 1):
        if L > 1 and ball_size(d.g, L) > word_cap():
            return L - 1, est
        est = tail_estimate(d, L)
        if est < tol:
            return L, est
    return max_len, est
