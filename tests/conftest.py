import numpy as np
import pytest

from schottky import prime
from schottky.domain import Circle, CircularDomain
from schottky.harmonic import integrals_first_kind, solve_harmonic_measures
from schottky.prime import PrimeEvaluator


class Tools:
    """Bundle of the per-domain machinery the tests share."""

    def __init__(self, domain, order=24, length=None):
        self.domain = domain
        self.model = solve_harmonic_measures(domain, order=order)
        self.v = integrals_first_kind(self.model)
        self.ev = PrimeEvaluator(domain, max_word_length=length)


@pytest.fixture(scope="session")
def disk_tools():
    return Tools(CircularDomain())


@pytest.fixture(scope="session")
def annulus_tools():
    return Tools(CircularDomain((Circle(0j, 0.25),)), length=8)


@pytest.fixture(scope="session")
def triply_tools():
    return Tools(CircularDomain((Circle(-0.5 + 0j, 0.1), Circle(0.5 + 0j, 0.1))), length=6)


@pytest.fixture(scope="session")
def g3_tools():
    # a 4-connected domain at L = 5: 2343 half-set words, three word tiles
    return Tools(CircularDomain((Circle(-0.5 + 0j, 0.12), Circle(0.45 + 0.1j, 0.1),
                                 Circle(-0.05 - 0.55j, 0.1))), length=5)


def interior_points(domain, count, seed, margin=0.05):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if domain.contains(z, margin=margin):
            out.append(z)
    return np.array(out)


def counting_reduce(monkeypatch):
    """The point counts of the ``prime._reduce`` passes, the direct passes
    over the word ball, made from here on in the test."""
    calls = []
    original = prime._reduce

    def counted(table, z, factor):
        calls.append(len(z))
        return original(table, z, factor)

    monkeypatch.setattr(prime, "_reduce", counted)
    return calls
