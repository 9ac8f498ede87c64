import random

import pytest

from lgorb import compute_hh, jacobian_algebra
from lgorb.catalog import catalog_group, klein_quartic
from lgorb.exactnum import CycNum
from lgorb.polyring import Poly, WeightSystem


@pytest.fixture(scope="session")
def klein():
    return klein_quartic()


@pytest.fixture(scope="session")
def fermat():
    """The Fermat quartic x^4 + y^4 + z^4 over Q(zeta_4), standard weights."""
    one = CycNum.one(4)
    f = Poly(3, {(4, 0, 0): one, (0, 4, 0): one, (0, 0, 4): one}, 4)
    return f, WeightSystem((1, 1, 1), 4)


@pytest.fixture(scope="session")
def klein_algebra(klein):
    f, w = klein
    return jacobian_algebra(f, w)


@pytest.fixture(scope="session")
def slf():
    return catalog_group("slf")


@pytest.fixture(scope="session")
def rng():
    return random.Random(20260810)


class _HHCache:
    """Memoizes compute_hh by group element set (totals are what tests use
    repeatedly; conjugate copies of the same subgroup hit the cache)."""

    def __init__(self, f, w):
        self.f = f
        self.w = w
        self._cache = {}

    def report(self, group):
        key = frozenset(group.index)
        if key not in self._cache:
            self._cache[key] = compute_hh(self.f, group, self.w)
        return self._cache[key]

    def total(self, group):
        return self.report(group).total_dim


@pytest.fixture(scope="session")
def hh(klein):
    f, w = klein
    return _HHCache(f, w)
