import random

import pytest

from lgorb import compute_dims, compute_hh, jacobian_algebra
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
    """Memoizes compute_hh and the totals of compute_dims.  A report
    depends on the element order (rep indices, class order, bases) and the
    generator words, so reports are keyed by both; a total depends only on
    the element set, so conjugate copies of the same subgroup share one."""

    def __init__(self, f, w):
        self.f = f
        self.w = w
        self._reports = {}
        self._totals = {}

    def report(self, group):
        key = (group.elements, group.words)
        if key not in self._reports:
            self._reports[key] = compute_hh(self.f, group, self.w)
        return self._reports[key]

    def total(self, group):
        key = frozenset(group.index)
        if key not in self._totals:
            self._totals[key] = sum(map(sum, compute_dims(self.f, group, self.w)))
        return self._totals[key]


@pytest.fixture(scope="session")
def hh(klein):
    f, w = klein
    return _HHCache(f, w)
