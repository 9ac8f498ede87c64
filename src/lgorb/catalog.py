"""Built-in Klein quartic data: the polynomial, the generators of its
determinant-1 symmetry group, the subgroup catalog and recorded reference
results for regression.

Everything lives at conductor 28, which holds Q(zeta_7), the rationals and
the fourth root of unity needed by the exponential grading operator j_f.

Recorded reference totals are kept verbatim and carry trust flags; the
verify command treats a mismatch on a confirmed entry as a failure and a
mismatch on a disputed entry as INFO.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from lgorb.exactnum import CycNum, zeta
from lgorb.matgroup import FiniteMatrixGroup, GMatrix, generate_closure, hat_extend
from lgorb.polyring import Poly, WeightSystem
from lgorb.words import parse_word

SESSION_CONDUCTOR = 28

CATALOG_KEYS = ("slf", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j")


def klein_quartic() -> tuple[Poly, WeightSystem]:
    """The polynomial x1^3 x2 + x2^3 x3 + x3^3 x1 with weights (1,1,1; 4)."""
    one = CycNum.one(SESSION_CONDUCTOR)
    f = Poly(
        3,
        {(3, 1, 0): one, (0, 3, 1): one, (1, 0, 3): one},
        SESSION_CONDUCTOR,
    )
    return f, WeightSystem((1, 1, 1), 4)


@lru_cache(maxsize=None)
def generator_matrix(name: str) -> GMatrix:
    """Named catalog matrices at conductor 28.

    R, S, T generate the determinant-1 symmetry group of the Klein
    quartic; -I extends it centrally; j_f = diag(i, i, i) is the
    exponential grading operator (determinant -i, hence not admissible).
    The scalar sqrt(-1)/sqrt(7) in R is realized exactly as
    (z + z^2 + z^4 - z^3 - z^5 - z^6)/7 for z = zeta_7.
    """
    n = SESSION_CONDUCTOR
    zero, one = CycNum.zero(n), CycNum.one(n)

    def z7(k: int) -> CycNum:
        return zeta(7, k).lift(n)

    if name == "S":
        return GMatrix.diagonal([z7(4), z7(2), z7(1)])
    if name == "T":
        return GMatrix(
            [[zero, one, zero], [zero, zero, one], [one, zero, zero]]
        )
    if name == "R":
        scale = (z7(1) + z7(2) + z7(4) - z7(3) - z7(5) - z7(6)) / 7
        d1 = z7(1) - z7(6)
        d2 = z7(2) - z7(5)
        d3 = z7(4) - z7(3)
        rows = [[d1, d2, d3], [d2, d3, d1], [d3, d1, d2]]
        return GMatrix([[e * scale for e in row] for row in rows])
    if name == "-I":
        return -GMatrix.identity(3, n)
    if name == "j_f":
        i = zeta(n, n // 4)
        return GMatrix.diagonal([i, i, i])
    raise KeyError(f"unknown generator name {name!r}")


def word_matrix(text: str) -> GMatrix:
    """Evaluate a word in R, S, T, -I against the catalog matrices."""
    names = {name: generator_matrix(name) for name in ("R", "S", "T", "-I")}
    return parse_word(text).evaluate(names)


@dataclass(frozen=True)
class ExpectedResult:
    """Recorded reference numbers for one catalog entry; `hat` holds those
    of its -id extension, when recorded."""

    total_dim: int
    identity_dim: int
    identity_dimension_vector: Optional[tuple[int, ...]] = None
    per_sector_dims: Optional[dict] = None
    hat: Optional["ExpectedResult"] = None
    trust: str = "confirmed"


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    generator_words: tuple[str, ...]
    description: str
    order: int
    expected: ExpectedResult


# Generator words follow the recorded presentation, with two repairs that
# are forced by the stated group orders (see the catalog tests):
#  - (i) uses the 3-cycle TS^4 with the 4-cycle TRS^2RS^3; the recorded
#    transposition word has order 3 and generates the whole order-168 group.
#  - (j) is the index-2 subgroup of (i): generated by the listed 3-cycle
#    and the listed double transposition.
_CATALOG: dict[str, CatalogEntry] = {
    entry.key: entry
    for entry in [
        CatalogEntry(
            "slf",
            ("R", "T", "S"),
            "full determinant-1 symmetry group, simple of order 168",
            168,
            ExpectedResult(
                11,
                2,
                (1, 0, 0, 0, 0, 0, 1),
                {"S": 1, "S^3": 1, "R": 1, "RS^3": 3, "T": 3},
                hat=ExpectedResult(10, 2, (1, 0, 0, 0, 0, 0, 1)),
            ),
        ),
        CatalogEntry(
            "a",
            ("S",),
            "elementary abelian of order 7 (8 conjugates)",
            7,
            ExpectedResult(9, 3, (1, 0, 0, 1, 0, 0, 1)),
        ),
        CatalogEntry(
            "b",
            ("T",),
            "cyclic of order 3 (28 conjugates)",
            3,
            ExpectedResult(17, 11, (1, 1, 2, 3, 2, 1, 1)),
        ),
        CatalogEntry(
            "c",
            ("RSRS^5",),
            "cyclic of order 4 (21 conjugates)",
            4,
            ExpectedResult(18, 9, (1, 1, 2, 1, 2, 1, 1)),
        ),
        CatalogEntry(
            "d",
            ("RT",),
            "cyclic of order 2 (21 conjugates)",
            2,
            ExpectedResult(18, 15, (1, 1, 4, 3, 4, 1, 1)),
        ),
        CatalogEntry(
            "e",
            ("RS^2RS", "SRS^6"),
            "Klein four-group (two classes of 7 conjugates)",
            4,
            ExpectedResult(
                12, 9, (1, 0, 3, 1, 3, 0, 1), hat=ExpectedResult(8, 8, (1, 0, 3, 0, 3, 0, 1))
            ),
        ),
        CatalogEntry(
            "f",
            ("T", "R"),
            "dihedral of order 6 (28 conjugates)",
            6,
            ExpectedResult(13, 7, (1, 0, 2, 1, 2, 0, 1)),
        ),
        CatalogEntry(
            "g",
            ("RS^3", "RS^2RS"),
            "dihedral of order 8 (21 conjugates)",
            8,
            ExpectedResult(9, 6, (1, 0, 2, 0, 2, 0, 1)),
        ),
        CatalogEntry(
            "h",
            ("T", "S"),
            "nonabelian of order 21 (8 conjugates)",
            21,
            ExpectedResult(11, 3, (1, 0, 0, 1, 0, 0, 1)),
        ),
        CatalogEntry(
            "i",
            ("TS^4", "TRS^2RS^3"),
            "symmetric group of degree 4 (two classes of 7 conjugates)",
            24,
            ExpectedResult(12, 4, (1, 0, 1, 0, 1, 0, 1)),
        ),
        CatalogEntry(
            "j",
            ("TS^4", "T^2RS^6RS^4"),
            "alternating group of degree 4 (two classes of 7 conjugates)",
            12,
            ExpectedResult(14, 10, (1, 0, 3, 2, 3, 0, 1), trust="disputed"),
        ),
    ]
}


def catalog_entries() -> tuple[CatalogEntry, ...]:
    return tuple(_CATALOG[k] for k in CATALOG_KEYS)


def catalog_entry(key: str) -> CatalogEntry:
    if key not in _CATALOG:
        raise KeyError(f"unknown catalog key {key!r}")
    return _CATALOG[key]


@lru_cache(maxsize=None)
def _base_group(key: str) -> FiniteMatrixGroup:
    entry = catalog_entry(key)
    generators = [word_matrix(w) for w in entry.generator_words]
    group = generate_closure(generators, words=list(entry.generator_words))
    if group.order != entry.order:
        raise RuntimeError(
            f"catalog entry {key!r} closed to order {group.order}, "
            f"expected {entry.order}"
        )
    return group


@lru_cache(maxsize=None)
def catalog_group(key: str, hat: bool = False) -> FiniteMatrixGroup:
    """The closure of a catalog entry's generator words; hat adjoins -id
    to the cached closure."""
    group = _base_group(key)
    return hat_extend(group) if hat else group


def expected(key: str, hat: bool = False) -> ExpectedResult:
    """Recorded reference numbers; raises KeyError when none are recorded."""
    want = catalog_entry(key).expected
    if not hat:
        return want
    if want.hat is None:
        raise KeyError(f"no recorded reference for the extension of {key!r}")
    return want.hat
