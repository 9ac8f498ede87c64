"""The operations of each benchmark workload and the checks on their results.

Every operation returns ``(group, result)``.  Results are checked against
``reference.json``, which holds the engine's exact values (not the recorded
catalog expectations, four of which contradict the exact computation by
design).  Library functions are looked up on their modules at call time, so
the wrappers that ``tracing`` installs see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from lgorb import catalog, matgroup, orbifold

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# The catalog entries other than the order-168 group itself.
BASE_KEYS = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j")
# The targets of `lgorb verify --all`, in its order.
CATALOG_TARGETS = [("slf", False)] + [(k, False) for k in BASE_KEYS] + [("slf", True), ("e", True)]
CONJUGATORS_PER_GROUP = 3

# Conjugator alphabet: each generator with the exponents below its order.
_LETTERS = (("R", (1,)), ("S", (1, 2, 3, 4, 5, 6)), ("T", (1, 2)))


@dataclass
class Op:
    label: str
    run: Callable[[], tuple]
    check: Callable[[tuple], bool]


def label(key: str, hat: bool) -> str:
    return key + ("^" if hat else "")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)["groups"]


def class_signature(report) -> list[list[int]]:
    """Per-class (size, centralizer order, fixed dimension, invariant
    dimension), sorted: independent of element order and of conjugation."""
    return sorted(
        [s.class_size, s.centralizer_order, s.fix_dim, s.invariant_dim]
        for s in report.sectors
    )


def report_matches(report, ref: dict) -> bool:
    return (
        report.total_dim == ref["total"]
        and list(report.identity_dimension_vector) == ref["identity_vector"]
        and class_signature(report) == ref["classes"]
    )


def products_match(table, ref: dict) -> bool:
    """Basis size equals the identity invariant dimension, the first basis
    class is the unit 1, and multiplying by it is the identity."""
    size = sum(ref["identity_vector"])
    if len(table.basis) != size:
        return False
    unit = table.basis[0]
    if len(unit.terms) != 1 or not unit.constant_term().is_one():
        return False
    return all(
        all(v.is_one() if i == j else v.is_zero() for i, v in enumerate(table.product(0, j)))
        for j in range(size)
    )


def conjugator_words(seed: int, count: int) -> list[str]:
    """Seeded random words over R, S, T, three to eight letters long, with
    no letter repeated back to back."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        parts, last = [], None
        for _ in range(rng.randint(3, 8)):
            name, exps = rng.choice([item for item in _LETTERS if item[0] != last])
            exp = rng.choice(exps)
            parts.append(name if exp == 1 else f"{name}^{exp}")
            last = name
        words.append("".join(parts))
    return words


def build_ops(workload: str, seed: int, f, w, reference: dict) -> list[Op]:
    """The workload's operations; group closures and conjugator matrices
    that are inputs rather than work are prepared here, outside any timing."""
    if workload == "catalog":
        return [_catalog_op(f, w, key, hat, reference[label(key, hat)]) for key, hat in CATALOG_TARGETS]
    if workload == "conjugate_sweep":
        words = conjugator_words(seed, CONJUGATORS_PER_GROUP * len(BASE_KEYS))
        ops = []
        for r in range(CONJUGATORS_PER_GROUP):
            for k, key in enumerate(BASE_KEYS):
                word = words[r * len(BASE_KEYS) + k]
                ops.append(_conjugate_op(f, w, key, word, reference[key]))
        return ops
    if workload == "products":
        return [
            _products_op(f, w, key, hat, reference[label(key, hat)])
            for key in BASE_KEYS
            for hat in (False, True)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _catalog_op(f, w, key, hat, ref) -> Op:
    def run():
        group = catalog.catalog_group(key, hat=hat)
        return group, orbifold.compute_hh(f, group, w)

    return Op(label(key, hat), run, lambda out: report_matches(out[1], ref))


def _conjugate_op(f, w, key, word, ref) -> Op:
    base = catalog.catalog_group(key)
    h = catalog.word_matrix(word)

    def run():
        hinv = h.inverse()
        group = matgroup.from_elements([h * m * hinv for m in base.elements])
        return group, orbifold.compute_hh(f, group, w)

    return Op(f"{key}@{word}", run, lambda out: report_matches(out[1], ref))


def _products_op(f, w, key, hat, ref) -> Op:
    def run():
        group = catalog.catalog_group(key, hat=hat)
        return group, orbifold.identity_sector_products(f, group, w)

    return Op(label(key, hat), run, lambda out: products_match(out[1], ref))
