"""Acceptance suite: every criterion prints one PASS/FAIL line.

All comparisons are exact integer or exact field equality; there are no
tolerances anywhere.  Two checks (the order-8 dihedral entry's total and
the extension of the full group, plus the uniqueness half of the
dimension-8 characterization) assert recorded reference values that the
engine's exact computation contradicts; they fail by design and the
mismatch is documented.  See the repository README for the summary of
computed-vs-recorded values.
"""

from fractions import Fraction
from itertools import product as iter_product

import pytest

from lgorb import linalg
from lgorb.catalog import CATALOG_KEYS, catalog_group, expected
from lgorb.exactnum import CycNum
from lgorb.jacobian import normal_form, quotient_basis
from lgorb.matgroup import from_elements, generate_closure
from lgorb.orbifold import build_sector, identity_sector_products, sector_action
from lgorb.polyring import Poly, substitute_linear
from oracles import (
    hessian_by_cofactors,
    pairwise_product_table,
    poly_from_vector,
    residue_pairing,
    rho,
    surface_cohomology_dim,
)


def record(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


BOX_MONOMIALS = [m for m in iter_product(range(3), repeat=3)]


def test_criterion_1_klein_jacobian_algebra(klein, klein_algebra):
    f, w = klein
    ok = klein_algebra.milnor == 27
    ok = ok and klein_algebra.graded_dims == (1, 3, 6, 7, 6, 3, 1)
    ok = ok and len(quotient_basis(klein_algebra.gb)) == 27
    # the 27 monomials x^a with a_k <= 2 are a basis of the quotient
    vectors = [
        klein_algebra.vector(Poly(3, {m: 1}, f.conductor)) for m in BOX_MONOMIALS
    ]
    ok = ok and linalg.rank([list(v) for v in vectors]) == 27
    # class identity: hess(f) = 756 (x1 x2 x3)^2 modulo the Jacobian ideal
    target = Poly(3, {(2, 2, 2): 756}, f.conductor)
    hess_nf = normal_form(hessian_by_cofactors(f) - target, klein_algebra.gb)
    ok = ok and hess_nf.is_zero()
    record(
        "criterion 1 (Jacobian algebra of the quartic)",
        ok,
        "mu=27, dims (1,3,6,7,6,3,1), box monomials form a basis, "
        "[hess]=756[(x1x2x3)^2]",
    )


def test_criterion_2_group_order_and_classes(slf):
    data = slf.conjugacy()
    sizes = sorted(len(members) for _, members in data.classes)
    record(
        "criterion 2 (order 168, class sizes)",
        slf.order == 168 and sizes == [1, 21, 24, 24, 42, 56],
        f"order {slf.order}, sizes {sizes}",
    )


TOTALS = [
    ("slf", False, 11),
    ("a", False, 9),
    ("b", False, 17),
    ("c", False, 18),
    ("d", False, 18),
    ("e", False, 12),
    ("f", False, 13),
    ("g", False, 9),
    ("h", False, 11),
    ("i", False, 12),
    ("slf", True, 10),
    ("e", True, 8),
]


@pytest.mark.parametrize("key,hat,total", TOTALS, ids=[f"{k}{'^' if h else ''}" for k, h, _ in TOTALS])
def test_criterion_3_totals(key, hat, total, hh):
    got = hh.total(catalog_group(key, hat=hat))
    label = key + ("^" if hat else "")
    record(
        f"criterion 3 (total of {label})",
        got == total,
        f"computed {got}, recorded {total}"
        + ("" if got == total else "; exact computation contradicts the recorded value"),
    )


VECTORS = [
    ("b", (1, 1, 2, 3, 2, 1, 1)),
    ("c", (1, 1, 2, 1, 2, 1, 1)),
    ("d", (1, 1, 4, 3, 4, 1, 1)),
    ("e", (1, 0, 3, 1, 3, 0, 1)),
    ("f", (1, 0, 2, 1, 2, 0, 1)),
    ("g", (1, 0, 2, 0, 2, 0, 1)),
    ("h", (1, 0, 0, 1, 0, 0, 1)),
    ("i", (1, 0, 1, 0, 1, 0, 1)),
]


@pytest.mark.parametrize("key,vector", VECTORS, ids=[k for k, _ in VECTORS])
def test_criterion_4_identity_vectors(key, vector, hh):
    got = hh.report(catalog_group(key)).identity_dimension_vector
    record(
        f"criterion 4 (identity vector of {key})",
        got == vector,
        f"computed {got}",
    )


HAT_V4_BASIS_MONOMIALS = [
    (0, 0, 0),
    (0, 0, 2),
    (0, 1, 1),
    (0, 2, 0),
    (2, 2, 0),
    (2, 1, 1),
    (2, 0, 2),
    (2, 2, 2),
]


def _reynolds_projection(f, group, algebra, mon):
    """Class of the group average of a monomial: the projection onto the
    invariant part of the quotient."""
    total = None
    for h in group.elements:
        moved = substitute_linear(Poly(3, {mon: 1}, f.conductor), linalg.invert(h.rows))
        vec = algebra.vector(moved)
        total = vec if total is None else tuple(a + b for a, b in zip(total, vec))
    scale = CycNum.from_rational(Fraction(1, group.order), f.conductor)
    return poly_from_vector(algebra, tuple(v * scale for v in total))


def test_criterion_5_hat_v4_product_identities(klein, klein_algebra):
    f, w = klein
    top = Poly(3, {(2, 2, 2): 1}, f.conductor)
    top_class = klein_algebra.nf(top)
    pairs = [((0, 2, 0), (2, 0, 2)), ((0, 0, 2), (2, 2, 0)), ((0, 1, 1), (2, 1, 1))]
    ok = bool(top_class)
    for m1, m2 in pairs:
        product = Poly(3, {m1: 1}, f.conductor) * Poly(3, {m2: 1}, f.conductor)
        ok = ok and klein_algebra.nf(product) == top_class
    # unit law over the computed invariant basis
    group = catalog_group("e", hat=True)
    table = identity_sector_products(f, group, w)
    unit_ok = table.basis[0] == Poly.constant(1, 3, f.conductor)
    one = CycNum.one(f.conductor)
    for j in range(len(table.basis)):
        coeffs = table.product(0, j)
        unit_ok = unit_ok and all(
            (c == one if k == j else not c) for k, c in enumerate(coeffs)
        )
    record(
        "criterion 5a (extension-of-V4 product identities and unit law)",
        ok and unit_ok,
        "the three recorded products equal the nonzero top class [(x1x2x3)^2]",
    )


def test_criterion_5_hat_v4_product_exclusivity(klein, klein_algebra):
    f, w = klein
    group = catalog_group("e", hat=True)
    basis = [
        _reynolds_projection(f, group, klein_algebra, m) for m in HAT_V4_BASIS_MONOMIALS
    ]
    # the recorded classes are a basis of the identity-sector invariants
    invariants = [klein_algebra.vector(p) for p in identity_sector_products(f, group, w).basis]
    vectors = [klein_algebra.vector(p) for p in basis]
    assert len(vectors) == len(invariants)
    assert linalg.rank(vectors) == linalg.rank(vectors + invariants) == len(invariants)
    products = pairwise_product_table(klein_algebra, basis)
    expected_nonzero = {(1, 4), (2, 5), (3, 6)}
    nonzero = {(i, j) for (i, j), coeffs in products.items() if i > 0 and any(coeffs)}
    ok = nonzero == expected_nonzero
    record(
        "criterion 5b (those are the only nonzero non-unit products)",
        ok,
        f"nonzero non-unit products {sorted(nonzero)}"
        + (
            ""
            if ok
            else "; exact computation finds more: the product of the degree-2 "
            "invariant subspace with itself is nonzero, so no basis can "
            "realize the recorded exclusivity"
        ),
    )


def test_criterion_6_disputed_entry_reported_side_by_side(hh, capsys):
    from lgorb import cli

    code = cli.main(["verify", "--key", "j"])
    out = capsys.readouterr().out
    computed = hh.total(catalog_group("j"))
    ok = code == 0 and out.startswith("INFO") and "14" in out and str(computed) in out
    record(
        "criterion 6 (disputed entry is INFO, not failure)",
        ok,
        f"computed {computed}, recorded {expected('j').total_dim}, exit {code}",
    )


def test_criterion_7_every_subgroup_exceeds_surface_dimension(slf, hh, rng):
    bound = surface_cohomology_dim(3)
    totals = {}
    for key in CATALOG_KEYS:
        totals[key] = hh.total(catalog_group(key))
    ok = all(t > bound for t in totals.values())
    for trial in range(20):
        g1 = slf.elements[rng.randrange(slf.order)]
        g2 = slf.elements[rng.randrange(slf.order)]
        subgroup = generate_closure([g1, g2])
        total = hh.total(subgroup)
        ok = ok and total > bound
    record(
        "criterion 7 (every determinant-1 subgroup exceeds dim 8)",
        ok,
        f"catalog totals {sorted(set(totals.values()))}, 20 random subgroups checked",
    )


def test_criterion_8_dimension_eight_characterization(hh):
    achieved = {
        key: hh.total(catalog_group(key, hat=True)) for key in CATALOG_KEYS
    }
    eights = sorted(k for k, t in achieved.items() if t == 8)
    ok = eights == ["e"]
    record(
        "criterion 8 (extension total 8 exactly for the Klein four-group)",
        ok,
        f"entries with extension total 8: {eights}"
        + ("" if ok else "; exact computation contradicts the recorded uniqueness"),
    )


def test_criterion_9_conjugation_invariance(slf, hh, rng):
    ok = True
    for trial in range(20):
        h = slf.elements[rng.randrange(slf.order)]
        hinv = h.inverse()
        for key in CATALOG_KEYS:
            group = catalog_group(key)
            conj = from_elements([h * m * hinv for m in group.elements])
            if hh.total(conj) != hh.total(group):
                ok = False
    record("criterion 9 (conjugation invariance, 20 random conjugators)", ok)


def test_criterion_10_property_battery(klein, klein_algebra, slf, rng):
    f, w = klein
    ok = True
    details = []

    # rho cocycle on centralizers
    for _ in range(10):
        g = slf.elements[rng.randrange(slf.order)]
        z = [slf.elements[i] for i in slf.centralizer(slf.index[g])]
        h1, h2 = (z[rng.randrange(len(z))] for _ in range(2))
        if rho(h2, g) * rho(h1, g) != rho(h2 * h1, g):
            ok = False
            details.append("rho cocycle")

    # representation property of the sector action
    group = catalog_group("g")
    data = group.conjugacy()
    for rep, _ in data.classes[:3]:
        sector = build_sector(f, group.elements[rep], w)
        z = data.centralizers[rep]
        h1 = group.elements[z[rng.randrange(len(z))]]
        h2 = group.elements[z[rng.randrange(len(z))]]
        m1, m2 = sector_action(h1, sector), sector_action(h2, sector)
        m12 = sector_action(h2 * h1, sector)
        size = len(m1)
        prod = [
            [
                sum((m2[i][k] * m1[k][j] for k in range(1, size)), m2[i][0] * m1[0][j])
                for j in range(size)
            ]
            for i in range(size)
        ]
        if [list(r) for r in m12] != prod:
            ok = False
            details.append("representation property")

    # palindromic identity vectors
    from lgorb.orbifold import compute_hh

    for key in CATALOG_KEYS:
        vec = compute_hh(f, catalog_group(key), w).identity_dimension_vector
        if vec != tuple(reversed(vec)):
            ok = False
            details.append(f"palindrome {key}")

    # normal form idempotence and ring compatibility
    gb = klein_algebra.gb
    for _ in range(10):
        terms = {
            tuple(rng.randint(0, 3) for _ in range(3)): CycNum.from_rational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)), f.conductor
            )
            for _ in range(rng.randint(1, 4))
        }
        a = Poly(3, terms, f.conductor)
        b = Poly(3, dict(reversed(list(terms.items()))), f.conductor)
        na, nb = normal_form(a, gb), normal_form(b, gb)
        if normal_form(na, gb) != na or normal_form(na * nb, gb) != normal_form(a * b, gb):
            ok = False
            details.append("normal form")

    # pairing nondegeneracy between complementary degrees
    slices = klein_algebra.degree_slices()
    for d in range(4):
        rows = []
        for i in slices[d]:
            u = Poly(3, {klein_algebra.basis[i]: 1}, f.conductor)
            rows.append(
                [
                    residue_pairing(
                        u, Poly(3, {klein_algebra.basis[j]: 1}, f.conductor), klein_algebra
                    )
                    for j in slices[6 - d]
                ]
            )
        if linalg.rank(rows) != klein_algebra.graded_dims[d]:
            ok = False
            details.append(f"pairing rank degree {d}")

    record(
        "criterion 10 (property battery)",
        ok,
        "; ".join(sorted(set(details))) if details else "all randomized properties hold",
    )
