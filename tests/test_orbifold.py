import json
import random
import sys

import pytest

from lgorb import jacobian, linalg, matgroup, molien, orbifold
from lgorb.catalog import CATALOG_KEYS, catalog_entry, catalog_group, generator_matrix, word_matrix
from lgorb.errors import (
    CharacterError,
    GradingError,
    InadmissibleGroupError,
    NotASymmetryError,
    ShapeError,
)
from lgorb.exactnum import CycNum, zeta
from lgorb.jacobian import jacobian_algebra
from lgorb.matgroup import GMatrix, from_elements, generate_closure, hat_extend
from lgorb.orbifold import (
    _build_sector,
    _DegreeAction,
    build_sector,
    compute_dims,
    compute_hh,
    identity_sector_products,
    invariant_subspace,
    restriction_matrix,
    sector_action,
)
from lgorb.molien import invariant_degree_dims
from lgorb.polyring import Poly, WeightSystem
from oracles import (
    euler_total,
    galois,
    hessian,
    kernel_route,
    pairwise_product_table,
    read_report,
    residue_pairing,
    reynolds_image,
    rho,
    substitution_sector_action,
    surface_cohomology_dim,
)


def test_surface_cohomology_dim():
    assert surface_cohomology_dim(3) == 8
    assert surface_cohomology_dim(1) == 4
    assert surface_cohomology_dim(0) == 2
    with pytest.raises(ValueError):
        surface_cohomology_dim(-1)


def test_build_sector_examples(klein):
    f, w = klein
    s_sector = build_sector(f, generator_matrix("S"), w)
    assert s_sector.fix_dim == 0 and s_sector.algebra.milnor == 1

    t_sector = build_sector(f, generator_matrix("T"), w)
    assert t_sector.fix_dim == 1 and t_sector.algebra.milnor == 3
    assert t_sector.algebra.source == Poly(1, {(4,): 3}, f.conductor)

    g = -word_matrix("RS^2RS")
    wide = build_sector(f, g, w)
    assert wide.fix_dim == 2 and wide.algebra.milnor == 9

    identity_sector = build_sector(f, GMatrix.identity(3, 28), w)
    assert identity_sector.fix_dim == 3 and identity_sector.algebra.milnor == 27
    assert identity_sector.algebra.source == f


def test_build_sector_rejects_non_symmetry(klein):
    f, w = klein
    zero, one = CycNum.zero(28), CycNum.one(28)
    swap = GMatrix([[zero, one, zero], [one, zero, zero], [zero, zero, one]])
    with pytest.raises(NotASymmetryError):
        build_sector(f, swap, w)


def test_rho_values(klein):
    f, w = klein
    S = generator_matrix("S")
    identity = GMatrix.identity(3, 28)
    # identity acts trivially on every generator
    assert rho(identity, S) == 1
    assert rho(identity, generator_matrix("T")) == 1
    # zero-dimensional fixed locus: rho is the determinant
    minus_id = generator_matrix("-I")
    assert rho(S, S) == 1
    assert rho(minus_id, S) == -1
    # g acting on its own sector when Fix(g^k) = Fix(g): det g
    minus_r = -generator_matrix("R")
    assert rho(minus_r, minus_r) == minus_r.det == -1
    c4 = word_matrix("TRS^2RS^3")
    from lgorb.matgroup import fixed_space

    assert fixed_space(c4 ** 3)[0] == fixed_space(c4)[0]
    assert rho(c4, c4 ** 3) == c4.det == 1
    with pytest.raises(ValueError):
        rho(generator_matrix("T"), S)


def test_rho_cocycle_on_centralizers(slf, klein, rng):
    for _ in range(6):
        g = slf.elements[rng.randrange(slf.order)]
        z = [slf.elements[i] for i in slf.centralizer(slf.index[g])]
        h1 = z[rng.randrange(len(z))]
        h2 = z[rng.randrange(len(z))]
        assert rho(h2, g) * rho(h1, g) == rho(h2 * h1, g)


def test_sector_action_eigenvalue_formula(klein):
    f, w = klein
    # h = -id on the one-dimensional T-sector: [t^k] -> (-1)^k [t^k]
    t_sector = build_sector(f, generator_matrix("T"), w)
    minus_id = generator_matrix("-I")
    action = sector_action(minus_id, t_sector)
    diag = [action[k][k] for k in range(3)]
    assert diag == [CycNum.one(28), -CycNum.one(28), CycNum.one(28)]
    assert all(action[i][j].is_zero() for i in range(3) for j in range(3) if i != j)
    # det h = -1 on a 2-dimensional fixed locus, h = g: action is -identity
    g = -word_matrix("RS^2RS")
    wide = build_sector(f, g, w)
    action = sector_action(g, wide)
    for i in range(9):
        for j in range(9):
            expected = -CycNum.one(28) if i == j else CycNum.zero(28)
            assert action[i][j] == expected


def test_sector_action_is_a_representation(klein, rng):
    f, w = klein
    group = catalog_group("g")
    data = group.conjugacy()
    for rep, _ in data.classes:
        sector = build_sector(f, group.elements[rep], w)
        z = data.centralizers[rep]
        for _ in range(3):
            h1 = group.elements[z[rng.randrange(len(z))]]
            h2 = group.elements[z[rng.randrange(len(z))]]
            m1 = sector_action(h1, sector)
            m2 = sector_action(h2, sector)
            m12 = sector_action(h2 * h1, sector)
            product = [
                [
                    sum(
                        (m2[i][k] * m1[k][j] for k in range(1, len(m1))),
                        m2[i][0] * m1[0][j],
                    )
                    for j in range(len(m1))
                ]
                for i in range(len(m1))
            ]
            assert [list(row) for row in m12] == product


def _dense_conjugate(key, seed):
    """The catalog group `key` conjugated by a seeded random word over R, S
    and T, so that its matrices and fixed spaces are dense."""
    rng = random.Random(seed)
    word = "".join(
        f"{name}^{rng.randint(1, top)}" for name, top in (("R", 1), ("S", 6), ("T", 2)) * 2
    )
    h = word_matrix(word)
    hinv = h.inverse()
    return from_elements([h * m * hinv for m in catalog_group(key).elements])


@pytest.mark.parametrize(
    "key, hat, seed",
    [("g", False, None), ("j", False, None), ("e", True, None), ("i", False, 909)],
    ids=["g", "j", "e^", "i-conjugate"],
)
def test_sector_action_matches_substitution_oracle(klein, key, hat, seed):
    f, w = klein
    group = catalog_group(key, hat=hat) if seed is None else _dense_conjugate(key, seed)
    data = group.conjugacy()
    inverse = group.inverse_index()
    pairs = 0
    for rep, _ in data.classes:
        g = group.elements[rep]
        sector = build_sector(f, g, w)
        for i in group.subgroup_generator_indices(data.centralizers[rep]):
            if i == 0:
                continue
            h, hinv = group.elements[i], group.elements[inverse[i]]
            expected = substitution_sector_action(h, sector)
            assert sector_action(h, sector) == expected
            det_hinv = linalg.det(restriction_matrix(hinv, sector))
            assert rho(h, g) == h.det * det_hinv
            pairs += 1
    assert pairs > 0


def test_invariant_subspace_trivial_and_reynolds_agreement(klein, rng):
    f, w = klein
    one, zero = CycNum.one(28), CycNum.zero(28)
    identity_action = tuple(
        tuple(one if i == j else zero for j in range(4)) for i in range(4)
    )
    dim, basis = invariant_subspace([identity_action])
    assert dim == 4 and len(basis) == 4
    # dual route: generator-kernel vs full group averaging, on real sectors
    group = catalog_group("e")
    data = group.conjugacy()
    for rep, _ in data.classes:
        sector = build_sector(f, group.elements[rep], w)
        all_actions = [
            sector_action(group.elements[i], sector) for i in data.centralizers[rep]
        ]
        gens = group.subgroup_generator_indices(data.centralizers[rep])
        gen_actions = [sector_action(group.elements[i], sector) for i in gens]
        dim_kernel, basis_kernel = invariant_subspace(gen_actions or all_actions)
        dim_avg, basis_avg = reynolds_image(all_actions)
        assert dim_kernel == dim_avg
        if dim_avg:
            stack = [list(v) for v in basis_kernel + basis_avg]
            assert linalg.rank(stack) == dim_kernel


def test_invariant_subspace_for_triangle_rotation_with_scalars(klein):
    f, w = klein
    group = catalog_group("h")
    report = compute_hh(f, group, w)
    assert report.identity_dimension_vector == (1, 0, 0, 1, 0, 0, 1)
    identity_report = report.sectors[0]
    degree3 = [p for p in identity_report.invariant_basis if max(map(sum, p.terms)) == 3]
    assert len(degree3) == 1
    # the degree-3 invariant is the symmetric product class x1 x2 x3
    m = Poly(3, {(1, 1, 1): 1}, f.conductor)
    from lgorb.jacobian import jacobian_algebra

    algebra = jacobian_algebra(f, w)
    stack = [list(algebra.vector(degree3[0])), list(algebra.vector(m))]
    assert linalg.rank(stack) == 1


def test_slf_identity_invariants_are_unit_and_hessian_class(klein, hh):
    from lgorb.jacobian import jacobian_algebra

    f, w = klein
    report = hh.report(catalog_group("slf"))
    identity = report.sectors[0]
    assert identity.invariant_dim == 2
    degree6 = [p for p in identity.invariant_basis if max(map(sum, p.terms)) == 6]
    assert len(degree6) == 1
    algebra = jacobian_algebra(f, w)
    # the degree-6 invariant spans the Hessian class, which equals
    # 54 * (5 (x1x2x3)^2 - x1^5 x3 - x1 x2^5 - x2 x3^5) on the nose
    quintic_combination = Poly(
        3, {(2, 2, 2): 5, (5, 0, 1): -1, (1, 5, 0): -1, (0, 1, 5): -1}, f.conductor
    )
    assert hessian(f) == quintic_combination * 54
    stack = [list(algebra.vector(degree6[0])), list(algebra.vector(quintic_combination))]
    assert linalg.rank(stack) == 1


def test_compute_hh_small_groups(klein, hh):
    f, w = klein
    assert hh.total(catalog_group("slf")) == 11
    report = hh.report(catalog_group("e"))
    assert report.total_dim == 12
    assert report.identity_dimension_vector == (1, 0, 3, 1, 3, 0, 1)
    # nontrivial sectors contribute the middle power of the coordinate
    for sector in report.sectors[1:]:
        assert sector.fix_dim == 1 and sector.invariant_dim == 1
        assert sector.degree_dims == (0, 1, 0)


def test_compute_hh_hat_v4(klein, hh):
    f, w = klein
    report = hh.report(catalog_group("e", hat=True))
    assert report.total_dim == 8
    assert report.identity_dimension_vector == (1, 0, 3, 0, 3, 0, 1)
    for sector in report.sectors:
        if sector.rep_index != 0:
            assert sector.invariant_dim == 0
    # vanishing rules: det -1 with 2-dim fix contributes 0; fix 0 with -id in Z contributes 0
    by_fixdim = {s.fix_dim: s for s in report.sectors if s.rep_index != 0}
    assert by_fixdim[2].invariant_dim == 0
    assert by_fixdim[0].invariant_dim == 0


def test_abelian_shortcut_equivalence(klein):
    f, w = klein
    for key in ("a", "e"):
        group = catalog_group(key)
        report = compute_hh(f, group, w)
        direct_total = 0
        gens = [group.elements[i] for i in group.generator_indices]
        for g in group.elements:
            sector = build_sector(f, g, w)
            actions = [sector_action(h, sector) for h in gens]
            dim, _ = invariant_subspace(actions)
            direct_total += dim
        assert direct_total == report.total_dim


def test_conjugation_invariance_small(klein, slf, hh, rng):
    f, w = klein
    group = catalog_group("e")
    h = slf.elements[rng.randrange(1, slf.order)]
    hinv = h.inverse()
    conj = from_elements([h * m * hinv for m in group.elements])
    assert hh.total(conj) == hh.total(group)


def test_identity_vector_palindromic_for_catalog(klein, hh):
    for key in ("slf", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j"):
        vec = hh.report(catalog_group(key)).identity_dimension_vector
        assert vec == tuple(reversed(vec))


def test_invariants_pair_nondegenerately_across_complementary_degrees(klein, hh):
    """Every admissible h has det h = +/-1, so the residue pairing is
    Z(g)-invariant on each sector.  It then pairs the degree-n invariants
    with the degree-(top - n) invariants nondegenerately: on every class of
    the catalog groups and their hats, the degree dimensions are
    palindromic and each such Gram block has full rank."""
    f, w = klein
    classes = blocks = 0
    for key in CATALOG_KEYS:
        for hat in (False, True):
            for s in hh.report(catalog_group(key, hat=hat)).sectors:
                dims = s.degree_dims
                assert dims == dims[::-1], (key, hat, s.rep_index)
                algebra = build_sector(f, s.rep_matrix, w).algebra
                ends = [sum(dims[: n + 1]) for n in range(len(dims))]
                by_degree = [s.invariant_basis[end - d : end] for d, end in zip(dims, ends)]
                half = by_degree[: (len(dims) + 1) // 2]  # the pairing is symmetric
                for low, high in zip(half, reversed(by_degree)):
                    if low:
                        gram = [[residue_pairing(u, v, algebra) for v in high] for u in low]
                        assert linalg.rank(gram) == len(low), (key, hat, s.rep_index)
                        blocks += 1
                classes += 1
    assert (classes, blocks) == (144, 120)


def test_every_catalog_restriction_is_a_homogeneous_quartic(klein):
    from lgorb.polyring import WeightSystem, is_quasihomogeneous

    f, w = klein
    for key in ("slf", "e", "g", "i"):
        group = catalog_group(key, hat=(key in ("slf", "e")))
        for rep, _ in group.conjugacy().classes:
            sector = build_sector(f, group.elements[rep], w)
            if sector.fix_dim:
                weights = WeightSystem([1] * sector.fix_dim, 4)
                assert is_quasihomogeneous(sector.algebra.source, weights)
                assert not sector.algebra.source.is_zero()


def test_inadmissible_group_rejected(klein):
    f, w = klein
    jf = generator_matrix("j_f")
    group = generate_closure([jf])
    for call in (compute_hh, identity_sector_products):
        with pytest.raises(InadmissibleGroupError, match=r"^generator #1 has determinant "):
            call(f, group, w)


def test_non_symmetry_group_rejected(klein):
    f, w = klein
    zero, one = CycNum.zero(28), CycNum.one(28)
    swap = GMatrix([[zero, one, zero], [one, zero, zero], [zero, zero, -one]])
    group = generate_closure([swap])
    with pytest.raises(NotASymmetryError):
        compute_hh(f, group, w)


def test_dense_symmetry_check_keeps_its_message(klein):
    """Dense matrices go through the same substitution: a conjugate of T by
    R passes, a conjugate of diag(1, 1, -1) by R (det -1, so admissible by
    determinant) raises with the exact message, each time."""
    f, _ = klein
    zero, one = CycNum.zero(28), CycNum.one(28)
    r = generator_matrix("R")
    rinv = r.inverse()
    assert orbifold._preserves(f, r * generator_matrix("T") * rinv)
    flip = r * GMatrix.diagonal([one, one, -one]) * rinv
    assert sum(1 for row in flip.rows for e in row if e == zero) < 3
    for _ in range(2):
        with pytest.raises(NotASymmetryError, match="^a generator does not preserve the polynomial$"):
            orbifold._preserves(f, flip)


def _fermat28():
    """x^4 + y^4 + z^4 at the catalog's conductor 28, standard weights."""
    one = CycNum.one(28)
    return Poly(3, {(4, 0, 0): one, (0, 4, 0): one, (0, 0, 4): one}, 28), WeightSystem((1, 1, 1), 4)


def test_validation_by_membership_is_per_polynomial(klein, slf):
    """Once slf is validated for the Klein quartic, its elements skip the
    substitution for the Klein quartic only: for the Fermat quartic the
    cyclic permutation T still passes and the diagonal S still raises, each
    time, and the failing group is never recorded."""
    f, w = klein
    compute_dims(f, slf, w)
    assert slf in orbifold._VALIDATED[f]
    fermat, fermat_weights = _fermat28()
    cyclic = generate_closure([generator_matrix("T")])
    assert sum(map(sum, compute_dims(fermat, cyclic, fermat_weights))) > 0
    diagonal = generate_closure([generator_matrix("S")])
    for _ in range(2):
        with pytest.raises(NotASymmetryError, match="^a generator does not preserve the polynomial$"):
            compute_dims(fermat, diagonal, fermat_weights)
    assert diagonal not in orbifold._VALIDATED[fermat]
    assert cyclic in orbifold._VALIDATED[fermat]


def test_validation_by_membership_substitutes_only_unknown_generators(klein, slf, monkeypatch):
    """Beside generators known by membership in a validated group, a
    non-symmetric one is still substituted and refused with the same
    message, and a determinant outside +/-1 is still refused first."""
    f, w = klein
    compute_dims(f, slf, w)
    zero, one = CycNum.zero(28), CycNum.one(28)
    swap = GMatrix([[zero, one, zero], [one, zero, zero], [zero, zero, one]])
    known = [word_matrix("RS^2RS"), word_matrix("TS^4")]
    honest, substituted = orbifold.substitute_linear, []

    def counted(poly, rows):
        substituted.append(rows)
        return honest(poly, rows)

    monkeypatch.setattr(orbifold, "substitute_linear", counted)
    orbifold._preserves.cache_clear()
    with pytest.raises(NotASymmetryError, match="^a generator does not preserve the polynomial$"):
        orbifold.check_generators(f, [known[0], swap, known[1]], ["a", "b", "c"])
    assert substituted == [swap.rows]
    with pytest.raises(InadmissibleGroupError, match="^generator c has determinant "):
        orbifold.check_generators(f, [known[0], swap, generator_matrix("j_f")], ["a", "b", "c"])


def test_compute_hh_looks_up_each_class_once(klein, monkeypatch):
    """compute_hh builds each class's sector and its centralizer's
    generators once, also for classes whose blocks need a kernel."""
    f, w = klein
    group = _dense_conjugate("i", 909)
    honest, calls = matgroup.FiniteMatrixGroup.subgroup_generator_indices, []

    def counted(self, indices):
        calls.append(1)
        return honest(self, indices)

    monkeypatch.setattr(matgroup.FiniteMatrixGroup, "subgroup_generator_indices", counted)
    before = _build_sector.cache_info()
    report = compute_hh(f, group, w)
    after = _build_sector.cache_info()
    assert len(calls) == len(report.sectors)
    assert (after.hits + after.misses) - (before.hits + before.misses) == len(report.sectors)


def test_identity_sector_products_unit_law(klein):
    f, w = klein
    table = identity_sector_products(f, catalog_group("e", hat=True), w)
    unit = table.basis[0]
    assert unit == Poly.constant(1, 3, f.conductor)
    for j in range(len(table.basis)):
        coeffs = table.product(0, j)
        expected = [
            CycNum.one(28) if k == j else CycNum.zero(28)
            for k in range(len(table.basis))
        ]
        assert list(coeffs) == expected


def _catalog_products_case(key, hat):
    def case(klein):
        f, w = klein
        return f, catalog_group(key, hat=hat), w

    return case


def _weighted_products_case(_klein):
    """x1^2 + x2^4 + x3^4, weights (2, 1, 1; 4), under diag(1, -1, -1):
    top degree 4, invariants in degrees 0, 2, 2, 2, 4."""
    one = CycNum.one(28)
    f = Poly(3, {(2, 0, 0): one, (0, 4, 0): one, (0, 0, 4): one}, 28)
    group = generate_closure([GMatrix.diagonal([one, -one, -one])])
    return f, group, WeightSystem((2, 1, 1), 4)


_PRODUCT_CASES = {
    "b-False": _catalog_products_case("b", False),
    "c-False": _catalog_products_case("c", False),
    "e-True": _catalog_products_case("e", True),
    "j-False": _catalog_products_case("j", False),
    "weighted": _weighted_products_case,
}


@pytest.mark.parametrize("case", list(_PRODUCT_CASES))
def test_identity_sector_products_match_pairwise_oracle(klein, case):
    """The one-elimination table, which skips pairs whose lowest degrees
    add up to more than the top degree, equals one dense solve of a
    normal-formed product per pair."""
    f, group, w = _PRODUCT_CASES[case](klein)
    table = identity_sector_products(f, group, w)
    expected = pairwise_product_table(jacobian_algebra(f, w), table.basis)
    assert list(table.products) == list(expected)
    assert table.products == expected


def test_point_sector_has_the_empty_weight_system(klein):
    """S fixes only the origin: its sector algebra has no variables, the
    empty weight system, Milnor number 1 and Hessian class 1."""
    f, w = klein
    sector = build_sector(f, generator_matrix("S"), w)
    assert sector.fix_dim == 0
    assert sector.algebra.weights.weights == ()
    assert sector.algebra.milnor == 1
    assert sector.algebra.vector(hessian(sector.algebra.source)) == (CycNum.one(f.conductor),)
    for h in (generator_matrix("S"), -generator_matrix("S")):
        assert sector_action(h, sector) == ((h.det,),)


def _klein_e_hat_case(klein, _fermat):
    f, w = klein
    return f, catalog_group("e", hat=True), w


def _weighted_minus_case(_klein, _fermat):
    one = CycNum.one(28)
    f = Poly(3, {(2, 0, 0): one, (0, 4, 0): one, (0, 0, 4): one}, 28)
    return f, generate_closure([GMatrix.diagonal([one, -one, -one])]), WeightSystem((2, 1, 1), 4)


def _fermat_minus_case(_klein, fermat):
    f, w = fermat
    minus = CycNum.from_rational(-1, 4)
    return f, generate_closure([GMatrix.diagonal([minus] * 3)]), w


_TOP_DEGREE_CASES = {
    "klein-e^": _klein_e_hat_case,
    "weighted": _weighted_minus_case,
    "fermat": _fermat_minus_case,
}


@pytest.mark.parametrize("case", list(_TOP_DEGREE_CASES))
def test_identity_vector_reaches_the_hessian_degree(klein, fermat, case):
    """The identity dimension vector runs over degrees 0..sum(d - 2 w_i),
    the weighted degree of the Hessian."""
    f, group, w = _TOP_DEGREE_CASES[case](klein, fermat)
    report = compute_hh(f, group, w)
    top = sum(w.total - 2 * wi for wi in w.weights)
    assert len(report.identity_dimension_vector) == top + 1


def test_fermat_quartic_under_minus_identity(fermat):
    """x^4 + y^4 + z^4 at conductor 4 under <-I>: Jac(f) = C[x,y,z]/(x^3,
    y^3, z^3) has Hilbert series (1 + t + t^2)^3 = (1,3,6,7,6,3,1), -I keeps
    the even degrees, and the -I sector (a point) adds nothing."""
    f, w = fermat
    minus = CycNum.from_rational(-1, 4)
    group = generate_closure([GMatrix.diagonal([minus] * 3)])
    report = compute_hh(f, group, w)
    assert report.total_dim == 14
    assert report.identity_dimension_vector == (1, 0, 6, 0, 6, 0, 1)
    table = identity_sector_products(f, group, w)
    assert table.products == pairwise_product_table(jacobian_algebra(f, w), table.basis)


def test_degree_blocks_rejects_mixed_degrees():
    """The per-degree action checks that each image stays in its block:
    for x1^3 + x2^6 + x3^6 with weights (2, 1, 1; 6), swapping x1 and x2
    sends the degree-1 class x2 to the degree-2 class x1.  The character
    route rejects the same swap because it mixes weight spaces."""
    one, zero = CycNum.one(28), CycNum.zero(28)
    f = Poly(3, {(3, 0, 0): one, (0, 6, 0): one, (0, 0, 6): one}, 28)
    w = WeightSystem((2, 1, 1), 6)
    sector = build_sector(f, GMatrix.identity(3, 28), w)
    swap = GMatrix([[zero, one, zero], [one, zero, zero], [zero, zero, one]])
    action = _DegreeAction(swap, swap, sector)
    assert action.block(0) == ((one,),)
    with pytest.raises(GradingError, match="^sector action does not preserve the grading$"):
        action.block(1)
    diag = GMatrix.diagonal([one, -one, -one])
    assert _DegreeAction(diag, diag, sector).block(1) == ((-one, zero), (zero, -one))
    group = generate_closure([swap])
    mixes = "^a centralizing element mixes sector coordinates of different weights$"
    with pytest.raises(GradingError, match=mixes):
        invariant_degree_dims(group, sector, (0, 1), [1])


def test_report_json_roundtrip(klein):
    f, w = klein
    report = compute_hh(f, catalog_group("e"), w)

    data = json.loads(json.dumps(report.to_dict()))
    assert read_report(data) == report


_REPORT_DIGESTS = {
    ("e", True): "5bd87e3b8a1bda6e651c04167702e95768c03bcd77c626acec25bc6d9b90612d",
    ("g", False): "f9ca5981d5fb11204f93b5f415d06a89658e0376e00d7f6b312685076c2f5cdc",
    ("slf", True): "4f3b301426f5988e47da02e676dc6332516f134571867672e1e946d6134d6532",
    ("d", False): "19103e2c91a8f4236b1b4b27c09bfaa8ecd430172d9d6005499d34f10d583ad5",
    ("i", 909): "b69aa256f843e120d0f79684e654f966b5ed23f662fcc9b1af98565c213a0bb1",
}


@pytest.mark.parametrize(
    "key, how", list(_REPORT_DIGESTS), ids=["e^", "g", "slf^", "d", "i-conjugate"]
)
def test_report_bytes_are_pinned(klein, hh, key, how):
    """SHA-256 of the sorted-key report JSON, recorded from the
    kernel-per-degree-block engine; any change of basis, order or
    coefficient shows here.  `how` is the hat flag or a conjugator seed."""
    import hashlib

    group = catalog_group(key, hat=how) if isinstance(how, bool) else _dense_conjugate(key, how)
    blob = json.dumps(hh.report(group).to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == _REPORT_DIGESTS[key, how]


_GALOIS_CASES = [(27, key, hat) for key in CATALOG_KEYS for hat in (False, True)] + [
    (3, "e", True),
    (3, "i", False),
    (3, "slf", False),
]


@pytest.mark.parametrize(
    "k, key, hat",
    _GALOIS_CASES,
    ids=[f"sigma{k}-{key}{'^' if hat else ''}" for k, key, hat in _GALOIS_CASES],
)
def test_galois_conjugation_commutes_with_compute_hh(klein, k, key, hat):
    """f has rational coefficients and every step of compute_hh is rational
    in the matrix entries with sigma-invariant zero tests, so the report of
    sigma_k G (sigma_k of G's generators closed with the same words, the
    hat adjoined after) is sigma_k of G's report, invariant bases included."""
    f, w = klein
    base = catalog_group(key)
    gens = [galois(k, base.elements[i]) for i in base.generator_indices]
    conjugate = generate_closure(gens, words=[base.words[i] for i in base.generator_indices])
    if hat:
        conjugate = hat_extend(conjugate)
    group = catalog_group(key, hat=hat)
    assert [galois(k, m) for m in group.elements] == list(conjugate.elements)
    assert compute_hh(f, conjugate, w).to_dict() == galois(k, compute_hh(f, group, w).to_dict())


def test_galois_oracle_is_a_field_automorphism(rng):
    z = zeta(28)
    assert galois(27, z) == zeta(28, 27) and galois(3, zeta(7)) == zeta(7, 3)
    for _ in range(5):
        a, b = (
            sum((zeta(28, i) * rng.randint(-3, 3) for i in range(12)), CycNum.zero(28))
            for _ in range(2)
        )
        for k in (3, 27):
            assert galois(k, a * b) == galois(k, a) * galois(k, b)
            assert galois(k, a + b) == galois(k, a) + galois(k, b)
    assert galois(27, galois(27, a)) == a
    assert galois(27, generator_matrix("S")) == generator_matrix("S") ** 6


def test_repeated_computation_is_deterministic(klein):
    f, w = klein
    words = ["RS^3", "RS^2RS"]
    gens = [word_matrix(word) for word in words]
    first, second = (compute_hh(f, generate_closure(gens, words=words), w) for _ in range(2))
    assert first == second
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())


def test_weights_are_restricted_to_the_fixed_locus():
    """x1^2 + x2^4 + x3^4 with weights (2, 1, 1; 4) under g = diag(1, -1, -1):
    the identity sector keeps x2^a x3^b (a, b <= 2) with a + b even, and the
    g sector is Jac(x1^2) = C, fixed because det g / det(g|Fix g) = 1."""
    one = CycNum.one(28)
    f = Poly(3, {(2, 0, 0): one, (0, 4, 0): one, (0, 0, 4): one}, 28)
    w = WeightSystem((2, 1, 1), 4)
    report = compute_hh(f, generate_closure([GMatrix.diagonal([one, -one, -one])]), w)
    assert report.total_dim == 6
    assert report.identity_dimension_vector == (1, 0, 3, 0, 1)
    assert [(s.fix_dim, s.invariant_dim) for s in report.sectors] == [(3, 5), (1, 1)]
    with pytest.raises(ShapeError, match="^need 3 weights, got 2$"):
        compute_hh(f, generate_closure([GMatrix.diagonal([one, -one, -one])]), WeightSystem((2, 1), 4))


def test_fixed_locus_mixing_weights_is_a_grading_error():
    one, zero = CycNum.one(28), CycNum.zero(28)
    f = Poly(3, {(2, 0, 0): one, (0, 4, 0): one, (0, 0, 4): one}, 28)
    swap = GMatrix([[zero, one, zero], [one, zero, zero], [zero, zero, one]])
    with pytest.raises(GradingError, match="^the fixed locus is not spanned by weight-homogeneous vectors$"):
        _build_sector(f, swap, WeightSystem((2, 1, 1), 4))


_ORACLE_GROUPS = [(key, hat) for key in ("slf", *"abcdefghij") for hat in (False, True)]
_ORACLE_GROUPS += [(key, 300 + k) for k, key in enumerate("abcdefghij")]


@pytest.mark.parametrize(
    "key, how",
    _ORACLE_GROUPS,
    ids=[
        key + ("^" if how is True else "" if how is False else f"@{how}")
        for key, how in _ORACLE_GROUPS
    ],
)
def test_characters_and_reports_match_the_kernel_route(klein, hh, key, how):
    """Per class and per degree, the character prediction and the shipped
    report (dimensions and bases) equal a kernel on every degree block."""
    f, w = klein
    group = catalog_group(key, hat=how) if isinstance(how, bool) else _dense_conjugate(key, how)
    expected = kernel_route(f, group, w)
    report = hh.report(group)
    conj = group.conjugacy()
    assert [s.rep_index for s in report.sectors] == list(expected)
    for s in report.sectors:
        dims, basis = expected[s.rep_index]
        assert (s.degree_dims, s.invariant_basis) == (dims, basis)
        centralizer = conj.centralizers[s.rep_index]
        zgens = [i for i in group.subgroup_generator_indices(centralizer) if i]
        sector = _build_sector(f, group.elements[s.rep_index], w)
        assert invariant_degree_dims(group, sector, centralizer, zgens) == dims
    # the recorded totals that the exact computation contradicts
    disputed = {("g", False): 12, ("slf", True): 6, ("j", False): 12}
    if (key, how) in disputed:
        assert sum(sum(dims) for dims, _ in expected.values()) == disputed[key, how]


_DIMS_GROUPS = [(key, hat) for key in CATALOG_KEYS for hat in (False, True)]
_DIMS_GROUPS += [("a", 300), ("e", 304), ("i", 308)]
_DIMS_IDS = [
    key + ("^" if how is True else "" if how is False else f"@{how}") for key, how in _DIMS_GROUPS
]


@pytest.mark.parametrize("key, how", _DIMS_GROUPS, ids=_DIMS_IDS)
def test_dims_path_matches_the_reports(klein, hh, key, how):
    """The one cross-check of the dims path against the Groebner route:
    `compute_dims` gives each class's degree dimensions, in the order of
    the report's classes."""
    f, w = klein
    group = catalog_group(key, hat=how) if isinstance(how, bool) else _dense_conjugate(key, how)
    assert compute_dims(f, group, w) == [s.degree_dims for s in hh.report(group).sectors]


@pytest.mark.parametrize("key, how", _DIMS_GROUPS, ids=_DIMS_IDS)
def test_rank_only_totals_match_compute_dims(klein, hh, key, how):
    """The Euler count over commuting pairs (`euler_total`), which reads
    only ranks and determinants, gives the total of `compute_dims`: no
    characteristic polynomial or series enters it.  That includes the
    totals the records dispute (g 12, slf^ 6, and 8 for e^, g^, i^, j^)."""
    f, w = klein
    group = catalog_group(key, hat=how) if isinstance(how, bool) else _dense_conjugate(key, how)
    assert euler_total(f, group, w) == hh.total(group)


def test_only_classes_with_invariants_build_an_algebra(klein):
    """On a conjugate that no other test meets, `compute_dims` builds no
    Jacobian algebra, and `compute_hh` builds one only for the classes
    with a nonzero invariant dimension (3 of the 10 classes of i^)."""
    f, w = klein
    group = hat_extend(_dense_conjugate("i", 411))
    before = set(jacobian._ALGEBRA_CACHE)
    dims = compute_dims(f, group, w)
    assert set(jacobian._ALGEBRA_CACHE) == before
    report = compute_hh(f, group, w)
    built = set()
    for s in report.sectors:
        if s.invariant_dim:
            algebra = _build_sector(f, s.rep_matrix, w).algebra  # built by compute_hh
            built.add((algebra.source.cache_key(), algebra.weights.weights, algebra.weights.total))
    assert sum(not any(d) for d in dims) == 7
    assert set(jacobian._ALGEBRA_CACHE) - before <= built


def test_weighted_characters_match_the_kernel_route():
    one = CycNum.one(28)
    f = Poly(3, {(2, 0, 0): one, (0, 4, 0): one, (0, 0, 4): one}, 28)
    w = WeightSystem((2, 1, 1), 4)
    group = generate_closure([GMatrix.diagonal([one, -one, -one])])
    expected = kernel_route(f, group, w)
    report = compute_hh(f, group, w)
    assert {s.rep_index: (s.degree_dims, s.invariant_basis) for s in report.sectors} == expected
    assert expected[0][0] == (1, 0, 3, 0, 1)
    assert sum(sum(dims) for dims, _ in expected.values()) == 6 == euler_total(f, group, w)
    for rep, (dims, _) in expected.items():
        sector = _build_sector(f, group.elements[rep], w)
        assert invariant_degree_dims(group, sector, (0, 1), [1]) == dims


def test_character_average_must_be_a_non_negative_integer(klein):
    """Averaging over {1, S}, which is not a subgroup, gives the irrational
    (3 + tr S^-1)/2 in degree 1."""
    f, w = klein
    group = catalog_group("a")
    sector = _build_sector(f, group.elements[0], w)
    message = "^degree 1: the character average .* is not a non-negative integer$"
    with pytest.raises(CharacterError, match=message):
        invariant_degree_dims(group, sector, (0, 1), [])


def test_invariant_dimensions_must_be_palindromic(klein):
    """The residue pairing pairs degree n with degree top - n for an
    admissible group.  The grading operator j_f = diag(i, i, i) has
    determinant -i, so its invariants in the identity sector are
    (1, 0, 0, 0, 6, 0, 0), which the check rejects; compute_hh rejects
    j_f earlier, by its determinant."""
    f, w = klein
    group = generate_closure([generator_matrix("j_f")])
    sector = _build_sector(f, group.elements[0], w)
    message = r"^invariant dimensions \(1, 0, 0, 0, 6, 0, 0\) by degree 0..6 are not palindromic$"
    with pytest.raises(CharacterError, match=message):
        invariant_degree_dims(group, sector, tuple(range(group.order)), group.generator_indices)
    with pytest.raises(InadmissibleGroupError, match=r"determinant -z28\^7, not \+/-1$"):
        compute_hh(f, group, w)


def test_kernel_dimension_must_match_the_characters(klein, monkeypatch):
    """A block whose predicted dimension no kernel confirms raises: one
    invariant too many in degree 2 of catalog d's identity sector, where
    products of invariants fall short and the kernel is taken."""
    f, w = klein
    group = catalog_group("d")
    honest = orbifold.invariant_degree_dims

    def one_too_many(group, sector, centralizer, zgens):
        dims = list(honest(group, sector, centralizer, zgens))
        if sector.fix_dim == 3:
            dims[2] += 1
        return tuple(dims)

    monkeypatch.setattr(orbifold, "invariant_degree_dims", one_too_many)
    message = "^degree 2: the invariant kernel has dimension 4, the character average 5$"
    with pytest.raises(CharacterError, match=message):
        compute_hh(f, group, w)


_MEMOS = (
    "orbifold._build_sector",
    "orbifold._preserves",
    "molien._trace_series",
    "matgroup._entry",
    "matgroup._entry_product",
)


def _memo(name):
    module, attr = name.split(".")
    return getattr({"orbifold": orbifold, "molien": molien, "matgroup": matgroup}[module], attr)


@pytest.mark.parametrize("memo", _MEMOS)
@pytest.mark.parametrize("how", ["e^", "e@301"])
def test_reports_do_not_depend_on_the_memos(klein, memo, how, monkeypatch):
    """A report computed with the memo cleared, with it warm, and with it
    cleared again is the same report, byte for byte.  The group is built
    anew each time, so the matrix-entry tables are read as well.  The warm
    run reads the memo; for the symmetry check, whose generators may also
    be known by membership in a live validated group, the warm run
    substitutes nothing."""
    f, w = klein
    words = list(catalog_entry("e").generator_words)
    honest, substituted = orbifold.substitute_linear, []

    def counted(*args):
        substituted[-1] += 1
        return honest(*args)

    monkeypatch.setattr(orbifold, "substitute_linear", counted)
    blobs, hits = [], []
    for clear in (True, False, True):
        substituted.append(0)
        if clear:
            _memo(memo).cache_clear()
        if how == "e^":
            group = hat_extend(generate_closure([word_matrix(x) for x in words], words=words))
        else:
            group = _dense_conjugate("e", 301)
        blobs.append(json.dumps(compute_hh(f, group, w).to_dict(), sort_keys=True))
        hits.append(_memo(memo).cache_info().hits)
    assert blobs[0] == blobs[1] == blobs[2]
    if memo == "orbifold._preserves":
        assert substituted[1] == 0
    else:
        assert hits[1] > hits[0]


def test_memos_cache_no_exceptions(klein):
    """A call that raises raises again when repeated, and a failing
    symmetry check is never stored."""
    one, zero = CycNum.one(28), CycNum.zero(28)
    f = Poly(3, {(2, 0, 0): one, (0, 4, 0): one, (0, 0, 4): one}, 28)
    swap = GMatrix([[zero, one, zero], [one, zero, zero], [zero, zero, one]])
    weights = WeightSystem((2, 1, 1), 4)
    mixing = ((zero, one), (one, zero))
    for _ in range(2):
        with pytest.raises(GradingError, match="^the fixed locus is not spanned"):
            _build_sector(f, swap, weights)
        with pytest.raises(GradingError, match="^a centralizing element mixes sector coordinates"):
            molien._graded_trace(one, mixing, (2, 1), 4, 4)
    klein_f, _ = klein
    stored = orbifold._preserves.cache_info().currsize
    for _ in range(2):
        with pytest.raises(NotASymmetryError):
            orbifold._preserves(klein_f, GMatrix.diagonal([one, one, -one]))
    assert orbifold._preserves.cache_info().currsize == stored


def test_trace_memo_keeps_the_weights():
    """One 1 x 1 block B = (b) with det h = 1 and total weight 4: the trace
    is (b - s^(4-w)) / (1 - b s^w), so weights 1 and 2 give different
    series from the same characteristic polynomial t - b."""
    zero, one, b = CycNum.zero(28), CycNum.one(28), zeta(28, 4)
    expected = {
        1: (b, b**2, b**3, b**4 - one, b**5 - b),
        2: (b, zero, b**2 - one, zero, b**3 - b),
    }
    for order in ((1, 2), (2, 1)):
        molien._trace_series.cache_clear()
        for w in order:
            assert molien._graded_trace(one, ((b,),), (w,), 4, 4) == expected[w]
        for w in order:
            assert molien._graded_trace(one, ((b,),), (w,), 4, 4) == expected[w]


def test_warm_calls_make_no_normal_form(klein, monkeypatch):
    """Once the algebras of catalog e^ hold their product tables, a second
    compute_hh and a second identity_sector_products make no normal form.
    The module attribute is wrapped, and rebound in every lgorb module that
    imported it by name, as the benchmark's tracer does."""
    f, w = klein
    group = catalog_group("e", hat=True)
    compute_hh(f, group, w)
    identity_sector_products(f, group, w)
    original, calls = jacobian.normal_form, []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "lgorb":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    compute_hh(f, group, w)
    assert len(calls) == 0
    identity_sector_products(f, group, w)
    assert len(calls) == 0
    jacobian.normal_form(Poly(3, {(3, 0, 0): 1}, f.conductor), jacobian_algebra(f, w).gb)
    assert len(calls) == 1
