import random

import pytest

from lgorb import linalg
from lgorb.catalog import catalog_group, generator_matrix, word_matrix
from lgorb.errors import GradingError, InadmissibleGroupError, NotASymmetryError, ShapeError
from lgorb.exactnum import CycNum
from lgorb.jacobian import jacobian_algebra
from lgorb.matgroup import GMatrix, generate_closure, from_elements
from lgorb.orbifold import (
    HHReport,
    _build_sector,
    _degree_blocks,
    _sector_action,
    build_sector,
    compute_hh,
    identity_sector_products,
    invariant_subspace,
    restriction_matrix,
    reynolds_image,
    rho,
    sector_action,
    surface_cohomology_dim,
)
from lgorb.polyring import Poly, WeightSystem
from oracles import pairwise_product_table, substitution_sector_action


def test_surface_cohomology_dim():
    assert surface_cohomology_dim(3) == 8
    assert surface_cohomology_dim(1) == 4
    assert surface_cohomology_dim(0) == 2
    with pytest.raises(ValueError):
        surface_cohomology_dim(-1)


def test_build_sector_examples(klein):
    f, w = klein
    s_sector = build_sector(f, generator_matrix("S"), w)
    assert s_sector.fix_dim == 0 and s_sector.dim_raw == 1

    t_sector = build_sector(f, generator_matrix("T"), w)
    assert t_sector.fix_dim == 1 and t_sector.dim_raw == 3
    assert t_sector.restricted == Poly(1, {(4,): 3}, f.conductor)

    g = -word_matrix("RS^2RS")
    wide = build_sector(f, g, w)
    assert wide.fix_dim == 2 and wide.dim_raw == 9

    identity_sector = build_sector(f, GMatrix.identity(3, 28), w)
    assert identity_sector.fix_dim == 3 and identity_sector.dim_raw == 27
    assert identity_sector.restricted == f


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
            assert _sector_action(h, hinv, sector) == expected
            assert sector_action(h, sector) == expected
            det_hinv = linalg.det(restriction_matrix(hinv, sector)) if sector.fix_dim else 1
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
    degree3 = [p for p in identity_report.invariant_basis if p.total_degree() == 3]
    assert len(degree3) == 1
    # the degree-3 invariant is the symmetric product class x1 x2 x3
    m = Poly(3, {(1, 1, 1): 1}, f.conductor)
    from lgorb.jacobian import jacobian_algebra

    algebra = jacobian_algebra(f, w)
    stack = [list(algebra.vector(degree3[0])), list(algebra.vector(m))]
    assert linalg.rank(stack) == 1


def test_slf_identity_invariants_are_unit_and_hessian_class(klein, hh):
    from lgorb.jacobian import jacobian_algebra
    from lgorb.polyring import hessian

    f, w = klein
    report = hh.report(catalog_group("slf"))
    identity = report.sectors[0]
    assert identity.invariant_dim == 2
    degree6 = [p for p in identity.invariant_basis if p.total_degree() == 6]
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


def test_every_catalog_restriction_is_a_homogeneous_quartic(klein):
    from lgorb.polyring import WeightSystem, is_quasihomogeneous

    f, w = klein
    for key in ("slf", "e", "g", "i"):
        group = catalog_group(key, hat=(key in ("slf", "e")))
        for rep, _ in group.conjugacy().classes:
            sector = build_sector(f, group.elements[rep], w)
            if sector.fix_dim:
                weights = WeightSystem([1] * sector.fix_dim, 4)
                assert is_quasihomogeneous(sector.restricted, weights)
                assert not sector.restricted.is_zero()


def test_inadmissible_group_rejected(klein):
    f, w = klein
    jf = generator_matrix("j_f")
    group = generate_closure([jf])
    with pytest.raises(InadmissibleGroupError):
        compute_hh(f, group, w)


def test_non_symmetry_group_rejected(klein):
    f, w = klein
    zero, one = CycNum.zero(28), CycNum.one(28)
    swap = GMatrix([[zero, one, zero], [one, zero, zero], [zero, zero, -one]])
    group = generate_closure([swap])
    with pytest.raises(NotASymmetryError):
        compute_hh(f, group, w)


def test_identity_sector_products_unit_law(klein):
    f, w = klein
    table = identity_sector_products(f, catalog_group("e", hat=True))
    unit = table.basis[0]
    assert unit == Poly.constant(1, 3, f.conductor)
    for j in range(len(table.basis)):
        coeffs = table.product(0, j)
        expected = [
            CycNum.one(28) if k == j else CycNum.zero(28)
            for k in range(len(table.basis))
        ]
        assert list(coeffs) == expected


@pytest.mark.parametrize("key, hat", [("b", False), ("c", False), ("e", True), ("j", False)])
def test_identity_sector_products_match_pairwise_oracle(klein, key, hat):
    f, w = klein
    table = identity_sector_products(f, catalog_group(key, hat=hat), w)
    expected = pairwise_product_table(jacobian_algebra(f, w), table.basis)
    assert list(table.products) == list(expected)
    assert table.products == expected


def test_degree_blocks_rejects_mixed_degrees():
    one, zero = CycNum.one(28), CycNum.zero(28)
    mixing = ((one, one), (zero, one))
    assert _degree_blocks(mixing, [range(0, 2)]) == [mixing]
    with pytest.raises(GradingError, match="^sector action does not preserve the grading$"):
        _degree_blocks(mixing, [range(0, 1), range(1, 2)])


def test_report_json_roundtrip(klein):
    f, w = klein
    report = compute_hh(f, catalog_group("e"), w)
    import json

    data = json.loads(json.dumps(report.to_dict()))
    assert HHReport.from_dict(data) == report


def test_repeated_computation_is_deterministic(klein):
    import json

    f, w = klein
    words = ["RS^3", "RS^2RS"]
    gens = [word_matrix(word) for word in words]
    first, second = (compute_hh(f, generate_closure(gens, words=words), w) for _ in range(2))
    assert first == second
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())


def test_identity_sector_products_supplied_basis(klein, monkeypatch):
    """The supplied-basis path takes generator inverses from the group
    table, and rejects a non-invariant class and a short list."""
    f, w = klein
    group = catalog_group("d")
    computed = identity_sector_products(f, group, w)
    assert len(computed.basis) == 15

    def no_invert(*_args):
        raise AssertionError("linalg.invert called")

    monkeypatch.setattr(linalg, "invert", no_invert)
    assert identity_sector_products(f, group, w, basis=computed.basis) == computed
    # the only degree-1 invariant replaced by a monomial it does not fix
    assert computed.basis[1].total_degree() == 1
    moved = list(computed.basis)
    moved[1] = Poly(3, {(1, 0, 0): 1}, f.conductor)
    with pytest.raises(ValueError, match="^a supplied class is not invariant$"):
        identity_sector_products(f, group, w, basis=moved)
    with pytest.raises(ValueError, match="^supplied classes are not a basis of the invariants$"):
        identity_sector_products(f, group, w, basis=computed.basis[:-1])


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
