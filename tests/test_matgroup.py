import random
import warnings

import pytest

import oracles
from lgorb import linalg
from lgorb.catalog import CATALOG_KEYS, catalog_group, generator_matrix, word_matrix
from lgorb.errors import ClosureCapExceededError, SingularMatrixError
from lgorb.exactnum import CycNum, zeta
from lgorb.matgroup import (
    GMatrix,
    fixed_space,
    from_elements,
    generate_closure,
    groups_conjugate,
    hat_extend,
)
from lgorb.polyring import substitute_linear

CATALOG_ORDERS = {
    "slf": 168, "a": 7, "b": 3, "c": 4, "d": 2, "e": 4,
    "f": 6, "g": 8, "h": 21, "i": 24, "j": 12,
}


def test_generator_matrices(klein):
    f, _ = klein
    R, S, T = generator_matrix("R"), generator_matrix("S"), generator_matrix("T")
    assert (R * R).is_identity()
    assert R.det == 1 and T.det == 1 and S.det == 1
    assert S == GMatrix.diagonal([zeta(28, 16), zeta(28, 8), zeta(28, 4)])
    assert S.order() == 7
    assert word_matrix("TRS^2RS^3").order() == 4
    minus_id = generator_matrix("-I")
    assert minus_id.det == -1
    jf = generator_matrix("j_f")
    assert jf.det == -zeta(28, 7)  # -i: not admissible
    for name in ("R", "S", "T", "-I", "j_f"):
        assert substitute_linear(f, generator_matrix(name).rows) == f
    with pytest.raises(KeyError):
        generator_matrix("Q")


def test_closure_orders():
    assert generate_closure([generator_matrix("S")]).order == 7
    assert generate_closure([-GMatrix.identity(3, 28)]).order == 2


def test_slf_closure_and_classes(slf):
    assert slf.order == 168
    data = slf.conjugacy()
    sizes = sorted(len(members) for _, members in data.classes)
    assert sizes == [1, 21, 24, 24, 42, 56]
    for rep, members in data.classes:
        assert len(members) * len(data.centralizers[rep]) == 168
    # identity class is the first one
    assert data.classes[0][0] == 0 and data.classes[0][1] == (0,)


def test_closure_cap_and_singular_generator():
    R, T, S = (generator_matrix(k) for k in "RTS")
    with pytest.raises(ClosureCapExceededError):
        generate_closure([R, T, S], cap=10)
    zero_row = [[CycNum.zero(28)] * 3 for _ in range(3)]
    singular = GMatrix(zero_row)
    with pytest.raises(SingularMatrixError):
        generate_closure([singular])


def test_centralizers_in_slf(slf):
    S = generator_matrix("S")
    s_index = slf.index[S]
    z = slf.centralizer(s_index)
    assert len(z) == 7
    powers = {slf.index[S**k] for k in range(7)}
    assert set(z) == powers
    assert len(slf.centralizer(0)) == 168
    # Z(R) is generated by the two recorded order-8-subgroup words
    R = generator_matrix("R")
    z_r = set(slf.centralizer(slf.index[R]))
    assert len(z_r) == 8
    gens = [word_matrix("TRSRS^5"), word_matrix("TRS^3RS^6")]
    from lgorb.matgroup import generate_closure

    assert {slf.index[m] for m in generate_closure(gens).elements} == z_r


def test_centralizer_of_v4_in_s4():
    s4 = catalog_group("i")
    v4 = word_matrix("T^2RS^6RS^4")
    z = s4.centralizer(s4.index[v4])
    assert len(z) == 8
    listed = [
        "RS^4RS^3", "R", "T^2RS^2RS^6", "T^2RS^3RS",
        "T^2RS^5RS^2", "T^2RS^6RS^4", "TRSRS^5",
    ]
    expected = {s4.index[word_matrix(w)] for w in listed} | {0}
    assert set(z) == expected


def test_abelian_groups_have_singleton_classes():
    for key in ("a", "b", "c", "d", "e"):
        group = catalog_group(key)
        data = group.conjugacy()
        assert all(len(members) == 1 for _, members in data.classes)
        assert group.is_abelian()


def test_s4_has_five_classes():
    s4 = catalog_group("i")
    assert len(s4.conjugacy().classes) == 5
    assert not s4.is_abelian()


def test_class_size_times_centralizer_for_all_catalog_groups():
    for key, order in CATALOG_ORDERS.items():
        group = catalog_group(key)
        assert group.order == order
        data = group.conjugacy()
        for rep, members in data.classes:
            assert len(members) * len(data.centralizers[rep]) == order


def test_every_catalog_element_preserves_f(klein):
    f, _ = klein
    for key in CATALOG_ORDERS:
        for m in catalog_group(key).elements:
            assert substitute_linear(f, m.rows) == f


def test_fixed_spaces(klein):
    T = generator_matrix("T")
    ft, free = fixed_space(T)
    one = CycNum.one(28)
    assert ft == ((one, one, one),)
    assert free == (2,)
    assert fixed_space(generator_matrix("S")) == ((), ())
    g = word_matrix("RS^2RS")
    assert len(fixed_space(g)[0]) == 1
    basis, free = fixed_space(-g)
    assert len(basis) == 2
    # the free rows of the basis form an identity block
    assert [[col[r] for col in basis] for r in free] == [[one, 0], [0, one]]


def test_fixed_space_conjugation_equivariance(slf, rng):
    for _ in range(6):
        g = slf.elements[rng.randrange(slf.order)]
        h = slf.elements[rng.randrange(slf.order)]
        left, _ = fixed_space(h * g * h.inverse())
        right = tuple(h.apply(col) for col in fixed_space(g)[0])
        assert len(left) == len(right)
        if left:
            stacked = [list(col) for col in left + right]
            assert linalg.rank(list(map(list, zip(*stacked)))) == len(left)


def test_det_is_multiplicative(slf, rng):
    for _ in range(10):
        a = slf.elements[rng.randrange(slf.order)]
        b = slf.elements[rng.randrange(slf.order)]
        assert (a * b).det == a.det * b.det


def test_element_orders_and_dets(slf):
    minus_id = generator_matrix("-I")
    assert minus_id.det == -1
    assert word_matrix("RSRS^5").order() == 4
    one = CycNum.one(28)
    assert all(d == one for d in slf.determinants())
    assert slf.is_admissible()


def test_element_order_cap():
    from lgorb.errors import OrderCapExceededError

    with pytest.raises(OrderCapExceededError):
        generator_matrix("S").order(cap=3)


def test_hat_extend():
    trivial = generate_closure([GMatrix.identity(3, 28)])
    hat_trivial = hat_extend(trivial)
    assert hat_trivial.order == 2
    v4 = catalog_group("e")
    hat_v4 = hat_extend(v4)
    assert hat_v4.order == 8
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        again = hat_extend(hat_v4)
        assert again is hat_v4
        assert caught and "unchanged" in str(caught[0].message)


def test_hat_slf_has_12_classes(slf):
    hat = catalog_group("slf", hat=True)
    assert hat.order == 336
    data = hat.conjugacy()
    assert len(data.classes) == 12
    # classes come in +/- pairs of the base classes
    base = slf.conjugacy()
    minus = hat.index[-GMatrix.identity(3, 28)]
    base_class_sets = {
        frozenset(hat.index[slf.elements[i]] for i in members)
        for _, members in base.classes
    }
    hat_class_sets = {frozenset(members) for _, members in data.classes}
    for cls in base_class_sets:
        assert cls in hat_class_sets
        negated = frozenset(hat.mul_index(minus, i) for i in cls)
        assert negated in hat_class_sets


def test_groups_conjugate(slf, rng):
    a_group = catalog_group("a")
    b_group = catalog_group("b")
    assert groups_conjugate(a_group, b_group, slf) is None
    # constructed conjugate is recovered
    h = slf.elements[rng.randrange(1, slf.order)]
    hinv = h.inverse()
    conj = from_elements([h * m * hinv for m in a_group.elements])
    found = groups_conjugate(a_group, conj, slf)
    assert found is not None
    finv = found.inverse()
    assert {found * m * finv for m in a_group.elements} == set(conj.elements)


def test_two_v4_classes_are_not_conjugate(slf):
    e_group = catalog_group("e")
    a = word_matrix("RS^3")
    b = word_matrix("RS^2RS")
    v1 = generate_closure([a * a, b])
    v2 = generate_closure([a * a, a * b])
    assert v1.order == 4 and v2.order == 4
    assert groups_conjugate(v1, v2, slf) is None
    conjugate_flags = [
        groups_conjugate(e_group, v1, slf) is not None,
        groups_conjugate(e_group, v2, slf) is not None,
    ]
    assert sorted(conjugate_flags) == [False, True]


def test_group_words_track_products(slf):
    for i in (0, 1, 5, 20):
        word = slf.word_for(i)
        assert word is not None
        if i == 0:
            assert word == "id"
        else:
            assert word_matrix(word) == slf.elements[i]


def test_group_serialization(slf):
    small = catalog_group("e")
    data = small.to_dict()
    assert data["conductor"] == 28
    restored = [GMatrix.from_lists(m) for m in data["matrices"]]
    assert restored == list(small.elements)


def _assert_structure_matches_oracle(group, pairs=None):
    """Table-derived structure against the matrix-product oracles; mul_index
    on every pair, or on the given sample of pairs."""
    assert group.inverse_index() == oracles.matrix_inverse_index(group)
    data = group.conjugacy()
    classes = oracles.matrix_conjugacy_classes(group)
    assert data.classes == tuple(classes)
    assert data.centralizers == {
        rep: oracles.matrix_centralizer(group, rep) for rep, _ in classes
    }
    if pairs is None:
        pairs = [(i, j) for i in range(group.order) for j in range(group.order)]
    for i, j in pairs:
        assert group.mul_index(i, j) == group.index[group.elements[i] * group.elements[j]]


@pytest.mark.parametrize("hat", [False, True], ids=["base", "hat"])
@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_table_structure_matches_matrix_oracle(key, hat):
    group = catalog_group(key, hat=hat)
    pairs = None
    if group.order > 24:  # a seeded sample keeps the matrix products few
        rng = random.Random(group.order)
        pairs = [(rng.randrange(group.order), rng.randrange(group.order)) for _ in range(150)]
    _assert_structure_matches_oracle(group, pairs)


@pytest.mark.parametrize("hat", [False, True], ids=["base", "hat"])
@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_centralizer_class_orbits_match_matrix_oracle(key, hat):
    """The classes of each centralizer, as the Molien average walks them.
    A centralizer that is the whole group is skipped above order 24: its
    classes are the group's, checked by the structure test above."""
    group = catalog_group(key, hat=hat)
    conj = group.conjugacy()
    for rep, _ in conj.classes:
        centralizer = conj.centralizers[rep]
        if len(centralizer) == group.order > 24:
            continue
        zgens = [i for i in group.subgroup_generator_indices(centralizer) if i != 0]
        orbits = group.class_orbits(centralizer, zgens)
        sub = from_elements([group.elements[i] for i in centralizer])
        expected = [
            (centralizer[first], tuple(centralizer[k] for k in members))
            for first, members in oracles.matrix_conjugacy_classes(sub)
        ]
        assert [(first, tuple(sorted(members))) for first, members in orbits] == expected


def test_from_elements_conjugates_match_matrix_oracle(slf):
    rng = random.Random(20261017)
    for key in ("c", "g", "h", "i", "j"):
        base = catalog_group(key)
        h = slf.elements[rng.randrange(1, slf.order)]
        hinv = h.inverse()
        conjugated = [h * m * hinv for m in base.elements]
        rng.shuffle(conjugated)
        group = from_elements(conjugated)
        assert group.elements[0].is_identity()
        assert list(group.generator_indices) == oracles.matrix_greedy_generators(group.elements)
        _assert_structure_matches_oracle(group)
        assert group.subgroup_generator_indices(range(group.order)) == list(
            group.generator_indices
        )


def test_from_elements_rejects_unclosed_lists():
    S = generator_matrix("S")
    with pytest.raises(ValueError):
        from_elements([GMatrix.identity(3, 28), S, S * S])


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_hat_extend_matches_closure_with_minus_identity(key):
    group = catalog_group(key)
    hat = hat_extend(group)
    closed = generate_closure(
        list(group.generators) + [generator_matrix("-I")],
        words=[group.words[i] for i in group.generator_indices] + ["-I"],
    )
    assert hat.elements == closed.elements
    assert hat.words == closed.words
    assert hat.generator_indices == closed.generator_indices
    assert hat.generator_tables == closed.generator_tables


def _shape_family(rng, n, conductor):
    """Permutation, diagonal, signed-monomial and dense matrices over
    Q(zeta_conductor), with entries 1 and -1 among the general ones."""
    one, zero = CycNum.one(conductor), CycNum.zero(conductor)

    def entry():
        return rng.choice([one, -one, zeta(conductor, rng.randrange(conductor)) * rng.randint(1, 3)])

    def monomial(values):
        perm = list(range(n))
        rng.shuffle(perm)
        return GMatrix([[values[i] if j == perm[i] else zero for j in range(n)] for i in range(n)])

    family = [GMatrix.identity(n, conductor)]
    for _ in range(2):
        family.append(monomial([one] * n))
        family.append(GMatrix.diagonal([entry() for _ in range(n)]))
        family.append(monomial([rng.choice([one, -one]) * entry() for _ in range(n)]))
        family.append(GMatrix([[entry() + rng.randint(0, 2) for _ in range(n)] for _ in range(n)]))
    return family


@pytest.mark.parametrize("conductor", [7, 28])
def test_gmatrix_products_match_dense_dot_oracle(conductor):
    """Every entry of a product equals the dot over all terms, zeros
    included, for every pair of shapes, and so does the product's hash."""
    rng = random.Random(6600 + conductor)
    family = _shape_family(rng, 3, conductor)
    for a in family:
        for b in family:
            product = a * b
            expected = oracles.dense_matmul(a.rows, b.rows)
            assert product.rows == expected
            assert hash(product) == hash(GMatrix(expected))
