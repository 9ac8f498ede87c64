import gc
import json
import random
import warnings
import weakref
from fractions import Fraction

import pytest

import oracles
from lgorb import linalg, matgroup
from lgorb.catalog import CATALOG_KEYS, catalog_entry, catalog_group, generator_matrix, word_matrix
from lgorb.errors import ClosureCapExceededError, SingularMatrixError
from lgorb.exactnum import CycNum, zeta
from lgorb.matgroup import (
    DEFAULT_CLOSURE_CAP,
    FiniteMatrixGroup,
    GMatrix,
    fixed_space,
    from_elements,
    generate_closure,
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
    assert oracles.element_order(S) == 7
    assert oracles.element_order(word_matrix("TRS^2RS^3")) == 4
    minus_id = generator_matrix("-I")
    assert minus_id.det == -1
    jf = generator_matrix("j_f")
    assert jf.det == -zeta(28, 7)  # -i: not admissible
    for name in ("R", "S", "T", "-I", "j_f"):
        assert substitute_linear(f, generator_matrix(name).rows) == f
    with pytest.raises(KeyError):
        generator_matrix("Q")


def test_word_evaluation_makes_no_identity_products(monkeypatch):
    """A power starts from its base, not from the identity: the word S costs
    no matrix product and RS^2RS costs 4 (one square, three joins), and
    every power equals the repeated product of the oracle."""
    names = {name: generator_matrix(name) for name in ("R", "S", "T", "-I")}
    calls, honest = [], GMatrix.__mul__

    def counted(a, b):
        calls.append(1)
        return honest(a, b)

    expected = {}
    for word, factors in (("S", "S"), ("RS^2RS", "RSSRS")):
        rows = names[factors[0]].rows
        for name in factors[1:]:
            rows = oracles.dense_matmul(rows, names[name].rows)
        expected[word] = GMatrix(rows)
    monkeypatch.setattr(GMatrix, "__mul__", counted)
    for word, products in (("S", 0), ("RS^2RS", 4)):
        calls.clear()
        assert word_matrix(word) == expected[word]
        assert len(calls) == products
    s = names["S"]
    power = GMatrix.identity(3, 28)
    for k in range(9):
        assert s**k == power and s ** (k - 7) == power
        power = GMatrix(oracles.dense_matmul(power.rows, s.rows))


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
    """[[2]] has infinite order, so its closure passes the default cap."""
    two = GMatrix([[CycNum.from_rational(2, 28)]])
    cap_message = f"^closure exceeded cap {DEFAULT_CLOSURE_CAP};"
    with pytest.raises(ClosureCapExceededError, match=cap_message):
        generate_closure([two])
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
        pairs = [(a, b) for a in range(group.order) for b in range(a)]
        right = group._right_tables()
        assert all(right[b][a] == right[a][b] for a, b in pairs)


def test_s4_has_five_classes():
    s4 = catalog_group("i")
    assert len(s4.conjugacy().classes) == 5
    right = s4._right_tables()
    assert any(right[b][a] != right[a][b] for a in range(24) for b in range(24))


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
        right = tuple(oracles.apply(h, col) for col in fixed_space(g)[0])
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
    assert oracles.element_order(word_matrix("RSRS^5")) == 4
    one = CycNum.one(28)
    assert all(d == one for d in slf.determinants())


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
        negated = frozenset(hat._right_tables()[i][minus] for i in cls)
        assert negated in hat_class_sets


def test_groups_conjugate(slf, rng):
    a_group = catalog_group("a")
    b_group = catalog_group("b")
    assert oracles.groups_conjugate(a_group, b_group, slf) is None
    # constructed conjugate is recovered
    h = slf.elements[rng.randrange(1, slf.order)]
    hinv = h.inverse()
    conj = from_elements([h * m * hinv for m in a_group.elements])
    found = oracles.groups_conjugate(a_group, conj, slf)
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
    assert oracles.groups_conjugate(v1, v2, slf) is None
    conjugate_flags = [
        oracles.groups_conjugate(e_group, v1, slf) is not None,
        oracles.groups_conjugate(e_group, v2, slf) is not None,
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
    data = json.loads(json.dumps([m.to_lists() for m in small.elements]))
    assert all(e["conductor"] == 28 for m in data for row in m for e in row)
    restored = [GMatrix([[CycNum.from_dict(e) for e in row] for row in m]) for m in data]
    assert restored == list(small.elements)


def _assert_structure_matches_oracle(group, pairs=None):
    """Table-derived structure against the matrix-product oracles; the right
    tables on every pair, or on the given sample of pairs."""
    assert group.inverse_index() == oracles.matrix_inverse_index(group)
    data = group.conjugacy()
    classes = oracles.matrix_conjugacy_classes(group)
    assert data.classes == tuple(classes)
    assert data.centralizers == {
        rep: oracles.matrix_centralizer(group, rep) for rep, _ in classes
    }
    if pairs is None:
        pairs = [(i, j) for i in range(group.order) for j in range(group.order)]
    right = group._right_tables()
    for i, j in pairs:
        assert right[j][i] == group.index[group.elements[i] * group.elements[j]]


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


def _multiplied_closure(generators, words=None):
    """`generate_closure` with no live closed group to walk, so that every
    element comes from matrix products."""
    saved, matgroup._CLOSED = matgroup._CLOSED, weakref.WeakSet()
    try:
        return generate_closure(generators, words=words)
    finally:
        matgroup._CLOSED = saved


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_hat_extend_matches_closure_with_minus_identity(key):
    group = catalog_group(key)
    hat = hat_extend(group)
    closed = _multiplied_closure(
        list(group.generators) + [generator_matrix("-I")],
        words=[group.words[i] for i in group.generator_indices] + ["-I"],
    )
    assert hat.elements == closed.elements
    assert hat.words == closed.words
    assert hat.generator_indices == closed.generator_indices
    assert hat.generator_tables == closed.generator_tables


@pytest.mark.parametrize("hat", [False, True], ids=["", "hat"])
@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_catalog_words_match_the_per_element_concatenation(key, hat):
    """Each catalog group's words, read off its spanning tree, equal the
    words that a closure concatenating a string per element finds."""
    group = catalog_group(key, hat)
    assert group.words == tuple(oracles.closure_words(group.generators, group.generator_words))


@pytest.mark.parametrize("hat", [False, True], ids=["", "hat"])
@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_word_for_reads_one_word_off_its_tree_path(key, hat):
    """`word_for(i)` spells element i from its own tree path: it equals
    `words[i]` on every element, and a fresh closure of the same
    generator words answers it without building `words`."""
    base = catalog_group(key)
    fresh = generate_closure(list(base.generators), words=list(base.generator_words))
    if hat:
        fresh = hat_extend(fresh)
    spelled = [fresh.word_for(i) for i in range(fresh.order)]
    assert "words" not in vars(fresh)
    group = catalog_group(key, hat)
    assert fresh.elements == group.elements
    assert spelled == [group.word_for(i) for i in range(group.order)] == list(group.words)


_DEGENERATE_LISTS = {
    "repeated": ["T", "T^4"],  # one matrix under two different words
    "identity": ["R^2", "T", "S"],
    "product": ["R", "S", "RS^2"],
}


@pytest.mark.parametrize("walk", [False, True], ids=["multiplied", "membership"])
@pytest.mark.parametrize("name", list(_DEGENERATE_LISTS))
def test_degenerate_generator_lists_keep_their_words(name, walk):
    """Words of closures and their -id extensions equal the per-element
    concatenation for a repeated generator, the identity among the
    generators and a generator that is a product of earlier ones: a
    generator that discovers no element contributes no word.  The extension
    spells its elements by the group's generator words, and the same words
    come from the words at the generator indices, which the extension used
    before.

    The tree keys the identity by index 0, where the concatenation keyed it
    by its word "id"; the two differ only for another element spelled
    "id", and no catalog or command-line word can be "id": the word grammar
    has the bases R, S, T and -I only.  So no output moves."""
    words = _DEGENERATE_LISTS[name]
    gens = [word_matrix(w) for w in words]
    catalog_group("slf", hat=True)  # a live holder of every generator
    group = generate_closure(gens, words=words) if walk else _multiplied_closure(gens, words)
    assert group.words == tuple(oracles.closure_words(gens, words))
    hat = hat_extend(group)
    minus = [generator_matrix("-I")]
    assert hat.words == tuple(oracles.closure_words(gens + minus, words + ["-I"]))
    at_indices = [group.word_for(i) for i in group.generator_indices]
    assert hat.words == tuple(oracles.closure_words(gens + minus, at_indices + ["-I"]))


def test_groups_without_generator_words_have_no_words():
    group = from_elements(catalog_group("c").elements)
    hat = hat_extend(group)
    assert group.words is None and hat.words is None
    assert group.word_for(1) is None and hat.word_for(1) is None


def test_a_tree_that_misses_an_element_is_refused(slf):
    """The constructor takes the tree its closure walked and refuses one
    that does not reach every element, whether it is cut short or names an
    element twice."""
    tree = list(slf._tree)
    rebuilt = FiniteMatrixGroup(slf.elements, slf.generator_tables, tree, slf.generator_words)
    assert rebuilt.words == slf.words
    for broken in (tree[:-1], tree[:-1] + [tree[0]]):
        with pytest.raises(ValueError, match="^the generators do not generate the element list$"):
            FiniteMatrixGroup(slf.elements, slf.generator_tables, broken, slf.generator_words)


def _shape_family(rng, n, conductor):
    """Permutation, diagonal, signed-monomial and dense matrices over
    Q(zeta_conductor), with entries 1 and -1 among the general ones and
    zeros and mixed denominators among the dense ones."""
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
        family.append(GMatrix([
            [rng.choice([zero, entry() * Fraction(rng.randint(1, 4), rng.randint(2, 9)) + entry()])
             for _ in range(n)]
            for _ in range(n)
        ]))
    return family


def _clear_entry_tables():
    matgroup._entry.cache_clear()
    matgroup._entry_product.cache_clear()


@pytest.mark.parametrize("conductor", [7, 28])
def test_gmatrix_products_match_dense_dot_oracle(conductor):
    """Every entry of a product equals the dot over all terms, zeros
    included, for every pair of shapes, and so does the product's hash,
    with the tables of entries and entry products cold and then warm.
    Every entry is interned, and the warm pass computes no entry product."""
    rng = random.Random(6600 + conductor)
    _clear_entry_tables()
    family = _shape_family(rng, 3, conductor)
    entries = [e for m in family for row in m.rows for e in row]
    assert any(e.is_zero() for e in entries) and any(e.is_one() for e in entries)
    assert len({e.den for e in entries}) > 2
    for warm in (False, True):
        misses = matgroup._entry_product.cache_info().misses
        for a in family:
            for b in family:
                product = a * b
                expected = oracles.dense_matmul(a.rows, b.rows)
                assert product.rows == expected
                assert hash(product) == hash(GMatrix(expected))
                assert all(e is matgroup._entry(e) for row in product.rows for e in row)
        if warm:
            assert matgroup._entry_product.cache_info().misses == misses


def test_slf_closure_does_not_depend_on_the_entry_tables():
    """Closing slf with the tables cleared and warm gives the same elements,
    words and generator tables."""
    words = list(catalog_entry("slf").generator_words)
    closures = []
    for clear in (True, False):
        if clear:
            _clear_entry_tables()
        closures.append(_multiplied_closure([word_matrix(w) for w in words], words=words))
    cold, warm = closures
    assert cold.elements == warm.elements
    assert cold.words == warm.words
    assert cold.generator_tables == warm.generator_tables


@pytest.mark.parametrize("hat", [False, True], ids=["", "hat"])
@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_closure_by_membership_matches_the_products(key, hat, monkeypatch):
    """Generators that all lie in a live closed group (`slf^` at least)
    are closed by a walk on such a group's right tables: no matrix product,
    that group's own objects, and the elements in order, words, generator
    indices and tables of the closure by matrix products."""
    catalog_group("slf", hat=True)
    words = list(catalog_entry(key).generator_words) + (["-I"] if hat else [])
    gens = [word_matrix(w) for w in words]
    multiplied = _multiplied_closure(gens, words=words)
    products, honest = [], GMatrix.__mul__

    def counted(a, b):
        products.append(1)
        return honest(a, b)

    monkeypatch.setattr(GMatrix, "__mul__", counted)
    walked = generate_closure(gens, words=words)
    assert products == []
    holders = [h for h in matgroup._CLOSED if h is not walked and all(g in h.index for g in gens)]
    assert any(all(m is h.elements[h.index[m]] for m in walked.elements) for h in holders)
    assert walked.elements == multiplied.elements
    assert walked.words == multiplied.words
    assert walked.generator_indices == multiplied.generator_indices
    assert walked.generator_tables == multiplied.generator_tables


def test_closure_registry_holds_groups_weakly():
    """A closure is walked only while its callers keep it: the registry
    keeps nothing alive, and a group whose generators span no single live
    group is multiplied."""
    one = CycNum.one(1)
    flip = GMatrix.diagonal([one, -one, -one])
    group = generate_closure([flip])
    assert group in matgroup._CLOSED
    dropped = weakref.ref(group)
    del group
    gc.collect()
    assert dropped() is None
    a, b = generate_closure([flip]), generate_closure([GMatrix.diagonal([-one, one, -one])])
    assert len(generate_closure([a.elements[1], b.elements[1]])) == 4
