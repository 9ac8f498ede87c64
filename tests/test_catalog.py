import pytest

from lgorb.catalog import (
    CATALOG_KEYS,
    catalog_entries,
    catalog_entry,
    catalog_group,
    expected,
    klein_quartic,
    word_matrix,
)
from lgorb.exactnum import CycNum
from lgorb.jacobian import jacobian_algebra
from lgorb.matgroup import fixed_space, groups_conjugate
from lgorb.polyring import is_quasihomogeneous, substitute_linear


def test_klein_quartic_data():
    f, w = klein_quartic()
    assert w.weights == (1, 1, 1) and w.total == 4
    assert is_quasihomogeneous(f, w)
    assert jacobian_algebra(f, w).milnor == 27


def test_catalog_orders():
    stated = {"slf": 168, "a": 7, "b": 3, "c": 4, "d": 2, "e": 4,
              "f": 6, "g": 8, "h": 21, "i": 24, "j": 12}
    for key, order in stated.items():
        assert catalog_group(key).order == order
        assert catalog_entry(key).order == order
    assert [e.key for e in catalog_entries()] == list(CATALOG_KEYS)
    with pytest.raises(KeyError):
        catalog_group("z")


def test_group_e_is_the_listed_klein_four_group():
    group = catalog_group("e")
    listed = ["RS^2RS", "SRS^6", "S^2RS^3RS"]
    for word in listed:
        assert word_matrix(word) in group
    # nontrivial elements have eigenvalues (1, -1, -1): fix dims 1 and 2 for +/-
    for m in group.elements[1:]:
        assert len(fixed_space(m)[0]) == 1
        assert len(fixed_space(-m)[0]) == 2
        assert m.order() == 2


def test_group_i_contains_the_recorded_cycle_elements():
    group = catalog_group("i")
    c3 = word_matrix("TS^4")
    c4 = word_matrix("TRS^2RS^3")
    v4 = word_matrix("T^2RS^6RS^4")
    assert c3 in group and c4 in group and v4 in group
    assert c3.order() == 3 and c4.order() == 4 and v4.order() == 2
    # the recorded word for the 2-cycle generator has order 3, which cannot
    # generate the stated order-24 group with c4; the catalog therefore
    # closes over (c3, c4) instead
    broken = word_matrix("TS^5RS^6")
    assert broken.order() == 3


def test_group_j_is_the_unique_index_two_subgroup_of_i():
    s4 = catalog_group("i")
    a4 = catalog_group("j")
    assert a4.order == 12
    a4_set = a4.element_set()
    for m in a4.elements:
        assert m in s4
    # squares of S4 generate exactly this subgroup
    from lgorb.matgroup import generate_closure

    squares = generate_closure(list({m * m for m in s4.elements}))
    assert squares.element_set() == a4_set
    # normal of index 2
    for h in s4.elements:
        hinv = h.inverse()
        assert all(h * m * hinv in a4_set for m in a4.elements)


def test_admissibility_and_determinants(klein):
    f, _ = klein
    one = CycNum.one(28)
    for key in CATALOG_KEYS:
        group = catalog_group(key)
        assert group.is_admissible()
        assert all(d == one for d in group.determinants())
        hat = catalog_group(key, hat=True)
        assert hat.order == 2 * group.order
        assert hat.is_admissible()
        minus = [d for d in hat.determinants() if d == -one]
        assert len(minus) == group.order
    for key in CATALOG_KEYS:
        for m in catalog_group(key).generators:
            assert substitute_linear(f, m.rows) == f


def test_two_catalog_s4_classes_exist(slf):
    s4a = catalog_group("i")
    from lgorb.matgroup import generate_closure

    s4b = generate_closure([word_matrix("RS^4RS^4"), word_matrix("TRS^2RS^3")])
    assert s4b.order == 24
    assert groups_conjugate(s4a, s4b, slf) is None


def test_expected_reference_data():
    assert expected("slf").total_dim == 11
    assert expected("slf").identity_dim == 2
    assert expected("e", hat=True).total_dim == 8
    assert expected("slf", hat=True).total_dim == 10
    assert expected("j").trust == "disputed"
    assert expected("j").total_dim == 14
    for key in CATALOG_KEYS:
        if key != "j":
            assert expected(key).trust == "confirmed"
    with pytest.raises(KeyError):
        expected("b", hat=True)
    vec = expected("e").identity_dimension_vector
    assert vec == (1, 0, 3, 1, 3, 0, 1)
