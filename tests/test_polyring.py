import random
from fractions import Fraction

import pytest

from lgorb.catalog import generator_matrix
from lgorb.errors import ShapeError
from lgorb.exactnum import CycNum
from lgorb.polyring import (
    Poly,
    WeightSystem,
    grevlex_key,
    is_quasihomogeneous,
    partial_derivative,
    restrict_to_subspace,
    substitute_linear,
)
from oracles import (
    grevlex_reference,
    hessian,
    hessian_by_cofactors,
    monomials_of_degree,
    poly_from_list,
)


def test_grevlex_key_matches_reference_definition():
    rng = random.Random(3)
    mons = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(40)]
    for m1 in mons:
        for m2 in mons:
            ref = grevlex_reference(m1, m2)
            got = (grevlex_key(m1) > grevlex_key(m2)) - (grevlex_key(m1) < grevlex_key(m2))
            assert got == ref
    # the degree-3 chain in three variables
    x3, x2y, y3 = (3, 0, 0), (2, 1, 0), (0, 3, 0)
    assert grevlex_key(x3) > grevlex_key(x2y) > grevlex_key(y3)


def test_partial_derivative_examples(klein):
    f, _ = klein
    d1 = partial_derivative(f, 0)
    assert d1 == Poly(3, {(2, 1, 0): 3, (0, 0, 3): 1}, f.conductor)
    const = Poly.constant(5, 3, f.conductor)
    assert partial_derivative(const, 0).is_zero()
    assert partial_derivative(Poly(3, {(0, 4, 0): 1}, f.conductor), 0).is_zero()
    with pytest.raises(ShapeError):
        partial_derivative(f, 3)


def test_hessian_small_cases():
    x4 = Poly(1, {(4,): 1})
    assert hessian(x4) == Poly(1, {(2,): 12})
    spheres = Poly(2, {(2, 0): 1, (0, 2): 1})
    assert hessian(spheres) == Poly.constant(4, 2)
    assert hessian(Poly(0, {(): 5})) == Poly.constant(1, 0)


def test_hessian_klein_vs_cofactor_oracle(klein):
    f, _ = klein
    engine = hessian(f)
    assert engine == hessian_by_cofactors(f)
    # frozen expansion: 270 (x1 x2 x3)^2 - 54 (x1^5 x3 + x1 x2^5 + x2 x3^5)
    expected = Poly(
        3,
        {(2, 2, 2): 270, (5, 0, 1): -54, (1, 5, 0): -54, (0, 1, 5): -54},
        f.conductor,
    )
    assert engine == expected


def test_substitute_linear_symmetries(klein):
    f, _ = klein
    for name in ("T", "S", "R"):
        g = generator_matrix(name)
        assert substitute_linear(f, g.rows) == f
    identity = generator_matrix("T") ** 3
    assert substitute_linear(f, identity.rows) == f


def _random_poly(rng, arity, conductor, max_degree=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mon = tuple(rng.randint(0, max_degree) for _ in range(arity))
        terms[mon] = CycNum.from_rational(Fraction(rng.randint(-3, 3)), conductor)
    return Poly(arity, terms, conductor)


def _random_matrix(rng, n, conductor):
    return [
        [CycNum.from_rational(rng.randint(-2, 2), conductor) for _ in range(n)]
        for _ in range(n)
    ]


def test_substitution_composition_property():
    rng = random.Random(5)
    for _ in range(10):
        p = _random_poly(rng, 2, 7)
        a = _random_matrix(rng, 2, 7)
        b = _random_matrix(rng, 2, 7)
        ab = [
            [sum((a[i][k] * b[k][j] for k in range(2)), CycNum.zero(7)) for j in range(2)]
            for i in range(2)
        ]
        assert substitute_linear(substitute_linear(p, a), b) == substitute_linear(p, ab)


def test_mixed_partials_commute():
    rng = random.Random(9)
    for _ in range(10):
        p = _random_poly(rng, 3, 7, max_degree=3)
        for i in range(3):
            for j in range(i + 1, 3):
                assert partial_derivative(partial_derivative(p, i), j) == partial_derivative(
                    partial_derivative(p, j), i
                )


def test_quasihomogeneity(klein):
    f, w = klein
    assert w.weights == (1, 1, 1) and w.total == 4
    assert is_quasihomogeneous(f, w)
    assert not is_quasihomogeneous(Poly(1, {(3,): 1, (1,): 1}), WeightSystem([1], 3))
    assert is_quasihomogeneous(Poly(1, {(4,): 1}), WeightSystem([1], 4))


def test_restrict_to_subspace(klein):
    f, _ = klein
    one = CycNum.one(f.conductor)
    diagonal = [(one, one, one)]
    assert restrict_to_subspace(f, diagonal) == Poly(1, {(4,): 3}, f.conductor)
    zero = CycNum.zero(f.conductor)
    full = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    assert restrict_to_subspace(f, full) == f
    e2 = [(zero, one, zero)]
    assert restrict_to_subspace(Poly(3, {(2, 0, 0): 1}, f.conductor), e2).is_zero()
    empty = restrict_to_subspace(f, [])
    assert empty.arity == 0 and empty.is_zero()
    with pytest.raises(ShapeError):
        restrict_to_subspace(f, [(one, one, one), (one, one, one)])


def test_zero_arity_constants():
    c = Poly(0, {(): 5})
    assert c.constant_term() == 5
    assert (c * c).constant_term() == 25


def test_poly_serialization_roundtrip(klein):
    f, _ = klein
    data = f.to_list()
    assert poly_from_list(3, data) == f
    assert poly_from_list(3, Poly.zero(3, f.conductor).to_list(), f.conductor).is_zero()


def test_pretty_printer(klein):
    f, _ = klein
    assert f.pretty() == "x1^3*x2 + x2^3*x3 + x1*x3^3"
    assert Poly.zero(2).pretty() == "0"
    p = Poly(1, {(2,): -1, (0,): 1})
    assert p.pretty(("t",)) == "-t^2 + 1"


def test_monomials_of_degree_oracle_sanity():
    assert len(monomials_of_degree(3, 3)) == 10
    assert monomials_of_degree(2, 1) == [(0, 1), (1, 0)]


@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: CycNum.from_rational(0.1), "0.1"),
        (lambda: CycNum.from_rational(True, 7), "True"),
        (lambda: CycNum.from_coeffs(4, [0.5, 0.25]), "0.5"),
        (lambda: CycNum.from_coeffs(4, [1, False]), "False"),
        (lambda: Poly(1, {(1,): 0.1}), "0.1"),
        (lambda: Poly(1, {(1,): True}), "True"),
        (lambda: Poly.constant(2.0, 3), "2.0"),
        (lambda: Poly(1, {(1,): 1}).scale(0.5), "0.5"),
        (lambda: Poly(1, {(1,): 1}).scale(True), "True"),
    ],
    ids=[
        "from_rational-float",
        "from_rational-bool",
        "from_coeffs-float",
        "from_coeffs-bool",
        "poly-float",
        "poly-bool",
        "constant-float",
        "scale-float",
        "scale-bool",
    ],
)
def test_exact_constructors_reject_floats_and_bools(build, value):
    """Library constructors take an int or a Fraction and nothing that
    would be rounded or reinterpreted on the way in."""
    with pytest.raises(TypeError, match=f"^expected an int or a Fraction, got {value}$"):
        build()
