import random
from fractions import Fraction

import pytest

from lgorb import _kernels, linalg
from lgorb.catalog import generator_matrix
from lgorb.errors import ShapeError
from lgorb.exactnum import CycNum, zeta
from lgorb.polyring import (
    Poly,
    WeightSystem,
    compose_linear,
    grevlex_key,
    is_quasihomogeneous,
    partial_derivative,
    restrict_to_subspace,
    substitute_linear,
)
from oracles import (
    expanded_substitution,
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


def _random_value(rng, conductor, zero_share=0.0):
    """A random value of Q(zeta_n): zero with probability zero_share, else
    a sum of a few roots of unity with small rational coefficients."""
    if rng.random() < zero_share:
        return CycNum.zero(conductor)
    value = CycNum.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), conductor)
    for _ in range(rng.randint(0, 2)):
        value = value + zeta(conductor, rng.randrange(conductor)) * rng.randint(-3, 3)
    return value


def _random_columns(rng, conductor, length, count):
    """count columns of the given length, about a third of the entries zero."""
    return [[_random_value(rng, conductor, 0.35) for _ in range(length)] for _ in range(count)]


def _random_dense_poly(rng, arity, conductor, degree):
    """Terms of every degree 0..degree, constant and linear terms included."""
    terms = {}
    for d in range(degree + 1):
        monomials = monomials_of_degree(arity, d)
        for mon in rng.sample(monomials, min(2, len(monomials))):
            terms[mon] = _random_value(rng, conductor)
    return Poly(arity, terms, conductor)


@pytest.mark.parametrize("conductor", [1, 7, 28])
def test_compose_linear_matches_the_expansion_oracle(conductor):
    """The halving expansion (memoized monomial images, degree-2 images from
    the entry-product table, one fused dot per coefficient) equals the
    repeated-multiplication route on seeded random polynomials of degree
    0..6, square substitutions and restrictions to 1..3 columns, with zero
    entries in the matrices."""
    rng = random.Random(7300 + conductor)
    for degree in range(7):
        for arity in (2, 3, 4):
            p = _random_dense_poly(rng, arity, conductor, degree)
            square = _random_columns(rng, conductor, arity, arity)
            assert substitute_linear(p, square) == expanded_substitution(p, list(zip(*square)))
            for k in (1, 2, 3):
                columns = _random_columns(rng, conductor, arity, k)
                got = compose_linear(p, columns)
                assert got.arity == k and got == expanded_substitution(p, columns)
                if linalg.rank(columns) == k:
                    assert restrict_to_subspace(p, columns) == got


def test_compose_linear_on_a_weighted_polynomial():
    """x1^2 + x2^4 + x3^4, quasihomogeneous for weights (2, 1, 1): terms of
    degrees 2 and 4 in one substitution, to 1..3 columns and by matrices."""
    rng = random.Random(7400)
    one = CycNum.one(28)
    p = Poly(3, {(2, 0, 0): one, (0, 4, 0): one, (0, 0, 4): one}, 28)
    for k in (1, 2, 3):
        columns = _random_columns(rng, 28, 3, k)
        assert compose_linear(p, columns) == expanded_substitution(p, columns)
    zero = CycNum.zero(28)
    swap = [[one, zero, zero], [zero, zero, one], [zero, one, zero]]
    assert substitute_linear(p, swap) == p
    # entries that are ints are coerced as Poly coefficients are; a float is refused
    assert substitute_linear(p, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]) == p
    doubled = substitute_linear(p, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert doubled == p + Poly(3, {(2, 0, 0): 3}, 28)
    with pytest.raises(TypeError, match="^expected an int or a Fraction, got 0.5$"):
        substitute_linear(p, [[0.5, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ShapeError, match="^mixed conductors in one polynomial$"):
        substitute_linear(p, [[CycNum.one(7), 0, 0], [0, 1, 0], [0, 0, 1]])


def test_dense_substitution_kernel_calls(klein, monkeypatch):
    """A host-independent work count: once the entry-product table holds
    R's entry pairs, substituting the dense generator R into the Klein
    quartic reads its 6 degree-2 images from the table (18 two-term sums)
    and makes each of the 15 quartic coefficients one fused dot: 33 calls
    into the field kernels (the repeated-multiplication route made 201)."""
    f, _ = klein
    g = generator_matrix("R")
    assert all(e for row in g.rows for e in row)
    assert substitute_linear(f, g.rows) == f  # warms the table
    calls = {"add": 0, "mul": 0, "addmul": 0, "dot": 0, "add_many": 0}
    for name in calls:
        real = getattr(_kernels, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(_kernels, name, counted)
    assert substitute_linear(f, g.rows) == f
    assert sum(calls.values()) <= 33


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
