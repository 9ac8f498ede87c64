import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from lgorb import linalg
from lgorb.catalog import catalog_group
from lgorb.errors import NonIsolatedSingularityError
from lgorb.exactnum import CycNum, zeta
from lgorb.jacobian import (
    buchberger,
    jacobian_algebra,
    normal_form,
    quotient_basis,
    residue_pairing,
)
from lgorb.orbifold import build_sector
from lgorb.polyring import Poly, WeightSystem, hessian, mon_divides, partial_derivative
from oracles import dense_normal_form_klein, fixpoint_buchberger, poly_from_vector

KLEIN_BASIS_FAMILY = {
    d: [m for m in iter_product(range(3), repeat=3) if sum(m) == d]
    for d in range(7)
}
# the box family x^a with all a_k <= 2, grouped by degree (27 monomials)


def test_buchberger_trivial_cases():
    x = Poly(1, {(1,): 1})
    gb = buchberger([x])
    assert [g for g in gb] == [x]
    x4 = Poly(1, {(4,): 1})
    gb = buchberger([partial_derivative(x4, 0)])
    assert [g for g in gb] == [Poly(1, {(3,): 1})]


def test_buchberger_matches_fixpoint_reference_and_is_reduced():
    """One tail-reduction pass gives the basis that tail reduction to a
    fixpoint gives, generator for generator, on seeded random ideals of
    arity 1-3 over conductors 1, 7 and 28; every result is reduced: monic,
    and no term of a generator is divisible by another's leading monomial."""
    rng = random.Random(2)

    def coeff(conductor):
        c = CycNum.from_rational(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)), conductor)
        if conductor > 1 and rng.random() < 0.5:
            c = c * zeta(conductor) ** rng.randrange(conductor)
        return c

    sizes = []
    for arity in (1, 2, 3):
        for conductor in (1, 7, 28):
            for _ in range(6):
                gens = []
                for _ in range(rng.randint(2, 3)):
                    terms = {
                        tuple(rng.randint(0, 2) for _ in range(arity)): coeff(conductor)
                        for _ in range(rng.randint(1, 3))
                    }
                    gens.append(Poly(arity, terms, conductor))
                if not any(gens):
                    continue
                gb = buchberger(gens)
                assert list(gb) == list(fixpoint_buchberger(gens))
                for g in gb:
                    assert g.leading_coeff().is_one()
                    others = [h.leading_monomial() for h in gb if h is not g]
                    assert not any(mon_divides(lm, m) for lm in others for m in g.terms)
                sizes.append(len(gb))
    assert len(sizes) > 45 and max(sizes) >= 4


def test_klein_quotient_has_27_standard_monomials(klein_algebra):
    assert klein_algebra.milnor == 27
    assert klein_algebra.graded_dims == (1, 3, 6, 7, 6, 3, 1)
    # weighted-homogeneous cross-check: ((1 - 1/4) / (1/4))^3 = 27
    q = Fraction(1, 4)
    assert ((1 - q) / q) ** 3 == 27


def test_normal_form_basic():
    gb = buchberger([Poly(1, {(3,): 1})])
    assert normal_form(Poly(1, {(3,): 1}), gb).is_zero()
    assert normal_form(Poly(1, {(2,): 5}), gb) == Poly(1, {(2,): 5})


def test_normal_form_idempotent_and_ring_compatible(klein, klein_algebra):
    f, _ = klein
    rng = random.Random(13)
    gb = klein_algebra.gb

    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            mon = tuple(rng.randint(0, 3) for _ in range(3))
            terms[mon] = CycNum.from_rational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)), f.conductor
            )
        return Poly(3, terms, f.conductor)

    for _ in range(12):
        a, b = random_poly(), random_poly()
        na = normal_form(a, gb)
        assert normal_form(na, gb) == na
        assert normal_form(normal_form(a, gb) * normal_form(b, gb), gb) == normal_form(
            a * b, gb
        )


def test_normal_form_against_dense_slice_oracle(klein, klein_algebra):
    f, _ = klein
    # box-family classes of hess(f): the oracle works over {a_k <= 2}
    coords = dense_normal_form_klein(hessian(f), f, KLEIN_BASIS_FAMILY)
    assert coords == {(2, 2, 2): CycNum.from_rational(756, f.conductor)}
    # the same class identity through the Groebner engine
    m756 = Poly(3, {(2, 2, 2): 756}, f.conductor)
    assert klein_algebra.nf(hessian(f)) == klein_algebra.nf(m756)
    # x1^3 x2 reduces to zero (both routes)
    p = Poly(3, {(3, 1, 0): 1}, f.conductor)
    assert dense_normal_form_klein(p, f, KLEIN_BASIS_FAMILY) == {}
    assert klein_algebra.nf(p).is_zero()


def test_box_monomials_are_a_vector_space_basis(klein, klein_algebra):
    f, _ = klein
    vectors = [
        klein_algebra.vector(Poly(3, {m: 1}, f.conductor))
        for d in range(7)
        for m in KLEIN_BASIS_FAMILY[d]
    ]
    assert len(vectors) == 27
    assert linalg.rank([list(v) for v in vectors]) == 27


def test_quotient_basis_small_cases():
    x4 = Poly(1, {(4,): 1})
    gb = buchberger([partial_derivative(x4, 0)])
    assert quotient_basis(gb) == [(0,), (1,), (2,)]
    # binary x1^3 x2 + x2^3 x1: 9 standard monomials
    p = Poly(2, {(3, 1): 1, (1, 3): 1})
    gb = buchberger([partial_derivative(p, i) for i in range(2)])
    assert len(quotient_basis(gb)) == 9


def test_quotient_basis_infinite_dimensional_errors():
    p = Poly(2, {(2, 2): 1})  # x^2 y^2: not an isolated singularity
    gb = buchberger([partial_derivative(p, i) for i in range(2)])
    with pytest.raises(NonIsolatedSingularityError):
        quotient_basis(gb)
    with pytest.raises(NonIsolatedSingularityError):
        jacobian_algebra(p, WeightSystem([1, 1], 4))


def test_jacobian_algebra_small_and_zero_arity():
    x4 = Poly(1, {(4,): 1})
    alg = jacobian_algebra(x4, WeightSystem([1], 4))
    assert alg.milnor == 3 and alg.graded_dims == (1, 1, 1)
    trivial = jacobian_algebra(Poly(0, {(): 0}))
    assert trivial.milnor == 1 and trivial.graded_dims == (1,)
    assert trivial.basis == ((),)


def test_graded_dims_palindromic_for_restrictions(klein, klein_algebra):
    assert klein_algebra.graded_dims == tuple(reversed(klein_algebra.graded_dims))
    p = Poly(2, {(3, 1): 1, (1, 3): 1})
    alg = jacobian_algebra(p, WeightSystem([1, 1], 4))
    assert alg.graded_dims == tuple(reversed(alg.graded_dims))
    assert alg.milnor == 9


def test_hessian_class_nonzero(klein_algebra):
    assert any(klein_algebra.hessian_class)
    assert klein_algebra.graded_dims[-1] == 1


def test_residue_pairing_normalization(klein, klein_algebra):
    f, _ = klein
    one = Poly.constant(1, 3, f.conductor)
    assert residue_pairing(one, hessian(f), klein_algebra) == 1
    assert residue_pairing(one, one, klein_algebra) == 0
    m = Poly(3, {(1, 1, 1): 1}, f.conductor)
    assert residue_pairing(m, m, klein_algebra) == Fraction(1, 756)


def test_residue_pairing_symmetric_bilinear(klein, klein_algebra):
    f, _ = klein
    rng = random.Random(17)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mon = tuple(rng.randint(0, 2) for _ in range(3))
            terms[mon] = CycNum.from_rational(rng.randint(-3, 3), f.conductor)
        return Poly(3, terms, f.conductor)

    for _ in range(8):
        u, v, w = random_poly(), random_poly(), random_poly()
        assert residue_pairing(u, v, klein_algebra) == residue_pairing(v, u, klein_algebra)
        assert residue_pairing(u + w, v, klein_algebra) == residue_pairing(
            u, v, klein_algebra
        ) + residue_pairing(w, v, klein_algebra)


def test_pairing_nondegenerate_on_complementary_degrees(klein, klein_algebra):
    f, _ = klein
    slices = klein_algebra.degree_slices()
    basis = klein_algebra.basis
    for d in range(4):
        rows = []
        for i in slices[d]:
            u = Poly(3, {basis[i]: 1}, f.conductor)
            row = []
            for j in slices[6 - d]:
                v = Poly(3, {basis[j]: 1}, f.conductor)
                row.append(residue_pairing(u, v, klein_algebra))
            rows.append(row)
        assert linalg.rank(rows) == klein_algebra.graded_dims[d]


def test_algebra_serialization(klein_algebra):
    assert klein_algebra.milnor == 27
    assert klein_algebra.graded_dims == (1, 3, 6, 7, 6, 3, 1)
    assert len(klein_algebra.basis) == 27


def _sector_algebras(klein):
    """Sector algebras of catalog e^ with fixed dimensions 2, 1 and 0 (a
    binary quartic, a single quartic and the arity-0 algebra)."""
    f, w = klein
    by_dim = {}
    for g in catalog_group("e", hat=True).elements:
        sector = build_sector(f, g, w)
        by_dim.setdefault(sector.fix_dim, sector.algebra)
    return [by_dim[2], by_dim[1], by_dim[0]]


def _weighted_algebra():
    """x1^2 + x2^4 + x3^4 with weights (2, 1, 1; 4): the class of x1 is 0."""
    one = CycNum.one(28)
    f = Poly(3, {(2, 0, 0): one, (0, 4, 0): one, (0, 0, 4): one}, 28)
    return jacobian_algebra(f, WeightSystem((2, 1, 1), 4))


def _random_class(algebra, rng, low_degree=0):
    """Random coordinates on the basis monomials of degree at least
    low_degree: about half of them zero when low_degree is 0, none
    otherwise."""
    zero = CycNum.zero(algebra.conductor)
    phi = len(zero.nums)
    return tuple(
        CycNum.from_coeffs(algebra.conductor, [rng.randint(-3, 3) for _ in range(phi)])
        if d >= low_degree and (low_degree or rng.random() < 0.5)
        else zero
        for d in algebra.degrees
    )


def test_table_product_matches_polynomial_product(klein, klein_algebra):
    """The table product equals the class of the polynomial product (a Poly
    product and a normal form) for random classes, including classes whose
    every pair of terms lies above the top degree."""
    rng = random.Random(14)
    algebras = [klein_algebra, *_sector_algebras(klein), _weighted_algebra()]
    assert [a.arity for a in algebras] == [3, 2, 1, 0, 3]
    weighted = algebras[-1]
    assert weighted.vector(Poly(3, {(1, 0, 0): 1}, 28)) == (CycNum.zero(28),) * weighted.milnor
    for algebra in algebras:
        top = algebra.top_degree()
        cases = [(_random_class(algebra, rng), _random_class(algebra, rng)) for _ in range(6)]
        high = top // 2 + 1
        cases += [(_random_class(algebra, rng, high), _random_class(algebra, rng, high)) for _ in range(2)]
        for u, v in cases:
            expected = algebra.vector(poly_from_vector(algebra, u) * poly_from_vector(algebra, v))
            assert algebra.multiply(u, v) == expected
            assert algebra.multiply(v, u) == expected
        if top:
            u, v = cases[-1]
            assert any(u) and any(v)
            assert not any(algebra.multiply(u, v))


def test_linear_class_matches_normal_form(klein_algebra):
    """The class of a linear form, read from the classes of the variables,
    equals its normal form, also where a variable's class is 0."""
    rng = random.Random(7)
    for algebra in (klein_algebra, _weighted_algebra()):
        n = algebra.conductor
        for _ in range(4):
            coeffs = [CycNum.from_rational(rng.randint(-2, 2), n) for _ in range(algebra.arity)]
            units = [tuple(int(j == c) for j in range(algebra.arity)) for c in range(algebra.arity)]
            form = Poly(algebra.arity, dict(zip(units, coeffs)), n)
            assert algebra.linear_class(coeffs) == algebra.vector(form)
