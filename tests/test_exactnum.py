import operator
import random
from fractions import Fraction

import pytest

from lgorb import _kernels
from lgorb.errors import ConductorMismatchError, ShapeError
from lgorb.exactnum import CycNum, _field, _subfield, cyclotomic_polynomial, euler_phi, zeta
from oracles import (
    bareiss_inverse,
    complex_approx,
    dense_dot,
    dense_mul_nums,
    dense_rows,
    euclid_inverse,
    fraction_canonical,
    reduce_prime_conductor,
    root_product_coeffs,
)


def sqrt_minus_seven(conductor=7):
    z = [zeta(7, k).lift(conductor) if conductor != 7 else zeta(7, k) for k in range(7)]
    return z[1] + z[2] + z[4] - z[3] - z[5] - z[6]


def test_phi_and_cyclotomic():
    assert [euler_phi(n) for n in (1, 2, 4, 7, 28)] == [1, 1, 2, 6, 12]
    assert cyclotomic_polynomial(7) == (1, 1, 1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(28) == (1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1)


def test_zeta_identity_cases():
    assert zeta(7, 0) == 1
    assert zeta(7, 7) == 1
    assert zeta(7, 6) == -(1 + zeta(7) + zeta(7, 2) + zeta(7, 3) + zeta(7, 4) + zeta(7, 5))


def test_mul_inverse_pair():
    assert zeta(7) * zeta(7, 6) == 1


def test_sqrt_minus_seven_squares_to_minus_seven():
    # independent oracle: expand the 36-term product over exponents mod 7,
    # then reduce with 1 + zeta + ... + zeta^6 = 0 only
    signs = {1: 1, 2: 1, 4: 1, 3: -1, 5: -1, 6: -1}
    raw = root_product_coeffs(signs, signs, 7)
    assert reduce_prime_conductor(raw, 7) == [Fraction(-7)] + [Fraction(0)] * 5
    s = sqrt_minus_seven()
    assert s * s == -7
    s28 = sqrt_minus_seven(28)
    assert s28 * s28 == -7


def test_additive_identity_and_negation():
    a = 3 + 2 * zeta(7, 5)
    assert a + CycNum.zero(7) == a
    assert a + (-a) == 0


def test_inverse_examples():
    for k in range(1, 7):
        assert zeta(7, k).inverse() == zeta(7, 7 - k)
    assert CycNum.from_rational(7, 28).inverse() == Fraction(1, 7)
    s = sqrt_minus_seven()
    assert s.inverse() == -s * Fraction(1, 7)
    assert s * s.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(7).inverse()


def test_lift_conductor_examples():
    a = 2 - zeta(7, 3)
    assert a.lift(7) == a
    assert zeta(7).lift(28) == zeta(28, 4)
    assert CycNum.one(1).lift(28) == CycNum.one(28)
    with pytest.raises(ConductorMismatchError):
        zeta(7).lift(12)


def test_conductor_mismatch_raises():
    with pytest.raises(ConductorMismatchError):
        zeta(7) + zeta(28)


def _random_cyc(rng, conductor):
    phi = euler_phi(conductor)
    return CycNum.from_coeffs(
        conductor,
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(phi)],
    )


@pytest.mark.parametrize("conductor", [7, 28])
def test_field_axioms_randomized(conductor):
    rng = random.Random(1000 + conductor)
    for _ in range(25):
        a, b, c = (_random_cyc(rng, conductor) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == 1


def _inverse_cases(rng, conductor):
    """Dense, two-term and large-coefficient elements, with and without a
    common denominator, plus two-term elements with huge negative entries."""
    phi = euler_phi(conductor)
    cases = []
    for _ in range(8):
        dense = [rng.randint(-9, 9) for _ in range(phi)]
        two = [0] * phi
        for k in rng.sample(range(phi), 2):
            two[k] = rng.choice([-1, 1]) * rng.randint(1, 12)
        large = [rng.randint(-(10**15), 10**15) for _ in range(phi)]
        negative = [0] * phi
        for k in rng.sample(range(phi), 2):
            negative[k] = -rng.randint(10**9, 10**12)
        for nums in (dense, two, large, negative):
            if any(nums[1:]):
                cases.append(CycNum(conductor, nums, rng.choice([1, 3, 28, 10**6 + 3])))
    return cases


@pytest.mark.parametrize("conductor", [7, 12, 28])
def test_inverse_matches_euclid_oracle(conductor):
    rng = random.Random(4200 + conductor)
    cases = _inverse_cases(rng, conductor)
    assert len(cases) >= 24
    for a in cases:
        inv = a.inverse()
        assert inv == euclid_inverse(a)
        assert a * inv == 1
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(conductor).inverse()


@pytest.mark.parametrize("conductor", [4, 8, 9, 12, 16, 28, 72, 84])
def test_inverse_matches_bareiss_oracle(conductor):
    """Values lifted from every proper subfield Q(zeta_m), general values
    and single-term values: the inverse equals the full-conductor
    elimination, and the values that lie in a smaller subfield do reach it
    through `_subfield`, in two or more steps at 16 and 72."""
    rng = random.Random(5100 + conductor)
    lifted = []
    for m in range(2, conductor):
        if conductor % m == 0:
            for _ in range(4):
                lifted.append(_random_cyc(rng, m).lift(conductor))
    general = [_random_cyc(rng, conductor) for _ in range(8)]
    phi = euler_phi(conductor)
    single = [
        CycNum(conductor, [rng.randint(1, 9) if i == k else 0 for i in range(phi)], rng.randint(1, 5))
        for k in range(1, phi)
    ]
    strides = {_subfield(conductor, x.nums)[2] for x in lifted if not x.is_rational()}
    assert max(strides, default=1) == {4: 1, 8: 2, 9: 3, 12: 2, 16: 4, 28: 2, 72: 12, 84: 2}[conductor]
    for x in lifted + general + single:
        if x:
            inv = x.inverse()
            assert inv == bareiss_inverse(x)
            assert x * inv == 1


def test_reduction_idempotence():
    rng = random.Random(7)
    for _ in range(20):
        a = _random_cyc(rng, 28)
        again = CycNum(a.conductor, a.nums, a.den)
        assert again == a and again.nums == a.nums and again.den == a.den


def test_lift_is_ring_morphism_and_injective():
    rng = random.Random(11)
    originals = set()
    for _ in range(20):
        a, b = _random_cyc(rng, 7), _random_cyc(rng, 7)
        assert (a * b).lift(28) == a.lift(28) * b.lift(28)
        assert (a + b).lift(28) == a.lift(28) + b.lift(28)
        originals.add(a)
        originals.add(b)
    # distinct values stay distinct after lifting
    assert len({x.lift(28) for x in originals}) == len(originals)


def test_pow_and_division():
    z = zeta(28)
    assert z**28 == 1
    assert z**-1 == zeta(28, 27)
    assert (3 * z) / (3 * z) == 1


@pytest.mark.parametrize("other", [1.5, "x"], ids=["float", "str"])
def test_reflected_operators_reject_operands_they_cannot_coerce(other, monkeypatch):
    """`other / z` and `other - z` give Python's standard TypeError, naming
    the operand's type and CycNum, and never invert z on the way."""
    z = zeta(28) + 2
    name = type(other).__name__

    def no_inverse(_self):
        raise AssertionError("CycNum.inverse called")

    monkeypatch.setattr(CycNum, "inverse", no_inverse)
    for symbol, op in (("/", operator.truediv), ("-", operator.sub)):
        message = rf"^unsupported operand type\(s\) for {symbol}: '{name}' and 'CycNum'$"
        with pytest.raises(TypeError, match=message):
            op(other, z)


def test_reflected_operators_still_coerce_ints_and_fractions():
    z = zeta(28)
    assert 1 / z == zeta(28, 27)
    assert 3 / (2 * z) == zeta(28, 27) * Fraction(3, 2)
    assert Fraction(1, 2) - z == CycNum.from_coeffs(28, [Fraction(1, 2), -1] + [0] * 10)
    assert 2 - z == CycNum.from_coeffs(28, [2, -1] + [0] * 10)


def test_serialization_roundtrip_big_integers():
    big = 10**30
    a = CycNum.from_coeffs(28, [Fraction(big, 7)] + [Fraction(-big, 3)] * 11)
    data = a.to_dict()
    assert all(isinstance(num, str) and isinstance(den, str) for num, den in data["coeffs"])
    assert CycNum.from_dict(data) == a


def test_str_and_complex_approx_smoke():
    s = sqrt_minus_seven()
    approx = complex_approx(s)
    assert abs(approx.real) < 1e-9 and abs(approx.imag - 7**0.5) < 1e-9
    assert "z7" in str(s)


KERNEL_CONDUCTORS = [1, 2, 3, 4, 7, 12, 28, 84]


def _raw_operands(rng, conductor):
    """Canonical raw values (nums, den): zero, single-term, sparse, dense
    and above-2**64 numerators, over denominators 1 up to 3**41."""
    phi = euler_phi(conductor)
    out = [((0,) * phi, 1)]
    for _ in range(6):
        single = [0] * phi
        single[rng.randrange(phi)] = rng.choice([-1, 1]) * rng.randint(1, 9)
        sparse = [rng.choice([0, 0, 0, rng.randint(-40, 40)]) for _ in range(phi)]
        dense = [rng.randint(-9, 9) for _ in range(phi)]
        huge = [rng.choice([0, rng.randint(-(2**90), 2**90)]) for _ in range(phi)]
        huge[rng.randrange(phi)] = 2**64 + rng.randint(1, 2**70)
        for nums in (single, sparse, dense, huge):
            den = rng.choice([1, 1, 2, 7, 12, 49, 3**41])
            out.append(_kernels.normalize(list(nums), den))
    return out


@pytest.mark.parametrize("conductor", KERNEL_CONDUCTORS)
def test_mul_and_addmul_kernels_match_dense_route(conductor):
    rng = random.Random(5100 + conductor)
    rows, oracle_rows = _field(conductor).mul_rows(), dense_rows(conductor)
    values = _raw_operands(rng, conductor)
    assert any(max(map(abs, nums)) > 2**64 for nums, _ in values)
    for an, ad in values:
        for bn, bd in values:
            product = [Fraction(v, ad * bd) for v in dense_mul_nums(an, bn, oracle_rows)]
            assert _kernels.mul(an, ad, bn, bd, rows) == fraction_canonical(product)
    for _ in range(60):
        (an, ad), (bn, bd), (cn, cd) = (rng.choice(values) for _ in range(3))
        product = dense_mul_nums(bn, cn, oracle_rows)
        expected = [Fraction(a, ad) + Fraction(p, bd * cd) for a, p in zip(an, product)]
        assert _kernels.addmul(an, ad, bn, bd, cn, cd, rows) == fraction_canonical(expected)


@pytest.mark.parametrize("conductor", KERNEL_CONDUCTORS)
def test_dot_kernel_matches_dense_route(conductor):
    rng = random.Random(5200 + conductor)
    rows = _field(conductor).mul_rows()
    values = _raw_operands(rng, conductor)
    zero = values[0]
    for length in (1, 1, 2, 3, 5, 9) * 6:
        terms = [(*rng.choice(values), *rng.choice(values)) for _ in range(length)]
        assert _kernels.dot(terms, rows) == dense_dot(terms, conductor)
    all_zero = [(*zero, *rng.choice(values)), (*rng.choice(values), *zero)]
    assert _kernels.dot(all_zero, rows) == zero


@pytest.mark.parametrize("conductor", KERNEL_CONDUCTORS)
def test_add_many_kernel_matches_fraction_sums(conductor):
    rng = random.Random(5250 + conductor)
    values = _raw_operands(rng, conductor)
    for length in (2, 2, 3, 5, 9) * 6:
        terms = [rng.choice(values) for _ in range(length)]
        expected = [sum(Fraction(nums[i], den) for nums, den in terms) for i in range(len(terms[0][0]))]
        assert _kernels.add_many(terms) == fraction_canonical(expected)
    a = rng.choice(values[1:])
    assert _kernels.add_many([a, (tuple(-v for v in a[0]), a[1])]) == values[0]


def test_add_many_rejects_short_and_mixed_inputs():
    a7, a28 = 1 + zeta(7), 1 + zeta(28)
    for values in ([], [a28]):
        with pytest.raises(ShapeError):
            CycNum.add_many(values)
    with pytest.raises(ConductorMismatchError):
        CycNum.add_many([a28, a7])


def test_equality_against_rationals_and_bools():
    """== answers by value against an int and a Fraction, never equals a
    bool, and defers to the other operand for any other type."""
    one, half, z = CycNum.one(28), CycNum.from_rational(Fraction(1, 2), 28), zeta(28)
    assert one == 1 and 1 == one and one != 2 and z != 1
    assert half == Fraction(1, 2) and Fraction(1, 2) == half and half != Fraction(1, 3)
    assert one != True and True != one and CycNum.zero(28) != False
    assert one == one and one == CycNum.one(28) and one != CycNum.one(7)
    assert zeta(7) != zeta(28, 4)
    assert one.__eq__("1") is NotImplemented and one.__eq__(1.0) is NotImplemented


@pytest.mark.parametrize("p", [3, 7])
def test_kernels_match_root_of_unity_expansion(p):
    """For prime p the power basis is zeta^0 .. zeta^(p-2); products of
    integer combinations of roots are expanded by exponent arithmetic and
    reduced with 1 + zeta + ... + zeta^(p-1) = 0 alone."""
    rng = random.Random(5300 + p)
    rows = _field(p).mul_rows()
    for _ in range(40):
        a = {e: rng.randint(-5, 5) for e in rng.sample(range(p - 1), rng.randint(1, p - 1))}
        b = {e: rng.randint(-5, 5) for e in rng.sample(range(p - 1), rng.randint(1, p - 1))}
        c = {e: rng.randint(-5, 5) for e in rng.sample(range(p - 1), rng.randint(1, p - 1))}
        an, bn, cn = ([d.get(e, 0) for e in range(p - 1)] for d in (a, b, c))
        ab = reduce_prime_conductor(root_product_coeffs(a, b, p), p)
        bc = reduce_prime_conductor(root_product_coeffs(b, c, p), p)
        assert _kernels.mul(an, 1, bn, 1, rows) == fraction_canonical(ab)
        assert _kernels.addmul(an, 1, bn, 1, cn, 1, rows) == fraction_canonical(
            [x + y for x, y in zip(an, bc)]
        )
        assert _kernels.dot([(an, 1, bn, 3), (bn, 2, cn, 1)], rows) == fraction_canonical(
            [x / 3 + y / 2 for x, y in zip(ab, bc)]
        )


@pytest.mark.parametrize("conductor", [7, 28, 84])
def test_cycnum_dot_equals_fold_of_products(conductor):
    rng = random.Random(5400 + conductor)
    zero = CycNum.zero(conductor)
    for length in (1, 2, 3, 4, 7):
        for _ in range(8):
            left = [_random_cyc(rng, conductor) for _ in range(length)]
            right = [_random_cyc(rng, conductor) for _ in range(length)]
            fold = sum((a * b for a, b in zip(left, right)), zero)
            got = CycNum.dot(left, right)
            assert got == fold and got.nums == fold.nums and got.den == fold.den
    a, b = _random_cyc(rng, conductor), _random_cyc(rng, conductor)
    assert CycNum.dot([a], [b]) == a * b
    assert CycNum.dot((zero, a, zero), (b, zero, zero)) == zero
    assert CycNum.dot([zero] * 3, [zero] * 3).den == 1


def test_dot_rejects_mixed_conductors():
    a7, a28 = 1 + zeta(7), 1 + zeta(28)
    for left, right in ([a7, a7], [a7, a28]), ([a7, a28], [a7, a7]), ([a28], [a7]):
        with pytest.raises(ConductorMismatchError):
            CycNum.dot(left, right)


def test_dot_rejects_empty_and_unequal_lengths():
    """A length mismatch raises instead of dropping the unpaired terms."""
    a, b = zeta(28, 3), zeta(28, 5)
    for left, right in ([], []), ([a, b], [a]), ([a], [a, b]), ([], [a]):
        with pytest.raises(ShapeError):
            CycNum.dot(left, right)


def test_arithmetic_calls_through_the_kernel_module(monkeypatch):
    """CycNum reaches the field kernels through the module attributes of
    `lgorb._kernels`, so wrapping them (as the benchmark's counting pass
    does) sees every +, *, addmul, dot and add_many."""
    import lgorb
    from lgorb import matgroup
    from lgorb.matgroup import GMatrix

    calls = {"add": 0, "mul": 0, "addmul": 0, "dot": 0, "add_many": 0}
    for name in calls:
        real = getattr(_kernels, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(_kernels, name, counted)
    a, b, c = zeta(28, 3) + Fraction(1, 2), zeta(28, 5) * 3, zeta(28, 11)
    assert calls == {"add": 1, "mul": 1, "addmul": 0, "dot": 0, "add_many": 0}
    assert a + b == b + a
    assert calls["add"] == 3
    assert a * b == b * a
    assert calls["mul"] == 3
    assert a.addmul(b, c) == a + b * c
    assert calls == {"add": 4, "mul": 4, "addmul": 1, "dot": 0, "add_many": 0}
    assert CycNum.dot([a, b], [c, a]) == a * c + b * a
    assert calls == {"add": 5, "mul": 6, "addmul": 1, "dot": 1, "add_many": 0}
    assert CycNum.add_many([a, b, c]) == a + b + c
    assert calls == {"add": 7, "mul": 6, "addmul": 1, "dot": 1, "add_many": 1}
    # m * m has 8 terms over 7 distinct entry pairs and 4 entries of two
    # terms; with the product table cold each pair is one kernel product,
    # and once it is warm only the 4 sums reach the kernels.
    matgroup._entry_product.cache_clear()
    m = GMatrix([[a, b], [c, a]])
    m * m
    assert calls == {"add": 7, "mul": 13, "addmul": 1, "dot": 1, "add_many": 5}
    m * m
    assert calls == {"add": 7, "mul": 13, "addmul": 1, "dot": 1, "add_many": 9}
    assert lgorb.kernel_backend == "pure"


def _raw(v):
    return v.nums, v.den


def _as_checked(v, factor):
    """The value the public constructor normalizes from v's numerators and
    denominator, each multiplied by factor."""
    return CycNum(v.conductor, [factor * x for x in v.nums], factor * v.den)


@pytest.mark.parametrize("conductor", [1, 3, 4, 7, 12, 28])
def test_fast_path_results_equal_the_checked_constructor(conductor):
    """Arithmetic results are made without a check or a normalization: each
    one of *, addmul, dot, add_many, unary minus and inverse equals, and
    hashes like, the value `CycNum(...)` normalizes from its numerators and
    denominator (also scaled by -1 and 6), and equals the Fraction route."""
    rng = random.Random(6100 + conductor)
    values = [CycNum(conductor, nums, den) for nums, den in _raw_operands(rng, conductor)]
    one = CycNum.one(conductor)
    results = [CycNum.zero(conductor), one, zeta(conductor, 5)]
    results.append(CycNum.from_rational(Fraction(-3, 6), conductor))
    for _ in range(30):
        a, b, c = (rng.choice(values) for _ in range(3))
        fused = [a.addmul(b, c), CycNum.dot([a, b], [c, a]), CycNum.add_many([a, b, c])]
        expected = [[(a, b)], [(a, one), (b, c)], [(a, c), (b, a)], [(v, one) for v in (a, b, c)]]
        for got, pairs in zip([a * b, *fused], expected):
            assert _raw(got) == dense_dot([(*_raw(x), *_raw(y)) for x, y in pairs], conductor)
        results += [a * b, a * 3, a + b, -a, *fused]
        if a:
            results.append(a.inverse())
            assert a * results[-1] == one
    for v in results:
        assert type(v.nums) is tuple and all(type(x) is int for x in v.nums) and type(v.den) is int
        for factor in (1, -1, 6):
            again = _as_checked(v, factor)
            assert again == v and hash(again) == hash(v) and _raw(again) == _raw(v)
        assert bool(v) == (not v.is_zero())


def test_checked_constructor_refuses_bad_input():
    """The public constructor keeps every check: the numerator count, a
    zero denominator and non-integers, denominator 1 included."""
    with pytest.raises(ValueError, match="^need 6 coefficients at conductor 7, got 5$"):
        CycNum(7, [1] * 5)
    with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
        CycNum(7, [1] * 6, 0)
    for nums, den in (([0.5] + [0] * 5, 1), ([1] * 6, 2.0), ([Fraction(1, 2)] + [0] * 5, 1)):
        with pytest.raises(TypeError, match="^numerators and denominator must be integers"):
            CycNum(7, nums, den)
    with pytest.raises(ConductorMismatchError):
        zeta(7).addmul(zeta(28), zeta(7))
    with pytest.raises(ConductorMismatchError):
        zeta(7) * zeta(28)
