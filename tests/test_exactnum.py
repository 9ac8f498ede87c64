import random
from fractions import Fraction

import pytest

from lgorb.errors import ConductorMismatchError
from lgorb.exactnum import CycNum, cyclotomic_polynomial, euler_phi, zeta
from oracles import euclid_inverse, reduce_prime_conductor, root_product_coeffs


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


def test_serialization_roundtrip_big_integers():
    big = 10**30
    a = CycNum.from_coeffs(28, [Fraction(big, 7)] + [Fraction(-big, 3)] * 11)
    data = a.to_dict()
    assert all(isinstance(num, str) and isinstance(den, str) for num, den in data["coeffs"])
    assert CycNum.from_dict(data) == a


def test_str_and_complex_approx_smoke():
    s = sqrt_minus_seven()
    approx = s.complex_approx()
    assert abs(approx.real) < 1e-9 and abs(approx.imag - 7**0.5) < 1e-9
    assert "z7" in str(s)


def test_arithmetic_calls_through_the_kernel_module(monkeypatch):
    """CycNum reaches the field kernels through the module attributes of
    `lgorb._kernels`, so wrapping them (as the benchmark's counting pass
    does) sees every +, * and addmul."""
    import lgorb
    from lgorb import _kernels

    calls = {"add": 0, "mul": 0, "addmul": 0}
    for name in calls:
        real = getattr(_kernels, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(_kernels, name, counted)
    a, b, c = zeta(28, 3) + Fraction(1, 2), zeta(28, 5) * 3, zeta(28, 11)
    assert calls == {"add": 1, "mul": 1, "addmul": 0}
    assert a + b == b + a
    assert calls["add"] == 3
    assert a * b == b * a
    assert calls["mul"] == 3
    assert a.addmul(b, c) == a + b * c
    assert calls == {"add": 4, "mul": 4, "addmul": 1}
    assert lgorb.kernel_backend == "pure"
