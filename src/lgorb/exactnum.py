"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored over the power basis 1, zeta, ..., zeta^(phi(n)-1),
canonically reduced modulo the n-th cyclotomic polynomial, as integer
numerator vectors over a common positive denominator.  Equality is
therefore structural and hashing is sound.  Rational numbers are the
conductor-1 case; `fractions.Fraction` is the scalar type throughout.

Arithmetic runs in `lgorb._kernels`.  Sums of products (determinant
cofactors, fixed-locus restrictions, products of algebra classes and of
polynomials) go through `CycNum.dot`, which reduces and normalizes once per
sum instead of once per product; the per-conductor reduction rows are kept
sparse and read from one memo (`_mul_rows`), so multiplying skips the zero
coefficients of Phi_n's rows and of the second operand.  A sum of values
already multiplied, such as a matrix entry whose terms come from the table
of entry products, goes through `CycNum.add_many`, which normalizes once
per sum.

Two constructors.  `CycNum(conductor, nums, den)` is for outside input:
it checks the numerator count, refuses a zero denominator and anything
but integers, and normalizes.  Every kernel result is canonical already,
so arithmetic makes its values with `_make`, which sets the four slots and
nothing else; `+`, `*`, `addmul` and `dot` skip coercion for a value of
the same conductor.  A caller of `_make` owes it a canonical (nums, den):
a tuple of phi(n) ints, a positive denominator, content 1, denominator 1
for zero.

Interning: `_entry` keeps one canonical object per value and
`_entry_product` one interned product per pair of values, both
`functools.lru_cache` tables that live for the whole process.
`lgorb.matgroup` interns every matrix entry and reads each term of a
matrix product from the product table; `polyring.compose_linear` reads the
products of substitution entries from it, so substituting a group element
whose entry pairs a closure or an earlier substitution multiplied makes no
new field product.  Their memory grows with the distinct values interned
and the distinct pairs multiplied: about 300 pairs for the 13 catalog
reports, under 1,000 for 30 dense conjugates of catalog groups.
Clearing either table costs speed only: values stay canonical.
`CycNum.zero(n)` returns one shared object per conductor, so padding and
empty sums share it and hot loops can skip it by identity; a zero made by
arithmetic is an equal but distinct object, and no result depends on the
sharing.

Inverses work in the value's own subfield.  When p^2 divides n,
Phi_n(x) = Phi_(n/p)(x^p), so a value of Q(zeta_n) whose nonzero
coefficients all sit at indices divisible by p is the `lift` of
nums[::p] from Q(zeta_(n/p)).  `CycNum.inverse` descends while some p
allows it, eliminates there and spreads the result back: every catalog
value lies in Q(zeta_14) = Q(zeta_7), where the elimination is 6 x 6
instead of 12 x 12 at conductor 28.

All values are immutable and every operation is a pure function, so
instances can be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from lgorb import _kernels
from lgorb.errors import ConductorMismatchError, ShapeError


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            result *= (p - 1) * p ** (e - 1)
        p += 1
    if m > 1:
        result *= m - 1
    return result


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials; divisor monic, division exact."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first; degree phi(n)."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class _Field:
    """Per-conductor context: totient and power-basis reduction rows."""

    __slots__ = ("n", "phi", "rows")

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        cyc = cyclotomic_polynomial(n)
        base = tuple(-c for c in cyc[: self.phi])  # zeta^phi over the basis
        self.rows: list[tuple[int, ...]] = [base]

    def row(self, e: int) -> tuple[int, ...]:
        """Reduction row of zeta^(phi + e) over the power basis."""
        rows = self.rows
        while len(rows) <= e:
            prev = rows[-1]
            top = prev[-1]
            shifted = [0] + list(prev[:-1])
            if top:
                for j, rj in enumerate(rows[0]):
                    shifted[j] += top * rj
            rows.append(tuple(shifted))
        return rows[e]

    def mul_rows(self) -> list[tuple[tuple[int, int], ...]]:
        """The reduction rows of zeta^phi .. zeta^(2 phi - 2), each as its
        nonzero (index, value) pairs: the table the kernels take."""
        return _mul_rows(self.n)


def _exact_rational(value) -> int | Fraction:
    """value itself if it is an int (not a bool) or a Fraction; TypeError
    naming it otherwise, so that a float's binary expansion never enters
    exact arithmetic."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {value!r}")
    return value


@lru_cache(maxsize=None)
def _field(n: int) -> _Field:
    return _Field(n)


@lru_cache(maxsize=None)
def _mul_rows(n: int) -> list[tuple[tuple[int, int], ...]]:
    """`_Field.mul_rows` of conductor n, built once per conductor and read
    by arithmetic through this one cached call."""
    field = _field(n)
    return [tuple((j, v) for j, v in enumerate(field.row(e)) if v) for e in range(field.phi - 1)]


def _subfield(n: int, nums: tuple[int, ...]) -> tuple[int, tuple[int, ...], int]:
    """The smallest conductor m the value visibly descends to, its
    numerators there and the stride n / m.

    When p^2 divides n, Phi_n(x) = Phi_(n/p)(x^p) and phi(n) = p phi(n/p),
    so a value whose nonzero coefficients all sit at indices divisible by
    p is the `lift` of nums[::p] from Q(zeta_(n/p)); the step repeats while
    some p allows it."""
    stride = 1
    while True:
        p = next(
            (
                p
                for p in range(2, isqrt(n) + 1)
                if n % (p * p) == 0 and not any(any(nums[r::p]) for r in range(1, p))
            ),
            None,
        )
        if p is None:
            return n, nums, stride
        n, nums, stride = n // p, nums[::p], stride * p


def _bareiss_inverse(n: int, nums) -> tuple[list[int], int]:
    """(det(M) x, det(M)) for the inverse x of the nonzero integer-vector
    value nums of Q(zeta_n); see `CycNum.inverse`."""
    field = _field(n)
    phi, base = field.phi, field.rows[0]
    columns = [list(nums)]
    for _ in range(phi - 1):
        prev = columns[-1]
        top = prev[-1]
        col = [0] + prev[:-1]
        if top:
            col = [c + top * b for c, b in zip(col, base)]
        columns.append(col)
    aug = [[col[r] for col in columns] + [int(r == 0)] for r in range(phi)]
    prev_pivot = 1
    for k in range(phi):
        if not aug[k][k]:
            swap = next(i for i in range(k + 1, phi) if aug[i][k])
            aug[k], aug[swap] = aug[swap], aug[k]
        pivot = aug[k][k]
        tail = aug[k][k + 1 :]
        for i in range(phi):
            if i != k:
                row = aug[i]
                factor = row[k]
                row[k + 1 :] = [
                    (pivot * v - factor * p) // prev_pivot for v, p in zip(row[k + 1 :], tail)
                ]
        prev_pivot = pivot
    return [row[phi] for row in aug], prev_pivot


class CycNum:
    """An element of Q(zeta_n), exact, canonical, immutable."""

    __slots__ = ("conductor", "nums", "den", "_hash")

    def __init__(self, conductor: int, nums, den: int = 1):
        """The value sum(nums[i] zeta^i) / den, checked and normalized: the
        constructor for outside input.  Results of arithmetic are made by
        `_make` instead."""
        phi = _field(conductor).phi
        if len(nums) != phi:
            raise ValueError(f"need {phi} coefficients at conductor {conductor}, got {len(nums)}")
        if not isinstance(den, int) or not all(isinstance(v, int) for v in nums):
            raise TypeError(
                f"numerators and denominator must be integers, got {nums!r:.60}, {den!r:.20}"
            )
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        nums, den = _kernels.normalize(list(nums), den)
        _set_conductor(self, conductor)
        _set_nums(self, nums)
        _set_den(self, den)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> "CycNum":
        """value (an int or a Fraction, see `_exact_rational`) in Q(zeta_n)."""
        q = Fraction(_exact_rational(value))
        return _make(conductor, (q.numerator,) + (0,) * (_field(conductor).phi - 1), q.denominator)

    @classmethod
    def from_coeffs(cls, conductor: int, coeffs) -> "CycNum":
        """Build from a sequence of phi(n) ints or Fractions over the power
        basis (see `_exact_rational`)."""
        fracs = [Fraction(_exact_rational(c)) for c in coeffs]
        den = 1
        for f in fracs:
            den = den // gcd(den, f.denominator) * f.denominator
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        return cls(conductor, nums, den)

    @classmethod
    def zero(cls, conductor: int = 1) -> "CycNum":
        """The zero of Q(zeta_n): one shared object per conductor (`_zero`)."""
        return _zero(conductor)

    @classmethod
    def one(cls, conductor: int = 1) -> "CycNum":
        return cls.from_rational(1, conductor)

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def __bool__(self) -> bool:
        return any(self.nums)

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.conductor != self.conductor:
                raise ConductorMismatchError(
                    f"conductor mismatch: {self.conductor} vs {other.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return CycNum.from_rational(other, self.conductor)
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not CycNum or other.conductor != self.conductor:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        nums, den = _kernels.add(self.nums, self.den, other.nums, other.den)
        return _make(self.conductor, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, tuple([-v for v in self.nums]), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        n = self.conductor
        if type(other) is not CycNum or other.conductor != n:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        nums, den = _kernels.mul(self.nums, self.den, other.nums, other.den, _mul_rows(n))
        return _make(n, nums, den)

    __rmul__ = __mul__

    def addmul(self, b: "CycNum", c: "CycNum") -> "CycNum":
        """self + b*c, fused (one normalization); b and c are values of
        self's conductor (else ConductorMismatchError)."""
        n = self.conductor
        if b.conductor != n or c.conductor != n:
            raise ConductorMismatchError(
                f"conductor mismatch: {n} vs {b.conductor} and {c.conductor}"
            )
        nums, den = _kernels.addmul(self.nums, self.den, b.nums, b.den, c.nums, c.den, _mul_rows(n))
        return _make(n, nums, den)

    @staticmethod
    def dot(left, right) -> "CycNum":
        """sum(a * b for a, b in zip(left, right)), fused: one convolution
        buffer, one reduction and one normalization for the whole sum.  The
        value is canonical, so it equals the fold of * and + exactly.  Empty
        or unequal-length inputs raise ShapeError (never truncated), mixed
        conductors ConductorMismatchError."""
        if not left or len(left) != len(right):
            raise ShapeError(
                f"dot needs two nonempty sequences of one length, got {len(left)} and {len(right)}"
            )
        n = left[0].conductor
        terms = []
        for a, b in zip(left, right):
            if a.conductor != n or b.conductor != n:
                raise ConductorMismatchError(
                    f"conductor mismatch: {n} vs {a.conductor} and {b.conductor}"
                )
            terms.append((a.nums, a.den, b.nums, b.den))
        nums, den = _kernels.dot(terms, _mul_rows(n))
        return _make(n, nums, den)

    @staticmethod
    def add_many(values) -> "CycNum":
        """sum(values) for two or more values of one conductor, fused: one
        pass over the least common denominator and one normalization.  The
        value is canonical, so it equals the fold of + exactly.  Fewer than
        two values raise ShapeError, mixed conductors ConductorMismatchError."""
        if len(values) < 2:
            raise ShapeError(f"add_many needs at least two values, got {len(values)}")
        n = values[0].conductor
        raw = []
        for v in values:
            if v.conductor != n:
                raise ConductorMismatchError(f"conductor mismatch: {n} vs {v.conductor}")
            raw.append((v.nums, v.den))
        nums, den = _kernels.add_many(raw)
        return _make(n, nums, den)

    def inverse(self) -> "CycNum":
        """Multiplicative inverse: fast paths for rationals and for rational
        multiples of basis powers, otherwise fraction-free integer
        elimination in the smallest subfield Q(zeta_m) the value visibly
        lies in (`_subfield`), spread back to the power basis of Q(zeta_n).

        Writing the value as N/den, the coefficients x of 1/N solve
        M x = e_0, where column j of M is N zeta^j over the power basis.
        Bareiss elimination of [M | e_0] keeps every entry an integer minor
        and ends with det(M) on the diagonal and det(M) x in the last
        column, so the inverse is den * (det(M) x) / det(M)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            q = self.as_rational()
            return CycNum.from_rational(Fraction(q.denominator, q.numerator), self.conductor)
        support = [i for i, v in enumerate(self.nums) if v]
        if len(support) == 1:
            k = support[0]
            scalar = Fraction(self.den, self.nums[k])
            return zeta(self.conductor, self.conductor - k) * scalar
        m, sub, stride = _subfield(self.conductor, self.nums)
        solution, det = _bareiss_inverse(m, sub)
        nums = [0] * len(self.nums)
        nums[::stride] = [v * self.den for v in solution]
        return _make(self.conductor, *_kernels.normalize(nums, det))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycNum.one(self.conductor)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def lift(self, m: int) -> "CycNum":
        """Image in Q(zeta_m) under zeta_n -> zeta_m^(m/n); requires n | m."""
        n = self.conductor
        if m % n != 0:
            raise ConductorMismatchError(f"target conductor {m} not divisible by {n}")
        if m == n:
            return self
        terms = (zeta(m, i * (m // n)) * c for i, c in enumerate(self.coeffs) if c)
        return sum(terms, CycNum.zero(m))

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not CycNum:
            if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
                other = CycNum.from_rational(other, self.conductor)
            elif not isinstance(other, CycNum):
                return NotImplemented
        return (
            self.conductor == other.conductor
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.conductor, self.nums, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        return f"CycNum({self.conductor}, {self.nums}, {self.den})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                power = f"z{self.conductor}" + (f"^{i}" if i > 1 else "")
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, data) -> "CycNum":
        """Inverse of `to_dict`, total on decoded JSON: any fault raises a ValueError
        that starts with the faulty field; a float or a bool is refused, never rounded."""
        if not isinstance(data, dict):
            raise ValueError(f"must be an object with 'conductor' and 'coeffs', got {data!r:.40}")
        conductor, pairs = data.get("conductor"), data.get("coeffs")
        if type(conductor) is not int or conductor < 1:
            raise ValueError(f"conductor: must be a positive integer, got {conductor!r:.40}")
        if not isinstance(pairs, (list, tuple)):
            raise ValueError(f"coeffs: must be a list of pairs, got {pairs!r:.40}")
        coeffs = []
        for i, pair in enumerate(pairs):
            if isinstance(pair, (list, tuple)) and {type(part) for part in pair} <= {int, str}:
                try:
                    num, den = map(int, pair)  # also fails past int()'s digit limit
                    coeffs.append(Fraction(num, den))
                    continue
                except (ValueError, ZeroDivisionError):
                    pass
            raise ValueError(
                f"coeffs[{i}]: must be [numerator, nonzero denominator], each an integer "
                f"or a decimal string, got {pair!r:.40}"
            )
        phi = _field(conductor).phi
        if len(coeffs) != phi:
            raise ValueError(f"coeffs: conductor {conductor} needs {phi} pairs, got {len(pairs)}")
        return cls.from_coeffs(conductor, coeffs)


_new = object.__new__
_set_conductor = CycNum.conductor.__set__
_set_nums = CycNum.nums.__set__
_set_den = CycNum.den.__set__
_set_hash = CycNum._hash.__set__


def _make(conductor: int, nums: tuple[int, ...], den: int) -> CycNum:
    """The value of a canonical (nums, den) at a conductor whose field is
    built: nums a tuple of phi(conductor) ints, den positive, content 1,
    den 1 for zero, as every `_kernels` function returns.  Nothing is
    looked up, checked or normalized; `CycNum(...)` is the checked
    constructor for anything else."""
    value = _new(CycNum)
    _set_conductor(value, conductor)
    _set_nums(value, nums)
    _set_den(value, den)
    _set_hash(value, None)
    return value


@lru_cache(maxsize=None)
def _zero(conductor: int) -> CycNum:
    """The one zero object of a conductor (see the module docstring)."""
    return _make(conductor, (0,) * _field(conductor).phi, 1)


def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity zeta_n^k, canonically reduced; conductor n."""
    field = _field(n)
    e = k % n
    nums = [0] * field.phi
    if e < field.phi:
        nums[e] = 1
    else:
        nums = field.row(e - field.phi)
    return _make(n, tuple(nums), 1)


@lru_cache(maxsize=None)
def _entry(value: CycNum) -> CycNum:
    """The canonical object of a value: the first equal value the process
    interned.  Memory grows with the distinct values interned."""
    return value


@lru_cache(maxsize=None)
def _entry_product(a: CycNum, b: CycNum) -> CycNum:
    """The interned product of two values, computed by `CycNum.__mul__` the
    first time the pair is seen and read from this table after that.
    Memory grows with the distinct pairs multiplied."""
    return _entry(a * b)
