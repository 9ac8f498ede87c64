"""Multivariate polynomials over cyclotomic coefficients.

Monomials are exponent tuples of fixed arity.  Terms are kept in a dict
with no zero coefficients, so equality is structural.  The canonical term
order is graded reverse lexicographic with x1 > x2 > ... > xN.

Zero-arity polynomials (bare constants) are supported so restrictions to a
0-dimensional subspace flow through the same code paths.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from lgorb import linalg
from lgorb.errors import ShapeError
from lgorb.exactnum import CycNum

Monomial = tuple[int, ...]


def grevlex_key(mon: Monomial):
    """Sort key realizing grevlex: m1 > m2 iff grevlex_key(m1) > grevlex_key(m2)."""
    return (sum(mon), tuple(-e for e in reversed(mon)))


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mon_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mon_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


class WeightSystem:
    """Positive integer weights d_1..d_N with quasihomogeneous total d_f."""

    __slots__ = ("weights", "total")

    def __init__(self, weights: Sequence[int], total: int):
        if any(w <= 0 for w in weights) or total <= 0:
            raise ValueError("weights and total degree must be positive")
        self.weights = tuple(int(w) for w in weights)
        self.total = int(total)

    def weighted_degree(self, mon: Monomial) -> int:
        return sum(w * e for w, e in zip(self.weights, mon))

    def __eq__(self, other):
        return (
            isinstance(other, WeightSystem)
            and self.weights == other.weights
            and self.total == other.total
        )

    def __hash__(self):
        return hash((self.weights, self.total))

    def __repr__(self):
        return f"WeightSystem({self.weights}, {self.total})"


class Poly:
    """A polynomial of fixed arity over one cyclotomic field."""

    __slots__ = ("arity", "conductor", "terms", "_key")

    def __init__(self, arity: int, terms=None, conductor: int | None = None):
        clean: dict[Monomial, CycNum] = {}
        inferred = conductor
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mon, coeff in items:
                mon = tuple(int(e) for e in mon)
                if len(mon) != arity or any(e < 0 for e in mon):
                    raise ShapeError(f"bad monomial {mon} for arity {arity}")
                if not isinstance(coeff, CycNum):
                    coeff = CycNum.from_rational(coeff, inferred or 1)
                if inferred is None:
                    inferred = coeff.conductor
                elif coeff.conductor != inferred:
                    raise ShapeError("mixed conductors in one polynomial")
                if coeff:
                    clean[mon] = clean[mon] + coeff if mon in clean else coeff
                    if not clean[mon]:
                        del clean[mon]
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "conductor", inferred if inferred is not None else 1)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int, conductor: int = 1) -> "Poly":
        return cls(arity, {}, conductor)

    @classmethod
    def constant(cls, value, arity: int, conductor: int = 1) -> "Poly":
        if not isinstance(value, CycNum):
            value = CycNum.from_rational(value, conductor)
        return cls(arity, {tuple([0] * arity): value}, value.conductor)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, mon: Monomial) -> CycNum:
        return self.terms.get(tuple(mon), CycNum.zero(self.conductor))

    def constant_term(self) -> CycNum:
        return self.coeff(tuple([0] * self.arity))

    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def leading_coeff(self) -> CycNum:
        return self.terms[self.leading_monomial()]

    def sorted_terms(self) -> list[tuple[Monomial, CycNum]]:
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def cache_key(self):
        key = self._key
        if key is None:
            key = (
                self.arity,
                self.conductor,
                tuple(sorted((m, c.nums, c.den) for m, c in self.terms.items())),
            )
            object.__setattr__(self, "_key", key)
        return key

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.arity != other.arity:
            raise ShapeError(f"arity mismatch: {self.arity} vs {other.arity}")
        if self.conductor != other.conductor:
            raise ShapeError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}"
            )

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for mon, c in other.terms.items():
            acc = terms.get(mon)
            s = c if acc is None else acc + c
            if s:
                terms[mon] = s
            elif acc is not None:
                del terms[mon]
        return self._wrap(terms)

    def __neg__(self):
        return self._wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if len(self.terms) > len(other.terms):
            big, small = self, other
        else:
            big, small = other, self
        terms: dict[Monomial, CycNum] = {}
        for m1, c1 in small.terms.items():
            for m2, c2 in big.terms.items():
                mon = mon_mul(m1, m2)
                acc = terms.get(mon)
                terms[mon] = c1 * c2 if acc is None else acc.addmul(c1, c2)
        return self._wrap({m: c for m, c in terms.items() if c})

    __rmul__ = __mul__

    def scale(self, value) -> "Poly":
        if not isinstance(value, CycNum):
            value = CycNum.from_rational(value, self.conductor)
        if not value:
            return Poly.zero(self.arity, self.conductor)
        return self._wrap({m: c * value for m, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.conductor == other.conductor
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(self.cache_key())

    def _wrap(self, terms: dict) -> "Poly":
        p = Poly.__new__(Poly)
        object.__setattr__(p, "arity", self.arity)
        object.__setattr__(p, "conductor", self.conductor)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_key", None)
        return p

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        return f"Poly({self.arity}, {self.to_list()!r})"

    def __str__(self):
        return self.pretty()

    def pretty(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.arity)]
        chunks = []
        for mon, coeff in self.sorted_terms():
            mono = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(mon)
                if e
            )
            c = str(coeff)
            if " " in c:
                c = f"({c})"
            if not mono:
                body = c
            elif c == "1":
                body = mono
            elif c == "-1":
                body = f"-{mono}"
            else:
                body = f"{c}*{mono}"
            if not chunks:
                chunks.append(body)
            elif body.startswith("-"):
                chunks.append(f"- {body[1:]}")
            else:
                chunks.append(f"+ {body}")
        return " ".join(chunks)

    # -- serialization -----------------------------------------------------

    def to_list(self) -> list[dict]:
        return [
            {"exponents": list(mon), "coeff": coeff.to_dict()}
            for mon, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_list(cls, arity: int, data: Iterable[dict], conductor: int | None = None) -> "Poly":
        terms = {
            tuple(item["exponents"]): CycNum.from_dict(item["coeff"]) for item in data
        }
        return cls(arity, terms, conductor)


# -- calculus and substitution ----------------------------------------------


def partial_derivative(p: Poly, i: int) -> Poly:
    """Formal partial derivative with respect to variable i (0-based)."""
    if not 0 <= i < p.arity:
        raise ShapeError(f"variable index {i} out of range for arity {p.arity}")
    terms: dict[Monomial, CycNum] = {}
    for mon, coeff in p.terms.items():
        e = mon[i]
        if e:
            lowered = mon[:i] + (e - 1,) + mon[i + 1 :]
            terms[lowered] = coeff * e
    return Poly(p.arity, terms, p.conductor)


def second_partials(p: Poly) -> list[list[Poly]]:
    firsts = [partial_derivative(p, i) for i in range(p.arity)]
    return [[partial_derivative(firsts[i], j) for j in range(p.arity)] for i in range(p.arity)]


def _poly_det(rows: list[list[Poly]], arity: int, conductor: int) -> Poly:
    """Determinant of a matrix of polynomials by cofactor expansion."""
    n = len(rows)
    if n == 0:
        return Poly.constant(1, arity, conductor)
    if n == 1:
        return rows[0][0]
    total = Poly.zero(arity, conductor)
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        cofactor = entry * _poly_det(minor, arity, conductor)
        total = total + (cofactor if j % 2 == 0 else -cofactor)
    return total


def hessian(p: Poly) -> Poly:
    """det of the matrix of second partials, expanded symbolically."""
    return _poly_det(second_partials(p), p.arity, p.conductor)


def compose_linear(p: Poly, columns: Sequence[Sequence[CycNum]]) -> Poly:
    """p(M*t) where M has the given columns; result arity = len(columns).

    Column c lists the coefficients of old variables along new variable t_c,
    i.e. old x_i is substituted by sum_c M[i][c] * t_c.
    """
    k = len(columns)
    n = p.arity
    if any(len(col) != n for col in columns):
        raise ShapeError("substitution matrix has wrong number of rows")
    conductor = p.conductor
    lin: list[Poly] = []
    for i in range(n):
        terms = {}
        for c in range(k):
            coeff = columns[c][i]
            if coeff:
                terms[tuple(1 if j == c else 0 for j in range(k))] = coeff
        lin.append(Poly(k, terms, conductor))
    powers: list[dict[int, Poly]] = [dict() for _ in range(n)]

    def lin_pow(i: int, e: int) -> Poly:
        cached = powers[i].get(e)
        if cached is None:
            cached = Poly.constant(1, k, conductor) if e == 0 else lin_pow(i, e - 1) * lin[i]
            powers[i][e] = cached
        return cached

    out = Poly.zero(k, conductor)
    for mon, coeff in p.terms.items():
        img = Poly.constant(coeff, k, conductor)
        for i, e in enumerate(mon):
            if e and img:
                img = img * lin_pow(i, e)
        out = out + img
    return out


def substitute_linear(p: Poly, matrix: Sequence[Sequence[CycNum]]) -> Poly:
    """p(M*x) for a square matrix given as rows."""
    n = p.arity
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ShapeError(f"need a {n}x{n} matrix")
    columns = [[matrix[i][c] for i in range(n)] for c in range(n)]
    return compose_linear(p, columns)


def restrict_to_subspace(p: Poly, columns: Sequence[Sequence[CycNum]]) -> Poly:
    """p(B*t) for a matrix B of linearly independent columns; arity len(columns)."""
    cols = [tuple(col) for col in columns]
    if cols:
        if linalg.rank([list(row) for row in zip(*cols)]) != len(cols):
            raise ShapeError("restriction columns are linearly dependent")
        return compose_linear(p, cols)
    return Poly(0, {(): p.constant_term()}, p.conductor)


def is_quasihomogeneous(p: Poly, w: WeightSystem) -> bool:
    """True iff every monomial has weighted degree equal to w.total."""
    if len(w.weights) != p.arity:
        raise ShapeError("weight system arity mismatch")
    return all(w.weighted_degree(mon) == w.total for mon in p.terms)
