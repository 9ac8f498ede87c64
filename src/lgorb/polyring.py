"""Multivariate polynomials over cyclotomic coefficients.

Monomials are exponent tuples of fixed arity.  Terms are kept in a dict
with no zero coefficients, so equality is structural.  The canonical term
order is graded reverse lexicographic with x1 > x2 > ... > xN.

Zero-arity polynomials (bare constants) are supported so restrictions to a
0-dimensional subspace flow through the same code paths.

Products collect, for each output monomial, the term pairs that reach it
and make its coefficient one fused `CycNum.dot`.  `compose_linear` is the
only substitution (`substitute_linear`, `restrict_to_subspace` and the
symmetry check all call it): it expands each term as the product of the
images of its two half-degree monomials, memoized within the call, with
degree-2 images summed from the process-wide table of entry products in
`lgorb.exactnum`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Sequence

from lgorb import linalg
from lgorb.errors import ShapeError
from lgorb.exactnum import CycNum, _entry_product

Monomial = tuple[int, ...]


def grevlex_key(mon: Monomial):
    """Sort key realizing grevlex: m1 > m2 iff grevlex_key(m1) > grevlex_key(m2)."""
    return (sum(mon), tuple(-e for e in reversed(mon)))


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


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
        return self._wrap(_sum_of_products([(self.terms, other.terms)]))

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


def _sum_of_products(pairs) -> dict[Monomial, CycNum]:
    """The terms of sum(A * B) over the (A, B) pairs of term dicts: each
    output coefficient is one fused `CycNum.dot` over the term pairs that
    reach its monomial, and zero sums are dropped."""
    lefts: dict[Monomial, list[CycNum]] = {}
    rights: dict[Monomial, list[CycNum]] = {}
    for left, right in pairs:
        for m1, a in left.items():
            for m2, b in right.items():
                mon = mon_mul(m1, m2)
                reached = lefts.get(mon)
                if reached is None:
                    lefts[mon], rights[mon] = [a], [b]
                else:
                    reached.append(a)
                    rights[mon].append(b)
    out = {}
    for mon, reached in lefts.items():
        c = CycNum.dot(reached, rights[mon])
        if c:
            out[mon] = c
    return out


def _table_product(left: dict, right: dict) -> dict[Monomial, CycNum]:
    """The terms of A * B with each term product read from the interned
    table `exactnum._entry_product`: a coefficient is its one product or
    one `CycNum.add_many`, and zero sums are dropped."""
    reached: dict[Monomial, list[CycNum]] = {}
    for m1, a in left.items():
        for m2, b in right.items():
            reached.setdefault(mon_mul(m1, m2), []).append(_entry_product(a, b))
    out = {}
    for mon, terms in reached.items():
        c = CycNum.add_many(terms) if len(terms) > 1 else terms[0]
        if c:
            out[mon] = c
    return out


def compose_linear(p: Poly, columns: Sequence[Sequence[CycNum]]) -> Poly:
    """p(M*t) where M has the given columns; result arity = len(columns).

    Column c lists the coefficients of old variables along new variable t_c,
    i.e. old x_i is substituted by sum_c M[i][c] * t_c.

    Each term c x^a is split into halves x^a = x^b x^e with deg b =
    floor(deg a / 2) (the first variables of a, counted with multiplicity),
    and contributes c (x^b)(M t) (x^e)(M t).  The images of monomials are
    memoized within the call: x_i is row i of M; x_i x_j is summed from
    products read from the process-wide table `exactnum._entry_product`,
    which group matrix products fill, so the degree-2 images of a group
    element cost no field product once the table holds its entry pairs; a
    monomial of higher degree is the product of the images of its halves.
    Every output coefficient, and every coefficient of a higher image, is
    one fused `CycNum.dot`.
    """
    k = len(columns)
    n = p.arity
    if any(len(col) != n for col in columns):
        raise ShapeError("substitution matrix has wrong number of rows")
    conductor = p.conductor
    unit = (0,) * k
    images: dict[Monomial, dict[Monomial, CycNum]] = {(0,) * n: {unit: CycNum.one(conductor)}}
    for i in range(n):
        row = {}
        for c, col in enumerate(columns):
            coeff = col[i]
            if coeff:
                if not isinstance(coeff, CycNum):  # coerced as a Poly coefficient is
                    coeff = CycNum.from_rational(coeff, conductor)
                elif coeff.conductor != conductor:
                    raise ShapeError("mixed conductors in one polynomial")
                row[unit[:c] + (1,) + unit[c + 1 :]] = coeff
        images[tuple(int(j == i) for j in range(n))] = row

    def halves(mon: Monomial) -> tuple[Monomial, Monomial]:
        variables = [i for i, e in enumerate(mon) for _ in range(e)]
        low = [0] * n
        for i in variables[: len(variables) // 2]:
            low[i] += 1
        return tuple(low), tuple(e - b for e, b in zip(mon, low))

    def image(mon: Monomial) -> dict[Monomial, CycNum]:
        img = images.get(mon)
        if img is None:
            low, high = halves(mon)
            if sum(mon) == 2:
                img = _table_product(image(low), image(high))
            else:
                img = _sum_of_products([(image(low), image(high))])
            images[mon] = img
        return img

    pairs = []
    for mon, coeff in p.terms.items():
        low, high = halves(mon)
        left = image(low)
        if not coeff.is_one():
            left = {m: coeff * v for m, v in left.items()} if any(low) else {unit: coeff}
        pairs.append((left, image(high)))
    return Poly.zero(k, conductor)._wrap(_sum_of_products(pairs))


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
