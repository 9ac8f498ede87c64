"""Groebner bases and Jacobian algebras.

The monomial order is graded reverse lexicographic throughout, which is
degree-compatible, so graded dimensions of a quotient read directly off
the standard monomials.  Buchberger runs with the normal selection
strategy (smallest lcm first) plus the coprimality and chain criteria;
generators are kept monic, so reduction needs no divisions.

A Jacobian algebra multiplies classes written as coordinates over its
standard monomial basis, through a product table kept on the algebra
(the multiplication matrices of a finite-dimensional quotient): entry
(i, j) is the class of basis[i] * basis[j] as (index, coeff) pairs.  The
table starts empty and an entry is filled by `normal_form` the first time
a product needs it; a standard monomial is its own class, and a pair
whose weighted degrees add up to more than the top degree is zero without
an entry, because the ideal is weighted-homogeneous.  Each output
coordinate of a product is one fused `CycNum.dot`.  Algebras are memoized
per process, so every group whose sectors share an algebra shares its
table; memory grows with the entries used, at most milnor^2.
"""

from __future__ import annotations

from itertools import product as iter_product

from lgorb.errors import NonIsolatedSingularityError, ShapeError
from lgorb.exactnum import CycNum
from lgorb.polyring import (
    Monomial,
    Poly,
    WeightSystem,
    grevlex_key,
    is_quasihomogeneous,
    mon_div,
    mon_divides,
    mon_lcm,
    mon_mul,
    partial_derivative,
)


class GroebnerBasis:
    """A reduced Groebner basis under grevlex; generators monic."""

    __slots__ = ("arity", "conductor", "generators", "leading")

    def __init__(self, generators: list[Poly]):
        gens = sorted(
            (g for g in generators if g),
            key=lambda g: grevlex_key(g.leading_monomial()),
        )
        if not gens:
            raise ValueError("empty generating set")
        self.arity = gens[0].arity
        self.conductor = gens[0].conductor
        self.generators = tuple(gens)
        self.leading = tuple(g.leading_monomial() for g in gens)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        return isinstance(other, GroebnerBasis) and self.generators == other.generators

    def __repr__(self):
        return f"GroebnerBasis({list(self.generators)!r})"

    def reducer_for(self, mon: Monomial) -> int | None:
        for i, lm in enumerate(self.leading):
            if mon_divides(lm, mon):
                return i
        return None


def normal_form(p: Poly, basis: GroebnerBasis) -> Poly:
    """Unique remainder of p modulo the basis; linear and idempotent."""
    if p.arity != basis.arity:
        raise ShapeError("ring mismatch between polynomial and basis")
    work = dict(p.terms)
    remainder: dict[Monomial, CycNum] = {}
    while work:
        mon = max(work, key=grevlex_key)
        coeff = work.pop(mon)
        i = basis.reducer_for(mon)
        if i is None:
            remainder[mon] = coeff
            continue
        g = basis.generators[i]
        shift = mon_div(mon, basis.leading[i])
        factor = -coeff
        for gm, gc in g.terms.items():
            if gm == basis.leading[i]:
                continue
            target = mon_mul(gm, shift)
            acc = work.get(target)
            s = factor * gc if acc is None else acc.addmul(factor, gc)
            if s:
                work[target] = s
            elif acc is not None:
                del work[target]
    return Poly(p.arity, remainder, p.conductor)


def _spoly(f: Poly, g: Poly) -> Poly:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = mon_lcm(lf, lg)
    # both monic, so the S-polynomial needs no coefficient scaling
    uf = Poly(f.arity, {mon_div(lcm, lf): CycNum.one(f.conductor)}, f.conductor)
    ug = Poly(g.arity, {mon_div(lcm, lg): CycNum.one(g.conductor)}, g.conductor)
    return uf * f - ug * g


def buchberger(generators) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by the inputs."""
    basis = sorted(
        (g.scale(g.leading_coeff().inverse()) for g in generators if g),
        key=lambda g: grevlex_key(g.leading_monomial()),
    )
    if not basis:
        raise ValueError("cannot take a Groebner basis of the zero ideal")
    lms = [g.leading_monomial() for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    done: set[tuple[int, int]] = set()
    while pairs:
        i, j = min(pairs, key=lambda ij: (grevlex_key(mon_lcm(lms[ij[0]], lms[ij[1]])), ij))
        pairs.discard((i, j))
        done.add((i, j))
        lcm = mon_lcm(lms[i], lms[j])
        if lcm == mon_mul(lms[i], lms[j]):
            continue  # coprime leading monomials
        if any(
            k != i
            and k != j
            and mon_divides(lms[k], lcm)
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k in range(len(basis))
        ):
            continue  # chain criterion
        remainder = normal_form(_spoly(basis[i], basis[j]), GroebnerBasis(basis))
        if remainder:
            basis.append(remainder.scale(remainder.leading_coeff().inverse()))
            lms.append(remainder.leading_monomial())
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
    # a minimal basis: drop generators with redundant leading monomials
    kept = [
        g
        for i, g in enumerate(basis)
        if not any(
            j != i and mon_divides(lms[j], lms[i]) and (lms[j] != lms[i] or j < i)
            for j in range(len(basis))
        )
    ]
    # Tail reduction keeps every leading monomial and coefficient 1, so one
    # pass leaves each generator with no term divisible by any leading
    # monomial: the unique reduced basis.
    if len(kept) > 1:
        for i in range(len(kept)):
            kept[i] = normal_form(kept[i], GroebnerBasis(kept[:i] + kept[i + 1 :]))
    return GroebnerBasis(kept)


def quotient_basis(basis: GroebnerBasis) -> list[Monomial]:
    """Monomials not divisible by any leading monomial, in graded order.

    Raises NonIsolatedSingularityError if the quotient is infinite
    dimensional, i.e. some variable has no pure power among the leading
    monomials.
    """
    n = basis.arity
    if n == 0:
        return [()]
    bounds = []
    for i in range(n):
        bound = None
        for lm in basis.leading:
            if lm[i] and all(e == 0 for k, e in enumerate(lm) if k != i):
                bound = lm[i] if bound is None else min(bound, lm[i])
        if bound is None:
            raise NonIsolatedSingularityError(
                f"no pure power of variable {i + 1} among leading monomials; "
                "the quotient is infinite-dimensional"
            )
        bounds.append(bound)
    mons = [
        mon
        for mon in iter_product(*(range(b) for b in bounds))
        if basis.reducer_for(mon) is None
    ]
    mons.sort(key=grevlex_key)
    return mons


class JacobianAlgebra:
    """The quotient by the ideal of partial derivatives, with basis data."""

    __slots__ = (
        "source",
        "weights",
        "gb",
        "basis",
        "basis_index",
        "graded_dims",
        "milnor",
        "degrees",
        "_table",
    )

    def __init__(self, source, weights, gb, basis, graded_dims):
        self.source = source
        self.weights = weights
        self.gb = gb
        self.basis = tuple(basis)
        self.basis_index = {m: i for i, m in enumerate(self.basis)}
        self.graded_dims = tuple(graded_dims)
        self.milnor = len(self.basis)
        self.degrees = tuple(d for d, dim in enumerate(self.graded_dims) for _ in range(dim))
        self._table = None  # filled by `multiply`, one entry at a time

    @property
    def arity(self) -> int:
        return self.source.arity

    @property
    def conductor(self) -> int:
        return self.source.conductor

    def top_degree(self) -> int:
        return len(self.graded_dims) - 1

    def nf(self, p: Poly) -> Poly:
        return normal_form(p, self.gb) if self.gb is not None else p

    def vector(self, p: Poly) -> tuple[CycNum, ...]:
        """Coordinates of the class of p over the standard monomial basis."""
        reduced = self.nf(p)
        zero = CycNum.zero(self.conductor)
        out = [zero] * self.milnor
        for mon, coeff in reduced.terms.items():
            out[self.basis_index[mon]] = coeff
        return tuple(out)

    def _class_of(self, mon: Monomial) -> tuple[tuple[int, CycNum], ...]:
        """The class of one monomial as (index, coeff) pairs over `basis`:
        a standard monomial is its own normal form."""
        one = CycNum.one(self.conductor)
        k = self.basis_index.get(mon)
        if k is not None:
            return ((k, one),)
        reduced = self.nf(Poly(self.arity, {mon: one}, self.conductor))
        return tuple(sorted((self.basis_index[m], c) for m, c in reduced.terms.items()))

    def multiply(self, u, v) -> tuple[CycNum, ...]:
        """Coordinates of the product of the classes with coordinates u and v.

        Reads the product table: entry (i, j) is the class of
        basis[i] * basis[j] as (index, coeff) pairs, filled on first use.  A
        pair whose degrees add up to more than the top degree is zero
        without an entry.  Each output coordinate that some pair reaches is
        one fused `CycNum.dot` over those pairs; the others are zero.  The
        shared zero (`CycNum.zero`) is skipped by identity before any truth
        test; another zero is skipped by its value."""
        mu, basis, degrees = self.milnor, self.basis, self.degrees
        table = self._table
        if table is None:
            table = self._table = [[None] * mu for _ in range(mu)]
        top, zero = self.top_degree(), CycNum.zero(self.conductor)
        right = [(j, b, degrees[j]) for j, b in enumerate(v) if b is not zero and b]
        lefts: dict[int, list[CycNum]] = {}
        rights: dict[int, list[CycNum]] = {}
        for i, a in enumerate(u):
            if a is zero or not a:
                continue
            row, room = table[i], top - degrees[i]
            for j, b, d in right:
                if d > room:
                    break  # the basis is sorted by degree
                entry = row[j]
                if entry is None:
                    entry = row[j] = table[j][i] = self._class_of(mon_mul(basis[i], basis[j]))
                ab = None
                for k, c in entry:
                    if c.is_one():
                        left, factor = a, b
                    else:
                        if ab is None:
                            ab = a * b
                        left, factor = ab, c
                    reached = lefts.get(k)
                    if reached is None:
                        lefts[k], rights[k] = [left], [factor]
                    else:
                        reached.append(left)
                        rights[k].append(factor)
        return tuple(
            CycNum.dot(lefts[k], rights[k]) if k in lefts else zero for k in range(mu)
        )

    def linear_class(self, coeffs) -> tuple[CycNum, ...]:
        """Coordinates of the class of the linear form sum_c coeffs[c] t_c.
        A variable that is not a standard monomial (one with a linear
        partial derivative in the ideal) is normal-formed on every call."""
        k, mu = self.arity, self.milnor
        lefts: list[list[CycNum]] = [[] for _ in range(mu)]
        rights: list[list[CycNum]] = [[] for _ in range(mu)]
        for c, a in enumerate(coeffs):
            if a:
                for i, b in self._class_of(tuple(int(j == c) for j in range(k))):
                    lefts[i].append(a)
                    rights[i].append(b)
        zero = CycNum.zero(self.conductor)
        return tuple(CycNum.dot(l, r) if l else zero for l, r in zip(lefts, rights))

    def degree_slices(self) -> list[range]:
        """Index ranges of the basis grouped by weighted degree."""
        slices = []
        start = 0
        for dim in self.graded_dims:
            slices.append(range(start, start + dim))
            start += dim
        return slices


def hilbert_dims(w: WeightSystem) -> tuple[int, ...]:
    """Graded dimensions of Jac(f) for any quasihomogeneous isolated f with
    weights w, by the Koszul resolution of its partials: the coefficients of
    prod_i (1 - s^(d - w_i)) / (1 - s^w_i) in degrees 0..sum_i (d - 2 w_i)."""
    d = w.total
    top = sum(d - 2 * wi for wi in w.weights)
    series = [1] + [0] * top
    for wi in w.weights:
        for k in range(top, d - wi - 1, -1):  # times 1 - s^(d - w_i)
            series[k] -= series[k - d + wi]
        for k in range(wi, top + 1):  # divided by 1 - s^w_i, as a power series
            series[k] += series[k - wi]
    return tuple(series)


_ALGEBRA_CACHE: dict = {}


def jacobian_algebra(f: Poly, w: WeightSystem) -> JacobianAlgebra:
    """Basis, graded dimensions and Milnor number of Jac(f).

    The graded dimensions are `hilbert_dims(w)`, and the weighted degrees
    of the standard monomials, sorted, are checked against them.  Results
    are memoized per polynomial (construction is pure).
    """
    key = (f.cache_key(), w.weights, w.total)
    cached = _ALGEBRA_CACHE.get(key)
    if cached is not None:
        return cached
    if f.arity:
        if not is_quasihomogeneous(f, w):
            raise ValueError("polynomial is not quasihomogeneous for the given weights")
        partials = [partial_derivative(f, i) for i in range(f.arity)]
        if any(p.is_zero() for p in partials):
            raise NonIsolatedSingularityError("a partial derivative vanishes identically")
        gb = buchberger(partials)
        basis = sorted(quotient_basis(gb), key=lambda m: (w.weighted_degree(m), grevlex_key(m)))
    else:
        gb, basis = None, [()]
    algebra = JacobianAlgebra(f, w, gb, basis, hilbert_dims(w))
    found = tuple(map(w.weighted_degree, algebra.basis))
    if algebra.degrees != found:
        raise NonIsolatedSingularityError(
            f"standard monomial degrees {found} do not fit graded dimensions {algebra.graded_dims}"
        )
    _ALGEBRA_CACHE[key] = algebra
    return algebra
