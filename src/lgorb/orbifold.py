"""Orbifold state-space sectors and their invariants.

For a quasihomogeneous isolated singularity f and a finite symmetry group
G, the total space is the sum over g in G of Jac(f^g) xi_g, where f^g is
the restriction of f to Fix(g) and xi_g spans the top exterior power of
C^N/Fix(g).  A centralizing h acts on the g-th sector by

    h . [p] xi_g = rho(h, g) [p((h|Fix(g))^-1 t)] xi_g,
    rho(h, g) = det(h) / det(h|Fix(g)) = det(h) det(h^-1|Fix(g)),

and the invariant state space decomposes over conjugacy class
representatives g as the Z(g)-invariants of the g-th sector.  Sector
coordinates are the deterministic reduced-row-echelon kernel basis of
g - id, so all reports are reproducible; invariant dimensions do not
depend on that choice.

The invariant dimension of every weighted-degree block comes from
characters (`lgorb.molien`) over the fixed locus and its weights alone:
`compute_dims` builds no Jacobian algebra, action or kernel, and a
sector builds its algebra on first use, so `compute_hh` builds one only
for a class with invariants.  A basis is computed only where a block is
neither empty nor full: in the identity sector, where the invariants
form a subalgebra, from products of lower-degree invariants, stopping at
the predicted rank; otherwise, or when the products fall short, as a
kernel of the block's action, whose dimension must equal the prediction.
The kernel, too, stops eliminating at the rank the prediction implies and
checks the remaining rows by dot products against the basis it has,
resuming the elimination at the first row that fails, so a wrong
prediction still meets the true dimension.
Every basis is in the convention of `linalg.kernel_basis_with_free`,
which depends on the subspace alone, so the route leaves no trace in the
report.  The products route is a second path beside the kernel, kept
because the benchmark justifies it: the `products` and `conjugate_sweep`
workloads run measurably slower with kernels alone.

In that convention each basis vector has a 1 at its last nonzero
coordinate, where every other basis vector is 0.  So
`identity_sector_products` needs no elimination either: a product's
coordinates over the invariant basis are its entries at those positions,
and every other entry is checked against them with one dot product.

The action needs no division: h^-1 also commutes with g, so
(h|Fix(g))^-1 = h^-1|Fix(g) is read off the group's own inverse.  The
images of the standard monomials are coordinate vectors built in basis
order, and only up to the highest degree block needed: each is the image
of a monomial one degree lower times the class of one substituted linear
form, multiplied through the sector algebra's product table
(`JacobianAlgebra.multiply`); a fixed-locus column that is a unit vector
is read as one entry of h, not multiplied (`molien.restriction_matrix`).
Invariant products in the identity sector go through the same table.
Once an algebra's table holds the entries a computation needs, nothing is
multiplied as a polynomial, and nothing is normal-formed unless a
substituted variable is not a standard monomial.

Element-level results are memoized once per process, like the Jacobian
algebras of `lgorb.jacobian`: `_build_sector` by (f, g, weights) and the
symmetry check `_preserves` by (f, g), all compared by value,
with `functools.lru_cache`.  Every catalog group is a subgroup of the
order-336 group, so class representatives and generators recur across
groups.  Exceptions are never cached (a failing check raises again), and
the memos grow with the number of distinct elements a process meets.
A group whose generators pass the symmetry check is recorded for its
polynomial in a `weakref.WeakSet`, held only while its callers keep it; a
later generator that is an element of such a group preserves the same
polynomial and is not substituted.  Determinants are still checked first,
and a failing group is never recorded.
Per-class actions (`_DegreeAction`) are not memoized: their monomial
images are the largest per-element data.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from lgorb import linalg
from lgorb.errors import (
    CharacterError,
    GradingError,
    InadmissibleGroupError,
    NotASymmetryError,
    ShapeError,
)
from lgorb.exactnum import CycNum
from lgorb.jacobian import JacobianAlgebra, hilbert_dims, jacobian_algebra
from lgorb.matgroup import FiniteMatrixGroup, GMatrix, fixed_space
from lgorb.molien import invariant_degree_dims, restriction_matrix
from lgorb.polyring import (
    Poly,
    WeightSystem,
    restrict_to_subspace,
    substitute_linear,
)

Matrix = tuple[tuple[CycNum, ...], ...]


@dataclass(frozen=True)
class Sector:
    """Fix(g) and its weights for one summand Jac(f^g) xi_g; its algebra is built on first use."""

    f: Poly
    g: GMatrix
    fix_basis: tuple[tuple[CycNum, ...], ...]
    free_rows: tuple[int, ...]
    weights: WeightSystem

    @property
    def fix_dim(self) -> int:
        return len(self.fix_basis)

    @cached_property
    def algebra(self) -> JacobianAlgebra:
        return jacobian_algebra(restrict_to_subspace(self.f, self.fix_basis), self.weights)


def build_sector(f: Poly, g: GMatrix, weights: WeightSystem) -> Sector:
    """Fixed locus and sector weights for one element; raises
    NotASymmetryError unless g preserves f."""
    _preserves(f, g)
    return _build_sector(f, g, weights)


@lru_cache(maxsize=None)
def _build_sector(f: Poly, g: GMatrix, weights: WeightSystem) -> Sector:
    """`build_sector` for a g already known to preserve f.

    Sector coordinate c is the fix-basis column with its identity entry at
    row free_rows[c], so it carries that row's weight; a column mixing rows
    of different weights admits no such grading (GradingError).  A point
    (no fixed column) gets the empty weight system.

    Memoized per process by (f, g, weights), all compared by value: a
    sector is a pure function of them, so a class representative met again
    (in another group, or the same group built anew) reuses its sector.
    Exceptions are not cached, and memory grows with the number of
    distinct triples seen."""
    basis, free_rows = fixed_space(g)
    ws = weights.weights
    if len(ws) != f.arity:
        raise ShapeError(f"need {f.arity} weights, got {len(ws)}")
    for col, r in zip(basis, free_rows):
        if any(v and ws[i] != ws[r] for i, v in enumerate(col)):
            raise GradingError("the fixed locus is not spanned by weight-homogeneous vectors")
    return Sector(f, g, basis, free_rows, WeightSystem([ws[r] for r in free_rows], weights.total))


def sector_action(h: GMatrix, sector: Sector) -> Matrix:
    """Matrix of the action of a centralizing h on Jac(f^g) xi_g, over the
    standard monomial basis of the sector algebra: the degree blocks of
    `_DegreeAction`, placed on the diagonal."""
    if h * sector.g != sector.g * h:
        raise ValueError("sector_action is only defined for centralizing elements")
    action = _DegreeAction(h, h.inverse(), sector)
    mu = sector.algebra.milnor
    zero = CycNum.zero(sector.algebra.conductor)
    rows = [[zero] * mu for _ in range(mu)]
    for b, rng in enumerate(action.slices):
        for i, row in zip(rng, action.block(b)):
            rows[i][rng.start : rng.stop] = row
    return tuple(map(tuple, rows))


class _DegreeAction:
    """The action of a centralizing h (with inverse hinv) on a sector, one
    weighted-degree block at a time; images are built only up to the
    highest block asked for.

    hinv commutes with g too, so it preserves Fix(g), and because the fix
    basis has an identity block at `free_rows`, (h|Fix(g))^-1 = hinv|Fix(g)
    is a plain row selection; rho(h, g) = det(h) det(hinv|Fix(g)).
    Standard monomials form an order ideal and the basis is sorted by
    degree, so for m != 1 with first variable x_i, m / x_i is an earlier
    basis monomial; image(m) = image(m / x_i) * [L_i], where [L_i] is the
    class of L_i = sum_c ainv[i][c] t_c, multiplies the coordinates of an
    image of one degree lower by one class through the algebra's product
    table."""

    def __init__(self, h: GMatrix, hinv: GMatrix, sector: Sector):
        algebra = self.algebra = sector.algebra
        self.slices = algebra.degree_slices()
        ainv = restriction_matrix(hinv, sector)
        self.scale = h.det * linalg.det(ainv)
        self.lin = [algebra.linear_class(row) for row in ainv]
        zero = CycNum.zero(algebra.conductor)
        unit = (CycNum.one(algebra.conductor),) + (zero,) * (algebra.milnor - 1)
        self.images = [unit]  # coordinates of the images of algebra.basis[: len(images)]

    def block(self, b: int) -> Matrix:
        """The action on the degree-b block of the basis; GradingError if an
        image leaves it."""
        algebra, rng, images = self.algebra, self.slices[b], self.images
        for mon in algebra.basis[len(images) : rng.stop]:
            i = next(j for j, e in enumerate(mon) if e)
            lower = mon[:i] + (mon[i] - 1,) + mon[i + 1 :]
            images.append(algebra.multiply(images[algebra.basis_index[lower]], self.lin[i]))
        columns = []
        for img in images[rng.start : rng.stop]:
            if any(img[: rng.start]) or any(img[rng.stop :]):
                raise GradingError("sector action does not preserve the grading")
            columns.append(img[rng.start : rng.stop])
        if self.scale == -CycNum.one(algebra.conductor):
            columns = [[-v for v in col] for col in columns]
        elif not self.scale.is_one():
            columns = [[v * self.scale for v in col] for col in columns]
        return tuple(zip(*columns))


def invariant_subspace(
    actions: Sequence[Matrix], dim: int
) -> tuple[int, tuple[tuple[CycNum, ...], ...]]:
    """Dimension and basis of the common fixed subspace of the given action
    matrices, where `dim` is the dimension the caller predicts.

    The matrices are read as generators of a finite group action; the joint
    kernel of (M - id) equals the image of the group-averaging (Reynolds)
    operator of the generated group, so this is that image, computed
    without enumerating the group.

    The stacked rows of every M - id are inserted (`linalg._insert`) until
    their rank reaches size - dim.  The kernel of those rows is then the
    prediction, and each remaining row is checked by dot products to
    annihilate it; a row that does not is inserted, with every row after
    it.  Either way the rows inserted span all the rows, and the basis, in
    the convention of `linalg.kernel_basis_with_free`, depends on that span
    alone: the result is the full elimination's for every `dim`.
    """
    if not actions:
        raise ValueError("need at least one action matrix")
    size = len(actions[0])
    conductor = actions[0][0][0].conductor if size else 1
    one = CycNum.one(conductor)
    stacked: list[list[CycNum]] = []
    for m in actions:
        if len(m) != size or any(len(row) != size for row in m):
            raise ValueError("action matrices must be square and equal-sized")
        for i in range(size):
            row = list(m[i])
            row[i] = row[i] - one
            stacked.append(row)
    zero = CycNum.zero(conductor)
    reduced: dict[int, list[CycNum]] = {}
    k = 0
    while k < len(stacked) and len(reduced) != size - dim:
        linalg._insert(reduced, stacked[k], size)
        k += 1
    basis, _ = linalg._kernel_of(reduced, size, conductor)
    supports = [[(i, c) for i, c in enumerate(v) if c] for v in basis]
    for j in range(k, len(stacked)):
        row = stacked[j]
        if any(_sparse_dot([(row[i], c) for i, c in s if row[i]], zero) for s in supports):
            for row in stacked[j:]:
                linalg._insert(reduced, row, size)
            basis, _ = linalg._kernel_of(reduced, size, conductor)
            break
    return len(basis), tuple(basis)


def _sparse_dot(terms: list[tuple[CycNum, CycNum]], zero: CycNum) -> CycNum:
    """sum(a * b for a, b in terms) as one fused `CycNum.dot`; `zero` when
    there are no terms."""
    return CycNum.dot(*zip(*terms)) if terms else zero


@dataclass(frozen=True)
class SectorReport:
    """Invariant data of one conjugacy class."""

    rep_index: int
    rep_word: Optional[str]
    rep_matrix: GMatrix
    class_size: int
    centralizer_order: int
    fix_dim: int
    sector_dim_raw: int
    invariant_dim: int
    degree_dims: tuple[int, ...]
    invariant_basis: tuple[Poly, ...]

    def to_dict(self) -> dict:
        return {
            "rep_index": self.rep_index,
            "rep_word": self.rep_word,
            "rep_matrix": self.rep_matrix.to_lists(),
            "class_size": self.class_size,
            "centralizer_order": self.centralizer_order,
            "fix_dim": self.fix_dim,
            "sector_dim_raw": self.sector_dim_raw,
            "invariant_dim": self.invariant_dim,
            "degree_dims": list(self.degree_dims),
            "invariant_basis": [p.to_list() for p in self.invariant_basis],
        }


@dataclass(frozen=True)
class HHReport:
    """Assembled invariant dimensions for one group."""

    group: dict
    sectors: tuple[SectorReport, ...]
    identity_dimension_vector: tuple[int, ...]
    total_dim: int

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "classes": [s.to_dict() for s in self.sectors],
            "identity_dimension_vector": list(self.identity_dimension_vector),
            "total_dim": self.total_dim,
        }


def _class_poly(algebra: JacobianAlgebra, vector) -> Poly:
    """The polynomial of standard monomials with the given coordinates."""
    terms = {algebra.basis[i]: c for i, c in enumerate(vector) if c}
    return Poly(algebra.arity, terms, algebra.conductor)


def _class_invariants(
    group: FiniteMatrixGroup,
    sector: Sector,
    zgens: Sequence[int],
    dims: tuple[int, ...],
) -> list[tuple[CycNum, ...]]:
    """The invariant basis of a class's sector, whose invariant dimension
    per degree is `dims`, as coordinates over the sector algebra's basis,
    where `zgens` are the indices of generators of the centralizer; a
    class with no invariants builds no algebra.

    Each degree block's basis is empty, the whole block, a span of
    products of invariants (identity sector) or a kernel of the block's
    action, in that order of preference, and always in the convention of
    `linalg.kernel_basis_with_free`."""
    if not any(dims):
        return []
    algebra = sector.algebra
    actions: list[_DegreeAction] = []  # built when a first block needs a kernel
    zero, one = CycNum.zero(algebra.conductor), CycNum.one(algebra.conductor)
    by_degree: list[list[tuple[CycNum, ...]]] = []
    for b, (rng, dim) in enumerate(zip(algebra.degree_slices(), dims)):
        if dim == len(rng):
            vecs = [tuple(one if k == i else zero for k in range(dim)) for i in range(dim)]
        elif dim == 0:
            vecs = []
        else:
            products = _products(algebra, by_degree, b, rng) if sector.g.is_identity() else ()
            vecs = linalg.kernel_form_basis(products, dim)
            if len(vecs) < dim:
                inverse = group.inverse_index()
                actions = actions or [
                    _DegreeAction(group.elements[i], group.elements[inverse[i]], sector)
                    for i in zgens
                ]
                found, vecs = invariant_subspace([a.block(b) for a in actions], dim)
                if found != dim:
                    raise CharacterError(
                        f"degree {b}: the invariant kernel has dimension {found}, "
                        f"the character average {dim}"
                    )
        before, after = (zero,) * rng.start, (zero,) * (algebra.milnor - rng.stop)
        by_degree.append([before + tuple(v) + after for v in vecs])
    return [v for vecs in by_degree for v in vecs]


def _products(algebra: JacobianAlgebra, by_degree: list[list[tuple]], b: int, rng: range):
    """Coordinates in the degree-b block `rng` of the products of two
    invariants of positive degree whose degrees add up to b.  In the
    identity sector rho is 1, so invariants form a subalgebra and every
    product is invariant."""
    for i in range(1, b // 2 + 1):
        highs = by_degree[b - i]
        for p, low in enumerate(by_degree[i]):
            for high in highs[p:] if 2 * i == b else highs:
                yield algebra.multiply(low, high)[rng.start : rng.stop]


@lru_cache(maxsize=None)
def _preserves(f: Poly, g: GMatrix) -> bool:
    """True if g preserves f; raises NotASymmetryError otherwise.

    Memoized per process by (f, g) compared by value.  Only the True of a
    passing pair is stored: a failing pair raises, and exceptions are not
    cached, so it is checked again every time.  Memory grows with the
    number of distinct pairs seen."""
    if substitute_linear(f, g.rows) != f:
        raise NotASymmetryError("a generator does not preserve the polynomial")
    return True


# Per polynomial, the live groups whose generators passed `_check_group`,
# held weakly: every element of such a group preserves f.
_VALIDATED: dict[Poly, "weakref.WeakSet[FiniteMatrixGroup]"] = {}


def check_generators(f: Poly, generators: Sequence[GMatrix], names: Sequence[str]):
    """The admissibility rule, which suffices for the group generated: every
    determinant is +/-1 (else InadmissibleGroupError naming the generator by
    `names`), then every generator preserves f (NotASymmetryError, from the
    memoized `_preserves`).  det is a homomorphism and {1, -1} a subgroup.
    A generator that is an element of a live group validated for f is
    known to preserve f and is not substituted."""
    for g, name in zip(generators, names):
        d, one = g.det, CycNum.one(g.conductor)
        if d != one and d != -one:
            raise InadmissibleGroupError(f"generator {name} has determinant {d}, not +/-1")
    validated = _VALIDATED.get(f, ())
    for g in generators:
        if not any(g in group.index for group in validated):
            _preserves(f, g)


def _check_group(f: Poly, group: FiniteMatrixGroup):
    """`check_generators` on the group's generators, named by word (one
    tree path each, `word_for`), else `#index`; a group that passes is
    recorded as validated for f."""
    names = [group.word_for(i) or f"#{i}" for i in group.generator_indices]
    check_generators(f, group.generators, names)
    _VALIDATED.setdefault(f, weakref.WeakSet()).add(group)


def _class_data(f: Poly, group: FiniteMatrixGroup, weights: WeightSystem) -> list[tuple]:
    """Per conjugacy class, in `conjugacy()` order: (rep, members,
    centralizer, sector, centralizer generators, invariant dimension per
    weighted degree), each looked up once."""
    _check_group(f, group)
    conj = group.conjugacy()
    data = []
    for rep, members in conj.classes:
        centralizer = conj.centralizers[rep]
        sector = _build_sector(f, group.elements[rep], weights)
        zgens = group.subgroup_generator_indices(centralizer)
        dims = invariant_degree_dims(group, sector, centralizer, zgens)
        data.append((rep, members, centralizer, sector, zgens, dims))
    return data


def compute_dims(f: Poly, group: FiniteMatrixGroup, weights: WeightSystem) -> list[tuple]:
    """Invariant dimension per weighted degree of each conjugacy class, in
    `conjugacy()` order, so the identity class comes first: characters
    over the fixed locus and its weights, with no Jacobian algebra."""
    return [dims for *_, dims in _class_data(f, group, weights)]


def compute_hh(f: Poly, group: FiniteMatrixGroup, weights: WeightSystem) -> HHReport:
    """Invariant dimensions of the orbifold state space of (f, group).

    One report per conjugacy class: the Z(g)-invariants of Jac(f^g) xi_g.
    """
    classes = _class_data(f, group, weights)
    reports = []
    for rep, members, centralizer, sector, zgens, class_dims in classes:
        vectors = _class_invariants(group, sector, zgens, class_dims)
        reports.append(
            SectorReport(
                rep_index=rep,
                rep_word=group.word_for(rep),
                rep_matrix=sector.g,
                class_size=len(members),
                centralizer_order=len(centralizer),
                fix_dim=sector.fix_dim,
                sector_dim_raw=sum(hilbert_dims(sector.weights)),
                invariant_dim=sum(class_dims),
                degree_dims=class_dims,
                invariant_basis=tuple(_class_poly(sector.algebra, v) for v in vectors),
            )
        )
    group_info = {
        "order": group.order,
        "dimension": group.n,
        "conductor": group.conductor,
        "generator_words": [group.word_for(i) for i in group.generator_indices]
        if group.generator_words is not None
        else None,
    }
    return HHReport(
        group=group_info,
        sectors=tuple(reports),
        identity_dimension_vector=classes[0][-1],
        total_dim=sum(sum(class_dims) for *_, class_dims in classes),
    )


@dataclass(frozen=True)
class ProductTable:
    """Multiplication table of the identity-sector invariant basis."""

    basis: tuple[Poly, ...]
    products: dict

    def product(self, i: int, j: int) -> tuple[CycNum, ...]:
        return self.products[(min(i, j), max(i, j))]


def identity_sector_products(
    f: Poly, group: FiniteMatrixGroup, weights: WeightSystem
) -> ProductTable:
    """Products of identity-sector invariant classes, re-expressed over the
    invariant basis.

    Every pair product b_i b_j (i <= j) is written as a vector over the
    Jacobian algebra's monomial basis by the algebra's product table
    (`JacobianAlgebra.multiply`), and its coordinates over the invariant
    basis are read off, with no elimination.  The basis is in the
    convention of `linalg.kernel_basis_with_free`: each vector has a 1 at
    its last nonzero coordinate, where every other basis vector is 0, so a
    product in the invariant span has its k-th coordinate at the k-th
    vector's last nonzero position.  Every other coordinate of the product
    is checked against the combination read, one `CycNum.dot` each; a
    product outside the invariant span raises ValueError.  A pair whose
    lowest weighted degrees add up to more than the algebra's top degree
    has zero coordinates, with no product: the Jacobian ideal is
    weighted-homogeneous, so normal forms keep degree, and no standard
    monomial lies above the top degree.
    """
    _check_group(f, group)
    sector, everything = _build_sector(f, group.elements[0], weights), range(group.order)
    dims = invariant_degree_dims(group, sector, everything, group.generator_indices)
    vectors = _class_invariants(group, sector, group.generator_indices, dims)
    algebra = sector.algebra
    basis = tuple(_class_poly(algebra, v) for v in vectors)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i, len(basis))]
    # the basis is sorted by degree, so a class's first nonzero coordinate has its lowest degree
    low = [next((algebra.degrees[k] for k, c in enumerate(v) if c), 0) for v in vectors]
    top = algebra.top_degree()
    lead = [max(k for k, c in enumerate(v) if c) for v in vectors]
    # per other coordinate, the basis vectors nonzero there, as (basis index, value)
    others = [
        (k, [(m, v[k]) for m, v in enumerate(vectors) if v[k]])
        for k in sorted(set(range(algebra.milnor)) - set(lead))
    ]
    zero = CycNum.zero(algebra.conductor)
    products = {}
    for i, j in pairs:
        if low[i] + low[j] > top:
            products[i, j] = (zero,) * len(basis)
            continue
        product = algebra.multiply(vectors[i], vectors[j])
        coeffs = tuple(product[k] for k in lead)
        for k, column in others:
            if product[k] != _sparse_dot([(coeffs[m], c) for m, c in column if coeffs[m]], zero):
                raise ValueError("product left the invariant subspace")
        products[i, j] = coeffs
    return ProductTable(basis=basis, products=products)
