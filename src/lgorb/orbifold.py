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

The action needs no division: h^-1 also commutes with g, so
(h|Fix(g))^-1 = h^-1|Fix(g) is read off the group's own inverse.  The
images of the standard monomials are built in basis order, each from the
reduced image of a monomial one degree lower times one substituted linear
form, so every product that gets reduced is already small.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from lgorb import linalg
from lgorb.errors import GradingError, InadmissibleGroupError, NotASymmetryError, ShapeError
from lgorb.exactnum import CycNum
from lgorb.jacobian import JacobianAlgebra, jacobian_algebra, normal_form
from lgorb.matgroup import FiniteMatrixGroup, GMatrix, fixed_space
from lgorb.polyring import Poly, WeightSystem, restrict_to_subspace, substitute_linear

Matrix = tuple[tuple[CycNum, ...], ...]


def surface_cohomology_dim(genus: int) -> int:
    """Total cohomology dimension 2 + 2g of a genus-g surface."""
    if genus < 0:
        raise ValueError("genus must be non-negative")
    return 2 + 2 * genus


@dataclass(frozen=True)
class Sector:
    """One summand Jac(f^g) xi_g in sector coordinates."""

    g: GMatrix
    fix_basis: tuple[tuple[CycNum, ...], ...]
    restricted: Poly
    algebra: JacobianAlgebra
    free_rows: tuple[int, ...]

    @property
    def fix_dim(self) -> int:
        return len(self.fix_basis)

    @property
    def dim_raw(self) -> int:
        return self.algebra.milnor


def build_sector(f: Poly, g: GMatrix, weights: Optional[WeightSystem] = None) -> Sector:
    """Fixed locus, restriction and Jacobian algebra data for one element;
    raises NotASymmetryError unless g preserves f."""
    if substitute_linear(f, g.rows) != f:
        raise NotASymmetryError("matrix does not preserve the polynomial")
    return _build_sector(f, g, weights)


def _build_sector(f: Poly, g: GMatrix, weights: Optional[WeightSystem]) -> Sector:
    """`build_sector` for a g already known to preserve f.

    Sector coordinate c is the fix-basis column with its identity entry at
    row free_rows[c], so it carries that row's weight; a column mixing rows
    of different weights admits no such grading (GradingError)."""
    basis, free_rows = fixed_space(g)
    restricted = restrict_to_subspace(f, basis)
    if basis:
        if weights is None:
            weights = WeightSystem([1] * f.arity, f.total_degree())
        ws = weights.weights
        if len(ws) != f.arity:
            raise ShapeError(f"need {f.arity} weights, got {len(ws)}")
        for col, r in zip(basis, free_rows):
            if any(v and ws[i] != ws[r] for i, v in enumerate(col)):
                raise GradingError("the fixed locus is not spanned by weight-homogeneous vectors")
        restricted_weights = WeightSystem([ws[r] for r in free_rows], weights.total)
        algebra = jacobian_algebra(restricted, restricted_weights)
    else:
        algebra = jacobian_algebra(restricted, None)
    return Sector(g, basis, restricted, algebra, free_rows)


def restriction_matrix(h: GMatrix, sector: Sector) -> Matrix:
    """h restricted to Fix(g), written in the sector coordinates."""
    columns = [h.apply(col) for col in sector.fix_basis]
    return tuple(
        tuple(col[r] for col in columns) for r in sector.free_rows
    )


def rho(h: GMatrix, g: GMatrix) -> CycNum:
    """The scalar det(h)/det(h|Fix(g)) by which a centralizing h scales xi_g."""
    if h * g != g * h:
        raise ValueError("rho is only defined for centralizing pairs")
    basis, free_rows = fixed_space(g)
    if not basis:
        return h.det
    columns = [h.apply(col) for col in basis]
    restricted = [[col[r] for col in columns] for r in free_rows]
    return h.det / linalg.det(restricted)


def sector_action(h: GMatrix, sector: Sector) -> Matrix:
    """Matrix of the action of a centralizing h on Jac(f^g) xi_g, over the
    standard monomial basis of the sector algebra."""
    if h * sector.g != sector.g * h:
        raise ValueError("sector_action is only defined for centralizing elements")
    return _sector_action(h, h.inverse(), sector)


def _sector_action(h: GMatrix, hinv: GMatrix, sector: Sector) -> Matrix:
    """`sector_action` for an h already known to commute with sector.g,
    given its inverse hinv.

    hinv commutes with g too, so it preserves Fix(g), and because the fix
    basis has an identity block at `free_rows`, (h|Fix(g))^-1 = hinv|Fix(g)
    is a plain row selection; rho(h, g) = det(h) det(hinv|Fix(g))."""
    if sector.fix_dim == 0:
        return ((h.det,),)
    ainv = restriction_matrix(hinv, sector)
    scale = h.det * linalg.det(ainv)
    algebra = sector.algebra
    mu = algebra.milnor
    zero = CycNum.zero(algebra.conductor)
    columns = []
    for img in _monomial_images(algebra, ainv):
        col = [zero] * mu
        for mon, coeff in img.terms.items():
            col[algebra.basis_index[mon]] = coeff
        columns.append(col)
    if scale == -CycNum.one(scale.conductor):
        columns = [[-v for v in col] for col in columns]
    elif not scale.is_one():
        columns = [[v * scale for v in col] for col in columns]
    return tuple(tuple(columns[j][i] for j in range(mu)) for i in range(mu))


def _monomial_images(algebra: JacobianAlgebra, ainv: Matrix) -> list[Poly]:
    """Reduced images of the basis monomials under t -> ainv t, in basis
    order.

    Standard monomials form an order ideal and the basis is sorted by
    degree, so for m != 1 with first variable x_i, m / x_i is an earlier
    basis monomial; image(m) = normal_form(image(m / x_i) * L_i), where
    L_i = sum_c ainv[i][c] t_c, multiplies an already reduced image of one
    degree lower by one linear form."""
    k = algebra.arity
    conductor = algebra.conductor
    lin = [
        Poly(
            k,
            {
                tuple(1 if j == c else 0 for j in range(k)): coeff
                for c, coeff in enumerate(ainv[i])
                if coeff
            },
            conductor,
        )
        for i in range(k)
    ]
    images: dict = {}
    for mon in algebra.basis:
        i = next((j for j, e in enumerate(mon) if e), None)
        if i is None:
            images[mon] = Poly.constant(1, k, conductor)
        else:
            lower = mon[:i] + (mon[i] - 1,) + mon[i + 1 :]
            images[mon] = normal_form(images[lower] * lin[i], algebra.gb)
    return list(images.values())


def invariant_subspace(actions: Sequence[Matrix]) -> tuple[int, tuple[tuple[CycNum, ...], ...]]:
    """Dimension and basis of the common fixed subspace of the given action
    matrices.

    The matrices are read as generators of a finite group action; the joint
    kernel of (M - id) equals the image of the group-averaging (Reynolds)
    operator of the generated group, so this is that image, computed
    without enumerating the group.
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
    if not stacked:
        return 0, ()
    basis = linalg.kernel_basis(stacked, conductor)
    return len(basis), tuple(basis)


def reynolds_image(actions: Sequence[Matrix]) -> tuple[int, tuple[tuple[CycNum, ...], ...]]:
    """Image of the averaging operator (1/|H|) sum of the given matrices.

    The caller must pass the action of every element of the group; this is
    the dual route to `invariant_subspace` and is used to cross-check it.
    """
    if not actions:
        raise ValueError("need at least one action matrix")
    size = len(actions[0])
    conductor = actions[0][0][0].conductor if size else 1
    weight = CycNum.from_rational(Fraction(1, len(actions)), conductor)
    avg = [
        [
            sum((m[i][j] for m in actions[1:]), actions[0][i][j]) * weight
            for j in range(size)
        ]
        for i in range(size)
    ]
    columns = [tuple(avg[i][j] for i in range(size)) for j in range(size)]
    basis = linalg.column_space_basis(columns)
    return len(basis), tuple(basis)


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

    @classmethod
    def from_dict(cls, data: dict) -> "SectorReport":
        return cls(
            rep_index=data["rep_index"],
            rep_word=data["rep_word"],
            rep_matrix=GMatrix.from_lists(data["rep_matrix"]),
            class_size=data["class_size"],
            centralizer_order=data["centralizer_order"],
            fix_dim=data["fix_dim"],
            sector_dim_raw=data["sector_dim_raw"],
            invariant_dim=data["invariant_dim"],
            degree_dims=tuple(data["degree_dims"]),
            invariant_basis=tuple(
                Poly.from_list(data["fix_dim"], item) for item in data["invariant_basis"]
            ),
        )


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

    @classmethod
    def from_dict(cls, data: dict) -> "HHReport":
        return cls(
            group=data["group"],
            sectors=tuple(SectorReport.from_dict(s) for s in data["classes"]),
            identity_dimension_vector=tuple(data["identity_dimension_vector"]),
            total_dim=data["total_dim"],
        )


def _degree_blocks(matrix: Matrix, slices: Sequence[range]) -> list[Matrix]:
    """Split a degree-preserving action matrix into its graded blocks.

    The off-block entries must vanish (the ideal is homogeneous and linear
    substitution preserves degree); this is checked rather than assumed.
    """
    block_of = {}
    for b, rng in enumerate(slices):
        for i in rng:
            block_of[i] = b
    for i in range(len(matrix)):
        for j in range(len(matrix)):
            if block_of[i] != block_of[j] and matrix[i][j]:
                raise GradingError("sector action does not preserve the grading")
    return [tuple(tuple(matrix[i][j] for j in rng) for i in rng) for rng in slices]


def _class_report(
    f: Poly,
    group: FiniteMatrixGroup,
    rep: int,
    members,
    centralizer: Sequence[int],
    weights: Optional[WeightSystem],
) -> SectorReport:
    g = group.elements[rep]
    sector = _build_sector(f, g, weights)
    algebra = sector.algebra
    zgens = [i for i in group.subgroup_generator_indices(centralizer) if i != 0]
    slices = algebra.degree_slices()
    if not zgens:
        dims = list(algebra.graded_dims)
        zero = CycNum.zero(algebra.conductor)
        one = CycNum.one(algebra.conductor)
        basis_vectors = [
            tuple(one if k == i else zero for k in range(algebra.milnor))
            for i in range(algebra.milnor)
        ]
    else:
        inverse = group.inverse_index()
        actions = [
            _sector_action(group.elements[i], group.elements[inverse[i]], sector)
            for i in zgens
        ]
        per_block = [_degree_blocks(m, slices) for m in actions]
        dims = []
        basis_vectors = []
        zero = CycNum.zero(algebra.conductor)
        for b, rng in enumerate(slices):
            if len(rng) == 0:
                dims.append(0)
                continue
            dim, vecs = invariant_subspace([blocks[b] for blocks in per_block])
            dims.append(dim)
            for v in vecs:
                full = [zero] * algebra.milnor
                for offset, value in zip(rng, v):
                    full[offset] = value
                basis_vectors.append(tuple(full))
    invariant_dim = sum(dims)
    basis_polys = tuple(algebra.poly_from_vector(v) for v in basis_vectors)
    return SectorReport(
        rep_index=rep,
        rep_word=group.word_for(rep),
        rep_matrix=g,
        class_size=len(members),
        centralizer_order=len(centralizer),
        fix_dim=sector.fix_dim,
        sector_dim_raw=algebra.milnor,
        invariant_dim=invariant_dim,
        degree_dims=tuple(dims),
        invariant_basis=basis_polys,
    )


def _validate_group(f: Poly, group: FiniteMatrixGroup):
    """Generator checks suffice: det is a homomorphism, {1, -1} a subgroup,
    and the generators generate the group (FiniteMatrixGroup enforces it)."""
    one = CycNum.one(group.conductor)
    for i in group.generator_indices:
        d = group.elements[i].det
        if d != one and d != -one:
            name = group.word_for(i) or f"#{i}"
            raise InadmissibleGroupError(
                f"generator {name} has determinant {d}, not +/-1"
            )
    for g in group.generators:
        if substitute_linear(f, g.rows) != f:
            raise NotASymmetryError("a generator does not preserve the polynomial")


def compute_hh(
    f: Poly,
    group: FiniteMatrixGroup,
    weights: Optional[WeightSystem] = None,
) -> HHReport:
    """Invariant dimensions of the orbifold state space of (f, group).

    One report per conjugacy class: the Z(g)-invariants of Jac(f^g) xi_g.
    """
    _validate_group(f, group)
    if weights is None:
        weights = WeightSystem([1] * f.arity, f.total_degree())
    conj = group.conjugacy()
    reports = [
        _class_report(f, group, rep, members, conj.centralizers[rep], weights)
        for rep, members in conj.classes
    ]
    identity_report = next(r for r in reports if r.rep_index == 0)
    top = sum(weights.total - 2 * w for w in weights.weights)
    idvec = list(identity_report.degree_dims)
    idvec += [0] * (top + 1 - len(idvec))
    group_info = {
        "order": group.order,
        "dimension": group.n,
        "conductor": group.conductor,
        "generator_words": [group.word_for(i) for i in group.generator_indices]
        if group.words is not None
        else None,
    }
    return HHReport(
        group=group_info,
        sectors=tuple(reports),
        identity_dimension_vector=tuple(idvec),
        total_dim=sum(r.invariant_dim for r in reports),
    )


@dataclass(frozen=True)
class ProductTable:
    """Multiplication table of the identity-sector invariant basis."""

    basis: tuple[Poly, ...]
    products: dict

    def product(self, i: int, j: int) -> tuple[CycNum, ...]:
        return self.products[(min(i, j), max(i, j))]


def identity_sector_products(
    f: Poly,
    group: FiniteMatrixGroup,
    weights: Optional[WeightSystem] = None,
    basis: Optional[Sequence[Poly]] = None,
) -> ProductTable:
    """Products of identity-sector invariant classes, re-expressed over the
    invariant basis.

    Every pair product b_i b_j (i <= j) is written as a vector over the
    Jacobian algebra's monomial basis, and all of them are solved against
    the invariant basis in one elimination (`linalg.solve` with one
    right-hand side per pair).  A product outside the invariant span
    raises ValueError.

    An explicit basis of invariant classes may be supplied (its classes
    must span the invariant subspace); otherwise the computed one is used.
    """
    _validate_group(f, group)
    if weights is None:
        weights = WeightSystem([1] * f.arity, f.total_degree())
    conj = group.conjugacy()
    report = _class_report(f, group, 0, conj.classes[0][1], conj.centralizers[0], weights)
    algebra = jacobian_algebra(f, weights)
    if basis is not None:
        basis = tuple(basis)
        vectors = [algebra.vector(p) for p in basis]
        if linalg.rank(list(map(list, zip(*vectors)))) != report.invariant_dim or len(
            vectors
        ) != report.invariant_dim:
            raise ValueError("supplied classes are not a basis of the invariants")
        for v in vectors:
            if not _is_invariant_vector(v, group, algebra):
                raise ValueError("a supplied class is not invariant")
    else:
        basis = report.invariant_basis
        vectors = [algebra.vector(p) for p in basis]
    matrix = [list(row) for row in zip(*vectors)]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i, len(basis))]
    rhs = [algebra.vector(basis[i] * basis[j]) for i, j in pairs]
    solutions = linalg.solve(matrix, rhs)
    if any(coeffs is None for coeffs in solutions):
        raise ValueError("product left the invariant subspace")
    return ProductTable(
        basis=basis,
        products={pair: tuple(coeffs) for pair, coeffs in zip(pairs, solutions)},
    )


def _is_invariant_vector(vec, group: FiniteMatrixGroup, algebra: JacobianAlgebra) -> bool:
    poly = algebra.poly_from_vector(vec)
    inverse = group.inverse_index()
    for i in group.generator_indices:
        moved = substitute_linear(poly, group.elements[inverse[i]].rows)
        if algebra.vector(moved) != tuple(vec):
            return False
    return True
