"""Independent oracles used to freeze expected values.

The value oracles avoid the package's Groebner/normal-form path: class
membership is decided by dense linear algebra on graded slices over
Fractions/CycNum, products of roots of unity are expanded by exponent
arithmetic, and determinants are expanded by hand.  The route oracles are
the slower, more direct ways the engine used to compute a result (matrix
products instead of tables, one elimination per right-hand side, one
elimination for all products of invariants instead of coordinates read
off the basis, every stacked row of an invariant kernel eliminated, full
substitutions, substitutions by repeated multiplication, Euclid over
Fractions, a kernel for every degree block,
a dense convolution and reduction for every field product, row operations
on every entry, a full-conductor elimination for every field inverse, every
term of every matrix entry, rho as a quotient of determinants, element
orders by repeated products, Groebner tail reduction looped to a
fixpoint, a word concatenated for every element of a closure);
the tests check the fast routes against them entry for entry.  The totals
oracle `euler_total` counts invariants from ranks and determinants of
commuting pairs, with no character or algebra.  One helper,
`complex_approx`, evaluates a field element in floating point; the
package itself has none.  The last helpers serve tests only: the surface
cohomology bound, the residue pairing, a search for a conjugator between
two subgroups, the reader of `compute --format json` reports, and the
Galois conjugation sigma_k of field values, matrices and reports.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import gcd

from lgorb import linalg
from lgorb.exactnum import CycNum, cyclotomic_polynomial, zeta
from lgorb.jacobian import GroebnerBasis, _spoly, normal_form
from lgorb.matgroup import GMatrix, fixed_space
from lgorb.orbifold import (
    HHReport,
    SectorReport,
    _build_sector,
    restriction_matrix,
    sector_action,
)
from lgorb.polyring import (
    Poly,
    compose_linear,
    grevlex_key,
    mon_divides,
    mon_lcm,
    mon_mul,
    partial_derivative,
)


def root_product_coeffs(a: dict[int, int], b: dict[int, int], n: int) -> list[int]:
    """Coefficients of (sum a_e zeta^e)(sum b_e zeta^e) over exponents 0..n-1."""
    out = [0] * n
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[(e1 + e2) % n] += c1 * c2
    return out


def reduce_prime_conductor(coeffs: list[int], p: int) -> list[Fraction]:
    """Reduce exponent-0..p-1 coefficients to the power basis for prime p,
    using only 1 + zeta + ... + zeta^(p-1) = 0."""
    top = coeffs[p - 1]
    return [Fraction(c - top) for c in coeffs[: p - 1]]


def monomials_of_degree(arity: int, degree: int):
    if degree < 0:
        return []
    if arity == 0:
        return [()] if degree == 0 else []
    out = []
    for combo in combinations_with_replacement(range(arity), degree):
        mon = [0] * arity
        for i in combo:
            mon[i] += 1
        out.append(tuple(mon))
    return sorted(out)


def slice_reduce(p: Poly, f: Poly, degree: int, basis_monomials) -> dict:
    """Express the class of a homogeneous p over the given degree-`degree`
    monomial classes by solving a dense linear system in the graded slice.

    Columns are [m * df/dx_i for suitable m] + basis monomials; solving
    J y + B c = p gives the coefficients c.  Returns {monomial: CycNum}.
    Raises if p is not homogeneous of the stated degree or the system is
    inconsistent (basis classes do not span).
    """
    arity, conductor = f.arity, f.conductor
    if any(sum(m) != degree for m in p.terms):
        raise ValueError("polynomial is not homogeneous of the stated degree")
    slice_mons = monomials_of_degree(arity, degree)
    index = {m: i for i, m in enumerate(slice_mons)}
    zero = CycNum.zero(conductor)
    columns = []
    for i in range(arity):
        dp = partial_derivative(f, i)
        for m in monomials_of_degree(arity, degree - (max(map(sum, f.terms)) - 1)):
            col = [zero] * len(slice_mons)
            for mm, cc in dp.terms.items():
                col[index[tuple(a + b for a, b in zip(m, mm))]] = cc
            columns.append(col)
    njac = len(columns)
    for m in basis_monomials:
        col = [zero] * len(slice_mons)
        col[index[m]] = CycNum.one(conductor)
        columns.append(col)
    rhs = [zero] * len(slice_mons)
    for m, c in p.terms.items():
        rhs[index[m]] = c
    matrix = [[columns[j][i] for j in range(len(columns))] for i in range(len(slice_mons))]
    solution = linalg.solve(matrix, [rhs])[0]
    if solution is None:
        raise ValueError("class is not a combination of ideal and basis monomials")
    return {m: solution[njac + k] for k, m in enumerate(basis_monomials)}


def dense_normal_form_klein(p: Poly, f: Poly, basis_family) -> dict:
    """Class coordinates of a (possibly inhomogeneous) p over a graded basis
    family {degree: [monomials]} via per-degree slice reduction."""
    out = {}
    by_degree: dict[int, dict] = {}
    for m, c in p.terms.items():
        by_degree.setdefault(sum(m), {})[m] = c
    for degree, terms in sorted(by_degree.items()):
        homog = Poly(p.arity, terms, p.conductor)
        mons = basis_family.get(degree, [])
        coords = slice_reduce(homog, f, degree, mons)
        for m, c in coords.items():
            if c:
                out[m] = out.get(m, CycNum.zero(p.conductor)) + c
    return {m: c for m, c in out.items() if c}


def hessian(p: Poly) -> Poly:
    """det of the matrix of second partials, expanded symbolically by
    cofactors along the first row (used for arity 0-3)."""

    def det(rows):
        if not rows:
            return Poly.constant(1, p.arity, p.conductor)
        total = Poly.zero(p.arity, p.conductor)
        for j, entry in enumerate(rows[0]):
            if entry:
                minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
                cofactor = entry * det(minor)
                total = total + (cofactor if j % 2 == 0 else -cofactor)
        return total

    firsts = [partial_derivative(p, i) for i in range(p.arity)]
    return det([[partial_derivative(d, j) for j in range(p.arity)] for d in firsts])


def hessian_by_cofactors(f: Poly) -> Poly:
    """3x3 Hessian determinant expanded with the explicit cofactor formula,
    independently of the package determinant code."""
    assert f.arity == 3
    d = [partial_derivative(f, i) for i in range(3)]
    h = [[partial_derivative(d[i], j) for j in range(3)] for i in range(3)]
    return (
        h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
        - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
        + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0])
    )


def grevlex_reference(m1, m2) -> int:
    """Reference comparator: +1 if m1 > m2 in grevlex, -1 if smaller, 0 equal."""
    if m1 == m2:
        return 0
    d1, d2 = sum(m1), sum(m2)
    if d1 != d2:
        return 1 if d1 > d2 else -1
    for a, b in zip(reversed(m1), reversed(m2)):
        if a != b:
            return 1 if a - b < 0 else -1
    return 0


def matrix_inverse_index(group) -> tuple[int, ...]:
    """Index of each element's inverse, by Gauss-Jordan inversion of the
    matrices (the table-free route to FiniteMatrixGroup.inverse_index)."""
    return tuple(group.index[m.inverse()] for m in group.elements)


def matrix_conjugacy_classes(group) -> list[tuple[int, tuple[int, ...]]]:
    """Conjugacy classes as (first index, sorted members): orbits of
    conjugation by the generators, computed with matrix products."""
    gen_pairs = [(g, g.inverse()) for g in group.generators]
    seen = [False] * group.order
    classes = []
    for start in range(group.order):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for j in orbit:
            m = group.elements[j]
            for g, ginv in gen_pairs:
                k = group.index[g * m * ginv]
                if not seen[k]:
                    seen[k] = True
                    orbit.append(k)
        classes.append((start, tuple(sorted(orbit))))
    return classes


def matrix_centralizer(group, i: int) -> tuple[int, ...]:
    """Indices of the elements commuting with element i.  m g and g m are
    compared entry by entry, stopping at the first entry that differs."""
    g = group.elements[i].rows
    size = range(len(g))

    def entry(a, b, r, c):
        return sum((a[r][k] * b[k][c] for k in size[1:]), a[r][0] * b[0][c])

    return tuple(
        j
        for j, m in enumerate(group.elements)
        if all(entry(m.rows, g, r, c) == entry(g, m.rows, r, c) for r in size for c in size)
    )


def element_order(m, cap: int = 1024) -> int:
    """The multiplicative order of a matrix, by repeated products."""
    power = m
    for k in range(1, cap + 1):
        if power.is_identity():
            return k
        power = power * m
    raise ValueError(f"element order exceeds cap {cap}")


def matrix_greedy_generators(elements) -> list[int]:
    """The index-order greedy generating set of an element list with the
    identity first: each generator is the first element outside the
    subgroup generated by the earlier ones, closed with matrix products."""
    have = {elements[0]}
    gens: list[int] = []
    for i, m in enumerate(elements):
        if m in have:
            continue
        gens.append(i)
        queue = list(have)
        while queue:
            x = queue.pop()
            for j in gens:
                p = x * elements[j]
                if p not in have:
                    have.add(p)
                    queue.append(p)
    return gens


def closure_words(generators, words) -> list[str]:
    """A word per element of the breadth-first closure of the generators,
    in discovery order, concatenated as each element is found by a matrix
    product: "id" for the identity, and a new element's word is the word
    of the element it was found from ("" for "id") followed by the
    generator's word.  The string-per-element route that closures took
    before words were read off their spanning tree."""
    identity = GMatrix.identity(generators[0].n, generators[0].conductor)
    elements, seen, out = [identity], {identity}, ["id"]
    for current, x in enumerate(elements):
        for g, word in zip(generators, words):
            p = x * g
            if p not in seen:
                seen.add(p)
                elements.append(p)
                out.append(("" if out[current] == "id" else out[current]) + word)
    return out


def dense_rref(matrix):
    """(rows, pivot columns) of the reduced row echelon form by the column
    sweep with first-nonzero pivoting: the dense route, which scales every
    entry of the pivot row and updates every entry of each row it clears,
    zeros included."""
    rows = [list(row) for row in matrix]
    if not rows:
        return [], []
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = -rows[i][c]
                rows[i] = [a.addmul(factor, b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def leibniz_det(matrix):
    """The determinant as the signed sum over permutations, with no
    division and no elimination: the oracle for linalg.det above 3 x 3."""
    n = len(matrix)
    total = CycNum.zero(matrix[0][0].conductor)
    for perm in permutations(range(n)):
        entries = [matrix[i][j] for i, j in enumerate(perm)]
        if not all(entries):
            continue
        term = entries[0]
        for e in entries[1:]:
            term = term * e
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        total = total - term if inversions % 2 else total + term
    return total


def augmented_solve(matrix, rhs) -> list | None:
    """One solution of A x = b from the dense rref of the single augmented
    matrix [A | b], or None when b's column is a pivot (the system is
    inconsistent).  Free unknowns are 0.  This is the
    one-right-hand-side-at-a-time route to linalg.solve."""
    ncols = len(matrix[0])
    reduced, pivots = dense_rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    x = [CycNum.zero(matrix[0][0].conductor)] * ncols
    for i, c in enumerate(pivots):
        x[c] = reduced[i][ncols]
    return x


def pairwise_product_table(algebra, basis) -> dict:
    """Products b_i b_j (i <= j) of invariant classes over the basis, one
    elimination per pair (the route to identity_sector_products that
    solves each product on its own)."""
    matrix = [list(row) for row in zip(*(algebra.vector(p) for p in basis))]
    products = {}
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            coeffs = augmented_solve(matrix, algebra.vector(basis[i] * basis[j]))
            if coeffs is None:
                raise ValueError("product left the invariant subspace")
            products[(i, j)] = tuple(coeffs)
    return products


def solved_product_table(algebra, vectors) -> dict:
    """Products b_i b_j (i <= j) of the invariant classes with coordinates
    `vectors`, written over those classes by one elimination
    (`linalg.solve` with one right-hand side per pair): the route to
    identity_sector_products that eliminates instead of reading
    coordinates off the basis.  Pairs above the top degree are zero with
    no product, as there."""
    matrix = [list(row) for row in zip(*vectors)]
    pairs = [(i, j) for i in range(len(vectors)) for j in range(i, len(vectors))]
    low = [next((algebra.degrees[k] for k, c in enumerate(v) if c), 0) for v in vectors]
    zero = (CycNum.zero(algebra.conductor),) * algebra.milnor
    rhs = [
        zero if low[i] + low[j] > algebra.top_degree() else algebra.multiply(vectors[i], vectors[j])
        for i, j in pairs
    ]
    solutions = linalg.solve(matrix, rhs)
    if any(coeffs is None for coeffs in solutions):
        raise ValueError("product left the invariant subspace")
    return {pair: tuple(coeffs) for pair, coeffs in zip(pairs, solutions)}


def substitution_sector_action(h, sector):
    """Action of a centralizing h on the sector by the substitution route:
    invert A = h|Fix(g) by Gauss-Jordan, expand every basis monomial at
    A^-1 t with compose_linear, normal-form it, and scale by det(h)/det(A)."""
    algebra = sector.algebra
    if sector.fix_dim == 0:
        return ((h.det,),)
    a = restriction_matrix(h, sector)
    ainv = linalg.invert(a)
    k = sector.fix_dim
    columns = [[ainv[i][c] for i in range(k)] for c in range(k)]
    scale = h.det / linalg.det(a)
    one = CycNum.one(algebra.conductor)
    images = [
        algebra.vector(compose_linear(Poly(k, {mon: one}, algebra.conductor), columns))
        for mon in algebra.basis
    ]
    mu = algebra.milnor
    return tuple(tuple(images[j][i] * scale for j in range(mu)) for i in range(mu))


def expanded_substitution(p: Poly, columns) -> Poly:
    """p(M t) for the matrix M of the given columns, the substitution route
    `polyring.compose_linear` replaced: each variable's image is a linear
    form, a power is that form multiplied in again and again, a term is the
    product of its powers, and every product of two term dicts is a fold of
    CycNum * and + over all term pairs (no fused dot, no memo, no table)."""
    k, conductor = len(columns), p.conductor
    zero = CycNum.zero(conductor)

    def times(a: dict, b: dict) -> dict:
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mon = mon_mul(m1, m2)
                out[mon] = out.get(mon, zero) + c1 * c2
        return out

    lin = [
        {tuple(int(j == c) for j in range(k)): col[i] for c, col in enumerate(columns)}
        for i in range(p.arity)
    ]
    total: dict = {}
    for mon, coeff in p.terms.items():
        image = {(0,) * k: coeff}
        for i, e in enumerate(mon):
            for _ in range(e):
                image = times(image, lin[i])
        for m, c in image.items():
            total[m] = total.get(m, zero) + c
    return Poly(k, total, conductor)


def apply(h, vec) -> tuple[CycNum, ...]:
    """The matrix-vector product h vec."""
    return tuple(CycNum.dot(row, vec) for row in h.rows)


def rho(h, g) -> CycNum:
    """The scalar det(h)/det(h|Fix(g)) by which a centralizing h scales
    xi_g, with h|Fix(g) read off the images of the fix basis and divided
    out (the engine multiplies by det(h^-1|Fix(g)) instead)."""
    if h * g != g * h:
        raise ValueError("rho is only defined for centralizing pairs")
    basis, free_rows = fixed_space(g)
    if not basis:
        return h.det
    columns = [apply(h, col) for col in basis]
    restricted = [[col[r] for col in columns] for r in free_rows]
    return h.det / linalg.det(restricted)


def poly_invmod(a: list[Fraction], mod: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo `mod` in Q[x] (mod irreducible, a nonzero)."""

    def deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i]:
                return i
        return -1

    def trim(p):
        d = deg(p)
        return p[: d + 1] if d >= 0 else []

    def polysub(p, q):
        out = [Fraction(0)] * max(len(p), len(q))
        for i, c in enumerate(p):
            out[i] += c
        for i, c in enumerate(q):
            out[i] -= c
        return trim(out)

    def polymul(p, q):
        if not p or not q:
            return []
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, ci in enumerate(p):
            if ci:
                for j, cj in enumerate(q):
                    if cj:
                        out[i + j] += ci * cj
        return trim(out)

    def polydivmod(p, q):
        p = list(p)
        dq = deg(q)
        lead = q[dq]
        quot = [Fraction(0)] * max(len(p) - dq, 1)
        for i in range(len(p) - 1, dq - 1, -1):
            if p[i]:
                c = p[i] / lead
                quot[i - dq] = c
                for j in range(dq + 1):
                    p[i - dq + j] -= c * q[j]
        return trim(quot), trim(p)

    r0, r1 = trim(mod), trim(a)
    s0, s1 = [], [Fraction(1)]
    while deg(r1) > 0:
        q, r = polydivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, polysub(s0, polymul(q, s1))
    if not r1:
        raise ZeroDivisionError("element not invertible modulo the cyclotomic polynomial")
    c = r1[0]
    return [v / c for v in s1]


def euclid_inverse(a: CycNum) -> CycNum:
    """Inverse of a nonzero field element by the extended Euclidean algorithm
    against the cyclotomic polynomial over Fractions (the route to
    CycNum.inverse that divides at every step)."""
    mod = [Fraction(c) for c in cyclotomic_polynomial(a.conductor)]
    inv = poly_invmod([Fraction(v, a.den) for v in a.nums], mod)
    return CycNum.from_coeffs(a.conductor, inv + [Fraction(0)] * (len(a.nums) - len(inv)))


def bareiss_inverse(a: CycNum) -> CycNum:
    """Inverse of a nonzero field element by fraction-free Bareiss
    elimination of the full phi(n) x phi(n) multiplication matrix at its own
    conductor, with no fast path and no descent to a subfield (the route to
    CycNum.inverse before it learned to work in the value's subfield).

    Column j of M is N zeta^j over the power basis, N = a * den; Bareiss on
    [M | e_0] ends with det(M) on the diagonal and det(M) x in the last
    column, so 1/a = den * (det(M) x) / det(M)."""
    cyc = cyclotomic_polynomial(a.conductor)
    phi = len(cyc) - 1
    base = [-c for c in cyc[:phi]]
    columns = [list(a.nums)]
    for _ in range(phi - 1):
        prev = columns[-1]
        col = [0] + prev[:-1]
        columns.append([c + prev[-1] * b for c, b in zip(col, base)])
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
    return CycNum(a.conductor, [row[phi] * a.den for row in aug], prev_pivot)


def complex_approx(a: CycNum) -> complex:
    """Floating-point value of a at zeta_n = exp(2 pi i / n), for sanity
    checks only."""
    w = cmath.exp(2j * cmath.pi / a.conductor)
    return sum(float(c) * w**i for i, c in enumerate(a.coeffs))


def dense_matmul(a_rows, b_rows) -> tuple[tuple[CycNum, ...], ...]:
    """Matrix product with every entry the fused `CycNum.dot` over all n
    terms, zeros included (the route to GMatrix.__mul__ that skips no
    term)."""
    cols = list(zip(*b_rows))
    return tuple(tuple(CycNum.dot(row, col) for col in cols) for row in a_rows)


def dense_rows(n: int) -> list[list[int]]:
    """Dense reduction rows of x^phi .. x^(2 phi - 2) modulo Phi_n, built
    from the cyclotomic polynomial alone (one row per power, every entry)."""
    cyc = cyclotomic_polynomial(n)
    phi = len(cyc) - 1
    rows = [[-c for c in cyc[:phi]]]
    while len(rows) < max(phi - 1, 1):
        prev = rows[-1]
        shifted = [0] + prev[:-1]
        rows.append([v + prev[-1] * b for v, b in zip(shifted, rows[0])])
    return rows


def dense_mul_nums(an, bn, rows) -> list[int]:
    """Numerators of a*b over the power basis (denominator ad*bd, not
    normalized): the field multiply's dense route, which convolves every
    coefficient pair and folds each high power back with a full dense row
    of `dense_rows`."""
    phi = len(an)
    conv = [0] * (2 * phi - 1)
    for i, ai in enumerate(an):
        if ai:
            for j, bj in enumerate(bn):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:phi]
    for e in range(phi, 2 * phi - 1):
        ce = conv[e]
        if ce:
            row = rows[e - phi]
            for j, rj in enumerate(row):
                if rj:
                    out[j] += ce * rj
    return out


def fraction_canonical(coeffs) -> tuple[tuple[int, ...], int]:
    """The canonical (nums, den) of rational power-basis coefficients: den
    is the least common denominator, so gcd(*nums, den) = 1."""
    fracs = [Fraction(c) for c in coeffs]
    den = 1
    for c in fracs:
        den = den * c.denominator // gcd(den, c.denominator)
    return tuple(c.numerator * (den // c.denominator) for c in fracs), den


def dense_dot(terms, n: int) -> tuple[tuple[int, ...], int]:
    """Canonical sum of a*b over (an, ad, bn, bd) terms: each product by
    the dense route, summed as Fractions."""
    rows = dense_rows(n)
    total = [Fraction(0)] * len(terms[0][0])
    for an, ad, bn, bd in terms:
        for j, v in enumerate(dense_mul_nums(an, bn, rows)):
            total[j] += Fraction(v, ad * bd)
    return fraction_canonical(total)


def reynolds_image(actions) -> tuple[int, tuple]:
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
    # a deterministic basis of the image: the pivot columns of avg
    _, pivots = linalg.rref(avg)
    basis = [tuple(avg[i][j] for i in range(size)) for j in pivots]
    return len(basis), tuple(basis)


def full_invariant_subspace(actions) -> tuple[int, tuple]:
    """The common fixed subspace of the action matrices with every stacked
    row of M - id eliminated (`linalg.kernel_basis_with_free`): the route
    to `invariant_subspace` that takes no predicted dimension."""
    size = len(actions[0])
    one = CycNum.one(actions[0][0][0].conductor if size else 1)
    stacked = []
    for m in actions:
        for i in range(size):
            row = list(m[i])
            row[i] = row[i] - one
            stacked.append(row)
    basis, _ = linalg.kernel_basis_with_free(stacked)
    return len(basis), tuple(basis)


def poly_from_vector(algebra, vec) -> Poly:
    """The polynomial with coordinates vec over the algebra's monomial basis."""
    terms = {m: c for m, c in zip(algebra.basis, vec) if c}
    return Poly(algebra.arity, terms, algebra.conductor)


def kernel_route(f, group, weights) -> dict:
    """{class representative: (degree dimensions, invariant basis)} by the
    route that solves every degree block: the full `sector_action` of each
    centralizer generator, cut into its degree blocks (the off-block
    entries must vanish), and `full_invariant_subspace` on each block; a
    trivial centralizer keeps the whole sector."""
    conj = group.conjugacy()
    out = {}
    for rep, _ in conj.classes:
        sector = _build_sector(f, group.elements[rep], weights)
        algebra = sector.algebra
        gens = [i for i in group.subgroup_generator_indices(conj.centralizers[rep]) if i]
        actions = [sector_action(group.elements[i], sector) for i in gens]
        zero, one = CycNum.zero(algebra.conductor), CycNum.one(algebra.conductor)
        dims, basis = [], []
        for rng in algebra.degree_slices():
            for m in actions:
                for i in rng:
                    if any(m[i][j] for j in range(algebra.milnor) if j not in rng):
                        raise ValueError("sector action does not preserve the grading")
            blocks = [tuple(tuple(m[i][j] for j in rng) for i in rng) for m in actions]
            if blocks and len(rng):
                dim, vecs = full_invariant_subspace(blocks)
            else:
                dim = len(rng)
                vecs = [tuple(one if k == i else zero for k in range(dim)) for i in range(dim)]
            dims.append(dim)
            for v in vecs:
                full = [zero] * algebra.milnor
                full[rng.start : rng.stop] = v
                basis.append(poly_from_vector(algebra, full))
        out[rep] = (tuple(dims), tuple(basis))
    return out


def euler_total(f, group, weights) -> Fraction:
    """The total invariant dimension from ranks alone (Ebeling and
    Gusein-Zade, "Orbifold Euler characteristics for dual invertible
    polynomials", 2012): the Koszul trace of h on the g-th sector at s = 1
    is det(h) (-1)^(k_g - k_gh) prod (d - w)/w over the directions of
    Fix<g,h>, so

        total = sum_[g] 1/|Z(g)| sum_{h in Z(g)} det(h) (-1)^(k_g - k_gh) prod (d - w)/w,

    with k_g = dim Fix(g) and k_gh = dim Fix<g,h> = k_g - rank(h|Fix(g) - I),
    counted weight by weight: with B a basis of the weight-w part of Fix(g)
    (a dense kernel), that rank is the rank of (h - I) B.  The trace is a
    class function of Z(g), so h runs over one representative per class,
    weighted by the class size.  No characteristic polynomial, series or
    algebra is involved; f enters only through its weights, which the
    group must preserve."""
    if len(weights.weights) != f.arity:
        raise ValueError("need one weight per variable")
    conductor, d = group.conductor, weights.total
    zero, one = CycNum.zero(conductor), CycNum.one(conductor)
    by_weight: dict[int, list[int]] = {}
    for i, w in enumerate(weights.weights):
        by_weight.setdefault(w, []).append(i)

    def minus_id(m, cols):
        """The columns cols of m - I."""
        return [[row[c] - 1 if i == c else row[c] for c in cols] for i, row in enumerate(m.rows)]

    def kernel(rows):
        """A basis of the right kernel, one vector per free column j."""
        reduced, pivots = dense_rref(rows)
        width = range(len(rows[0]))
        pivot_row = {c: reduced[r] for r, c in enumerate(pivots)}
        return [
            [-pivot_row[c][j] if c in pivot_row else one if c == j else zero for c in width]
            for j in width
            if j not in pivot_row
        ]

    total = CycNum.zero(conductor)
    conj = group.conjugacy()
    for rep, _ in conj.classes:
        g, centralizer = group.elements[rep], conj.centralizers[rep]
        fix = {w: kernel(minus_id(g, cols)) for w, cols in by_weight.items()}
        fix = {w: basis for w, basis in fix.items() if basis}
        k_g = sum(map(len, fix.values()))
        zgens = group.subgroup_generator_indices(centralizer)
        for h_index, members in group.class_orbits(centralizer, zgens):
            h = group.elements[h_index]
            weight = Fraction(len(members), len(centralizer))
            k_gh = 0
            for w, basis in fix.items():
                moved = [[CycNum.dot(row, v) for v in basis] for row in minus_id(h, by_weight[w])]
                dim = len(basis) - len(dense_rref(moved)[1])
                weight *= Fraction(d - w, w) ** dim
                k_gh += dim
            weight *= (-1) ** (k_g - k_gh)
            total += h.det * CycNum.from_rational(weight, conductor)
    if not total.is_rational():
        raise ValueError(f"the Euler sum {total} is not rational")
    return total.as_rational()


def fixpoint_buchberger(generators) -> GroebnerBasis:
    """Reduced Groebner basis by Buchberger's algorithm, with the minimal
    basis tail-reduced (and made monic) over and over until a pass changes
    nothing, and every leading monomial recomputed where it is read."""
    gens: list[Poly] = []
    for g in generators:
        if g:
            gens.append(g.scale(g.leading_coeff().inverse()))
    if not gens:
        raise ValueError("cannot take a Groebner basis of the zero ideal")
    gens.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    basis = list(gens)

    def lm(i):
        return basis[i].leading_monomial()

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    done: set[tuple[int, int]] = set()
    while pairs:
        i, j = min(
            pairs,
            key=lambda ij: (grevlex_key(mon_lcm(lm(ij[0]), lm(ij[1]))), ij),
        )
        pairs.discard((i, j))
        done.add((i, j))
        lcm = mon_lcm(lm(i), lm(j))
        if lcm == mon_mul(lm(i), lm(j)):
            continue
        if any(
            k != i
            and k != j
            and mon_divides(lm(k), lcm)
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
            for k in range(len(basis))
        ):
            continue
        remainder = normal_form(_spoly(basis[i], basis[j]), GroebnerBasis(basis))
        if remainder:
            remainder = remainder.scale(remainder.leading_coeff().inverse())
            basis.append(remainder)
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
    lms = [g.leading_monomial() for g in basis]
    kept = [
        g
        for i, g in enumerate(basis)
        if not any(
            j != i and mon_divides(lms[j], lms[i]) and (lms[j] != lms[i] or j < i)
            for j in range(len(basis))
        )
    ]
    changed = len(kept) > 1
    while changed:
        changed = False
        for i in range(len(kept)):
            others = GroebnerBasis([h for j, h in enumerate(kept) if j != i])
            tail = normal_form(kept[i], others)
            tail = tail.scale(tail.leading_coeff().inverse())
            if tail != kept[i]:
                kept[i] = tail
                changed = True
    return GroebnerBasis(kept)


def surface_cohomology_dim(genus: int) -> int:
    """Total cohomology dimension 2 + 2g of a genus-g surface."""
    if genus < 0:
        raise ValueError("genus must be non-negative")
    return 2 + 2 * genus


def residue_pairing(u: Poly, v: Poly, algebra) -> CycNum:
    """The bilinear form with eta([1], [hess f]) = 1.

    Projects the product class onto the top-degree graded piece, which is
    one-dimensional for the quasihomogeneous isolated singularities handled
    here (guarded).
    """
    if algebra.graded_dims[-1] != 1:
        raise ValueError("top graded piece is not one-dimensional")
    top_index = algebra.milnor - 1
    hess_top = algebra.vector(hessian(algebra.source))[top_index]
    product_vec = algebra.multiply(algebra.vector(u), algebra.vector(v))
    return product_vec[top_index] / hess_top


def groups_conjugate(g1, g2, ambient) -> GMatrix | None:
    """Some h in the ambient group with h G1 h^-1 = G2 (as sets), or None.

    Both groups must lie in the ambient group.  Brute force over the
    ambient elements, by table lookup.
    """
    if g1.order != g2.order:
        return None
    try:
        members = [ambient.index[m] for m in g1.elements]
        target = {ambient.index[m] for m in g2.elements}
    except KeyError:
        raise ValueError("both groups must lie in the ambient group") from None
    right = ambient._right_tables()
    inv = ambient.inverse_index()
    for h in range(ambient.order):
        times_hinv = right[inv[h]]
        if all(times_hinv[right[m][h]] in target for m in members):
            return ambient.elements[h]
    return None


def poly_from_list(arity: int, data, conductor: int | None = None) -> Poly:
    """The polynomial that `Poly.to_list` wrote as `data`."""
    terms = {tuple(item["exponents"]): CycNum.from_dict(item["coeff"]) for item in data}
    return Poly(arity, terms, conductor)


def read_report(data: dict) -> HHReport:
    """The report that `HHReport.to_dict` (`compute --format json`) wrote
    as `data`."""
    sectors = tuple(
        SectorReport(
            rep_index=s["rep_index"],
            rep_word=s["rep_word"],
            rep_matrix=GMatrix([[CycNum.from_dict(e) for e in row] for row in s["rep_matrix"]]),
            class_size=s["class_size"],
            centralizer_order=s["centralizer_order"],
            fix_dim=s["fix_dim"],
            sector_dim_raw=s["sector_dim_raw"],
            invariant_dim=s["invariant_dim"],
            degree_dims=tuple(s["degree_dims"]),
            invariant_basis=tuple(poly_from_list(s["fix_dim"], p) for p in s["invariant_basis"]),
        )
        for s in data["classes"]
    )
    return HHReport(
        group=data["group"],
        sectors=sectors,
        identity_dimension_vector=tuple(data["identity_dimension_vector"]),
        total_dim=data["total_dim"],
    )


def galois(k: int, obj):
    """sigma_k: zeta_28 -> zeta_28^k, for k prime to 28, applied to a CycNum
    (of a conductor n dividing 28, where it sends zeta_n to zeta_n^k), to a
    GMatrix entry by entry, and to every serialized CycNum inside the
    lists and dicts of a `to_dict()` report; anything else is unchanged."""
    if isinstance(obj, CycNum):
        n = obj.conductor
        return sum((zeta(n, i * k) * c for i, c in enumerate(obj.coeffs) if c), CycNum.zero(n))
    if isinstance(obj, GMatrix):
        return GMatrix([[galois(k, e) for e in row] for row in obj.rows])
    if isinstance(obj, dict):
        if set(obj) == {"conductor", "coeffs"}:
            return galois(k, CycNum.from_dict(obj)).to_dict()
        return {key: galois(k, value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [galois(k, value) for value in obj]
    return obj
