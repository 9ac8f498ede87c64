"""Exact Gaussian elimination over cyclotomic fields.

Matrices are lists of rows of CycNum.  Pivoting always takes the first
nonzero entry in column order (no magnitude heuristics are needed with
exact arithmetic), so every result is deterministic.  In `rref`, scaling
the pivot row and clearing its column touch only the pivot row's nonzero
entries, which start at the pivot column: values are canonical, so adding
a multiple of zero would leave an entry exactly as it is.  The row updates
of `kernel_form_basis` skip zero entries of the row they add the same way.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from lgorb.errors import ShapeError, SingularMatrixError
from lgorb.exactnum import CycNum

Vector = tuple[CycNum, ...]


def _as_rows(matrix) -> list[list[CycNum]]:
    return [list(row) for row in matrix]


def rref(matrix, pivot_columns: int | None = None) -> tuple[list[list[CycNum]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    With `pivot_columns` set, pivots are sought only among the first that
    many columns; the remaining columns are carried along by the row
    operations (an augmented matrix)."""
    rows = _as_rows(matrix)
    if not rows:
        return [], []
    width = len(rows[0])
    ncols = width if pivot_columns is None else pivot_columns
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        support = [k for k in range(c, width) if prow[k]]
        inv = prow[c].inverse()
        for k in support:
            prow[k] = prow[k] * inv
        for i, row in enumerate(rows):
            if i != r and row[c]:
                factor = -row[c]
                for k in support:
                    row[k] = row[k].addmul(factor, prow[k])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def kernel_basis_with_free(matrix) -> tuple[list[Vector], list[int]]:
    """Basis of the right kernel plus the free column indices.

    One vector per free column j (ascending): entry 1 at j, the negated
    reduced-row entries at the pivot positions, 0 elsewhere.  The rows of
    the basis matrix at the free indices therefore form an identity block.
    A matrix without rows or columns gives ([], []).
    """
    rows = _as_rows(matrix)
    if not rows or not rows[0]:
        return [], []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_of_col = {c: i for i, c in enumerate(pivots)}
    conductor = rows[0][0].conductor
    zero, one = CycNum.zero(conductor), CycNum.one(conductor)
    basis = []
    free = [j for j in range(ncols) if j not in pivot_of_col]
    for j in free:
        vec = [zero] * ncols
        vec[j] = one
        for c, i in pivot_of_col.items():
            if reduced[i][j]:
                vec[c] = -reduced[i][j]
        basis.append(tuple(vec))
    return basis, free


def kernel_form_basis(vectors: Iterable[Vector], stop: int | None = None) -> list[Vector]:
    """The kernel basis `kernel_basis_with_free` gives for any matrix whose
    kernel is the span of the vectors: one vector per free column j,
    ascending, with 1 at j, 0 at the other free columns and nothing after
    j.  That is the reduced row echelon form of the span with the column
    order reversed, so it depends on the span alone.  The vectors are read
    lazily, and reading stops once `stop` independent ones have been seen."""
    rows: dict[int, list[CycNum]] = {}  # reversed pivot -> reversed, reduced row
    for vec in vectors:
        v = list(reversed(vec))
        for p, row in rows.items():
            if v[p]:
                factor = -v[p]
                v = [a.addmul(factor, b) if b else a for a, b in zip(v, row)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            continue
        inv = v[p].inverse()
        v = [x * inv for x in v]
        for q, row in rows.items():
            if row[p]:
                factor = -row[p]
                rows[q] = [a.addmul(factor, b) if b else a for a, b in zip(row, v)]
        rows[p] = v
        if len(rows) == stop:
            break
    return [tuple(reversed(rows[p])) for p in sorted(rows, reverse=True)]


def det(matrix) -> CycNum:
    """Determinant: division-free cofactor formulas for n <= 3, exact
    elimination above that."""
    rows = _as_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ShapeError("determinant needs a square matrix")
    if n == 0:
        return CycNum.one(1)
    if n == 1:
        return rows[0][0]
    dot = CycNum.dot
    if n == 2:
        (a, b), (c, d) = rows
        return dot((a, -b), (d, c))
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        minors = (dot((e, -f), (i, h)), dot((d, -f), (i, g)), dot((d, -e), (h, g)))
        return dot((a, -b, c), minors)
    conductor = rows[0][0].conductor
    result = CycNum.one(conductor)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot_row is None:
            return CycNum.zero(conductor)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        pivot = rows[c][c]
        result = result * pivot
        inv = pivot.inverse()
        for i in range(c + 1, n):
            if rows[i][c]:
                factor = -(rows[i][c] * inv)
                rows[i] = [a.addmul(factor, b) for a, b in zip(rows[i], rows[c])]
    return result


def invert(matrix) -> list[list[CycNum]]:
    """Matrix inverse via Gauss-Jordan; raises SingularMatrixError."""
    rows = _as_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ShapeError("inverse needs a square matrix")
    conductor = rows[0][0].conductor
    zero, one = CycNum.zero(conductor), CycNum.one(conductor)
    aug = [rows[i] + [one if j == i else zero for j in range(n)] for i in range(n)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in reduced]


def solve(matrix, rhs_columns: Sequence[Sequence[CycNum]]) -> list[list[CycNum] | None]:
    """One solution of A x = b for each right-hand side b, or None where
    A x = b is inconsistent.

    A single rref of [A | b_1 ... b_m], pivoting only in A's columns,
    serves every right-hand side: b_k is consistent exactly when its
    column vanishes below the rank.  Free unknowns are set to 0.  A matrix
    without rows gives None for every column.
    """
    rows = _as_rows(matrix)
    if not rows:
        return [None] * len(rhs_columns)
    if any(len(b) != len(rows) for b in rhs_columns):
        raise ShapeError("every right-hand side needs one entry per matrix row")
    ncols = len(rows[0])
    aug = [row + [b[i] for b in rhs_columns] for i, row in enumerate(rows)]
    reduced, pivots = rref(aug, pivot_columns=ncols)
    rank = len(pivots)
    zero = CycNum.zero(rows[0][0].conductor) if ncols else None
    out: list[list[CycNum] | None] = []
    for k in range(ncols, ncols + len(rhs_columns)):
        if any(reduced[i][k] for i in range(rank, len(reduced))):
            out.append(None)
            continue
        x = [zero] * ncols
        for i, c in enumerate(pivots):
            x[c] = reduced[i][k]
        out.append(x)
    return out
