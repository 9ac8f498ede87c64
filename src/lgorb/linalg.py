"""Exact Gaussian elimination over cyclotomic fields.

Matrices are lists of rows of CycNum.  Every elimination inserts rows one
at a time with `_insert`, which keeps the rows seen so far in reduced row
echelon form, pivoting at the first nonzero entry in column order (no
magnitude heuristics are needed with exact arithmetic).  That form depends
only on the span of the rows, so every result is deterministic.  Row
updates touch only the nonzero entries of the row being added: values are
canonical, so adding a multiple of zero would leave an entry as it is.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from lgorb.errors import ShapeError, SingularMatrixError
from lgorb.exactnum import CycNum

Vector = tuple[CycNum, ...]


def _as_rows(matrix) -> list[list[CycNum]]:
    return [list(row) for row in matrix]


def _insert(
    reduced: dict[int, list[CycNum]], row: list[CycNum], width: int
) -> tuple[int | None, list[CycNum]]:
    """Reduce `row` against `reduced` (pivot column -> reduced row) and
    return (pivot, row) with the row as reduced, before any scaling.

    If the row has a nonzero entry among its first `width`, the first one
    is its pivot: the row is scaled to 1 there, that column is cleared from
    the stored rows and the row is stored.  Otherwise the pivot is None and
    nothing is stored."""
    for p, prow in reduced.items():
        if row[p]:
            factor = -row[p]
            row = [a.addmul(factor, b) if b else a for a, b in zip(row, prow)]
    pivot = next((c for c in range(width) if row[c]), None)
    if pivot is not None:
        inv = row[pivot].inverse()
        new = [x * inv if x else x for x in row]
        for q, qrow in reduced.items():
            if qrow[pivot]:
                factor = -qrow[pivot]
                reduced[q] = [a.addmul(factor, b) if b else a for a, b in zip(qrow, new)]
        reduced[pivot] = new
    return pivot, row


def rref(matrix) -> tuple[list[list[CycNum]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices): the
    pivot rows by pivot column, then the zero rows."""
    reduced: dict[int, list[CycNum]] = {}
    zero_rows = []
    for row in _as_rows(matrix):
        pivot, rest = _insert(reduced, row, len(row))
        if pivot is None:
            zero_rows.append(rest)
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots] + zero_rows, pivots


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
    reduced: dict[int, list[CycNum]] = {}
    for row in rows:
        _insert(reduced, row, len(row))
    return _kernel_of(reduced, len(rows[0]), rows[0][0].conductor)


def _kernel_of(
    reduced: dict[int, list[CycNum]], ncols: int, conductor: int
) -> tuple[list[Vector], list[int]]:
    """`kernel_basis_with_free` of the rows reduced by `_insert` (pivot
    column -> reduced row), for a matrix with `ncols` columns.  A reduced
    row is zero left of its pivot and at every other pivot column, so the
    vector of free column j is zero after j."""
    zero, one = CycNum.zero(conductor), CycNum.one(conductor)
    basis = []
    free = [j for j in range(ncols) if j not in reduced]
    for j in free:
        vec = [zero] * ncols
        vec[j] = one
        for c, prow in reduced.items():
            if prow[j]:
                vec[c] = -prow[j]
        basis.append(tuple(vec))
    return basis, free


def kernel_form_basis(vectors: Iterable[Vector], stop: int) -> list[Vector]:
    """The kernel basis `kernel_basis_with_free` gives for any matrix whose
    kernel is the span of the vectors: one vector per free column j,
    ascending, with 1 at j, 0 at the other free columns and nothing after
    j.  That is the reduced row echelon form of the span with the column
    order reversed, so it depends on the span alone.  The vectors are read
    lazily, and reading stops once `stop` independent ones have been seen."""
    rows: dict[int, list[CycNum]] = {}  # reversed pivot -> reversed, reduced row
    for vec in vectors:
        _insert(rows, list(reversed(vec)), len(vec))
        if len(rows) == stop:
            break
    return [tuple(reversed(rows[p])) for p in sorted(rows, reverse=True)]


def det(matrix) -> CycNum | int:
    """Determinant: division-free cofactor formulas for n <= 3, exact
    elimination above that.  The empty matrix gives the int 1, which
    CycNum arithmetic coerces, so it is the unit of any caller's field.
    Inserting the rows leaves unit rows at the pivot columns, so above
    3 x 3 the determinant is the product of the pivots met times the sign
    of the permutation taking each row to its pivot column."""
    rows = _as_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ShapeError("determinant needs a square matrix")
    if n == 0:
        return 1
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
    reduced: dict[int, list[CycNum]] = {}
    result = CycNum.one(rows[0][0].conductor)
    pivots = []
    for row in rows:
        pivot, reduced_row = _insert(reduced, row, n)
        if pivot is None:
            return CycNum.zero(result.conductor)
        result = result * reduced_row[pivot]
        pivots.append(pivot)
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1 :])
    return -result if inversions % 2 else result


def invert(matrix) -> list[list[CycNum]]:
    """Matrix inverse: `solve` against the identity's columns, transposed.
    A singular A has some y != 0 with y A = 0, so some identity column is
    inconsistent (None) and SingularMatrixError is raised."""
    rows = _as_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ShapeError("inverse needs a square matrix")
    if n == 0:
        return []
    conductor = rows[0][0].conductor
    zero, one = CycNum.zero(conductor), CycNum.one(conductor)
    columns = solve(rows, [[one if i == j else zero for i in range(n)] for j in range(n)])
    if any(col is None for col in columns):
        raise SingularMatrixError("matrix is singular")
    return [list(row) for row in zip(*columns)]


def solve(matrix, rhs_columns: Sequence[Sequence[CycNum]]) -> list[list[CycNum] | None]:
    """One solution of A x = b for each right-hand side b, or None where
    A x = b is inconsistent.

    The rows of [A | b_1 ... b_m] are inserted with pivots only in A's
    columns, so one elimination serves every right-hand side.  A row whose
    A part reduces to zero is a combination y with y A = 0, and these rows
    span all such y; b_k is consistent exactly when all of them vanish in
    its column.  Free unknowns are set to 0.  A matrix without rows gives
    None for every column.
    """
    rows = _as_rows(matrix)
    if not rows:
        return [None] * len(rhs_columns)
    if any(len(b) != len(rows) for b in rhs_columns):
        raise ShapeError("every right-hand side needs one entry per matrix row")
    ncols = len(rows[0])
    reduced: dict[int, list[CycNum]] = {}
    residues = []
    for i, row in enumerate(rows):
        pivot, rest = _insert(reduced, row + [b[i] for b in rhs_columns], ncols)
        if pivot is None:
            residues.append(rest)
    zero = CycNum.zero(rows[0][0].conductor) if ncols else None
    out: list[list[CycNum] | None] = []
    for k in range(ncols, ncols + len(rhs_columns)):
        if any(rest[k] for rest in residues):
            out.append(None)
            continue
        x = [zero] * ncols
        for c, prow in reduced.items():
            x[c] = prow[k]
        out.append(x)
    return out
