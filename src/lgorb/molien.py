"""Invariant dimensions of an orbifold sector, degree by degree, from
characters.

The Jacobian ideal of an isolated quasihomogeneous f^g is a complete
intersection, so its Koszul resolution gives the graded trace of a
centralizing h on the sector Jac(f^g) xi_g in closed form (Vafa, Mod.
Phys. Lett. A4 (1989); Intriligator-Vafa, Nucl. Phys. B339 (1990)):

    rho(h, g) prod_w det(1 - s^(d-w) A_w) / det(1 - s^w A_w^-1),

where A = h|Fix(g), A_w is its block on the sector coordinates of weight
w and d is the total weight.  Averaging the trace over Z(g) (Molien) gives
the invariant dimension in each weighted degree.  The trace is a class
function of Z(g), so one representative per class suffices; the classes
come from the group's own orbit walk, `FiniteMatrixGroup.class_orbits`.
The identity's trace is the Hilbert series of the sector's weights
(`jacobian.hilbert_dims`), so a sector needs no Jacobian algebra here.

No field inverse is needed.  With B = h^-1|Fix(g) = A^-1 and
chi_B(t) = det(t - B), det(1 - t B) is chi_B with its coefficients
reversed, and rho det(1 - t A) = det(h) (-1)^k chi_B(t) for k = dim Fix(g),
because rho = det(h) det(B); the same holds block by block.  The
denominator has constant term 1, so the series division is exact.

The trace therefore depends on h only through det(h) and the
characteristic polynomial of each weight block of B, and the series is
memoized once per process (`_trace_series`, `functools.lru_cache`) by
(det h, ((w, chi_w), ...), total weight, top degree): across the catalog
a few dozen keys cover hundreds of traces.  The weight check runs before
the lookup, exceptions are never cached, and the memo grows with the
number of distinct keys a process meets.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

from lgorb import linalg
from lgorb.errors import CharacterError, GradingError
from lgorb.exactnum import CycNum
from lgorb.jacobian import hilbert_dims


def restriction_matrix(h, sector) -> tuple[tuple[CycNum, ...], ...]:
    """h restricted to Fix(g), written in the sector coordinates.  The fix
    basis has an identity block at `free_rows`, so only those rows of h
    times each column are needed, and zero entries of a column are skipped.
    A column whose only nonzero entry is a 1 at row i is read as row[i]."""
    support = []  # per column: its nonzero rows, and their values unless it is a unit column
    for col in sector.fix_basis:
        idx = [i for i, v in enumerate(col) if v]
        unit = len(idx) == 1 and col[idx[0]].is_one()
        support.append((idx, None if unit else [col[i] for i in idx]))
    return tuple(
        tuple(
            row[idx[0]] if vals is None else CycNum.dot([row[i] for i in idx], vals)
            for idx, vals in support
        )
        for row in (h.rows[r] for r in sector.free_rows)
    )


def _charpoly(matrix) -> list[CycNum]:
    """Coefficients [1, c_1, ..., c_k] of det(t - M) = t^k + c_1 t^(k-1) +
    ... + c_k for a nonempty square M: c_i is (-1)^i times the sum of the
    principal i x i minors.  `linalg.det` expands minors up to 3 x 3 by
    cofactors, so a sector of a plane curve inverts no field element."""
    k = len(matrix)
    zero = CycNum.zero(matrix[0][0].conductor)
    coeffs = [CycNum.one(zero.conductor)]
    for i in range(1, k + 1):
        subsets = combinations(range(k), i)
        c = sum((linalg.det([[matrix[r][j] for j in s] for r in s]) for s in subsets), zero)
        coeffs.append(-c if i % 2 else c)
    return coeffs


def _times_sparse(series: list[CycNum], terms: dict[int, CycNum]) -> list[CycNum]:
    """series * sum_e terms[e] s^e, truncated to the length of series."""
    out = [CycNum.zero(series[0].conductor)] * len(series)
    for e, c in terms.items():
        if c:
            for n in range(len(series) - e):
                if series[n]:
                    out[n + e] = out[n + e].addmul(series[n], c)
    return out


def _graded_trace(det_h: CycNum, binv, weights: Sequence[int], total: int, top: int) -> tuple:
    """Coefficients 0..top of the graded trace of h on a sector, given
    det(h) and B = h^-1|Fix(g) in sector coordinates of the given weights.

    B must preserve the weight spaces (GradingError otherwise); that check
    runs on every call, before the memo of `_trace_series` is consulted."""
    k = len(binv)
    for r in range(k):
        if any(v and weights[c] != weights[r] for c, v in enumerate(binv[r])):
            raise GradingError(
                "a centralizing element mixes sector coordinates of different weights"
            )
    blocks: dict[int, list[int]] = {}
    for r in range(k):
        blocks.setdefault(weights[r], []).append(r)
    charpolys = tuple(
        (w, tuple(_charpoly([[binv[r][c] for c in idx] for r in idx])))
        for w, idx in blocks.items()
    )
    return _trace_series(det_h, charpolys, total, top)


@lru_cache(maxsize=None)
def _trace_series(det_h: CycNum, charpolys: tuple, total: int, top: int) -> tuple:
    """The series part of `_graded_trace`: it depends on h only through
    det(h) and the characteristic polynomial of each weight-w block of B,
    given as ((w, chi_w), ...).

    Memoized per process by (det h, ((w, chi_w), ...), total, top), all
    compared by value, so elements of equal determinant and block
    characteristic polynomials, in any sector of any group, share one
    series.  Memory grows with the number of distinct keys seen."""
    conductor = det_h.conductor
    k = sum(len(chi) - 1 for _, chi in charpolys)
    zero, one = CycNum.zero(conductor), CycNum.one(conductor)
    num = [det_h if k % 2 == 0 else -det_h] + [zero] * top
    den = [one] + [zero] * top
    for w, chi in charpolys:
        m = len(chi) - 1
        num = _times_sparse(num, {(total - w) * (m - i): v for i, v in enumerate(chi)})
        den = _times_sparse(den, {w * i: v for i, v in enumerate(chi)})
    trace: list[CycNum] = []
    for n in range(top + 1):
        v = num[n]
        for i in range(1, n + 1):
            if den[i] and trace[n - i]:
                v = v.addmul(-den[i], trace[n - i])
        trace.append(v)
    return tuple(trace)


def invariant_degree_dims(
    group, sector, centralizer: Sequence[int], zgens: Sequence[int]
) -> tuple[int, ...]:
    """Dimension of the Z(g)-invariants of the sector in each weighted
    degree 0..top, Z(g) given by its element indices and generators.

    Raises CharacterError unless every average is a non-negative integer
    and the dimensions read the same from degree top down: the residue
    pairing of an admissible group pairs degree n with degree top - n."""
    weights, conductor = sector.weights, group.conductor
    graded_dims = hilbert_dims(weights)
    top = len(graded_dims) - 1
    inverse = group.inverse_index()
    sums = [CycNum.from_rational(n, conductor) for n in graded_dims]
    for rep, members in group.class_orbits(centralizer, zgens):
        if rep == 0:
            continue  # the identity's trace is the Hilbert series: sums' start
        h = group.elements[rep]
        binv = restriction_matrix(group.elements[inverse[rep]], sector)
        trace = _graded_trace(h.det, binv, weights.weights, weights.total, top)
        scale = CycNum.from_rational(len(members), conductor)
        sums = [s.addmul(scale, t) if t else s for s, t in zip(sums, trace)]
    dims = []
    for n, s in enumerate(sums):
        q = s.as_rational() / len(centralizer) if s.is_rational() else None
        if q is None or q.denominator != 1 or q < 0:
            raise CharacterError(
                f"degree {n}: the character average {s}/{len(centralizer)} "
                "is not a non-negative integer"
            )
        dims.append(int(q))
    if dims != dims[::-1]:
        raise CharacterError(
            f"invariant dimensions {tuple(dims)} by degree 0..{top} are not palindromic"
        )
    return tuple(dims)
