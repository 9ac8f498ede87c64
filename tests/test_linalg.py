import random
from fractions import Fraction

import pytest

from lgorb import linalg
from lgorb.errors import ShapeError, SingularMatrixError
from lgorb.exactnum import CycNum, zeta

from oracles import augmented_solve, dense_rref


def _rand_entry(rng, conductor=7):
    return CycNum.from_coeffs(conductor, [Fraction(rng.randint(-3, 3)) for _ in range(6)])


def _rand_matrix(rng, n, conductor=7):
    return [[_rand_entry(rng, conductor) for _ in range(n)] for _ in range(n)]


def test_rref_and_kernel_convention():
    one, zero = CycNum.one(7), CycNum.zero(7)
    two = CycNum.from_rational(2, 7)
    rows = [[one, two, one], [zero, zero, zero]]
    reduced, pivots = linalg.rref(rows)
    assert pivots == [0]
    basis, free = linalg.kernel_basis_with_free(rows)
    assert free == [1, 2]
    assert basis[0] == (-two, one, zero)
    assert basis[1] == (-one, zero, one)


def _sparse_entry(rng, conductor, density):
    """Zero with probability 1 - density, else a random field element
    whose power-basis coefficients are themselves half zero."""
    if rng.random() >= density:
        return CycNum.zero(conductor)
    phi = len(CycNum.zero(conductor).nums)
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(phi)]
    coeffs = [c if rng.random() < 0.5 else 0 for c in coeffs]
    coeffs[rng.randrange(phi)] = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
    return CycNum.from_coeffs(conductor, coeffs)


@pytest.mark.parametrize("conductor", [1, 7, 28])
def test_rref_matches_dense_oracle(conductor):
    """rref, which touches only the pivot row's support, equals the dense
    elimination entry for entry: sparse and dense matrices, each with a
    zero row, a zero column and a dependent row, with pivots sought in
    every column or only in a leading block (as for augmented systems)."""
    rng = random.Random(900 + conductor)
    zero = CycNum.zero(conductor)
    seen_deficient = 0
    for nrows, ncols in ((1, 1), (1, 4), (2, 3), (3, 3), (4, 6), (5, 4), (6, 8)):
        for density in (0.25, 0.6, 1.0):
            matrix = [
                [_sparse_entry(rng, conductor, density) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            if nrows > 1:
                matrix[rng.randrange(nrows)] = [zero] * ncols
            if ncols > 1:
                j = rng.randrange(ncols)
                for row in matrix:
                    row[j] = zero
            a, b = _sparse_entry(rng, conductor, 1.0), _sparse_entry(rng, conductor, 1.0)
            matrix.append([a * x + b * y for x, y in zip(matrix[0], matrix[-1])])
            frozen = [tuple(row) for row in matrix]
            for pivot_columns in (None, 0, ncols // 2, ncols):
                rows, pivots = linalg.rref(matrix, pivot_columns)
                expected_rows, expected_pivots = dense_rref(matrix, pivot_columns)
                assert pivots == expected_pivots
                assert rows == expected_rows
                seen_deficient += len(pivots) < min(len(matrix), ncols)
            assert [tuple(row) for row in matrix] == frozen
    assert seen_deficient
    assert linalg.rref([]) == dense_rref([]) == ([], [])


def test_det_agrees_with_leibniz_on_randoms():
    rng = random.Random(2)
    for _ in range(8):
        m = _rand_matrix(rng, 3)
        a, b, c = m[0]
        d, e, f = m[1]
        g, h, i = m[2]
        leibniz = (
            a * e * i + b * f * g + c * d * h - c * e * g - b * d * i - a * f * h
        )
        assert linalg.det(m) == leibniz


def test_det_4x4_elimination_path():
    z = zeta(7)
    one, zero = CycNum.one(7), CycNum.zero(7)
    m = [
        [one, zero, zero, zero],
        [zero, z, zero, zero],
        [zero, zero, one, one],
        [zero, zero, zero, one],
    ]
    assert linalg.det(m) == z


def test_invert_and_solve():
    rng = random.Random(4)
    for _ in range(6):
        m = _rand_matrix(rng, 3)
        if not linalg.det(m):
            continue
        inv = linalg.invert(m)
        prod = [
            [
                sum((m[i][k] * inv[k][j] for k in range(1, 3)), m[i][0] * inv[0][j])
                for j in range(3)
            ]
            for i in range(3)
        ]
        expect = [[CycNum.one(7) if i == j else CycNum.zero(7) for j in range(3)] for i in range(3)]
        assert prod == expect
    singular = [[CycNum.one(7), CycNum.one(7)], [CycNum.one(7), CycNum.one(7)]]
    with pytest.raises(SingularMatrixError):
        linalg.invert(singular)
    inconsistent = linalg.solve(
        [[CycNum.one(7)], [CycNum.one(7)]], [[CycNum.one(7), CycNum.from_rational(2, 7)]]
    )[0]
    assert inconsistent is None


def _mat_vec(matrix, x):
    return [sum((a * b for a, b in zip(row[1:], x[1:])), row[0] * x[0]) for row in matrix]


def _rand_system(rng, nrows, ncols, deficient):
    """A random matrix, rank-deficient on request (its last column is a
    combination of the others), and right-hand sides of every kind:
    consistent images A y, the zero column, and random columns, which are
    almost surely inconsistent when A is rank-deficient or tall."""
    matrix = [[_rand_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if deficient:
        a, b = _rand_entry(rng), _rand_entry(rng)
        for row in matrix:
            row[-1] = a * row[0] + b * row[1]
    zero = CycNum.zero(7)
    rhs = [_mat_vec(matrix, [_rand_entry(rng) for _ in range(ncols)]) for _ in range(3)]
    rhs.append([zero] * nrows)
    rhs += [[_rand_entry(rng) for _ in range(nrows)] for _ in range(2)]
    rng.shuffle(rhs)
    return matrix, rhs


@pytest.mark.parametrize("deficient", [False, True], ids=["full-rank", "rank-deficient"])
def test_multi_column_solve_matches_column_by_column(deficient):
    rng = random.Random(11 + deficient)
    shapes = [(3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (6, 4)]
    seen = {"consistent": 0, "inconsistent": 0}
    for nrows, ncols in shapes:
        matrix, rhs = _rand_system(rng, nrows, ncols, deficient)
        assert linalg.rank(matrix) == ncols - deficient
        solutions = linalg.solve(matrix, rhs)
        assert len(solutions) == len(rhs)
        for b, x in zip(rhs, solutions):
            assert x == augmented_solve(matrix, b)
            if x is None:
                seen["inconsistent"] += 1
            else:
                seen["consistent"] += 1
                assert _mat_vec(matrix, x) == b
        zero_column = [CycNum.zero(7)] * nrows
        assert linalg.solve(matrix, [zero_column]) == [[CycNum.zero(7)] * ncols]
        assert linalg.solve(matrix, []) == []
    assert seen["consistent"] and seen["inconsistent"]


def test_solve_rejects_right_hand_sides_of_the_wrong_length():
    one = CycNum.one(7)
    with pytest.raises(ShapeError):
        linalg.solve([[one], [one]], [[one]])


def test_kernel_form_basis_is_the_kernel_basis_of_the_span():
    """Random combinations of a kernel basis, in any order and with
    dependent extras, give back the basis of kernel_basis_with_free
    exactly; `stop` ends the scan early and leaves the rest of the iterator
    unread."""
    rng = random.Random(17)
    for nrows, ncols in ((1, 4), (2, 5), (3, 6), (1, 2)):
        matrix = [[_rand_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        matrix.append([v * 2 for v in matrix[0]])  # a dependent row
        expected, _ = linalg.kernel_basis_with_free(matrix)
        mixes = []
        for _ in range(len(expected) + 2):
            coeffs = [_rand_entry(rng) for _ in expected]
            mixes.append(
                tuple(
                    sum((c * v[j] for c, v in zip(coeffs, expected)), CycNum.zero(7))
                    for j in range(ncols)
                )
            )
        assert linalg.kernel_form_basis(mixes) == expected
        assert linalg.kernel_form_basis(reversed(expected)) == expected
        stream = iter(mixes + [None])  # None would fail if it were read
        assert linalg.kernel_form_basis(stream, len(expected)) == expected
    assert linalg.kernel_form_basis([]) == []
    zero = CycNum.zero(7)
    assert linalg.kernel_form_basis([(zero, zero)]) == []
