import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obg.errors import InternalInvariantError
from obg.linalg import SingularMatrixError, solve_linear_system

ZERO = F(0)
BIG = 10**30

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
big_integers = st.integers(-BIG, BIG)
big_fractions = st.builds(F, big_integers, st.integers(1, BIG))
exact = {"fraction": big_fractions, "integer": big_integers,
         "mixed": st.one_of(big_integers, big_fractions)}


def dense_solve(matrix, rhs):
    """The dense solver ``obg.linalg`` used before it went sparse, kept as the oracle.

    Gaussian elimination on a full matrix of ``Fraction``s (``int``
    entries are converted); the pivot within a column is the remaining
    row whose entry maximises |numerator * denominator|.
    """
    n = len(rhs)
    a = [[F(x) for x in row] + [F(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = None
        pivot_weight = -1
        for r in range(col, n):
            entry = a[r][col]
            if entry:
                weight = abs(entry.numerator * entry.denominator)
                if weight > pivot_weight:
                    pivot_weight = weight
                    pivot_row = r
        if pivot_row is None:
            raise SingularMatrixError(f"singular system (column {col})")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col]
            if not factor:
                continue
            ratio = factor / pivot
            row_r = a[r]
            row_c = a[col]
            for k in range(col, n + 1):
                if row_c[k]:
                    row_r[k] -= ratio * row_c[k]
    x = [ZERO] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n]
        row = a[i]
        for k in range(i + 1, n):
            if row[k]:
                acc -= row[k] * x[k]
        x[i] = acc / row[i]
    return x


def sparse(matrix):
    return [tuple((c, x) for c, x in enumerate(row) if x) for row in matrix]


def integer_rows(rows, rhs):
    """Rational sparse rows and right-hand sides as the solver takes them:
    each row and its right-hand side scaled to integers by the lcm of
    their denominators, as ``chains.reach_probability`` scales its rows."""
    scaled_rows, scaled_rhs = [], []
    for row, value in zip(rows, rhs):
        scale = math.lcm(F(value).denominator, *(F(x).denominator for _, x in row))
        scaled_rows.append(tuple((c, int(x * scale)) for c, x in row))
        scaled_rhs.append(int(value * scale))
    return scaled_rows, scaled_rhs


def dense(rows, n):
    matrix = [[ZERO] * n for _ in range(n)]
    for r, row in enumerate(rows):
        for c, x in row:
            matrix[r][c] = x
    return matrix


def test_small_system():
    # x + y = 1, x - y = 1/3
    solution = solve_linear_system(*integer_rows(
        [((0, F(1)), (1, F(1))), ((0, F(1)), (1, F(-1)))], [F(1), F(1, 3)]))
    assert solution == [F(2, 3), F(1, 3)]


def test_singular_system_is_detected():
    with pytest.raises(SingularMatrixError):
        solve_linear_system(*integer_rows([((0, F(1)), (1, F(1))), ((0, F(2)), (1, F(2)))],
                                          [F(1), F(2)]))


def test_empty_row_is_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear_system(*integer_rows([((0, F(1)), (1, F(1))), ()], [F(1), F(0)]))


def test_proportional_rows_are_singular():
    rows = [((0, F(1)),),
            ((1, F(2)), (2, F(-1, 3))),
            ((1, F(-6)), (2, F(1)))]
    with pytest.raises(SingularMatrixError):
        solve_linear_system(*integer_rows(rows, [F(1), F(1), F(-3)]))


def test_arguments_are_left_unchanged():
    rows = [((0, F(1)), (1, F(-1, 2))),
            ((0, F(-1, 3)), (1, F(1)), (2, F(-1, 3))),
            ((1, F(-1, 2)), (2, F(1)))]
    rows, rhs = integer_rows(rows, [F(1, 2), F(1, 3), F(0)])
    rows_before = [tuple(row) for row in rows]
    rhs_before = list(rhs)
    solution = solve_linear_system(rows, rhs)
    assert rows == rows_before and rhs == rhs_before
    assert solution == dense_solve(dense(rows, 3), rhs)


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(rationals, min_size=n, max_size=n))))
def test_solution_satisfies_system_when_nonsingular(data):
    matrix, x = data
    rhs = [sum(row[j] * x[j] for j in range(len(x))) for row in matrix]
    try:
        solution = solve_linear_system(*integer_rows(sparse(matrix), rhs))
    except SingularMatrixError:
        return
    recomputed = [sum(row[j] * solution[j] for j in range(len(x))) for row in matrix]
    assert recomputed == rhs


def random_sparse_system(rng: random.Random, n: int, shape: str, draw=None):
    """A random nonsingular n x n matrix of the given sparsity shape, and a right-hand side.

    ``banded`` keeps entries within distance 2 of the diagonal,
    ``permuted`` is a banded matrix with its rows and columns shuffled,
    and ``scattered`` puts up to two off-diagonal entries anywhere in
    each row.  A strictly dominant diagonal (before any shuffle) makes
    every matrix nonsingular.  ``draw(rng)`` gives a nonzero entry; by
    default a small fraction.
    """
    if draw is None:
        values = [F(k, d) for k in range(-4, 5) if k for d in (1, 2, 3, 7)]
        draw = lambda rng: rng.choice(values)  # noqa: E731
    matrix = [[0] * n for _ in range(n)]
    for r in range(n):
        if shape == "scattered":
            cols = {rng.randrange(n) for _ in range(2)}
        else:
            cols = {c for c in range(r - 2, r + 3) if 0 <= c < n and rng.random() < 0.7}
        cols.discard(r)
        for c in cols:
            matrix[r][c] = draw(rng)
        margin = abs(draw(rng))
        matrix[r][r] = rng.choice((1, -1)) * (sum(abs(x) for x in matrix[r]) + margin)
    if shape == "permuted":
        row_order = list(range(n))
        col_order = list(range(n))
        rng.shuffle(row_order)
        rng.shuffle(col_order)
        matrix = [[matrix[r][c] for c in col_order] for r in row_order]
    rhs = [draw(rng) if rng.random() < 0.8 else 0 for _ in range(n)]
    return matrix, rhs


def big_entry(kind: str):
    """A nonzero entry whose numerator and denominator reach 10**30."""
    def draw(rng: random.Random):
        numerator = rng.choice((1, -1)) * rng.randint(1, BIG)
        if kind == "integer" or (kind == "mixed" and rng.random() < 0.5):
            return numerator
        return F(numerator, rng.randint(1, BIG))
    return draw


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60),
       st.sampled_from(["banded", "permuted", "scattered"]))
def test_sparse_solver_agrees_with_dense_oracle(seed, n, shape):
    matrix, rhs = random_sparse_system(random.Random(seed), n, shape)
    assert solve_linear_system(*integer_rows(sparse(matrix), rhs)) == dense_solve(matrix, rhs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 25),
       st.sampled_from(["banded", "permuted", "scattered"]),
       st.sampled_from(sorted(exact)))
def test_large_integer_and_mixed_rows_agree_with_dense_oracle(seed, n, shape, kind):
    matrix, rhs = random_sparse_system(random.Random(seed), n, shape, big_entry(kind))
    assert solve_linear_system(*integer_rows(sparse(matrix), rhs)) == dense_solve(matrix, rhs)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(exact)).flatmap(lambda kind: st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(exact[kind], min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(exact[kind], min_size=n, max_size=n)))))
def test_large_dense_systems_agree_with_dense_oracle(data):
    matrix, rhs = data
    try:
        expected = dense_solve(matrix, rhs)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            solve_linear_system(*integer_rows(sparse(matrix), rhs))
        return
    solution = solve_linear_system(*integer_rows(sparse(matrix), rhs))
    assert solution == expected
    assert all(type(x) is F for x in solution)


@pytest.mark.parametrize("rows, rhs, message", [
    ([((0, 1),)], [1, 2], "1 rows for 2 right-hand sides"),
    ([((0, 1), (0, 2))], [1], "repeats a column"),
    ([((0, 1), (1, 0)), ((1, 1),)], [1, 1], "zero coefficient"),
    ([((0, 2),), ((0, 1), (1, 0))], [1, 1], "zero coefficient"),
    ([((0, 0.5),)], [1], "holds a float"),
    ([((0, True),)], [1], "holds a bool"),
    ([((0, 1),)], [1.0], "holds a float"),
    ([((0, 1),)], [False], "holds a bool"),
    ([((0, 1),)], ["1"], "holds a str"),
    ([((0, 1), (-1, 1))], [1], "column outside"),
    ([((0, 1), (1, 1))], [1], "column outside"),
    ([((0, F(1)),)], [1], "holds a Fraction"),
    ([((0, 1),)], [F(1, 2)], "holds a Fraction"),
])
def test_malformed_systems_are_refused(rows, rhs, message):
    with pytest.raises(InternalInvariantError, match=message) as error:
        solve_linear_system(rows, rhs)
    assert not isinstance(error.value, SingularMatrixError)
