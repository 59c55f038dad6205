"""Exact linear-system solving over rationals.

Plain Gaussian elimination with back substitution.  The pivot within a
column is the remaining row whose entry maximises |numerator *
denominator|; exactness never depends on the pivot choice, the rule
just keeps intermediate fractions small and is deterministic.

No iterative methods: downstream threshold comparisons are strict
versus non-strict and must be decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InternalInvariantError

ZERO = Fraction(0)


class SingularMatrixError(InternalInvariantError):
    """The reduced system was singular.

    Callers eliminate zero-probability states graph-theoretically before
    solving, which guarantees a nonsingular system; reaching this error
    therefore signals an internal bug.
    """


def solve_linear_system(matrix: Sequence[Sequence[Fraction]],
                        rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve ``matrix @ x = rhs`` exactly; raises SingularMatrixError."""
    n = len(rhs)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
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
