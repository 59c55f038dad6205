"""Exact linear-system solving over rationals.

Sparse Gaussian elimination with back substitution.  A system is given
as rows of ``(column, coefficient)`` pairs, the shape of
``chains.Rows``, with no zero coefficients and no repeated column.
Columns are eliminated in order.  The pivot for a column is the
remaining row holding it with the fewest nonzeros, the lowest row index
breaking ties; exactness never depends on the pivot choice, the rule
just keeps fill low and is deterministic.  A column-to-rows index finds
the pivot and the rows to eliminate, and follows fill and cancellation,
so no step scans a whole row or column.

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


def solve_linear_system(rows: Sequence[Sequence[tuple[int, Fraction]]],
                        rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve ``rows @ x = rhs`` exactly; raises SingularMatrixError.

    The arguments are left unchanged.
    """
    n = len(rhs)
    a = [dict(row) for row in rows]
    b = list(rhs)
    holders: list[set[int]] = [set() for _ in range(n)]
    for r, row in enumerate(a):
        for c in row:
            holders[c].add(r)
    pivots = []
    for col in range(n):
        if not holders[col]:
            raise SingularMatrixError(f"singular system (column {col})")
        p = min(holders[col], key=lambda r: (len(a[r]), r))
        pivot_row = a[p]
        for c in pivot_row:
            holders[c].discard(p)
        pivots.append((col, p))
        pivot = pivot_row[col]
        for r in holders[col]:
            row = a[r]
            ratio = row.pop(col) / pivot
            for c, v in pivot_row.items():
                if c == col:
                    continue
                if c not in row:
                    row[c] = -ratio * v
                    holders[c].add(r)
                    continue
                entry = row[c] - ratio * v
                if entry:
                    row[c] = entry
                else:
                    del row[c]
                    holders[c].discard(r)
            if b[p]:
                b[r] -= ratio * b[p]
    x = [ZERO] * n
    for col, p in reversed(pivots):
        acc = b[p]
        for c, v in a[p].items():
            if c != col:
                acc -= v * x[c]
        x[col] = acc / a[p][col]
    return x
