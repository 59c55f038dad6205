"""Exact linear-system solving over rationals, on integer rows.

Sparse Gaussian elimination with back substitution.  A system is given
as rows of ``(column, coefficient)`` pairs with ``int`` coefficients and
right-hand sides; the caller scales each rational row to integers
(``chains.reach_probability`` multiplies a row by the lcm of its
probability denominators).  Each row is divided by the gcd of its
entries and right-hand side, and elimination runs on integers.

Columns are eliminated in order.  The pivot for a column is the
remaining row holding it with the fewest nonzeros, the lowest row index
breaking ties; exactness never depends on the pivot choice, the rule
just keeps fill low and is deterministic.  A row holding the pivot
row's column is updated fraction-free, ``row_r <- (a_p/g) row_r -
(a_r/g) row_p`` with ``g = gcd(a_p, a_r)``, then divided by the gcd of
its entries and right-hand side.  Each integer row is a nonzero
multiple of the row rational elimination would hold, so the nonzero
pattern, the pivots and the solution are the same, but no ``Fraction``
is made per update.  A column-to-rows index finds the pivot and the
rows to eliminate, and follows fill and cancellation, so no step scans
a whole row or column.  Back substitution carries each unknown as an
integer (numerator, denominator) pair and makes one ``Fraction`` per
unknown at the end.

No iterative methods: downstream threshold comparisons are strict
versus non-strict and must be decided exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InternalInvariantError


class SingularMatrixError(InternalInvariantError):
    """The reduced system was singular.

    Callers eliminate zero-probability states graph-theoretically before
    solving, which guarantees a nonsingular system; reaching this error
    therefore signals an internal bug.
    """


def _integer_row(row: Sequence[tuple[int, int]], value: int,
                 r: int, n: int) -> tuple[dict[int, int], int]:
    """Row r as primitive integers: divided by the gcd of its entries and
    right-hand side."""
    entries = dict(row)
    if len(entries) != len(row):
        raise InternalInvariantError(f"row {r} repeats a column")
    for v in (*entries.values(), value):
        if type(v) is not int:
            raise InternalInvariantError(
                f"row {r} holds a {type(v).__name__}; rows must be scaled to int")
    if 0 in entries.values():
        raise InternalInvariantError(f"row {r} has a zero coefficient")
    if entries and (min(entries) < 0 or max(entries) >= n):
        raise InternalInvariantError(f"row {r} has a column outside 0..{n - 1}")
    g = gcd(value, *entries.values())
    if g > 1:
        entries = {c: v // g for c, v in entries.items()}
        value //= g
    return entries, value


def solve_linear_system(rows: Sequence[Sequence[tuple[int, int]]],
                        rhs: Sequence[int]) -> list[Fraction]:
    """Solve ``rows @ x = rhs`` exactly; raises SingularMatrixError.

    A row count other than the right-hand side's, a repeated column, a
    column out of range, a zero coefficient, or a number that is not an
    ``int`` (a ``Fraction`` included) raises InternalInvariantError.  The
    arguments are left unchanged.
    """
    n = len(rhs)
    if len(rows) != n:
        raise InternalInvariantError(f"{len(rows)} rows for {n} right-hand sides")
    a: list[dict[int, int]] = []
    b: list[int] = []
    for r, (row, value) in enumerate(zip(rows, rhs)):
        entries, value = _integer_row(row, value, r, n)
        a.append(entries)
        b.append(value)
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
        rest = [(c, v) for c, v in pivot_row.items() if c != col]
        bp = b[p]
        for r in holders[col]:
            row = a[r]
            factor = row.pop(col)
            g = gcd(pivot, factor)
            keep, take = pivot // g, factor // g
            if keep != 1:
                for c in row:
                    row[c] *= keep
            for c, v in rest:
                if c not in row:
                    row[c] = -take * v
                    holders[c].add(r)
                    continue
                entry = row[c] - take * v
                if entry:
                    row[c] = entry
                else:
                    del row[c]
                    holders[c].discard(r)
            value = keep * b[r] - take * bp
            g = gcd(value, *row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
                value //= g
            b[r] = value
    num = [0] * n
    den = [1] * n
    for col, p in reversed(pivots):
        acc, acc_den = b[p], 1
        for c, v in a[p].items():
            if c != col and num[c]:
                d = den[c]
                if d == acc_den:
                    acc -= v * num[c]
                else:
                    common = lcm(acc_den, d)
                    acc = acc * (common // acc_den) - v * num[c] * (common // d)
                    acc_den = common
        acc_den *= a[p][col]
        g = gcd(acc, acc_den)
        num[col], den[col] = acc // g, acc_den // g
    return [Fraction(x, d) for x, d in zip(num, den)]
