"""Fraction-free integer row reduction (one-step Bareiss) over nonzeros.

All exact rank / nullspace / determinant work in the package funnels through
`echelon`. One-step Bareiss keeps every intermediate entry an integer minor
of the input, so no rational arithmetic is needed until the caller
back-substitutes.

Beside each row the kernel keeps the set of columns that may be nonzero (a
superset of the row's support). A step updates an eliminated row only over
its own columns and the pivot row's, and rescales any other row below the
pivot only over its own; every other cell is zero before and after the step.
The arithmetic on the cells it visits is the textbook update, so the result
is the same integers the dense loop produces.
"""

from __future__ import annotations


def echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Row-echelon form of an integer matrix, fraction-free.

    Returns (echelon_rows, pivot_columns, swap_sign). Input is not mutated.
    The pivot of each column is the first row at or below the current one
    that is nonzero there. The k-th pivot entry is swap_sign times the k-th
    leading minor of the row-swapped matrix; for a square full-rank input
    the last pivot is swap_sign * det.
    """
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    support = [{j for j, x in enumerate(row) if x} for row in a]
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            support[r], support[p] = support[p], support[r]
            sign = -sign
        row_r = a[r]
        piv = row_r[c]
        # Rows at or below r are zero left of c, so only columns past c move.
        tail = [j for j in support[r] if j > c]
        for i in range(r + 1, nr):
            row_i = a[i]
            cols = support[i]
            cols.discard(c)
            aic = row_i[c]
            if aic:
                row_i[c] = 0
                cols.update(tail)
                for j in cols:
                    row_i[j] = (piv * row_i[j] - aic * row_r[j]) // prev
            elif piv != prev:
                for j in cols:
                    row_i[j] = piv * row_i[j] // prev
        prev = piv
        pivots.append(c)
        r += 1
    return a, pivots, sign


__all__ = ["echelon"]
