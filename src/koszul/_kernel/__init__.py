"""Integer row reduction over nonzeros: exact (Bareiss) and modulo a prime.

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

`rank_mod_p` is the cheap half of a certified rank. Reducing an integer
matrix modulo a prime can only lose rank (every minor that vanishes over
the integers vanishes mod P), so its result is a lower bound; the caller
proves the bound exact from an upper bound of its own, or falls back to
`echelon` (see `koszul.cohomology`). Entries are taken mod P = 2**31 - 1,
one fixed prime, so no intermediate grows the way Bareiss minors do.
"""

from __future__ import annotations

P = 2 ** 31 - 1


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


def rank_mod_p(rows, bound: int) -> int:
    """Rank modulo P of sparse integer rows, counted no higher than `bound`.

    `rows` yields dicts {column: integer}. The rows found independent so
    far are kept reduced: each is 1 at its own pivot column and 0 at every
    other pivot column, so a new row is reduced by one subtraction per pivot
    column it holds, and what is left, if anything, is the next pivot row.
    Entries are reduced mod P where they are read rather than after every
    update; they stay a few words long. Stops as soon as the count reaches
    `bound`, so the result is min(bound, rank mod P), a lower bound for the
    rank over the rationals.
    """
    if bound <= 0:
        return 0
    basis: dict[int, dict[int, int]] = {}   # pivot column -> rest of its row
    for row in rows:
        acc: dict[int, int] = {}
        for c, x in row.items():
            b = basis.get(c)
            if b is None:
                acc[c] = acc.get(c, 0) + x
            else:
                x %= P
                for j, v in b.items():
                    acc[j] = acc.get(j, 0) - x * v
        r = {j: x % P for j, x in acc.items() if x % P}
        if not r:
            continue
        c, x = r.popitem()
        inv = pow(x, -1, P)
        new = {j: x * inv % P for j, x in r.items()}
        for b in basis.values():
            f = b.pop(c, 0) % P
            if f:
                for j, v in new.items():
                    b[j] = b.get(j, 0) - f * v
        basis[c] = new
        if len(basis) == bound:
            break
    return len(basis)


__all__ = ["P", "echelon", "rank_mod_p"]
