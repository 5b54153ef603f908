"""Integer row reduction over nonzeros: exact (Bareiss) and modulo a prime.

Exact ranks, nullspaces and determinants come from `echelon` or from a
pass modulo a prime whose reduced form is lifted and certified
(`row_space`, which falls back to `echelon`). One-step Bareiss keeps every
intermediate entry an integer minor of the input, so no rational
arithmetic is needed until the caller back-substitutes.

Beside each row the kernel keeps the set of columns that may be nonzero (a
superset of the row's support). A step updates an eliminated row only over
its own columns and the pivot row's, and rescales any other row below the
pivot only over its own; every other cell is zero before and after the step.
The arithmetic on the cells it visits is the textbook update, so the result
is the same integers the dense loop produces.

`independent_rows_mod_p` is the one pass modulo a prime. Reducing an
integer matrix modulo a prime can only lose rank (every minor that vanishes
over the integers vanishes mod P), so rows that are independent mod P are
independent over the rationals. Entries are taken mod P = 2**61 - 1, one
fixed prime, so no intermediate grows the way Bareiss minors do. The kept
rows are held reduced, each pivoted on the leftmost column of what is left
of it, and beside them an index from each column to the kept rows that
hold it, so a new pivot is cleared from those rows only (the bookkeeping of
structured Gaussian elimination, LaMacchia and Odlyzko 1990). Once the
rows found dependent have cost the pass _FINGERPRINT_CELLS cells, it reads
every further row first through one fixed linear functional of the row's
remainder modulo the kept rows, held as a weight per column (a fingerprint
in the spirit of Freivalds 1977 and Schwartz 1980). A dependent row has
remainder zero, so it is skipped for one dot product; a row the functional
does not vanish on is reduced and kept as before. So the kept rows are
independent mod P, and they are the rows, reduced the same way, that a
pass reducing every row keeps, unless the functional vanishes on the
nonzero remainder of some row. Their count is at most min(bound, rank mod
P), equal to it but for that, and is always a lower bound for the rank.
The pass returns the reduced rows too: they are the reduced row-echelon
form, mod P, of the rows it kept.

`row_space` turns that basis into the exact row space. Each entry of the
reduced form is a rational n/d; when |n| and d are at most about 2**30 it
is the one fraction that small with the entry's residue (rational
reconstruction, Wang, Guy and Davenport 1982). Most entries of a row share
its common denominator, so the extended Euclidean algorithm runs only on
an entry that the denominator found so far does not already give. The
reconstructed rows are checked in integers to span every input row,
including every row the pass skipped: with reduced rows red_k, pivot
columns p_k, pivots piv_k and L = lcm(piv_k), a row x lies in their span
exactly when L * x[j] = sum_k x[p_k] * (L / piv_k) * red_k[j] on every
non-pivot column j. On dense rows those sums are packed, one slot of
bits per column (`pack_width`). When every row passes, the r
reconstructed rows are the reduced form over Q: the rank is at least r,
since the kept rows are independent mod P, and at most r, since every row
lies in their span. When an entry has no reconstruction, or a row fails
the check (P divides a minor the rank needs, an entry is too large to
reconstruct, or the functional skipped an independent row), the rows kept
mod P are eliminated exactly by Bareiss and continued to the reduced form,
the same check is made on every other row, and when it fails again every
row is eliminated. `koszul.cohomology` pairs the lower bound with an upper
bound from delta² = 0 and calls `row_space` only where the two differ.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul

P = 2 ** 61 - 1
# Numerators and denominators up to this bound reconstruct uniquely from
# their residue mod P: 2 * _HALF**2 < P.
_HALF = isqrt((P - 1) // 2)
# The functional of `independent_rows_mod_p` weighs column j by
# lambda_j = _LAMBDA**j mod P, powers of one fixed residue read by no seed
# or option. The pass builds it once the rows it found dependent have cost
# _FINGERPRINT_CELLS cells (each its length times the columns its
# reduction touched): on sparse rows, or rows mostly independent, a
# reduction costs about what the functional would, and the weights are
# never built. Below that count, and below the rules of `pack_width`, the
# plain loops were faster on the benchmark's systems
# (BENCH_row_fingerprint.json).
_LAMBDA = 0x9E3779B97F4A7C15 % P
_FINGERPRINT_CELLS = 256
_PACK_MIN_ROW = 2
_PACK_CELLS = 128
_PACK_BITS = 1024


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


def reduced_echelon(rows: list[list[int]]
                    ) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Reduced row-echelon form of an integer matrix, fraction-free.

    Returns (rows, pivot_columns, supports): one row per pivot, nonzero at
    its own pivot column and zero at every other, and the columns where it
    is nonzero. `echelon` runs first; back-substitution then stays in
    integers: clearing pivot column c from a row above combines it with the
    pivot row, visiting only rows that hold c and only their nonzero
    columns, then divides out the row's content.
    """
    ech, pivots, _ = echelon(rows)
    red = ech[:len(pivots)]
    support = [[j for j, x in enumerate(row) if x] for row in red]
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        row_i = red[i]
        piv = row_i[c]
        for t in range(i):
            row_t = red[t]
            f = row_t[c]
            if not f:
                continue
            g = gcd(piv, f)
            a, b = piv // g, f // g
            cols = set(support[t]).union(support[i])
            for j in cols:
                row_t[j] = a * row_t[j] - b * row_i[j]
            nz = [j for j in cols if row_t[j]]
            content = gcd(*(row_t[j] for j in nz))
            if content > 1:
                for j in nz:
                    row_t[j] //= content
            support[t] = nz
    return red, pivots, support


def independent_rows_mod_p(rows, bound: int
                           ) -> tuple[list[int], dict[int, dict[int, int]]]:
    """Sparse integer rows independent modulo P, at most `bound` of them:
    (positions, basis).

    `rows` yields dicts {column: integer}, read in order. The kept rows are
    held reduced: each is 1 at its own pivot column, the leftmost column
    left after reduction, and 0 at every other pivot column, so a new row
    is reduced by one subtraction per pivot column it holds, and what is
    left, if anything, is the next pivot row. `holders` maps each column to
    the pivots of the kept rows holding it, so the new pivot column is
    cleared from those alone. Entries are reduced mod P where they are read
    rather than after every update, and each sum the new row accumulates
    once; they stay a few words long. Stops as soon as `bound` rows are
    kept.

    Once the rows that reduced to zero have cost _FINGERPRINT_CELLS cells,
    each further row x is first read through the functional y(x) = sum_j
    lambda_j r_j of its remainder r modulo the kept rows. That is y(x) =
    sum_j x_j w_j (`_Weights`), w_c = -sum_f lambda_f rest_c[f] at a pivot
    column c and lambda_j at any other column; a new pivot column c moves
    the weight of each kept row holding f at c by f (lambda_c - w_c). A row
    with y(x) = 0 is skipped for that one dot product; any other row has a
    nonzero remainder and is reduced and kept as above. So the kept rows
    are independent mod P, and their count is at most min(bound, rank mod
    P): equal to it, with the positions and reduced rows of a pass that
    reduces every row, unless y vanishes on the nonzero remainder of some
    row. Either way the count is a lower bound for the rank over the
    rationals, and that is how every caller reads it: `linalg._reduce`
    takes the identity only at ncols rows and certifies any other count by
    `row_space`, `spaces.independent` ranks exactly where it falls short,
    `cohomology._nondegenerate` falls back to the complex, and
    `cohomology._certified_ranks` uses it as the lower bound l_q.

    `basis` maps each pivot column to the rest of its row, {column: value},
    each value congruent mod P to that entry of the reduced row-echelon
    form mod P of the kept rows.
    """
    kept: list[int] = []
    basis: dict[int, dict[int, int]] = {}   # pivot column -> rest of its row
    if bound <= 0:
        return kept, basis
    holders: dict[int, list[int]] = {}   # column -> pivots whose rests hold it
    weights = None   # of the functional, once dependent rows cost enough
    spent = 0   # cells the dependent rows' reductions touched
    for pos, row in enumerate(rows):
        if weights is not None and not sum(
                map(mul, row.values(), map(weights.__getitem__, row))) % P:
            continue
        acc: dict[int, int] = {}
        for c, x in row.items():
            b = basis.get(c)
            if b is None:
                acc[c] = acc.get(c, 0) + x
            else:
                x %= P
                for j, v in b.items():
                    acc[j] = acc.get(j, 0) - x * v
        r = {j: y for j, x in acc.items() if (y := x % P)}
        if not r:
            spent += len(row) * len(acc)
            if spent >= _FINGERPRINT_CELLS:
                weights = _Weights(basis)
            continue
        c = min(r)
        inv = pow(r.pop(c), -1, P)
        new = {j: x * inv % P for j, x in r.items()}
        if weights is not None:
            # c leaves the free columns: w_c, and each holder's w moves by
            # f (lambda_c - w_c) as f times the new row leaves its rest
            w_c = -sum(map(mul, new.values(),
                           map(weights.__getitem__, new))) % P
            step = weights[c] - w_c
            weights[c] = w_c
        for p in holders.pop(c, ()):
            b = basis[p]
            f = b.pop(c) % P
            if f:
                if weights is not None:
                    weights[p] = (weights[p] + f * step) % P
                for j, v in new.items():
                    if j in b:
                        b[j] -= f * v
                    else:
                        b[j] = -f * v
                        holders.setdefault(j, []).append(p)
        for j in new:
            holders.setdefault(j, []).append(c)
        basis[c] = new
        kept.append(pos)
        if len(kept) == bound:
            break
    return kept, basis


_POWERS = [1]   # lambda_j = _LAMBDA**j mod P, extended on demand


class _Weights(dict):
    """The weights w_j of the functional y(x) = sum_j x_j w_j of
    `independent_rows_mod_p`, by column, built from its reduced rows:
    w_c = -sum_f lambda_f rest_c[f] at each pivot column c, and lambda_j,
    set on first read, at every other column j."""

    __slots__ = ()

    def __init__(self, basis: dict[int, dict[int, int]]):
        super().__init__()
        for c, rest in basis.items():
            self[c] = -sum(map(mul, rest.values(),
                               map(self.__getitem__, rest))) % P

    def __missing__(self, j: int) -> int:
        powers = _POWERS
        while len(powers) <= j:
            powers.append(powers[-1] * _LAMBDA % P)
        w = self[j] = powers[j]
        return w


def pack_width(rows: int, nonzeros: int, reads: int, slots,
               *bounds) -> int:
    """The slot width W with which sums of multiples of `rows` sparse rows
    holding `nonzeros` nonzeros, `reads` multiples in all, are packed: each
    row one integer sum_j x_j 2^(W s_j) over `slots()` slots s_j
    (Kronecker substitution), so a multiple costs one multiply-add. 0, for
    the loop over the nonzeros, when the rows hold none or average fewer
    than _PACK_MIN_ROW, when that loop would visit fewer than _PACK_CELLS
    cells, or when a packed row would spend more than _PACK_BITS bits per
    nonzero. The product of `bounds()` bounds |slot| for every sum; W is
    the sum of their bit lengths, so 2^W exceeds it, and a packed sum is
    zero exactly when every slot is: its lowest nonzero slot would show in
    that slot's bits. Each callable is taken only while the rows still
    qualify."""
    if (not nonzeros or nonzeros < _PACK_MIN_ROW * rows
            or reads * nonzeros < _PACK_CELLS * rows):
        return 0
    slots, width = slots(), 0
    for bound in bounds:
        width += bound().bit_length()
        if slots * width * rows > _PACK_BITS * nonzeros:
            return 0
    return width


def _rational(u: int) -> tuple[int, int] | None:
    """(n, d) with d > 0, gcd(n, d) = 1, |n| and d at most _HALF, and n
    congruent to u * d mod P, or None when no such fraction exists: Wang's
    rational reconstruction, the extended Euclidean algorithm on (P, u)
    stopped at the first remainder no larger than _HALF."""
    r0, r1 = P, u % P
    t0, t1 = 0, 1
    while r1 > _HALF:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _HALF or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(basis: dict[int, dict[int, int]], ncols: int):
    """(rows, pivots, supports) of integer rows whose entries over their
    pivots reconstruct the mod-P reduced rows `basis` (as returned by
    `independent_rows_mod_p`), or None when an entry has no
    reconstruction. Each row is scaled by the lcm D of its denominators,
    found as the row is read: while D <= _HALF, an entry v with N = D v
    mod P at most _HALF in absolute value (taken in the symmetric range)
    is N / D, the one fraction that small with that residue (2 _HALF**2 <
    P); any other entry is reconstructed on its own (`_rational`) and D
    becomes the lcm with its denominator."""
    red, pivots, support = [], [], []
    for c in sorted(basis):
        scale, rest = 1, []
        for j, v in basis[c].items():
            n = scale * v % P
            if not n:
                continue
            if n > P - n:
                n -= P
            if abs(n) <= _HALF and scale <= _HALF:
                rest.append((j, n, scale))
                continue
            nd = _rational(v)
            if nd is None:
                return None
            rest.append((j, *nd))
            scale = lcm(scale, nd[1])
        row = [0] * ncols
        row[c] = scale
        for j, n, d in rest:
            row[j] = n * (scale // d)
        red.append(row)
        pivots.append(c)
        support.append([c] + [j for j, _, _ in rest])
    return red, pivots, support


def row_space(rows: list[dict[int, int]], ncols: int, kept, basis
              ) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """The reduced row-echelon form of the sparse integer rows (dicts
    {column: integer}, columns below ncols), as `reduced_echelon` gives it
    up to a nonzero factor per row: (rows, pivot_columns, supports).

    (kept, basis) is `independent_rows_mod_p(rows, bound)` for any bound.
    The reconstructed basis is returned when every row lies in its span;
    else the rows at positions `kept` are eliminated by Bareiss, and every
    row when another row does not lie in their span (module docstring).
    """
    lifted = _lift(basis, ncols)
    if lifted is not None and _spans(*lifted, rows):
        return lifted

    def reduce(chosen):
        return reduced_echelon([[row.get(j, 0) for j in range(ncols)]
                                for row in chosen])

    keep = set(kept)
    red, pivots, support = reduce(rows[i] for i in kept)
    dropped = [row for i, row in enumerate(rows) if i not in keep]
    if dropped and not _spans(red, pivots, support, dropped):
        # P divides a minor: the rank mod P fell short of the rank
        red, pivots, support = reduce(rows)
    return red, pivots, support


def _spans(red, pivots, support, rows) -> bool:
    """True when every sparse integer row lies in the row space of the
    reduced rows `red`, checked in integers over the rows' nonzeros.

    With L = lcm(piv_k), a row x lies in that span exactly when L x[j] =
    sum_k x[p_k] (L / piv_k) red_k[j] on every non-pivot column j (at a
    column no reduced row holds, when x[j] = 0). The difference is summed
    into one dict by column, or, on rows dense enough (`pack_width`), into
    one integer with a slot per non-pivot column of the reduced rows and
    the rows, each reduced row times L / piv_k packed once; a slot sums to
    at most max|x| (L + sum_k |L / piv_k| max|red_k|) in absolute value.
    """
    scale = lcm(*(row[c] for row, c in zip(red, pivots)))
    rests = {c: (scale // row[c], [j for j in cols if j != c], row)
             for row, c, cols in zip(red, pivots, support)}
    width = pack_width(
        len(red), sum(map(len, support)) - len(red), len(rows),
        lambda: len(set(chain.from_iterable(support))) - len(red),
        lambda: scale + sum(abs(f) * max((abs(row[j]) for j in cols),
                                         default=0)
                            for f, cols, row in rests.values()),
        lambda: max(map(abs, chain.from_iterable(map(dict.values, rows))),
                    default=0))
    if width:
        slot = {j: width * s for s, j in enumerate(set(chain.from_iterable(
            support)).union(*rows).difference(pivots))}
        packed = {j: -scale << s for j, s in slot.items()}
        for c, (f, cols, row) in rests.items():
            packed[c] = f * sum(row[j] << slot[j] for j in cols)
        at = packed.__getitem__
        return not any(sum(map(mul, row.values(), map(at, row)))
                       for row in rows)
    for row in rows:
        acc: dict[int, int] = {}
        for j, x in row.items():
            hit = rests.get(j)
            if hit is None:
                acc[j] = acc.get(j, 0) - scale * x
                continue
            f, cols, red_k = hit
            f *= x
            for t in cols:
                acc[t] = acc.get(t, 0) + f * red_k[t]
        if any(acc.values()):
            return False
    return True


__all__ = ["P", "echelon", "independent_rows_mod_p", "pack_width",
           "reduced_echelon", "row_space"]
