"""Exact rational linear algebra.

Dense matrices are sequences of rows of `fractions.Fraction`; rank,
determinant, echelon and nullspace scale each row to integers (which keeps
its row space and kernel) and run the fraction-free integer kernel
(`koszul._kernel`) on the nonzero entries only. A linear condition is a
sparse integer row {column: integer} (`koszul.spaces`), and so is a basis
vector: `integer_row` writes a rational vector as such a row over one
positive scale, the lcm of its denominators. `sparse_nullspace` solves
condition rows into their canonical kernel in that form, `sparse_row_space`
gives a reduced row-echelon basis in it and `sparse_rank` ranks rows;
`vectors` is the `Fraction` view of a basis, so `nullspace` and `rref` are
views over the same reduced forms.

A sparse system is reduced from one pass modulo a prime, whatever its
shape (`koszul._kernel.row_space`): its reduced form mod P is lifted to
small fractions and checked in integers to span every row, with Bareiss
elimination as the fallback. `rank`, `det`, `integer_inverse` and dense
systems with no more rows than columns eliminate every row directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from koszul._kernel import (echelon, independent_rows_mod_p, reduced_echelon,
                            row_space)

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(x) -> Fraction:
    """Coerce int / str 'p/q' / Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def mat(rows) -> Mat:
    return tuple(tuple(frac(x) for x in row) for row in rows)


def zeros(nr: int, nc: int) -> Mat:
    z = Fraction(0)
    return tuple(tuple(z for _ in range(nc)) for _ in range(nr))


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def transpose(a) -> Mat:
    return tuple(zip(*[tuple(r) for r in a])) if a else ()


def mat_add(a, b) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a) -> Mat:
    c = frac(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b) -> Mat:
    """a @ b, skipping zero entries of a and walking only b's row nonzeros."""
    ncols = len(b[0]) if b else 0
    brows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    zero = Fraction(0)
    out = []
    for row in a:
        acc = [zero] * ncols
        for x, brow in zip(row, brows):
            if x:
                for j, y in brow:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a, v) -> Vec:
    """a @ v over the nonzero entries of v, skipping zero entries of a."""
    nz = [(j, y) for j, y in enumerate(v) if y]
    zero = Fraction(0)
    out = []
    for row in a:
        s = zero
        for j, y in nz:
            x = row[j]
            if x:
                s += x * y
        out.append(s)
    return tuple(out)


def commutator(a, b) -> Mat:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an exact entry, without building a
    Fraction for an int."""
    if isinstance(x, int):
        return x, 1
    f = x if isinstance(x, Fraction) else frac(x)
    return f.numerator, f.denominator


# Entry types whose falsy values are zeros; `integer_row` refuses a falsy
# entry of any other type, such as None or "".
_ZERO_TYPES = frozenset((int, bool, Fraction))


def integer_row(vec) -> tuple[dict[int, int], int]:
    """(row, L): the rational vector vec as the sparse integer row {column:
    integer} of vec * L, L the least common multiple of its denominators."""
    # one type scan in C per row keeps zeros off the Python-level path
    if not _ZERO_TYPES.issuperset(map(type, vec)):
        for x in vec:
            if not x and type(x) not in _ZERO_TYPES:
                raise TypeError(f"not an exact rational: {x!r}")
    nz = [(j, _ratio(x)) for j, x in enumerate(vec) if x]
    m = lcm(*(q for _, (_, q) in nz))
    return {j: a * (m // q) for j, (a, q) in nz}, m


def integer_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Each row scaled as `integer_row` scales it, dense; returns (rows,
    scales)."""
    out, scales = [], []
    for row in rows:
        sparse, m = integer_row(row)
        out.append([sparse.get(j, 0) for j in range(len(row))])
        scales.append(m)
    return out, scales


def rank(rows) -> int:
    rows = [r for r in rows]
    if not rows or not rows[0]:
        return 0
    int_rows, _ = integer_rows(rows)
    _, pivots, _ = echelon(int_rows)
    return len(pivots)


def _square_size(a) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"matrix is not square: shape "
                         f"{n}x{len(a[0])}")
    return n


def det(a) -> Fraction:
    """Determinant of a square matrix."""
    n = _square_size(a)
    if n == 0:
        return Fraction(1)
    int_rows, scales = integer_rows(a)
    ech, pivots, sign = echelon(int_rows)
    if len(pivots) < n:
        return Fraction(0)
    d = Fraction(sign)
    # One-step Bareiss leaves the k-th pivot equal to the k-th leading minor
    # (of the row-swapped matrix), so the last pivot is the determinant.
    d *= ech[n - 1][pivots[n - 1]]
    for s in scales:
        d /= s
    return d


def _reduce(rows: list[dict[int, int]], ncols: int):
    """Integer reduced echelon (rows, pivots, supports) of sparse integer
    rows, from their pass mod P (`koszul._kernel.row_space`). When ncols
    rows are independent mod P they are independent over Q, so the rank is
    ncols and the reduced form is the identity, with no check. Its readers
    (`_kernel_rows`, `_unit_rows`, `sparse_rank`) read a row only at its
    support and at the free columns, and the identity has no free column,
    so its rows are kept as {c: 1}, not as ncols² cells."""
    kept, basis = independent_rows_mod_p(rows, ncols)
    if len(kept) == ncols:
        return ([{c: 1} for c in range(ncols)], list(range(ncols)),
                [[c] for c in range(ncols)])
    return row_space(rows, ncols, kept, basis)


def _reduce_dense(rows, ncols: int):
    """`_reduce` of dense rows, a short system by `reduced_echelon`."""
    ints = integer_rows(rows)[0]
    return reduced_echelon(ints) if len(ints) <= ncols else _reduce(
        [{j: x for j, x in enumerate(r) if x} for r in ints], ncols)


def rref(rows) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row-echelon form with unit pivots; returns (rref, pivot_cols):
    the `Fraction` view of the integer reduced form's rows over their
    pivots (`_unit_rows`)."""
    rows = [r for r in rows]
    if not rows or not rows[0]:
        return (), ()
    ncols = len(rows[0])
    reduced = _reduce_dense(rows, ncols)
    return vectors(*_unit_rows(reduced), ncols), tuple(reduced[1])


def nullspace(rows, ncols: int | None = None) -> tuple[Vec, ...]:
    """Basis of {x : rows @ x = 0}; canonical (one free variable set to 1),
    the `Fraction` view of the kernel rows `sparse_nullspace` gives."""
    rows = [r for r in rows]
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty system")
        ncols = len(rows[0])
    return vectors(*_kernel_rows(_reduce_dense(rows, ncols), ncols),
                   ncols) if ncols else ()


def sparse_nullspace(rows: list[dict[int, int]], ncols: int
                     ) -> tuple[tuple[dict[int, int], ...], tuple[int, ...]]:
    """The canonical kernel of sparse integer rows {column: integer} over
    columns below ncols, as (rows, scales): the solver of every linear
    condition."""
    return _kernel_rows(_reduce(rows, ncols), ncols) if ncols else ((), ())


def sparse_rank(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank of sparse integer rows {column: integer} over columns below
    ncols: the pivot count of their echelon form. With no more rows than
    columns that is `echelon`'s forward pass alone, the pivots of the
    reduced form without its back-substitution; a longer system is
    reduced from its rows independent mod P (`_reduce`)."""
    if len(rows) <= ncols:
        return len(echelon([[row.get(j, 0) for j in range(ncols)]
                            for row in rows])[1])
    return len(_reduce(rows, ncols)[1])


def _kernel_rows(reduced, ncols: int):
    """The canonical kernel basis of an integer reduced echelon form, one
    free variable set to 1 in each vector, a function of the row space, as
    (rows, scales): each row is primitive, its scale the lcm of the
    vector's denominators."""
    red, pivots, _ = reduced
    rows, scales = [], []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        # the entry at pivot column pc is n / d
        hits = [(pc, -row[fc], row[pc]) for row, pc in zip(red, pivots)
                if row[fc]]
        scale = lcm(*(abs(d) // gcd(n, d) for _, n, d in hits))
        row = {pc: n * scale // d for pc, n, d in hits}
        row[fc] = scale
        rows.append(row)
        scales.append(scale)
    return tuple(rows), tuple(scales)


def vectors(rows, scales, ncols: int) -> tuple[Vec, ...]:
    """The dense `Fraction` vectors row / scale of integer rows over their
    scales: the rational view of a basis."""
    zero, out = Fraction(0), []
    for row, scale in zip(rows, scales):
        v = [zero] * ncols
        for j, x in row.items():
            v[j] = Fraction(x, scale)
        out.append(tuple(v))
    return tuple(out)


def _unit_rows(reduced):
    """The rows of an integer reduced echelon form over their pivots, as
    (rows, scales): each row divided by its content, signed as its pivot,
    so each scale is the lcm of the unit-pivot vector's denominators."""
    out, scales = [], []
    for row, c, cols in zip(*reduced):
        g = gcd(*(row[j] for j in cols)) * (1 if row[c] > 0 else -1)
        out.append({j: row[j] // g for j in cols})
        scales.append(row[c] // g)
    return tuple(out), tuple(scales)


def sparse_row_space(rows: list[dict[int, int]], ncols: int
                     ) -> tuple[tuple[dict[int, int], ...], tuple[int, ...]]:
    """The reduced row-echelon basis of sparse integer rows, as (rows,
    scales)."""
    return _unit_rows(_reduce(rows, ncols))


def row_space_basis(rows) -> tuple[Vec, ...]:
    red, pivots = rref(rows)
    return tuple(red[i] for i in range(len(pivots)))


def column_space_basis(a) -> tuple[Vec, ...]:
    """Basis of the column space: the original columns at the pivot positions."""
    _, pivots = rref(a)
    cols = transpose(a)
    return tuple(cols[c] for c in pivots)


def solve(a, b) -> Vec | None:
    """One solution x of a @ x = b, or None when inconsistent."""
    nc = len(a[0]) if a else 0
    aug = [list(row) + [frac(bx)] for row, bx in zip(a, b)]
    red, pivots = rref(aug)
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for r, pc in enumerate(pivots):
        x[pc] = red[r][nc]
    return tuple(x)


def integer_inverse(a) -> tuple[list[list[int]], int] | None:
    """(H, d) with a^{-1} = H / d, H integer and d > 0 one denominator, or
    None when a is singular: the integer reduced echelon form of [a | I],
    row i over its pivot, brought to the pivots' least common multiple."""
    n = _square_size(a)
    ints, _ = integer_rows([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(a)])
    red, pivots, _ = reduced_echelon(ints)
    if pivots != list(range(n)):
        return None
    d = lcm(*(row[i] for i, row in enumerate(red)))
    return [[x * (d // row[i]) for x in row[n:]]
            for i, row in enumerate(red)], d


def inverse(a) -> Mat:
    inv = integer_inverse(a)
    if inv is None:
        raise ValueError("matrix is singular")
    h, d = inv
    return tuple(tuple(Fraction(x, d) for x in row) for row in h)


def symmetric_signature(g) -> tuple[int, int, int]:
    """(n_pos, n_neg, n_zero) of a symmetric matrix by congruence reduction."""
    n = len(g)
    a = [[frac(x) for x in row] for row in g]
    pos = neg = 0
    for i in range(n):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if j is not None:
                a[i], a[j] = a[j], a[i]
                for row in a:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if j is None:
                    continue
                for c in range(n):
                    a[i][c] += a[j][c]
                for r in range(n):
                    a[r][i] += a[r][j]
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            f = a[j][i] / d
            if f:
                for c in range(n):
                    a[j][c] -= f * a[i][c]
                for r in range(n):
                    a[r][j] -= f * a[r][i]
    return pos, neg, n - pos - neg


def is_positive_definite(g) -> bool:
    """A symmetric matrix is positive definite when its signature is all
    positive."""
    return symmetric_signature(g)[0] == len(g)


def flatten(a) -> Vec:
    return tuple(x for row in a for x in row)


def unflatten(v, nr: int, nc: int) -> Mat:
    return tuple(tuple(v[i * nc + j] for j in range(nc)) for i in range(nr))
