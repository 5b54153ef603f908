"""Linear conditions and the solution spaces they cut out.

A linear condition is a sparse integer row over a fixed column count, a
dict {column: integer} of its nonzeros. Builders list contributions (row
key, column, value) from the nonzeros of a structure-constant table, and
`condition_rows` turns them into rows. `from_conditions` solves rows @ x =
0, re-verifies the kernel over the rows' nonzeros (`satisfies`) and wraps
it in a `LinearSolutionSpace`.

A basis is held in the same form: each vector is an integer row over one
positive scale L, the vector being row / L with L the lcm of its
denominators (`linalg.integer_row`), so a canonical kernel vector's row is
primitive. Solvers read and pass on these rows; `Fraction` vectors are
built only by the views (`basis`, `element`, `matrices`, `contains`) and
the report writers. `independent` is the one independence check of a
basis, for solution and symbol spaces alike.

`largest_invariant` is the one solver of a largest invariant subspace, for
FE* and for the largest two-sided ideal inside a right ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm

from koszul import linalg
from koszul._kernel import independent_rows_mod_p
from koszul.errors import KoszulError
from koszul.linalg import Mat, Vec


def independent(rows, ncols: int) -> bool:
    """True when the sparse integer rows are linearly independent over Q.
    Rows independent mod P are (a minor nonzero mod P is nonzero), so the
    exact rank is taken only when the pass mod P falls short."""
    k = len(rows)
    return k <= ncols and (len(independent_rows_mod_p(rows, k)[0]) == k
                           or linalg.sparse_rank(rows, ncols) == k)


@dataclass(frozen=True)
class LinearSolutionSpace:
    """Span of the vectors rows[s] / scales[s] inside an ambient coordinate
    space; `shape` optionally records a matrix layout (row-major) for
    reshaping. Linear independence is re-checked at construction time.
    """

    ambient_dim: int
    rows: tuple[dict[int, int], ...]
    scales: tuple[int, ...]
    shape: tuple[int, ...] | None = None

    def __post_init__(self):
        n = self.ambient_dim
        if len(self.scales) != len(self.rows) or any(
                not 0 <= j < n for row in self.rows for j in row):
            raise KoszulError("basis vector has wrong length")
        if not independent(self.rows, n):
            raise KoszulError("solution basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> tuple[Vec, ...]:
        return linalg.vectors(self.rows, self.scales, self.ambient_dim)

    def element(self, coeffs) -> Vec:
        if len(coeffs) != self.dim:
            raise KoszulError("coefficient count does not match dimension")
        out = [Fraction(0)] * self.ambient_dim
        for c, row, scale in zip(coeffs, self.rows, self.scales):
            c = linalg.frac(c) / scale
            if c:
                for j, x in row.items():
                    out[j] += c * x
        return tuple(out)

    def matrices(self) -> tuple[Mat, ...]:
        if self.shape is None or len(self.shape) != 2:
            raise KoszulError("no matrix shape attached to this space")
        nr, nc = self.shape
        return tuple(linalg.unflatten(v, nr, nc) for v in self.basis)

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            return False
        row = linalg.integer_row(vec)[0]
        return not independent((*self.rows, row), self.ambient_dim)


def accumulate(entries) -> dict:
    """Contributions (row key, column, value) summed per cell, by row."""
    acc: dict = {}
    for r, col, n in entries:
        row = acc.get(r)
        if row is None:
            acc[r] = {col: n}
        else:
            row[col] = row.get(col, 0) + n
    return acc


def condition_rows(entries) -> list[dict[int, int]]:
    """Rows from rational contributions (row key, column, value): summed per
    cell, each scaled to a primitive integer row (which keeps its
    solutions), in row-key order, rows that sum to zero left out."""
    out = []
    for _, row in sorted(accumulate(entries).items()):
        row = {j: x for j, x in row.items() if x}
        if row:
            m = lcm(*(x.denominator for x in row.values()))
            g = gcd(*(x.numerator for x in row.values()))
            out.append({j: x.numerator * (m // x.denominator) // g
                        for j, x in row.items()})
    return out


def satisfies(rows, w: dict[int, int]) -> bool:
    """True when the integer row w (a vector times any nonzero scale)
    solves every sparse integer row, checked in integers over the rows'
    nonzeros."""
    return not any(sum(a * w.get(j, 0) for j, a in row.items())
                   for row in rows)


def from_conditions(rows, ambient_dim: int,
                    shape: tuple[int, ...] | None = None) -> LinearSolutionSpace:
    """Solve rows @ x = 0 for sparse integer rows and wrap the kernel,
    each basis row substituted back into the rows (`satisfies`)."""
    kernel, scales = linalg.sparse_nullspace(rows, ambient_dim)
    if not all(satisfies(rows, w) for w in kernel):
        raise KoszulError("solver produced a vector violating its conditions")
    return LinearSolutionSpace(ambient_dim, kernel, scales, shape)


def _invariance_rows(basis, into: dict, n: int) -> list[dict[int, int]]:
    """Rows cutting out the w in the span of the integer rows `basis` with
    every M_k w in it too.

    The annihilators a_t of the span are its primitive kernel rows.
    a^T (M_k w) = (M_k^T a)^T w, so invariance is linear in w: rows (-1, t)
    are the a_t, rows (k, t) are M_k^T a_t over the table's denominator,
    made primitive by `condition_rows`.
    """
    ann = linalg.sparse_nullspace(basis, n)[0]
    return condition_rows(chain(
        (((-1, t), l, x) for t, a in enumerate(ann) for l, x in a.items()),
        (((k, t), c, v * x) for t, a in enumerate(ann) for l, x in a.items()
         for (k, c), v in into.get(l, {}).items())))


def largest_invariant(rows, scales, ops, n: int):
    """The largest subspace of the span of the integer rows over their
    scales that each M_i keeps, as (rows, scales, steps); `ops` has the
    nonzeros (i, a, l, v) when M_i e_a has v e_l. Each step solves the
    invariance rows of the last basis, whose kernel lies inside it, so a
    step that keeps the dimension ends the walk. The result is re-checked.
    """
    # l -> {(k, a): v}: M_k e_a holds v e_l
    into = accumulate((l, (k, a), v) for k, a, l, v in ops.nonzeros)
    steps, last = 0, None
    while rows and len(rows) != last:
        last, steps = len(rows), steps + 1
        rows, scales = linalg.sparse_nullspace(
            _invariance_rows(rows, into, n), n)
    # row (s, k): M_k w_s over the table's denominator
    moved = list(accumulate(
        ((s, k), l, v * w[a]) for s, w in enumerate(rows)
        for k, a, l, v in ops.nonzeros if a in w).values())
    if linalg.sparse_rank(list(rows) + moved, n) != len(rows):
        raise KoszulError("stabilized space is not invariant")
    return rows, scales, steps
