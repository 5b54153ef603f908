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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
