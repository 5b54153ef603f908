"""Linear conditions and the solution spaces they cut out.

A linear condition is a sparse integer row over a fixed column count, a
dict {column: integer} of its nonzeros. Builders list contributions (row
key, column, value) from the nonzeros of a structure-constant table, and
`condition_rows` turns them into rows. `from_conditions` solves rows @ x =
0, re-verifies the kernel over the rows' nonzeros (`satisfies`) and wraps
it in a `LinearSolutionSpace`: an immutable basis plus convenience views
(matrix reshaping, membership tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from koszul import linalg
from koszul.errors import KoszulError
from koszul.linalg import Mat, Vec


@dataclass(frozen=True)
class LinearSolutionSpace:
    """Span of `basis` inside an ambient coordinate space.

    basis vectors are flat tuples of Fractions; `shape` optionally records a
    matrix layout (row-major) for reshaping. Linear independence of the basis
    is re-checked at construction time.
    """

    ambient_dim: int
    basis: tuple[Vec, ...]
    shape: tuple[int, ...] | None = None

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise KoszulError("basis vector has wrong length")
        if self.basis and linalg.rank(self.basis) != len(self.basis):
            raise KoszulError("solution basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coeffs) -> Vec:
        if len(coeffs) != self.dim:
            raise KoszulError("coefficient count does not match dimension")
        out = [Fraction(0)] * self.ambient_dim
        for c, v in zip(coeffs, self.basis):
            c = linalg.frac(c)
            if c:
                for i, x in enumerate(v):
                    if x:
                        out[i] += c * x
        return tuple(out)

    def matrices(self) -> tuple[Mat, ...]:
        if self.shape is None or len(self.shape) != 2:
            raise KoszulError("no matrix shape attached to this space")
        nr, nc = self.shape
        return tuple(linalg.unflatten(v, nr, nc) for v in self.basis)

    def contains(self, vec) -> bool:
        vec = tuple(linalg.frac(x) for x in vec)
        if len(vec) != self.ambient_dim:
            return False
        if not self.basis:
            return all(x == 0 for x in vec)
        stacked = list(self.basis) + [vec]
        return linalg.rank(stacked) == self.dim


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


def satisfies(rows, vec) -> bool:
    """True when vec solves every sparse integer row, checked in integers
    over the rows' nonzeros (vec scaled as `linalg.integer_rows` does)."""
    w = linalg.integer_rows([vec])[0][0]
    return not any(sum(a * w[j] for j, a in row.items()) for row in rows)


def from_conditions(rows, ambient_dim: int,
                    shape: tuple[int, ...] | None = None) -> LinearSolutionSpace:
    """Solve rows @ x = 0 for sparse integer rows and wrap the kernel,
    each basis vector substituted back into the rows (`satisfies`)."""
    basis = linalg.sparse_nullspace(rows, ambient_dim)
    if not all(satisfies(rows, v) for v in basis):
        raise KoszulError("solver produced a vector violating its conditions")
    return LinearSolutionSpace(ambient_dim=ambient_dim, basis=basis, shape=shape)
