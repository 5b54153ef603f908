"""Container for solution spaces of linear systems.

Solvers in this package reduce to "all x with E @ x = 0" for some exact
rational matrix E. The result is wrapped here so callers get a verified,
immutable basis plus convenience views (matrix reshaping, membership tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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


def from_conditions(rows, ambient_dim: int,
                    shape: tuple[int, ...] | None = None) -> LinearSolutionSpace:
    """Solve rows @ x = 0 and wrap the kernel, re-verifying each basis vector.

    The re-verification closes the loop on the integer-scaled elimination:
    every returned vector, scaled to integers, is substituted back into the
    conditions, scaled to integers once for both the solve and the check.
    """
    int_rows, _ = linalg.integer_rows(rows)
    basis = linalg.integer_nullspace(int_rows, ambient_dim)
    scaled = []
    for v in basis:
        m = lcm(*(x.denominator for x in v))
        scaled.append([x.numerator * (m // x.denominator) for x in v])
    for row in int_rows:
        nz = [(j, a) for j, a in enumerate(row) if a]
        for w in scaled:
            if sum(a * w[j] for j, a in nz):
                raise KoszulError("solver produced a vector violating its conditions")
    return LinearSolutionSpace(ambient_dim=ambient_dim, basis=basis, shape=shape)
