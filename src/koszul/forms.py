"""Rational bilinear forms, and the spaces of symmetric or skew forms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from koszul import linalg, spaces
from koszul.algebra import DENSE_CELL_BOUND, envelope
from koszul.errors import KoszulError, ValidationError
from koszul.linalg import Mat, Vec, frac
from koszul.spaces import LinearSolutionSpace, condition_rows

SYMMETRIC = "symmetric"
SKEW = "skew"
GENERAL = "general"


@dataclass(frozen=True)
class BilinearForm:
    """b(e_i, e_j) = entries[i][j] with a declared (and checked) symmetry."""

    dim: int
    entries: Mat
    sym: str = GENERAL

    def __post_init__(self):
        m = self.dim
        if len(self.entries) != m or any(len(r) != m for r in self.entries):
            raise ValidationError("form entries shape does not match dim")
        if self.sym not in (SYMMETRIC, SKEW, GENERAL):
            raise ValidationError(f"unknown symmetry tag {self.sym!r}")
        for i in range(m):
            for j in range(m):
                a, b = self.entries[i][j], self.entries[j][i]
                if self.sym == SYMMETRIC and a != b:
                    raise ValidationError(f"not symmetric at ({i},{j})")
                if self.sym == SKEW and a != -b:
                    raise ValidationError(f"not skew at ({i},{j})")

    def evaluate(self, u, v):
        return sum(frac(u[i]) * self.entries[i][j] * frac(v[j])
                   for i in range(self.dim) for j in range(self.dim))

    @cached_property
    def rank(self) -> int:
        return linalg.rank(self.entries)

    @property
    def is_nondegenerate(self) -> bool:
        return self.rank == self.dim

    def signature(self) -> tuple[int, int, int]:
        if self.sym != SYMMETRIC:
            raise ValidationError("signature requires a symmetric form")
        return linalg.symmetric_signature(self.entries)

    def is_positive_definite(self) -> bool:
        if self.sym != SYMMETRIC:
            return False
        return linalg.is_positive_definite(self.entries)

    @property
    def matrix(self) -> Mat:
        return self.entries


def identity_form(m: int) -> BilinearForm:
    envelope("dense form cells", m * m, DENSE_CELL_BOUND)
    return BilinearForm(m, linalg.identity(m), SYMMETRIC)


def form_from_sparse(m: int, sym: str, entries) -> BilinearForm:
    """entries: iterable of (i, j, value); completed by the declared symmetry."""
    envelope("dense form cells", m * m, DENSE_CELL_BOUND)
    rows = [[frac(0)] * m for _ in range(m)]
    seen = {}
    for i, j, v in entries:
        if not (0 <= i < m and 0 <= j < m):
            raise ValidationError(f"index out of range in entry ({i},{j})")
        v = frac(v)
        if (i, j) in seen and seen[(i, j)] != v:
            raise ValidationError(f"conflicting entries for ({i},{j})")
        mirror = -v if sym == SKEW else v
        if sym != GENERAL and (j, i) in seen and seen[(j, i)] != mirror:
            raise ValidationError(
                f"entries ({i},{j}) and ({j},{i}) violate {sym} symmetry")
        seen[(i, j)] = v
        rows[i][j] = v
        if sym != GENERAL and i != j:
            rows[j][i] = mirror
        if sym == SKEW and i == j and v != 0:
            raise ValidationError(f"nonzero diagonal in skew form at ({i},{i})")
    return BilinearForm(m, linalg.mat(rows), sym)


def form_space(rows, m: int, sym: str) -> LinearSolutionSpace:
    """Forms of one parity solving sparse integer rows over the flat m x m
    entries, solved over one unknown per lower entry x_ji (j >= i, or j > i
    for skew forms) in flat order j*m + i. Each kernel vector of the folded
    rows is expanded and substituted once into the full rows, which also
    re-verifies it against the folded ones. The basis is the canonical
    kernel of the rows plus the parity conditions: no upper entry is free
    there."""
    if sym not in (SYMMETRIC, SKEW):
        raise ValidationError("parity must be symmetric or skew")
    sign = 1 if sym == SYMMETRIC else -1
    pairs = [(j * m + i, i * m + j)
             for j in range(m) for i in range(j + (sym == SYMMETRIC))]
    slot = {up: (t, sign) for t, (_, up) in enumerate(pairs)}
    slot.update((lo, (t, 1)) for t, (lo, _) in enumerate(pairs))
    folded = condition_rows(
        (r, slot[c][0], slot[c][1] * a)
        for r, row in enumerate(rows) for c, a in row.items() if c in slot)
    basis = tuple(_expand(v, pairs, m, sign)
                  for v in linalg.sparse_nullspace(folded, len(pairs)))
    if not all(spaces.satisfies(rows, v) for v in basis):
        raise KoszulError("form space vector violates its full conditions")
    return LinearSolutionSpace(ambient_dim=m * m, basis=basis, shape=(m, m))


def _expand(vec: Vec, pairs, m: int, sign: int) -> Vec:
    """x at each lower entry of the flat m x m form, sign * x at its mirror."""
    full = [frac(0)] * (m * m)
    for (lo, up), x in zip(pairs, vec):
        full[up], full[lo] = sign * x, x
    return tuple(full)
