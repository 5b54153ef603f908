"""Rational bilinear forms: metrics, cocycle candidates, symplectic candidates."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from koszul import linalg
from koszul.errors import ValidationError
from koszul.linalg import Mat, frac
from koszul.spaces import condition_rows

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


def symmetric_form(entries) -> BilinearForm:
    rows = linalg.mat(entries)
    return BilinearForm(len(rows), rows, SYMMETRIC)


def skew_form(entries) -> BilinearForm:
    rows = linalg.mat(entries)
    return BilinearForm(len(rows), rows, SKEW)


def identity_form(m: int) -> BilinearForm:
    return BilinearForm(m, linalg.identity(m), SYMMETRIC)


def form_from_sparse(m: int, sym: str, entries) -> BilinearForm:
    """entries: iterable of (i, j, value); completed by the declared symmetry."""
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


def parity_rows(m: int, sym: str) -> list[dict[int, int]]:
    """Conditions on a flat (row-major) m x m matrix for one parity.

    e_ab - e_ba for symmetric forms and e_ab + e_ba (2 e_aa on the diagonal)
    for skew ones, over a <= b; zero rows are left out.
    """
    sign = -1 if sym == SYMMETRIC else 1
    return condition_rows(
        entry for a in range(m) for b in range(a, m)
        for entry in (((a, b), a * m + b, 1), ((a, b), b * m + a, sign)))
