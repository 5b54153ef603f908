"""Left-invariant Koszul connections on a Lie algebra.

A connection is a bilinear product gamma[i][j][k] (the e_k coefficient of
nabla_{e_i} e_j) paired with the algebra whose bracket enters torsion and
curvature. Everything is exact.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from koszul import linalg
from koszul.algebra import (BilinearProduct, DefectTensor, LieAlgebra,
                            operator_defect, operator_matrix, rationals,
                            zero_table3)
from koszul.errors import SingularMetric, ValidationError
from koszul.forms import SYMMETRIC, BilinearForm
from koszul.linalg import Mat, frac

CARTAN_KINDS = ("minus", "zero", "plus")


@dataclass(frozen=True)
class InvariantConnection:
    base: LieAlgebra
    gamma: BilinearProduct

    def __post_init__(self):
        if self.base.dim != self.gamma.dim:
            raise ValidationError("algebra and coefficient dims differ")

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def matrices(self) -> tuple[Mat, ...]:
        """Gamma_i: column j is nabla_{e_i} e_j."""
        return self.gamma.left_matrices

    def nabla(self, x, y):
        return self.gamma.mult(x, y)


def cartan_connection(L: LieAlgebra, kind: str) -> InvariantConnection:
    """The canonical connections 0, half the bracket, or the bracket."""
    if kind not in CARTAN_KINDS:
        raise ValidationError(f"kind must be one of {CARTAN_KINDS}")
    m = L.dim
    if kind == "minus":
        table = zero_table3(m)
    else:
        s = Fraction(1, 2) if kind == "zero" else Fraction(1)
        table = tuple(
            tuple(tuple(s * L.c[i][j][k] for k in range(m)) for j in range(m))
            for i in range(m))
    return InvariantConnection(L, BilinearProduct(m, table))


def torsion(conn: InvariantConnection) -> DefectTensor:
    """T(e_i,e_j) = nabla_i e_j − nabla_j e_i − [e_i,e_j], rank-3 tensor."""
    g, c = conn.gamma.sparse, conn.base.sparse
    acc: dict = defaultdict(int)
    for i, j, k, n in g.nonzeros:
        acc[i, j, k] += n * c.den
        acc[j, i, k] -= n * c.den
    for i, j, k, n in c.nonzeros:
        acc[i, j, k] -= n * g.den
    return DefectTensor((conn.dim,) * 3, rationals(acc, g.den * c.den))


def is_torsion_free(conn: InvariantConnection) -> bool:
    return torsion(conn).is_zero()


def curvature(conn: InvariantConnection) -> DefectTensor:
    """R(e_i,e_j)e_k = nabla_i nabla_j e_k − nabla_j nabla_i e_k − nabla_{[e_i,e_j]} e_k."""
    return DefectTensor((conn.dim,) * 4,
                        operator_defect(conn.gamma.sparse, conn.base.sparse,
                                        bracket=True))


def curvature_operators(conn: InvariantConnection) -> tuple[tuple[Mat, ...], ...]:
    """R_ij = [Gamma_i, Gamma_j] − sum_k c^k_{ij} Gamma_k as matrices."""
    m = conn.dim
    r = operator_defect(conn.gamma.sparse, conn.base.sparse, bracket=True)
    return tuple(tuple(operator_matrix(r, i, j, m) for j in range(m))
                 for i in range(m))


def is_locally_flat(conn: InvariantConnection) -> tuple[bool, str | None]:
    """True iff torsion and curvature both vanish; else names a witness entry."""
    t = torsion(conn).first_nonzero()
    if t is not None:
        idx, _ = t
        return False, f"torsion T(e{idx[0]},e{idx[1]}) has nonzero e{idx[2]} part"
    r = curvature(conn).first_nonzero()
    if r is not None:
        idx, _ = r
        return False, (f"curvature R(e{idx[0]},e{idx[1]})e{idx[2]} has nonzero "
                       f"e{idx[3]} part")
    return True, None


def amari_dual(conn: InvariantConnection, g: BilinearForm) -> InvariantConnection:
    """The unique connection with g(nabla*_X Y, Z) = −g(Y, nabla_X Z).

    On matrices: Gamma*_i = −G^{-1} Gamma_i^T G.
    """
    if g.sym != SYMMETRIC:
        raise SingularMetric("dual connection needs a symmetric metric")
    if g.dim != conn.dim:
        raise ValidationError("metric dimension mismatch")
    if not g.is_nondegenerate:
        raise SingularMetric(f"metric has rank {g.rank} < {g.dim}")
    m = conn.dim
    gm = g.matrix
    ginv = linalg.inverse(gm)
    duals = [linalg.mat_scale(-1, linalg.mat_mul(
        ginv, linalg.mat_mul(linalg.transpose(gi), gm)))
        for gi in conn.matrices]
    table = tuple(
        tuple(tuple(duals[i][k][j] for k in range(m)) for j in range(m))
        for i in range(m))
    return InvariantConnection(conn.base, BilinearProduct(m, table))


def alpha_connection(conn: InvariantConnection, dual: InvariantConnection,
                     alpha) -> InvariantConnection:
    """(1+alpha)/2 · nabla + (1−alpha)/2 · nabla*; alpha = 1 and −1 recover the inputs."""
    if conn.dim != dual.dim:
        raise ValidationError("connection dimensions differ")
    a = frac(alpha)
    s, t = (1 + a) / 2, (1 - a) / 2
    m = conn.dim
    table = tuple(
        tuple(
            tuple(s * conn.gamma.gamma[i][j][k] + t * dual.gamma.gamma[i][j][k]
                  for k in range(m)) for j in range(m)) for i in range(m))
    return InvariantConnection(conn.base, BilinearProduct(m, table))


def connection_from_product(L: LieAlgebra, p: BilinearProduct) -> InvariantConnection:
    return InvariantConnection(L, p)
