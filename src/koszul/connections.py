"""Left-invariant Koszul connections on a Lie algebra.

A connection is a bilinear product gamma[i][j][k] (the e_k coefficient of
nabla_{e_i} e_j) paired with the algebra whose bracket enters torsion and
curvature. Everything is exact, and the contractions stay in integers over
the tables' denominators: the dual of a connection under a form
(`form_dual`) sums −G^{-1} A_i^T G over the operators' nonzeros with G^{-1}
taken once over one denominator, and builds its table once from the sums.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from koszul import linalg
from koszul.algebra import (BilinearProduct, DefectTensor, LieAlgebra,
                            SparseTable, curvature_tensor)
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
    s = {"minus": 0, "zero": Fraction(1, 2), "plus": 1}[kind]
    table = SparseTable((i, j, k, s * v) for i, j, k, v in L.sparse.items())
    return InvariantConnection(L, BilinearProduct(L.dim, table))


def torsion(conn: InvariantConnection) -> DefectTensor:
    """T(e_i,e_j) = nabla_i e_j − nabla_j e_i − [e_i,e_j], rank-3 tensor."""
    m, g, c = conn.dim, conn.gamma.sparse, conn.base.sparse
    acc: dict = defaultdict(int)  # on the flat key (i·m + j)·m + k
    for i, j, k, n in g.nonzeros:
        n *= c.den
        acc[(i * m + j) * m + k] += n
        acc[(j * m + i) * m + k] -= n
    for i, j, k, n in c.nonzeros:
        acc[(i * m + j) * m + k] -= n * g.den
    return DefectTensor.over_flat((m,) * 3, acc, m, g.den * c.den)


def is_torsion_free(conn: InvariantConnection) -> bool:
    return torsion(conn).is_zero()


def curvature(conn: InvariantConnection) -> DefectTensor:
    """R(e_i,e_j)e_k = nabla_i nabla_j e_k − nabla_j nabla_i e_k − nabla_{[e_i,e_j]} e_k.

    R is antisymmetric in (i, j): its entries with i < j are accumulated
    and mirrored.
    """
    return curvature_tensor(conn.gamma.sparse, conn.base.sparse, conn.dim)


def curvature_operators(conn: InvariantConnection) -> tuple[tuple[Mat, ...], ...]:
    """R_ij = [Gamma_i, Gamma_j] − sum_k c^k_{ij} Gamma_k as matrices: row l,
    column k of R_ij is the e_l part of R(e_i, e_j)e_k."""
    return tuple(tuple(linalg.transpose(r) for r in plane)
                 for plane in curvature(conn).entries)


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
    return form_dual(conn.base, conn.gamma.sparse, g.matrix)


def form_dual(base: LieAlgebra, ops: SparseTable,
              gm: Mat) -> InvariantConnection:
    """The connection with b(nabla_{e_i} y, z) = −b(y, A_i z) for the
    nondegenerate form b of matrix gm and the operators A_i e_j = sum_k
    ops[i][j][k] e_k: Gamma_i = −G^{-1} A_i^T G.

    In integers: gm = Gn / s with Gn integer, Gn^{-1} = H / d over one
    denominator, and the scale s cancels. So the e_k part of nabla_{e_i}
    e_j is −sum_p H[k][p] W_ip[j] over d · ops.den, where W_ip = sum_q n
    Gn[q] runs over the nonzeros (i, p, q, n) of ops. A degenerate form
    raises SingularMetric before any of this is summed.
    """
    m = base.dim
    ints, scales = linalg.integer_rows(gm)
    s = lcm(*scales)
    gn = [[x * (s // t) for x in row] for row, t in zip(ints, scales)]
    inv = linalg.integer_inverse(gn)
    if inv is None:
        raise SingularMetric(f"form of dimension {m} is degenerate")
    h, d = inv
    w: dict = {}   # (i, p) -> row p of A_i^T Gn, scaled by ops.den
    for i, p, q, n in ops.nonzeros:
        row = w.get((i, p))
        if row is None:
            row = w[i, p] = [0] * m
        for j, y in enumerate(gn[q]):
            if y:
                row[j] += n * y
    sums: dict = defaultdict(int)
    for (i, p), row in w.items():
        for k in range(m):
            x = h[k][p]
            if x:
                for j, y in enumerate(row):
                    if y:
                        sums[i, j, k] -= x * y
    return InvariantConnection(base, BilinearProduct(
        m, SparseTable.over(sums, d * ops.den)))


def alpha_connection(conn: InvariantConnection, dual: InvariantConnection,
                     alpha) -> InvariantConnection:
    """(1+alpha)/2 · nabla + (1−alpha)/2 · nabla*; alpha = 1 and −1 recover the inputs."""
    if conn.dim != dual.dim:
        raise ValidationError("connection dimensions differ")
    a = frac(alpha)
    s, t = (1 + a) / 2, (1 - a) / 2
    acc: dict = defaultdict(Fraction)
    for scale, table in ((s, conn.gamma.sparse), (t, dual.gamma.sparse)):
        for i, j, k, v in table.items():
            acc[i, j, k] += scale * v
    return InvariantConnection(conn.base, BilinearProduct(
        conn.dim, SparseTable((*idx, v) for idx, v in acc.items())))


def connection_from_product(L: LieAlgebra, p: BilinearProduct) -> InvariantConnection:
    return InvariantConnection(L, p)
