"""Solution spaces of the fundamental gauge equations.

All four solvers reduce to exact nullspaces:

* gauge endomorphisms: Gamma*_i phi = phi Gamma_i for all i;
* parallel forms: Gamma_i^T B + B Gamma_i = 0 within a symmetry class;
* second-order parallel vectors: (Gamma_i Gamma_j − sum_k gamma[i][j][k] Gamma_k) a = 0;
* the prolonged first-order system for sections (f, A), stabilized to its
  largest invariant subspace.

The last one deserves a note: on a simply connected group a left-invariant
first-order system e_i s = M_i s with constant M_i has solution space equal to
the largest subspace W that is M-invariant and killed by the compatibility
operators F_ij = [M_i, M_j] + sum_k c^k_{ij} M_k (Frobenius integrability plus
uniqueness of Cauchy data). The vector-field equation nabla^2 X = 0 becomes
such a system for s = (values of X, frame derivatives of X).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from koszul import linalg, spaces
from koszul.algebra import SparseTable, operator_defect, operator_matrix
from koszul.connections import InvariantConnection, is_torsion_free
from koszul.errors import (ConformanceMismatch, KoszulError,
                           NotSelfOrSkewAdjoint, SingularMetric,
                           UnsupportedOperation, ValidationError)
from koszul.forms import SKEW, SYMMETRIC, BilinearForm
from koszul.linalg import Mat
from koszul.spaces import LinearSolutionSpace


def solve_gauge_equation(conn: InvariantConnection,
                         dual: InvariantConnection) -> LinearSolutionSpace:
    """Endomorphisms phi with nabla*_{e_i}(phi e_j) = phi(nabla_{e_i} e_j).

    For constant phi this is Gamma*_i phi − phi Gamma_i = 0 per frame
    direction: m^3 equations in m^2 unknowns.
    """
    if conn.dim != dual.dim:
        raise ValidationError("connection dimensions differ")
    m = conn.dim
    gl, gr = dual.matrices, conn.matrices
    rows = []
    for i in range(m):
        for k in range(m):
            for j in range(m):
                row = [Fraction(0)] * (m * m)
                for a in range(m):
                    row[a * m + j] += gl[i][k][a]
                for b in range(m):
                    row[k * m + b] -= gr[i][b][j]
                rows.append(row)
    return spaces.from_conditions(rows, m * m, shape=(m, m))


@dataclass(frozen=True)
class GaugePair:
    """g-symmetric and g-skew parts of a gauge endomorphism."""

    phi_sym: Mat
    phi_skew: Mat
    metric: BilinearForm

    def __post_init__(self):
        g = self.metric.matrix
        bs = linalg.mat_mul(g, self.phi_sym)
        bk = linalg.mat_mul(g, self.phi_skew)
        if bs != linalg.transpose(bs):
            raise KoszulError("symmetric part is not g-symmetric")
        if bk != linalg.mat_scale(-1, linalg.transpose(bk)):
            raise KoszulError("skew part is not g-skew")


def phi_split(phi: Mat, g: BilinearForm) -> GaugePair:
    """Split phi = Phi + Phi* with g(Phi x, y) symmetric and g(Phi* x, y) skew."""
    if g.sym != SYMMETRIC:
        raise SingularMetric("splitting needs a symmetric metric")
    if not g.is_nondegenerate:
        raise SingularMetric(f"metric has rank {g.rank} < {g.dim}")
    gm = g.matrix
    ginv = linalg.inverse(gm)
    adj = linalg.mat_mul(ginv, linalg.mat_mul(linalg.transpose(phi), gm))
    half = Fraction(1, 2)
    sym = linalg.mat_scale(half, linalg.mat_add(phi, adj))
    skew = linalg.mat_scale(half, linalg.mat_sub(phi, adj))
    return GaugePair(sym, skew, g)


def parallel_forms(conn: InvariantConnection, sym: str) -> LinearSolutionSpace:
    """Forms with b(nabla_i e_j, e_k) + b(e_j, nabla_i e_k) = 0, of one parity.

    Returned in full matrix coordinates (the parity is imposed as extra rows),
    so basis elements reshape to m x m matrices directly.
    """
    if sym not in (SYMMETRIC, SKEW):
        raise ValidationError("parity must be symmetric or skew")
    m = conn.dim
    mats = conn.matrices
    rows = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                row = [Fraction(0)] * (m * m)
                for a in range(m):
                    row[a * m + k] += mats[i][a][j]
                    row[j * m + a] += mats[i][a][k]
                rows.append(row)
    sign = -1 if sym == SYMMETRIC else 1
    for a in range(m):
        for b in range(a, m):
            row = [Fraction(0)] * (m * m)
            row[a * m + b] += 1
            row[b * m + a] += sign
            if any(row):
                rows.append(row)
    return spaces.from_conditions(rows, m * m, shape=(m, m))


@dataclass(frozen=True)
class FeStarSolutions:
    """Stabilized solution space of the second-order parallelism equation.

    Vectors stack (f, A): f the value slot (length m), A the derivative slot
    (m x m, row-major). r_b is the dimension of the value-slot projection.
    """

    m: int
    space: LinearSolutionSpace
    r_b: int
    shrink_steps: int

    def __post_init__(self):
        if not (self.r_b <= self.space.dim <= self.m + self.m * self.m):
            raise KoszulError("solution space dimensions are inconsistent")


def _fe_star_operators(conn: InvariantConnection) -> SparseTable:
    """The operators M_i of the prolonged system on s = (f, A), as one table.

    Entry (i, a, l, v) is the e_l coefficient of M_i e_a, over the
    n = m + m^2 coordinates of s. The diagonal derivative-slot cell of M_i
    collects gamma[i][b][b] and −gamma[i][a][a], so the entries are summed
    before the table is built.
    """
    m = conn.dim
    g = conn.gamma.sparse
    acc: dict = defaultdict(int)
    for i in range(m):
        for a in range(m):
            acc[i, m + a * m + i, a] += g.den
    for i, b, c, v in g.nonzeros:
        acc[i, b, c] -= v
        for a in range(m):
            acc[i, m + a * m + c, m + a * m + b] += v
            acc[i, m + b * m + a, m + c * m + a] -= v
    return SparseTable((i, a, l, Fraction(v, g.den))
                       for (i, a, l), v in acc.items())


def _fe_star_compatibility(conn: InvariantConnection,
                           ops: SparseTable) -> list:
    """Rows of F_ij = [M_i, M_j] + sum_k c^k_ij M_k for i < j, in (i, j) order.

    operator_defect subtracts sum_k q^k_ij M_k, so q is the negated bracket.
    """
    m = conn.dim
    c = conn.base.sparse
    neg_c = SparseTable((i, j, k, Fraction(-v, c.den))
                        for i, j, k, v in c.nonzeros)
    d = operator_defect(ops, neg_c, bracket=True)
    return [row for i in range(m) for j in range(i + 1, m)
            for row in operator_matrix(d, i, j, m + m * m)]


def solve_fe_star(conn: InvariantConnection) -> FeStarSolutions:
    """Largest invariant subspace of compatible Cauchy data for nabla^2 X = 0."""
    m = conn.dim
    n = m + m * m
    ops = _fe_star_operators(conn)
    entries = [(k, a, l, Fraction(v, ops.den)) for k, a, l, v in ops.nonzeros]

    def images(vec, transposed=False) -> list:
        """M_k vec (or M_k^T vec) for k = 0..m-1, over the table's nonzeros."""
        out = [[Fraction(0)] * n for _ in range(m)]
        for k, a, l, v in entries:
            if transposed:
                a, l = l, a
            if vec[a]:
                out[k][l] += v * vec[a]
        return out

    rows = _fe_star_compatibility(conn, ops)
    basis = linalg.nullspace(rows, ncols=n)
    steps = 0
    while basis:
        ann = linalg.nullspace(basis, ncols=n)
        # a^T (M w) = (M^T a)^T w: invariance of W is linear in w
        pulled = [images(a, transposed=True) for a in ann]
        new_rows = list(ann) + [p[k] for k in range(m) for p in pulled]
        new_basis = linalg.nullspace(new_rows, ncols=n)
        steps += 1
        if len(new_basis) == len(basis):
            basis = new_basis
            break
        basis = new_basis
        if steps > n:
            raise KoszulError("stabilization failed to terminate")

    space = LinearSolutionSpace(ambient_dim=n, basis=tuple(basis))
    for w in space.basis:
        if any(linalg.mat_vec(rows, w)):
            raise KoszulError("stabilized vector violates compatibility")
    moved = [x for w in space.basis for x in images(w)]
    if linalg.rank(list(space.basis) + moved) != space.dim:
        raise KoszulError("stabilized space is not invariant")

    r_b = linalg.rank([w[:m] for w in space.basis])
    return FeStarSolutions(m=m, space=space, r_b=r_b, shrink_steps=steps)


def solve_fe_double_star(conn: InvariantConnection) -> FeStarSolutions:
    """Solutions of L_X nabla = contraction of X with the curvature.

    For torsion-free connections this equation coincides with nabla^2 X = 0,
    so the same stabilized system answers it; with torsion the reduction is
    unavailable and the operation is refused.
    """
    if not is_torsion_free(conn):
        raise UnsupportedOperation(
            "the Lie-derivative form of the equation is served only for "
            "torsion-free connections")
    return solve_fe_star(conn)


def g_nabla_subalgebra(conn: InvariantConnection
                       ) -> tuple[LinearSolutionSpace, bool | None]:
    """Vectors a with nabla_{e_i} nabla_{e_j} a = nabla_{nabla_{e_i} e_j} a.

    Second return value: True when the coefficients are left-symmetric and the
    space was verified closed under the product; None when left-symmetry does
    not hold (no closure claim is made then).
    """
    m = conn.dim
    d = operator_defect(conn.gamma.sparse, conn.gamma.sparse)
    rows = [row for i in range(m) for j in range(m)
            for row in operator_matrix(d, i, j, m)]
    space = spaces.from_conditions(rows, m)
    if not conn.gamma.is_kv:
        return space, None
    products = [conn.gamma.mult(a, b) for a in space.basis for b in space.basis]
    if linalg.rank(list(space.basis) + products) != space.dim:
        raise ConformanceMismatch(
            "solution space not closed under a left-symmetric product")
    return space, True


@dataclass(frozen=True)
class KernelImageReport:
    kernel: tuple
    image: tuple
    adjoint_type: str
    dims_complementary: bool
    orthogonal: bool


def kernel_image_split(phi: Mat, g: BilinearForm) -> KernelImageReport:
    """ker and im of a g-symmetric or g-skew endomorphism, with g-orthogonality."""
    if g.sym != SYMMETRIC or not g.is_positive_definite():
        raise ValidationError("splitting requires a positive definite metric")
    m = g.dim
    gm = g.matrix
    left = linalg.mat_mul(linalg.transpose(phi), gm)
    right = linalg.mat_mul(gm, phi)
    if left == right:
        kind = "symmetric"
    elif left == linalg.mat_scale(-1, right):
        kind = "skew"
    else:
        raise NotSelfOrSkewAdjoint("endomorphism is neither g-symmetric nor g-skew")
    kernel = linalg.nullspace(phi, ncols=m)
    image = linalg.column_space_basis(phi)
    ortho = all(
        sum(u[a] * gm[a][b] * v[b] for a in range(m) for b in range(m)) == 0
        for u in kernel for v in image)
    return KernelImageReport(
        kernel=kernel, image=image, adjoint_type=kind,
        dims_complementary=(len(kernel) + len(image) == m), orthogonal=ortho)
