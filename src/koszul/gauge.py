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

from dataclasses import dataclass
from fractions import Fraction

from koszul import linalg, spaces
from koszul.algebra import operator_defect, operator_matrix
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


def _fe_star_operators(conn: InvariantConnection) -> list[Mat]:
    m = conn.dim
    n = m + m * m
    mats = conn.matrices
    ops = []
    for i in range(m):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for a in range(m):
            rows[a][m + a * m + i] += 1
            for b in range(m):
                rows[a][b] -= mats[i][a][b]
        for a in range(m):
            for b in range(m):
                r = m + a * m + b
                for c in range(m):
                    rows[r][m + a * m + c] += mats[i][c][b]
                    rows[r][m + c * m + b] -= mats[i][a][c]
        ops.append(tuple(tuple(r) for r in rows))
    return ops


def solve_fe_star(conn: InvariantConnection) -> FeStarSolutions:
    """Largest invariant subspace of compatible Cauchy data for nabla^2 X = 0."""
    m = conn.dim
    n = m + m * m
    ops = _fe_star_operators(conn)
    c = conn.base.c

    compat = []
    for i in range(m):
        for j in range(i + 1, m):
            f = linalg.commutator(ops[i], ops[j])
            for k in range(m):
                if c[i][j][k]:
                    f = linalg.mat_add(f, linalg.mat_scale(c[i][j][k], ops[k]))
            compat.append(f)

    rows = [row for f in compat for row in f]
    basis = linalg.nullspace(rows, ncols=n)
    steps = 0
    while basis:
        ann = linalg.nullspace(basis, ncols=n)
        new_rows = list(ann)
        for op in ops:
            for a in ann:
                new_rows.append(linalg.mat_vec(linalg.transpose(op),
                                               tuple(a)))
        # a^T (M w) = (M^T a)^T w: invariance of W is linear in w
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
        for f in compat:
            if any(x != 0 for x in linalg.mat_vec(f, w)):
                raise KoszulError("stabilized vector violates compatibility")
        for op in ops:
            if not space.contains(linalg.mat_vec(op, w)):
                raise KoszulError("stabilized space is not invariant")

    proj = [w[:m] for w in space.basis]
    r_b = linalg.rank(proj) if proj else 0
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
    d = operator_defect(conn.gamma, conn.gamma.sparse)
    rows = [row for i in range(m) for j in range(m)
            for row in operator_matrix(d, i, j, m)]
    space = spaces.from_conditions(rows, m)
    if not conn.gamma.is_kv:
        return space, None
    for a in space.basis:
        for b in space.basis:
            if not space.contains(conn.gamma.mult(a, b)):
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
