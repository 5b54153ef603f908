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
such a system for s = (values of X, frame derivatives of X). The
stabilization runs on integer rows throughout: the operators over one
denominator, each basis and its annihilators as kernel rows over scales.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from koszul import linalg, spaces
from koszul.algebra import SparseTable, operator_defect
from koszul.cohomology import second_order_rows
from koszul.connections import InvariantConnection, is_torsion_free
from koszul.errors import (ConformanceMismatch, KoszulError,
                           NotSelfOrSkewAdjoint, SingularMetric,
                           UnsupportedOperation, ValidationError)
from koszul.forms import SYMMETRIC, BilinearForm, form_space
from koszul.linalg import Mat
from koszul.spaces import LinearSolutionSpace, condition_rows


def solve_gauge_equation(conn: InvariantConnection,
                         dual: InvariantConnection) -> LinearSolutionSpace:
    """Endomorphisms phi with nabla*_{e_i}(phi e_j) = phi(nabla_{e_i} e_j).

    For constant phi this is Gamma*_i phi − phi Gamma_i = 0 per frame
    direction: m^3 equations in m^2 unknowns.
    """
    if conn.dim != dual.dim:
        raise ValidationError("connection dimensions differ")
    m = conn.dim
    left, right = dual.gamma.sparse, conn.gamma.sparse
    # row (i, k, j), both tables over the product of their denominators
    rows = condition_rows(chain(
        (((i, k, j), a * m + j, n * right.den)
         for i, a, k, n in left.nonzeros for j in range(m)),
        (((i, k, j), k * m + b, -n * left.den)
         for i, j, b, n in right.nonzeros for k in range(m))))
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


def parallel_rows(conn: InvariantConnection) -> list[dict[int, int]]:
    """Rows of b(nabla_i e_j, e_k) + b(e_j, nabla_i e_k) = 0 over the m x m
    entries of b (row-major), in (i, j, k) order, nonzero rows only.

    For the bracket ("plus") connection these are the ad-invariance rows
    b([x, y], z) + b(y, [x, z]) = 0.
    """
    m = conn.dim
    nz = conn.gamma.sparse.nonzeros
    return condition_rows(chain(
        (((i, j, k), a * m + k, n) for i, j, a, n in nz for k in range(m)),
        (((i, j, k), j * m + a, n) for i, k, a, n in nz for j in range(m))))


def parallel_forms(conn: InvariantConnection, sym: str) -> LinearSolutionSpace:
    """Forms with b(nabla_i e_j, e_k) + b(e_j, nabla_i e_k) = 0, of one parity,
    as flat m x m matrices: `forms.form_space` over `parallel_rows`."""
    return form_space(parallel_rows(conn), conn.dim, sym)


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
    return SparseTable.over(acc, g.den)


def _fe_star_compatibility(conn: InvariantConnection,
                           ops: SparseTable) -> list[dict[int, int]]:
    """Rows (i, j, l), i < j, of F_ij = [M_i, M_j] + sum_k c^k_ij M_k.

    operator_defect subtracts sum_k q^k_ij M_k, so q is the negated bracket;
    in bracket mode it returns exactly the keys with i < j.
    """
    c = conn.base.sparse
    neg_c = SparseTable.over({(i, j, k): -v for i, j, k, v in c.nonzeros},
                             c.den)
    d, _ = operator_defect(ops, neg_c, bracket=True)
    return condition_rows(((i, j, l), a, v) for (i, j, a, l), v in d.items())


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


def solve_fe_star(conn: InvariantConnection) -> FeStarSolutions:
    """Largest invariant subspace of compatible Cauchy data for nabla^2 X = 0."""
    m = conn.dim
    n = m + m * m
    ops = _fe_star_operators(conn)
    # l -> {(k, a): n}: M_k e_a holds n e_l
    into = spaces.accumulate((l, (k, a), v) for k, a, l, v in ops.nonzeros)

    rows = _fe_star_compatibility(conn, ops)
    basis, scales = linalg.sparse_nullspace(rows, n)
    steps = 0
    while basis:
        new = linalg.sparse_nullspace(_invariance_rows(basis, into, n), n)
        steps += 1
        stable = len(new[0]) == len(basis)
        basis, scales = new
        if stable:
            break
        if steps > n:
            raise KoszulError("stabilization failed to terminate")

    space = LinearSolutionSpace(n, basis, scales)
    if not all(spaces.satisfies(rows, w) for w in basis):
        raise KoszulError("stabilized vector violates compatibility")
    # row (s, k): ops.den M_k w_s, over the table's nonzeros
    moved = list(spaces.accumulate(
        ((s, k), l, v * w[a]) for s, w in enumerate(basis)
        for k, a, l, v in ops.nonzeros if a in w).values())
    if linalg.sparse_rank(list(basis) + moved, n) != space.dim:
        raise KoszulError("stabilized space is not invariant")

    r_b = linalg.sparse_rank([{j: x for j, x in w.items() if j < m}
                              for w in basis], m)
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
    space = spaces.from_conditions(second_order_rows(conn.gamma.sparse),
                                   conn.dim)
    if not conn.gamma.is_kv:
        return space, None
    # products of the integer rows, over the table's denominator
    by_first = conn.gamma.sparse.by_first
    products = list(spaces.accumulate(
        ((s, t), k, x * b[j] * v) for s, a in enumerate(space.rows)
        for t, b in enumerate(space.rows) for i, x in a.items()
        for j, k, v in by_first.get(i, ()) if j in b).values())
    if linalg.sparse_rank(list(space.rows) + products, conn.dim) != space.dim:
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
