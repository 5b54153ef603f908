"""Independent reference implementations used to cross-check the library.

Everything here is written naively and separately from the library's
tensor and elimination code: plain Gaussian elimination over Fraction,
direct index-chasing tensor formulas, the library's former dense tensor
routines (built on its vector helpers and `BilinearProduct.mult` only), its
former dense Bareiss kernel, its former coboundary-matrix constructions
(one coboundary application per basis cochain, and the dense
Chevalley-Eilenberg loop), its former dense FE* solver, and closed forms
from textbooks. Slower is fine; agreeing by construction is the point.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import sympy

from koszul import linalg
from koszul.algebra import BilinearProduct, table3
from koszul.cohomology import (ADJOINT, Cochain, _sort_alternating,
                               hochschild_coboundary, kv_coboundary,
                               kv_degree_zero_space)
from koszul.errors import JacobiViolation, KoszulError, ValidationError
from koszul.gauge import FeStarSolutions
from koszul.spaces import LinearSolutionSpace


def F(x):
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------- linear algebra

def gauss_eliminate(rows):
    """Forward elimination with partial pivoting over Fraction; returns
    (echelon rows, pivot column list)."""
    a = [[F(x) for x in row] for row in rows]
    if not a:
        return [], []
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(a)):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def gauss_rank(rows):
    return len(gauss_eliminate(rows)[0])


def gauss_nullspace(rows, ncols):
    ech, pivots = gauss_eliminate(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -ech[r][fc]
        basis.append(tuple(v))
    return basis


def dense_bareiss(rows):
    """The library's former row-echelon kernel: one-step Bareiss over every
    cell. Returns (echelon_rows, pivot_columns, swap_sign)."""
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        piv = a[r][c]
        for i in range(r + 1, nr):
            aic = a[i][c]
            row_i = a[i]
            row_r = a[r]
            for j in range(c + 1, nc):
                row_i[j] = (piv * row_i[j] - aic * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return a, pivots, sign


def sympy_rank(rows):
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).rank()


def sympy_det(rows):
    m = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
    return Fraction(str(m.det()))


# ---------------------------------------------------------------- tensor formulas

def jacobi_entry(c, i, j, k, l):
    """[[ei,ej],ek] + [[ej,ek],ei] + [[ek,ei],ej], coefficient along el."""
    m = len(c)
    s = Fraction(0)
    for a in range(m):
        s += c[i][j][a] * c[a][k][l]
        s += c[j][k][a] * c[a][i][l]
        s += c[k][i][a] * c[a][j][l]
    return s


def torsion_entry(gamma, c, i, j, k):
    return gamma[i][j][k] - gamma[j][i][k] - c[i][j][k]


def curvature_entry(gamma, c, i, j, k, l):
    """R(ei,ej)ek along el with R(x,y)z = grad_x grad_y z - grad_y grad_x z
    - grad_{[x,y]} z."""
    m = len(c)
    s = Fraction(0)
    for a in range(m):
        s += gamma[j][k][a] * gamma[i][a][l]
        s -= gamma[i][k][a] * gamma[j][a][l]
        s -= c[i][j][a] * gamma[a][k][l]
    return s


def associator_entry(gamma, i, j, k, l):
    """((ei·ej)·ek - ei·(ej·ek)) along el."""
    m = len(gamma)
    s = Fraction(0)
    for a in range(m):
        s += gamma[i][j][a] * gamma[a][k][l]
        s -= gamma[j][k][a] * gamma[i][a][l]
    return s


def kv_anomaly_entry(gamma, i, j, k, l):
    """Left-symmetry defect: assoc(x,y,z) - assoc(y,x,z) along el."""
    return (associator_entry(gamma, i, j, k, l)
            - associator_entry(gamma, j, i, k, l))


def killing_entry(c, i, j):
    """tr(ad_ei ad_ej) expanded directly."""
    m = len(c)
    s = Fraction(0)
    for a in range(m):
        for b in range(m):
            s += c[i][a][b] * c[j][b][a]
    return s


# ---------------------------------------------------------------- closed forms

def abelian_betti(m, p):
    """Trivial-coefficient Chevalley-Eilenberg Betti numbers of R^m."""
    return comb(m, p)


def fisher_bernoulli(theta):
    return 1.0 / (theta * (1.0 - theta))


def fisher_categorical_mean(theta):
    """Categorical on n outcomes, coordinates are the first n-1 probabilities:
    G_ij = delta_ij / theta_i + 1 / theta_n."""
    d = len(theta)
    last = 1.0 - sum(theta)
    return [[(1.0 / theta[i] if i == j else 0.0) + 1.0 / last
             for j in range(d)] for i in range(d)]


def full_symbol_cartan_total(m, w):
    """Sum over a quasi-regular flag for a = Hom(V,W): dim a_j = w(m-j),
    so the total is w * m(m+1)/2."""
    return w * m * (m + 1) // 2


# ---------------------------------------------------------------- dense tensors
#
# The library computes these tensors as contractions over nonzeros. The dense
# formulas below are the ones it used before, kept as differential oracles:
# each walks every basis triple and returns the full nested tuple
# (zeros included) that the library's `DefectTensor.entries` must equal.

def dense_mat_mul(a, b):
    bt = linalg.transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def dense_mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def dense_commutator(a, b):
    return linalg.mat_sub(dense_mat_mul(a, b), dense_mat_mul(b, a))


def dense_lie_check(m, c):
    """The dense constructor checks of a Lie bracket table, same messages."""
    if len(c) != m or any(
            len(p) != m or any(len(r) != m for r in p) for p in c):
        raise ValidationError("bracket table shape does not match dim")
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if c[i][j][k] != -c[j][i][k]:
                    raise ValidationError(
                        f"bracket not antisymmetric at ({i},{j},{k})")
    for idx, v in walk(dense_jacobi_defect(c)):
        if v != 0:
            raise JacobiViolation(
                f"Jacobi identity fails on basis triple {idx[:3]}")


def walk(entries, prefix=()):
    """(multi_index, value) of every entry of a nested tuple, in index order."""
    if isinstance(entries, Fraction):
        yield prefix, entries
        return
    for i, sub in enumerate(entries):
        yield from walk(sub, prefix + (i,))


def dense_jacobi_defect(c):
    """Coefficients of sum_cyclic [[e_i,e_j],e_k] as a rank-4 tensor."""
    m = len(c)
    p = BilinearProduct(m, table3(c)) if m else BilinearProduct(0, ())
    basis = linalg.identity(m)

    def bk(u, v):
        return p.mult(u, v)

    out = []
    for i in range(m):
        plane = []
        for j in range(m):
            row = []
            for k in range(m):
                x, y, z = basis[i], basis[j], basis[k]
                val = linalg.vec_add(
                    linalg.vec_add(bk(bk(x, y), z), bk(bk(y, z), x)),
                    bk(bk(z, x), y))
                row.append(tuple(val))
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def _associator(p, x, y, z):
    return linalg.vec_sub(p.mult(p.mult(x, y), z), p.mult(x, p.mult(y, z)))


def dense_associator_defect(p):
    """(e_i·e_j)·e_k − e_i·(e_j·e_k) over all basis triples."""
    m = p.dim
    basis = linalg.identity(m)
    return tuple(
        tuple(
            tuple(_associator(p, basis[i], basis[j], basis[k])
                  for k in range(m)) for j in range(m)) for i in range(m))


def dense_kv_anomaly(p):
    """Asymmetry of the associator in its first two slots."""
    m = p.dim
    basis = linalg.identity(m)
    return tuple(
        tuple(
            tuple(linalg.vec_sub(_associator(p, basis[i], basis[j], basis[k]),
                                 _associator(p, basis[j], basis[i], basis[k]))
                  for k in range(m)) for j in range(m)) for i in range(m))


def dense_killing_form(L):
    """K(x,y) = trace(ad_x ad_y) as a matrix."""
    m = L.dim
    ads = L.ad_matrices
    entries = []
    for i in range(m):
        row = []
        for j in range(m):
            prod = dense_mat_mul(ads[i], ads[j])
            row.append(sum(prod[a][a] for a in range(m)))
        entries.append(tuple(row))
    return tuple(entries)


def dense_torsion(conn):
    """T(e_i,e_j) = nabla_i e_j − nabla_j e_i − [e_i,e_j], rank-3 tensor."""
    m = conn.dim
    g, c = conn.gamma.gamma, conn.base.c
    return tuple(
        tuple(
            tuple(g[i][j][k] - g[j][i][k] - c[i][j][k] for k in range(m))
            for j in range(m)) for i in range(m))


def dense_curvature_operators(conn):
    """R_ij = [Gamma_i, Gamma_j] − sum_k c^k_{ij} Gamma_k as matrices."""
    m = conn.dim
    mats = conn.matrices
    c = conn.base.c
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            rij = dense_commutator(mats[i], mats[j])
            for l in range(m):
                if c[i][j][l]:
                    rij = linalg.mat_sub(rij, linalg.mat_scale(c[i][j][l],
                                                               mats[l]))
            row.append(rij)
        out.append(tuple(row))
    return tuple(out)


def dense_curvature(conn):
    """R(e_i,e_j)e_k along e_l; column k of R_ij is R(e_i,e_j)e_k."""
    m = conn.dim
    ops = dense_curvature_operators(conn)
    return tuple(
        tuple(
            tuple(tuple(ops[i][j][a][k] for a in range(m)) for k in range(m))
            for j in range(m)) for i in range(m))


# ---------------------------------------------------------------- coboundary matrices

def delta_matrix_columns(basis_inputs, apply_delta):
    """Column-per-basis-cochain matrix, returned as rows for rank work."""
    cols = []
    for b in basis_inputs:
        image = apply_delta(b)
        cols.append(tuple(x for v in image.table for x in v))
    if not cols:
        return []
    return [list(row) for row in zip(*cols)]


def unit_cochains(q, m, module):
    """Every cochain of degree q with a single 1 in its flat value table."""
    width = m if module == ADJOINT else 1
    inputs = []
    size = (m ** q) * width
    for pos in range(size):
        table = []
        for row in range(m ** q):
            vals = [Fraction(0)] * width
            if row * width <= pos < row * width + width:
                vals[pos - row * width] = Fraction(1)
            table.append(tuple(vals))
        inputs.append(Cochain(q, m, module, tuple(table)))
    return inputs


def kv_delta_by_cochains(algebra, coefficients, q):
    """delta_q of the KV complex by applying kv_coboundary to each basis
    cochain (the legal 0-cochains, or the scalar 1, in degree 0)."""
    m = algebra.dim
    if q == 0:
        zero_basis = kv_degree_zero_space(algebra) \
            if coefficients == ADJOINT else ((Fraction(1),),)
        inputs = [Cochain(0, m, coefficients, (tuple(v),))
                  for v in zero_basis]
    else:
        inputs = unit_cochains(q, m, coefficients)
    return delta_matrix_columns(inputs, lambda b: kv_coboundary(b, algebra))


def hochschild_delta_by_cochains(algebra, q):
    """delta_q of the Hochschild complex, one unit cochain at a time."""
    return delta_matrix_columns(
        unit_cochains(q, algebra.dim, ADJOINT),
        lambda b: hochschild_coboundary(b, algebra))


def dense_ce_coboundary_matrix(L, coefficients, p):
    """The library's former Chevalley-Eilenberg assembly over every cell of
    the bracket table; returns (rows, ncols, nrows)."""
    m = L.dim
    width = m if coefficients == ADJOINT else 1
    dom = list(combinations(range(m), p))
    cod = list(combinations(range(m), p + 1))
    if not dom or not cod:
        return [], len(dom) * width, len(cod) * width
    dom_pos = {t: i for i, t in enumerate(dom)}
    cod_pos = {t: i for i, t in enumerate(cod)}
    ncols = len(dom) * width
    rows = [[Fraction(0)] * ncols for _ in range(len(cod) * width)]

    def add(out_tuple, out_coord, in_tuple, in_coord, val):
        if val == 0:
            return
        r = cod_pos[out_tuple] * width + out_coord
        col = dom_pos[in_tuple] * width + in_coord
        rows[r][col] += val

    for tup in cod:
        for i in range(p + 1):
            rest = tup[:i] + tup[i + 1:]
            sign = (-1) ** i
            if coefficients == ADJOINT:
                x = tup[i]
                for a in range(m):
                    for k in range(m):
                        add(tup, k, rest, a, sign * L.c[x][a][k])
            for j in range(i + 1, p + 1):
                y = tup[j]
                x = tup[i]
                rr = tuple(t for t_i, t in enumerate(tup)
                           if t_i != i and t_i != j)
                s2 = (-1) ** (i + j)
                for l in range(m):
                    cval = L.c[x][y][l]
                    if cval == 0:
                        continue
                    sidx, psign = _sort_alternating((l,) + rr)
                    if sidx is None:
                        continue
                    for w in range(width):
                        add(tup, w, sidx, w, s2 * psign * cval)
    return rows, ncols, len(cod) * width


# ---------------------------------------------------------------- FE* system
#
# The library builds the FE* operators as one sparse table and takes the
# compatibility operators from `algebra.operator_defect`. Below are the dense
# n x n operators, the commutator loop and the solver it used before.

def dense_fe_star_operators(conn):
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


def dense_fe_star_compat(conn, ops):
    """F_ij = [M_i, M_j] + sum_k c^k_ij M_k for i < j, in (i, j) order."""
    m = conn.dim
    c = conn.base.c
    compat = []
    for i in range(m):
        for j in range(i + 1, m):
            f = linalg.commutator(ops[i], ops[j])
            for k in range(m):
                if c[i][j][k]:
                    f = linalg.mat_add(f, linalg.mat_scale(c[i][j][k], ops[k]))
            compat.append(f)
    return compat


def dense_solve_fe_star(conn):
    """Largest invariant subspace of compatible Cauchy data for nabla^2 X = 0."""
    m = conn.dim
    n = m + m * m
    ops = dense_fe_star_operators(conn)
    compat = dense_fe_star_compat(conn, ops)

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
