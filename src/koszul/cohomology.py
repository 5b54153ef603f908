"""Cochain complexes over a finite-dimensional algebra.

Three complexes share the rank-nullity plumbing:

* the left-symmetric (KV) complex, with coefficients in the algebra itself
  (two-sided action) or trivial scalars;
* the Chevalley-Eilenberg complex of a Lie algebra (trivial or adjoint);
* the Hochschild complex of an associative algebra in low degree.

Degree-0 conventions in the KV complex are the subtle point. With
coefficients in the algebra, 0-cochains are restricted to the elements xi
with (x·y)·xi = x·(y·xi) for all x, y: on that subspace (and only there)
the square of the coboundary vanishes from degree 0. With scalar
coefficients the trivial action would force "delta f = -f", which is not a
1-cochain; the implemented degree-0 scalar map is identically zero, which
matches the dimension counts this complex is used for. Both conventions are
recorded in the report notes, and squares are verified from degree 1 up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iproduct

from koszul import linalg
from koszul.algebra import (BilinearProduct, DefectTensor, LieAlgebra,
                            kv_anomaly, operator_defect, operator_matrix,
                            table3)
from koszul.errors import NotAssociative, NotKV, ValidationError
from koszul.linalg import Vec

ADJOINT = "adjoint"
SCALAR = "scalar"
TRIVIAL = "trivial"


def _flat_index(idx, m: int) -> int:
    out = 0
    for i in idx:
        out = out * m + i
    return out


@dataclass(frozen=True)
class Cochain:
    """Multilinear map on q algebra slots with values in the module.

    table[flat(i_1..i_q)] is the module value (length m for algebra
    coefficients, length 1 for scalars) on the basis tuple.
    """

    degree: int
    dim: int
    module: str
    table: tuple[Vec, ...]

    def __post_init__(self):
        if self.module not in (ADJOINT, SCALAR):
            raise ValidationError(f"unknown module {self.module!r}")
        if len(self.table) != self.dim ** self.degree:
            raise ValidationError("cochain table has wrong length")
        want = self.dim if self.module == ADJOINT else 1
        if any(len(v) != want for v in self.table):
            raise ValidationError("cochain values have wrong length")

    @property
    def module_dim(self) -> int:
        return self.dim if self.module == ADJOINT else 1

    def value(self, idx) -> Vec:
        return self.table[_flat_index(idx, self.dim)]

    def is_zero(self) -> bool:
        return all(x == 0 for v in self.table for x in v)


def cochain_from_function(degree: int, m: int, module: str, fn) -> Cochain:
    table = tuple(tuple(frac for frac in fn(idx))
                  for idx in iproduct(range(m), repeat=degree))
    return Cochain(degree, m, module, table)


def zero_cochain(degree: int, m: int, module: str) -> Cochain:
    width = m if module == ADJOINT else 1
    z = (Fraction(0),) * width
    return Cochain(degree, m, module, tuple(z for _ in range(m ** degree)))


def kv_degree_zero_space(p: BilinearProduct):
    """Basis of {xi : (x·y)·xi = x·(y·xi) for all x,y}, the legal 0-cochains."""
    m = p.dim
    d = operator_defect(p, p.sparse)
    rows = [row for i in range(m) for j in range(m)
            for row in operator_matrix(d, i, j, m)]
    return linalg.nullspace(rows, ncols=m)


def kv_coboundary(c: Cochain, algebra: BilinearProduct,
                  coefficients: str | None = None) -> Cochain:
    """One step of the left-symmetric coboundary.

    For f of degree q >= 1 and xi = X_1 ⊗ ... ⊗ X_{q+1}:
    delta f(xi) = sum_{i=1..q} (-1)^i [ X_i·f(∂_i xi)
                  + f(∂²_{i,q+1} xi ⊗ X_i)·X_{q+1}  (algebra coefficients only)
                  - f(X_i·∂_i xi) ],
    the action on a tensor spreading over every slot. Degree 0 with algebra
    coefficients: (delta xi)(X) = -X·xi + xi·X; with scalars: zero.
    """
    if coefficients is not None and coefficients != c.module:
        raise ValidationError("cochain module does not match coefficients")
    if c.dim != algebra.dim:
        raise ValidationError("cochain dimension does not match the algebra")
    if c.degree > 4:
        raise ValidationError("coboundary implemented for degree <= 4")
    if not algebra.is_kv:
        hit = kv_anomaly(algebra).first_nonzero()
        raise NotKV(f"product is not left-symmetric (witness {hit[0][:3]})")
    m = algebra.dim
    q = c.degree
    gam = algebra.gamma

    if q == 0:
        if c.module == SCALAR:
            return zero_cochain(1, m, SCALAR)
        xi = c.table[0]
        basis = linalg.identity(m)
        table = tuple(
            tuple(linalg.vec_sub(algebra.mult(xi, basis[x]),
                                 algebra.mult(basis[x], xi)))
            for x in range(m))
        return Cochain(1, m, ADJOINT, table)

    width = c.module_dim
    out = []
    for idx in iproduct(range(m), repeat=q + 1):
        acc = [Fraction(0)] * width
        last = idx[q]
        for i in range(1, q + 1):
            xi_i = idx[i - 1]
            rest = idx[:i - 1] + idx[i:]
            sign = -1 if i % 2 else 1

            if c.module == ADJOINT:
                fv = c.value(rest)
                lm = gam[xi_i]
                for a in range(m):
                    if fv[a]:
                        for k in range(m):
                            if lm[a][k]:
                                acc[k] += sign * fv[a] * lm[a][k]
                mid_args = idx[:i - 1] + idx[i:q] + (xi_i,)
                fv2 = c.value(mid_args)
                for a in range(m):
                    if fv2[a]:
                        for k in range(m):
                            g = gam[a][last][k]
                            if g:
                                acc[k] += sign * fv2[a] * g
            for t in range(q):
                old = rest[t]
                for a in range(m):
                    g = gam[xi_i][old][a]
                    if g:
                        fv3 = c.value(rest[:t] + (a,) + rest[t + 1:])
                        for k in range(width):
                            if fv3[k]:
                                acc[k] -= sign * g * fv3[k]
        out.append(tuple(acc))
    return Cochain(q + 1, m, c.module, tuple(out))


@dataclass(frozen=True)
class DegreeDims:
    degree: int
    cochains: int
    cocycles: int
    coboundaries: int
    h: int

    def __post_init__(self):
        if self.h != self.cocycles - self.coboundaries or self.h < 0:
            raise ValidationError("inconsistent rank bookkeeping")


@dataclass(frozen=True)
class CohomologyReport:
    complex: str
    coefficients: str
    algebra_dim: int
    degrees: tuple[DegreeDims, ...]
    notes: str = ""

    def betti(self) -> tuple[int, ...]:
        return tuple(d.h for d in self.degrees)


def _dims_from_deltas(name, coefficients, m, c_dims, deltas,
                      notes="") -> CohomologyReport:
    """deltas[q]: matrix of delta_q as list of rows (maps C^q -> C^{q+1})."""
    ranks = []
    for q, mat in enumerate(deltas):
        if c_dims[q] == 0 or not mat:
            ranks.append(0)
        else:
            ranks.append(linalg.rank(mat))
    out = []
    for q in range(len(c_dims)):
        rank_out = ranks[q] if q < len(deltas) else 0
        z = c_dims[q] - rank_out
        b = ranks[q - 1] if q >= 1 else 0
        out.append(DegreeDims(q, c_dims[q], z, b, z - b))
    return CohomologyReport(name, coefficients, m, tuple(out), notes)


def _delta_matrix_columns(basis_inputs, apply_delta):
    """Column-per-basis-cochain matrix, returned as rows for rank work."""
    cols = []
    for b in basis_inputs:
        image = apply_delta(b)
        cols.append(tuple(x for v in image.table for x in v))
    if not cols:
        return []
    return [list(row) for row in zip(*cols)]


def kv_cohomology_dims(algebra: BilinearProduct, coefficients: str,
                       max_degree: int = 3) -> CohomologyReport:
    """Exact dims of the left-symmetric complex up to max_degree <= 3."""
    if coefficients not in (ADJOINT, SCALAR):
        raise ValidationError("coefficients must be adjoint or scalar")
    if max_degree > 3:
        raise ValidationError("degrees capped at 3")
    if not algebra.is_kv:
        raise NotKV("product is not left-symmetric")
    m = algebra.dim
    width = m if coefficients == ADJOINT else 1

    zero_basis = kv_degree_zero_space(algebra) if coefficients == ADJOINT \
        else ((Fraction(1),),)
    c_dims = [len(zero_basis)]
    for q in range(1, max_degree + 1):
        c_dims.append((m ** q) * width)

    deltas = []
    for q in range(0, max_degree + 1):
        if q == 0:
            inputs = [Cochain(0, m, coefficients, (tuple(v),))
                      for v in zero_basis]
        else:
            inputs = []
            size = (m ** q) * width
            for pos in range(size):
                table = []
                for row in range(m ** q):
                    vals = [Fraction(0)] * width
                    if row * width <= pos < row * width + width:
                        vals[pos - row * width] = Fraction(1)
                    table.append(tuple(vals))
                inputs.append(Cochain(q, m, coefficients, tuple(table)))
        deltas.append(_delta_matrix_columns(
            inputs, lambda b: kv_coboundary(b, algebra)))
    notes = ("degree-0 cochains restricted to the second-order-parallel "
             "elements" if coefficients == ADJOINT else
             "degree-0 scalar coboundary taken as zero; the source's "
             "degree-0 rule is not a map into 1-cochains")
    return _dims_from_deltas("kv", coefficients, m, c_dims, deltas, notes)


def _sort_alternating(idx):
    """Sorted index tuple and permutation sign; (None, 0) on a repeat."""
    order = sorted(range(len(idx)), key=lambda t: idx[t])
    sidx = tuple(idx[t] for t in order)
    for a, b in zip(sidx, sidx[1:]):
        if a == b:
            return None, 0
    sign = 1
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return sidx, sign


def ce_coboundary_matrix(L: LieAlgebra, coefficients: str, p: int):
    """Matrix rows of delta: C^p -> C^{p+1} for the Lie algebra complex."""
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


def ce_cohomology_dims(L: LieAlgebra, coefficients: str = TRIVIAL,
                       max_degree: int = 3) -> CohomologyReport:
    """Chevalley-Eilenberg dims; trivial or adjoint coefficients, p <= 3."""
    if coefficients not in (TRIVIAL, ADJOINT):
        raise ValidationError("coefficients must be trivial or adjoint")
    if max_degree > 3:
        raise ValidationError("degrees capped at 3")
    m = L.dim
    width = m if coefficients == ADJOINT else 1
    c_dims = []
    deltas = []
    from math import comb
    for p in range(max_degree + 1):
        c_dims.append(comb(m, p) * width)
        rows, _, _ = ce_coboundary_matrix(L, coefficients, p)
        deltas.append(rows)
    return _dims_from_deltas("chevalley-eilenberg", coefficients, m,
                             c_dims, deltas)


def hochschild_coboundary(c: Cochain, algebra: BilinearProduct) -> Cochain:
    """(delta f)(x_0..x_q) = x_0 f(...) + sum (-1)^i f(..x_{i-1}x_i..)
    + (-1)^{q+1} f(...) x_q."""
    m = algebra.dim
    q = c.degree
    out = []
    for idx in iproduct(range(m), repeat=q + 1):
        acc = [Fraction(0)] * m
        fv = c.value(idx[1:])
        for k in range(m):
            for a in range(m):
                g = algebra.gamma[idx[0]][a][k]
                if g and fv[a]:
                    acc[k] += g * fv[a]
        for i in range(1, q + 1):
            sign = (-1) ** i
            pref = idx[:i - 1]
            suff = idx[i + 1:]
            for a in range(m):
                g = algebra.gamma[idx[i - 1]][idx[i]][a]
                if g:
                    fv2 = c.value(pref + (a,) + suff)
                    for k in range(m):
                        if fv2[k]:
                            acc[k] += sign * g * fv2[k]
        fv3 = c.value(idx[:q])
        sign = (-1) ** (q + 1)
        for a in range(m):
            if fv3[a]:
                for k in range(m):
                    g = algebra.gamma[a][idx[q]][k]
                    if g:
                        acc[k] += sign * fv3[a] * g
        out.append(tuple(acc))
    return Cochain(q + 1, m, ADJOINT, tuple(out))


def hochschild_dims(algebra: BilinearProduct,
                    max_degree: int = 2) -> CohomologyReport:
    """Hochschild dims with coefficients in the algebra, degree <= 2."""
    if max_degree > 2:
        raise ValidationError("degrees capped at 2")
    if not algebra.is_associative:
        from koszul.algebra import associator_defect
        hit = associator_defect(algebra).first_nonzero()
        raise NotAssociative(f"associator nonzero (witness {hit[0][:3]})")
    m = algebra.dim
    c_dims = [m * (m ** q) for q in range(max_degree + 1)]
    deltas = []
    for q in range(max_degree + 1):
        inputs = []
        size = m ** q * m
        for pos in range(size):
            table = []
            for row in range(m ** q):
                vals = [Fraction(0)] * m
                if row * m <= pos < row * m + m:
                    vals[pos - row * m] = Fraction(1)
                table.append(tuple(vals))
            inputs.append(Cochain(q, m, ADJOINT, tuple(table)))
        deltas.append(_delta_matrix_columns(
            inputs, lambda b: hochschild_coboundary(b, algebra)))
    return _dims_from_deltas("hochschild", ADJOINT, m, c_dims, deltas)


def maurer_cartan_defect(mu: LieAlgebra, b_table) -> DefectTensor:
    """dB + J_B for a skew bracket perturbation B.

    dB is the adjoint Chevalley-Eilenberg coboundary of B against mu, and
    J_B(x,y,z) = sum_cyclic B(x, B(y,z)). Zero exactly when mu + B is again
    a Lie bracket.
    """
    b_table = table3(b_table)
    m = mu.dim
    if len(b_table) != m:
        raise ValidationError("perturbation shape does not match the algebra")
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if b_table[i][j][k] != -b_table[j][i][k]:
                    raise ValidationError("perturbation is not skew")
    bprod = BilinearProduct(m, b_table)
    basis = linalg.identity(m)

    def br(u, v):
        return mu.bracket(u, v)

    def bb(u, v):
        return bprod.mult(u, v)

    out = {}
    for i in range(m):
        for j in range(m):
            for k in range(m):
                x, y, z = basis[i], basis[j], basis[k]
                db = [Fraction(0)] * m
                for term in (br(x, bb(y, z)),
                             linalg.vec_scale(-1, br(y, bb(x, z))),
                             br(z, bb(x, y)),
                             linalg.vec_scale(-1, bb(br(x, y), z)),
                             bb(br(x, z), y),
                             linalg.vec_scale(-1, bb(br(y, z), x)),
                             bb(x, bb(y, z)),
                             bb(y, bb(z, x)),
                             bb(z, bb(x, y))):
                    db = [a + t for a, t in zip(db, term)]
                for l, v in enumerate(db):
                    out[i, j, k, l] = v
    return DefectTensor((m,) * 4, out)
