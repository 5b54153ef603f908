"""Cochain complexes over a finite-dimensional algebra.

Three complexes share the rank-nullity plumbing:

* the left-symmetric (KV) complex, with coefficients in the algebra itself
  (two-sided action) or trivial scalars;
* the Chevalley-Eilenberg complex of a Lie algebra (trivial or adjoint);
* the Hochschild complex of an associative algebra in low degree.

Each coboundary matrix is assembled directly from the nonzeros of the
structure-constant table, by one helper, rather than by applying the
coboundary to every basis cochain.

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


def _assemble(nrows: int, ncols: int, den: int, entries) -> list[list]:
    """Dense Fraction rows of a coboundary matrix from its contributions.

    `entries` yields (row, col, n): n / den is added to that cell. Every
    coboundary matrix below is built this way from the nonzeros of a
    structure-constant table (`SparseTable`, integers over `den`), so only
    cells that receive a contribution are touched.
    """
    if not nrows or not ncols:
        return []
    acc: dict[tuple[int, int], int] = {}
    for r, col, n in entries:
        acc[r, col] = acc.get((r, col), 0) + n
    zero = Fraction(0)
    rows = [[zero] * ncols for _ in range(nrows)]
    for (r, col), n in acc.items():
        if n:
            rows[r][col] = Fraction(n, den)
    return rows


def _by_second(sp) -> dict[int, list[tuple[int, int, int]]]:
    """j -> [(i, k, n)] for the nonzeros t[i][j][k] = n / den of a table."""
    out: dict[int, list[tuple[int, int, int]]] = {}
    for i, j, k, n in sp.nonzeros:
        out.setdefault(j, []).append((i, k, n))
    return out


def _by_pair(sp) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """(i, j) -> [(k, n)] for the nonzeros t[i][j][k] = n / den of a table."""
    out: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, j, k, n in sp.nonzeros:
        out.setdefault((i, j), []).append((k, n))
    return out


def _kv_entries(sp, m: int, q: int, adjoint: bool):
    """Contributions to delta_q (q >= 1) of the KV complex; see kv_coboundary.

    Row flat(X_1..X_{q+1}) * width + k, column flat(f's arguments) * width +
    a, where width is m for algebra coefficients and 1 for scalars.
    """
    by_first, by_second, by_pair = sp.by_first, _by_second(sp), _by_pair(sp)
    width = m if adjoint else 1
    for out, idx in enumerate(iproduct(range(m), repeat=q + 1)):
        row0 = out * width
        last = idx[q]
        for i in range(1, q + 1):
            x = idx[i - 1]
            rest = idx[:i - 1] + idx[i:]
            sign = -1 if i % 2 else 1
            if adjoint:
                # X_i·f(∂_i xi)
                col0 = _flat_index(rest, m) * m
                for a, k, n in by_first.get(x, ()):
                    yield row0 + k, col0 + a, sign * n
                # f(∂²_{i,q+1} xi ⊗ X_i)·X_{q+1}
                col0 = _flat_index(idx[:i - 1] + idx[i:q] + (x,), m) * m
                for a, k, n in by_second.get(last, ()):
                    yield row0 + k, col0 + a, sign * n
            # -f(X_i·∂_i xi): X_i acts on each slot of rest
            for t, held in enumerate(rest):
                for a, n in by_pair.get((x, held), ()):
                    col0 = _flat_index(rest[:t] + (a,) + rest[t + 1:],
                                       m) * width
                    for k in range(width):
                        yield row0 + k, col0 + k, -sign * n


def _kv_degree_zero_entries(sp, m: int, zero_basis):
    """Contributions to delta_0 with algebra coefficients: xi·X - X·xi."""
    by_first, by_second = sp.by_first, _by_second(sp)
    for col, xi in enumerate(zero_basis):
        for a, v in enumerate(xi):
            if v:
                for x, k, n in by_first.get(a, ()):
                    yield x * m + k, col, v * n
                for x, k, n in by_second.get(a, ()):
                    yield x * m + k, col, -v * n


def kv_coboundary_matrix(algebra: BilinearProduct, coefficients: str, q: int):
    """Matrix rows of delta: C^q -> C^{q+1} for the KV complex.

    Column j is the image of the j-th basis cochain: for q >= 1 the unit
    cochain at flat position j of the cochain table, for q = 0 with algebra
    coefficients the j-th vector of `kv_degree_zero_space`, and for scalars
    the constant 1. Returns (rows, ncols, nrows), as `ce_coboundary_matrix`.
    """
    if coefficients not in (ADJOINT, SCALAR):
        raise ValidationError("coefficients must be adjoint or scalar")
    if not algebra.is_kv:
        raise NotKV("product is not left-symmetric")
    m = algebra.dim
    sp = algebra.sparse
    adjoint = coefficients == ADJOINT
    width = m if adjoint else 1
    nrows = m ** (q + 1) * width
    if q > 0:
        ncols = m ** q * width
        entries = _kv_entries(sp, m, q, adjoint)
    elif adjoint:
        zero_basis = kv_degree_zero_space(algebra)
        ncols = len(zero_basis)
        entries = _kv_degree_zero_entries(sp, m, zero_basis)
    else:
        # the degree-0 scalar coboundary is taken as zero
        ncols, entries = 1, ()
    return _assemble(nrows, ncols, sp.den, entries), ncols, nrows


def kv_cohomology_dims(algebra: BilinearProduct, coefficients: str,
                       max_degree: int = 3) -> CohomologyReport:
    """Exact dims of the left-symmetric complex up to max_degree <= 3."""
    if coefficients not in (ADJOINT, SCALAR):
        raise ValidationError("coefficients must be adjoint or scalar")
    if max_degree > 3:
        raise ValidationError("degrees capped at 3")
    c_dims = []
    deltas = []
    for q in range(max_degree + 1):
        rows, ncols, _ = kv_coboundary_matrix(algebra, coefficients, q)
        c_dims.append(ncols)
        deltas.append(rows)
    notes = ("degree-0 cochains restricted to the second-order-parallel "
             "elements" if coefficients == ADJOINT else
             "degree-0 scalar coboundary taken as zero; the source's "
             "degree-0 rule is not a map into 1-cochains")
    return _dims_from_deltas("kv", coefficients, algebra.dim, c_dims, deltas,
                             notes)


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


def _ce_entries(sp, m: int, p: int, adjoint: bool, dom_pos, cod):
    """Contributions to delta_p of the Chevalley-Eilenberg complex.

    Row cod-position * width + k, column dom-position * width + a, over
    increasing index tuples; width is m for the adjoint module, else 1.
    """
    by_pair = _by_pair(sp)
    width = m if adjoint else 1
    for out, tup in enumerate(cod):
        row0 = out * width
        for i in range(p + 1):
            x = tup[i]
            sign = -1 if i % 2 else 1
            if adjoint:
                col0 = dom_pos[tup[:i] + tup[i + 1:]] * width
                for a, k, n in sp.by_first.get(x, ()):
                    yield row0 + k, col0 + a, sign * n
            for j in range(i + 1, p + 1):
                rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
                s2 = -1 if (i + j) % 2 else 1
                for l, n in by_pair.get((x, tup[j]), ()):
                    sidx, psign = _sort_alternating((l,) + rest)
                    if sidx is not None:
                        col0 = dom_pos[sidx] * width
                        for w in range(width):
                            yield row0 + w, col0 + w, s2 * psign * n


def ce_coboundary_matrix(L: LieAlgebra, coefficients: str, p: int):
    """Matrix rows of delta: C^p -> C^{p+1} for the Lie algebra complex."""
    m = L.dim
    width = m if coefficients == ADJOINT else 1
    dom = list(combinations(range(m), p))
    cod = list(combinations(range(m), p + 1))
    ncols, nrows = len(dom) * width, len(cod) * width
    if not dom or not cod:
        return [], ncols, nrows
    dom_pos = {t: i for i, t in enumerate(dom)}
    entries = _ce_entries(L.sparse, m, p, coefficients == ADJOINT, dom_pos,
                          cod)
    return _assemble(nrows, ncols, L.sparse.den, entries), ncols, nrows


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


def _hochschild_entries(sp, m: int, q: int):
    """Contributions to delta_q of the Hochschild complex; see
    hochschild_coboundary. Row flat(x_0..x_q) * m + k, column flat(f's
    arguments) * m + a."""
    by_first, by_second, by_pair = sp.by_first, _by_second(sp), _by_pair(sp)
    last_sign = -1 if q % 2 == 0 else 1
    for out, idx in enumerate(iproduct(range(m), repeat=q + 1)):
        row0 = out * m
        col0 = _flat_index(idx[1:], m) * m
        for a, k, n in by_first.get(idx[0], ()):
            yield row0 + k, col0 + a, n
        for i in range(1, q + 1):
            sign = -1 if i % 2 else 1
            for a, n in by_pair.get((idx[i - 1], idx[i]), ()):
                col0 = _flat_index(idx[:i - 1] + (a,) + idx[i + 1:], m) * m
                for k in range(m):
                    yield row0 + k, col0 + k, sign * n
        col0 = _flat_index(idx[:q], m) * m
        for a, k, n in by_second.get(idx[q], ()):
            yield row0 + k, col0 + a, last_sign * n


def hochschild_coboundary_matrix(algebra: BilinearProduct, q: int):
    """Matrix rows of delta: C^q -> C^{q+1} for the Hochschild complex.

    Column j is the image of the unit cochain at flat position j of the
    cochain table. Returns (rows, ncols, nrows), as `ce_coboundary_matrix`.
    """
    if not algebra.is_associative:
        from koszul.algebra import associator_defect
        hit = associator_defect(algebra).first_nonzero()
        raise NotAssociative(f"associator nonzero (witness {hit[0][:3]})")
    m = algebra.dim
    ncols, nrows = m ** (q + 1), m ** (q + 2)
    entries = _hochschild_entries(algebra.sparse, m, q)
    return _assemble(nrows, ncols, algebra.sparse.den, entries), ncols, nrows


def hochschild_dims(algebra: BilinearProduct,
                    max_degree: int = 2) -> CohomologyReport:
    """Hochschild dims with coefficients in the algebra, degree <= 2."""
    if max_degree > 2:
        raise ValidationError("degrees capped at 2")
    c_dims = []
    deltas = []
    for q in range(max_degree + 1):
        rows, ncols, _ = hochschild_coboundary_matrix(algebra, q)
        c_dims.append(ncols)
        deltas.append(rows)
    return _dims_from_deltas("hochschild", ADJOINT, algebra.dim, c_dims,
                             deltas)


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
