"""Finite-dimensional algebras over the rationals and their defect tensors.

A bilinear product is stored as a rank-3 table gamma[i][j][k]: the e_k
coefficient of e_i·e_j. A Lie algebra stores its bracket the same way and
validates antisymmetry and Jacobi at construction.

The dense table is the public form; every tensor computation reads the
table's nonzeros instead (`SparseTable`, derived once per algebra). Defect
tensors (Jacobi, associator, left-symmetry anomaly) and the Killing form are
contractions over pairs of nonzeros, so their cost follows the number of
nonzero coefficients rather than a power of the dimension. They are exact;
a defect tensor stores only its nonzero entries, and "zero" means it has
none.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from math import lcm

from koszul import linalg
from koszul.errors import JacobiViolation, ValidationError
from koszul.linalg import Mat, Vec, frac

Table3 = tuple[tuple[Vec, ...], ...]


def table3(entries) -> Table3:
    return tuple(tuple(tuple(frac(x) for x in row) for row in plane)
                 for plane in entries)


def zero_table3(m: int) -> Table3:
    z = Fraction(0)
    return tuple(tuple(tuple(z for _ in range(m)) for _ in range(m))
                 for _ in range(m))


class SparseTable:
    """Nonzero coefficients of a rank-3 table, as integers over one denominator.

    `nonzeros` lists (i, j, k, n) meaning t[i][j][k] = n / den, and
    `by_first` groups them as i -> [(j, k, n)]. `by_second` (j -> [(i, k,
    n)]) and `by_pair` ((i, j) -> [(k, n)]) group them too, built on first
    use, since most tables never need them. A contraction multiplies and
    adds these integers and divides by the product of the denominators once
    at the end, which gives the same rationals as `Fraction` arithmetic.
    """

    __slots__ = ("den", "nonzeros", "by_first", "_by_second", "_by_pair")

    def __init__(self, nonzeros):
        entries = [(i, j, k, frac(v)) for i, j, k, v in nonzeros if v]
        self.den = d = lcm(*(v.denominator for *_, v in entries))
        self.nonzeros = tuple((i, j, k, v.numerator * (d // v.denominator))
                              for i, j, k, v in entries)
        self.by_first: dict[int, list[tuple[int, int, int]]] = {}
        for i, j, k, n in self.nonzeros:
            self.by_first.setdefault(i, []).append((j, k, n))
        self._by_second = self._by_pair = None

    @property
    def by_second(self) -> dict[int, list[tuple[int, int, int]]]:
        if self._by_second is None:
            self._by_second = {}
            for i, j, k, n in self.nonzeros:
                self._by_second.setdefault(j, []).append((i, k, n))
        return self._by_second

    @property
    def by_pair(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        if self._by_pair is None:
            self._by_pair = {}
            for i, j, k, n in self.nonzeros:
                self._by_pair.setdefault((i, j), []).append((k, n))
        return self._by_pair

    @classmethod
    def of(cls, table) -> SparseTable:
        return cls((i, j, k, v) for i, plane in enumerate(table)
                   for j, row in enumerate(plane)
                   for k, v in enumerate(row) if v)


def rationals(acc: dict, den: int) -> dict:
    """Integer accumulators over `den` as nonzero rationals."""
    return {idx: Fraction(n, den) for idx, n in acc.items() if n}


@dataclass(frozen=True)
class DefectTensor:
    """Rational tensor (rank 3 or 4) measuring a failure, kept by its nonzeros.

    `nonzeros` maps multi-indices to values; construction drops zero values
    and orders the keys lexicographically, so the queries below cost
    O(nonzeros) and see entries in index order.
    """

    shape: tuple[int, ...]
    nonzeros: dict

    def __post_init__(self):
        object.__setattr__(self, "nonzeros", {
            idx: v for idx, v in sorted(self.nonzeros.items()) if v})

    def items(self):
        """Every (multi_index, value), zeros included, in index order."""
        zero = Fraction(0)
        for idx in iproduct(*map(range, self.shape)):
            yield idx, self.nonzeros.get(idx, zero)

    @cached_property
    def entries(self) -> tuple:
        """Dense nested-tuple view, built on first use."""
        zero, rank = Fraction(0), len(self.shape)

        def block(prefix):
            if len(prefix) == rank:
                return self.nonzeros.get(prefix, zero)
            return tuple(block(prefix + (i,))
                         for i in range(self.shape[len(prefix)]))
        return block(())

    def max_abs(self) -> Fraction:
        return max(map(abs, self.nonzeros.values()), default=Fraction(0))

    def is_zero(self) -> bool:
        return not self.nonzeros

    def first_nonzero(self):
        """(multi_index, value) of the first nonzero entry, or None."""
        return next(iter(self.nonzeros.items()), None)


@dataclass(frozen=True)
class BilinearProduct:
    """General bilinear product e_i·e_j = sum_k gamma[i][j][k] e_k."""

    dim: int
    gamma: Table3

    def __post_init__(self):
        m = self.dim
        if len(self.gamma) != m or any(
                len(p) != m or any(len(r) != m for r in p) for p in self.gamma):
            raise ValidationError("product table shape does not match dim")

    @cached_property
    def sparse(self) -> SparseTable:
        return SparseTable.of(self.gamma)

    def mult(self, u, v) -> Vec:
        m = self.dim
        out = [Fraction(0)] * m
        for i in range(m):
            ui = frac(u[i])
            if ui == 0:
                continue
            for j in range(m):
                vj = frac(v[j])
                if vj == 0:
                    continue
                for k in range(m):
                    g = self.gamma[i][j][k]
                    if g:
                        out[k] += ui * vj * g
        return tuple(out)

    @cached_property
    def left_matrices(self) -> tuple[Mat, ...]:
        """L_i with column j = e_i·e_j (matrix of left multiplication by e_i)."""
        m = self.dim
        return tuple(
            tuple(tuple(self.gamma[i][j][k] for j in range(m)) for k in range(m))
            for i in range(m))

    def right_matrix(self, x) -> Mat:
        """Matrix of y -> y·x."""
        m = self.dim
        return tuple(
            tuple(sum(self.gamma[j][i][k] * frac(x[i]) for i in range(m))
                  for j in range(m)) for k in range(m))

    @cached_property
    def is_associative(self) -> bool:
        return associator_defect(self).is_zero()

    @cached_property
    def is_kv(self) -> bool:
        return kv_anomaly(self).is_zero()


@dataclass(frozen=True)
class LieAlgebra:
    """dim plus bracket table c[i][j][k]; antisymmetry and Jacobi enforced."""

    dim: int
    c: Table3

    def __post_init__(self):
        m = self.dim
        if len(self.c) != m or any(
                len(p) != m or any(len(r) != m for r in p) for p in self.c):
            raise ValidationError("bracket table shape does not match dim")
        # c[i][j][k] != -c[j][i][k] needs a nonzero on one side, and the
        # relation is symmetric, so the failures are the nonzeros that fail
        # together with their mirrors.
        c = self.c
        bad = min((idx for i, j, k, _ in self.sparse.nonzeros
                   if c[i][j][k] != -c[j][i][k]
                   for idx in ((i, j, k), (j, i, k))), default=None)
        if bad is not None:
            raise ValidationError(
                "bracket not antisymmetric at ({},{},{})".format(*bad))
        hit = jacobi_defect(self.c).first_nonzero()
        if hit is not None:
            idx, _ = hit
            raise JacobiViolation(
                f"Jacobi identity fails on basis triple {idx[:3]}")

    @cached_property
    def sparse(self) -> SparseTable:
        return SparseTable.of(self.c)

    def bracket(self, u, v) -> Vec:
        return self.as_product().mult(u, v)

    def as_product(self) -> BilinearProduct:
        return BilinearProduct(self.dim, self.c)

    @cached_property
    def ad_matrices(self) -> tuple[Mat, ...]:
        """ad_i with column j = [e_i, e_j]."""
        return self.as_product().left_matrices


def operator_defect(g: SparseTable, q: SparseTable,
                    bracket: bool = False) -> dict:
    """Nonzero entries of L_i L_j (− L_j L_i) − sum_a q[i][j][a] L_a.

    L_i sends e_k to sum_l g[i][k][l] e_l: left multiplication by e_i when
    g is a product's table, though the operators may act on a space of any
    dimension. Key (i, j, k, l) holds the e_l coefficient of the operator
    for (i, j) applied to e_k. With g = q a product's table this is minus
    the associator; with bracket=True and q a Lie bracket it is the
    curvature of the connection g.
    """
    d = lcm(g.den, q.den)
    fp, fq = d // g.den, d // q.den
    # (L_i L_j)[l][k] = sum_a gamma[i][a][l] gamma[j][k][a]
    by_second = g.by_second
    acc: dict = defaultdict(int)
    for j, k, a, v in g.nonzeros:
        v *= fp
        for i, l, w in by_second.get(a, ()):
            x = v * w
            acc[i, j, k, l] += x
            if bracket:
                acc[j, i, k, l] -= x
    for i, j, a, v in q.nonzeros:
        v *= fq
        for k, l, w in g.by_first.get(a, ()):
            acc[i, j, k, l] -= v * w
    return rationals(acc, g.den * d)


def operator_matrix(entries: dict, i: int, j: int, m: int) -> Mat:
    """Dense matrix (row l, column k) of the (i, j) operator in `entries`."""
    zero = Fraction(0)
    return tuple(tuple(entries.get((i, j, k, l), zero) for k in range(m))
                 for l in range(m))


def jacobi_defect(c: Table3) -> DefectTensor:
    """Coefficients of sum_cyclic [[e_i,e_j],e_k] as a rank-4 tensor.

    T(p,q,r) = [[e_p,e_q],e_r] = sum_a c[p][q][a] c[a][r][.] is summed over
    pairs of nonzeros, then enters the cyclic sums at (p,q,r), (q,r,p) and
    (r,p,q).
    """
    m = len(c)
    s = BilinearProduct(m, c).sparse
    nested: dict = defaultdict(int)
    for p, q, a, v in s.nonzeros:
        for r, l, w in s.by_first.get(a, ()):
            nested[p, q, r, l] += v * w
    acc: dict = defaultdict(int)
    for (p, q, r, l), x in nested.items():
        acc[p, q, r, l] += x
        acc[q, r, p, l] += x
        acc[r, p, q, l] += x
    return DefectTensor((m,) * 4, rationals(acc, s.den * s.den))


def associator_defect(p: BilinearProduct) -> DefectTensor:
    """(e_i·e_j)·e_k − e_i·(e_j·e_k) over all basis triples; zero iff associative."""
    d = operator_defect(p.sparse, p.sparse)
    return DefectTensor((p.dim,) * 4, {idx: -v for idx, v in d.items()})


def kv_anomaly(p: BilinearProduct) -> DefectTensor:
    """Asymmetry of the associator in its first two slots.

    Zero iff the product is left-symmetric (Koszul-Vinberg). For the product
    of a torsion-free connection this tensor equals minus its curvature, and
    it is computed that way: as minus the curvature of p over its own
    commutator bracket.
    """
    g = p.gamma
    comm = {}
    for i, j, k, _ in p.sparse.nonzeros:
        comm[i, j, k] = g[i][j][k] - g[j][i][k]
        comm[j, i, k] = -comm[i, j, k]
    q = SparseTable((i, j, k, v) for (i, j, k), v in comm.items())
    d = operator_defect(p.sparse, q, bracket=True)
    return DefectTensor((p.dim,) * 4, {idx: -v for idx, v in d.items()})


def commutator_bracket(p: BilinearProduct) -> LieAlgebra:
    """Lie algebra with bracket x·y − y·x; raises JacobiViolation if not Lie."""
    m = p.dim
    c = tuple(
        tuple(
            tuple(p.gamma[i][j][k] - p.gamma[j][i][k] for k in range(m))
            for j in range(m)) for i in range(m))
    return LieAlgebra(m, c)


def killing_form(L: LieAlgebra):
    """K(x,y) = trace(ad_x ad_y); symmetric, ad-invariant.

    K(e_i,e_j) = sum_{a,b} c[i][a][b] c[j][b][a], summed over pairs of
    nonzeros that share the (a, b) / (b, a) slots.
    """
    from koszul.forms import BilinearForm
    m = L.dim
    s = L.sparse
    by_pair: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, a, b, n in s.nonzeros:
        by_pair.setdefault((a, b), []).append((i, n))
    acc = [[0] * m for _ in range(m)]
    for (a, b), left in by_pair.items():
        for j, w in by_pair.get((b, a), ()):
            for i, v in left:
                acc[i][j] += v * w
    den = s.den * s.den
    entries = tuple(tuple(Fraction(x, den) for x in row) for row in acc)
    return BilinearForm(m, entries, "symmetric")


def abelian(m: int) -> LieAlgebra:
    return LieAlgebra(m, zero_table3(m))


def zero_product(m: int) -> BilinearProduct:
    return BilinearProduct(m, zero_table3(m))


def product_from_sparse(m: int, entries) -> BilinearProduct:
    """entries: iterable of (i, j, k, value)."""
    g = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i, j, k, v in entries:
        if not all(0 <= t < m for t in (i, j, k)):
            raise ValidationError(f"index out of range in entry ({i},{j},{k})")
        g[i][j][k] = frac(v)
    return BilinearProduct(m, table3(g))


def lie_from_sparse(m: int, entries) -> LieAlgebra:
    """entries: iterable of (i, j, k, value); skew completion from i<j.

    Supplying both (i,j,k,v) and (j,i,k,w) with w != -v is an error, as is a
    nonzero diagonal entry.
    """
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    seen = {}
    for i, j, k, v in entries:
        if not all(0 <= t < m for t in (i, j, k)):
            raise ValidationError(f"index out of range in entry ({i},{j},{k})")
        v = frac(v)
        if i == j:
            if v != 0:
                raise ValidationError(f"nonzero diagonal bracket ({i},{i},{k})")
            continue
        if (i, j, k) in seen and seen[(i, j, k)] != v:
            raise ValidationError(f"conflicting entries for ({i},{j},{k})")
        if (j, i, k) in seen and seen[(j, i, k)] != -v:
            raise ValidationError(
                f"entries ({i},{j},{k}) and ({j},{i},{k}) are not opposite")
        seen[(i, j, k)] = v
        c[i][j][k] = v
        c[j][i][k] = -v
    return LieAlgebra(m, table3(c))


def conjugate_product(p: BilinearProduct, pmat: Mat) -> BilinearProduct:
    """Transport the product along the basis change e_i' = P e_i."""
    m = p.dim
    pinv = linalg.inverse(pmat)
    cols = linalg.transpose(pmat)
    g = []
    for i in range(m):
        plane = []
        for j in range(m):
            plane.append(tuple(linalg.mat_vec(pinv, p.mult(cols[i], cols[j]))))
        g.append(tuple(plane))
    return BilinearProduct(m, tuple(g))


def conjugate_lie(L: LieAlgebra, pmat: Mat) -> LieAlgebra:
    q = conjugate_product(L.as_product(), pmat)
    return LieAlgebra(L.dim, q.gamma)


def direct_sum_products(a: BilinearProduct, b: BilinearProduct) -> BilinearProduct:
    m, n = a.dim, b.dim
    d = m + n
    g = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i, j, k in iproduct(range(m), repeat=3):
        g[i][j][k] = a.gamma[i][j][k]
    for i, j, k in iproduct(range(n), repeat=3):
        g[m + i][m + j][m + k] = b.gamma[i][j][k]
    return BilinearProduct(d, table3(g))
