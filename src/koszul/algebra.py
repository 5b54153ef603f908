"""Finite-dimensional algebras over the rationals and their defect tensors.

A bilinear product is a rank-3 table gamma[i][j][k]: the e_k coefficient of
e_i·e_j. A Lie algebra has its bracket table c[i][j][k] and validates
antisymmetry and Jacobi at construction.

Both store only the table's nonzeros (`SparseTable`), and every builder
writes those nonzeros directly. A table given entry by entry, from a file
(`koszul.io`) or by `lie_from_sparse` and `product_from_sparse`, is built
by `SparseTable.from_parts` from each value's integer numerator and
denominator, with the skew completion and the checks of repeated entries
done by cross-multiplication. Defect tensors (Jacobi, associator,
left-symmetry anomaly) and the Killing form are contractions over pairs of
nonzeros, so their cost follows the number of nonzero coefficients rather
than a power of the dimension. They are exact. A contraction sums integer
products on one flat integer key per entry; a defect tensor keeps the
nonzero sums as integers over one denominator, as `SparseTable` does, and
"zero" means it has none. `DefectTensor.over_flat` sorts the integer keys
once and turns each into its index tuple once.

Two of these tensors are alternating, and only their independent half is
accumulated. The Jacobiator of a skew bracket is alternating in its three
lower indices: `jacobi_defect` visits the nonzeros c[p][q][a] with p < q
only, adds each product into one accumulator keyed by the sorted triple,
and expands its nonzero entries into their six signed permutations at the
end. Skewness is that formula's precondition, so `jacobi_defect` checks it
and refuses a table that is not skew. The curvature of a connection over a
skew bracket (and so the left-symmetry anomaly) is antisymmetric in its
first two indices: `curvature_tensor` accumulates only the keys with
i < j and mirrors them on their flat keys. The nested tuples
`gamma` and `c` are dense views, built on first use for callers that index
the whole table.

Work whose size is a power of the dimension or a count of pairs of
nonzeros is first estimated from the nonzeros and refused above a fixed
bound (`envelope`), so an input too large for memory fails with a
`ValidationError` before anything is allocated.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from math import gcd, lcm

from koszul import linalg
from koszul.errors import JacobiViolation, ValidationError
from koszul.linalg import Mat, Vec, frac

Table3 = tuple[tuple[Vec, ...], ...]

# Both bounds sit far above every input of the tests and the benchmark
# (at most 1,728 dense cells and 25,088 pairs of nonzeros). A dense view at
# DENSE_CELL_BOUND is dim 100. A contraction's accumulator holds at most one
# integer per pair of nonzeros it visits and at most one per output index,
# and its estimate is the smaller count: any table of dim up to 31 passes.
# Each estimate counts only the pairs its contraction visits: the Jacobi
# check those with p < q, the bracket-mode q-term those with i < j. So
# check-lie passes on affine:25 (810k pairs, about 1.2 s and 97 MB) and is
# refused on affine:27 (1.1M pairs).
DENSE_CELL_BOUND = 10 ** 6
ENTRY_BOUND = 10 ** 6


def envelope(work: str, estimate: int, bound: int) -> None:
    """Refuse `work` when its size estimate, taken before any allocation,
    exceeds `bound`."""
    if estimate > bound:
        raise ValidationError(
            f"refused: {work} estimated at {estimate}, above the bound of "
            f"{bound}")


def _pairs_visited(keys, partners: dict) -> int:
    """Pairs a contraction visits: the partner-list length summed over the
    keys of the nonzeros, in O(nonzeros)."""
    return sum(len(partners.get(a, ())) for a in keys)


class SparseTable:
    """Nonzero coefficients of a rank-3 table, as integers over one denominator.

    Built from (i, j, k, value) entries with distinct indices; zero values
    are dropped. `nonzeros` lists (i, j, k, n) in index order, meaning
    t[i][j][k] = n / den with den the least common denominator of the
    values, so two tables compare and hash equal exactly when their values
    agree. `SparseTable.over` builds the same from integer sums over one
    denominator. `by_first` groups the nonzeros as i -> [(j, k, n)].
    `by_second` (j -> [(i, k, n)]) and `by_pair` ((i, j) -> [(k, n)]) group
    them too, built on first use, since most tables never need them. A
    contraction multiplies and adds these integers and divides by the
    product of the denominators once at the end, which gives the same
    rationals as `Fraction` arithmetic.
    """

    __slots__ = ("den", "nonzeros", "by_first", "_by_second", "_by_pair")

    def __init__(self, entries=()):
        entries = sorted((i, j, k, frac(v)) for i, j, k, v in entries if v)
        d = lcm(*(v.denominator for *_, v in entries))
        self._store(d, tuple((i, j, k, v.numerator * (d // v.denominator))
                             for i, j, k, v in entries))

    @classmethod
    def from_parts(cls, entries, skew: bool = False,
                   where: str = "") -> SparseTable:
        """The table of (i, j, k, n, d) entries meaning n / d (d > 0), with
        no `Fraction` per entry; indices are the caller's to check.

        Two entries for one index must be equal rationals, which is checked
        by cross-multiplication. With skew=True each entry also sets its
        mirror (j, i, k) to -n / d: an entry and a mirror entry must then be
        opposite, and a diagonal entry (i = j) must be zero. A refusal is a
        `ValidationError` whose message starts with `where`. The values
        go over D, the lcm of the d, to `over`: a value a/b in lowest terms
        has numerator a·D/b, and gcd(D, a·D/b) = D/b, so `over` divides by
        D/L and keeps L, the least common denominator of the values, as a
        table built from `Fraction`s does.
        """
        seen: dict = {}
        for i, j, k, n, d in entries:
            if skew and i == j:
                if n:
                    raise ValidationError(
                        f"{where}nonzero diagonal bracket ({i},{i},{k})")
                continue
            old = seen.get((i, j, k))
            if old is not None and old[0] * d != n * old[1]:
                raise ValidationError(
                    f"{where}conflicting entries for ({i},{j},{k})")
            if skew:
                old = seen.get((j, i, k))
                if old is not None and old[0] * d != -n * old[1]:
                    raise ValidationError(
                        f"{where}entries ({i},{j},{k}) and ({j},{i},{k}) "
                        f"are not opposite")
            seen[i, j, k] = n, d
        den = lcm(*(d for _, d in seen.values()))
        sums = {idx: n * (den // d) for idx, (n, d) in seen.items()}
        if skew:
            sums.update(((j, i, k), -n) for (i, j, k), n in list(sums.items()))
        return cls.over(sums, den)

    @classmethod
    def over(cls, sums: dict, den: int) -> SparseTable:
        """The table whose entry at (i, j, k) is sums[i, j, k] / den (den >
        0), reduced to the least common denominator without a `Fraction`
        per entry; zero sums are dropped."""
        nz = sorted((idx, n) for idx, n in sums.items() if n)
        g = gcd(den, *(n for _, n in nz))
        t = cls.__new__(cls)
        t._store(den // g, tuple((i, j, k, n // g) for (i, j, k), n in nz))
        return t

    def _store(self, den: int, nonzeros: tuple) -> None:
        self.den = den
        self.nonzeros = nonzeros
        self.by_first: dict[int, list[tuple[int, int, int]]] = {}
        for i, j, k, n in nonzeros:
            self.by_first.setdefault(i, []).append((j, k, n))
        self._by_second = self._by_pair = None

    def __eq__(self, other):
        if not isinstance(other, SparseTable):
            return NotImplemented
        return self.den == other.den and self.nonzeros == other.nonzeros

    def __hash__(self):
        return hash((self.den, self.nonzeros))

    def items(self):
        """(i, j, k, value) for every nonzero, in index order."""
        d = self.den
        for i, j, k, n in self.nonzeros:
            yield i, j, k, Fraction(n, d)

    def dense(self, m: int) -> Table3:
        """The m x m x m nested tuples of `Fraction`s."""
        envelope("dense table cells", m ** 3, DENSE_CELL_BOUND)
        zero = Fraction(0)
        t = [[[zero] * m for _ in range(m)] for _ in range(m)]
        for i, j, k, v in self.items():
            t[i][j][k] = v
        return tuple(tuple(map(tuple, plane)) for plane in t)

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


def _check_entry(m: int, i, j, k) -> None:
    if not (0 <= i < m and 0 <= j < m and 0 <= k < m):
        raise ValidationError(f"index out of range in entry ({i},{j},{k})")


def _check_table(m: int, s: SparseTable) -> None:
    if m < 0:
        raise ValidationError(f"dimension must be >= 0, got {m}")
    for i, j, k, _ in s.nonzeros:
        _check_entry(m, i, j, k)


def _index_range(*tables: SparseTable) -> int:
    """One more than the largest index in the tables' nonzeros. They are
    sorted, so the largest first index is the last nonzero's."""
    top = -1
    for t in tables:
        if t.nonzeros:
            _, j, k, _ = zip(*t.nonzeros)
            top = max(top, t.nonzeros[-1][0], max(j), max(k))
    return top + 1


class DefectTensor:
    """Rational tensor (rank 3 or 4) measuring a failure, kept by its nonzeros.

    Stored as a `SparseTable` stores its table: `numerators` maps the
    multi-index of each nonzero entry, in lexicographic order, to an
    integer over `den`, the least common denominator of the entries. So two
    tensors are equal exactly when their shapes, denominators and
    numerators are, however they were built. `DefectTensor(shape, {idx:
    value})` takes rational values; `over` takes the integer sums of a
    contraction and their denominator, and is how the contractions below
    build theirs. The queries read the integers in O(nonzeros); `nonzeros`
    (multi-index -> `Fraction`, in index order) and the dense `entries`
    are views built on first use.
    """

    def __init__(self, shape: tuple[int, ...], nonzeros: dict):
        d = lcm(*(v.denominator for v in nonzeros.values() if v))
        self._store(shape, sorted(
            (idx, v.numerator * (d // v.denominator))
            for idx, v in nonzeros.items() if v), d)

    @classmethod
    def over(cls, shape: tuple[int, ...], sums: dict,
             den: int) -> DefectTensor:
        """The tensor whose entry at idx is sums[idx] / den (den > 0);
        zero sums are dropped."""
        t = cls.__new__(cls)
        t._store(shape, sorted((idx, n) for idx, n in sums.items() if n),
                 den)
        return t

    @classmethod
    def over_flat(cls, shape: tuple[int, ...], sums: dict, r: int,
                  den: int) -> DefectTensor:
        """`over` for sums keyed by flat integers: ((i·r + j)·r + k)·r + l
        for rank 4, (i·r + j)·r + k for rank 3, every index below r. The
        integer keys sort in index order, and each nonzero one is turned
        into its index tuple once."""
        keys = sorted(key for key, n in sums.items() if n)
        t = cls.__new__(cls)
        t._store(shape, zip(_unflatten(keys, r, len(shape)),
                            [sums[key] for key in keys]), den)
        return t

    def _store(self, shape, nonzeros, den: int) -> None:
        """Keep the (idx, n) pairs (n nonzero, in index order) over den,
        reduced to the least common denominator."""
        self.shape = tuple(shape)
        self.numerators = dict(nonzeros)
        g = gcd(den, *self.numerators.values())
        self.den = den // g
        if g > 1:
            self.numerators = {idx: n // g
                               for idx, n in self.numerators.items()}

    def __eq__(self, other):
        if not isinstance(other, DefectTensor):
            return NotImplemented
        return (self.shape, self.den, self.numerators) == \
            (other.shape, other.den, other.numerators)

    def __repr__(self):
        return f"DefectTensor({self.shape!r}, {self.nonzeros!r})"

    @cached_property
    def nonzeros(self) -> dict:
        """Multi-index -> nonzero `Fraction` value, in index order."""
        d = self.den
        return {idx: Fraction(n, d) for idx, n in self.numerators.items()}

    def items(self):
        """Every (multi_index, value), zeros included, in index order."""
        zero, nonzeros = Fraction(0), self.nonzeros
        for idx in iproduct(*map(range, self.shape)):
            yield idx, nonzeros.get(idx, zero)

    @cached_property
    def entries(self) -> tuple:
        """Dense nested-tuple view, built on first use."""
        zero, rank, nonzeros = Fraction(0), len(self.shape), self.nonzeros

        def block(prefix):
            if len(prefix) == rank:
                return nonzeros.get(prefix, zero)
            return tuple(block(prefix + (i,))
                         for i in range(self.shape[len(prefix)]))
        return block(())

    def max_abs(self) -> Fraction:
        return Fraction(max(map(abs, self.numerators.values()), default=0),
                        self.den)

    def is_zero(self) -> bool:
        return not self.numerators

    def first_nonzero(self):
        """(multi_index, value) of the first nonzero entry, or None."""
        for idx, n in self.numerators.items():
            return idx, Fraction(n, self.den)
        return None


def _unflatten(keys, r: int, rank: int) -> list:
    """The index tuples of flat keys over r (see `DefectTensor.over_flat`),
    in the keys' order."""
    r2 = r * r
    if rank == 3:
        return [(key // r2, key // r % r, key % r) for key in keys]
    r3 = r2 * r
    return [(key // r3, key // r2 % r, key // r % r, key % r)
            for key in keys]


@dataclass(frozen=True)
class BilinearProduct:
    """General bilinear product e_i·e_j = sum_k gamma[i][j][k] e_k."""

    dim: int
    sparse: SparseTable

    def __post_init__(self):
        _check_table(self.dim, self.sparse)

    @cached_property
    def gamma(self) -> Table3:
        """Dense view of the table, built on first use."""
        return self.sparse.dense(self.dim)

    def mult(self, u, v) -> Vec:
        s = self.sparse
        v = [frac(x) for x in v]
        out = [Fraction(0)] * self.dim
        for i in range(self.dim):
            ui = frac(u[i])
            if ui:
                for j, k, n in s.by_first.get(i, ()):
                    if v[j]:
                        out[k] += ui * v[j] * n
        return tuple(x / s.den for x in out)

    @cached_property
    def left_matrices(self) -> tuple[Mat, ...]:
        """L_i with column j = e_i·e_j (matrix of left multiplication by e_i)."""
        return tuple(linalg.transpose(plane)
                     for plane in self.sparse.dense(self.dim))

    def right_matrix(self, x) -> Mat:
        """Matrix of y -> y·x."""
        m, s = self.dim, self.sparse
        out = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            xi = frac(x[i])
            if xi:
                for j, k, n in s.by_second.get(i, ()):
                    out[k][j] += xi * n
        return tuple(tuple(v / s.den for v in row) for row in out)

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
    sparse: SparseTable

    def __post_init__(self):
        _check_table(self.dim, self.sparse)
        # jacobi_defect refuses a table that is not skew
        hit = jacobi_defect(self.dim, self.sparse).first_nonzero()
        if hit is not None:
            idx, _ = hit
            raise JacobiViolation(
                f"Jacobi identity fails on basis triple {idx[:3]}")

    @cached_property
    def c(self) -> Table3:
        """Dense view of the bracket table, built on first use."""
        return self.sparse.dense(self.dim)

    def bracket(self, u, v) -> Vec:
        return self.as_product().mult(u, v)

    def as_product(self) -> BilinearProduct:
        return BilinearProduct(self.dim, self.sparse)

    @cached_property
    def ad_matrices(self) -> tuple[Mat, ...]:
        """ad_i with column j = [e_i, e_j]."""
        return self.as_product().left_matrices


def _check_skew(c: SparseTable) -> None:
    """Refuse a table with c[i][j][k] != -c[j][i][k] at some index.

    A failure needs a nonzero on one side, and the relation is symmetric, so
    the failures are the nonzeros that fail together with their mirrors; the
    smallest one is named.
    """
    pairs, bad = c.by_pair, []
    for (i, j), row in pairs.items():
        mirror = dict(pairs.get((j, i), ()))
        bad += [idx for k, n in row if mirror.get(k, 0) != -n
                for idx in ((i, j, k), (j, i, k))]
    if bad:
        raise ValidationError(
            "bracket not antisymmetric at ({},{},{})".format(*min(bad)))


def operator_defect(g: SparseTable, q: SparseTable,
                    bracket: bool = False) -> tuple[dict, int]:
    """Nonzero entries of L_i L_j (− L_j L_i) − sum_a q[i][j][a] L_a, as
    (integer sums keyed by (i, j, k, l), their denominator): the index
    tuples of `_operator_sums`, for the condition rows built from them.
    Those rows read the sums alone: dividing a row by the positive
    denominator does not change its primitive integer form."""
    acc, r, den = _operator_sums(g, q, bracket)
    keys = [key for key, x in acc.items() if x]
    return dict(zip(_unflatten(keys, r, 4), [acc[key] for key in keys])), den


def _operator_sums(g: SparseTable, q: SparseTable,
                   bracket: bool = False) -> tuple[dict, int, int]:
    """L_i L_j (− L_j L_i) − sum_a q[i][j][a] L_a as (integer sums on flat
    keys over r, r, their denominator); zero sums may remain.

    L_i sends e_k to sum_l g[i][k][l] e_l: left multiplication by e_i when
    g is a product's table, though the operators may act on a space of any
    dimension. Key ((i·r + j)·r + k)·r + l, with r one more than the
    largest index, holds the e_l coefficient of the operator for (i, j)
    applied to e_k. With g = q a product's table this is minus the
    associator.

    With bracket=True, q must be skew (a Lie bracket, say), and the result
    is then the curvature of the connection g: a tensor antisymmetric in
    (i, j). Only its independent half, the keys with i < j, is accumulated
    and returned: a product g[j][k][a] g[i][a][l] adds at (i, j, k, l) when
    i < j, subtracts at (j, i, k, l) when i > j and is skipped when i = j,
    and only the nonzeros of q with i < j are read. `_mirrored` restores
    the whole tensor.
    """
    by_second, r = g.by_second, _index_range(g, q)
    envelope("operator defect accumulator entries",
             min(_pairs_visited((a for *_, a, _ in g.nonzeros), by_second)
                 + _pairs_visited((a for i, j, a, _ in q.nonzeros
                                   if not bracket or i < j), g.by_first),
                 r ** 4), ENTRY_BOUND)
    d = lcm(g.den, q.den)
    fp, fq = d // g.den, d // q.den
    r2, r3 = r * r, r * r * r
    # (L_i L_j)[l][k] = sum_a gamma[i][a][l] gamma[j][k][a]
    acc: dict = defaultdict(int)
    for j, k, a, v in g.nonzeros:
        v *= fp
        jk, kr = j * r2 + k * r, k * r
        for i, l, w in by_second.get(a, ()):
            if not bracket or i < j:
                acc[i * r3 + jk + l] += v * w
            elif i > j:
                acc[j * r3 + i * r2 + kr + l] -= v * w
    for i, j, a, v in q.nonzeros:
        if bracket and i >= j:
            continue
        v *= fq
        ij = i * r3 + j * r2
        for k, l, w in g.by_first.get(a, ()):
            acc[ij + k * r + l] -= v * w
    return acc, r, g.den * d


def _mirrored(half: dict, r: int, sign: int = 1) -> dict:
    """The flat sums of the tensor antisymmetric in its first two indices
    whose entries with i < j are sign · `half` (as `_operator_sums` returns
    in bracket mode): the mirror of (i, j, k, l) is its key plus
    (j − i)(r³ − r²)."""
    r2 = r * r
    step = r2 * r - r2
    full = {key: sign * x for key, x in half.items()}
    for key, x in half.items():
        i, j = divmod(key // r2, r)
        full[key + (j - i) * step] = -sign * x
    return full


def curvature_tensor(g: SparseTable, q: SparseTable, m: int,
                     sign: int = 1) -> DefectTensor:
    """sign · (L_i L_j − L_j L_i − sum_a q[i][j][a] L_a) for a skew q, as
    a tensor of shape (m,)*4: the curvature of the connection g over the
    bracket q. Its half with i < j is summed and mirrored on flat keys."""
    acc, r, den = _operator_sums(g, q, bracket=True)
    return DefectTensor.over_flat((m,) * 4, _mirrored(acc, r, sign), r, den)


def jacobi_defect(m: int, c: SparseTable) -> DefectTensor:
    """Coefficients of sum_cyclic [[e_i,e_j],e_k] as a rank-4 tensor.

    The table must be skew; a table that is not is refused with a
    `ValidationError` naming its first failing index. For a skew bracket
    the Jacobiator J(p,q,r) = T(p,q,r) + T(q,r,p) + T(r,p,q), with
    T(p,q,r) = [[e_p,e_q],e_r] = sum_a c[p][q][a] c[a][r][.], is
    alternating in (p, q, r), so only its entries at sorted triples are
    accumulated. Each pair of nonzeros c[p][q][a] c[a][r][l] with p < q is
    visited once and adds to one sorted key: + at (p,q,r,l) when r > q,
    + at (r,p,q,l) when r < p, − at (p,r,q,l) when p < r < q; r in {p, q}
    contributes to entries that vanish. Each nonzero sorted entry is then
    expanded into its six signed permutations, on flat keys. The smallest
    key of an alternating tensor is a sorted one, so `first_nonzero` names
    the first failing sorted triple. The sums accumulate on integer keys,
    as in `_operator_sums`.
    """
    _check_skew(c)
    envelope("Jacobi defect accumulator entries",
             min(_pairs_visited((a for p, q, a, _ in c.nonzeros if p < q),
                                c.by_first), m ** 4), ENTRY_BOUND)
    n = _index_range(c)
    n2, n3 = n * n, n * n * n
    acc: dict = defaultdict(int)
    for p, q, a, v in c.nonzeros:
        if p >= q:
            continue
        # the keys of (p,q,r,l), (r,p,q,l) and (p,r,q,l) less r and l
        pqr, rpq, prq = p * n3 + q * n2, p * n2 + q * n, p * n3 + q * n
        for r, l, w in c.by_first.get(a, ()):
            if r > q:
                acc[pqr + r * n + l] += v * w
            elif r < p:
                acc[r * n3 + rpq + l] += v * w
            elif p < r < q:
                acc[prq + r * n2 + l] -= v * w
    full: dict = {}
    for key, x in acc.items():
        if x:
            rest, l = divmod(key, n)
            rest, r = divmod(rest, n)
            p, q = divmod(rest, n)
            p3, q3, r3 = p * n3, q * n3, r * n3
            p2, q2, r2 = p * n2, q * n2, r * n2
            p, q, r = p * n + l, q * n + l, r * n + l
            full[key] = full[q3 + r2 + p] = full[r3 + p2 + q] = x
            full[q3 + p2 + r] = full[p3 + r2 + q] = full[r3 + q2 + p] = -x
    return DefectTensor.over_flat((m,) * 4, full, n, c.den * c.den)


def associator_defect(p: BilinearProduct) -> DefectTensor:
    """(e_i·e_j)·e_k − e_i·(e_j·e_k) over all basis triples; zero iff associative."""
    acc, r, den = _operator_sums(p.sparse, p.sparse)
    return DefectTensor.over_flat((p.dim,) * 4,
                                  {key: -x for key, x in acc.items()}, r, den)


def _commutator(s: SparseTable) -> SparseTable:
    """Table of x·y − y·x."""
    acc: dict = defaultdict(int)
    for i, j, k, n in s.nonzeros:
        acc[i, j, k] += n
        acc[j, i, k] -= n
    return SparseTable.over(acc, s.den)


def kv_anomaly(p: BilinearProduct) -> DefectTensor:
    """Asymmetry of the associator in its first two slots.

    Zero iff the product is left-symmetric (Koszul-Vinberg). For the product
    of a torsion-free connection this tensor equals minus its curvature, and
    it is computed that way: as minus the curvature of p over its own
    commutator bracket.
    """
    return curvature_tensor(p.sparse, _commutator(p.sparse), p.dim, -1)


def commutator_bracket(p: BilinearProduct) -> LieAlgebra:
    """Lie algebra with bracket x·y − y·x; raises JacobiViolation if not Lie."""
    return LieAlgebra(p.dim, _commutator(p.sparse))


def killing_form(L: LieAlgebra):
    """K(x,y) = trace(ad_x ad_y); symmetric, ad-invariant.

    The integer sums of `_killing_rows` written into a dense m x m form,
    which is what the envelope bounds.
    """
    from koszul.forms import BilinearForm
    m = L.dim
    s = L.sparse
    envelope("Killing form cells", m * m, DENSE_CELL_BOUND)
    rows = _killing_rows(s)
    den = s.den * s.den
    entries = tuple(tuple(Fraction(row.get(j, 0), den) for j in range(m))
                    for row in (rows.get(i, {}) for i in range(m)))
    return BilinearForm(m, entries, "symmetric")


def _killing_rows(s: SparseTable) -> dict[int, dict[int, int]]:
    """den² · K(e_i, e_j) = sum_{a,b} c[i][a][b] c[j][b][a] as sparse
    integer rows i -> {j: sum}, summed over the pairs of nonzeros that
    share the (a, b) / (b, a) slots; a row or cell no pair reaches is
    absent."""
    by_slots = _by_slots(s)
    rows: dict[int, dict[int, int]] = {}
    for (a, b), left in by_slots.items():
        right = by_slots.get((b, a))
        if right:
            for i, v in left:
                row = rows.setdefault(i, {})
                for j, w in right:
                    row[j] = row.get(j, 0) + v * w
    return rows


def _killing_products(s: SparseTable) -> int:
    """How many products `_killing_rows` sums, counted from the lengths of
    its slot lists without forming any; it writes no more cells."""
    by_slots = _by_slots(s)
    return sum(len(left) * len(by_slots.get((b, a), ()))
               for (a, b), left in by_slots.items())


def _by_slots(s: SparseTable) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """(a, b) -> [(i, n)] over the nonzeros (i, a, b, n)."""
    by_slots: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, a, b, n in s.nonzeros:
        by_slots.setdefault((a, b), []).append((i, n))
    return by_slots


def _trace_form_rows(s: SparseTable, m: int) -> dict[int, dict[int, int]]:
    """den² · t(e_i, e_j) for the trace form t(x, y) = tr L_{xy} of a
    product, as sparse integer rows i -> {j: sum}: t(e_i, e_j) = sum_a
    t[i][j][a] tr L_{e_a}, one term per nonzero."""
    traces = _left_traces(s, m)
    rows: dict[int, dict[int, int]] = {}
    for i, j, a, n in s.nonzeros:
        if traces[a]:
            row = rows.setdefault(i, {})
            row[j] = row.get(j, 0) + n * traces[a]
    return rows


def _left_traces(s: SparseTable, m: int) -> list[int]:
    """den · tr L_{e_i} = sum_j t[i][j][j] for each i, summed over the
    nonzeros: the trace of left multiplication by e_i, tr ad(e_i) when the
    table is a bracket."""
    traces = [0] * m
    for i, j, k, n in s.nonzeros:
        if j == k:
            traces[i] += n
    return traces


def abelian(m: int) -> LieAlgebra:
    return LieAlgebra(m, SparseTable())


def zero_product(m: int) -> BilinearProduct:
    return BilinearProduct(m, SparseTable())


def _exact_parts(m: int, entries):
    """(i, j, k, n, d) for each (i, j, k, value) entry, its indices checked
    against m and its value converted once, as the entries are read."""
    for i, j, k, v in entries:
        _check_entry(m, i, j, k)
        v = frac(v)
        yield i, j, k, v.numerator, v.denominator


def product_from_sparse(m: int, entries) -> BilinearProduct:
    """entries: iterable of (i, j, k, value); a later entry for the same
    index replaces an earlier one."""
    last = {part[:3]: part for part in _exact_parts(m, entries)}
    return BilinearProduct(m, SparseTable.from_parts(last.values()))


def lie_from_sparse(m: int, entries) -> LieAlgebra:
    """entries: iterable of (i, j, k, value); skew completion from i<j.

    Supplying both (i,j,k,v) and (j,i,k,w) with w != -v is an error, as is a
    nonzero diagonal entry.
    """
    return LieAlgebra(m, SparseTable.from_parts(_exact_parts(m, entries),
                                                skew=True))

