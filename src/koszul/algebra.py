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
products on one flat integer key per entry. On a table whose rows are
dense enough it sums whole rows instead, each packed into one integer
(Kronecker substitution: the row (i, j) as sum_k t[i][j][k]·2^(W·k)), and
reads the signed W-bit digits back into the same keys at the end. A
defect tensor keeps the nonzero sums as integers over one denominator, as
`SparseTable` does, and "zero" means it has none. `DefectTensor.over_flat`
sorts the integer keys once and turns each into its index tuple once.

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
from operator import itemgetter

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
# check-lie passes on affine:25 (810k pairs; 0.39 s and 86 MB as a
# subprocess, Python 3.11 on a 2-vCPU host) and is refused on affine:27
# (1.1M pairs). On packed rows (`_route_width`) the accumulator holds one
# integer per 3-index key a pair of a nonzero and a row reaches, so no more
# integers than the loop, each r digits of W bits, and the rule keeps r·W
# within _PACK_MAX_WIDTH bits per nonzero of a row. A dense conjugate of
# affine:5 (dim 30, estimate 810k) checks in 0.05 s at 30 MB packed and
# 0.50 s at 35 MB on the loop, its curvature over itself in 0.15 s at
# 33 MB and 1.6 s at 95 MB. A random dense skew table of dim 30, all
# 730,788 Jacobi entries nonzero, peaks at 254 MB on either route (0.53 s
# packed, 1.8 s on the loop): the output sets the peak.
DENSE_CELL_BOUND = 10 ** 6
ENTRY_BOUND = 10 ** 6

# The route rule of `jacobi_defect` and `_operator_sums` (`_route_width`),
# from timing both routes on random tables over r indices, Python 3.11 on
# a 2-vCPU host; each figure is loop time over packed time, for the
# curvature (bracket-mode `_operator_sums`) and for the Jacobiator.
# - Full rows (r nonzeros each) with digits W of about 14-260 bits gain
#   1.4-7.3x and 1.1-3.0x, 1.0-1.1x at about 1,030 bits, and lose (0.7x)
#   at about 2,010 bits. A dense dim-3 table, 3 nonzeros a row, runs its
#   Jacobiator at 0.79-0.95x; rows of 4 gain 1.4-1.8x and 1.1-1.2x.
# - A row whose nonzeros fill a share f of its r digits pays for every
#   digit, so it loses sooner, about where W / f passes 1,000 bits: f =
#   1/2 gains 1.1-1.9x at W about 260 and loses (0.55-0.72x) at 1,030
#   bits. Rows of 4 nonzeros over 100 digits of 900 bits took 34x the
#   loop's time and 7x its memory. The rule bounds r·W per nonzero, W / f,
#   by _PACK_MAX_WIDTH; the worst case measured inside it is 0.87x (f =
#   1/8, W about 70).
_PACK_MIN_ROW = 4
_PACK_MAX_WIDTH = 1024


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
    rationals as `Fraction` arithmetic. The rows of `by_pair` are also what
    a contraction packs (`_packed`): the row (i, j) as the one integer
    sum_k n·2^(W·k), whose digits of W bits, read as signed, are the row's
    entries as long as every sum of them stays within ±(2^(W−1) − 1). The
    route rule (`_route_width`) packs a table whose rows average at least
    _PACK_MIN_ROW nonzeros, when a packed row spends at most
    _PACK_MAX_WIDTH bits per nonzero.
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

    def _row_count(self) -> int:
        """How many rows (i, j) hold a nonzero, len(by_pair), counted from
        `by_first` when `by_pair` is not built, so as not to keep it."""
        if self._by_pair is not None:
            return len(self._by_pair)
        return sum(len(set(map(itemgetter(0), row)))
                   for row in self.by_first.values())

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


def _largest(t: SparseTable) -> int:
    """The largest absolute numerator of t, 0 when t is empty."""
    return max(map(abs, map(itemgetter(3), t.nonzeros)), default=0)


def _longest_row(t: SparseTable) -> int:
    """The most nonzeros of t in one row (i, j) -> [(k, n)]."""
    return max(map(len, t.by_pair.values()), default=0)


def _route_width(t: SparseTable, r: int, bound) -> int:
    """The route rule of a contraction over t's rows, their last index
    below r: the digit width W of its packed rows (`_packed`), or 0 for
    the loop over t's nonzeros one by one. The rows are packed when they
    average at least _PACK_MIN_ROW nonzeros and a packed row, r digits of
    W bits, spends at most _PACK_MAX_WIDTH bits per nonzero it holds (for
    full rows, W <= _PACK_MAX_WIDTH). `bound()` is the largest absolute
    digit sum, taken only when the rows qualify; W is the least width
    whose signed digits, −2^(W−1) to 2^(W−1) − 1, hold it."""
    nonzeros, rows = len(t.nonzeros), t._row_count()
    if not rows or nonzeros < _PACK_MIN_ROW * rows:
        return 0
    width = bound().bit_length() + 1
    return width if r * width * rows <= _PACK_MAX_WIDTH * nonzeros else 0


def _packed(t: SparseTable, width: int) -> tuple[dict, dict]:
    """t's rows packed into one integer each (Kronecker substitution): the
    row (i, j) -> [(k, n)] becomes sum_k n·2^(width·k). Grouped as
    `by_first` and `by_second` group the nonzeros, as i -> [(j, 0, packed)]
    and j -> [(i, 0, packed)]. A contraction that reads these in place of
    the nonzeros adds a whole row's products with one multiply-add, at its
    key for k = 0; when every digit sum fits in a signed width-bit digit,
    `_unpacked` reads them back."""
    by_first: dict = {}
    by_second: dict = {}
    for (i, j), row in t.by_pair.items():
        packed = sum(n << width * k for k, n in row)
        by_first.setdefault(i, []).append((j, 0, packed))
        by_second.setdefault(j, []).append((i, 0, packed))
    return by_first, by_second


def _unpacked(acc: dict, width: int) -> dict:
    """The flat sums of a contraction over packed rows: the packed sum x at
    key is sum_l d_l·2^(width·l), read as signed width-bit digits; each
    nonzero d_l is the sum at key + l. The digits below x's lowest set bit
    are zero, so each step goes straight to the next nonzero digit."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    out = {}
    for key, x in acc.items():
        while x:
            skip = ((x & -x).bit_length() - 1) // width
            key += skip
            x >>= skip * width
            d = x & mask
            x >>= width
            if d >= half:
                d -= mask + 1
                x += 1
            out[key] = d
            key += 1
    return out


def operator_defect(g: SparseTable, q: SparseTable,
                    bracket: bool = False) -> tuple[dict, int]:
    """Nonzero entries of L_i L_j (− L_j L_i) − sum_a q[i][j][a] L_a, as
    (integer sums keyed by (i, j, k, l) in index order, their
    denominator): the index tuples of `_operator_sums`, for the condition
    rows built from them, in the same order on either of its routes.
    Those rows read the sums alone: dividing a row by the positive
    denominator does not change its primitive integer form."""
    acc, r, den = _operator_sums(g, q, bracket)
    keys = sorted(key for key, x in acc.items() if x)
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

    Both loops read g's rows over its last index: by_second[a] and
    by_first[a] list the nonzeros of the rows (i, a) and (a, k). When g's
    rows qualify (`_route_width`: they average at least _PACK_MIN_ROW
    nonzeros), each row is one packed integer sum_l g[x][y][l]·2^(W·l)
    (`_packed`), so a pair of nonzero and row is one multiply-add at the
    key with l = 0 instead of one per nonzero of the row, done inside
    CPython's big-integer arithmetic. W bounds every sum: it adds at most
    one row of g·g products (two in bracket mode, one for each sign) and
    one row of q·g products, so |sum| <= |g|max·((1 + bracket)·R_g·
    |g|max·fp + R_q·|q|max·fq), with R the most nonzeros in one row, and W
    is the least width whose signed digits hold that. `_unpacked` reads
    the digits back as the same flat sums. A table whose rows are shorter,
    or whose packed rows would spend more than _PACK_MAX_WIDTH bits per
    nonzero (r·W over the nonzeros per row), takes the loop over its
    nonzeros.
    """
    r = _index_range(g, q)
    envelope("operator defect accumulator entries",
             min(_pairs_visited((a for *_, a, _ in g.nonzeros), g.by_second)
                 + _pairs_visited((a for i, j, a, _ in q.nonzeros
                                   if not bracket or i < j), g.by_first),
                 r ** 4), ENTRY_BOUND)
    d = lcm(g.den, q.den)
    fp, fq = d // g.den, d // q.den
    width = _route_width(g, r, lambda: _largest(g) * (
        (1 + bracket) * _longest_row(g) * _largest(g) * fp
        + _longest_row(q) * _largest(q) * fq))
    by_first, by_second = _packed(g, width) if width else (g.by_first,
                                                           g.by_second)
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
        for k, l, w in by_first.get(a, ()):
            acc[ij + k * r + l] -= v * w
    return (_unpacked(acc, width) if width else acc), r, g.den * d


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
    as in `_operator_sums`, and on the same route rule: when c's rows
    average at least _PACK_MIN_ROW nonzeros, each row c[a][r][.] is one
    packed integer, added once per nonzero c[p][q][a] at its sorted key
    with l = 0. A sorted key sums one row of products for each of its
    three pairs, so every digit sum is at most 3·R·|c|max² in absolute
    value, R the most nonzeros in one row, and the width W holds that.
    """
    _check_skew(c)
    envelope("Jacobi defect accumulator entries",
             min(_pairs_visited((a for p, q, a, _ in c.nonzeros if p < q),
                                c.by_first), m ** 4), ENTRY_BOUND)
    n = _index_range(c)
    n2, n3 = n * n, n * n * n
    width = _route_width(c, n, lambda: 3 * _longest_row(c) * _largest(c) ** 2)
    by_first = _packed(c, width)[0] if width else c.by_first
    acc: dict = defaultdict(int)
    for p, q, a, v in c.nonzeros:
        if p >= q:
            continue
        # the keys of (p,q,r,l), (r,p,q,l) and (p,r,q,l) less r and l
        pqr, rpq, prq = p * n3 + q * n2, p * n2 + q * n, p * n3 + q * n
        for r, l, w in by_first.get(a, ()):
            if r > q:
                acc[pqr + r * n + l] += v * w
            elif r < p:
                acc[r * n3 + rpq + l] += v * w
            elif p < r < q:
                acc[prq + r * n2 + l] -= v * w
    if width:
        acc = _unpacked(acc, width)
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

