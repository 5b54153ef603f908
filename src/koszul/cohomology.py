"""Cochain complexes over a finite-dimensional algebra.

Three complexes share the rank-nullity plumbing:

* the left-symmetric (KV) complex, with coefficients in the algebra itself
  (two-sided action) or trivial scalars;
* the Chevalley-Eilenberg complex of a Lie algebra (trivial or adjoint);
* the Hochschild complex of an associative algebra in low degree.

Each coboundary formula is written once, as a generator of matrix
contributions over the nonzeros of the structure-constant table. One helper
assembles a generator into the coboundary matrix; another applies the same
generator to a single cochain, so `kv_coboundary` and
`hochschild_coboundary` are the matrices' formulas, not second copies. The
coefficient module is data, not a branch: `_module` is the one place a
coefficient name becomes a width and an action table, the algebra's own
table for the adjoint module and the empty table for scalar and trivial
coefficients, and the KV and Chevalley-Eilenberg generators read their
action terms from that table alone. The Maurer-Cartan defect is minus the
Jacobi defect of the perturbed bracket.

The dimensions need only the ranks r_q of the coboundaries delta_q: C^q ->
C^{q+1}, and `_dims_from_deltas` certifies them without exact elimination
where it can. The contributions are integers over the table's denominator,
so the integer matrix has the rank of delta_q, and the count l_q of its
rows the pass mod a prime keeps (at most its rank mod the prime, and
equal to it unless the pass's functional skips a row it would keep,
`koszul._kernel.independent_rows_mod_p`) is a lower bound.

l_q is read on part of the columns. Let T be the C^q coordinates of the
rows of delta_{q-1} kept mod the prime; delta_q is read only on the columns
outside T, at most c_q - l_{q-1} of them. Dropping columns can only lower a
rank, so l_q is a lower bound whatever delta² is. Where delta² = 0 it is
still the whole rank mod the prime (but for a skipped row), by induction
on q (delta_0 is read on every column): the T rows are independent mod
the prime and, l_{q-1} being the rank of delta_{q-1} there, as many as
that rank. So projecting im delta_{q-1} onto the T coordinates is
injective, and the unit vectors outside T span a complement of that
image. delta_q kills the image, so its rank is its rank on that
complement, which is l_q.

One forward pass then decides each degree. For q = 0, 1, ..., with r_{q-1}
the rank decided before it (r_{-1} = 0), delta_q delta_{q-1} = 0 and
delta_{q+1} delta_q = 0 give r_q <= u_q = min(rows_q, c_q - r_{q-1},
c_{q+1} - l_{q+1}), rows_q being the number of rows delta_q lists. Where
l_q = u_q, r_q = l_q. Where l_q < u_q the rank is made exact from the same
pass (`koszul._kernel.row_space`): the reduced form it built mod P of
delta_q's columns outside T is lifted to fractions, and every row of
delta_q on those columns is checked in integers to lie in the lifted rows'
span; when a lift or the check fails, the rows kept mod the prime, then if
need be every row, are eliminated by Bareiss instead. Either way this is
the rank of delta_q on the columns outside T, and it is the rank of
delta_q: delta_{q-1}[T, :] has full row rank, so delta_q delta_{q-1} = 0
gives delta_q[:, T] = -delta_q[:, rest] delta_{q-1}[rest, :]
delta_{q-1}[T, :]^+, whose columns lie in the span of delta_q[:, rest].
Acyclic degrees meet the bound. Both routes write their rows out densely
over every column of the coboundary, so the cell count of the kept rows is
refused above `ROW_SPACE_CELL_BOUND` before any row is written. The bounds
and the reading outside T rest on delta² = 0, so last every square
delta_q delta_{q-1}, q >= 1, is checked exactly as a sparse integer
product, each of its rows summed into one integer with a slot of bits per
column where delta_{q-1}'s rows are dense, else into one list indexed by
column (a nonzero one raises ConformanceMismatch).

Semisimple algebras need no coboundary past delta_0. With adjoint
coefficients `ce_cohomology_dims` first sums the Killing form tr(ad_x
ad_y), and `hochschild_dims` the trace form t(e_i, e_j) = tr L_{e_i e_j} =
sum_a c_ij^a tr L_{e_a}, over the table's nonzeros, as sparse integer
rows; rank m modulo the prime certifies rank m over the rationals. A
nondegenerate Killing form makes the Lie algebra semisimple (Cartan's
criterion), so H^q(g, g) = 0 in every degree (Whitehead 1937, through the
Casimir) and the centre is zero: r_0 = m. A nondegenerate trace form
makes the associative algebra semisimple, since every nilpotent ideal lies
in the form's radical, so separable, and HH^q(A, A) = 0 for q >= 1
(Hochschild, Ann. Math. 1945): r_0 is the rank of delta_0, certified as
above, m minus the dimension of the centre. Either way r_q = c_q - r_{q-1}
for q >= 1. The trace form costs one term per nonzero, but the Killing
form one product per pair of nonzeros in the (a, b) / (b, a) slots, which
can be far more than the contributions of a low-degree complex ([e_i, e_0]
= e_0 has (m - 1)² of them and 2(m - 1) contributions at degree 0). So the
products are counted from the slot lists first, and the Killing form is
summed only when they are no more than the contributions the elimination
would generate. Every other input, and one whose form has rank below m
modulo the prime, is ranked as above; both routes write the report
through `_report`. The trivial Chevalley-Eilenberg complex and the KV
complex always are: no such theorem fixes their ranks (so3 has trivial
H^3 of dimension 1).

Before any contribution is generated, their number is counted from the
table's list lengths, and a complex with more than `ENTRY_BOUND` of them is
refused with ValidationError rather than accumulated past the memory. A
table with few nonzeros can still have cochain spaces too large to walk:
delta_q visits every index tuple of C^{q+1}, whether it receives a
contribution or not, and the Chevalley-Eilenberg delta_p lists those of
C^p. So their number is counted from powers of the dimension (binomials
for the alternating cochains) and refused above `COCHAIN_TUPLE_BOUND`. A
table with no nonzeros gives every delta no contributions, and its tuples
are neither listed nor walked: the dimensions come from the counts alone.

Degree-0 conventions in the KV complex are the subtle point. With
coefficients in the algebra, 0-cochains are restricted to the elements xi
with (x·y)·xi = x·(y·xi) for all x, y: on that subspace (and only there)
the square of the coboundary vanishes from degree 0. With scalar
coefficients the source's rule would force "delta f = -f", which is not a
1-cochain; the degree-0 scalar map here is identically zero, which matches
the dimension counts this complex is used for. It is no special case: it
is what the trivial module gives, whose 0-cochains are the constants and
on which nothing acts, so delta_0 xi = xi·X - X·xi has no contribution.
Both conventions are recorded in the report notes, and squares are
verified from degree 1 up.

Other modules' cocycle systems come from the same generators, so only
this module knows the Chevalley-Eilenberg cochain order:
`scalar_coboundary_rows` (the symplectic, Hessian and perfectness systems
of `invariants`) and `second_order_rows` (the KV 0-cochains and
`gauge.g_nabla_subalgebra`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product as iproduct, repeat
from math import comb
from operator import mul

from koszul import linalg
from koszul._kernel import independent_rows_mod_p, pack_width, row_space
from koszul.algebra import (ENTRY_BOUND, BilinearProduct, DefectTensor,
                            LieAlgebra, SparseTable, _killing_products,
                            _killing_rows, _trace_form_rows, envelope,
                            jacobi_defect, kv_anomaly, operator_defect)
from koszul.errors import (ConformanceMismatch, NotAssociative, NotKV,
                           ValidationError)
from koszul.linalg import Vec, frac
from koszul.spaces import accumulate, condition_rows

ADJOINT = "adjoint"
SCALAR = "scalar"
TRIVIAL = "trivial"
# The largest complex of the tests and the benchmark is KV with adjoint
# coefficients to degree 3 on affine:3 (dim 12), 22,620 index tuples. A
# table with no nonzeros walks none. On a 2-vCPU host, just below the
# bound, the Chevalley-Eilenberg complex of a dim-69 bracket with one
# nonzero pair (974,120 tuples) takes about 2.2 s, and 3.3 s and 140 MB
# adjoint; the scalar KV complex of a dim-31 product with one nonzero
# (954,304) takes about 7 s and 880 MB.
COCHAIN_TUPLE_BOUND = 10 ** 6
# Where the bounds of a rank mod P are not met, `row_space` writes the rows
# it lifts from the pass mod P, or on its fallback the rows kept mod P, out
# densely over every column of their coboundary, about 16 bytes a cell, so
# a complex that passes both bounds above can still be too wide for
# memory: KV adjoint to degree 3 on a dim-16 product with one nonzero would
# write 11,056 rows over 65,536 columns (7.2e8 cells, over 10 GB). It is
# refused before any row is written out. The widest ranks made exact
# below the bound are the scalar KV complex of a dim-31 product with one
# nonzero (5.5e7 cells, the widest the tuple bound lets through; about 2 s
# and 450 MB, 7 s and 880 MB by Bareiss alone) and the adjoint one of dim
# 11 (0.6 s and 410 MB, 5.8 s and 800 MB); dim 16 scalar is 2.0e6 cells
# (0.1 s), and the widest of the tests 72 x 90.
ROW_SPACE_CELL_BOUND = 6 * 10 ** 7


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
        if any(len(v) != self.module_dim for v in self.table):
            raise ValidationError("cochain values have wrong length")

    @property
    def module_dim(self) -> int:
        return self.dim if self.module == ADJOINT else 1


def zero_cochain(degree: int, m: int, module: str) -> Cochain:
    z = (Fraction(0),) * (m if module == ADJOINT else 1)
    return Cochain(degree, m, module, tuple(z for _ in range(m ** degree)))


def second_order_rows(table: SparseTable) -> list[dict[int, int]]:
    """Rows (i, j, l) of (e_i·e_j)·xi = e_i·(e_j·xi), e_l part, over the m
    coordinates of xi: the second-order parallel vectors of a connection's
    table (`gauge.g_nabla_subalgebra`) and the legal KV 0-cochains."""
    d, _ = operator_defect(table, table)
    return condition_rows(((i, j, l), k, v) for (i, j, k, l), v in d.items())


def kv_degree_zero_space(p: BilinearProduct):
    """Basis of {xi : (x·y)·xi = x·(y·xi) for all x,y}, the legal 0-cochains,
    as integer rows over their scales (`linalg.sparse_nullspace`)."""
    return linalg.sparse_nullspace(second_order_rows(p.sparse), p.dim)


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
    _check_cochain(c, algebra, coefficients)
    if c.degree > 4:
        raise ValidationError("coboundary implemented for degree <= 4")
    if not algebra.is_kv:
        hit = kv_anomaly(algebra).first_nonzero()
        raise NotKV(f"product is not left-symmetric (witness {hit[0][:3]})")
    if c.degree:
        zero_basis, x = (), [v for value in c.table for v in value]
    else:
        # delta_0 on the one-vector basis (xi,) of c's span
        zero_basis, x = [dict(enumerate(c.table[0]))], (1,)
    entries = _kv_delta(algebra, c.module, c.degree, zero_basis)[0]
    return _apply(c, algebra.sparse.den, entries, x)


def _check_cochain(c: Cochain, algebra: BilinearProduct,
                   module: str | None) -> None:
    if module is not None and module != c.module:
        raise ValidationError("cochain module does not match coefficients")
    if c.dim != algebra.dim:
        raise ValidationError("cochain dimension does not match the algebra")


def _check_size(contributions: int, tuples: int) -> None:
    """Refuse a complex with more contributions or cochain index tuples
    than their bounds, before any is generated or walked."""
    envelope("coboundary contributions", contributions, ENTRY_BOUND)
    envelope("cochain index tuples", tuples, COCHAIN_TUPLE_BOUND)


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


def _dims_from_deltas(name, coefficients, m, deltas,
                      notes="") -> CohomologyReport:
    """deltas[q] = (entries, ncols, nrows) of delta_q: C^q -> C^{q+1}, its
    integer contributions over one denominator; ncols = dim C^q."""
    ranks = _certified_ranks([(accumulate(entries), ncols, nrows)
                              for entries, ncols, nrows in deltas])
    return _report(name, coefficients, m, [c for _, c, _ in deltas], ranks,
                   notes)


def _report(name, coefficients, m, cochains, ranks,
            notes="") -> CohomologyReport:
    """The report of a complex with cochain dimensions cochains[q] and
    coboundary ranks ranks[q], however the ranks were found."""
    out = []
    for q, c in enumerate(cochains):
        z = c - ranks[q]
        b = ranks[q - 1] if q >= 1 else 0
        out.append(DegreeDims(q, c, z, b, z - b))
    return CohomologyReport(name, coefficients, m, tuple(out), notes)


def _nondegenerate(rows: dict, m: int) -> bool:
    """True when the m x m integer form with sparse rows i -> {j: n} has
    rank m modulo P, which certifies rank m over the rationals; False
    otherwise, also when P merely divides its determinant."""
    return len(independent_rows_mod_p(rows.values(), m)[0]) == m


def _acyclic_ranks(cochains, r0: int) -> list[int]:
    """Ranks of a complex exact from degree 1 on, whose delta_0 has rank
    r0: H^q = 0 makes r_q = c_q - r_{q-1}."""
    ranks = [r0]
    for c in cochains[1:]:
        ranks.append(c - ranks[-1])
    return ranks


def _certified_ranks(deltas) -> list[int]:
    """Ranks of consecutive coboundaries, each given as (row -> {col: n},
    ncols, nrows), certified by delta² = 0 as the module docstring says.

    A rank is at most the number of rows listed, which makes a matrix with
    no contributions rank 0 without elimination: its pass, at bound 0,
    returns at once, and no square with it as a side is summed.
    """
    kept, bases, images = [], [], []
    image: set[int] = set()   # C^q coordinates of delta_{q-1}'s kept rows
    for rows, ncols, _ in deltas:
        bound = min(len(rows), ncols - len(image))
        positions, basis = independent_rows_mod_p(_outside(rows, image),
                                                  bound)
        kept.append(positions)
        bases.append(basis)
        images.append(image)
        keys = list(rows)
        image = {keys[i] for i in kept[-1]}
    low = [len(k) for k in kept] + [0]
    ranks: list[int] = []
    for q, (rows, ncols, nrows) in enumerate(deltas):
        rank = low[q]
        if rank < min(len(rows), ncols - (ranks[-1] if q else 0),
                      nrows - low[q + 1]):
            envelope("exact elimination cells", len(kept[q]) * ncols,
                     ROW_SPACE_CELL_BOUND)
            rank = len(row_space(list(_outside(rows, images[q])), ncols,
                                 kept[q], bases[q])[1])
        ranks.append(rank)
    for q in range(1, len(deltas)):
        first, ncols, _ = deltas[q - 1]
        if first and deltas[q][0]:
            _check_square(deltas[q][0], first, ncols, q - 1)
    return ranks


def _outside(rows: dict, cut: set):
    """The rows' values, each without the columns in `cut`."""
    if not cut:
        return rows.values()
    return ({j: x for j, x in row.items() if j not in cut}
            for row in rows.values())


def _check_square(after: dict, first: dict, ncols: int, q: int) -> None:
    """Raise unless delta_{q+1} delta_q = 0, in integers over the rows'
    nonzeros.

    A row of delta_{q+1} sums its multiples of the rows of delta_q. Where
    those are dense enough (`koszul._kernel.pack_width`), each is packed
    once into an integer with a slot per column, and a row's sum is zero
    exactly when that integer is: no slot exceeds the largest |entry| of
    delta_q times the largest sum of |entries| of a row of delta_{q+1}.
    Otherwise each row of delta_q is listed once as (column, value) pairs
    and as its columns; a row of delta_{q+1} sums its multiples into one
    list indexed by the ncols columns and reads back only the columns it
    summed, so a sparse wide product (KV adjoint on affine:3: about 6 of
    1,728 columns a row) is not scanned ncols cells per row. When the row
    passes every cell is zero again, so the list serves the next row.
    """
    nonzeros = sum(map(len, first.values()))
    width = pack_width(
        len(first), nonzeros, sum(map(len, after.values())), lambda: ncols,
        lambda: max(map(abs, chain.from_iterable(map(dict.values,
                                                     first.values()))),
                    default=0),
        lambda: max((sum(map(abs, row.values())) for row in after.values()),
                    default=0))
    broken = ConformanceMismatch(
        f"coboundary squares to nonzero from degree {q}")
    if width:
        packed = {k: sum(y << width * col for col, y in row.items())
                  for k, row in first.items()}
        for row in after.values():
            if sum(map(mul, row.values(), map(packed.get, row, repeat(0)))):
                raise broken
        return
    none = ((), ())
    split = {k: (tuple(row.items()), tuple(row)) for k, row in first.items()}
    acc = [0] * ncols
    at = acc.__getitem__
    for row in after.values():
        touched = []
        for k, x in row.items():
            pairs, cols = split.get(k, none)
            for col, y in pairs:
                acc[col] += x * y
            touched += cols
        if any(map(at, touched)):
            raise broken


def _assemble(den: int, entries, ncols: int, nrows: int):
    """(dense Fraction rows, ncols, nrows) of a coboundary matrix from its
    contributions.

    `entries` yields (row, col, n): n / den is added to that cell. Every
    coboundary matrix below is built this way from the nonzeros of a
    structure-constant table (`SparseTable`, integers over `den`), so only
    cells that receive a contribution are touched.
    """
    if not nrows or not ncols:
        return [], ncols, nrows
    zero = Fraction(0)
    rows = [[zero] * ncols for _ in range(nrows)]
    for r, row in accumulate(entries).items():
        for col, n in row.items():
            if n:
                rows[r][col] = Fraction(n, den)
    return rows, ncols, nrows


def _apply(c: Cochain, den: int, entries, x) -> Cochain:
    """The coboundary of c from the contributions `_assemble` turns into its
    matrix: that matrix times x, the coordinates of c in the matrix's
    columns, with one division by den per output cell."""
    width = c.module_dim
    out = [Fraction(0)] * (c.dim ** (c.degree + 1) * width)
    for r, row in accumulate(entries).items():
        for col, n in row.items():
            if n and x[col]:
                out[r] += n * x[col]
    out = [v / den for v in out]
    return Cochain(c.degree + 1, c.dim, c.module,
                   tuple(tuple(out[i:i + width])
                         for i in range(0, len(out), width)))


def _module(algebra, coefficients: str):
    """(width, action table) of the coefficient module: nonzeros (i, a, l,
    v) when e_i takes e_a to v e_l, as `spaces.largest_invariant` reads
    them. The adjoint module is the algebra's own table, its `by_first` and
    `by_second` the left and right actions; scalar and trivial coefficients
    are one dimension with the empty table."""
    if coefficients == ADJOINT:
        return algebra.dim, algebra.sparse
    return 1, SparseTable()


def _kv_entries(sp, m: int, q: int, width: int, act, cod):
    """Contributions to delta_q (q >= 1) of the KV complex; see kv_coboundary.

    cod lists the rows to write as (flat(xi), xi) pairs, xi = X_1..X_{q+1}.
    Row flat(X_1..X_{q+1}) * width + k, column flat(f's arguments) * width +
    a, over the module of `_module`. A flat index is a base-m number:
    flat(∂_i xi) is the row's own index with digit i dropped, and an
    argument a in slot t of it moves it by (a - held) * m^(q-1-t).
    """
    by_pair, left, right = sp.by_pair, act.by_first, act.by_second
    steps = [m ** (q - 1 - t) for t in range(q)]
    for out, idx in cod:
        row0 = out * width
        last = idx[q]
        for i in range(1, q + 1):
            x = idx[i - 1]
            rest = idx[:i - 1] + idx[i:]
            w = steps[i - 1] * m   # the weight of X_i's digit in out
            flat = out // (w * m) * w + out % w
            sign = -1 if i % 2 else 1
            # X_i·f(∂_i xi)
            for a, k, n in left.get(x, ()):
                yield row0 + k, flat * width + a, sign * n
            # f(∂²_{i,q+1} xi ⊗ X_i)·X_{q+1}
            for a, k, n in right.get(last, ()):
                yield row0 + k, (flat - last + x) * width + a, sign * n
            # -f(X_i·∂_i xi): X_i acts on each slot of rest
            for t, held in enumerate(rest):
                for a, n in by_pair.get((x, held), ()):
                    col0 = (flat + (a - held) * steps[t]) * width
                    for k in range(width):
                        yield row0 + k, col0 + k, -sign * n


def _kv_degree_zero_entries(act, width: int, zero_basis):
    """Contributions to delta_0: xi·X - X·xi, for each row {column: value}
    xi of zero_basis, read from the module's action table by the index a
    of xi's coordinate (e_a·e_x in `by_first`, e_x·e_a in `by_second`)."""
    for col, xi in enumerate(zero_basis):
        for a, v in xi.items():
            if v:
                for x, k, n in act.by_first.get(a, ()):
                    yield x * width + k, col, v * n
                for x, k, n in act.by_second.get(a, ()):
                    yield x * width + k, col, -v * n


def _check_kv(algebra: BilinearProduct, coefficients: str,
              max_degree: int = 0) -> None:
    if coefficients not in (ADJOINT, SCALAR):
        raise ValidationError("coefficients must be adjoint or scalar")
    _check_max_degree(max_degree, 3)
    if not algebra.is_kv:
        raise NotKV("product is not left-symmetric")


def _check_max_degree(max_degree: int, cap: int) -> None:
    if max_degree > cap:
        raise ValidationError(f"degrees capped at {cap}")
    if max_degree < 0:
        raise ValidationError(f"max_degree {max_degree} is negative")


def _kv_delta(algebra: BilinearProduct, coefficients: str, q: int,
              zero_basis):
    """(entries, ncols, nrows) of the KV delta_q; zero_basis spans the
    degree-0 cochains."""
    m, sp = algebra.dim, algebra.sparse
    width, act = _module(algebra, coefficients)
    ncols = m ** q * width if q else len(zero_basis)
    nrows = m ** (q + 1) * width
    if not sp.nonzeros:
        # every delta of the zero product is zero; no tuple is walked
        return (), ncols, nrows
    if q:
        return (_kv_entries(sp, m, q, width, act,
                            enumerate(iproduct(range(m), repeat=q + 1))),
                ncols, nrows)
    return _kv_degree_zero_entries(act, width, zero_basis), ncols, nrows


def _kv_contributions(sp, m: int, q: int, width: int, act) -> int:
    """How many contributions `_kv_delta` yields, counted without
    generating any: each nonzero of the action lies in one list of
    `by_first` and of `by_second`, each of the table in one of `by_pair`,
    and each list is read once per choice of the other indices. In degree
    0 this is a bound: each of at most `width` vectors spanning the
    0-cochains reads both action lists at most once per nonzero."""
    n, acts = len(sp.nonzeros), len(act.nonzeros)
    if q:
        return q * m ** q * 2 * acts + q * q * m ** (q - 1) * n * width
    return width * 2 * acts


def kv_cohomology_dims(algebra: BilinearProduct, coefficients: str,
                       max_degree: int = 3) -> CohomologyReport:
    """Exact dims of the left-symmetric complex up to max_degree <= 3."""
    _check_kv(algebra, coefficients, max_degree)
    m = algebra.dim
    module = _module(algebra, coefficients)
    _check_size(sum(_kv_contributions(algebra.sparse, m, q, *module)
                    for q in range(max_degree + 1)),
                sum(m ** (q + 1) for q in range(max_degree + 1)))
    # primitive integer degree-0 columns (a canonical kernel vector has a 1);
    # rescaling a column keeps every rank and delta_1 delta_0 = 0. Scalar
    # 0-cochains are the constants.
    zero_basis = (kv_degree_zero_space(algebra)[0]
                  if coefficients == ADJOINT else ({0: 1},))
    deltas = [_kv_delta(algebra, coefficients, q, zero_basis)
              for q in range(max_degree + 1)]
    notes = ("degree-0 cochains restricted to the second-order-parallel "
             "elements" if coefficients == ADJOINT else
             "degree-0 scalar coboundary taken as zero; the source's "
             "degree-0 rule is not a map into 1-cochains")
    return _dims_from_deltas("kv", coefficients, m, deltas, notes)


def _ce_entries(sp, p: int, width: int, act, dom_pos, cod):
    """Contributions to delta_p of the Chevalley-Eilenberg complex.

    Row cod-position * width + k, column dom-position * width + a, over
    increasing index tuples and the module of `_module`. The bracket's e_l
    part lands on l wedged with the increasing tuple rest: l moves to its
    place among rest past `pos` smaller indices, sign (-1)^pos, and the
    entry vanishes when l is already in rest.
    """
    by_pair, left = sp.by_pair, act.by_first
    for out, tup in enumerate(cod):
        row0 = out * width
        for i in range(p + 1):
            x = tup[i]
            sign = -1 if i % 2 else 1
            col0 = dom_pos[tup[:i] + tup[i + 1:]] * width
            for a, k, n in left.get(x, ()):
                yield row0 + k, col0 + a, sign * n
            for j in range(i + 1, p + 1):
                rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
                s2 = -1 if (i + j) % 2 else 1
                for l, n in by_pair.get((x, tup[j]), ()):
                    pos = bisect_left(rest, l)
                    if pos < len(rest) and rest[pos] == l:
                        continue
                    col0 = dom_pos[rest[:pos] + (l,) + rest[pos:]] * width
                    v = -s2 * n if pos % 2 else s2 * n
                    for w in range(width):
                        yield row0 + w, col0 + w, v


def ce_coboundary_matrix(L: LieAlgebra, coefficients: str, p: int):
    """Matrix rows of delta: C^p -> C^{p+1} for the Lie algebra complex."""
    return _assemble(L.sparse.den, *_ce_delta(L, coefficients, p))


def _ce_delta(L: LieAlgebra, coefficients: str, p: int):
    """(entries, ncols, nrows) of the Chevalley-Eilenberg delta_p; an
    abelian bracket has no entries, and its index tuples are not listed."""
    m = L.dim
    width, act = _module(L, coefficients)
    ncols, nrows = comb(m, p) * width, comb(m, p + 1) * width
    if not L.sparse.nonzeros:
        return (), ncols, nrows
    dom_pos = {t: i for i, t in enumerate(combinations(range(m), p))}
    entries = _ce_entries(L.sparse, p, width, act, dom_pos,
                          combinations(range(m), p + 1))
    return entries, ncols, nrows


def _ce_contributions(sp, m: int, p: int, width: int, act) -> int:
    """At least as many as the contributions `_ce_delta` yields, counted
    without generating any: each index lies in comb(m - 1, p) of the
    (p+1)-tuples, each pair of indices in comb(m - 2, p - 1), and a bracket
    that repeats an index contributes nothing."""
    if not sp.nonzeros:
        return 0
    pairs = sum(len(v) for (x, y), v in sp.by_pair.items() if x < y)
    return (comb(m - 1, p) * len(act.nonzeros)
            + (comb(m - 2, p - 1) * pairs * width if p else 0))


def ce_cohomology_dims(L: LieAlgebra, coefficients: str = TRIVIAL,
                       max_degree: int = 3) -> CohomologyReport:
    """Chevalley-Eilenberg dims; trivial or adjoint coefficients, p <= 3."""
    if coefficients not in (TRIVIAL, ADJOINT):
        raise ValidationError("coefficients must be trivial or adjoint")
    _check_max_degree(max_degree, 3)
    m = L.dim
    module = _module(L, coefficients)
    contributions = sum(_ce_contributions(L.sparse, m, p, *module)
                        for p in range(max_degree + 1))
    _check_size(contributions, sum(comb(m, p) + comb(m, p + 1)
                                   for p in range(max_degree + 1)))
    if (coefficients == ADJOINT
            and _killing_products(L.sparse) <= contributions
            and _nondegenerate(_killing_rows(L.sparse), m)):
        # semisimple (Cartan), so H^q(g, g) = 0 (Whitehead) and the centre
        # is zero: delta_0 is injective
        cochains = [comb(m, p) * m for p in range(max_degree + 1)]
        return _report("chevalley-eilenberg", ADJOINT, m, cochains,
                       _acyclic_ranks(cochains, m))
    deltas = [_ce_delta(L, coefficients, p) for p in range(max_degree + 1)]
    return _dims_from_deltas("chevalley-eilenberg", coefficients, m, deltas)


def scalar_coboundary_rows(algebra, q: int) -> list[dict[int, int]]:
    """Condition rows of delta_q, q >= 1, with scalar coefficients over the
    flat table positions of a q-cochain (f(e_a, e_b) at a * m + b): of the
    Chevalley-Eilenberg complex for a LieAlgebra, whose cochains on
    increasing tuples keep the positions a < b, else of the KV complex. The
    KV delta_2 rows (x, y, z) are listed for x < y only: (delta_2 f)(x, y,
    z) = -(delta_2 f)(y, x, z) for every cochain f, so the rows with x = y
    vanish. `kv_cohomology_dims` keeps every row, since its square check
    delta_3 delta_2 reads them all."""
    m, sp = algebra.dim, algebra.sparse
    if not isinstance(algebra, LieAlgebra):
        cod = iproduct(range(m), repeat=q + 1)
        if q == 2:
            cod = (t for t in cod if t[0] < t[1])
        return condition_rows(_kv_entries(
            sp, m, q, *_module(algebra, SCALAR),
            ((_flat_index(t, m), t) for t in cod)))
    flat = {t: _flat_index(t, m) for t in combinations(range(m), q)}
    return condition_rows(_ce_entries(sp, q, *_module(algebra, SCALAR), flat,
                                      combinations(range(m), q + 1)))


def hochschild_coboundary(c: Cochain, algebra: BilinearProduct) -> Cochain:
    """(delta f)(x_0..x_q) = x_0 f(...) + sum (-1)^i f(..x_{i-1}x_i..)
    + (-1)^{q+1} f(...) x_q.

    Coefficients are in the algebra: a cochain of another module or
    dimension raises ValidationError."""
    _check_cochain(c, algebra, ADJOINT)
    return _apply(c, algebra.sparse.den,
                  _hochschild_delta(algebra, c.degree)[0],
                  [v for value in c.table for v in value])


def _hochschild_entries(sp, m: int, q: int):
    """Contributions to delta_q of the Hochschild complex; see
    hochschild_coboundary. Row flat(x_0..x_q) * m + k, column flat(f's
    arguments) * m + a, f's arguments read off the row's index as in
    `_kv_entries`: x_{i-1} and x_i, of weight m·s and s, merge into a."""
    by_first, by_second, by_pair = sp.by_first, sp.by_second, sp.by_pair
    last_sign = -1 if q % 2 == 0 else 1
    top, steps = m ** q, [m ** (q - i) for i in range(1, q + 1)]
    for out, idx in enumerate(iproduct(range(m), repeat=q + 1)):
        row0 = out * m
        col0 = out % top * m
        for a, k, n in by_first.get(idx[0], ()):
            yield row0 + k, col0 + a, n
        for i, s in enumerate(steps, 1):
            sign = -1 if i % 2 else 1
            kept = out // (s * m * m) * s * m + out % s
            for a, n in by_pair.get((idx[i - 1], idx[i]), ()):
                col0 = (kept + a * s) * m
                for k in range(m):
                    yield row0 + k, col0 + k, sign * n
        col0 = out // m * m
        for a, k, n in by_second.get(idx[q], ()):
            yield row0 + k, col0 + a, last_sign * n


def _check_associative(algebra: BilinearProduct) -> None:
    if not algebra.is_associative:
        from koszul.algebra import associator_defect
        hit = associator_defect(algebra).first_nonzero()
        raise NotAssociative(f"associator nonzero (witness {hit[0][:3]})")


def _hochschild_delta(algebra: BilinearProduct, q: int):
    """(entries, ncols, nrows) of the Hochschild delta_q; the zero product
    has no entries, and its index tuples are not walked."""
    m = algebra.dim
    sp = algebra.sparse
    return (_hochschild_entries(sp, m, q) if sp.nonzeros else (),
            m ** (q + 1), m ** (q + 2))


def _hochschild_contributions(n: int, m: int, q: int) -> int:
    """How many contributions `_hochschild_delta` yields for a table of n
    nonzeros, counted without generating any: each nonzero is read m ** q
    times from `by_first`, from `by_second` and from `by_pair` at each of q
    slots."""
    return m ** q * n * (q + 2)


def hochschild_dims(algebra: BilinearProduct,
                    max_degree: int = 2) -> CohomologyReport:
    """Hochschild dims with coefficients in the algebra, degree <= 2."""
    _check_max_degree(max_degree, 2)
    _check_associative(algebra)
    _check_size(sum(_hochschild_contributions(len(algebra.sparse.nonzeros),
                                              algebra.dim, q)
                    for q in range(max_degree + 1)),
                sum(algebra.dim ** (q + 1) for q in range(max_degree + 1)))
    m, sp = algebra.dim, algebra.sparse
    if _nondegenerate(_trace_form_rows(sp, m), m):
        # semisimple, so separable: HH^q(A, A) = 0 for q >= 1, and H^0 is
        # the centre, the kernel of delta_0
        entries, ncols, nrows = _hochschild_delta(algebra, 0)
        cochains = [m ** (q + 1) for q in range(max_degree + 1)]
        r0 = _certified_ranks([(accumulate(entries), ncols, nrows)])[0]
        return _report("hochschild", ADJOINT, m, cochains,
                       _acyclic_ranks(cochains, r0))
    deltas = [_hochschild_delta(algebra, q) for q in range(max_degree + 1)]
    return _dims_from_deltas("hochschild", ADJOINT, m, deltas)


def maurer_cartan_defect(mu: LieAlgebra, b_table) -> DefectTensor:
    """dB + J_B for a skew bracket perturbation B.

    dB is the adjoint Chevalley-Eilenberg coboundary of B against mu, and
    J_B(x,y,z) = sum_cyclic B(x, B(y,z)). Zero exactly when mu + B is again
    a Lie bracket. As mu satisfies Jacobi, dB + J_B = -Jac(mu + B)
    (Nijenhuis-Richardson), which is how it is computed.
    """
    m = mu.dim
    if len(b_table) != m or any(
            len(p) != m or any(len(r) != m for r in p) for p in b_table):
        raise ValidationError("perturbation shape does not match the algebra")
    total: dict = defaultdict(Fraction)
    for i, j, k, v in mu.sparse.items():
        total[i, j, k] += v
    for i, plane in enumerate(b_table):
        for j, row in enumerate(plane):
            for k, v in enumerate(row):
                v = frac(v)
                if v != -frac(b_table[j][i][k]):
                    raise ValidationError("perturbation is not skew")
                if v:
                    total[i, j, k] += v
    s = SparseTable((*idx, v) for idx, v in total.items())
    jac = jacobi_defect(m, s)
    return DefectTensor.over((m,) * 4, {idx: -n for idx, n in
                                        jac.numerators.items()}, jac.den)
