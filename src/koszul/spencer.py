"""Symbol spaces, prolongations, Cartan's test, and the Spencer complex.

A symbol of order s is a W-valued symmetric s-linear map on V, stored on
monomials: coordinates are indexed by (W-coordinate k, weakly increasing
index tuple), flat position k * n_monomials + monomial_position. Order 1
symbols are plain w x m matrices in row-major order, which is also the file
interchange layout.

The first prolongation of a space `a` of order-s symbols is the space of
order-(s+1) symbols whose single-vector slices all lie in `a`; iterating
from order 1 yields the classical higher prolongations. Spencer cochains are
alternating p-forms on V with symbol values, and the coboundary contracts
one symmetric slot into the alternating part.

A symbol space holds its basis as integer rows over scales, as a solution
space does (`koszul.spaces`); prolongation, the Cartan flags and the
Spencer cochains read those rows, and `Fraction` vectors are built only for
the `basis` view and the report. Each space computes its first
prolongation once (`SymbolSpace.prolongation`). The coboundary is written
once, as condition-row contributions (`_d`), so no dense vector of a
cochain space is built (`spencer_cohomology`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb
import random

from koszul import linalg
from koszul._kernel import echelon
from koszul.algebra import envelope
from koszul.errors import ConformanceMismatch, ValidationError
from koszul.linalg import Vec
from koszul.spaces import condition_rows, independent

DEFAULT_SEED = 7
# candidate bases of the quasi-regular basis search, the standard one first
DEFAULT_TRIALS = 200
# the Spencer window: H^{p,q} for p <= P_MAX, q <= Q_MAX
P_MAX, Q_MAX = 3, 2
# The Spencer window is refused when its cochain spaces, each taken at its
# largest (the prolongations of the full symbol), hold more coordinates in
# all than this. On a 2-vCPU host the full symbol space Hom(V, W) with
# (v, w) = (5, 5) has 16,250 and takes about 3 s; (6, 3) has 26,334 (7 s,
# 156 MB) and (6, 6) 52,668 (26 s, 566 MB).
WINDOW_COORD_BOUND = 20_000


@lru_cache(maxsize=None)
def monomials(m: int, s: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations_with_replacement(range(m), s))


@lru_cache(maxsize=None)
def _mono_pos(m: int, s: int):
    return {mono: i for i, mono in enumerate(monomials(m, s))}


def symbol_coord_dim(m: int, w: int, order: int) -> int:
    return w * len(monomials(m, order))


@dataclass(frozen=True)
class SymbolSpace:
    """Subspace of the order-s symmetric W-valued symbols on V, spanned by
    the vectors rows[t] / scales[t]."""

    v_dim: int
    w_dim: int
    rows: tuple[dict[int, int], ...]
    scales: tuple[int, ...]
    order: int = 1

    def __post_init__(self):
        n = symbol_coord_dim(self.v_dim, self.w_dim, self.order)
        if len(self.scales) != len(self.rows) or any(
                not 0 <= j < n for row in self.rows for j in row):
            raise ValidationError("symbol vector has wrong length")
        if not independent(self.rows, n):
            raise ValidationError("symbol basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> tuple[Vec, ...]:
        return linalg.vectors(self.rows, self.scales, symbol_coord_dim(
            self.v_dim, self.w_dim, self.order))

    @cached_property
    def prolongation(self) -> SymbolSpace:
        """The first prolongation, computed once per space by `prolong`."""
        return prolong(self)


def symbol_space(v: int, w: int, rows) -> SymbolSpace:
    """The order-1 symbol space spanned by rational rows of length v * w,
    on the reduced row-echelon basis of their span."""
    if any(len(row) != v * w for row in rows):
        raise ValidationError("symbol vector has wrong length")
    return SymbolSpace(v, w, *linalg.sparse_row_space(
        [linalg.integer_row(row)[0] for row in rows], v * w), 1)


def prolong(a: SymbolSpace) -> SymbolSpace:
    """Symbols one order up whose slices in every direction lie in `a`.

    The zero space prolongs to zero without a solve: an order-(s+1) symbol
    whose every slice vanishes is zero."""
    m, w, s = a.v_dim, a.w_dim, a.order
    if not a.rows:
        return SymbolSpace(m, w, (), (), s + 1)
    ann = linalg.sparse_nullspace(a.rows, symbol_coord_dim(m, w, s))[0]
    nup = len(monomials(m, s + 1))
    pos_up = _mono_pos(m, s + 1)
    lower = monomials(m, s)
    nl = len(lower)
    # row (j, t): the t-th annihilator of `a` on the slice in direction e_j
    rows = condition_rows(
        ((j, t), i // nl * nup + pos_up[tuple(sorted(lower[i % nl] + (j,)))],
         coeff)
        for t, lam in enumerate(ann) for i, coeff in lam.items()
        for j in range(m))
    return SymbolSpace(m, w, *linalg.sparse_nullspace(rows, w * nup), s + 1)


def cartan_test(a: SymbolSpace, basis=None) -> tuple[int, int, bool]:
    """(dim of the prolongation, sum of the flag dims, equality flag); the
    prolongation is computed once per space, so a test pays for its flag."""
    if a.order != 1:
        raise ValidationError("cartan test applies to order-1 symbols")
    m = a.v_dim
    if basis is None:
        return _flag_test(a, [{i: 1} for i in range(m)])
    bs = [linalg.integer_row(v)[0] for v in basis]
    if linalg.sparse_rank(bs, m) != m:
        raise ValidationError("test basis does not span V")
    return _flag_test(a, bs)


def _flag_test(a: SymbolSpace, bs) -> tuple[int, int, bool]:
    """`cartan_test` on a basis of V already known to span it, as sparse
    integer rows: positive scales keep every flag span.

    Row s holds (A_s b_t)_k at column t * w + k, A_s the integer row of
    the s-th basis symbol. A pivot column is independent of the columns
    before it, so dim a_j = d - #(pivots below j * w), summed over j = 0..m.
    """
    m, w = a.v_dim, a.w_dim
    _, pivots, _ = echelon([
        [sum(A.get(k * m + i, 0) * y for i, y in bt.items())
         for bt in bs for k in range(w)] for A in a.rows])
    p1 = a.prolongation.dim
    total = (m + 1) * a.dim - sum(m - c // w for c in pivots)
    if p1 > total:
        raise ConformanceMismatch(
            "prolongation exceeded the Cartan bound; computation is wrong")
    return p1, total, p1 == total


def find_quasi_regular_basis(a: SymbolSpace, trials: int = DEFAULT_TRIALS,
                             seed: int = DEFAULT_SEED) -> tuple | None:
    """A basis attaining Cartan's bound, or None after the trial budget.

    Tries the standard basis first, then seeded random rational bases with
    entries n/d, n in [-5, 5] and d in {1, 2}. A quasi-regular basis is
    generic when one exists, so small budgets suffice in practice; None is
    not a certificate of absence. The standard basis goes through the
    public `cartan_test`, which checks the order of `a`; each candidate is
    drawn as (n, d) pairs, ranked here and flag-tested as integer rows (each
    vector times 2, which keeps its rank and every flag span), and only the
    basis returned is built as `Fraction`s.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    m = a.v_dim
    _, _, ok = cartan_test(a)
    if ok:
        return linalg.identity(m)
    rng = random.Random(seed)
    for _ in range(trials - 1):
        cand = [[(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(m)]
                for _ in range(m)]
        ints = [{i: n * (2 // d) for i, (n, d) in enumerate(v) if n}
                for v in cand]
        if linalg.sparse_rank(ints, m) == m and _flag_test(a, ints)[2]:
            return tuple(tuple(Fraction(n, d) for n, d in v) for v in cand)
    return None


def _d(m: int, w: int, p: int, s: int, cochains):
    """The Spencer coboundary C^p(order s) -> C^(p+1)(order s-1), as
    contributions (row key, column, value) for `condition_rows`.

    `cochains` yields contributions (row key, column, value) of cochains
    of p-forms with order-s symbol values, at column p-tuple position *
    w * n_s + k * n_s + monomial position (n_s the order-s monomial
    count). Each one's image is contributed under its row key, at the same
    positions one degree up and one order down: d contracts the symmetric
    slot with e_u for every u outside the p-tuple, with the sign of u's
    place in the sorted (p+1)-tuple.
    """
    monos = monomials(m, s)
    ns, nl = len(monos), len(monomials(m, s - 1))
    ptuples = list(combinations(range(m), p))
    up = {t: i for i, t in enumerate(combinations(range(m), p + 1))}
    down = _mono_pos(m, s - 1)
    for key, col, x in cochains:
        t, rest = divmod(col, w * ns)
        k, i = divmod(rest, ns)
        ptuple, mono = ptuples[t], monos[i]
        for u in sorted(set(mono).difference(ptuple)):
            newp = tuple(sorted(ptuple + (u,)))
            lower = list(mono)
            lower.remove(u)
            yield (key, (up[newp] * w + k) * nl + down[tuple(lower)],
                   -x if newp.index(u) % 2 else x)


@dataclass(frozen=True)
class SpencerReport:
    v_dim: int
    w_dim: int
    p_max: int
    q_max: int
    prolong_dims: tuple[int, ...]
    c_dims: tuple[tuple[int, ...], ...]
    h_dims: tuple[tuple[int, ...], ...]
    d_squared_zero: bool

    def h(self, p: int, q: int) -> int:
        return self.h_dims[p][q]


def spencer_cohomology(a: SymbolSpace) -> SpencerReport:
    """Cohomology of Lambda^p V* (x) a^{(q)} in a finite window.

    H^{p,q} is taken at C^{p,q} inside
    C^{p-1,q+1} -> C^{p,q} -> C^{p+1,q-1}; images are computed in ambient
    symbol coordinates so no membership solves are needed, and the rank of
    each d is computed once, serving both degrees it bounds. The images of
    the basis cochains of C^{p,q} are the sparse integer rows
    `condition_rows(_d(...))`, ranked by `linalg.sparse_rank`. The cochains
    are read from the integer rows of a^{(q)} (`SymbolSpace.rows`):
    scaling a basis cochain by a positive integer scales its image row,
    which `condition_rows` makes primitive again, so the rows are those of
    the rational basis. For 1 <= q <= Q_MAX the rows go through `_d` once
    more: any nonzero row there means d² != 0, which is reported in
    `d_squared_zero`, not raised.

    Before any prolongation the window is estimated from v and w alone,
    each a^{(q)} at its largest, and refused above `WINDOW_COORD_BOUND`.
    """
    if a.order != 1:
        raise ValidationError("spencer complex starts from order-1 symbols")
    m, w = a.v_dim, a.w_dim
    envelope("Spencer window cochain coordinates",
             sum(comb(m, p) * symbol_coord_dim(m, w, q + 1)
                 for p in range(P_MAX + 1) for q in range(Q_MAX + 2)),
             WINDOW_COORD_BOUND)
    spaces = {0: a}
    for q in range(1, Q_MAX + 2):
        spaces[q] = spaces[q - 1].prolongation

    d2_ok = True
    ranks = {}

    def rank_d(p, q):
        """Rank of d: C^{p,q} -> C^{p+1,q-1}, computed once per (p, q); d² = 0
        is checked on the way for 1 <= q <= Q_MAX."""
        nonlocal d2_ok
        if (p, q) not in ranks:
            n, size = spaces[q].dim, symbol_coord_dim(m, w, q + 1)
            basis = ((t * n + i, t * size + j, x)
                     for t in range(comb(m, p))
                     for i, b in enumerate(spaces[q].rows)
                     for j, x in b.items())
            rows = condition_rows(_d(m, w, p, q + 1, basis))
            if 1 <= q <= Q_MAX and condition_rows(_d(
                    m, w, p + 1, q, ((r, j, x) for r, row in enumerate(rows)
                                     for j, x in row.items()))):
                d2_ok = False
            ranks[p, q] = linalg.sparse_rank(
                rows, comb(m, p + 1) * symbol_coord_dim(m, w, q))
        return ranks[p, q]

    c_dims = [[comb(m, p) * spaces[q].dim for q in range(Q_MAX + 1)]
              for p in range(P_MAX + 1)]
    h_dims = [[0] * (Q_MAX + 1) for _ in range(P_MAX + 1)]
    for p in range(P_MAX + 1):
        for q in range(Q_MAX + 1):
            if not c_dims[p][q]:
                continue
            rank_in = rank_d(p - 1, q + 1) if p >= 1 else 0
            h_dims[p][q] = c_dims[p][q] - rank_d(p, q) - rank_in
            if h_dims[p][q] < 0:
                raise ConformanceMismatch("negative cohomology dimension")
    return SpencerReport(
        v_dim=m, w_dim=w, p_max=P_MAX, q_max=Q_MAX,
        prolong_dims=tuple(spaces[q].dim for q in range(Q_MAX + 2)),
        c_dims=tuple(tuple(r) for r in c_dims),
        h_dims=tuple(tuple(r) for r in h_dims),
        d_squared_zero=d2_ok)


@dataclass(frozen=True)
class InvolutivityVerdict:
    verdict: str
    basis: tuple | None
    cohomology_witness: tuple | None
    report: SpencerReport


def is_involutive(a: SymbolSpace, trials: int = DEFAULT_TRIALS,
                  seed: int = DEFAULT_SEED) -> InvolutivityVerdict:
    """Two-route involutivity check: quasi-regular basis vs Spencer window.

    A basis certifies yes; a nonzero H^{p,q} with p > 0 certifies no; both at
    once would contradict the equivalence theorem and raises. If neither
    route produces a certificate the verdict is unknown (the window is
    finite and the basis search is randomized).
    """
    if a.v_dim > 4 or a.w_dim > 4:
        raise ValidationError("involutivity check limited to v,w <= 4")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    report = spencer_cohomology(a)
    witness = None
    for p in range(1, report.p_max + 1):
        for q in range(report.q_max + 1):
            if report.h(p, q) != 0:
                witness = (p, q)
                break
        if witness:
            break
    basis = find_quasi_regular_basis(a, trials=trials, seed=seed)
    if witness is not None and basis is not None:
        raise ConformanceMismatch(
            f"quasi-regular basis found while H{witness} is nonzero; the "
            "two routes disagree, which falsifies this implementation")
    if witness is not None:
        return InvolutivityVerdict("no", None, witness, report)
    if basis is not None:
        return InvolutivityVerdict("yes", basis, None, report)
    return InvolutivityVerdict("unknown", None, None, report)
