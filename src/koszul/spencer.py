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

The coboundary is written once, as contributions (row key, column, value)
of sparse rows (`_d`, read by `spaces.condition_rows`): the image of each
basis cochain of C^{p,q} is one integer row over the columns of
C^{p+1,q-1}, and feeding those rows back through `_d` checks d² = 0. Each
rank is taken by `linalg.sparse_rank`, the elimination path of every other
condition system, so no dense vector of a cochain space is built.

Each `SymbolSpace` computes its first prolongation once
(`SymbolSpace.prolongation`): the Spencer window builds its chain of
prolongations from it, and Cartan's test reads it in every trial of the
basis search, so a trial pays only for its flag, one integer elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb
import os
import random

from koszul import linalg
from koszul._kernel import echelon
from koszul.algebra import envelope
from koszul.errors import ConformanceMismatch, ValidationError
from koszul.linalg import Vec
from koszul.spaces import condition_rows

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


def resolve_seed(seed=None) -> int:
    """The basis search's seed: `seed`, else KOSZUL_SEED, else DEFAULT_SEED."""
    if seed is not None:
        return int(seed)
    try:
        return int(os.environ.get("KOSZUL_SEED", DEFAULT_SEED))
    except ValueError:
        raise ValidationError("KOSZUL_SEED must be an integer, got "
                              f"{os.environ['KOSZUL_SEED']!r}") from None


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
    """Subspace of the order-s symmetric W-valued symbols on V."""

    v_dim: int
    w_dim: int
    basis: tuple[Vec, ...]
    order: int = 1

    def __post_init__(self):
        n = symbol_coord_dim(self.v_dim, self.w_dim, self.order)
        for b in self.basis:
            if len(b) != n:
                raise ValidationError("symbol vector has wrong length")
        if self.basis and linalg.rank(self.basis) != len(self.basis):
            raise ValidationError("symbol basis is linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def prolongation(self) -> SymbolSpace:
        """The first prolongation, computed once per space by `prolong`."""
        return prolong(self)

    @cached_property
    def _integer_basis(self) -> list[list[int]]:
        return linalg.integer_rows(self.basis)[0]


def symbol_space(v: int, w: int, rows) -> SymbolSpace:
    basis = tuple(tuple(linalg.frac(x) for x in row) for row in rows)
    return SymbolSpace(v, w, linalg.row_space_basis(basis), 1)


def prolong(a: SymbolSpace) -> SymbolSpace:
    """Symbols one order up whose slices in every direction lie in `a`.

    The zero space prolongs to zero without a solve: an order-(s+1) symbol
    whose every slice vanishes is zero."""
    m, w, s = a.v_dim, a.w_dim, a.order
    if not a.basis:
        return SymbolSpace(m, w, (), s + 1)
    ann = linalg.nullspace(a.basis, ncols=symbol_coord_dim(m, w, s))
    nup = len(monomials(m, s + 1))
    pos_up = _mono_pos(m, s + 1)
    lower = monomials(m, s)
    nl = len(lower)
    # row (j, t): the t-th annihilator of `a` on the slice in direction e_j
    rows = condition_rows(
        ((j, t), i // nl * nup + pos_up[tuple(sorted(lower[i % nl] + (j,)))],
         coeff)
        for t, lam in enumerate(ann) for i, coeff in enumerate(lam) if coeff
        for j in range(m))
    basis = linalg.sparse_nullspace(rows, w * nup)
    return SymbolSpace(m, w, basis, s + 1)


def cartan_test(a: SymbolSpace, basis=None) -> tuple[int, int, bool]:
    """(dim of the prolongation, sum of the flag dims, equality flag).

    The prolongation is computed once per symbol space
    (`SymbolSpace.prolongation`), so repeated tests of one space, as in
    the basis search, pay only for the flag of each basis.
    """
    if a.order != 1:
        raise ValidationError("cartan test applies to order-1 symbols")
    m = a.v_dim
    if basis is None:
        basis = linalg.identity(m)
    else:
        basis = tuple(tuple(linalg.frac(x) for x in v) for v in basis)
        if linalg.rank(basis) != m:
            raise ValidationError("test basis does not span V")
    return _flag_test(a, basis)


def _flag_test(a: SymbolSpace, basis) -> tuple[int, int, bool]:
    """`cartan_test` on a basis of `Fraction` vectors already known to
    span V.

    Row s holds (A_s b_t)_k at column t * w + k, with A_s and b_t scaled
    to integers. A pivot column is independent of the columns before it,
    so dim a_j = d - #(pivots below j * w), summed over j = 0..m.
    """
    m, w = a.v_dim, a.w_dim
    bs, _ = linalg.integer_rows(basis)
    _, pivots, _ = echelon([
        [sum(A[k * m + i] * bt[i] for i in range(m))
         for bt in bs for k in range(w)] for A in a._integer_basis])
    p1 = a.prolongation.dim
    total = (m + 1) * a.dim - sum(m - c // w for c in pivots)
    if p1 > total:
        raise ConformanceMismatch(
            "prolongation exceeded the Cartan bound; computation is wrong")
    return p1, total, p1 == total


def find_quasi_regular_basis(a: SymbolSpace, trials: int = DEFAULT_TRIALS,
                             seed=None) -> tuple | None:
    """A basis attaining Cartan's bound, or None after the trial budget.

    Tries the standard basis first, then seeded random rational bases with
    entries in [-5, 5]. A quasi-regular basis is generic when one exists, so
    small budgets suffice in practice; None is not a certificate of absence.
    The prolongation is computed once per symbol space, so each trial costs
    one integer elimination for its whole flag. The standard basis goes
    through the public `cartan_test`, which checks the order of `a`; each
    candidate is ranked here, so its flag is taken without a second check.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    m = a.v_dim
    _, _, ok = cartan_test(a)
    if ok:
        return linalg.identity(m)
    rng = random.Random(resolve_seed(seed))
    for _ in range(trials - 1):
        cand = tuple(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 2))
                  for _ in range(m)) for _ in range(m))
        if linalg.rank(cand) != m:
            continue
        _, _, ok = _flag_test(a, cand)
        if ok:
            return cand
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
    `condition_rows(_d(...))`, ranked by `linalg.sparse_rank`. For
    1 <= q <= Q_MAX the rows go through `_d` once more: any nonzero row
    there means d² != 0, which is reported in `d_squared_zero`, not raised.

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
            n = spaces[q].dim
            basis = ((t * n + i, t * len(b) + j, x)
                     for t in range(comb(m, p))
                     for i, b in enumerate(spaces[q].basis)
                     for j, x in enumerate(b) if x)
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
                  seed=None) -> InvolutivityVerdict:
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
