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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
import random

from koszul import linalg
from koszul.errors import ConformanceMismatch, ValidationError
from koszul.linalg import Vec


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

    def matrices(self):
        """Order-1 symbols as w x m matrices."""
        if self.order != 1:
            raise ValidationError("matrix view requires order 1")
        return tuple(linalg.unflatten(b, self.w_dim, self.v_dim)
                     for b in self.basis)


def symbol_space(v: int, w: int, rows) -> SymbolSpace:
    basis = tuple(tuple(linalg.frac(x) for x in row) for row in rows)
    return SymbolSpace(v, w, linalg.row_space_basis(basis), 1)


def full_hom(m: int, w: int) -> SymbolSpace:
    n = m * w
    basis = tuple(
        tuple(Fraction(1 if t == s else 0) for t in range(n)) for s in range(n))
    return SymbolSpace(m, w, basis, 1)


def zero_symbol(m: int, w: int) -> SymbolSpace:
    return SymbolSpace(m, w, (), 1)


def prolong(a: SymbolSpace) -> SymbolSpace:
    """Symbols one order up whose slices in every direction lie in `a`."""
    m, w, s = a.v_dim, a.w_dim, a.order
    amb = symbol_coord_dim(m, w, s)
    ann = linalg.nullspace(a.basis, ncols=amb)
    up = monomials(m, s + 1)
    nup = len(up)
    pos_up = _mono_pos(m, s + 1)
    lower = monomials(m, s)
    nl = len(lower)
    rows = []
    for j in range(m):
        for lam in ann:
            row = [Fraction(0)] * (w * nup)
            for k in range(w):
                for p, mono in enumerate(lower):
                    coeff = lam[k * nl + p]
                    if coeff:
                        row[k * nup + pos_up[tuple(sorted(mono + (j,)))]] \
                            += coeff
            if any(row):
                rows.append(row)
    basis = linalg.nullspace(rows, ncols=w * nup)
    return SymbolSpace(m, w, basis, s + 1)


def _aj_dims(a: SymbolSpace, basis_vectors) -> list[int]:
    """dim of {A in a : A b_t = 0 for t <= j}, for j = 0..m."""
    m, w = a.v_dim, a.w_dim
    mats = a.matrices()
    d = a.dim
    dims = [d]
    rows = []
    for bt in basis_vectors:
        for k in range(w):
            rows.append([sum(mats[s][k][i] * bt[i] for i in range(m))
                         for s in range(d)])
        dims.append(len(linalg.nullspace(rows, ncols=d)))
    return dims


def cartan_test(a: SymbolSpace, basis=None) -> tuple[int, int, bool]:
    """(dim of the prolongation, sum of the flag dims, equality flag)."""
    if a.order != 1:
        raise ValidationError("cartan test applies to order-1 symbols")
    m = a.v_dim
    if basis is None:
        basis = linalg.identity(m)
    else:
        basis = tuple(tuple(linalg.frac(x) for x in v) for v in basis)
        if linalg.rank(basis) != m:
            raise ValidationError("test basis does not span V")
    p1 = prolong(a).dim
    total = sum(_aj_dims(a, basis))
    if p1 > total:
        raise ConformanceMismatch(
            "prolongation exceeded the Cartan bound; computation is wrong")
    return p1, total, p1 == total


def find_quasi_regular_basis(a: SymbolSpace, trials: int = 64,
                             seed=None) -> tuple | None:
    """A basis attaining Cartan's bound, or None after the trial budget.

    Tries the standard basis first, then seeded random rational bases with
    entries in [-5, 5]. A quasi-regular basis is generic when one exists, so
    small budgets suffice in practice; None is not a certificate of absence.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    from koszul.invariants import resolve_seed
    m = a.v_dim
    std = linalg.identity(m)
    _, _, ok = cartan_test(a, std)
    if ok:
        return std
    rng = random.Random(resolve_seed(seed))
    for _ in range(trials - 1):
        cand = tuple(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 2))
                  for _ in range(m)) for _ in range(m))
        if linalg.rank(cand) != m:
            continue
        _, _, ok = cartan_test(a, cand)
        if ok:
            return cand
    return None


def _apply_d(m: int, w: int, p: int, order: int, coeffs: dict) -> dict:
    """Spencer coboundary on one cochain.

    coeffs: {(ptuple, flat symbol coord position): value} for symbols of the
    given order; returns the same encoding with p+1 and order-1.
    """
    out: dict = {}
    lower_n = len(monomials(m, order - 1))
    for (ptuple, flat), val in coeffs.items():
        if val == 0:
            continue
        k, mono_pos_idx = divmod(flat, len(monomials(m, order)))
        for u in range(m):
            if u in ptuple:
                continue
            newp = tuple(sorted(ptuple + (u,)))
            t = newp.index(u)
            sign = (-1) ** t
            mono = monomials(m, order)[mono_pos_idx]
            # slice the symbol slot by e_u: pick entries whose monomial
            # contains u; as a basis action, the slice of a coordinate
            # function is a coordinate function one degree down
            down = list(mono)
            if u not in down:
                continue
            down.remove(u)
            pos = _mono_pos(m, order - 1)[tuple(down)]
            key = (newp, k * lower_n + pos)
            out[key] = out.get(key, Fraction(0)) + sign * val
    return out


def _cochain_vec(m: int, w: int, p: int, order: int, coeffs: dict) -> Vec:
    ptuples = list(combinations(range(m), p))
    nsym = symbol_coord_dim(m, w, order)
    vec = [Fraction(0)] * (len(ptuples) * nsym)
    pos = {t: i for i, t in enumerate(ptuples)}
    for (ptuple, flat), val in coeffs.items():
        vec[pos[ptuple] * nsym + flat] += val
    return tuple(vec)


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


def spencer_cohomology(a: SymbolSpace, p_max: int = 3,
                       q_max: int = 2) -> SpencerReport:
    """Cohomology of Lambda^p V* (x) a^{(q)} in a finite window.

    H^{p,q} is taken at C^{p,q} inside
    C^{p-1,q+1} -> C^{p,q} -> C^{p+1,q-1}; incoming images are computed in
    ambient symbol coordinates so no membership solves are needed.
    """
    if a.order != 1:
        raise ValidationError("spencer complex starts from order-1 symbols")
    m, w = a.v_dim, a.w_dim
    spaces = {0: a}
    for q in range(1, q_max + 2):
        spaces[q] = prolong(spaces[q - 1])

    def basis_cochains(p, q):
        out = []
        for ptuple in combinations(range(m), p):
            for b in spaces[q].basis:
                coeffs = {(ptuple, i): x for i, x in enumerate(b) if x != 0}
                out.append(coeffs)
        return out

    d2_ok = True
    c_dims = [[0] * (q_max + 1) for _ in range(p_max + 1)]
    h_dims = [[0] * (q_max + 1) for _ in range(p_max + 1)]
    from math import comb
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            c_dims[p][q] = comb(m, p) * spaces[q].dim

    for p in range(p_max + 1):
        for q in range(q_max + 1):
            dom = basis_cochains(p, q)
            if not dom:
                h_dims[p][q] = 0
                continue
            images = []
            for coeffs in dom:
                img = _apply_d(m, w, p, q + 1, coeffs)
                images.append(_cochain_vec(m, w, p + 1, q, img))
                if q >= 1:
                    img2 = _apply_d(m, w, p + 1, q, img)
                    if any(v != 0 for v in img2.values()):
                        d2_ok = False
            rank_out = linalg.rank([v for v in images if any(v)])
            kernel = len(dom) - rank_out
            rank_in = 0
            if p >= 1:
                incoming = basis_cochains(p - 1, q + 1)
                in_images = []
                for coeffs in incoming:
                    img = _apply_d(m, w, p - 1, q + 2, coeffs)
                    in_images.append(_cochain_vec(m, w, p, q + 1, img))
                rank_in = linalg.rank([v for v in in_images if any(v)])
            h_dims[p][q] = kernel - rank_in
            if h_dims[p][q] < 0:
                raise ConformanceMismatch("negative cohomology dimension")
    return SpencerReport(
        v_dim=m, w_dim=w, p_max=p_max, q_max=q_max,
        prolong_dims=tuple(spaces[q].dim for q in range(q_max + 2)),
        c_dims=tuple(tuple(r) for r in c_dims),
        h_dims=tuple(tuple(r) for r in h_dims),
        d_squared_zero=d2_ok)


@dataclass(frozen=True)
class InvolutivityVerdict:
    verdict: str
    basis: tuple | None
    cohomology_witness: tuple | None
    report: SpencerReport


def is_involutive(a: SymbolSpace, trials: int = 200,
                  seed=None) -> InvolutivityVerdict:
    """Two-route involutivity check: quasi-regular basis vs Spencer window.

    A basis certifies yes; a nonzero H^{p,q} with p > 0 certifies no; both at
    once would contradict the equivalence theorem and raises. If neither
    route produces a certificate the verdict is unknown (the window is
    finite and the basis search is randomized).
    """
    if a.v_dim > 4 or a.w_dim > 4:
        raise ValidationError("involutivity check limited to v,w <= 4")
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
