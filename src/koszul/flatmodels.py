"""Closed-form flat models: affine algebras, the dimension tower,
geometric completeness, and simple right ideals.

The affine algebra on pairs (A, a) of an m x m matrix and an m-vector
carries the product (A,a)*(B,b) = (BA, Ba). It is associative, its
commutator is the affine Lie algebra gl(m) + R^m, and it is the model for
the solution algebra of a complete flat structure. Basis order: matrix
units E_pq row-major (index p*m + q), then the translation part (index
m*m + t).

Geometric completeness asks whether every map a -> a*a_star + a is
injective, i.e. whether det(R + I) is zero-free over all right
multiplications R. That is a real root-freeness question, so the verdict
ladder is: exact joint-nilpotency certificate, exact root analysis in
ambient dimension <= 2, witness sampling (which can only certify
incompleteness), and finally unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import random

from koszul import linalg
from koszul.algebra import BilinearProduct, SparseTable, associator_defect
from koszul.errors import (
    NotAssociative,
    NotRightIdeal,
    ValidationError,
)
from koszul.linalg import Mat, Vec
from koszul.spaces import LinearSolutionSpace

TOWER_LEVEL_CAP = 64


@dataclass(frozen=True)
class AffineAlgebra:
    """The associative algebra of affine maps x -> Ax + a in dimension m."""

    m: int
    product: BilinearProduct

    @property
    def dim(self) -> int:
        return self.m * self.m + self.m

    def matrix_index(self, p: int, q: int) -> int:
        return p * self.m + q

    def vector_index(self, t: int) -> int:
        return self.m * self.m + t


def affine_algebra(m: int) -> AffineAlgebra:
    if m < 0:
        raise ValidationError("model dimension must be >= 0")
    n = m * m + m
    # (E_pq, 0)*(E_rs, 0) = (E_rs E_pq, 0) = [s == p] (E_rq, 0)
    units = [(p * m + q, r * m + p, r * m + q, 1)
             for p in range(m) for q in range(m) for r in range(m)]
    # (0, e_t)*(E_rs, 0) = (0, E_rs e_t) = [s == t] (0, e_r)
    translations = [(m * m + t, r * m + t, m * m + r, 1)
                    for t in range(m) for r in range(m)]
    # (A, a)*(0, b) = (0, 0): nothing to add
    return AffineAlgebra(m, BilinearProduct(
        n, SparseTable(units + translations)))


def matrix_algebra(k: int) -> BilinearProduct:
    """Full k x k matrix algebra on units E_pq, row-major indexing."""
    if k < 0:
        raise ValidationError("matrix size must be >= 0")
    return BilinearProduct(k * k, SparseTable(
        (p * k + q, q * k + s, p * k + s, 1)
        for p in range(k) for q in range(k) for s in range(k)))


@dataclass(frozen=True)
class TowerReport:
    base_dim: int
    dims: tuple[int, ...]
    levels: tuple[AffineAlgebra | None, ...]


def tower_dims(m: int, steps: int) -> TowerReport:
    """Dimensions d_{t+1} = d_t^2 + d_t of the iterated affine model.

    Level t >= 1 is the affine algebra on d_{t-1}, materialized while its
    dimension stays within TOWER_LEVEL_CAP; larger levels are reported by
    dimension only.
    """
    if m < 0:
        raise ValidationError("base dimension must be >= 0")
    if not 0 <= steps <= 3:
        raise ValidationError("steps must be between 0 and 3")
    dims = [m]
    levels: list[AffineAlgebra | None] = []
    for _ in range(steps):
        d = dims[-1]
        dims.append(d * d + d)
        levels.append(affine_algebra(d) if dims[-1] <= TOWER_LEVEL_CAP
                      else None)
    return TowerReport(m, tuple(dims), tuple(levels))


@dataclass(frozen=True)
class CompletenessReport:
    verdict: str
    witness: Vec | None
    method: str
    note: str = ""

    def __post_init__(self):
        if self.verdict not in ("complete", "incomplete", "unknown"):
            raise ValidationError("unrecognized completeness verdict")
        if self.verdict == "complete" and self.witness is not None:
            raise ValidationError("complete verdict cannot carry a witness")


def _require_associative(p: BilinearProduct):
    d = associator_defect(p)
    if not d.is_zero():
        raise NotAssociative(
            f"product is not associative; first defect at {d.first_nonzero()}")


def _jointly_nilpotent(ops: tuple[Mat, ...], n: int) -> bool:
    """Flag chain U <- sum_i R_i(U) reaches 0.

    Joint nilpotency makes every linear combination of the operators
    nilpotent, hence det(R + I) = 1 identically.
    """
    space: tuple[Vec, ...] = linalg.identity(n)
    for _ in range(n + 1):
        if not space:
            return True
        images = [linalg.mat_vec(op, v) for op in ops for v in space]
        images = [v for v in images if any(v)]
        nxt = linalg.row_space_basis(images)
        if len(nxt) >= len(space):
            return False
        space = nxt
    return not space


def _psi_det(p: BilinearProduct, a_star: Vec) -> Fraction:
    n = p.dim
    mat = linalg.mat_add(p.right_matrix(a_star), linalg.identity(n))
    return linalg.det(mat)


def _det_poly(p: BilinearProduct):
    import sympy

    n = p.dim
    syms = sympy.symbols(f"s0:{n}")
    rights = [p.right_matrix(
        tuple(Fraction(1 if t == i else 0) for t in range(n)))
        for i in range(n)]
    entries = [[sympy.Integer(1 if r == c else 0)
                + sum(sympy.Rational(rights[i][r][c]) * syms[i]
                      for i in range(n))
                for c in range(n)] for r in range(n)]
    return sympy.expand(sympy.Matrix(entries).det()), syms


def _rational_roots(poly) -> list:
    import sympy

    if poly.is_zero or poly.degree() <= 0:
        return []
    return sorted(r for r in sympy.roots(poly).keys() if r.is_Rational)


def _rational_zero_search(q, syms) -> Vec | None:
    """Small exact search for a rational zero of q; None if not found."""
    import sympy

    candidates = []
    for i, s in enumerate(syms):
        restricted = q.subs({t: 0 for j, t in enumerate(syms) if j != i})
        poly = sympy.Poly(restricted, s)
        if poly.is_zero:
            candidates.append(tuple(
                Fraction(1) if j == i else Fraction(0)
                for j in range(len(syms))))
            continue
        for root in _rational_roots(poly):
            candidates.append(tuple(
                Fraction(root.p, root.q) if j == i else Fraction(0)
                for j in range(len(syms))))
    grid = [Fraction(k, 2) for k in range(-8, 9)]
    if len(syms) == 2:
        s0, s1 = syms
        for x in grid:
            restricted = sympy.Poly(q.subs(s0, sympy.Rational(x)), s1)
            if restricted.is_zero:
                candidates.append((Fraction(x), Fraction(0)))
                continue
            for root in _rational_roots(restricted):
                candidates.append((Fraction(x), Fraction(root.p, root.q)))
    for cand in candidates:
        if q.subs({s: sympy.Rational(c) for s, c in zip(syms, cand)}) == 0:
            return cand
    return None


def _exact_small_dim(p: BilinearProduct):
    """Exact completeness decision for ambient dimension <= 2.

    Returns (verdict, witness, note). The determinant of psi is a
    polynomial q with q(0) = 1, so incompleteness is exactly the existence
    of a real zero of q.
    """
    import sympy

    n = p.dim
    q, syms = _det_poly(p)
    if n == 1:
        poly = sympy.Poly(q, syms[0])
        if poly.degree() <= 0:
            return "complete", None, "determinant is constant 1"
        root = _rational_roots(poly)
        if root:
            r = root[0]
            return "incomplete", (Fraction(r.p, r.q),), ""
        if sympy.real_roots(poly):
            return "incomplete", None, "real but irrational determinant zero"
        return "complete", None, "determinant has no real zeros"

    s0, s1 = syms
    poly1 = sympy.Poly(q, s1)
    coeffs = {d: c for (d,), c in poly1.terms()}
    a = sympy.expand(coeffs.get(2, sympy.Integer(0)))
    b = sympy.expand(coeffs.get(1, sympy.Integer(0)))
    c = sympy.expand(coeffs.get(0, sympy.Integer(0)))

    def wrap(verdict, witness=None, note=""):
        if witness is None and verdict == "incomplete":
            witness = _rational_zero_search(q, syms)
            if witness is None:
                note = (note + "; " if note else "") + \
                    "zero exists but is irrational"
        return verdict, witness, note

    if a == 0 and b == 0:
        polyc = sympy.Poly(c, s0)
        if polyc.degree() <= 0:
            return "complete", None, "determinant is constant 1"
        if sympy.real_roots(polyc):
            return wrap("incomplete")
        return "complete", None, "determinant has no real zeros"
    if a == 0:
        # linear in s1 with nonconstant slope somewhere: pick s0 off the
        # root set of b and solve
        return wrap("incomplete")
    disc = sympy.expand(b * b - 4 * a * c)
    polyd = sympy.Poly(disc, s0)
    if polyd.is_zero:
        return wrap("incomplete", note="discriminant vanishes identically")
    droots = sympy.real_roots(polyd)
    if not droots and polyd.eval(0) < 0:
        # disc < 0 on all of R; any real root of a would force
        # disc = b^2 >= 0 there, so a is also zero-free and q never vanishes
        return "complete", None, "negative discriminant for every s0"
    lead = polyd.LC()
    if polyd.degree() % 2 == 1 or lead > 0:
        return wrap("incomplete")
    distinct = sorted(set(droots))
    if len(distinct) >= 2:
        return wrap("incomplete")
    rho = distinct[0]
    polya = sympy.Poly(a, s0)
    if polya.eval(rho) != 0:
        return wrap("incomplete")
    # a(rho) = 0 forces b(rho) = 0 via disc(rho) = 0; constant slice c decides
    if sympy.Poly(c, s0).eval(rho) == 0:
        return wrap("incomplete")
    return "complete", None, \
        "single isolated discriminant zero with nonvanishing constant term"


def geometric_completeness(p: BilinearProduct, budget: int = 256,
                           seed=None) -> CompletenessReport:
    """Decide whether all maps a -> a*a_star + a are injective."""
    _require_associative(p)
    n = p.dim
    if n == 0:
        return CompletenessReport("complete", None, "empty", "zero algebra")
    rights = tuple(p.right_matrix(
        tuple(Fraction(1 if t == i else 0) for t in range(n)))
        for i in range(n))
    if _jointly_nilpotent(rights, n):
        return CompletenessReport(
            "complete", None, "nilpotent",
            "right multiplications are jointly nilpotent, det(R+I) = 1")

    if n <= 2:
        verdict, witness, note = _exact_small_dim(p)
        if verdict == "incomplete" and witness is not None:
            if _psi_det(p, witness) != 0:
                raise ValidationError("exact route produced a bad witness")
        return CompletenessReport(verdict, witness, "exact-roots", note)

    from koszul.invariants import resolve_seed
    probes = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        probes.append(tuple(e))
        probes.append(tuple(-x for x in e))
    for i in range(n):
        for j in range(i + 1, n):
            e = [Fraction(0)] * n
            e[i] = e[j] = Fraction(1)
            probes.append(tuple(e))
            probes.append(tuple(-x for x in e))
    rng = random.Random(resolve_seed(seed))
    for _ in range(max(0, budget - len(probes))):
        probes.append(tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                            for _ in range(n)))
    for a_star in probes:
        if _psi_det(p, a_star) == 0:
            return CompletenessReport("incomplete", a_star, "sampling", "")
    return CompletenessReport(
        "unknown", None, "sampling",
        f"no determinant zero among {len(probes)} samples; "
        "completeness not certified")


@dataclass(frozen=True)
class RightIdealReport:
    ambient_dim: int
    ideal_dim: int
    core_dim: int
    simple: bool
    core_basis: tuple[Vec, ...]


def simple_right_ideal_check(p: BilinearProduct, ideal_rows) -> RightIdealReport:
    """Verify a right ideal and test it for simplicity.

    The largest two-sided ideal of the algebra contained in I is the
    greatest fixed point of J -> {x in J : A*x and x*A lie in J}; I is
    simple exactly when that core is zero. Each iterate J is a right ideal
    (J*A in J) when I is one and the product is associative: for x in the
    next iterate, x*a lies in J, and so do e*(x*a) = (e*x)*a, as e*x lies
    in J, and (x*a)*e = x*(a*e). So x*A in J always holds, and only the A*x
    condition is imposed.
    """
    _require_associative(p)
    n = p.dim
    basis = tuple(tuple(linalg.frac(x) for x in row) for row in ideal_rows)
    for v in basis:
        if len(v) != n:
            raise ValidationError("ideal vector has wrong length")
    basis = linalg.row_space_basis(basis)
    units = linalg.identity(n)
    span = LinearSolutionSpace(ambient_dim=n, basis=basis)
    for s, x in enumerate(basis):
        for j, e in enumerate(units):
            if not span.contains(p.mult(x, e)):
                raise NotRightIdeal(
                    f"basis element {s} times e_{j} leaves the span")

    core = basis
    while core:
        ann = linalg.nullspace(core, ncols=n)
        if not ann:
            break
        d = len(core)
        # e·b for each unit e, computed once for every lam; the rows for
        # b·e would be zero, as core·A lies in core (see above)
        sides = [[p.mult(e, bvec) for bvec in core] for e in units]
        rows = [[sum(lam[t] * y[t] for t in range(n)) for y in side]
                for lam in ann for side in sides]
        coords = linalg.nullspace(rows, ncols=d)
        nxt = tuple(
            tuple(sum(t[s] * core[s][u] for s in range(d)) for u in range(n))
            for t in coords)
        if len(nxt) == len(core):
            break
        core = nxt
    return RightIdealReport(
        ambient_dim=n,
        ideal_dim=len(basis),
        core_dim=len(core),
        simple=len(core) == 0,
        core_basis=core)
