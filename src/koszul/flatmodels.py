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
multiplications R. Segal's criterion decides it in every dimension: the
algebra is complete exactly when every right multiplication R_{e_i} has
trace zero. An incomplete algebra gets a rational witness a_star with
det(R_{a_star} + I) = 0: in ambient dimension <= 2 the first rational zero
on a coordinate axis, where one lies there; else a_star = -e for a nonzero
idempotent e. No verdict is unknown.

A right ideal is simple when the largest two-sided ideal inside it, the
largest subspace of it that the left multiplications keep, is zero; it is
found by `spaces.largest_invariant` from the annihilator rows that the
right-ideal check solved for, as FE* is from its compatibility rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from koszul import linalg, spaces
from koszul.algebra import (BilinearProduct, SparseTable, associator_defect,
                            envelope)
from koszul.errors import (
    NotAssociative,
    NotRightIdeal,
    ValidationError,
)
from koszul.linalg import Vec

TOWER_LEVEL_CAP = 64
# affine:N has N^3 + N^2 table entries and matrix:N has N^3. Every query
# past check-lie's Jacobi envelope or the operator-defect envelope is
# refused above about 27,000 of them (affine:30, matrix:30); this bound
# sits above that and stops the cubic growth before the table is built.
TABLE_ENTRY_BOUND = 10 ** 5


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
    envelope("affine algebra table entries", m ** 3 + m ** 2,
             TABLE_ENTRY_BOUND)
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
    envelope("matrix algebra table entries", k ** 3, TABLE_ENTRY_BOUND)
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


def _right_traces(p: BilinearProduct) -> list[int]:
    """tr R_{e_j} for each j, over the table's common denominator.

    R_{e_j} sends e_i to e_i·e_j, so its diagonal holds the entries
    (e_i·e_j)_i.
    """
    traces = [0] * p.dim
    for i, j, k, c in p.sparse.nonzeros:
        if i == k:
            traces[j] += c
    return traces


def _idempotent_witness(p: BilinearProduct, x: Vec) -> Vec:
    """a_star = -e for a nonzero idempotent e built from a non-nilpotent x.

    The algebra x generates has dimension at most n, so by Fitting's lemma
    multiplication by x is invertible on its part spanned by x^{n+1}, ...,
    x^{2n}, which is nonzero as x is not nilpotent. That part is a unital
    algebra, and its unit e is the solution of e·y = y there, with
    y = x^{n+1}. Then e + e·(-e) = 0, so det(R_{-e} + I) = 0.
    """
    n = p.dim
    powers = [x]  # powers[k - 1] = x^k
    while len(powers) < 3 * n + 1:
        powers.append(p.mult(powers[-1], x))
    span, images = powers[n:2 * n], powers[2 * n + 1:]
    # e = sum_k c_k x^{n+k}, so e·y = sum_k c_k x^{2n+1+k}
    c = linalg.solve(linalg.transpose(images), powers[n])
    return tuple(-sum(ck * v[t] for ck, v in zip(c, span))
                 for t in range(n))


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


def _rational_zero(p: BilinearProduct) -> Vec | None:
    """First rational zero of q(s) = det(R_s + I) on a coordinate axis,
    else None.

    The smallest rational root on the first axis that has one is taken. No
    restriction is the zero polynomial, since q(0) = 1.
    """
    import sympy

    q, syms = _det_poly(p)
    for i, axis in enumerate(syms):
        restricted = q.subs({s: 0 for s in syms if s != axis})
        roots = sorted(r for r in sympy.roots(sympy.Poly(restricted, axis))
                       if r.is_Rational)
        if roots:
            return tuple(Fraction(roots[0].p, roots[0].q) if j == i
                         else Fraction(0) for j in range(len(syms)))
    return None


def geometric_completeness(p: BilinearProduct) -> CompletenessReport:
    """Decide whether all maps a -> a*a_star + a are injective.

    In an associative algebra R_x^k = R_{x^k}, so traces zero on a basis
    make every power of every R_x traceless, hence every R_x nilpotent and
    det(R + I) = 1 (Segal's criterion). Otherwise the witness for n <= 2
    is the first rational zero of det(R_s + I) on an axis
    (`_rational_zero`); where there is none, and for n >= 3, some e_i is
    not nilpotent and yields the idempotent witness.
    """
    _require_associative(p)
    n = p.dim
    if n == 0:
        return CompletenessReport("complete", None, "empty", "zero algebra")
    traces = _right_traces(p)
    if not any(traces):
        return CompletenessReport(
            "complete", None, "nilpotent",
            "right multiplications are jointly nilpotent, det(R+I) = 1")

    if n <= 2:
        witness = _rational_zero(p)
        if witness is not None:
            if _psi_det(p, witness) != 0:
                raise ValidationError("exact route produced a bad witness")
            return CompletenessReport("incomplete", witness, "exact-roots")

    i = next(i for i, t in enumerate(traces) if t)
    x = tuple(Fraction(1 if t == i else 0) for t in range(n))
    a_star = _idempotent_witness(p, x)
    if _psi_det(p, a_star) != 0:
        raise ValidationError("idempotent route produced a bad witness")
    return CompletenessReport("incomplete", a_star, "idempotent")


@dataclass(frozen=True)
class RightIdealReport:
    ambient_dim: int
    ideal_dim: int
    core_dim: int
    simple: bool
    core_basis: tuple[Vec, ...]


def simple_right_ideal_check(p: BilinearProduct, ideal_rows) -> RightIdealReport:
    """Verify a right ideal and test it for simplicity.

    I is a right ideal when its annihilator rows kill each x·e_j, x in its
    reduced row-echelon basis (`spaces.satisfies`); the first (s, j) that
    fails is named. The largest two-sided ideal of the algebra contained in
    I is the greatest fixed point of J -> {x in J : A*x and x*A lie in J};
    I is simple exactly when that core is zero. Each iterate J is a right
    ideal (J*A in J) when I is one and the product is associative: for x
    in the next iterate, x*a lies in J, and so do e*(x*a) = (e*x)*a, as e*x
    lies in J, and (x*a)*e = x*(a*e). So x*A in J always holds, and only
    the A*x condition is imposed: the core is `spaces.largest_invariant`
    of I's annihilator rows under the left multiplications, whose table is
    the product's own. It is reported by its reduced row-echelon basis.
    """
    _require_associative(p)
    n = p.dim
    if any(len(row) != n for row in ideal_rows):
        raise ValidationError("ideal vector has wrong length")
    rows = linalg.sparse_row_space(
        [linalg.integer_row(row)[0] for row in ideal_rows], n)[0]
    ann = linalg.sparse_nullspace(rows, n)[0]
    by_first = p.sparse.by_first
    for s, x in enumerate(rows):
        # j -> x·e_j, over the table's denominator
        right = spaces.accumulate((j, k, xi * c) for i, xi in x.items()
                                  for j, k, c in by_first.get(i, ()))
        for j in range(n):
            if not spaces.satisfies(ann, right.get(j, {})):
                raise NotRightIdeal(
                    f"basis element {s} times e_{j} leaves the span")
    core = spaces.largest_invariant(ann, p.sparse, n)[0]
    basis = linalg.vectors(*linalg.sparse_row_space(core, n), n)
    return RightIdealReport(ambient_dim=n, ideal_dim=len(rows),
                            core_dim=len(core), simple=not core,
                            core_basis=basis)
