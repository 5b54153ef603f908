"""Numerical invariants and existence verdicts built on max-rank search.

The paper-level minima over infinite families split into two parts here: the
direction ranging over a finite-dimensional solution space is exact (rank
maximization over an exactly computed basis), while searches over connections
or metrics are budgeted and can only return upper bounds with an `unknown`
verdict.

Rank maximization follows a fixed recipe: exhaustive small-coefficient grids
for spaces of dimension at most 3, otherwise 64 seeded rational samples
(generic rank is attained off a measure-zero set, so samples almost surely
realize it). Where a `no` verdict is emitted, it is backed by an exact
certificate: either a common kernel vector of the whole space or its generic
rank, the rank over the rational function field, which bounds every real
specialization. `generic_rank` proves that rank with exact rational ranks on
an integer grid sized by the matrix shape (see its docstring); a grid above
`GENERIC_RANK_POINTS` is not evaluated, and the verdict is `unknown`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from koszul import linalg, spaces
from koszul.algebra import BilinearProduct, LieAlgebra, SparseTable
from koszul.connections import (InvariantConnection, amari_dual,
                                cartan_connection, is_locally_flat,
                                is_torsion_free, torsion)
from koszul.errors import (NotFlat, NotTorsionFree, SingularMetric,
                           TorsionMismatch, ValidationError)
from koszul.forms import SKEW, SYMMETRIC, BilinearForm, parity_rows
from koszul.gauge import phi_split, solve_fe_star, solve_gauge_equation
from koszul.linalg import Mat
from koszul.spaces import LinearSolutionSpace

DEFAULT_SEED = 7
GRID_LIMIT = 3
SAMPLE_COUNT = 64
# Bound on the grid `generic_rank` evaluates, (min(shape) + 1)^(dim - 1)
# points. The largest grids in use have 16 points in the tests (dim 3 on
# 3 x 3) and 4 in the benchmark (dim 2 on 3 x 3). One grid point of a 3 x 3
# to 6 x 6 pencil (an integer combination and one exact rank) takes about
# 25-100 us on a shared 2-vCPU host, so a grid at the bound finishes in
# under half a second (a 7 x 7 pencil in 0.5-0.9 s).
GENERIC_RANK_POINTS = 4096


def resolve_seed(seed=None) -> int:
    if seed is not None:
        return int(seed)
    return int(os.environ.get("KOSZUL_SEED", DEFAULT_SEED))


def _random_coeff(rng: random.Random) -> Fraction:
    q = rng.randint(1, 16)
    return Fraction(rng.randint(-10 * q, 10 * q), q)


@dataclass(frozen=True)
class RankWitness:
    max_rank: int
    coefficients: tuple
    element: Mat
    method: str
    positive_definite: bool | None = None
    note: str = ""

    def __post_init__(self):
        if linalg.rank(self.element) != self.max_rank:
            raise ValidationError("witness element does not realize max_rank")


def _combine(space: LinearSolutionSpace, coeffs) -> Mat:
    nr, nc = space.shape
    return linalg.unflatten(space.element(coeffs), nr, nc)


def max_rank(space: LinearSolutionSpace, constraint: str = "none",
             seed=None) -> RankWitness:
    """Generic rank over the span; optionally search for a definite element.

    constraint "positive_definite": positive_definite is True when a grid or
    sample point passes the exact Sylvester test, None when none was found
    (absence is not certified by search).
    """
    if space.shape is None or len(space.shape) != 2:
        raise ValidationError("max_rank needs matrix-shaped elements")
    d = space.dim
    nr, nc = space.shape
    if d == 0:
        z = linalg.zeros(nr, nc)
        pd = False if constraint == "positive_definite" else None
        return RankWitness(0, (), z, "exhaustive", positive_definite=pd)

    if d <= GRID_LIMIT:
        pool = [tuple(Fraction(x) for x in pt)
                for pt in iproduct((-2, -1, 0, 1, 2), repeat=d)]
        method = "exhaustive"
    else:
        rng = random.Random(resolve_seed(seed))
        pool = [tuple(_random_coeff(rng) for _ in range(d))
                for _ in range(SAMPLE_COUNT)]
        method = f"randomized({SAMPLE_COUNT})"

    best_rank, best_coeffs, best_el = -1, None, None
    pd_coeffs, pd_el = None, None
    for coeffs in pool:
        el = _combine(space, coeffs)
        r = linalg.rank(el)
        if r > best_rank:
            best_rank, best_coeffs, best_el = r, coeffs, el
        definite_pending = (constraint == "positive_definite"
                            and pd_el is None and nr == nc)
        if (definite_pending and el == linalg.transpose(el)
                and linalg.is_positive_definite(el)):
            pd_coeffs, pd_el = coeffs, el
            definite_pending = False
        # both results keep their first-found element, so once the rank
        # is full and no definite element is sought, neither can change
        if best_rank == min(nr, nc) and not definite_pending:
            break
    note = ("" if method == "exhaustive" else
            "rank from seeded samples; generic rank is attained off a "
            "measure-zero set")
    if constraint == "positive_definite":
        if pd_el is not None:
            return RankWitness(linalg.rank(pd_el), pd_coeffs, pd_el, method,
                               positive_definite=True, note=note)
        return RankWitness(best_rank, best_coeffs, best_el, method,
                           positive_definite=None, note=note)
    return RankWitness(best_rank, best_coeffs, best_el, method, note=note)


def generic_rank(space: LinearSolutionSpace) -> int | None:
    """Rank of sum_s t_s B_s over the rational function field Q(t), or None
    when its certifying grid has more than GENERIC_RANK_POINTS points.

    The rank equals the maximum rank over all real (or rational) coefficient
    choices, so `generic_rank < full` certifies that every element of the
    span is singular.

    Proof of the computation. Let k = dim and d = min(shape). Every minor of
    sum_s t_s B_s is homogeneous in t, so it vanishes identically exactly when
    its value at t_1 = 1 does: the rank over Q(t) is the rank over Q(u) of
    B_1 + sum_{s>=2} u_s B_s. Let r* be the largest exact rank of that pencil
    over the grid {0, ..., d}^(k-1). No specialization exceeds the generic
    rank, so r* <= generic rank. If r* < d, every (r*+1)-minor has degree at
    most r*+1 <= d in each u_s and vanishes on a grid with d+1 points per
    axis, so it is the zero polynomial (Alon, Combinatorial Nullstellensatz,
    1999, Lemma 2.1); hence r* is the generic rank. The walk stops at the
    first point of rank d. The basis is scaled to integers first: scaling
    B_s by c != 0 is the substitution t_s -> c t_s, which keeps the rank.
    """
    k = space.dim
    if k == 0:
        return 0
    if _grid_points(space) > GENERIC_RANK_POINTS:
        return None
    nr, nc = space.shape
    d = min(nr, nc)
    cells = tuple(zip(*linalg.integer_rows(space.basis)[0]))
    best = 0
    for u in iproduct(range(d + 1), repeat=k - 1):
        coeffs = (1, *u)
        flat = [sum(c * x for c, x in zip(coeffs, cell)) for cell in cells]
        best = max(best, linalg.rank(linalg.unflatten(flat, nr, nc)))
        if best == d:
            break
    return best


def _grid_points(space: LinearSolutionSpace) -> int:
    """Points of the grid `generic_rank` evaluates on a space of dim >= 1."""
    return (min(space.shape) + 1) ** (space.dim - 1)


def common_kernel(space: LinearSolutionSpace) -> tuple:
    """Basis of vectors annihilated by every element of the span."""
    rows = [row for b in space.matrices() for row in b]
    return linalg.nullspace(rows, ncols=space.shape[1])


@dataclass(frozen=True)
class ExistenceVerdict:
    exists: str
    invariant_value: int | None = None
    witness: object = None
    certificate: str | None = None
    notes: str = ""

    def __post_init__(self):
        if self.exists not in ("yes", "no", "unknown"):
            raise ValidationError(f"bad verdict {self.exists!r}")


def r_b_defect(conn: InvariantConnection) -> int:
    """dim minus the dimension of the value-slot projection of the FE* space."""
    return conn.dim - solve_fe_star(conn).r_b


def _no_or_unknown(space, m, value, notes=""):
    """Shared ending for rank-based verdicts: certify no, or admit unknown."""
    ck = common_kernel(space)
    if ck:
        vec = "[" + ", ".join(str(x) for x in ck[0]) + "]"
        return ExistenceVerdict(
            "no", invariant_value=value, certificate=(
                f"every element of the solution space annihilates "
                f"the vector {vec}"), notes=notes)
    r = generic_rank(space)
    if r is None:
        bound = (f"generic rank not certified: its grid has "
                 f"{_grid_points(space)} points, above the bound of "
                 f"{GENERIC_RANK_POINTS}")
        return ExistenceVerdict("unknown", invariant_value=value,
                                notes="; ".join(filter(None, (notes, bound))))
    if r < m:
        return ExistenceVerdict(
            "no", invariant_value=value,
            certificate="solution space has generic rank below the dimension",
            notes=notes)
    return ExistenceVerdict("unknown", invariant_value=value, notes=notes)


def _space_from_matrices(mats, m: int) -> LinearSolutionSpace:
    flat = [linalg.flatten(b) for b in mats]
    basis = linalg.row_space_basis(flat)
    return LinearSolutionSpace(ambient_dim=m * m, basis=basis, shape=(m, m))


def hessian_cocycle_space(conn: InvariantConnection) -> LinearSolutionSpace:
    """Symmetric forms with g(nabla_{e_i} e_k, e_j) antisymmetrized in (i,j).

    Conditions, over i<j and all k:
    −g([e_i,e_j],e_k) − g(e_j, nabla_{e_i}e_k) + g(e_i, nabla_{e_j}e_k) = 0.
    Requires a flat connection.
    """
    flat, why = is_locally_flat(conn)
    if not flat:
        raise NotFlat(why)
    m = conn.dim
    rows = _hessian_rows(conn) + parity_rows(m, SYMMETRIC)
    return spaces.from_conditions(rows, m * m, shape=(m, m))


def _hessian_rows(conn: InvariantConnection):
    m = conn.dim
    c, gam = conn.base.sparse, conn.gamma.sparse
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                row = [Fraction(0)] * (m * m)
                for l, n in c.by_pair.get((i, j), ()):
                    row[l * m + k] -= Fraction(n, c.den)
                for l, n in gam.by_pair.get((i, k), ()):
                    row[j * m + l] -= Fraction(n, gam.den)
                for l, n in gam.by_pair.get((j, k), ()):
                    row[i * m + l] += Fraction(n, gam.den)
                if any(row):
                    rows.append(row)
    return rows


def _check_rows(rows, flatvec) -> bool:
    return all(sum(a * x for a, x in zip(row, flatvec)) == 0 for row in rows)


def hessian_defect(conn: InvariantConnection, seed=None
                   ) -> tuple[int, ExistenceVerdict]:
    """dim minus the maximal rank over the cocycle space of a flat connection."""
    space = hessian_cocycle_space(conn)
    m = conn.dim
    rw = max_rank(space, seed=seed)
    defect = m - rw.max_rank
    if defect == 0:
        # re-validate: the witness is symmetric, nondegenerate, and lies in
        # the space (membership re-checked via containment)
        if not space.contains(linalg.flatten(rw.element)):
            raise ValidationError("hessian witness escaped its space")
        witness = BilinearForm(m, rw.element, SYMMETRIC)
        return 0, ExistenceVerdict("yes", invariant_value=0, witness=witness)
    return defect, _no_or_unknown(space, m, defect)


def flat_existence(L: LieAlgebra, candidates, budget: int = 64,
                   seed=None) -> ExistenceVerdict:
    """Search for a flat torsion-free connection on L.

    Candidates are checked exactly; a certified `no` is attempted only for
    dim <= 2 (parametric polynomial solve); otherwise the verdict is `unknown`
    with the best defect found as an upper-bound note.
    """
    m = L.dim
    best = None
    for cand in candidates:
        conn = InvariantConnection(L, cand.gamma) \
            if isinstance(cand, InvariantConnection) else InvariantConnection(L, cand)
        if not torsion(conn).is_zero():
            raise TorsionMismatch(
                "candidate's commutator does not match the bracket")
        flat, _ = is_locally_flat(conn)
        if flat:
            return ExistenceVerdict("yes", invariant_value=0, witness=conn)
        d = r_b_defect(conn)
        best = d if best is None else min(best, d)

    rng = random.Random(resolve_seed(seed))
    half = cartan_connection(L, "zero")  # canonical torsion-free probe
    probes = [half.gamma] + [_random_torsion_free_table(L, rng)
                             for _ in range(max(0, budget))]
    for gam in probes:
        conn = InvariantConnection(L, gam)
        flat, _ = is_locally_flat(conn)
        if flat:
            return ExistenceVerdict("yes", invariant_value=0, witness=conn)
        d = r_b_defect(conn)
        best = d if best is None else min(best, d)

    if m <= 2:
        verdict = _flat_existence_exact_small(L)
        if verdict is not None:
            return verdict
    note = "" if best is None else f"best defect over tried connections: {best}"
    return ExistenceVerdict("unknown", invariant_value=best, notes=note)


def _random_torsion_free_table(L: LieAlgebra, rng: random.Random):
    m = L.dim
    table = {}
    for i in range(m):
        for j in range(i, m):
            for k in range(m):
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                table[i, j, k] = table[j, i, k] = v
    for i, j, k, v in L.sparse.items():
        table[i, j, k] += v / 2
    return BilinearProduct(
        m, SparseTable((*idx, v) for idx, v in table.items()))


def _flat_existence_exact_small(L: LieAlgebra) -> ExistenceVerdict | None:
    """Exact decision for dim <= 2 via a polynomial system on the symbols."""
    import sympy

    m = L.dim
    if m == 0:
        from koszul.algebra import zero_product
        return ExistenceVerdict("yes", invariant_value=0,
                                witness=InvariantConnection(L, zero_product(0)))
    c = {(i, j, k): v for i, j, k, v in L.sparse.items()}
    syms = {}
    for i in range(m):
        for j in range(i, m):
            for k in range(m):
                syms[(i, j, k)] = sympy.Symbol(f"s_{i}_{j}_{k}")

    def gamma(i, j, k):
        half = sympy.Rational(c.get((i, j, k), 0), 1) / 2
        key = (i, j, k) if i <= j else (j, i, k)
        return half + syms[key]

    eqs = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    # R(e_i,e_j)e_k, coefficient of e_l
                    expr = sympy.Integer(0)
                    for a in range(m):
                        expr += gamma(j, k, a) * gamma(i, a, l)
                        expr -= gamma(i, k, a) * gamma(j, a, l)
                        expr -= (sympy.Rational(c.get((i, j, a), 0), 1)
                                 * gamma(a, k, l))
                    eqs.append(sympy.expand(expr))
    eqs = [e for e in eqs if e != 0]
    variables = list(syms.values())
    if not eqs:
        sol = {v: sympy.Integer(0) for v in variables}
    else:
        gb = sympy.groebner(eqs, *variables, order="grevlex")
        if list(gb.exprs) == [sympy.Integer(1)]:
            return ExistenceVerdict(
                "no", certificate="flatness equations are unsolvable "
                "(Groebner basis is the unit ideal)")
        sols = sympy.solve(eqs, variables, dict=True)
        sol = None
        pins = [sympy.Integer(0), sympy.Integer(1), sympy.Integer(-1),
                sympy.Rational(1, 2)]
        for cand in sols:
            full = {v: cand.get(v, v) for v in variables}
            free = sorted({s for val in full.values()
                           for s in val.free_symbols}, key=str)
            # parametric branch: pin leftover parameters on a small grid
            for pin in ([{}] if not free else
                        [dict(zip(free, combo)) for combo in
                         iproduct(pins, repeat=len(free))]):
                trial = {v: val.subs(pin) for v, val in full.items()}
                if all(val.free_symbols == set() and val.is_rational
                       for val in trial.values()):
                    if all(e.subs(trial) == 0 for e in eqs):
                        sol = trial
                        break
            if sol is not None:
                break
        if sol is None:
            return None
    table = SparseTable(
        (i, j, k, Fraction(c.get((i, j, k), 0), 2)
         + Fraction(str(sol[syms[(min(i, j), max(i, j), k)]])))
        for i in range(m) for j in range(m) for k in range(m))
    conn = InvariantConnection(L, BilinearProduct(m, table))
    flat, _ = is_locally_flat(conn)
    if not flat:
        return None
    return ExistenceVerdict("yes", invariant_value=0, witness=conn)


def _phi_parts_space(conn: InvariantConnection, g: BilinearForm,
                     part: str) -> LinearSolutionSpace:
    dual = amari_dual(conn, g)
    sols = solve_gauge_equation(conn, dual)
    parts = []
    for phi in sols.matrices():
        pair = phi_split(phi, g)
        parts.append(pair.phi_sym if part == "sym" else pair.phi_skew)
    return _space_from_matrices(parts, conn.dim)


def s_b(L: LieAlgebra, g: BilinearForm, positive: bool = False,
        seed=None) -> tuple[int, ExistenceVerdict]:
    """Metric gap: dim minus the best rank of symmetric gauge parts.

    Built from the pair (plus-connection, its metric dual); the resulting
    forms g(Phi·,·) are exactly the ad-invariant symmetric forms, so the value
    is independent of the auxiliary metric g.
    """
    if g.sym != SYMMETRIC:
        raise SingularMetric("auxiliary metric must be symmetric")
    if not g.is_nondegenerate:
        raise SingularMetric(f"auxiliary metric has rank {g.rank} < {g.dim}")
    m = L.dim
    plus = cartan_connection(L, "plus")
    space = _phi_parts_space(plus, g, "sym")
    constraint = "positive_definite" if positive else "none"
    rw = max_rank(space, constraint=constraint, seed=seed)
    gap = m - rw.max_rank

    gm = g.matrix
    if positive:
        if rw.positive_definite:
            bw = linalg.mat_mul(gm, rw.element)
            witness = BilinearForm(m, bw, SYMMETRIC)
            _validate_ad_invariant(L, witness)
            if not witness.is_positive_definite():
                raise ValidationError("positive witness failed revalidation")
            return gap, ExistenceVerdict("yes", invariant_value=gap,
                                         witness=witness)
        return gap, _no_or_unknown(space, m, gap,
                                   notes="no positive definite sample found")
    if gap == 0:
        bw = linalg.mat_mul(gm, rw.element)
        witness = BilinearForm(m, bw, SYMMETRIC)
        _validate_ad_invariant(L, witness)
        if not witness.is_nondegenerate:
            raise ValidationError("witness form failed revalidation")
        return 0, ExistenceVerdict("yes", invariant_value=0, witness=witness)
    return gap, _no_or_unknown(space, m, gap)


def _ad_invariance_rows(L: LieAlgebra):
    m = L.dim
    rows = []
    c = L.sparse
    for i in range(m):
        for j in range(m):
            for k in range(m):
                row = [Fraction(0)] * (m * m)
                for l, n in c.by_pair.get((i, j), ()):
                    row[l * m + k] += Fraction(n, c.den)
                for l, n in c.by_pair.get((i, k), ()):
                    row[j * m + l] += Fraction(n, c.den)
                if any(row):
                    rows.append(row)
    return rows


def _skew_cocycle_rows(L: LieAlgebra):
    m = L.dim
    c = L.sparse
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                row = [Fraction(0)] * (m * m)
                for a, b, col in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, n in c.by_pair.get((a, b), ()):
                        row[l * m + col] += Fraction(n, c.den)
                if any(row):
                    rows.append(row)
    return rows


def _validate_ad_invariant(L: LieAlgebra, b: BilinearForm):
    flat = linalg.flatten(b.matrix)
    if not _check_rows(_ad_invariance_rows(L), flat):
        raise ValidationError("witness form is not ad-invariant")


def bi_invariant_metric(L: LieAlgebra, seed=None) -> ExistenceVerdict:
    """Direct route: nondegenerate ad-invariant symmetric forms.

    Independent of the gauge-equation route used by s_b; the two are
    cross-checked in tests and in the acceptance suite.
    """
    m = L.dim
    rows = _ad_invariance_rows(L) + parity_rows(m, SYMMETRIC)
    space = spaces.from_conditions(rows, m * m, shape=(m, m))
    rw = max_rank(space, constraint="positive_definite", seed=seed)
    gap = m - rw.max_rank
    if rw.max_rank == m:
        witness = BilinearForm(m, rw.element, SYMMETRIC)
        _validate_ad_invariant(L, witness)
        notes = ("witness is positive definite"
                 if rw.positive_definite else
                 "witness is nondegenerate; definiteness not certified")
        return ExistenceVerdict("yes", invariant_value=0, witness=witness,
                                notes=notes)
    return _no_or_unknown(space, m, gap)


def s_star_b(conn: InvariantConnection, g: BilinearForm,
             require_torsion_free: bool = True, seed=None
             ) -> tuple[int, ExistenceVerdict]:
    """Symplectic gap: dim minus the best rank of skew gauge parts.

    By the bridge b = g(phi·,·), the skew parts sweep exactly the
    nabla-parallel skew forms. The torsion-free precondition can be waived
    (require_torsion_free=False) to probe connections with torsion, e.g. the
    bracket connection on a semisimple algebra; the geometric symplectic
    interpretation is only backed by the torsion-free case.
    """
    if g.sym != SYMMETRIC:
        raise SingularMetric("auxiliary metric must be symmetric")
    if not g.is_nondegenerate:
        raise SingularMetric(f"auxiliary metric has rank {g.rank} < {g.dim}")
    if require_torsion_free and not is_torsion_free(conn):
        hit = torsion(conn).first_nonzero()
        raise NotTorsionFree(f"torsion does not vanish (witness {hit[0][:3]})")
    m = conn.dim
    space = _phi_parts_space(conn, g, "skew")
    rw = max_rank(space, seed=seed)
    gap = m - rw.max_rank
    if gap == 0:
        omega = linalg.mat_mul(g.matrix, rw.element)
        witness = BilinearForm(m, omega, SKEW)
        for gi in conn.matrices:
            lhs = linalg.mat_add(
                linalg.mat_mul(linalg.transpose(gi), omega),
                linalg.mat_mul(omega, gi))
            if not linalg.is_zero_matrix(lhs):
                raise ValidationError("symplectic witness is not parallel")
        if not witness.is_nondegenerate:
            raise ValidationError("symplectic witness is degenerate")
        return 0, ExistenceVerdict("yes", invariant_value=0, witness=witness)
    return gap, _no_or_unknown(space, m, gap)


def left_symplectic_oracle(L: LieAlgebra, seed=None) -> ExistenceVerdict:
    """Independent route: nondegenerate skew 2-cocycles of the bracket."""
    m = L.dim
    rows = _skew_cocycle_rows(L) + parity_rows(m, SKEW)
    space = spaces.from_conditions(rows, m * m, shape=(m, m))
    if m % 2 == 1:
        return ExistenceVerdict(
            "no", invariant_value=m - max_rank(space, seed=seed).max_rank,
            certificate="skew forms in odd dimension are singular")
    rw = max_rank(space, seed=seed)
    if rw.max_rank == m:
        witness = BilinearForm(m, rw.element, SKEW)
        if not _check_rows(rows, linalg.flatten(rw.element)):
            raise ValidationError("symplectic cocycle witness failed recheck")
        return ExistenceVerdict("yes", invariant_value=0, witness=witness)
    return _no_or_unknown(space, m, m - rw.max_rank)
