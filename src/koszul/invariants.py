"""Numerical invariants and existence verdicts built on max-rank search.

The paper-level minima over infinite families split into two parts here: the
direction ranging over a finite-dimensional solution space is exact (rank
maximization over an exactly computed basis), while a minimum over
connections or metrics is read only on the ones at hand (the caller's and
the canonical ones) and can only return an upper bound with an `unknown`
verdict. Nothing here draws a random number.

Rank maximization is one seed-free walk of an integer grid (`max_rank`),
which certifies the generic rank up to `GENERIC_RANK_POINTS` points. A
`no` verdict is backed by an exact certificate: a common kernel vector of
the whole space, that generic rank, or, for the bi-invariant metric, a
nonzero trace tr ad(e_i), read before any space is built.

Each route solves only the system that decides it. The gauge parts of s^b
and s^{*b} are the parallel forms of one parity, on that parity's rows
alone (`gauge.parallel_rows`, one per entry of its triangle), so
FE(nabla, nabla*) itself is not solved. The cocycle systems are
`cohomology`'s (`scalar_coboundary_rows`): skew 2-cocycles of the trivial
Chevalley-Eilenberg complex and symmetric ones of the scalar KV complex of
a flat connection's product, whose delta_2 rows (x, y, z) are listed for
x < y only.

The Hessian, s^b, s^{*b}, bi-invariant metric and symplectic verdicts
share one walk, one re-check of a full-rank witness on the rows that
define its space, and one ending otherwise (`_form_verdict`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, product as iproduct
from math import isqrt

from koszul import linalg, spaces
from koszul.algebra import LieAlgebra, _left_traces
from koszul.cohomology import scalar_coboundary_rows
from koszul.connections import (InvariantConnection, cartan_connection,
                                form_dual, is_locally_flat, is_torsion_free,
                                torsion)
from koszul.errors import (NotFlat, NotTorsionFree, SingularMetric,
                           TorsionMismatch, ValidationError)
from koszul.forms import SKEW, SYMMETRIC, BilinearForm, form_space
from koszul.gauge import parallel_rows, solve_fe_star
from koszul.linalg import Mat
from koszul.spaces import LinearSolutionSpace

# Bound on the points `max_rank` walks of its (min(shape) + 1)^(dim - 1)
# point grid. A walk stops at its first full-rank point, so only a
# rank-deficient span, or a definite search that finds nothing, walks its
# whole grid. The longest walks in use, besides the test of this bound,
# have 3,125 points in the tests (a rank-deficient span of dim 6 on 4 x 4)
# and 25 in the benchmark (dim 3 on 4 x 4). One grid point of a pencil up
# to 7 x 7 (an integer combination and one integer echelon) takes about
# 10-30 us on a shared 2-vCPU host, so a walk at the bound takes 0.1 s.
GENERIC_RANK_POINTS = 4096
# Dense points tried after a walk that ends uncertified (`_prime_points`).
PRIME_POINTS = 3


@dataclass(frozen=True)
class RankWitness:
    """The largest rank `max_rank` found, at element = sum_s coefficients_s
    B_s over the space's basis; `certified` when it is the generic rank."""
    max_rank: int
    coefficients: tuple
    element: Mat
    certified: bool
    positive_definite: bool | None = None

    def __post_init__(self):
        if linalg.rank(self.element) != self.max_rank:
            raise ValidationError("witness element does not realize max_rank")


def max_rank(space: LinearSolutionSpace,
             constraint: str = "none") -> RankWitness:
    """Largest rank over the span, from one walk of an integer grid; with
    constraint "positive_definite", also a search for a definite element.

    The generic rank is the rank of sum_s t_s B_s over the rational function
    field Q(t). It equals the maximum rank over all real (or rational)
    coefficient choices, so a certified rank below full certifies that every
    element of the span is singular.

    Proof of the walk. Let k = dim and d = min(shape). Every minor of
    sum_s t_s B_s is homogeneous in t, so it vanishes identically exactly when
    its value at t_1 = 1 does: the rank over Q(t) is the rank over Q(u) of
    B_1 + sum_{s>=2} u_s B_s. Let r* be the largest exact rank of that pencil
    over the grid {0, ..., d}^(k-1). No specialization exceeds the generic
    rank, so r* <= generic rank. If r* < d, every (r*+1)-minor has degree at
    most r*+1 <= d in each u_s and vanishes on a grid with d+1 points per
    axis, so it is the zero polynomial (Alon, Combinatorial Nullstellensatz,
    1999, Lemma 2.1); hence r* is the generic rank. A point of rank d proves
    rank d on any grid. The walk reads the basis as its integer rows: B_s
    times its scale c > 0 is the substitution t_s -> c t_s, which keeps the
    rank. Each point is ranked by one integer `echelon`; a matrix is built
    only for a signature test and for the witness.

    The walk (`_grid`) stops at the first point of rank d, or at the first
    definite one when that is sought, and visits at most GENERIC_RANK_POINTS
    points; one that ends below rank d short of the whole grid then tries
    `_prime_points`. `certified` holds when a point reached rank d or the
    whole grid was walked. Each symmetric point of rank d gets one exact
    signature: all positive makes el definite, all negative makes -el (the
    t_1 = -1 side) definite; positive_definite is True when either holds,
    None when no point passed (absence is not certified). The zero space
    is not walked: its one element, the zero form, is positive definite
    only in dimension 0 (the empty form), so positive_definite is True
    there and False, a certified absence, in positive dimension.
    """
    if constraint not in ("none", "positive_definite"):
        raise ValidationError(f"unknown max_rank constraint {constraint!r}")
    if space.shape is None or len(space.shape) != 2:
        raise ValidationError("max_rank needs matrix-shaped elements")
    k = space.dim
    nr, nc = space.shape
    if k == 0:
        z = linalg.zeros(nr, nc)
        pd = nr == nc == 0 if constraint == "positive_definite" else None
        return RankWitness(0, (), z, True, positive_definite=pd)

    d = min(nr, nc)
    seek = constraint == "positive_definite" and nr == nc
    # cell -> {s: x}, over the cells nonzero in some basis row
    cells = spaces.accumulate((j, s, x) for s, row in enumerate(space.rows)
                              for j, x in row.items())
    walked_all = _grid_points(space) <= GENERIC_RANK_POINTS

    def points():
        yield from islice(_grid(k, d), GENERIC_RANK_POINTS)
        if best < d and not walked_all:
            yield from _prime_points(k)

    best, best_coeffs, sign = -1, None, None
    for coeffs in points():
        flat = [0] * (nr * nc)
        for j, terms in cells.items():
            flat[j] = sum(coeffs[s] * x for s, x in terms.items())
        r = len(linalg.echelon([flat[i * nc:(i + 1) * nc]
                                for i in range(nr)])[1])
        if r > best:
            best, best_coeffs = r, coeffs
        if seek and r == d:
            el = linalg.unflatten(flat, nr, nc)
            if el == linalg.transpose(el):
                pos, neg, _ = linalg.symmetric_signature(el)
                sign = 1 if pos == d else -1 if neg == d else None
                if sign is not None:
                    best_coeffs = tuple(sign * c for c in coeffs)
                    break
        if best == d and not seek:
            break
    coefficients = tuple(c * q for c, q in zip(best_coeffs, space.scales))
    element = linalg.unflatten(space.element(coefficients), nr, nc)
    return RankWitness(
        best, coefficients, element, best == d or walked_all,
        positive_definite=True if sign else None)


def generic_rank(space: LinearSolutionSpace) -> int | None:
    """The generic rank `max_rank` certifies, or None where it does not.
    The benchmark's tracer (koszulbench/tracer.py) wraps this name."""
    rw = max_rank(space)
    return rw.max_rank if rw.certified else None


def _grid(k: int, d: int):
    """Points (1, *u), u in {0, ..., d}^(k-1), in shells: entries <= 1 first,
    then <= 2, and so on, in `iproduct` order within a shell. Sparse
    combinations come first."""
    for s in range(min(d, 1), d + 1):
        for u in iproduct(range(s + 1), repeat=k - 1):
            if s <= 1 or s in u:
                yield (1, *u)


def _prime_points(k: int):
    """PRIME_POINTS points (1, *u), u_s consecutive primes from the j-th
    prime on for the j-th point: dense, where the grid's first points leave
    all but the last 12 coordinates at 0."""
    primes = list(islice((p for p in count(2)
                          if all(p % q for q in range(2, isqrt(p) + 1))),
                         k - 1 + PRIME_POINTS))
    for j in range(PRIME_POINTS):
        yield (1, *primes[j:j + k - 1])


def _grid_points(space: LinearSolutionSpace) -> int:
    """Points of the grid `max_rank` walks on a space of dim >= 1."""
    return (min(space.shape) + 1) ** (space.dim - 1)


def common_kernel(space: LinearSolutionSpace) -> tuple:
    """Basis of vectors annihilated by every element of the span."""
    nr, nc = space.shape
    rows = [{j - i * nc: x for j, x in b.items() if j // nc == i}
            for b in space.rows for i in range(nr)]
    return linalg.vectors(*linalg.sparse_nullspace(rows, nc), nc)


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


def _no_or_unknown(space, m, rw: RankWitness, notes=""):
    """Shared ending for rank-based verdicts: certify no, or admit unknown,
    from the space's `max_rank` walk `rw`; nothing is walked again."""
    value = m - rw.max_rank
    ck = common_kernel(space)
    if ck:
        vec = "[" + ", ".join(str(x) for x in ck[0]) + "]"
        return ExistenceVerdict(
            "no", invariant_value=value, certificate=(
                f"every element of the solution space annihilates "
                f"the vector {vec}"), notes=notes)
    if not rw.certified:
        bound = (f"generic rank not certified: its grid has "
                 f"{_grid_points(space)} points, above the bound of "
                 f"{GENERIC_RANK_POINTS}")
        return ExistenceVerdict("unknown", invariant_value=value,
                                notes="; ".join(filter(None, (notes, bound))))
    if rw.max_rank < m:
        return ExistenceVerdict(
            "no", invariant_value=value,
            certificate="solution space has generic rank below the dimension",
            notes=notes)
    return ExistenceVerdict("unknown", invariant_value=value, notes=notes)


def _form_verdict(space: LinearSolutionSpace, rows, sym: str,
                  definite: str | None = None) -> ExistenceVerdict:
    """The verdict of every route that asks for a form of parity sym of
    full rank in `space`, the forms solving the integer condition `rows`.

    One `max_rank` walk; at full rank the witness `BilinearForm` is
    re-checked once for each property the report claims: membership by
    substituting its integer row into `rows`, rank by `RankWitness`, and
    positive definiteness by one signature, only where the walk claims it.
    definite "required" answers "yes" only on a positive definite witness;
    "noted" answers "yes" at full rank and notes whether the witness is
    positive definite. Everything else ends in `_no_or_unknown`.
    """
    m = space.shape[0]
    rw = max_rank(space, constraint="positive_definite" if definite
                  else "none")
    required = definite == "required"
    if not (rw.positive_definite if required else rw.max_rank == m):
        notes = "no positive definite sample found" if required else ""
        return _no_or_unknown(space, m, rw, notes=notes)
    witness = BilinearForm(m, rw.element, sym)
    member = linalg.integer_row(linalg.flatten(rw.element))[0]
    if not spaces.satisfies(rows, member) or (
            rw.positive_definite and not witness.is_positive_definite()):
        raise ValidationError("witness form failed its re-check")
    notes = "" if definite != "noted" else (
        "witness is positive definite" if rw.positive_definite
        else "witness is nondegenerate; definiteness not certified")
    return ExistenceVerdict("yes", invariant_value=0, witness=witness,
                            notes=notes)


def _parallel_verdict(conn: InvariantConnection, sym: str,
                      definite: str | None = None) -> ExistenceVerdict:
    """`_form_verdict` on the nabla-parallel forms of one parity
    (`gauge.parallel_rows`), on the reduced row-echelon basis of their span.
    The basis fixes which point of the `max_rank` walk, and so which
    witness form, s_b and s_star_b report; this one makes it a function of
    the span alone."""
    m = conn.dim
    rows = parallel_rows(conn, sym)
    basis = linalg.sparse_row_space(form_space(rows, m, sym).rows, m * m)
    return _form_verdict(LinearSolutionSpace(m * m, *basis, shape=(m, m)),
                         rows, sym, definite)


def _hessian_rows(conn: InvariantConnection) -> list[dict[int, int]]:
    """The scalar KV delta_2 rows of the connection's product, which must
    be flat."""
    flat, why = is_locally_flat(conn)
    if not flat:
        raise NotFlat(why)
    return scalar_coboundary_rows(conn.gamma, 2)


def hessian_cocycle_space(conn: InvariantConnection) -> LinearSolutionSpace:
    """Symmetric forms g that are 2-cocycles of the scalar KV complex of the
    connection's product (`cohomology.scalar_coboundary_rows`):
    g([e_i,e_j],e_k) + g(e_j, nabla_{e_i}e_k) − g(e_i, nabla_{e_j}e_k) = 0,
    the bracket being e_i·e_j − e_j·e_i as the connection is torsion-free.
    Requires a flat connection.
    """
    return form_space(_hessian_rows(conn), conn.dim, SYMMETRIC)


def hessian_defect(conn: InvariantConnection) -> tuple[int, ExistenceVerdict]:
    """dim minus the maximal rank over the cocycle space of a flat connection."""
    rows = _hessian_rows(conn)
    verdict = _form_verdict(form_space(rows, conn.dim, SYMMETRIC), rows,
                            SYMMETRIC)
    return verdict.invariant_value, verdict


def flat_existence(L: LieAlgebra, candidates) -> ExistenceVerdict:
    """Decide whether L carries a flat torsion-free left-invariant connection.

    Routes, in order: the caller's candidates, checked exactly (one with
    torsion raises `TorsionMismatch`); "no" when L is perfect, [L, L] = L,
    since no perfect Lie algebra is left-symmetric (Helmstetter 1979); the
    zero Cartan connection, tested with `is_locally_flat`; in even dim, "yes"
    from a symplectic 2-cocycle omega, whose product omega(x·y, z) =
    −omega(y, [x, z]) is flat and torsion-free (Chu 1974), re-verified.
    Every algebra of dim <= 2 is decided by then;
    otherwise the verdict is "unknown", noting the smallest r_b defect over
    the candidates and the zero Cartan connection. No route draws a random
    number.
    """
    m = L.dim
    tried = []
    for cand in candidates:
        conn = InvariantConnection(L, cand.gamma) \
            if isinstance(cand, InvariantConnection) else InvariantConnection(L, cand)
        if not torsion(conn).is_zero():
            raise TorsionMismatch(
                "candidate's commutator does not match the bracket")
        if is_locally_flat(conn)[0]:
            return ExistenceVerdict("yes", invariant_value=0, witness=conn)
        tried.append(conn)

    # delta_1 f(x, y) = -f([x, y]) has rank dim [g, g]
    if m and linalg.sparse_rank(scalar_coboundary_rows(L, 1), m) == m:
        return ExistenceVerdict(
            "no", certificate="the algebra is perfect ([g, g] = g), and no "
            "perfect Lie algebra carries a flat torsion-free connection")

    zero = cartan_connection(L, "zero")
    if is_locally_flat(zero)[0]:
        return ExistenceVerdict("yes", invariant_value=0, witness=zero)
    tried.append(zero)

    if m % 2 == 0:
        symplectic = left_symplectic_oracle(L)
        if symplectic.exists == "yes":
            conn = form_dual(L, L.sparse, symplectic.witness.matrix)
            flat, why = is_locally_flat(conn)
            if not flat:
                raise ValidationError(
                    f"connection of the symplectic form failed recheck: {why}")
            return ExistenceVerdict("yes", invariant_value=0, witness=conn)
    best = min(r_b_defect(conn) for conn in tried)
    return ExistenceVerdict("unknown", invariant_value=best,
                            notes=f"best defect over tried connections: {best}")


def _require_metric(g: BilinearForm):
    if g.sym != SYMMETRIC:
        raise SingularMetric("auxiliary metric must be symmetric")
    if not g.is_nondegenerate:
        raise SingularMetric(f"auxiliary metric has rank {g.rank} < {g.dim}")


def s_b(L: LieAlgebra, g: BilinearForm, positive: bool = False
        ) -> tuple[int, ExistenceVerdict]:
    """Metric gap: dim minus the best rank of symmetric gauge parts.

    Built from the pair (plus-connection, its metric dual). A solution phi
    of FE(nabla, nabla*) is one whose form g(phi·,·) is nabla-parallel, and
    g(Phi·,·) is its symmetric half, so the forms g(Phi·,·) are exactly the
    ad-invariant symmetric forms. The space walked is therefore the
    symmetric nabla-parallel forms of the plus connection, rebased on their
    reduced row-echelon basis (`_parallel_verdict`), and FE(nabla, nabla*)
    is not solved: the value, the verdict and the witness form do not
    depend on the auxiliary metric g, which is only checked to be a metric.
    """
    _require_metric(g)
    verdict = _parallel_verdict(cartan_connection(L, "plus"), SYMMETRIC,
                                "required" if positive else None)
    return verdict.invariant_value, verdict


def bi_invariant_metric(L: LieAlgebra) -> ExistenceVerdict:
    """Direct route: nondegenerate ad-invariant symmetric forms.

    A nondegenerate ad-invariant form B makes every ad_x B-skew, so
    tr ad_x = 0 (Milnor 1976 for the Riemannian case). The traces
    tr ad(e_i) = sum_k c[i][k][k] are summed over the table's nonzeros
    first, and the first nonzero one answers "no" before any system is
    built, with a certificate that names it and no invariant value. A
    unimodular algebra walks the ad-invariant symmetric forms with
    `max_rank`. The tests cross-check the trace certificate against that
    walk, and this route against s_b.
    """
    sp = L.sparse
    traces = _left_traces(sp, L.dim)
    hit = next((i for i, t in enumerate(traces) if t), None)
    if hit is not None:
        return ExistenceVerdict("no", certificate=(
            f"tr ad(e_{hit}) = {Fraction(traces[hit], sp.den)} is not 0, so "
            f"the algebra is not unimodular; a nondegenerate ad-invariant "
            f"form makes every ad_x skew, of trace 0"))
    rows = parallel_rows(cartan_connection(L, "plus"), SYMMETRIC)
    return _form_verdict(form_space(rows, L.dim, SYMMETRIC), rows, SYMMETRIC,
                         "noted")


def s_star_b(conn: InvariantConnection, g: BilinearForm,
             require_torsion_free: bool = True
             ) -> tuple[int, ExistenceVerdict]:
    """Symplectic gap: dim minus the best rank of skew gauge parts.

    The forms g(Phi*·,·) are the skew halves of the nabla-parallel forms
    g(phi·,·) of the FE(nabla, nabla*) solutions phi, so they sweep exactly
    the nabla-parallel skew forms. The space walked is therefore those
    forms, rebased on their reduced row-echelon basis (`_parallel_verdict`),
    and FE(nabla, nabla*) is not solved: the value, the verdict and the
    witness form do not depend on the auxiliary metric g. The torsion-free
    precondition can be waived (require_torsion_free=False) to probe
    connections with torsion, e.g. the bracket connection on a semisimple
    algebra; the geometric symplectic interpretation is only backed by the
    torsion-free case.
    """
    _require_metric(g)
    if require_torsion_free and not is_torsion_free(conn):
        hit = torsion(conn).first_nonzero()
        raise NotTorsionFree(f"torsion does not vanish (witness {hit[0][:3]})")
    verdict = _parallel_verdict(conn, SKEW)
    return verdict.invariant_value, verdict


def left_symplectic_oracle(L: LieAlgebra) -> ExistenceVerdict:
    """Independent route: nondegenerate skew 2-cocycles of the bracket, the
    trivial Chevalley-Eilenberg delta_2 solved over the skew forms."""
    m = L.dim
    rows = scalar_coboundary_rows(L, 2)
    space = form_space(rows, m, SKEW)
    if m % 2 == 1:
        return ExistenceVerdict(
            "no", invariant_value=m - max_rank(space).max_rank,
            certificate="skew forms in odd dimension are singular")
    return _form_verdict(space, rows, SKEW)
