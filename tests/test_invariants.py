import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from koszul import cli, invariants, linalg, spaces
from koszul.algebra import abelian, commutator_bracket
from koszul.catalog import (
    aff1,
    aff1_symplectic_connection,
    heisenberg,
    heisenberg_kv,
    resolve,
    sl2,
    so3,
    so3_killing,
)
from koszul.cohomology import scalar_coboundary_rows
from koszul.connections import (InvariantConnection, cartan_connection,
                                form_dual)
from koszul.errors import (
    NotFlat,
    NotTorsionFree,
    SingularMetric,
    TorsionMismatch,
    ValidationError,
)
from koszul.forms import (SKEW, SYMMETRIC, BilinearForm, form_space,
                          identity_form)
from koszul.gauge import parallel_forms, parallel_rows
from koszul.invariants import (
    GENERIC_RANK_POINTS,
    PRIME_POINTS,
    bi_invariant_metric,
    common_kernel,
    flat_existence,
    generic_rank,
    hessian_cocycle_space,
    hessian_defect,
    left_symplectic_oracle,
    max_rank,
    r_b_defect,
    s_b,
    s_star_b,
)

from conftest import (conjugate_lie, direct_sum_lie, lie_pool, rand_fraction,
                      rand_invertible, random_metric, random_torsion_free,
                      span)
from oracles import (dense_curvature, dense_is_parallel, dense_product,
                     dense_torsion, eager_flat_existence, full_pool_max_rank,
                     phi_parts_space, phi_split_parts_space, phi_split_s_b,
                     phi_split_s_star_b, rank_walk_bi_invariant_metric,
                     symbolic_generic_rank)


def kv_connection(p):
    return InvariantConnection(commutator_bracket(p), p)


def test_max_rank_on_simple_pencils():
    e00 = linalg.flatten([[1, 0], [0, 0]])
    e11 = linalg.flatten([[0, 0], [0, 1]])
    space = span(4, (e00, e11), shape=(2, 2))
    rw = max_rank(space)
    assert rw.max_rank == 2 and linalg.rank(rw.element) == 2
    assert generic_rank(space) == 2
    # single nilpotent direction: rank is capped at 1
    e01 = linalg.flatten([[0, 1], [0, 0]])
    space = span(4, (e01,), shape=(2, 2))
    assert max_rank(space).max_rank == 1
    empty = span(4, (), shape=(2, 2))
    assert max_rank(empty).max_rank == 0


def test_common_kernel_detects_shared_annihilation():
    # both basis matrices kill (0, 1)
    a = linalg.flatten([[1, 0], [0, 0]])
    b = linalg.flatten([[2, 0], [1, 0]])
    space = span(4, (a, b), shape=(2, 2))
    ck = common_kernel(space)
    assert ck and tuple(ck[0]) == (Fraction(0), Fraction(1))


def test_r_b_defect_reference_values():
    assert r_b_defect(cartan_connection(abelian(3), "zero")) == 0
    assert r_b_defect(cartan_connection(so3(), "zero")) == 3
    assert r_b_defect(kv_connection(heisenberg_kv())) == 0


def test_hessian_cocycle_space_heisenberg_hand_enumeration():
    """Cocycles are exactly the symmetric forms annihilating the center."""
    conn = kv_connection(heisenberg_kv())
    space = hessian_cocycle_space(conn)
    assert space.dim == 3
    for g in space.matrices():
        assert g == linalg.transpose(g)
        assert all(g[i][2] == 0 for i in range(3))
        assert all(g[2][j] == 0 for j in range(3))
    d, verdict = hessian_defect(conn)
    assert d == 1 and verdict.exists in ("no", "unknown")


def test_hessian_defect_abelian_zero_with_witness():
    d, verdict = hessian_defect(cartan_connection(abelian(3), "zero"))
    assert d == 0 and verdict.exists == "yes"
    w = verdict.witness
    assert w.sym == "symmetric" and w.is_nondegenerate
    # every symmetric form is parallel for the zero connection
    assert hessian_cocycle_space(
        cartan_connection(abelian(3), "zero")).dim == 6


def test_hessian_defect_requires_flatness():
    with pytest.raises(NotFlat):
        hessian_defect(cartan_connection(so3(), "zero"))


def test_flat_existence_verdicts(rng):
    for m in (0, 1, 3):
        assert flat_existence(abelian(m), ()).exists == "yes"
    v = flat_existence(heisenberg(), ())
    assert v.exists == "yes"
    assert v.witness is not None
    v = flat_existence(aff1(), ())
    assert v.exists == "yes"
    # perfect algebras carry no flat torsion-free connection
    so3_sl2 = conjugate_lie(direct_sum_lie(so3(), sl2()),
                            rand_invertible(6, rng))
    for L in (so3(), sl2(), so3_sl2):
        v = flat_existence(L, ())
        assert v.exists == "no" and "perfect" in v.certificate
    # a candidate whose commutator disagrees with the bracket is refused
    with pytest.raises(TorsionMismatch):
        flat_existence(so3(), (cartan_connection(abelian(3), "zero"),))
    # explicit KV candidate short-circuits to yes
    v = flat_existence(commutator_bracket(heisenberg_kv()),
                       (kv_connection(heisenberg_kv()),))
    assert v.exists == "yes" and v.invariant_value == 0


def _is_flat_torsion_free(conn):
    """Torsion and curvature vanish, by the dense oracle formulas."""
    return not any(x for a in dense_torsion(conn) for b in a for x in b) \
        and not any(x for a in dense_curvature(conn) for b in a for c in b
                    for x in c)


def _monomial(m, rng):
    """A permutation matrix with nonzero rational scales."""
    perm = rng.sample(range(m), m)
    return linalg.mat([[Fraction(rng.choice((-2, -1, 1, 2)),
                                 rng.choice((1, 2))) if perm[i] == j else 0
                        for j in range(m)] for i in range(m)])


def test_flat_existence_on_aff1_matches_the_sympy_search(rng):
    for L in (aff1(), conjugate_lie(aff1(), _monomial(2, rng)),
              conjugate_lie(aff1(), _monomial(2, rng))):
        old, new = eager_flat_existence(L, ()), flat_existence(L, ())
        assert old.exists == new.exists == "yes"
        assert _is_flat_torsion_free(old.witness)
        assert _is_flat_torsion_free(new.witness)


SYMPLECTIC = {
    "aff1": aff1(),
    "aff1+aff1": direct_sum_lie(aff1(), aff1()),
    "heisenberg+abelian:1": direct_sum_lie(heisenberg(), abelian(1)),
    "affine:2": resolve("lie", "affine:2"),
    "abelian:4": abelian(4),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(SYMPLECTIC)), st.integers(0, 2 ** 32))
def test_flat_existence_from_a_symplectic_form(name, seed):
    L = SYMPLECTIC[name]
    L = conjugate_lie(L, rand_invertible(L.dim, random.Random(seed)))
    v = flat_existence(L, ())
    assert v.exists == "yes" and v.invariant_value == 0
    assert _is_flat_torsion_free(v.witness)
    # the product of omega(x·y, z) = -omega(y, [x, z]) itself, whichever
    # route answered above
    omega = left_symplectic_oracle(L).witness.matrix
    assert _is_flat_torsion_free(form_dual(L, L.sparse, omega))


def test_flat_existence_unknown_matches_the_eager_search(rng):
    L = direct_sum_lie(so3(), abelian(1))
    cands = (random_torsion_free(L, rng),)
    old = eager_flat_existence(L, cands, budget=8, seed=5)
    with mock.patch.object(invariants, "r_b_defect",
                           wraps=invariants.r_b_defect) as defect:
        new = flat_existence(L, cands)
    # the candidate and the zero Cartan connection
    assert defect.call_count == 2
    assert new.exists == old.exists == "unknown"
    assert (new.notes, new.invariant_value) == (old.notes, old.invariant_value)


def test_flat_existence_on_aff1_solves_no_fe_star_and_calls_sympy_once():
    import sympy

    with mock.patch.object(invariants, "solve_fe_star") as fe_star, \
            mock.patch.object(sympy, "solve") as solve, \
            mock.patch.object(sympy, "groebner",
                              wraps=sympy.groebner) as groebner:
        rep = cli.run(["invariants", "--which", "flat", "--catalog", "aff1"])
    assert rep["result"]["exists"] == "yes"
    assert (fe_star.call_count, solve.call_count,
            groebner.call_count) == (0, 0, 1)


def test_flat_existence_refuses_a_symplectic_product_that_is_not_flat():
    with mock.patch.object(invariants, "form_dual",
                           return_value=cartan_connection(aff1(), "zero")):
        with pytest.raises(ValidationError, match="failed recheck"):
            flat_existence(aff1(), ())


def test_s_b_reference_values(rng):
    for _ in range(3):
        g = random_metric(3, rng)
        val, verdict = s_b(so3(), g)
        assert val == 0 and verdict.exists == "yes"
        # witness is ad-invariant and proportional to the Killing form here
        w = verdict.witness.matrix
        k = so3_killing().matrix
        ratios = {w[i][j] / k[i][j] for i in range(3) for j in range(3)
                  if k[i][j] != 0}
        assert len(ratios) == 1
    val, verdict = s_b(aff1(), identity_form(2))
    assert val == 1 and verdict.exists == "no"
    assert verdict.certificate
    val, verdict = s_b(abelian(2), identity_form(2))
    assert val == 0 and verdict.exists == "yes"


def test_s_b_routes_agree_with_direct_oracle(rng):
    for L in (abelian(2), abelian(3), heisenberg(), so3(), sl2(), aff1()):
        direct = bi_invariant_metric(L)
        val, _ = s_b(L, random_metric(L.dim, rng))
        assert (val == 0) == (direct.exists == "yes")


def test_s_b_positive_definite_constraint(rng):
    # compact case: the Killing form is negative definite, so a positive
    # definite ad-invariant metric is its negative
    val, verdict = s_b(so3(), identity_form(3), positive=True)
    assert val == 0 and verdict.exists == "yes"
    assert verdict.witness.is_positive_definite()


def test_s_b_rejects_degenerate_auxiliary_metric():
    g = BilinearForm(2, linalg.mat([[1, 0], [0, 0]]), "symmetric")
    with pytest.raises(SingularMetric):
        s_b(aff1(), g)


def test_s_star_b_reference_values():
    val, verdict = s_star_b(cartan_connection(abelian(4), "zero"),
                            identity_form(4))
    assert val == 0 and verdict.exists == "yes"
    w = verdict.witness
    assert w.sym == "skew" and w.rank == 4
    val, verdict = s_star_b(cartan_connection(abelian(3), "zero"),
                            identity_form(3))
    assert val == 1 and verdict.exists == "no"
    val, verdict = s_star_b(cartan_connection(so3(), "plus"), so3_killing(),
                            require_torsion_free=False)
    assert val == 3
    with pytest.raises(NotTorsionFree):
        s_star_b(cartan_connection(so3(), "plus"), so3_killing())


def test_left_symplectic_oracle_verdicts():
    v = left_symplectic_oracle(aff1())
    assert v.exists == "yes"
    assert v.witness.sym == "skew" and v.witness.is_nondegenerate
    v = left_symplectic_oracle(so3())
    assert v.exists == "no" and "odd" in v.certificate
    assert left_symplectic_oracle(abelian(4)).exists == "yes"
    assert left_symplectic_oracle(heisenberg()).exists == "no"


def test_left_symplectic_oracle_rechecks_its_witness_on_the_full_rows(
        monkeypatch):
    # the witness is substituted into the cocycle rows over all m x m
    # entries, not into the rows folded onto the triangle of unknowns
    L = direct_sum_lie(aff1(), aff1())
    calls, real = [], spaces.satisfies
    monkeypatch.setattr(spaces, "satisfies",
                        lambda rows, vec: calls.append((rows, vec))
                        or real(rows, vec))
    v = left_symplectic_oracle(L)
    assert v.exists == "yes"
    assert calls[-1] == (scalar_coboundary_rows(L, 2), linalg.integer_row(
        linalg.flatten(v.witness.matrix))[0])


def test_symplectic_routes_agree_on_catalog(rng):
    # gap route via the aff(1) torsion-free connection vs the cocycle oracle
    val, verdict = s_star_b(aff1_symplectic_connection(), identity_form(2))
    direct = left_symplectic_oracle(aff1())
    assert val == 0 and verdict.exists == "yes" == direct.exists


def _answer(result):
    """An s_b or s_star_b answer as plain data, its witness as a matrix."""
    value, v = result
    witness = None if v.witness is None else v.witness.matrix
    return value, v.exists, v.invariant_value, witness, v.certificate, v.notes


def _gram_metrics(m, count, seed):
    """count positive definite metrics P^T P, the entries of P in [-2, 2]
    drawn from random.Random(seed)."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rand_invertible(m, rng)
        yield BilinearForm(m, linalg.mat_mul(linalg.transpose(p), p),
                           "symmetric")


SO3_R = direct_sum_lie(so3(), abelian(1))


@pytest.mark.parametrize("L", [so3(), sl2(), heisenberg(), aff1(), abelian(3),
                               SO3_R],
                         ids=["so3", "sl2", "heisenberg", "aff1", "abelian:3",
                              "so3+R"])
@pytest.mark.parametrize("positive", [False, True], ids=["sb", "sb+"])
def test_s_b_does_not_depend_on_the_auxiliary_metric(L, positive):
    # the walked forms are the ad-invariant symmetric forms whatever g is,
    # so value, verdict and witness are those of the identity metric
    want = _answer(s_b(L, identity_form(L.dim), positive))
    rng = random.Random(L.dim)
    for g in [random_metric(L.dim, rng) for _ in range(3)] + list(
            _gram_metrics(L.dim, 2, L.dim)):
        assert _answer(s_b(L, g, positive)) == want


def test_so3_plus_r_has_a_positive_definite_witness_for_every_metric():
    want = _answer(s_b(SO3_R, identity_form(4), positive=True))
    assert want[1] == "yes"
    for g in _gram_metrics(4, 40, 1):
        assert _answer(s_b(SO3_R, g, positive=True)) == want


@pytest.mark.parametrize("conn", [
    cartan_connection(abelian(4), "zero"), aff1_symplectic_connection(),
    kv_connection(heisenberg_kv())],
    ids=["abelian:4/zero", "aff1-symplectic", "heisenberg-kv"])
def test_s_star_b_does_not_depend_on_the_auxiliary_metric(conn):
    m = conn.dim
    want = _answer(s_star_b(conn, identity_form(m)))
    rng = random.Random(m)
    for g in [random_metric(m, rng) for _ in range(3)] + list(
            _gram_metrics(m, 2, m)):
        assert _answer(s_star_b(conn, g)) == want


def _pool_algebra(base, change):
    """The pool's algebra `base`, under the basis change seeded by `change`
    unless it is None."""
    L = lie_pool()[base]
    if change is None:
        return L
    return conjugate_lie(L, rand_invertible(L.dim, random.Random(change)))


def _connection(L, kind, rng):
    """A Cartan connection of L, a random torsion-free one, or ("torsion")
    a random table, whose torsion rarely vanishes."""
    m = L.dim
    if kind == "torsion-free":
        return random_torsion_free(L, rng)
    if kind == "torsion":
        table = [[[rand_fraction(rng) if rng.random() < 0.3 else Fraction(0)
                   for _ in range(m)] for _ in range(m)] for _ in range(m)]
        return InvariantConnection(L, dense_product(m, table))
    return cartan_connection(L, kind)


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, len(lie_pool()) - 1),
       change=st.none() | st.integers(0, 2 ** 16),
       kind=st.sampled_from(("plus", "zero", "minus", "torsion-free",
                             "torsion")),
       part=st.sampled_from(("sym", "skew")),
       metric=st.none() | st.integers(0, 2 ** 16))
@example(base=8, change=None, kind="plus", part="sym", metric=3)  # so3+R
@example(base=3, change=None, kind="torsion-free", part="skew", metric=None)
@example(base=8, change=5, kind="torsion", part="skew", metric=1)
@example(base=9, change=None, kind="zero", part="skew", metric=0)  # aff1+aff1
def test_parts_span_is_the_metric_times_the_phi_split_span(
        base, change, kind, part, metric):
    L = _pool_algebra(base, change)
    m = L.dim
    rng = random.Random(metric)
    conn = _connection(L, kind, rng)
    g = identity_form(m) if metric is None else random_metric(m, rng)
    new = phi_parts_space(conn, g, part)
    old = phi_split_parts_space(conn, g, part)
    moved = [linalg.flatten(linalg.mat_mul(g.matrix, b))
             for b in old.matrices()]
    assert new.basis == (linalg.row_space_basis(moved) if moved else ())
    assert max_rank(new).max_rank == max_rank(old).max_rank
    # s_b and s_star_b walk the parallel forms of the part's parity, which
    # the bridge space equals for every connection and metric, torsion or not
    sym = SYMMETRIC if part == "sym" else SKEW
    assert invariants._rebased_parallel_forms(conn, sym).basis == new.basis
    if part == "sym" and kind == "plus":
        got, former = s_b(L, g), phi_split_s_b(L, g)
    elif part == "skew":
        got = s_star_b(conn, g, require_torsion_free=False)
        former = phi_split_s_star_b(conn, g)
    else:
        return
    if metric is None:
        # under the identity metric the former answer is kept whole
        assert _answer(got) == _answer(former)
    else:
        assert (got[0], got[1].exists) == (former[0], former[1].exists)


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, len(lie_pool()) - 1),
       change=st.none() | st.integers(0, 2 ** 16))
@example(base=7, change=None)  # aff1
@example(base=9, change=3)  # aff1+aff1
@example(base=10, change=3)  # heisenberg+R: unimodular, and "no"
def test_the_trace_answers_no_exactly_on_non_unimodular_algebras(base,
                                                                 change):
    # a nonzero tr ad(e_i) answers "no" before any system is built, and the
    # former rank walk answers "no" there too; a unimodular algebra takes
    # the walk, with the former answer
    L = _pool_algebra(base, change)
    m = L.dim
    traces = [sum(L.c[i][k][k] for k in range(m)) for i in range(m)]
    got, walked = bi_invariant_metric(L), rank_walk_bi_invariant_metric(L)
    if any(traces):
        i = next(i for i, t in enumerate(traces) if t)
        assert (got.exists, got.invariant_value, got.witness) == \
            ("no", None, None)
        assert got.certificate.startswith(
            f"tr ad(e_{i}) = {traces[i]} is not 0, so the algebra is not "
            f"unimodular")
        assert walked.exists == "no"
    else:
        assert got == walked


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, len(lie_pool()) - 1),
       kind=st.sampled_from(("plus", "zero", "torsion-free")),
       seed=st.integers(0, 2 ** 16))
def test_the_parallel_rows_recheck_matches_the_dense_matrices(base, kind, seed):
    L = lie_pool()[base]
    m = L.dim
    rng = random.Random(seed)
    conn = random_torsion_free(L, rng) if kind == "torsion-free" \
        else cartan_connection(L, kind)
    parallel = [b for sym in ("symmetric", "skew")
                for b in parallel_forms(conn, sym).matrices()]
    noise = linalg.mat([[rng.randint(-1, 1) for _ in range(m)]
                        for _ in range(m)])
    rows = parallel_rows(conn)
    for b in parallel + [noise] + [linalg.mat_add(b, noise) for b in parallel]:
        w = linalg.integer_row(linalg.flatten(b))[0]
        assert spaces.satisfies(rows, w) == dense_is_parallel(conn, b)
    assert all(spaces.satisfies(rows, linalg.integer_row(linalg.flatten(b))[0])
               for b in parallel)


def _every_form(conn, sym):
    """A stand-in for `parallel_forms` that returns every form of the
    parity, most of which are not parallel."""
    return form_space([], conn.dim, sym)


def test_a_witness_off_the_parallel_rows_is_refused():
    # the walk then meets nondegenerate forms that are not parallel, and
    # the recheck on parallel_rows refuses them
    conn = cartan_connection(direct_sum_lie(aff1(), aff1()), "zero")
    with mock.patch.object(invariants, "parallel_forms", _every_form):
        with pytest.raises(ValidationError,
                           match="witness form is not parallel"):
            s_star_b(conn, identity_form(4))
        with pytest.raises(ValidationError,
                           match="witness form is not parallel"):
            s_b(aff1(), identity_form(2))


def test_determinism_fixed_seed():
    a = max_rank(hessian_cocycle_space(
        cartan_connection(abelian(3), "zero")))
    b = max_rank(hessian_cocycle_space(
        cartan_connection(abelian(3), "zero")))
    assert a.element == b.element and a.max_rank == b.max_rank


@st.composite
def matrix_spaces(draw):
    """Spans of 0-5 small matrices of shape up to 3 x 3; square ones are
    symmetrized, and given the identity, often enough to hold definite
    elements."""
    nr = draw(st.integers(1, 3))
    nc = nr if draw(st.booleans()) else draw(st.integers(1, 3))
    entry = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2)))
    mats = [[[draw(entry) for _ in range(nc)] for _ in range(nr)]
            for _ in range(draw(st.integers(0, 5)))]
    if nr == nc and draw(st.booleans()):
        mats = [linalg.mat_add(a, linalg.transpose(a)) for a in mats]
        if draw(st.booleans()):
            mats.append(linalg.identity(nr))
    flat = [linalg.flatten(a) for a in mats]
    basis = tuple(linalg.row_space_basis(flat)) if flat else ()
    return span(nr * nc, basis, shape=(nr, nc))


def test_max_rank_stops_once_the_result_is_final():
    # grid points B1, B1 + E00, B1 + 2 E00 with B1 = +-I: full rank and
    # definite at the first, -I on the t_1 = -1 side; integer eliminations
    # are that one point and the witness's own re-check (`linalg.rank`)
    e00 = linalg.flatten([[1, 0], [0, 0]])
    for sign in (1, -1):
        b1 = linalg.mat_scale(sign, linalg.identity(2))
        space = span(4, (linalg.flatten(b1), e00),
                                    shape=(2, 2))
        for constraint, coeffs, element in (
                ("none", (1, 0), b1),
                ("positive_definite", (sign, 0), linalg.identity(2))):
            with mock.patch.object(linalg, "echelon",
                                   wraps=linalg.echelon) as rank:
                rw = max_rank(space, constraint)
            assert rank.call_count == 2 and rw.certified
            assert (rw.coefficients, rw.element) == (coeffs, element)


def test_max_rank_rejects_an_unknown_constraint():
    space = span(4, (linalg.flatten(linalg.identity(2)),),
                                shape=(2, 2))
    with pytest.raises(ValidationError, match="unknown max_rank constraint"):
        max_rank(space, "symmetric")


def _extremal_pencil(d):
    """diag(0, -1, ..., -(d-1)) + u I: singular at u = 0, ..., d-1 and
    nonsingular at u = d, so a grid one point short misses its rank."""
    b1 = [[Fraction(-i if i == j else 0) for j in range(d)] for i in range(d)]
    return span(
        d * d, (linalg.flatten(b1), linalg.flatten(linalg.identity(d))),
        shape=(d, d))


@st.composite
def pencils(draw):
    """Spans of 1-3 matrices of shape up to 4 x 4: dense ones, 3 x 3
    skew ones (rank at most 2) and compression
    spaces, which share a zero block of p rows and q columns and so have
    rank at most nr + nc - p - q."""
    kind = draw(st.sampled_from(("dense", "skew", "compression")))
    nr, nc = (3, 3) if kind == "skew" else (draw(st.integers(1, 4)),
                                           draw(st.integers(1, 4)))
    p = draw(st.integers(1, nr)) if kind == "compression" else 0
    q = draw(st.integers(1, nc)) if kind == "compression" else 0
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        a = [[Fraction(0) if i >= nr - p and j >= nc - q else draw(entry)
              for j in range(nc)] for i in range(nr)]
        mats.append(linalg.mat_sub(a, linalg.transpose(a))
                    if kind == "skew" else a)
    basis = linalg.row_space_basis([linalg.flatten(a) for a in mats])
    return span(nr * nc, basis, shape=(nr, nc))


# zero block rows 1-2 x columns 1-2: generic rank 2, no common kernel
ZERO_BLOCK = span(9, (
    linalg.flatten(linalg.mat([[0, 1, 0], [1, 0, 0], [0, 0, 0]])),
    linalg.flatten(linalg.mat([[0, 0, 1], [0, 0, 0], [1, 0, 0]]))),
    shape=(3, 3))


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(pencils())
@example(ZERO_BLOCK)
@example(_extremal_pencil(2))
@example(_extremal_pencil(3))
@example(_extremal_pencil(4))
def test_generic_rank_matches_the_symbolic_rank(space):
    rw = max_rank(space)
    assert rw.certified
    if rw.max_rank == min(space.shape):
        # a full-rank element of the span proves the generic rank
        assert linalg.rank(rw.element) == rw.max_rank
    else:
        assert rw.max_rank == symbolic_generic_rank(space)


@settings(derandomize=True, database=None, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(pencils(), matrix_spaces()),
       st.sampled_from(("none", "positive_definite")), st.integers(0, 3))
@example(ZERO_BLOCK, "none", 0)
@example(_extremal_pencil(2), "positive_definite", 0)
@example(_extremal_pencil(3), "none", 0)
@example(_extremal_pencil(4), "positive_definite", 1)
def test_max_rank_certifies_the_rank_the_full_pool_only_bounds(
        space, constraint, seed):
    rw = max_rank(space, constraint)
    # a full-rank witness (its rank re-checked by RankWitness) proves the
    # generic rank; sympy is asked where the walk certified a lower one
    assert rw.certified and rw.max_rank <= min(space.shape)
    if rw.max_rank < min(space.shape):
        assert rw.max_rank == symbolic_generic_rank(space)
    assert rw.max_rank >= full_pool_max_rank(space, constraint, seed).max_rank
    if rw.positive_definite:
        assert rw.element == linalg.transpose(rw.element)
        assert linalg.is_positive_definite(rw.element)
        assert space.contains(linalg.flatten(rw.element))


def _unit_span(n, cells):
    """The span of the n x n matrices c E_ij over cells (i, j, c)."""
    basis = []
    for i, j, c in cells:
        e = [[0] * n for _ in range(n)]
        e[i][j] = c
        basis.append(linalg.flatten(linalg.mat(e)))
    return span(n * n, tuple(basis), shape=(n, n))


def test_max_rank_reaches_full_rank_past_the_walk():
    # the walk's first GENERIC_RANK_POINTS points leave all but the last 12
    # coefficients at 0; the identity lies in the span
    rw = max_rank(_unit_span(14, [(i, i, 1) for i in range(14)]))
    assert rw.max_rank == 14 and rw.certified


@st.composite
def wide_spans(draw):
    """Spans of k > 13 scaled unit matrices of size 14: a permutation
    pattern, or one whose last row moved into row 0 (rank 13), and a few
    more cells off that row."""
    n = 14
    perm = draw(st.permutations(range(n)))
    last = draw(st.sampled_from((0, n - 1)))
    cells = {(i, perm[i]) for i in range(n - 1)} | {(last, perm[n - 1])}
    cells |= set(draw(st.lists(st.tuples(st.integers(0, n - 2),
                                         st.integers(0, n - 1)), max_size=3)))
    scale = st.sampled_from((-2, -1, 1, 3))
    return _unit_span(n, [(i, j, draw(scale)) for i, j in sorted(cells)])


@settings(derandomize=True, database=None, deadline=None, max_examples=4,
          suppress_health_check=[HealthCheck.too_slow])
@given(wide_spans())
def test_max_rank_matches_the_full_pool_on_wide_spans(space):
    assert space.dim > 13
    rw = max_rank(space)
    assert rw.max_rank == full_pool_max_rank(space).max_rank
    assert rw.certified == (rw.max_rank == 14)


def test_generic_rank_above_the_bound_answers_unknown():
    # rows 0 and 1 of a 4 x 4 matrix: rank 2 with no common kernel, and a
    # grid of 5^7 points, of which the walk visits GENERIC_RANK_POINTS
    basis = []
    for i in range(2):
        for j in range(4):
            e = [[0] * 4 for _ in range(4)]
            e[i][j] = 1
            basis.append(linalg.flatten(linalg.mat(e)))
    space = span(16, tuple(basis), shape=(4, 4))
    with mock.patch.object(linalg, "echelon", wraps=linalg.echelon) as rank:
        rw = max_rank(space)
    # each point walked, the dense points after it, and the witness's own
    # re-check, one integer elimination each
    assert rank.call_count == GENERIC_RANK_POINTS + PRIME_POINTS + 1
    assert rw.max_rank == 2 and not rw.certified
    with mock.patch.object(linalg, "echelon", wraps=linalg.echelon) as rank:
        verdict = invariants._no_or_unknown(space, 4, rw)
    assert rank.call_count == 0
    assert verdict.exists == "unknown" and verdict.invariant_value == 2
    assert verdict.notes == ("generic rank not certified: its grid has 78125 "
                             "points, above the bound of 4096")
