import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from koszul import gauge, linalg, spaces
from koszul.algebra import abelian, commutator_bracket
from koszul.catalog import aff1_symplectic_connection, heisenberg_kv, so3
from koszul.connections import (
    InvariantConnection,
    amari_dual,
    cartan_connection,
)
from koszul.errors import (
    ConformanceMismatch,
    KoszulError,
    NotSelfOrSkewAdjoint,
    UnsupportedOperation,
    ValidationError,
)
from koszul.flatmodels import affine_algebra
from koszul.forms import (GENERAL, SKEW, SYMMETRIC, BilinearForm,
                          form_space, identity_form)
from koszul.gauge import (
    _fe_star_compatibility,
    _fe_star_operators,
    g_nabla_subalgebra,
    kernel_image_split,
    parallel_forms,
    parallel_rows,
    phi_split,
    solve_fe_double_star,
    solve_fe_star,
    solve_gauge_equation,
)

from conftest import (
    assert_rows_match,
    conjugate_lie,
    conjugate_product,
    lie_pool,
    rand_fraction,
    rand_invertible,
    random_lie,
    random_metric,
    random_torsion_free,
    span,
)
from oracles import (
    basis_largest_invariant,
    dense_fe_star_compat,
    dense_fe_star_operators,
    dense_product,
    dense_solve_fe_star,
    fraction_closure_rows,
    full_parallel_rows,
    is_zero_matrix,
)


def heisenberg_kv_connection():
    p = heisenberg_kv()
    return InvariantConnection(commutator_bracket(p), p)


def test_gauge_solutions_satisfy_the_equation(rng):
    for _ in range(10):
        L = random_lie(rng, max_dim=3)
        conn = random_torsion_free(L, rng)
        g = random_metric(L.dim, rng)
        dual = amari_dual(conn, g)
        sols = solve_gauge_equation(conn, dual)
        for phi in sols.matrices():
            for gi_star, gi in zip(dual.matrices, conn.matrices):
                assert linalg.mat_mul(gi_star, phi) == linalg.mat_mul(phi, gi)


def test_self_pair_contains_identity_and_powers(rng):
    L = random_lie(rng, max_dim=3)
    conn = random_torsion_free(L, rng)
    sols = solve_gauge_equation(conn, conn)
    m = L.dim
    assert sols.contains(linalg.flatten(linalg.identity(m)))
    # the solution set is an algebra: products of solutions solve again
    for a in sols.matrices():
        for b in sols.matrices():
            assert sols.contains(linalg.flatten(linalg.mat_mul(a, b)))


def test_phi_split_reconstructs_and_projects(rng):
    for _ in range(10):
        m = rng.randint(1, 4)
        g = random_metric(m, rng)
        phi = tuple(tuple(rand_fraction(rng) for _ in range(m))
                    for _ in range(m))
        pair = phi_split(phi, g)
        assert linalg.mat_add(pair.phi_sym, pair.phi_skew) == phi
        # splitting a part again changes nothing
        again = phi_split(pair.phi_sym, g)
        assert again.phi_sym == pair.phi_sym
        assert is_zero_matrix(again.phi_skew)


def test_parallel_forms_satisfy_invariance_and_parity(rng):
    for _ in range(8):
        L = random_lie(rng, max_dim=3)
        conn = random_torsion_free(L, rng)
        for sym, sign in (("symmetric", 1), ("skew", -1)):
            space = parallel_forms(conn, sym)
            for b in space.matrices():
                assert b == linalg.mat_scale(sign, linalg.transpose(b))
                for gi in conn.matrices:
                    lhs = linalg.mat_add(
                        linalg.mat_mul(linalg.transpose(gi), b),
                        linalg.mat_mul(b, gi))
                    assert is_zero_matrix(lhs)
    with pytest.raises(ValidationError):
        parallel_forms(cartan_connection(so3(), "zero"), "hermitian")


@st.composite
def pool_connections(draw):
    """A connection on a pool algebra, as it is or after a dense change of
    basis: the plus or zero Cartan connection, or a random torsion-free
    one."""
    L = draw(st.sampled_from(lie_pool()))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        L = conjugate_lie(L, rand_invertible(L.dim, rng))
    kind = draw(st.sampled_from(("plus", "zero", "torsion-free")))
    return random_torsion_free(L, rng) if kind == "torsion-free" \
        else cartan_connection(L, kind)


def _fold(row, m, sym):
    """A row over the m x m entries, folded onto the lower entries of a
    form of parity sym, as `forms.form_space` folds it."""
    folded = defaultdict(int)
    for c, a in row.items():
        x, y = divmod(c, m)
        if x != y or sym == SYMMETRIC:
            folded[max(x, y) * m + min(x, y)] += \
                -a if x < y and sym == SKEW else a
    return {c: a for c, a in folded.items() if a}


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(pool_connections(), st.sampled_from((SYMMETRIC, SKEW)))
def test_parallel_rows_of_a_parity_give_the_full_rows_forms(conn, sym):
    # the rows of one parity are the former rows (i, j, k) with j <= k
    # (j < k when skew), and each former row folds onto the form's lower
    # entries as +- one of them, or vanishes: the same form space
    m = conn.dim
    rows, full = parallel_rows(conn, sym), full_parallel_rows(conn)
    assert all(row in full for row in rows)
    folded = [_fold(row, m, sym) for row in rows]
    for row in full:
        f = _fold(row, m, sym)
        assert not f or f in folded or {c: -a for c, a in f.items()} in folded
    space, old = parallel_forms(conn, sym), form_space(full, m, sym)
    assert (space.rows, space.scales, space.shape) == \
        (old.rows, old.scales, old.shape)


def _dense_affine_model(seed):
    p = conjugate_product(affine_algebra(2).product,
                          rand_invertible(6, random.Random(seed)))
    return InvariantConnection(commutator_bracket(p), p)


@pytest.mark.parametrize("conn", [
    _dense_affine_model(1),
    cartan_connection(conjugate_lie(so3(), linalg.mat(
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]])), "plus"),
], ids=["affine-model:2-dense", "so3-dense-plus"])
def test_parallel_rows_list_each_equation_once(conn):
    # m^2 (m + 1) / 2 rows at most for symmetric forms, m^2 (m - 1) / 2 for
    # skew ones; under a dense basis change the rows of every (i, j, k)
    # are more
    m = conn.dim
    for sym, bound in ((SYMMETRIC, m * m * (m + 1) // 2),
                       (SKEW, m * m * (m - 1) // 2)):
        assert len(parallel_rows(conn, sym)) <= bound \
            < len(full_parallel_rows(conn))


@pytest.mark.parametrize("sym", ["hermitian", GENERAL, None])
def test_parallel_rows_refuse_an_unknown_parity_before_any_row(
        monkeypatch, sym):
    def built(entries):
        raise AssertionError("a row was built")
    monkeypatch.setattr(gauge, "condition_rows", built)
    for route in (parallel_rows, parallel_forms):
        with pytest.raises(ValidationError,
                           match="parity must be symmetric or skew"):
            route(cartan_connection(so3(), "plus"), sym)


def test_fe_star_reference_dimensions():
    # the flat abelian connection: values x derivative slots stay free
    for m in (1, 2, 3, 4):
        fs = solve_fe_star(cartan_connection(abelian(m), "zero"))
        assert (fs.space.dim, fs.r_b) == (m * m + m, m)
    fs = solve_fe_star(heisenberg_kv_connection())
    assert (fs.space.dim, fs.r_b) == (12, 3)
    fs = solve_fe_star(cartan_connection(so3(), "zero"))
    assert (fs.space.dim, fs.r_b) == (0, 0)
    for kind in ("minus", "plus"):
        fs = solve_fe_star(cartan_connection(so3(), kind))
        assert (fs.space.dim, fs.r_b) == (3, 3)


def test_fe_star_space_is_invariant_and_compatible(rng):
    # re-verify the defining properties from outside the solver
    for conn in (heisenberg_kv_connection(),
                 random_torsion_free(random_lie(rng, max_dim=3), rng)):
        fs = solve_fe_star(conn)
        ops = dense_fe_star_operators(conn)
        compat = dense_fe_star_compat(conn, ops)
        m = conn.dim
        for w in fs.space.basis:
            for op in ops:
                assert fs.space.contains(linalg.mat_vec(op, w))
            for f in compat:
                assert all(x == 0 for x in linalg.mat_vec(f, w))
        proj = [w[:m] for w in fs.space.basis]
        assert fs.r_b == (linalg.rank(proj) if proj else 0)


@st.composite
def fe_connections(draw):
    """Torsion-free connections of dims 0-4: half a pool bracket plus a few
    symmetric cells (sparse form), or that connection after a dense change
    of basis (dense-conjugated form)."""
    L = draw(st.sampled_from([abelian(0)] + lie_pool(4)))
    m = L.dim
    s = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    if m:
        idx = st.integers(0, m - 1)
        value = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2)))
        for i, j, k, v in draw(st.lists(st.tuples(idx, idx, idx, value),
                                        max_size=m)):
            s[i][j][k] = s[j][i][k] = v
    gamma = dense_product(m, tuple(
        tuple(tuple(L.c[i][j][k] / 2 + s[i][j][k] for k in range(m))
              for j in range(m)) for i in range(m)))
    if m and draw(st.booleans()):
        p = rand_invertible(m, draw(st.randoms(use_true_random=False)))
        return InvariantConnection(conjugate_lie(L, p),
                                   conjugate_product(gamma, p))
    return InvariantConnection(L, gamma)


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(fe_connections())
def test_fe_star_matches_dense_solver(conn):
    m = conn.dim
    n = m + m * m
    dense_ops = dense_fe_star_operators(conn)
    ops = _fe_star_operators(conn)
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(m)]
    for i, a, l, v in ops.nonzeros:
        table[i][l][a] = Fraction(v, ops.den)
    assert [tuple(map(tuple, op)) for op in table] == dense_ops
    assert_rows_match(_fe_star_compatibility(conn, ops), [
        row for f in dense_fe_star_compat(conn, dense_ops) for row in f], n)
    fs, ref = solve_fe_star(conn), dense_solve_fe_star(conn)
    assert (fs.space.basis, fs.r_b, fs.shrink_steps) == \
        (ref.space.basis, ref.r_b, ref.shrink_steps)


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(fe_connections())
def test_fe_star_steps_match_the_fraction_annihilators(conn):
    # every stabilization step builds the closure rows that Fraction
    # annihilators give; the whole solve is the same with them and with the
    # former walk on the compatible kernel, and it makes one elimination
    # per step and one for the space, with none before the walk
    n = conn.dim + conn.dim ** 2
    ops = _fe_star_operators(conn)
    into = spaces.accumulate((l, (k, a), v) for k, a, l, v in ops.nonzeros)
    ann = linalg.sparse_row_space(_fe_star_compatibility(conn, ops), n)[0]
    while len(ann) < n:
        rows = spaces._closure_rows(ann, into)
        assert rows == fraction_closure_rows(ann, into)
        new_ann = linalg.sparse_row_space(rows, n)[0]
        if len(new_ann) == len(ann):
            break
        ann = new_ann
    fs = solve_fe_star(conn)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "_closure_rows", fraction_closure_rows)
        assert fs == solve_fe_star(conn)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "largest_invariant", lambda rows, ops, n:
                      basis_largest_invariant(
                          *linalg.sparse_nullspace(rows, n), ops, n))
        assert fs == solve_fe_star(conn)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("sparse_row_space", "sparse_nullspace"):
            def counted(rows, ncols, real=getattr(linalg, name)):
                calls.append(len(rows))
                return real(rows, ncols)
            patch.setattr(linalg, name, counted)
        solve_fe_star(conn)
    assert len(calls) == fs.shrink_steps + 2


def _nullspace_answering(monkeypatch, answer):
    """Make the k-th nullspace call, of dense or of sparse rows, return
    answer(k, calls), where calls holds the true results of calls 1..k."""
    calls = []

    def answering(real):
        def patched(rows, ncols=None):
            calls.append(real(rows, ncols))
            return answer(len(calls), calls)
        return patched
    for name in ("nullspace", "sparse_nullspace"):
        monkeypatch.setattr(linalg, name, answering(getattr(linalg, name)))


def test_fe_star_rejects_a_space_violating_compatibility(monkeypatch):
    # the first kernel ignores the compatibility rows: all of R^n
    conn = cartan_connection(so3(), "zero")
    everything = (tuple({j: 1} for j in range(12)), (1,) * 12)
    _nullspace_answering(monkeypatch, lambda k, calls: everything
                         if k == 1 else calls[-1])
    with pytest.raises(KoszulError, match="violates compatibility"):
        solve_fe_star(conn)


def test_fe_star_rejects_a_space_that_is_not_invariant(monkeypatch):
    # the walk's one kernel is replaced by the compatible kernel, which
    # so3's half-bracket connection does not leave invariant
    conn = cartan_connection(so3(), "zero")
    compatible = linalg.sparse_nullspace(_fe_star_compatibility(
        conn, _fe_star_operators(conn)), 12)
    _nullspace_answering(monkeypatch, lambda k, calls: compatible)
    with pytest.raises(KoszulError, match="not invariant"):
        solve_fe_star(conn)


def test_g_nabla_rejects_a_space_not_closed(monkeypatch):
    # span(e0, e1) is not closed: e0·e1 = e2 in the Heisenberg KV product
    conn = heisenberg_kv_connection()
    e = linalg.identity(3)
    monkeypatch.setattr(spaces, "from_conditions", lambda rows, m:
                        span(m, e[:2]))
    with pytest.raises(ConformanceMismatch, match="not closed"):
        g_nabla_subalgebra(conn)


def test_fe_double_star_agrees_when_torsion_free(rng):
    conn = heisenberg_kv_connection()
    a = solve_fe_star(conn)
    b = solve_fe_double_star(conn)
    assert a.space.basis == b.space.basis and a.r_b == b.r_b
    with pytest.raises(UnsupportedOperation):
        solve_fe_double_star(cartan_connection(so3(), "plus"))


def test_g_nabla_subalgebra_closure():
    conn = heisenberg_kv_connection()
    space, closed = g_nabla_subalgebra(conn)
    assert closed is True
    for a in space.basis:
        for b in space.basis:
            assert space.contains(conn.gamma.mult(a, b))
    # non-KV coefficients: no closure claim
    space, closed = g_nabla_subalgebra(aff1_symplectic_connection())
    assert closed is None


def test_kernel_image_split_reports(rng):
    g = identity_form(3)
    phi = linalg.mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    rep = kernel_image_split(phi, g)
    assert rep.adjoint_type == "symmetric"
    assert rep.dims_complementary and rep.orthogonal
    skew = linalg.mat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    rep = kernel_image_split(skew, g)
    assert rep.adjoint_type == "skew"
    assert rep.dims_complementary and rep.orthogonal
    with pytest.raises(NotSelfOrSkewAdjoint):
        kernel_image_split(linalg.mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), g)
    with pytest.raises(ValidationError):
        kernel_image_split(phi, BilinearForm(
            3, linalg.mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]]), "symmetric"))
