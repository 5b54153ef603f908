from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from koszul import linalg, spaces
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
from koszul.forms import BilinearForm, identity_form
from koszul.gauge import (
    _fe_star_compatibility,
    _fe_star_operators,
    g_nabla_subalgebra,
    kernel_image_split,
    parallel_forms,
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
    dense_fe_star_compat,
    dense_fe_star_operators,
    dense_product,
    dense_solve_fe_star,
    fraction_invariance_rows,
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
    # every stabilization step builds the rows the former Fraction
    # annihilators gave, and the whole solve is the former one
    n = conn.dim + conn.dim ** 2
    ops = _fe_star_operators(conn)
    into = spaces.accumulate((l, (k, a), v) for k, a, l, v in ops.nonzeros)
    basis = linalg.sparse_nullspace(_fe_star_compatibility(conn, ops), n)[0]
    while basis:
        rows = spaces._invariance_rows(basis, into, n)
        assert rows == fraction_invariance_rows(basis, into, n)
        new_basis = linalg.sparse_nullspace(rows, n)[0]
        if len(new_basis) == len(basis):
            break
        basis = new_basis
    fs = solve_fe_star(conn)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spaces, "_invariance_rows", fraction_invariance_rows)
        assert fs == solve_fe_star(conn)


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
    # stabilization stops at the compatible kernel, which so3's half-bracket
    # connection does not leave invariant
    conn = cartan_connection(so3(), "zero")
    _nullspace_answering(monkeypatch, lambda k, calls: calls[0]
                         if k == 3 else calls[-1])
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
