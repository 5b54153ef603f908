import random
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from koszul import linalg
from koszul.algebra import abelian, conjugate_lie, zero_product
from koszul.catalog import aff1_symplectic_connection, so3
from koszul.connections import (
    InvariantConnection,
    alpha_connection,
    amari_dual,
    cartan_connection,
    curvature,
    curvature_operators,
    form_dual,
    is_locally_flat,
    is_torsion_free,
    torsion,
)
from koszul.errors import SingularMetric, ValidationError
from koszul.forms import BilinearForm

from conftest import (lie_pool, rand_fraction, rand_invertible, random_lie,
                      random_metric, random_torsion_free)
from oracles import (curvature_entry, dense_form_dual, dense_product,
                     torsion_entry)


def test_torsion_matches_oracle(rng):
    for _ in range(15):
        L = random_lie(rng, max_dim=3)
        m = L.dim
        table = tuple(
            tuple(tuple(rand_fraction(rng) for _ in range(m)) for _ in range(m))
            for _ in range(m))
        conn = InvariantConnection(L, dense_product(m, table))
        d = dict(torsion(conn).items())
        for idx in product(range(m), repeat=3):
            assert d[idx] == torsion_entry(table, L.c, *idx)


def test_curvature_matches_oracle(rng):
    for _ in range(15):
        L = random_lie(rng, max_dim=3)
        conn = random_torsion_free(L, rng)
        gam = conn.gamma.gamma
        d = dict(curvature(conn).items())
        for idx in product(range(L.dim), repeat=4):
            assert d[idx] == curvature_entry(gam, L.c, *idx)


def test_cartan_connection_torsions():
    # minus and plus carry torsion -/+ the bracket, zero is torsion-free
    L = so3()
    tm = dict(torsion(cartan_connection(L, "minus")).items())
    tp = dict(torsion(cartan_connection(L, "plus")).items())
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert tm[(i, j, k)] == -L.c[i][j][k]
                assert tp[(i, j, k)] == L.c[i][j][k]
    assert is_torsion_free(cartan_connection(L, "zero"))
    with pytest.raises(ValidationError):
        cartan_connection(L, "half")


def test_cartan_connections_are_curvature_flat_on_so3():
    # all three canonical connections on a Lie group are curvature-free in
    # the invariant frame; only the zero one can fail, by Jacobi it does not
    for kind in ("minus", "zero", "plus"):
        conn = cartan_connection(so3(), kind)
        if kind == "zero":
            assert not curvature(conn).is_zero()
        else:
            assert curvature(conn).is_zero()


def test_local_flatness_verdicts():
    flat, why = is_locally_flat(cartan_connection(abelian(3), "zero"))
    assert flat and why is None
    flat, why = is_locally_flat(cartan_connection(so3(), "zero"))
    assert not flat and "curvature" in why
    flat, why = is_locally_flat(cartan_connection(so3(), "plus"))
    assert not flat and "torsion" in why
    flat, why = is_locally_flat(aff1_symplectic_connection())
    assert not flat and "curvature" in why


def test_curvature_operators_match_tensor(rng):
    L = random_lie(rng, max_dim=3)
    conn = random_torsion_free(L, rng)
    ops = curvature_operators(conn)
    d = dict(curvature(conn).items())
    m = L.dim
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    assert ops[i][j][l][k] == d[(i, j, k, l)]


def test_amari_dual_is_an_involution_and_adjoint(rng):
    for _ in range(12):
        L = random_lie(rng, max_dim=4)
        conn = random_torsion_free(L, rng)
        g = random_metric(L.dim, rng)
        dual = amari_dual(conn, g)
        again = amari_dual(dual, g)
        assert again.gamma.gamma == conn.gamma.gamma
        # defining identity g(nabla*_x y, z) = -g(y, nabla_x z)
        m = L.dim
        e = linalg.identity(m)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    lhs = g.evaluate(dual.nabla(e[i], e[j]), e[k])
                    rhs = -g.evaluate(e[j], conn.nabla(e[i], e[k]))
                    assert lhs == rhs


def test_amari_dual_rejects_bad_metrics():
    conn = cartan_connection(so3(), "zero")
    with pytest.raises(SingularMetric):
        amari_dual(conn, BilinearForm(3, linalg.zeros(3, 3), "symmetric"))
    with pytest.raises(SingularMetric):
        amari_dual(conn, BilinearForm(
            3, linalg.mat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]), "skew"))


@st.composite
def dual_inputs(draw):
    """A pool algebra or its dense conjugate, operators that are its
    brackets (ad) or a torsion-free connection on it, and a random
    nondegenerate form of no particular symmetry."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    L = draw(st.sampled_from(lie_pool(4)))
    if draw(st.booleans()):
        L = conjugate_lie(L, rand_invertible(L.dim, rng))
    ad = draw(st.booleans())
    ops = L if ad else random_torsion_free(L, rng).gamma
    return L, ops, rand_invertible(L.dim, rng)


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(dual_inputs())
def test_form_dual_matches_the_dense_products(inputs):
    L, ops, gm = inputs
    # equal tables: equal denominators and numerators
    assert form_dual(L, ops.sparse, gm) == dense_form_dual(
        L, L.ad_matrices if ops is L else ops.left_matrices, gm)


def test_form_dual_refuses_a_degenerate_form():
    L = so3()
    for gm in (linalg.zeros(3, 3),
               linalg.mat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
               linalg.mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]])):
        with pytest.raises(SingularMetric, match="degenerate"):
            form_dual(L, L.sparse, gm)


def test_alpha_family_interpolates(rng):
    L = random_lie(rng, max_dim=3)
    conn = random_torsion_free(L, rng)
    g = random_metric(L.dim, rng)
    dual = amari_dual(conn, g)
    assert alpha_connection(conn, dual, 1).gamma.gamma == conn.gamma.gamma
    assert alpha_connection(conn, dual, -1).gamma.gamma == dual.gamma.gamma
    mid = alpha_connection(conn, dual, 0)
    m = L.dim
    for i in range(m):
        for j in range(m):
            for k in range(m):
                want = (conn.gamma.gamma[i][j][k]
                        + dual.gamma.gamma[i][j][k]) / 2
                assert mid.gamma.gamma[i][j][k] == want
    # the alpha = 0 connection is g-self-dual
    self_dual = amari_dual(mid, g)
    assert self_dual.gamma.gamma == mid.gamma.gamma


def test_connection_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        InvariantConnection(so3(), zero_product(2))
