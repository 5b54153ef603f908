from fractions import Fraction
from itertools import product

import pytest

from koszul import linalg
from koszul.algebra import (
    BilinearProduct,
    LieAlgebra,
    abelian,
    associator_defect,
    commutator_bracket,
    conjugate_lie,
    conjugate_product,
    direct_sum_products,
    jacobi_defect,
    killing_form,
    kv_anomaly,
    lie_from_sparse,
    product_from_sparse,
    zero_product,
    zero_table3,
)
from koszul.catalog import aff1, heisenberg, heisenberg_kv, sl2, so3
from koszul.errors import JacobiViolation, ValidationError

import conftest
from conftest import rand_fraction, rand_invertible
from oracles import (
    associator_entry,
    jacobi_entry,
    killing_entry,
    kv_anomaly_entry,
    left_matrix,
)


def random_table(rng, m):
    return tuple(
        tuple(tuple(rand_fraction(rng) for _ in range(m)) for _ in range(m))
        for _ in range(m))


def random_skew_table(rng, m):
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                v = rand_fraction(rng)
                c[i][j][k] = v
                c[j][i][k] = -v
    return tuple(tuple(tuple(r) for r in pl) for pl in c)


def test_jacobi_defect_matches_oracle(rng):
    for _ in range(20):
        m = rng.randint(1, 3)
        c = random_skew_table(rng, m)
        d = dict(jacobi_defect(c).items())
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    for l in range(m):
                        assert d[(i, j, k, l)] == jacobi_entry(c, i, j, k, l)


def test_lie_constructor_enforces_axioms():
    with pytest.raises(ValidationError):
        LieAlgebra(2, (((Fraction(1), Fraction(0)),) * 2,) * 2)
    # skew but failing Jacobi: [[e2,e0],e1] = [e0,e1] = e2 survives the cyclic sum
    with pytest.raises(JacobiViolation):
        lie_from_sparse(3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 0, 1)])
    with pytest.raises(ValidationError):
        LieAlgebra(2, zero_table3(3))


def test_catalog_algebras_satisfy_jacobi():
    for L in (abelian(3), heisenberg(), so3(), sl2(), aff1()):
        assert jacobi_defect(L.c).is_zero()


def test_bracket_bilinearity_and_skewness(rng):
    L = so3()
    for _ in range(10):
        u = [rand_fraction(rng) for _ in range(3)]
        v = [rand_fraction(rng) for _ in range(3)]
        w = [rand_fraction(rng) for _ in range(3)]
        a = rand_fraction(rng)
        lhs = L.bracket(linalg.vec_add(u, linalg.vec_scale(a, v)), w)
        rhs = linalg.vec_add(L.bracket(u, w),
                             linalg.vec_scale(a, L.bracket(v, w)))
        assert lhs == rhs
        assert L.bracket(u, v) == linalg.vec_scale(-1, L.bracket(v, u))


def test_associator_and_kv_anomaly_match_oracles(rng):
    for _ in range(15):
        m = rng.randint(1, 3)
        p = BilinearProduct(m, random_table(rng, m))
        da = dict(associator_defect(p).items())
        dk = dict(kv_anomaly(p).items())
        for idx in product(range(m), repeat=4):
            assert da[idx] == associator_entry(p.gamma, *idx)
            assert dk[idx] == kv_anomaly_entry(p.gamma, *idx)


def test_admissible_pools():
    for p in conftest.kv_pool():
        assert p.is_kv
    for p in conftest.assoc_pool():
        assert p.is_associative
    # associative implies left-symmetric; the converse fails, e.g. e1·e0 = e0
    p = product_from_sparse(2, [(1, 0, 0, 1)])
    assert p.is_kv and not p.is_associative


def test_commutator_of_kv_product_is_lie(rng):
    for _ in range(10):
        p = conftest.random_kv(rng)
        L = commutator_bracket(p)  # constructor re-checks Jacobi
        for i in range(p.dim):
            for j in range(p.dim):
                e = linalg.identity(p.dim)
                want = linalg.vec_sub(p.mult(e[i], e[j]), p.mult(e[j], e[i]))
                assert L.bracket(e[i], e[j]) == want


def test_left_right_matrices(rng):
    p = heisenberg_kv()
    e = linalg.identity(3)
    for i in range(3):
        assert p.left_matrices[i] == left_matrix(p, e[i])
        for j in range(3):
            col_l = tuple(p.left_matrices[i][k][j] for k in range(3))
            assert col_l == p.mult(e[i], e[j])
            col_r = tuple(p.right_matrix(e[j])[k][i] for k in range(3))
            assert col_r == p.mult(e[i], e[j])


def test_killing_form_values_and_invariance(rng):
    K = killing_form(so3())
    assert K.matrix == linalg.mat_scale(-2, linalg.identity(3))
    for L in (heisenberg(), sl2(), aff1()):
        K = killing_form(L)
        m = L.dim
        for i in range(m):
            for j in range(m):
                assert K.matrix[i][j] == killing_entry(L.c, i, j)
        # ad-invariance: K([x,y],z) + K(y,[x,z]) = 0
        for _ in range(5):
            x = [rand_fraction(rng) for _ in range(m)]
            y = [rand_fraction(rng) for _ in range(m)]
            z = [rand_fraction(rng) for _ in range(m)]
            s = K.evaluate(L.bracket(x, y), z) + K.evaluate(y, L.bracket(x, z))
            assert s == 0
    # nilpotent: Killing form of the Heisenberg algebra is degenerate
    assert not killing_form(heisenberg()).is_nondegenerate


def test_conjugation_transports_the_product(rng):
    for _ in range(10):
        p = conftest.random_kv(rng)
        m = p.dim
        pm = rand_invertible(m, rng)
        q = conjugate_product(p, pm)
        pinv = linalg.inverse(pm)
        u = [rand_fraction(rng) for _ in range(m)]
        v = [rand_fraction(rng) for _ in range(m)]
        lhs = q.mult(u, v)
        rhs = linalg.mat_vec(
            pinv, p.mult(linalg.mat_vec(pm, u), linalg.mat_vec(pm, v)))
        assert lhs == tuple(rhs)
        assert q.is_kv


def test_conjugation_preserves_lie_structure(rng):
    for _ in range(8):
        L = conftest.random_lie(rng, max_dim=3)
        q = conjugate_lie(L, rand_invertible(L.dim, rng))
        assert jacobi_defect(q.c).is_zero()


def test_direct_sum_blocks_do_not_interact():
    p = direct_sum_products(heisenberg_kv(), zero_product(2))
    assert p.dim == 5
    e = linalg.identity(5)
    for i in range(3):
        for j in range(3, 5):
            assert p.mult(e[i], e[j]) == (Fraction(0),) * 5
            assert p.mult(e[j], e[i]) == (Fraction(0),) * 5
    assert p.is_kv


def test_product_from_sparse_rejects_bad_indices():
    with pytest.raises(ValidationError):
        product_from_sparse(2, [(0, 0, 2, 1)])
