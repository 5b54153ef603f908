import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszul import linalg
from koszul.algebra import conjugate_product, product_from_sparse, zero_product
from koszul.catalog import heisenberg_kv
from koszul.errors import NotAssociative, NotRightIdeal, ValidationError
from koszul.flatmodels import (
    TOWER_LEVEL_CAP,
    affine_algebra,
    geometric_completeness,
    matrix_algebra,
    simple_right_ideal_check,
    tower_dims,
)

import conftest
from conftest import rand_fraction, rand_invertible
from oracles import dense_right_ideal_core


def as_affine_vec(alg, a_mat, a_vec):
    m = alg.m
    out = [Fraction(0)] * alg.dim
    for p in range(m):
        for q in range(m):
            out[alg.matrix_index(p, q)] = linalg.frac(a_mat[p][q])
    for t in range(m):
        out[alg.vector_index(t)] = linalg.frac(a_vec[t])
    return tuple(out)


def test_affine_algebra_m1_table():
    alg = affine_algebra(1)
    p = alg.product
    assert alg.dim == 2
    e = linalg.identity(2)
    x, y = e[0], e[1]  # x = matrix slot, y = translation slot
    assert p.mult(x, x) == x
    assert p.mult(y, x) == y
    assert p.mult(x, y) == (Fraction(0), Fraction(0))
    assert p.mult(y, y) == (Fraction(0), Fraction(0))
    assert p.is_associative and p.is_kv


def test_affine_product_law(rng):
    # (A,a)·(B,b) = (BA, Ba): composition of affine maps x -> Ax + a,
    # with the second argument's translation discarded by the twist
    for m in (1, 2):
        alg = affine_algebra(m)
        for _ in range(10):
            A = [[rand_fraction(rng) for _ in range(m)] for _ in range(m)]
            B = [[rand_fraction(rng) for _ in range(m)] for _ in range(m)]
            a = [rand_fraction(rng) for _ in range(m)]
            b = [rand_fraction(rng) for _ in range(m)]
            u = as_affine_vec(alg, A, a)
            v = as_affine_vec(alg, B, b)
            got = alg.product.mult(u, v)
            want = as_affine_vec(alg, linalg.mat_mul(B, A),
                                 linalg.mat_vec(B, a))
            assert got == want


def test_affine_algebras_are_associative():
    for m in (1, 2):
        assert affine_algebra(m).product.is_associative


def test_matrix_algebra_multiplies_like_matrices(rng):
    k = 2
    p = matrix_algebra(k)
    for _ in range(10):
        A = [[rand_fraction(rng) for _ in range(k)] for _ in range(k)]
        B = [[rand_fraction(rng) for _ in range(k)] for _ in range(k)]
        got = p.mult(linalg.flatten(A), linalg.flatten(B))
        assert got == linalg.flatten(linalg.mat_mul(A, B))
    assert p.is_associative


def test_tower_dimensions():
    rep = tower_dims(1, 3)
    assert rep.dims == (1, 2, 6, 42)
    assert all(lvl is not None for lvl in rep.levels)
    for lvl in rep.levels:
        assert lvl.dim == lvl.m * lvl.m + lvl.m
        if lvl.dim <= 6:  # dim-42 full check lives in the acceptance suite
            assert lvl.product.is_associative
    # a level that would exceed the cap is reported by dimension only
    rep = tower_dims(2, 3)
    assert rep.dims == (2, 6, 42, 1806)
    assert rep.levels[-1] is None and 1806 > TOWER_LEVEL_CAP
    with pytest.raises(ValidationError):
        tower_dims(1, 4)
    with pytest.raises(ValidationError):
        tower_dims(-1, 1)


def test_completeness_of_nilpotent_products():
    rep = geometric_completeness(heisenberg_kv())
    assert rep.verdict == "complete" and rep.method == "nilpotent"
    rep = geometric_completeness(zero_product(3))
    assert rep.verdict == "complete"


def test_affine1_is_incomplete_with_exact_witness():
    rep = geometric_completeness(affine_algebra(1).product)
    assert rep.verdict == "incomplete" and rep.method == "exact-roots"
    # psi_a = det(R_{a*} + I) vanishes at the witness: recheck from scratch
    w = rep.witness
    p = affine_algebra(1).product
    r = p.right_matrix(w)
    assert linalg.det(linalg.mat_add(r, linalg.identity(2))) == 0
    assert w == (Fraction(-1), Fraction(0))


def test_unital_algebras_are_incomplete():
    # a_star = -1 kills det(R + I) for any algebra with identity
    rep = geometric_completeness(matrix_algebra(2))
    assert rep.verdict == "incomplete"
    assert _psi_zero(matrix_algebra(2), rep.witness)


def _psi_zero(p, w):
    return linalg.det(linalg.mat_add(p.right_matrix(w),
                                     linalg.identity(p.dim))) == 0


def test_completeness_requires_associativity():
    with pytest.raises(NotAssociative):
        geometric_completeness(product_from_sparse(2, [(1, 0, 0, 1)]))


def test_completeness_determinism():
    a = geometric_completeness(matrix_algebra(2), seed=3)
    b = geometric_completeness(matrix_algebra(2), seed=3)
    assert a == b


def test_simple_right_ideal_in_matrix_algebra():
    p = matrix_algebra(2)
    # row span {E00, E01} is a minimal right ideal, so it is effective
    rows = [[1, 0, 0, 0], [0, 1, 0, 0]]
    rep = simple_right_ideal_check(p, rows)
    assert rep.ideal_dim == 2 and rep.core_dim == 0 and rep.simple
    # the whole algebra is a right ideal but contains itself two-sidedly
    rep = simple_right_ideal_check(p, linalg.identity(4))
    assert rep.ideal_dim == 4 and not rep.simple and rep.core_dim == 4


IDEAL_POOL = [matrix_algebra(2), affine_algebra(1).product] + \
    conftest.assoc_pool()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(base=st.integers(0, len(IDEAL_POOL) - 1),
       change=st.none() | st.integers(0, 2 ** 16),
       gens=st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)),
                              min_size=4, max_size=4), max_size=3))
# nonzero cores: the unit of M_2 generates it all, and span(e_1) in aff(1)
# is a two-sided ideal
@example(base=0, change=None, gens=[[1, 0, 0, 1]])
@example(base=0, change=5, gens=[[1, 0, 0, 1]])
@example(base=1, change=None, gens=[[0, 1]])
@example(base=1, change=1, gens=[[0, 1]])
def test_right_ideal_core_matches_dense_oracle(base, change, gens):
    p = IDEAL_POOL[base]
    n = p.dim
    gens = [tuple(Fraction(x) for x in g[:n]) for g in gens]
    if change is not None:
        pm = rand_invertible(n, random.Random(change))
        p = conjugate_product(p, pm)
        gens = [linalg.mat_vec(linalg.inverse(pm), g) for g in gens]
    # the right ideal generated by gens: their span plus gens·A
    rows = gens + [p.mult(g, e) for g in gens for e in linalg.identity(n)]
    rep = simple_right_ideal_check(p, rows)
    core = dense_right_ideal_core(p, linalg.row_space_basis(rows))
    assert (rep.core_basis, rep.core_dim, rep.simple) == \
        (core, len(core), not core)


def test_non_ideal_is_rejected():
    p = matrix_algebra(2)
    with pytest.raises(NotRightIdeal):
        simple_right_ideal_check(p, [[1, 0, 0, 0]])  # E00 alone: E00·E01 = E01
    with pytest.raises(ValidationError):
        simple_right_ideal_check(p, [[1, 0, 0]])


def test_zero_ideal_is_vacuously_simple():
    p = matrix_algebra(2)
    rep = simple_right_ideal_check(p, [])
    assert rep.ideal_dim == 0 and rep.core_dim == 0 and rep.simple
    assert rep.core_basis == ()
