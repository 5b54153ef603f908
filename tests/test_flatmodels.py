import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from koszul import flatmodels, linalg
from koszul.algebra import product_from_sparse, zero_product
from koszul.catalog import heisenberg_kv
from koszul.errors import NotAssociative, NotRightIdeal, ValidationError
from koszul.flatmodels import (
    TABLE_ENTRY_BOUND,
    TOWER_LEVEL_CAP,
    affine_algebra,
    geometric_completeness,
    matrix_algebra,
    simple_right_ideal_check,
    tower_dims,
)

import conftest
from conftest import (conjugate_product, direct_sum_products, rand_fraction,
                      rand_invertible)
from oracles import (dense_right_ideal_core, dense_right_matrix, gauss_rank,
                     jointly_nilpotent, root_analysis_completeness,
                     sampling_completeness)


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


@pytest.mark.parametrize("build, entries", [
    (affine_algebra, lambda n: n ** 3 + n ** 2),
    (matrix_algebra, lambda n: n ** 3)])
def test_a_table_above_the_entry_bound_is_refused_before_it_is_built(
        build, entries):
    below = 46
    assert entries(below) <= TABLE_ENTRY_BOUND < entries(below + 1)
    with mock.patch.object(flatmodels, "SparseTable") as table, \
            mock.patch.object(flatmodels, "BilinearProduct"):
        with pytest.raises(ValidationError,
                           match=f"estimated at {entries(below + 1)},"):
            build(below + 1)
        table.assert_not_called()
        build(below)
        table.assert_called_once()


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
    assert rep.verdict == "incomplete" and rep.method == "idempotent"
    assert _psi_zero(matrix_algebra(2), rep.witness)


# the complex numbers in the basis (1 + 3i, 2 + i): -1 = (1/5)e_0 - (3/5)e_1
COMPLEX_CONJUGATED = [(0, 0, 0, 4), (0, 0, 1, -6), (0, 1, 0, 3),
                      (0, 1, 1, -2), (1, 0, 0, 3), (1, 0, 1, -2),
                      (1, 1, 0, 1), (1, 1, 1, 1)]


def test_irrational_root_analysis_still_gets_a_rational_witness():
    # no line of the rational-zero search holds a zero of det(R + I) here,
    # though a_star = -1 is one
    p = product_from_sparse(2, COMPLEX_CONJUGATED)
    rep = geometric_completeness(p)
    assert (rep.verdict, rep.method, rep.note) == \
        ("incomplete", "idempotent", "")
    assert rep.witness == (Fraction(1, 5), Fraction(-3, 5))
    assert _psi_zero(p, rep.witness)


def _psi_zero(p, w):
    return linalg.det(linalg.mat_add(p.right_matrix(w),
                                     linalg.identity(p.dim))) == 0


def test_completeness_requires_associativity():
    with pytest.raises(NotAssociative):
        geometric_completeness(product_from_sparse(2, [(1, 0, 0, 1)]))


def test_completeness_determinism():
    a = geometric_completeness(matrix_algebra(2))
    b = geometric_completeness(matrix_algebra(2))
    assert a == b


def _upper(k, strict):
    """(Strictly) upper triangular k x k matrices on their units E_pq."""
    units = [(p, q) for p in range(k) for q in range(k)
             if p < q or (p == q and not strict)]
    index = {u: i for i, u in enumerate(units)}
    return product_from_sparse(len(units), [
        (index[(p, q)], index[(q, s)], index[(p, s)], 1)
        for p, q in units for r, s in units if q == r])


def _augmentation_ideal(n):
    """t·k[t]/t^n in the basis t, ..., t^(n-1)."""
    return product_from_sparse(n - 1, [
        (a, b, a + b + 1, 1) for a in range(n - 1) for b in range(n - 1)
        if a + b + 1 < n - 1])


COMPLETENESS_POOL = conftest.assoc_pool() + [
    matrix_algebra(2), affine_algebra(2).product, _upper(3, strict=False),
    _upper(3, strict=True),
    product_from_sparse(2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                            (1, 1, 0, -1)]),
    _augmentation_ideal(3), _augmentation_ideal(4)]


def _singular_at(p, w) -> bool:
    """det(R_w + I) = 0, from the dense table and plain elimination."""
    r = dense_right_matrix(p.gamma, w)
    n = p.dim
    return gauss_rank([[r[i][j] + (i == j) for j in range(n)]
                       for i in range(n)]) < n


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(bases=st.lists(st.integers(0, len(COMPLETENESS_POOL) - 1),
                      min_size=1, max_size=2),
       change=st.none() | st.integers(0, 2 ** 16))
@example(bases=[7], change=1)  # M_2, dense: the sampling finds no zero
@example(bases=[11], change=0)  # C, dense: no zero on the root grid
@example(bases=[6, 13], change=7)  # aff(1) + t·k[t]/t^4, dense
def test_completeness_matches_the_former_routes(bases, change):
    p = COMPLETENESS_POOL[bases[0]]
    for b in bases[1:]:
        p = direct_sum_products(p, COMPLETENESS_POOL[b])
    assume(p.dim <= 8)
    n = p.dim
    if change is not None:
        p = conjugate_product(p, rand_invertible(n, random.Random(change)))
    rep = geometric_completeness(p)
    rights = tuple(dense_right_matrix(p.gamma, e)
                   for e in linalg.identity(n))
    if rep.verdict == "complete":
        assert jointly_nilpotent(rights, n)
    else:
        assert rep.verdict == "incomplete" and not jointly_nilpotent(rights, n)
        assert _singular_at(p, rep.witness)
    if n <= 2:
        assert rep.verdict == root_analysis_completeness(p)[0]
    sampled = sampling_completeness(p)
    if sampled.verdict != "unknown":
        assert rep.verdict == sampled.verdict


def _quadratic(d):
    """Q(sqrt d) in the basis 1, t with t·t = d."""
    return product_from_sparse(2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                                   (1, 1, 0, d)])


# the associative types of dim <= 2, the quadratic algebras Q(sqrt d) at a
# few split and non-split d; index 9 is the right-unit algebra aff(1)
SMALL_TYPES = [
    product_from_sparse(1, [(0, 0, 0, 1)]),  # Q
    product_from_sparse(2, [(0, 0, 0, 1), (1, 1, 1, 1)]),  # Q x Q
    conftest.truncated_poly(2),  # dual numbers
    *(_quadratic(d) for d in (2, 3, -1, 5, 4, Fraction(1, 4))),
    product_from_sparse(2, [(0, 0, 0, 1), (0, 1, 1, 1)]),  # left unit
    affine_algebra(1).product,  # right unit
    product_from_sparse(2, [(0, 0, 0, 1)]),  # Q + 0
    product_from_sparse(2, [(0, 0, 1, 1)]),  # e·e = f
    zero_product(1), zero_product(2)]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(base=st.integers(0, len(SMALL_TYPES) - 1),
       scale=st.fractions(-4, 4, max_denominator=3).filter(bool),
       change=st.none() | st.integers(0, 2 ** 16))
@example(base=9, scale=Fraction(1), change=0)  # discriminant vanishes
@example(base=5, scale=Fraction(1), change=0)  # C, dense: no zero found
@example(base=5, scale=Fraction(1), change=4)  # C, dense: -e off the axes
def test_small_dim_witness_matches_the_root_analysis(base, scale, change):
    p = SMALL_TYPES[base]
    p = product_from_sparse(p.dim, [(i, j, k, scale * c)
                                    for i, j, k, c in p.sparse.items()])
    n = p.dim
    if change is not None:
        p = conjugate_product(p, rand_invertible(n, random.Random(change)))
    verdict, witness, _ = root_analysis_completeness(p)
    traces = [sum(dense_right_matrix(p.gamma, e)[i][i] for i in range(n))
              for e in linalg.identity(n)]
    if any(traces):
        assert verdict == "incomplete"
    rep = geometric_completeness(p)
    assert rep.verdict == verdict
    if verdict == "complete":
        assert rep.method == "nilpotent"
    elif witness is not None:
        # a zero off both axes is the idempotent witness -e itself
        on_axis = sum(1 for x in witness if x) <= 1
        assert (rep.witness, rep.method, rep.note) == \
            (witness, "exact-roots" if on_axis else "idempotent", "")
    else:
        assert (rep.method, rep.note) == ("idempotent", "")


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
