"""Differential tests: the sparse tensor contractions against dense oracles.

Every tensor the library computes from the nonzeros of a structure-constant
table, and each zero-skipping matrix product, is compared, entry by entry
and zeros included, with the dense formula it replaced (kept in
oracles.py). So is every builder of a table, through its dense view, and
every reader of one (`mult`, `left_matrices`, `right_matrix` and the
condition rows of `invariants`, `gauge`, `forms` and `cohomology`, each
row a nonzero multiple of the dense oracle's, or the same canonical
kernel). Inputs cover dimensions 0-6, sparse tables (few nonzeros, or
a textbook algebra under a monomial basis change) and dense ones, and
tables that are not antisymmetric or fail Jacobi, for which the
constructor's error must be the dense one verbatim. The two alternating
contractions, which accumulate half a tensor (the Jacobiator at sorted
triples, the bracket-mode operator defect at i < j), are also compared with
the two-sided sums they replaced, on skew tables that may fail Jacobi and
on their dense conjugates. The Jacobiator and the operator sums (so the
associator, the KV anomaly and the curvature) have two routes, a loop over
the nonzeros and one over packed rows; each is forced in turn, whatever
the route rule would pick, on entries of up to 1,100 bits, and both must
give the oracles' tensors and errors.
"""

import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from koszul import algebra, catalog, cli, invariants, linalg, spaces
from koszul.algebra import (
    BilinearProduct,
    DefectTensor,
    LieAlgebra,
    SparseTable,
    abelian,
    associator_defect,
    commutator_bracket,
    jacobi_defect,
    killing_form,
    kv_anomaly,
    lie_from_sparse,
    operator_defect,
    product_from_sparse,
    zero_product,
)
from koszul.catalog import aff1, heisenberg, heisenberg_kv, sl2, so3
from koszul.cohomology import (kv_degree_zero_space, scalar_coboundary_rows,
                               second_order_rows)
from koszul.connections import (
    CARTAN_KINDS,
    InvariantConnection,
    alpha_connection,
    amari_dual,
    cartan_connection,
    curvature,
    curvature_operators,
    is_locally_flat,
    torsion,
)
from koszul.errors import KoszulError, ValidationError
from koszul.flatmodels import affine_algebra, matrix_algebra
from koszul.forms import SKEW, SYMMETRIC, BilinearForm, form_space
from koszul.gauge import (_fe_star_compatibility, _fe_star_operators,
                          g_nabla_subalgebra, parallel_forms, parallel_rows,
                          solve_gauge_equation)
from koszul.spaces import LinearSolutionSpace, from_conditions

from conftest import (assert_rows_match, assoc_pool, conjugate_lie,
                      conjugate_product, direct_sum_lie, kv_pool,
                      rand_invertible)
from oracles import (
    FractionDefectTensor,
    bracket_rank_perfect,
    check_rows,
    cyclic_sum_symplectic_oracle,
    dense_ad_invariance_rows,
    dense_affine_algebra,
    dense_alpha_connection,
    dense_amari_dual,
    dense_associator_defect,
    dense_associator_rows,
    dense_cartan_connection,
    dense_commutator_bracket,
    dense_curvature,
    dense_curvature_operators,
    dense_fe_star_compat,
    dense_fe_star_compatibility_rows,
    dense_fe_star_operators,
    dense_gauge_equation_rows,
    dense_hessian_rows,
    dense_kernel_basis,
    dense_parallel_rows,
    dense_jacobi_defect,
    dense_killing_form,
    dense_kv_anomaly,
    dense_left_matrices,
    dense_lie,
    dense_lie_check,
    dense_lie_from_sparse,
    dense_mat_mul,
    dense_mat_vec,
    dense_matrix_algebra,
    dense_mult,
    dense_parity_rows,
    dense_product,
    dense_product_from_sparse,
    dense_right_matrix,
    dense_skew_cocycle_rows,
    dense_torsion,
    fraction_condition_rows,
    fraction_defect_doc,
    fractions_over,
    full_hessian_rows,
    full_parallel_rows,
    json_report,
    hessian_rows,
    nested_jacobi_defect,
    parity_row_form_space,
    parity_rows,
    scaled,
    skew_cocycle_rows,
    skew_pairs,
    sparse_of,
    tuple_associator_defect,
    tuple_curvature,
    tuple_jacobi_defect,
    tuple_kv_anomaly,
    tuple_torsion,
    two_sided_operator_defect,
    walk,
    zero_table3,
)

CHECKS = settings(derandomize=True, database=None, deadline=None,
                  max_examples=30,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.data_too_large])

MAX_DIM = 6
rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
nonzero_rationals = rationals.filter(bool)


def _nested(t):
    return tuple(tuple(tuple(r) for r in pl) for pl in t)


def _zeros(m):
    return [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]


@st.composite
def tables(draw, skew=False, dim=None, values=rationals, max_dim=MAX_DIM):
    """A rank-3 table: sparse (a few nonzeros) or dense (all cells drawn),
    its entries drawn from `values`."""
    m = draw(st.integers(0, max_dim)) if dim is None else dim
    t = _zeros(m)
    if draw(st.booleans()):
        cells = [(i, j, k) for i, j, k in product(range(m), repeat=3)
                 if not skew or i < j]
        drawn = draw(st.lists(values, min_size=len(cells),
                              max_size=len(cells)))
        filled = zip(cells, drawn)
    else:
        idx = st.integers(0, max(m - 1, 0))
        filled = [((i, j, k), v) for i, j, k, v in draw(st.lists(
            st.tuples(idx, idx, idx, values.filter(bool)),
            max_size=2 * m + 2)) if m and (not skew or i != j)]
    for (i, j, k), v in filled:
        t[i][j][k] = v
        if skew:
            t[j][i][k] = -v
    return m, _nested(t)


def _pool():
    base = [abelian(1), abelian(2), heisenberg(), so3(), sl2(), aff1()]
    sums = [direct_sum_lie(aff1(), aff1()),
            direct_sum_lie(heisenberg(), aff1()),
            direct_sum_lie(so3(), sl2()),
            direct_sum_lie(heisenberg(), so3())]
    return [abelian(0)] + base + sums


POOL = _pool()


@st.composite
def basis_changes(draw, m):
    """Monomial (permutation times scaling) or dense unitriangular product."""
    if draw(st.booleans()):
        perm = draw(st.permutations(range(m)))
        scale = draw(st.lists(nonzero_rationals, min_size=m, max_size=m))
        return tuple(tuple(scale[c] if r == perm[c] else Fraction(0)
                           for c in range(m)) for r in range(m))
    low = draw(st.lists(rationals, min_size=m * m, max_size=m * m))
    up = draw(st.lists(rationals, min_size=m * m, max_size=m * m))
    lo = [[Fraction(1) if r == c else low[r * m + c] if r > c else Fraction(0)
           for c in range(m)] for r in range(m)]
    hi = [[Fraction(1) if r == c else up[r * m + c] if r < c else Fraction(0)
           for c in range(m)] for r in range(m)]
    return dense_mat_mul(lo, hi)


@st.composite
def lie_algebras(draw):
    base = draw(st.sampled_from(POOL))
    if base.dim == 0:
        return base
    return conjugate_lie(base, draw(basis_changes(base.dim)))


@st.composite
def connections(draw):
    L = draw(lie_algebras())
    _, gam = draw(tables(dim=L.dim))
    return InvariantConnection(L, dense_product(L.dim, gam))


def assert_tensor(t, dense):
    """A DefectTensor equals the dense nested tuple in every query."""
    full = list(walk(dense))
    nz = [(idx, v) for idx, v in full if v]
    assert t.entries == dense
    assert list(t.items()) == full
    assert list(t.nonzeros.items()) == nz
    assert t.is_zero() == (not nz)
    assert t.first_nonzero() == (nz[0] if nz else None)
    assert t.max_abs() == max((abs(v) for _, v in full), default=Fraction(0))


def _error(fn, *args):
    try:
        fn(*args)
    except KoszulError as exc:
        return type(exc).__name__, str(exc)
    return None


@CHECKS
@given(tables(skew=True))
def test_jacobi_defect_matches_dense(mt):
    m, c = mt
    assert_tensor(jacobi_defect(m, sparse_of(c)), dense_jacobi_defect(c))


@CHECKS
@given(tables())
# e1 nonzero at (1,0,0) only: the first failing index (0,1,0) is a zero entry
@example((2, _nested([[[0, 0], [0, 0]], [[Fraction(1), 0], [0, 0]]])))
def test_antisymmetry_errors_match_dense(mt):
    m, c = mt
    assert _error(dense_lie, m, c) == _error(dense_lie_check, m, c)


@CHECKS
@given(st.one_of(tables(skew=True),
                 lie_algebras().map(lambda L: (L.dim, L.c))))
def test_jacobi_errors_match_dense(mt):
    m, c = mt
    assert _error(dense_lie, m, c) == _error(dense_lie_check, m, c)


@CHECKS
@given(tables())
def test_associator_and_kv_anomaly_match_dense(mt):
    m, g = mt
    p = dense_product(m, g)
    assert_tensor(associator_defect(p), dense_associator_defect(p))
    assert_tensor(kv_anomaly(p), dense_kv_anomaly(p))


@CHECKS
@given(lie_algebras())
def test_killing_form_matches_dense(L):
    assert killing_form(L).matrix == dense_killing_form(L)


@CHECKS
@given(connections())
def test_torsion_and_curvature_match_dense(conn):
    assert_tensor(torsion(conn), dense_torsion(conn))
    assert_tensor(curvature(conn), dense_curvature(conn))
    assert curvature_operators(conn) == dense_curvature_operators(conn)


@st.composite
def matrix_pairs(draw):
    n, k, p = (draw(st.integers(0, MAX_DIM)) for _ in range(3))
    sparse = draw(st.booleans())
    cell = st.one_of(st.just(Fraction(0)), rationals) if sparse else rationals

    def mat(r, c):
        return tuple(tuple(draw(cell) for _ in range(c)) for _ in range(r))
    return mat(n, k), mat(k, p)


@CHECKS
@given(matrix_pairs())
def test_mat_mul_and_mat_vec_match_dense(ab):
    a, b = ab
    assert linalg.mat_mul(a, b) == dense_mat_mul(a, b)
    for col in linalg.transpose(b):
        assert linalg.mat_vec(a, col) == dense_mat_vec(a, col)


# Builders write nonzeros directly; each dense view must equal the table
# the former dense builder returned, and each reader the former dense one.

PRODUCT_POOL = (kv_pool() + assoc_pool()
                + [zero_product(0), heisenberg_kv(), matrix_algebra(2),
                   affine_algebra(2).product])


@st.composite
def products(draw):
    """A pool or catalog product, as is or under a basis change, or a table."""
    if draw(st.booleans()):
        _, g = draw(tables())
        return dense_product(len(g), g)
    base = draw(st.sampled_from(PRODUCT_POOL))
    if base.dim == 0 or draw(st.booleans()):
        return base
    return conjugate_product(base, draw(basis_changes(base.dim)))


@CHECKS
@given(st.integers(0, 4), st.lists(st.tuples(
    st.integers(-1, 4), st.integers(0, 4), st.integers(0, 4), rationals),
    max_size=8))
def test_from_sparse_builders_match_dense(m, entries):
    old = _error(dense_product_from_sparse, m, entries)
    assert _error(product_from_sparse, m, entries) == old
    if old is None:
        assert product_from_sparse(m, entries).gamma == \
            dense_product_from_sparse(m, entries)
    old = _error(dense_lie_from_sparse, m, entries)
    if old is None:
        old = _error(dense_lie, m, dense_lie_from_sparse(m, entries))
    assert _error(lie_from_sparse, m, entries) == old
    if old is None:
        assert lie_from_sparse(m, entries).c == \
            dense_lie_from_sparse(m, entries)


@CHECKS
@given(products())
def test_product_builders_match_dense(p):
    old = dense_commutator_bracket(p)
    assert _error(commutator_bracket, p) == _error(dense_lie, p.dim, old)
    if _error(commutator_bracket, p) is None:
        assert commutator_bracket(p).c == old


@CHECKS
@given(lie_algebras())
def test_lie_builders_match_dense(L):
    for kind in CARTAN_KINDS:
        assert cartan_connection(L, kind).gamma.gamma == \
            dense_cartan_connection(L, kind)


@CHECKS
@given(connections(), st.data())
def test_dual_and_alpha_connections_match_dense(conn, data):
    m = conn.dim
    p = data.draw(basis_changes(m)) if m else ()
    g = BilinearForm(m, dense_mat_mul(linalg.transpose(p), p) if m else (),
                     "symmetric")
    dual = amari_dual(conn, g)
    assert dual.gamma.gamma == dense_amari_dual(conn, g)
    alpha = data.draw(rationals)
    assert alpha_connection(conn, dual, alpha).gamma.gamma == \
        dense_alpha_connection(conn, dual, alpha)


def test_closed_form_builders_match_dense():
    for m in range(4):
        assert abelian(m).c == zero_table3(m)
        assert zero_product(m).gamma == zero_table3(m)
        assert affine_algebra(m).product.gamma == dense_affine_algebra(m)
        assert matrix_algebra(m).gamma == dense_matrix_algebra(m)


@CHECKS
@given(products(), st.data())
def test_product_readers_match_dense(p, data):
    m, g = p.dim, p.gamma
    vec = st.lists(rationals, min_size=m, max_size=m)
    u, v = data.draw(vec), data.draw(vec)
    assert p.mult(u, v) == dense_mult(g, u, v)
    assert p.left_matrices == dense_left_matrices(g)
    assert p.right_matrix(u) == dense_right_matrix(g, u)


@st.composite
def torsion_free_connections(draw):
    """Half the bracket of a drawn algebra plus a drawn table made symmetric
    in its first two slots: the torsion cancels."""
    L = draw(lie_algebras())
    m = L.dim
    _, t = draw(tables(dim=m))
    return InvariantConnection(L, dense_product(m, tuple(
        tuple(tuple((L.c[i][j][k] + t[i][j][k] + t[j][i][k]) / 2
                    for k in range(m)) for j in range(m))
        for i in range(m))))


@CHECKS
@given(connections(), torsion_free_connections(), st.data())
def test_condition_rows_match_dense(conn, free, data):
    L, m = conn.base, conn.dim
    n = m * m
    plus = cartan_connection(L, "plus")
    pairs = [(full_parallel_rows(conn), dense_parallel_rows(conn)),
             (full_parallel_rows(plus), dense_ad_invariance_rows(L))]
    pairs += [(parity_rows(m, sym), dense_parity_rows(m, sym))
              for sym in (SYMMETRIC, SKEW)]
    vec = data.draw(st.lists(st.sampled_from((0, 1, Fraction(-1, 2))),
                             min_size=n, max_size=n))
    for rows, dense in pairs:
        assert_rows_match(rows, dense, n)
        # the witness check over the nonzeros is the dense one
        for w in [vec, *linalg.nullspace(dense, ncols=n)[:1]]:
            assert spaces.satisfies(rows, linalg.integer_row(w)[0]) == \
                check_rows(dense, w)
    # the rows of one parity are the dense rows (i, j, k) with j <= k
    # (j < k when skew), and on forms of that parity their check is the
    # check on every dense row
    for c in (conn, plus):
        dense = dense_parallel_rows(c)
        for sym, sign in ((SYMMETRIC, 1), (SKEW, -1)):
            rows = parallel_rows(c, sym)
            assert_rows_match(rows, [
                row for t, row in enumerate(dense)
                if t // m % m + (sym == SKEW) <= t % m], n)
            form = [vec[a * m + b] + sign * vec[b * m + a]
                    for a in range(m) for b in range(m)]
            kernel = linalg.nullspace(dense + dense_parity_rows(m, sym),
                                      ncols=n)
            for w in [form, *kernel[:1]]:
                assert spaces.satisfies(rows, linalg.integer_row(w)[0]) == \
                    check_rows(dense, w)
    # the Hessian and symplectic systems, read from the coboundaries of
    # `cohomology`, against the former dense rows: the same canonical kernel
    # on the forms of their parity, and the same witness check there. The
    # Hessian rows are drawn on torsion-free connections only, the only ones
    # whose scalar KV rows they are (`hessian_cocycle_space` takes flat ones)
    cocycles = [(scalar_coboundary_rows(free.gamma, 2),
                 dense_hessian_rows(free), SYMMETRIC, free.dim),
                (scalar_coboundary_rows(L, 2),
                 dense_skew_cocycle_rows(L), SKEW, m)]
    for rows, dense, sym, k in cocycles:
        sign = 1 if sym == SYMMETRIC else -1
        kernel = linalg.nullspace(dense + dense_parity_rows(k, sym),
                                  ncols=k * k)
        assert form_space(rows, k, sym).basis == kernel
        flat = data.draw(st.lists(st.sampled_from((0, 1, Fraction(-1, 2))),
                                  min_size=k * k, max_size=k * k))
        form = [flat[a * k + b] + sign * flat[b * k + a]
                for a in range(k) for b in range(k)]
        for w in [form, *kernel[:1]]:
            assert spaces.satisfies(rows, linalg.integer_row(w)[0]) == \
                check_rows(dense, w)


def _space_walked(builder, L):
    """The space that a verdict builder hands to `max_rank`, or None when
    it decides without a walk."""
    seen, real = [], invariants.max_rank

    def spy(space, **kwargs):
        seen.append(space)
        return real(space, **kwargs)
    with mock.patch.object(invariants, "max_rank", spy):
        builder(L)
    return seen[0] if seen else None


@CHECKS
@given(connections())
# dims 0 and 1: the skew triangle has no unknowns
@example(cartan_connection(abelian(0), "plus"))
@example(InvariantConnection(abelian(1), dense_product(1, (((Fraction(2),),),))))
# a flat torsion-free connection: the left multiplications of an LSA
@example(InvariantConnection(commutator_bracket(affine_algebra(1).product),
                             affine_algebra(1).product))
def test_form_spaces_match_the_parity_row_solve(conn):
    # each form space over its triangle equals the former solve over all
    # m x m entries plus the parity rows
    L, m = conn.base, conn.dim
    plus = cartan_connection(L, "plus")
    cases = [(parallel_forms(c, sym), full_parallel_rows(c), sym)
             for c in (conn, plus) for sym in (SYMMETRIC, SKEW)]
    cases += [(invariants.hessian_cocycle_space(c), hessian_rows(c),
               SYMMETRIC) for c in (conn, cartan_connection(L, "zero"))
              if is_locally_flat(c)[0]]
    rows = hessian_rows(conn)
    cases += [(form_space(rows, m, SYMMETRIC), rows, SYMMETRIC),
              (_space_walked(invariants.left_symplectic_oracle, L),
               skew_cocycle_rows(L), SKEW)]
    # the bi-invariant route walks only a unimodular algebra's forms; a
    # nonzero trace of some ad(e_i) answers before any space is built
    bimetric = _space_walked(invariants.bi_invariant_metric, L)
    unimodular = not any(sum(L.c[i][k][k] for k in range(m))
                         for i in range(m))
    assert (bimetric is not None) == unimodular
    if unimodular:
        cases.append((bimetric, full_parallel_rows(plus), SYMMETRIC))
    for space, full, sym in cases:
        old = parity_row_form_space(full, m, sym)
        assert (space.basis, space.ambient_dim, space.shape) == (
            old.basis, old.ambient_dim, old.shape)


# The four systems read from `cohomology` (the trivial Chevalley-Eilenberg
# delta_1 and delta_2, the scalar KV delta_2 and the second-order rows)
# against the library's former routes, on the pools and their conjugates.

@CHECKS
@given(lie_algebras())
def test_symplectic_space_and_verdict_match_the_cyclic_sums(L):
    old = parity_row_form_space(skew_cocycle_rows(L), L.dim, SKEW)
    assert _space_walked(invariants.left_symplectic_oracle, L).basis == \
        old.basis
    assert invariants.left_symplectic_oracle(L) == \
        cyclic_sum_symplectic_oracle(L)


class _PastPerfectness(Exception):
    pass


@CHECKS
@given(lie_algebras())
def test_perfect_verdict_matches_the_bracket_rank(L):
    # flat existence reaches the zero Cartan connection only when the
    # perfectness test does not answer
    with mock.patch.object(invariants, "cartan_connection",
                           side_effect=_PastPerfectness):
        try:
            verdict = invariants.flat_existence(L, ())
        except _PastPerfectness:
            verdict = None
    assert (verdict is not None) == bracket_rank_perfect(L)
    if verdict is not None:
        assert verdict.exists == "no" and "perfect" in verdict.certificate


FLAT_POOL = kv_pool() + [affine_algebra(2).product]


@st.composite
def flat_connections(draw):
    """The left multiplications of a pool KV product or an affine model,
    as is or under a basis change: flat and torsion-free over the
    commutator bracket."""
    p = draw(st.sampled_from(FLAT_POOL))
    if draw(st.booleans()):
        p = conjugate_product(p, draw(basis_changes(p.dim)))
    return InvariantConnection(commutator_bracket(p), p)


@CHECKS
@given(flat_connections())
@example(InvariantConnection(commutator_bracket(affine_algebra(2).product),
                             affine_algebra(2).product))
def test_hessian_and_g_nabla_spaces_match_the_former_rows(conn):
    m = conn.dim
    old = parity_row_form_space(hessian_rows(conn), m, SYMMETRIC)
    assert invariants.hessian_cocycle_space(conn).basis == old.basis
    space, closed = g_nabla_subalgebra(conn)
    assert closed and space.basis == linalg.nullspace(
        dense_associator_rows(conn.gamma.sparse, m), ncols=m)


@CHECKS
@given(flat_connections())
@example(InvariantConnection(commutator_bracket(affine_algebra(2).product),
                             affine_algebra(2).product))
def test_hessian_rows_are_the_full_delta_2_rows_with_x_below_y(conn):
    # (delta_2 f)(y, x, z) = -(delta_2 f)(x, y, z) for every cochain f:
    # each former row is +- a row listed for x < y, and the form space
    # is the one the former rows cut out
    m = conn.dim
    rows, full = scalar_coboundary_rows(conn.gamma, 2), full_hessian_rows(conn)
    assert all(row in full for row in rows)
    negated = [{c: -a for c, a in row.items()} for row in rows]
    assert all(row in rows or row in negated for row in full)
    space = invariants.hessian_cocycle_space(conn)
    old = form_space(full, m, SYMMETRIC)
    assert (space.rows, space.scales, space.shape) == \
        (old.rows, old.scales, old.shape)


@pytest.mark.parametrize("p", [
    conjugate_product(affine_algebra(2).product,
                      rand_invertible(6, random.Random(1))),
    conjugate_product(heisenberg_kv(), linalg.mat(
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]]))],
    ids=["affine-model:2-dense", "heisenberg-kv-dense"])
def test_hessian_rows_list_each_equation_once(p):
    # m^2 (m - 1) / 2 rows at most, one per x < y; under a dense basis
    # change the former rows are more
    m = p.dim
    conn = InvariantConnection(commutator_bracket(p), p)
    assert len(scalar_coboundary_rows(p, 2)) <= m * m * (m - 1) // 2 \
        < len(full_hessian_rows(conn))


@CHECKS
@given(connections(), st.data())
def test_solver_rows_span_the_dense_rows(conn, data):
    # equal canonical kernels are equal row spaces
    L, m = conn.base, conn.dim
    ops = _fe_star_operators(conn)
    rows = _fe_star_compatibility(conn, ops)
    assert_rows_match(rows, dense_fe_star_compatibility_rows(conn, ops),
                      m + m * m)
    assert_rows_match(rows, [row for f in dense_fe_star_compat(
        conn, dense_fe_star_operators(conn)) for row in f], m + m * m)
    _, gam = data.draw(tables(dim=m))
    dual = InvariantConnection(L, dense_product(m, gam))
    assert solve_gauge_equation(conn, dual).basis == linalg.nullspace(
        dense_gauge_equation_rows(conn, dual), ncols=m * m)
    assert g_nabla_subalgebra(conn)[0].basis == linalg.nullspace(
        dense_associator_rows(conn.gamma.sparse, m), ncols=m)


@CHECKS
@given(products())
def test_kv_degree_zero_rows_span_the_dense_rows(p):
    zero = kv_degree_zero_space(p)
    assert linalg.vectors(*zero, p.dim) == linalg.nullspace(
        dense_associator_rows(p.sparse, p.dim), ncols=p.dim)


# A solution space holds each basis vector as an integer row over one
# scale. Row over scale must be the canonical kernel vector the former
# dense formula (`dense_kernel_basis`) built from the same reduced form,
# and the scale the lcm of its denominators; the space's ambient dim,
# shape and dim must be the former ones.

def _former_space(reduced, n, shape=None):
    """(ambient_dim, basis, shape, dim) of the former `Fraction` space."""
    basis = dense_kernel_basis(reduced, n) if n else ()
    return n, basis, shape, len(basis)


def _as_former(space):
    n = space.ambient_dim
    basis = tuple(tuple(Fraction(row.get(j, 0), scale) for j in range(n))
                  for row, scale in zip(space.rows, space.scales))
    assert (space.rows, space.scales) == scaled(basis)
    return n, basis, space.shape, space.dim


@CHECKS
@given(connections(), st.data())
def test_solution_rows_over_scales_are_the_former_dense_bases(conn, data):
    m = conn.dim
    sparse = conn.gamma.sparse
    rows = full_parallel_rows(conn)
    assert _as_former(from_conditions(rows, m * m, (m, m))) == \
        _former_space(linalg._reduce(rows, m * m), m * m, (m, m))
    for sym in (SYMMETRIC, SKEW):
        assert _as_former(parallel_forms(conn, sym)) == _former_space(
            linalg._reduce(rows + parity_rows(m, sym), m * m), m * m, (m, m))
    zero = second_order_rows(sparse)
    assert _as_former(g_nabla_subalgebra(conn)[0]) == \
        _former_space(linalg._reduce(zero, m), m)
    assert _as_former(LinearSolutionSpace(m, *kv_degree_zero_space(
        conn.gamma))) == _former_space(linalg._reduce(zero, m), m)
    _, gam = data.draw(tables(dim=m))
    dual = InvariantConnection(conn.base, dense_product(m, gam))
    assert _as_former(solve_gauge_equation(conn, dual)) == _former_space(
        linalg._reduce_dense(dense_gauge_equation_rows(conn, dual), m * m),
        m * m, (m, m))


# The alternating contractions accumulate half a tensor; each must equal
# the former two-sided sums (tests/oracles.py) on skew tables, Jacobi-failing
# ones and dense conjugates included.

@st.composite
def skew_tables(draw):
    """A skew table as drawn by `tables`, or under a basis change."""
    m, c = draw(tables(skew=True))
    if m and draw(st.booleans()):
        q = conjugate_product(dense_product(m, c), draw(basis_changes(m)))
        return m, q.sparse
    return m, sparse_of(c)


def assert_integer_tensor(t, dense):
    """A DefectTensor, kept as integers, against the Fraction-per-entry
    tensor of the dense oracle's entries: equal, with equal views and an
    equal report, and so is the DefectTensor built from those Fractions."""
    old = FractionDefectTensor(t.shape, dict(walk(dense)))
    new = DefectTensor(t.shape, old.nonzeros)
    assert t == new and new == t
    for u in (t, new):
        assert list(u.nonzeros.items()) == list(old.nonzeros.items())
        assert u.entries == old.entries
        assert list(u.items()) == list(old.items())
        assert u.is_zero() == old.is_zero()
        assert u.first_nonzero() == old.first_nonzero()
        assert u.max_abs() == old.max_abs()
        assert cli._defect_doc(u) == fraction_defect_doc(old)


@CHECKS
@given(connections(), products(), skew_tables())
def test_integer_defect_tensors_match_the_fraction_ones(conn, p, ms):
    m, c = ms
    assert_integer_tensor(jacobi_defect(m, c), dense_jacobi_defect(c.dense(m)))
    assert_integer_tensor(associator_defect(p), dense_associator_defect(p))
    assert_integer_tensor(kv_anomaly(p), dense_kv_anomaly(p))
    assert_integer_tensor(torsion(conn), dense_torsion(conn))
    assert_integer_tensor(curvature(conn), dense_curvature(conn))


# Each contraction's tensor is built from its flat sums (the skew half
# mirrored on flat keys, the integer keys sorted once and unflattened once);
# it must equal the tensor the index-tuple build gave, with its entries in
# the same order, and its report be written with the bytes json.dumps gave
# for the former report of one Fraction per entry.

@CHECKS
@given(connections(), products(), skew_tables())
def test_flat_built_tensors_match_the_tuple_built_ones(conn, p, ms):
    m, c = ms
    for new, old in ((jacobi_defect(m, c), tuple_jacobi_defect(m, c)),
                     (associator_defect(p), tuple_associator_defect(p)),
                     (kv_anomaly(p), tuple_kv_anomaly(p)),
                     (torsion(conn), tuple_torsion(conn)),
                     (curvature(conn), tuple_curvature(conn))):
        assert new == old and new.den == old.den
        assert list(new.numerators.items()) == list(old.numerators.items())
        doc = fraction_defect_doc(FractionDefectTensor(old.shape,
                                                       old.nonzeros))
        written = cli._defect_doc(new)
        assert cli._dumps({"result": {"t": written}, "list": [written]}) \
            == json_report({"result": {"t": doc}, "list": [doc]})


def test_a_defect_tensor_reduces_its_integers_to_the_least_denominator():
    # 2/4 and -6/4 are 1/2 and -3/2: stored as 1 and -3 over 2
    t = DefectTensor.over((2,) * 3, {(1, 0, 0): -6, (0, 1, 1): 2,
                                     (1, 1, 1): 0}, 4)
    assert (t.den, t.numerators) == (2, {(0, 1, 1): 1, (1, 0, 0): -3})
    assert t == DefectTensor((2,) * 3, {(0, 1, 1): Fraction(1, 2),
                                        (1, 0, 0): Fraction(-3, 2)})
    assert t != DefectTensor((2,) * 3, {(0, 1, 1): Fraction(1, 2)})
    assert cli._defect_doc(t) == {"zero": False, "max_abs": "3/2",
                                  "entries": [[0, 1, 1, "1/2"],
                                              [1, 0, 0, "-3/2"]]}
    zero = DefectTensor.over((2,) * 3, {}, 6)
    assert zero == DefectTensor((2,) * 3, {}) and zero.den == 1
    assert cli._defect_doc(zero) == {"zero": True, "max_abs": "0",
                                     "entries": []}


@CHECKS
@given(skew_tables())
def test_jacobi_defect_matches_the_nested_sums(ms):
    m, c = ms
    assert jacobi_defect(m, c) == DefectTensor((m,) * 4,
                                               nested_jacobi_defect(m, c))


@CHECKS
@given(skew_tables(), st.data())
def test_bracket_operator_defect_is_half_the_two_sided_sums(ms, data):
    m, q = ms
    _, g = data.draw(tables(dim=m))
    g = sparse_of(g)
    full = two_sided_operator_defect(g, q, bracket=True)
    half = fractions_over(*operator_defect(g, q, bracket=True))
    assert half == {idx: v for idx, v in full.items() if idx[0] < idx[1]}
    assert skew_pairs(half) == full


@CHECKS
@given(connections(), products())
def test_curvature_and_kv_anomaly_match_the_two_sided_sums(conn, p):
    full = two_sided_operator_defect(conn.gamma.sparse, conn.base.sparse,
                                     bracket=True)
    assert curvature(conn) == DefectTensor((conn.dim,) * 4, full)
    full = two_sided_operator_defect(
        p.sparse, sparse_of(dense_commutator_bracket(p)), bracket=True)
    assert kv_anomaly(p) == DefectTensor(
        (p.dim,) * 4, {idx: -v for idx, v in full.items()})


@CHECKS
@given(connections())
def test_fe_star_rows_match_the_two_sided_sums(conn):
    ops = _fe_star_operators(conn)
    neg_c = SparseTable((i, j, k, -v)
                        for i, j, k, v in conn.base.sparse.items())
    d = two_sided_operator_defect(ops, neg_c, bracket=True)
    assert _fe_star_compatibility(conn, ops) == fraction_condition_rows(
        ((i, j, l), a, v) for (i, j, a, l), v in d.items() if i < j)


@CHECKS
@given(st.one_of(tables(), tables(skew=True)))
@example((2, _nested([[[0, 0], [0, 0]], [[Fraction(1), 0], [0, 0]]])))
def test_jacobi_defect_refuses_as_the_dense_check_does(mt):
    # jacobi_defect checks skewness itself; on a skew table its first
    # nonzero entry names the triple the dense check reports
    m, c = mt
    try:
        hit = jacobi_defect(m, sparse_of(c)).first_nonzero()
    except ValidationError as exc:
        got = ("ValidationError", str(exc))
    else:
        got = hit and ("JacobiViolation",
                       f"Jacobi identity fails on basis triple {hit[0][:3]}")
    assert got == _error(dense_lie_check, m, c)


def test_jacobi_defect_refuses_a_table_that_is_not_skew():
    # [e0, e1] = e2 without its mirror [e1, e0] = -e2
    c = SparseTable([(0, 1, 2, 1)])
    with pytest.raises(ValidationError,
                       match=r"^bracket not antisymmetric at \(0,1,2\)$"):
        jacobi_defect(3, c)


# ---------------------------------------------------------------- packed rows
#
# Both routes of `jacobi_defect` and `_operator_sums`, forced whatever the
# route rule (`algebra._route_width`) would pick: a width cap of 0 keeps
# every contraction on the loop over nonzeros, and no row minimum and no
# cap pack every table's rows, at the width the library derives.

PACKED_CHECKS = settings(CHECKS, max_examples=100)
ROUTES = {"loop": {"_PACK_MAX_WIDTH": 0},
          "packed": {"_PACK_MIN_ROW": 0, "_PACK_MAX_WIDTH": 10 ** 9}}


def on_route(route, fn, *args):
    """(fn(*args), or the (name, message) of the KoszulError it raises;
    the (sums, width) of every unpacking on the way)."""
    real, unpacked = algebra._unpacked, []

    def spy(acc, width):
        unpacked.append((real(acc, width), width))
        return unpacked[-1][0]
    with mock.patch.multiple(algebra, _unpacked=spy, **ROUTES[route]):
        try:
            got = fn(*args)
        except KoszulError as exc:
            got = type(exc).__name__, str(exc)
    return got, unpacked


def on_both_routes(fn, *args):
    """fn(*args) on the loop and on the packed route, which must agree;
    returns it with the packed route's unpackings."""
    (loop, none), (packed, seen) = (on_route(route, fn, *args)
                                    for route in ("loop", "packed"))
    assert loop == packed and not none
    if isinstance(loop, DefectTensor):
        assert list(loop.numerators.items()) == \
            list(packed.numerators.items())
    for sums, width in seen:
        # every digit sum fits in its signed width-bit digit
        assert all(abs(x) < 2 ** (width - 1) for x in sums.values())
    return loop, seen


def wide_values(bits):
    """Nonzero rationals whose numerators have `bits` bits, either sign,
    over 1, 2 or 3."""
    return st.builds(lambda n, sign, d: Fraction(sign * n, d),
                     st.integers(2 ** (bits - 1), 2 ** bits - 1),
                     st.sampled_from((1, -1)), st.sampled_from((1, 2, 3)))


# numerators of 1 to 1,100 bits, the narrow ones as likely as the wide
bit_sizes = st.one_of(st.integers(1, 64), st.integers(65, 1100))


def wide_tables(skew=False, dim=None):
    """Tables as `tables` draws them, up to dim 4, with entries of n bits,
    n from `bit_sizes`."""
    return bit_sizes.flatmap(lambda n: tables(skew, dim, wide_values(n),
                                              max_dim=4))


@st.composite
def wide_lie_algebras(draw):
    """A pool algebra, or its conjugate, with its bracket scaled by a wide
    rational: still a Lie bracket."""
    L = draw(lie_algebras())
    s = draw(bit_sizes.flatmap(wide_values))
    return L.dim, _nested([[[s * v for v in row] for row in plane]
                           for plane in L.c])


def _one(x):
    return 1, _nested([[[Fraction(x)]]])


def _skew(upper, m, scale):
    """The skew table of scale times the entries (i, j, k) -> n, i < j."""
    t = _zeros(m)
    for (i, j, k), n in upper.items():
        t[i][j][k], t[j][i][k] = Fraction(scale * n), Fraction(-scale * n)
    return _nested(t)


def _table(entries, m, scale):
    t = _zeros(m)
    for (i, j, k), n in entries.items():
        t[i][j][k] = Fraction(scale * n)
    return _nested(t)


@PACKED_CHECKS
@given(st.one_of(wide_tables(skew=True), wide_tables(), wide_lie_algebras()))
@example((0, ()))
@example((1, _nested([[[Fraction(0)]]])))
@example((2, _nested([[[0, 0], [0, 0]], [[Fraction(1), 0], [0, 0]]])))
# J(e0, e1, e2) along e0 is c011 c120 - c121 c010 - c122 c020 + c022 c120,
# here 4N² with N = 2^64: past the 3N² a width derived from one row per
# pair of the sorted triple, not three, would hold
@example((3, _skew({(0, 1, 0): 1, (0, 1, 1): 1, (0, 2, 0): 1, (0, 2, 2): 1,
                    (1, 2, 0): 1, (1, 2, 1): -1, (1, 2, 2): -1}, 3, 2 ** 64)))
def test_both_routes_give_the_jacobi_defect_and_its_errors(mt):
    m, c = mt
    got, _ = on_both_routes(jacobi_defect, m, sparse_of(c))
    if isinstance(got, DefectTensor):
        assert_tensor(got, dense_jacobi_defect(c))
        assert got == DefectTensor((m,) * 4,
                                   nested_jacobi_defect(m, sparse_of(c)))
    else:
        assert got[0] == "ValidationError"
    # the constructor's refusal, a ValidationError or the JacobiViolation
    # naming the first failing triple, is the dense check's on both routes
    err, _ = on_both_routes(_error, dense_lie, m, c)
    assert err == _error(dense_lie_check, m, c)


@PACKED_CHECKS
@given(st.integers(0, 4).flatmap(lambda m: st.tuples(
    wide_tables(dim=m), wide_tables(dim=m), wide_tables(skew=True, dim=m))),
    st.booleans())
# r = 1, g = (1) and q = (2 - 2^64): the one sum is 1 + 2^64 - 2, the bound
# the width is derived from, and the largest digit of width 65
@example((_one(1), _one(2 - 2 ** 64), _one(0)), False)
# g = (N) and q = (-1/2), N = 2^64: over the common denominator 2 the g·g
# term counts twice, and the sum 2N² + N is the bound again
@example((_one(2 ** 64), _one(Fraction(-1, 2)), _one(0)), False)
# bracket mode, q = 0 and N = 2^64: the sum at (0, 1, 0, 1) is g100 g001 +
# g101 g011 - g000 g101 - g001 g111 = 4N², the bound of two rows of g·g
# products, each N² at most
@example(((2, _table({(0, 0, 0): -1, (0, 0, 1): 1, (0, 1, 1): 1,
                      (1, 0, 0): 1, (1, 0, 1): 1, (1, 1, 1): -1}, 2, 2 ** 64)),
          (2, _nested(_zeros(2))), (2, _nested(_zeros(2)))), True)
@example(((0, ()), (0, ()), (0, ())), True)
@example(((3, _nested(_zeros(3))),) * 3, False)
def test_both_routes_give_the_operator_sums(gqs, bracket):
    (m, g), (_, q), (_, s) = gqs
    g, q = sparse_of(g), sparse_of(s if bracket else q)
    (sums, den), seen = on_both_routes(operator_defect, g, q, bracket)
    full = two_sided_operator_defect(g, q, bracket)
    assert fractions_over(sums, den) == {
        idx: v for idx, v in full.items() if not bracket or idx[0] < idx[1]}
    assert list(sums) == sorted(sums)
    if sums == {(0, 0, 0, 0): 2 ** 64 - 1}:
        assert [width for _, width in seen] == [65]
    if bracket and sums.get((0, 1, 0, 1)) == 2 ** 130:
        assert [width for _, width in seen] == [132]


@PACKED_CHECKS
@given(wide_tables(), st.data())
def test_both_routes_give_the_associator_anomaly_and_curvature(mg, data):
    m, g = mg
    p = dense_product(m, g)
    assert_tensor(on_both_routes(associator_defect, p)[0],
                  dense_associator_defect(p))
    assert_tensor(on_both_routes(kv_anomaly, p)[0], dense_kv_anomaly(p))
    L = data.draw(lie_algebras())
    _, gam = data.draw(wide_tables(dim=L.dim))
    conn = InvariantConnection(L, dense_product(L.dim, gam))
    assert_tensor(on_both_routes(curvature, conn)[0], dense_curvature(conn))


def routes_taken(fn, *args) -> list[int]:
    """What `algebra._route_width` returned to each contraction of
    fn(*args): 0 for the loop over nonzeros, else the packed digit width."""
    real, widths = algebra._route_width, []

    def spy(t, r, bound):
        widths.append(real(t, r, bound))
        return widths[-1]
    with mock.patch.object(algebra, "_route_width", spy):
        fn(*args)
    return widths


def _validated(m, c):
    """The contractions that check a bracket: the Jacobi check of the Lie
    constructor, and the curvature of the bracket over itself."""
    LieAlgebra(m, c)
    algebra.curvature_tensor(c, c, m)


def _checked(p):
    associator_defect(p)
    kv_anomaly(p)


def test_the_route_rule_loops_on_sparse_tables_and_packs_dense_ones():
    so3_sl2 = direct_sum_lie(so3(), sl2())
    for L in (catalog.resolve("lie", "affine:4"), so3_sl2):
        assert set(routes_taken(_validated, L.dim, L.sparse)) == {0}
    assert set(routes_taken(_checked, heisenberg_kv())) == {0}
    # unitriangular all-ones factors: a change with no zero entry
    for L in (so3_sl2, catalog.resolve("lie", "affine:2")):
        m = L.dim
        change = dense_mat_mul(
            [[Fraction(int(r >= c)) for c in range(m)] for r in range(m)],
            [[Fraction(int(r <= c)) for c in range(m)] for r in range(m)])
        c = conjugate_lie(L, change).sparse
        widths = routes_taken(_validated, m, c)
        assert len(widths) == 2 and \
            all(0 < w <= algebra._PACK_MAX_WIDTH for w in widths)
        assert all(routes_taken(_checked, BilinearProduct(m, c)))
        # the same bracket times 2^600: its digits are past the width cap
        wide = SparseTable.over({(i, j, k): n << 600
                                 for i, j, k, n in c.nonzeros}, c.den)
        assert set(routes_taken(_validated, m, wide)) == {0}
