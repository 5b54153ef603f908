"""Differential tests: the sparse tensor contractions against dense oracles.

Every tensor the library computes from the nonzeros of a structure-constant
table, and each zero-skipping matrix product, is compared, entry by entry
and zeros included, with the dense formula it replaced (kept in
oracles.py). Inputs cover dimensions 0-6, sparse tables (few nonzeros, or
a textbook algebra under a monomial basis change) and dense ones, and
tables that are not antisymmetric or fail Jacobi, for which the
constructor's error must be the dense one verbatim.
"""

from fractions import Fraction
from itertools import product

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from koszul import linalg
from koszul.algebra import (
    BilinearProduct,
    LieAlgebra,
    abelian,
    associator_defect,
    conjugate_lie,
    jacobi_defect,
    killing_form,
    kv_anomaly,
)
from koszul.catalog import aff1, heisenberg, sl2, so3
from koszul.connections import (
    InvariantConnection,
    curvature,
    curvature_operators,
    torsion,
)
from koszul.errors import KoszulError

from conftest import direct_sum_lie
from oracles import (
    dense_associator_defect,
    dense_curvature,
    dense_curvature_operators,
    dense_jacobi_defect,
    dense_killing_form,
    dense_kv_anomaly,
    dense_lie_check,
    dense_mat_mul,
    dense_mat_vec,
    dense_torsion,
    walk,
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
def tables(draw, skew=False, dim=None):
    """A rank-3 table: sparse (a few nonzeros) or dense (all cells drawn)."""
    m = draw(st.integers(0, MAX_DIM)) if dim is None else dim
    t = _zeros(m)
    if draw(st.booleans()):
        cells = [(i, j, k) for i, j, k in product(range(m), repeat=3)
                 if not skew or i < j]
        values = draw(st.lists(rationals, min_size=len(cells),
                               max_size=len(cells)))
        filled = zip(cells, values)
    else:
        idx = st.integers(0, max(m - 1, 0))
        filled = [((i, j, k), v) for i, j, k, v in draw(st.lists(
            st.tuples(idx, idx, idx, nonzero_rationals),
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
    return [LieAlgebra(0, ())] + base + sums


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
    return InvariantConnection(L, BilinearProduct(L.dim, gam))


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
    assert_tensor(jacobi_defect(c), dense_jacobi_defect(c))


@CHECKS
@given(tables())
# e1 nonzero at (1,0,0) only: the first failing index (0,1,0) is a zero entry
@example((2, _nested([[[0, 0], [0, 0]], [[Fraction(1), 0], [0, 0]]])))
def test_antisymmetry_errors_match_dense(mt):
    m, c = mt
    assert _error(LieAlgebra, m, c) == _error(dense_lie_check, m, c)


@CHECKS
@given(st.one_of(tables(skew=True),
                 lie_algebras().map(lambda L: (L.dim, L.c))))
def test_jacobi_errors_match_dense(mt):
    m, c = mt
    assert _error(LieAlgebra, m, c) == _error(dense_lie_check, m, c)


@CHECKS
@given(tables())
def test_associator_and_kv_anomaly_match_dense(mt):
    m, g = mt
    p = BilinearProduct(m, g)
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
