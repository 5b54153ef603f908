from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from koszul import linalg
from koszul._kernel import (P, independent_rows_mod_p, reduced_echelon,
                            row_space)

from conftest import (eliminations, expected_eliminations, int_matrices,
                      rand_fraction, rand_invertible, rational_matrices)
from oracles import (_to_int_rows, charpoly_signature, dense_rank_mod,
                     full_rref, gauss_eliminate, gauss_nullspace, gauss_rank,
                     sylvester_positive_definite, sympy_det, sympy_rank)

F = Fraction

CHECKS = settings(derandomize=True, database=None, deadline=None,
                  max_examples=60,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.data_too_large])


def random_matrix(rng, nr, nc):
    return [[rand_fraction(rng, -4, 4) for _ in range(nc)] for _ in range(nr)]


def test_rank_against_two_oracles(rng):
    for _ in range(50):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert linalg.rank(a) == gauss_rank(a) == sympy_rank(a)


def test_det_against_sympy(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        assert linalg.det(a) == sympy_det(a)


def test_det_of_singular_matrix_is_zero(rng):
    for _ in range(10):
        n = rng.randint(2, 4)
        a = random_matrix(rng, n - 1, n)
        # duplicate a row to force singularity
        sq = a + [list(a[0])]
        assert linalg.det(sq) == 0


def test_nullspace_is_a_basis_of_the_kernel(rng):
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        a = random_matrix(rng, nr, nc)
        ns = linalg.nullspace(a, ncols=nc)
        assert len(ns) == nc - linalg.rank(a)
        for v in ns:
            for row in a:
                assert sum(x * y for x, y in zip(row, v)) == 0
        ref = gauss_nullspace(a, nc)
        if ns or ref:
            # the two kernels span the same subspace
            assert linalg.rank(list(ns) + list(ref)) == len(ns) == len(ref)


def test_rref_has_unit_pivots_and_is_idempotent(rng):
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        red, pivots = linalg.rref(a)
        for r, c in enumerate(pivots):
            assert red[r][c] == 1
            assert all(red[i][c] == 0 for i in range(len(red)) if i != r)
        red2, pivots2 = linalg.rref(red)
        assert red2 == tuple(tuple(row) for row in red) and pivots2 == pivots


def test_row_space_basis_is_canonical(rng):
    for _ in range(20):
        a = random_matrix(rng, 4, 5)
        b = [list(a[2]), list(a[0]),
             [x + y for x, y in zip(a[1], a[3])], list(a[3]), list(a[1])]
        rng.shuffle(b)
        assert linalg.row_space_basis(a) == linalg.row_space_basis(b) \
            or linalg.rank(a) != linalg.rank(b)


def test_solve_consistent_and_inconsistent(rng):
    for _ in range(30):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, nr, nc)
        x0 = [rand_fraction(rng) for _ in range(nc)]
        b = [sum(r[j] * x0[j] for j in range(nc)) for r in a]
        x = linalg.solve(a, b)
        assert x is not None
        for row, bx in zip(a, b):
            assert sum(r * v for r, v in zip(row, x)) == bx
    # inconsistent: 0 = 1
    assert linalg.solve([[0, 0]], [Fraction(1)]) is None


def test_inverse_roundtrip_and_singular_rejection(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        a = rand_invertible(n, rng)
        inv = linalg.inverse(a)
        assert linalg.mat_mul(a, inv) == linalg.identity(n)
    with pytest.raises(ValueError):
        linalg.inverse([[1, 2], [2, 4]])


@pytest.mark.parametrize("a, shape", [
    ([[1, 2, 3], [4, 5, 6]], "2x3"), ([[1, 2], [3, 4], [5, 6]], "3x2")])
@pytest.mark.parametrize("op", [linalg.det, linalg.inverse])
def test_det_and_inverse_refuse_non_square_matrices(op, a, shape):
    with pytest.raises(ValueError, match=f"not square: shape {shape}"):
        op(linalg.mat(a))


def test_signature_and_definiteness(rng):
    assert linalg.symmetric_signature(linalg.identity(3)) == (3, 0, 0)
    assert linalg.symmetric_signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert linalg.symmetric_signature([[0, 0], [0, 0]]) == (0, 0, 2)
    assert linalg.is_positive_definite([[2, 1], [1, 2]])
    assert not linalg.is_positive_definite([[1, 2], [2, 1]])
    for _ in range(10):
        # congruence a^T a + I is positive definite
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        g = linalg.mat_add(linalg.mat_mul(linalg.transpose(a), a),
                           linalg.identity(n))
        pos, neg, zero = linalg.symmetric_signature(g)
        assert (pos, neg, zero) == (n, 0, 0)
        assert linalg.is_positive_definite(g)


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices up to 5 x 5: a + a^T (mostly indefinite),
    ±a^T a (semidefinite, singular when a is) and a^T a + I (definite)."""
    a = draw(int_matrices(max_rows=5, square=True))
    at = linalg.transpose(a)
    gram = linalg.mat_mul(at, a)
    return draw(st.sampled_from((
        linalg.mat_add(a, at), gram, linalg.mat_scale(-1, gram),
        linalg.mat_add(gram, linalg.identity(len(a))))))


@CHECKS
@given(symmetric_matrices())
@example(())
@example(((0,),))
@example(((1, 1), (1, 1)))
@example(((0, 1), (1, 0)))
@example(((1, 0, 0), (0, 0, 0), (0, 0, 1)))
@example(((2, 1, 0), (1, 2, 0), (0, 0, -1)))
def test_signature_and_definiteness_match_the_oracles(g):
    sig = charpoly_signature(g)
    assert linalg.symmetric_signature(g) == sig
    assert linalg.is_positive_definite(g) == sylvester_positive_definite(g) \
        == (sig[0] == len(g))


def test_flatten_unflatten_roundtrip(rng):
    a = random_matrix(rng, 3, 4)
    v = linalg.flatten(a)
    assert linalg.unflatten(v, 3, 4) == tuple(tuple(r) for r in a)


def test_frac_conversions():
    assert linalg.frac("3/4") == Fraction(3, 4)
    assert linalg.frac(2) == Fraction(2)
    assert linalg.frac(Fraction(1, 3)) == Fraction(1, 3)


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in r] for r in rows])


def _fractions(m):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in m.row(r))
                 for r in range(m.rows))


@CHECKS
@given(rational_matrices())
def test_rref_and_nullspace_match_gauss_and_sympy(a):
    ncols = len(a[0]) if a else 0
    red, pivots = linalg.rref(a)
    if not ncols:
        assert (red, pivots) == ((), ())
        return
    ech, gauss_pivots = gauss_eliminate(a)
    assert red == tuple(tuple(r) for r in ech)
    assert pivots == tuple(gauss_pivots)
    sred, spivots = _sympy(a).rref()
    assert pivots == spivots
    assert red == _fractions(sred)[:len(pivots)]
    ns = linalg.nullspace(a, ncols=ncols)
    assert ns == tuple(gauss_nullspace(a, ncols))
    assert len(ns) == len(_sympy(a).nullspace())


@CHECKS
@given(rational_matrices(square=True))
def test_det_inverse_solve_match_gauss_and_sympy(a):
    n = len(a)
    s = _sympy(a)
    assert linalg.det(a) == (sympy_det(a) if n else 1)
    if not n:
        return
    if gauss_rank(a) == n:
        assert linalg.inverse(a) == _fractions(s.inv())
    else:
        with pytest.raises(ValueError):
            linalg.inverse(a)
    # b = the first column plus half the last: always consistent
    b = [row[0] + row[-1] / 2 for row in a]
    aug = [list(row) + [bx] for row, bx in zip(a, b)]
    ech, pivots = gauss_eliminate(aug)
    want = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        want[pc] = ech[r][n]
    assert linalg.solve(a, b) == tuple(want)
    # b = e_0 is inconsistent exactly when it leaves the column space
    e0 = [Fraction(int(i == 0)) for i in range(n)]
    x = linalg.solve(a, e0)
    consistent = s.rank() == s.row_join(_sympy([[v] for v in e0])).rank()
    assert (x is not None) == consistent
    if x is not None:
        assert linalg.mat_vec(a, x) == tuple(e0)


@st.composite
def tall_rational_matrices(draw):
    """Rational matrices with more rows than columns. Appended rows are
    P times a row, a row plus P times another (equal to the first mod P),
    or a small combination of two rows; then the rows are shuffled. So rows
    independent over the rationals are often dependent mod P."""
    a = draw(int_matrices(max_rows=10, max_cols=6))
    assume(a and a[0])
    extra = draw(st.lists(st.tuples(
        st.sampled_from(("times P", "plus P times", "combination")),
        st.integers(0, 9), st.integers(0, 9), st.integers(-2, 2)),
        min_size=max(0, len(a[0]) + 1 - len(a)), max_size=8))
    for kind, s, t, k in extra:
        u, v = a[s % len(a)], a[t % len(a)]
        if kind == "times P":
            a.append([P * x for x in u])
        elif kind == "plus P times":
            a.append([x + P * y for x, y in zip(u, v)])
        else:
            a.append([k * x + y for x, y in zip(u, v)])
    a = [a[i] for i in draw(st.permutations(range(len(a))))]
    dens = draw(st.lists(st.sampled_from((1, 1, 2, 3, 7)),
                         min_size=sum(map(len, a)), max_size=sum(map(len, a))))
    it = iter(dens)
    return [[Fraction(x, next(it)) for x in row] for row in a]


def _kernel_from_rref(red, pivots, ncols):
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return tuple(basis)


def reduce_eliminations(ints, ncols: int) -> list[int]:
    """What `eliminations` collects from `linalg._reduce` on integer rows:
    nothing when ncols rows are independent mod P, else what `row_space`
    makes after a pass over every row."""
    kept = min(ncols, dense_rank_mod(ints, P))
    return [] if kept == ncols else expected_eliminations(ints, kept)


@settings(CHECKS, max_examples=300)
@given(tall_rational_matrices())
# the first dropped row lies in the span of the kept one, the second not
@example([[F(1), F(0)], [F(2), F(0)], [F(0), F(P)]])
# no row is kept mod P
@example([[F(P), F(0)], [F(0), F(P)], [F(P), F(P)]])
def test_tall_rref_and_nullspace_match_full_elimination(a):
    nr, nc = len(a), len(a[0])
    ints = [[int(x * lcm(*(y.denominator for y in row))) for x in row]
            for row in a]
    want = reduce_eliminations(ints, nc)
    with eliminations() as seen:
        red, pivots = linalg.rref(a)
    assert (red, pivots) == full_rref(a)
    # The reduced form mod P of the rows lifts to the exact one unless the
    # rank mod P falls below the rank, a pivot vanishes mod P or an entry
    # is past the reconstruction bound; then the rows kept mod P are
    # eliminated, and every row when they fall short of the rank. When nc
    # rows are kept, the rank is nc and nothing is lifted or eliminated.
    assert seen == want
    rows = [{j: x for j, x in enumerate(row) if x} for row in ints]
    assert linalg.sparse_rank(rows, nc) == len(pivots)
    ns = linalg.nullspace(a, ncols=nc)
    assert ns == _kernel_from_rref(red, pivots, nc)
    assert ns == tuple(gauss_nullspace(a, nc))


@settings(CHECKS, max_examples=200)
@given(int_matrices(), st.integers(0, 3))
@example([[1, 2, 3], [2, 4, 6]], 0)  # rank-deficient
@example([[0, 0], [0, 0]], 0)
@example([], 2)
def test_a_short_sparse_rank_is_the_forward_pass_pivot_count(a, extra):
    # with no more rows than columns the rank is read off `echelon`'s
    # forward pass, with no reduced form built; the reduced form over every
    # row has as many pivots
    nc = (len(a[0]) if a else 0) + extra
    rows = [{j: x for j, x in enumerate(row) if x} for row in a[:nc]]
    with eliminations() as seen:
        got = linalg.sparse_rank(rows, nc)
    assert seen == []
    assert got == len(linalg._reduce(rows, nc)[1])


def test_rows_dependent_only_mod_p_take_the_full_elimination():
    # (0, P) vanishes mod P and (1, 1 + P) is (1, 1) mod P: one row is kept
    # of rank 2, and the column space, solve and nullspace see both ranks
    a = [[F(1), F(1)], [F(0), F(P)], [F(2), F(2)], [F(1), F(1 + P)]]
    with eliminations() as seen:
        red, pivots = linalg.rref(a)
    assert seen == [1, 4]
    assert (red, pivots) == full_rref(a) == (((1, 0), (0, 1)), (0, 1))
    with eliminations() as seen:
        assert linalg.nullspace(a) == ()
        assert len(linalg.column_space_basis(a)) == 2
        assert linalg.solve(a, [F(1), F(0), F(2), F(1)]) == (1, 0)
    assert seen == [1, 4] * 3
    # where the lifted rows span, nothing is eliminated
    b = [[F(1), F(1)], [F(2), F(2)], [F(3), F(3)]]
    with eliminations() as seen:
        assert linalg.nullspace(b) == ((-1, 1),)
    assert seen == []


@CHECKS
@given(int_matrices(), rational_matrices())
def test_integer_rows_match_the_fraction_route(ints, fracs):
    mixed = [[int(x) if x.denominator == 1 else x for x in row]
             for row in fracs]
    for rows in (ints, fracs, mixed):
        got = linalg.integer_rows(rows)
        assert got == _to_int_rows(rows)
        assert all(type(v) is int for row in got[0] for v in row)


def test_integer_rows_refuse_inexact_entries():
    assert linalg.integer_rows([["1/2", 1, 0]]) == ([[1, 2, 0]], [2])
    for row in ([1, 0.5], [F(1, 2), 0.25], [1, 1j], [1, None], [0, ""],
                ["1/2", 0.0]):
        with pytest.raises(TypeError, match="not an exact rational"):
            linalg.integer_rows([row])


# `_reduce` and `row_space` against `reduced_echelon` of every row, each
# row read over its pivot, on short and tall systems of every rank, with an
# example of each route: the lift spans every row; a tall system of full
# rank mod P is the identity, with no lift; an entry past the
# reconstruction bound, a residue that reconstructs to a wrong small
# fraction, a pivot that P zeroes and rows dependent only mod P fall back
# to Bareiss; zero columns are never pivots.

def _normalized(reduced):
    red, pivots, _ = reduced
    return list(pivots), [[Fraction(x, row[c]) for x in row]
                          for row, c in zip(red, pivots)]


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(int_matrices(max_rows=12, max_cols=6))
@example([[1, 0], [0, 1], [1, 1]])
@example([[1, 2, 3], [2, 4, 6], [1, 0, -1]])
@example([[1, 3 ** 25]])
@example([[1, 2 ** 40], [2, 2 ** 41], [3, 3 * 2 ** 40]])
@example([[P, 0], [0, 1], [0, 2]])
@example([[P, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]])
@example([[1, 1], [0, P], [2, 2], [1, 1 + P]])
@example([[0, 1, 0], [0, 2, 0], [0, 0, 0]])
@example([[0, 0], [0, 0], [0, 0]])
def test_reduce_matches_reduced_echelon_on_short_and_tall_systems(a):
    ncols = len(a[0]) if a else 0
    assume(ncols)
    rows = [{j: x for j, x in enumerate(r) if x} for r in a]
    want = _normalized(reduced_echelon([list(r) for r in a]))
    route = reduce_eliminations([list(r) for r in a], ncols)
    with eliminations() as seen:
        assert _normalized(linalg._reduce(rows, ncols)) == want
    assert seen == route
    # from a pass over every row, with no early stop
    found = independent_rows_mod_p(rows, len(rows))
    assert _normalized(row_space(rows, ncols, *found)) == want


def test_a_tall_system_of_full_rank_mod_p_skips_the_exact_pass(
        monkeypatch):
    rows = [{0: 3, 1: 1}, {1: 5}, {0: 1}, {0: 2, 1: 2}]
    monkeypatch.setattr(linalg, "row_space", pytest.fail)
    assert linalg.sparse_rank(rows, 2) == 2
    assert linalg._reduce(rows, 2) == ([[1, 0], [0, 1]], [0, 1], [[0], [1]])


def test_a_pivot_that_p_zeroes_still_goes_exact():
    rows = [{0: P}, {1: 1}, {1: 2}]
    assert independent_rows_mod_p(rows, 2) == ([1], {1: {}})
    assert linalg.sparse_rank(rows, 2) == 2
    assert linalg.sparse_nullspace(rows, 2) == ((), ())
