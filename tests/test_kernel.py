from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from koszul._kernel import P, echelon, independent_rows_mod_p

from conftest import int_matrices
from oracles import (dense_bareiss, dense_rank_mod, dense_rref_mod,
                     full_scan_independent_rows_mod_p, gauss_rank, sympy_det,
                     sympy_rank)

CHECKS = settings(derandomize=True, database=None, deadline=None,
                  max_examples=300,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.data_too_large])


def random_int_matrix(rng, nr, nc, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def test_rank_matches_oracles(rng):
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        a = random_int_matrix(rng, nr, nc)
        _, pivots, _ = echelon(a)
        assert len(pivots) == gauss_rank(a) == sympy_rank(a)


def test_last_pivot_is_determinant(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        a = random_int_matrix(rng, n, n)
        ech, pivots, sign = echelon(a)
        want = sympy_det(a)
        if len(pivots) < n:
            assert want == 0
        else:
            assert sign * ech[n - 1][pivots[n - 1]] == want


def test_input_not_mutated():
    a = [[1, 2], [3, 4]]
    echelon(a)
    assert a == [[1, 2], [3, 4]]


def test_empty_and_zero_matrices():
    assert echelon([]) == ([], [], 1)
    ech, pivots, sign = echelon([[0, 0], [0, 0]])
    assert pivots == [] and sign == 1


@CHECKS
@given(int_matrices())
def test_echelon_matches_dense_bareiss(a):
    # the whole triple, integer for integer: rows, pivot columns, swap sign
    assert echelon(a) == dense_bareiss(a)


@CHECKS
@given(int_matrices(), st.sampled_from(("none", "even columns", "all")),
       st.integers(0, 13))
def test_rank_mod_p_matches_dense_elimination(a, lift, bound):
    # entries lifted by P vanish mod P, so the rank there drops below the
    # rank over the integers, which it never exceeds
    a = [[x * P if lift == "all" or (lift != "none" and j % 2 == 0) else x
          for j, x in enumerate(row)] for row in a]
    rows = [{j: x for j, x in enumerate(row) if x} for row in a]
    full = dense_rank_mod(a, P)
    assert len(independent_rows_mod_p(rows, bound)[0]) == min(bound, full)
    kept, _ = independent_rows_mod_p(iter(rows), 13)
    assert len(kept) == full <= len(echelon(a)[1])
    # rows independent mod P are independent over the integers
    assert kept == sorted(set(kept))
    assert len(echelon([a[i] for i in kept])[1]) == len(kept)


@st.composite
def lifted_sparse_rows(draw):
    """int_matrices as sparse rows, some entries lifted by multiples of P:
    times P, so they vanish mod P, or plus k P, so they keep their
    residue."""
    a = draw(int_matrices())
    lifts = draw(st.lists(st.sampled_from((0, 0, 0, "times", -2, 1)),
                          min_size=sum(map(len, a)),
                          max_size=sum(map(len, a))))
    it = iter(lifts)
    rows = []
    for row in a:
        out = {}
        for j, x in enumerate(row):
            k = next(it)
            if x or k:
                out[j] = x * P if k == "times" else x + k * P
        rows.append(out)
    return a, rows


@CHECKS
@given(lifted_sparse_rows())
def test_kept_positions_match_the_full_scan(a_rows):
    # a row is kept when it is independent of the rows kept before it, so
    # clearing a new pivot only from the rows that hold it keeps the same
    # positions as scanning every kept row, at every bound; the basis is
    # the reduced row-echelon form mod P of the kept rows
    a, rows = a_rows
    ncols = len(a[0]) if a else 0
    for bound in range(len(rows) + 2):
        kept, basis = independent_rows_mod_p(rows, bound)
        assert kept == full_scan_independent_rows_mod_p(rows, bound)
        red, pivots = dense_rref_mod(
            [[rows[i].get(j, 0) for j in range(ncols)] for i in kept], P)
        assert sorted(basis) == pivots
        assert [[1 if j == c else basis[c].get(j, 0) % P
                 for j in range(ncols)] for c in pivots] == red


@CHECKS
@given(lifted_sparse_rows())
def test_every_row_lies_in_the_span_of_the_kept_rows_mod_p(a_rows):
    a, rows = a_rows
    if not a or not a[0]:
        return
    kept, _ = independent_rows_mod_p(rows, len(rows))
    dense = [[row.get(j, 0) for j in range(len(a[0]))] for row in rows]
    basis = [dense[i] for i in kept]
    assert dense_rank_mod(basis, P) == len(kept) == dense_rank_mod(dense, P)
    for row in dense:
        assert dense_rank_mod(basis + [row], P) == len(kept)
