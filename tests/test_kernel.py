from contextlib import contextmanager
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from koszul import _kernel, cohomology, linalg, spaces
from koszul._kernel import (_HALF, _LAMBDA, P, _lift, _spans, echelon,
                            independent_rows_mod_p, reduced_echelon)
from koszul.cohomology import ADJOINT, SCALAR, TRIVIAL

import conftest
from conftest import int_matrices, sums_packed
from oracles import (dense_bareiss, dense_rank_mod, dense_rref_mod,
                     dict_spans, fixpoint_certified_ranks, full_rref,
                     full_scan_independent_rows_mod_p, gauss_nullspace,
                     gauss_rank, per_entry_lift,
                     reducing_independent_rows_mod_p, sympy_det, sympy_rank)

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


# The pass reads a row through its functional once the dependent rows have
# cost _FINGERPRINT_CELLS cells; at 0 it does so from the first one on.
EVERY_ROW = {"_FINGERPRINT_CELLS": 0}


class _CountedWeights(_kernel._Weights):
    """The pass's weights, counting how often they are built."""

    __slots__ = ()
    built = 0

    def __init__(self, basis):
        type(self).built += 1
        super().__init__(basis)


@CHECKS
@given(lifted_sparse_rows())
def test_the_functional_keeps_the_rows_of_the_reducing_pass(a_rows):
    # a dependent row has remainder zero, so the functional skips it, and
    # every row it reads as nonzero is reduced as before: the same kept
    # positions and the same reduced rows, integer for integer, at every
    # bound, whenever the weights are built. Kept up to date as pivots
    # come, they are built once: a dependent row they failed to skip would
    # be reduced to zero and build them again
    _, rows = a_rows
    for cells in (0, _kernel._FINGERPRINT_CELLS):
        with mock.patch.multiple(_kernel, _FINGERPRINT_CELLS=cells,
                                 _Weights=_CountedWeights):
            for bound in range(len(rows) + 2):
                _CountedWeights.built = 0
                assert independent_rows_mod_p(rows, bound) == \
                    reducing_independent_rows_mod_p(rows, bound)
                assert _CountedWeights.built <= 1


@CHECKS
@given(lifted_sparse_rows(), st.integers(0, 11), st.integers(0, 11),
       st.integers(-3, 3))
def test_packed_spans_agree_with_the_dict_oracle(a_rows, i, j, x):
    # against the lift of the pass and the exact reduced form of the kept
    # rows (pivots of either sign): every row, and a row with one cell
    # moved, which may leave the span
    a, rows = a_rows
    if not rows or not a[0]:
        return
    ncols = len(a[0])
    kept, basis = independent_rows_mod_p(rows, len(rows))
    moved = dict(rows[i % len(rows)])
    moved[j % ncols] = moved.get(j % ncols, 0) + x
    reduced = [reduced_echelon([[rows[k].get(c, 0) for c in range(ncols)]
                                for k in kept])]
    lifted = _lift(basis, ncols)
    if lifted is not None:
        reduced.append(lifted)
    for red in reduced:
        for checked in (rows, rows + [moved], [moved]):
            want = dict_spans(*red, checked)
            for packed in (True, False):
                with sums_packed(packed):
                    assert _spans(*red, checked) == want


def test_packed_spans_reach_their_slot_bound():
    # reduced rows (2, 0, t) and (0, 1, -t), and rows x whose slot sums
    # reach the bound max|x| (L + sum |L / piv| max|red|), with either
    # sign, or leave a single slot nonzero
    t, big = 2 ** 30 - 1, 2 ** 40 + 1
    red = ([[2, 0, t], [0, 1, -t]], [0, 1], [[0, 2], [1, 2]])
    cases = [[{0: big, 2: big * t // 2}], [{0: 2 * big, 2: big * t}],
             [{0: -big, 1: big}], [{1: -big, 2: big * t}],
             [{0: 2, 2: t - 1}], [{2: 1}], [{3: 1}], [{0: 2, 1: 1, 2: 0}]]
    for rows in cases:
        with sums_packed(True):
            assert _spans(*red, rows) == dict_spans(*red, rows)
    with sums_packed(True):
        assert _spans(*red, [{0: 2, 1: 1}, {0: 4, 1: -2, 2: 4 * t}])
        assert not _spans(*red, [{0: 2, 2: t + 1}])
        assert not _spans(*red, [{1: 1}])
    # the sum 2 + 2 t = 2**31 at column 2 would carry into column 3's -1 in
    # a slot of 31 bits: the width counts max|x| = 2 as well as the rows
    red = ([[1, 0, t, 0], [0, 1, 0, -1]], [0, 1], [[0, 2], [1, 3]])
    with sums_packed(True):
        assert not _spans(*red, [{0: 2, 2: -2, 3: 1}])
        assert _spans(*red, [{0: 2, 2: 2 * t, 3: 0}, {1: 3, 3: -3}])


def _fraction_residue(n, d):
    return n * pow(d, -1, P) % P


# entries of a reduced row: fractions over a few shared denominators, some
# near the reconstruction bound _HALF, and residues with no reconstruction
_DENOMINATORS = st.sampled_from((1, 2, 3, 6, 7, 2 ** 20 + 7, _HALF - 1, _HALF))
_NUMERATORS = st.sampled_from((0, 1, -1, 5, -12, 2 ** 29, _HALF, -_HALF,
                               _HALF + 1)) | st.integers(-10 ** 6, 10 ** 6)
_ENTRIES = st.builds(_fraction_residue, _NUMERATORS, _DENOMINATORS) \
    | st.integers(0, P - 1) | st.integers(-3 * P, 3 * P)


_ODD = _HALF - 1 if (_HALF - 1) % 2 else _HALF - 2


@CHECKS
@given(st.dictionaries(st.integers(0, 5), st.dictionaries(
    st.integers(6, 13), _ENTRIES, max_size=8), max_size=4))
# a numerator past _HALF, alone and over a shared denominator; and rows
# whose common denominator passes _HALF, after which an entry whose
# residue that denominator makes small is no longer that fraction
@example({0: {8: _HALF + 1}})
@example({0: {8: _fraction_residue(1, 3),
              9: _fraction_residue(_HALF + 1, 3)}})
@example({0: {8: _fraction_residue(1, 2), 9: _fraction_residue(1, _ODD),
              10: _fraction_residue(1, 2 * _ODD)}})
@example({0: {8: _fraction_residue(1, _HALF),
              9: _fraction_residue(1, _HALF - 1),
              10: _fraction_residue(1, _HALF * (_HALF - 1))}})
def test_common_denominator_lift_matches_the_per_entry_oracle(basis):
    assert _lift(basis, 14) == per_entry_lift(basis, 14)


@CHECKS
@given(lifted_sparse_rows())
def test_the_lift_of_the_pass_matches_the_per_entry_oracle(a_rows):
    a, rows = a_rows
    ncols = len(a[0]) if a else 0
    basis = independent_rows_mod_p(rows, len(rows))[1]
    assert _lift(basis, ncols) == per_entry_lift(basis, ncols)


class _ZeroWeights(dict):
    """Weights that vanish on every row: the pass keeps the rows before
    its first dependent one and skips every row after it."""

    __slots__ = ()

    def __init__(self, basis):
        super().__init__()

    def __missing__(self, j):
        return 0


@contextmanager
def zero_weights():
    """Yields a list with one (rows, bound, positions kept) per pass made
    inside the block, whose functional vanishes on every row."""
    seen = []
    reducing = _kernel.independent_rows_mod_p

    def spy(rows, bound):
        rows = list(rows)
        found = reducing(rows, bound)
        seen.append((rows, bound, found[0]))
        return found

    with mock.patch.multiple(_kernel, _Weights=_ZeroWeights, **EVERY_ROW), \
            mock.patch.object(linalg, "independent_rows_mod_p", spy), \
            mock.patch.object(spaces, "independent_rows_mod_p", spy), \
            mock.patch.object(cohomology, "independent_rows_mod_p", spy):
        yield seen


def _skipped(seen) -> int:
    """The passes that kept fewer rows than a pass reducing every row."""
    return sum(len(kept) < len(reducing_independent_rows_mod_p(rows, bound)[0])
               for rows, bound, kept in seen)


def _certified_cases():
    """The deltas `_certified_ranks` takes for the CE and KV complexes of
    the pools."""
    out = []
    certified = cohomology._certified_ranks

    def spy(deltas):
        out.append(deltas)
        return certified(deltas)

    with mock.patch.object(cohomology, "_certified_ranks", spy):
        for L in conftest.lie_pool(4):
            cohomology.ce_cohomology_dims(L, TRIVIAL)
        for p in conftest.kv_pool():
            for coeffs in (ADJOINT, SCALAR):
                cohomology.kv_cohomology_dims(p, coeffs)
    return out


def test_rows_a_vanishing_functional_skips_are_still_certified(rng):
    # every answer built on the pass is certified in integers: with weights
    # that vanish on every row, the pass skips independent rows, and the
    # ranks, kernels, row spaces and independence read through it, and
    # the cohomology ranks, still equal the exact oracles
    systems = []
    for _ in range(40):
        nr, nc = rng.randint(2, 12), rng.randint(1, 8)
        base = [[rng.randint(-4, 4) for _ in range(nc)]
                for _ in range(rng.randint(1, nc))]
        dense = [[sum(rng.randint(-2, 2) * b[j] for b in base)
                  for j in range(nc)] for _ in range(nr)]
        systems.append([{j: x for j, x in enumerate(r) if x} for r in dense])
    complexes = _certified_cases()
    want = [fixpoint_certified_ranks(deltas) for deltas in complexes]
    spaces_want = [full_rref([[row.get(j, 0) for j in range(_ncols(rows))]
                              for row in rows]) for rows in systems]
    with zero_weights() as seen:
        for rows, (ref, pivots) in zip(systems, spaces_want):
            nc = _ncols(rows)
            dense = [[row.get(j, 0) for j in range(nc)] for row in rows]
            rank = gauss_rank(dense)
            assert linalg.sparse_rank(rows, nc) == rank == len(pivots)
            assert linalg.vectors(*linalg.sparse_nullspace(rows, nc), nc) \
                == tuple(gauss_nullspace(dense, nc))
            assert linalg.vectors(*linalg.sparse_row_space(rows, nc), nc) \
                == tuple(ref[:len(pivots)])
            assert spaces.independent(rows, nc) == (rank == len(rows))
        assert [cohomology._certified_ranks(d) for d in complexes] == want
    assert _skipped(seen) > 10


def _ncols(rows) -> int:
    return 1 + max((j for row in rows for j in row), default=0)


def test_a_row_the_real_functional_skips_is_still_certified():
    # (lambda_2, -lambda_1) on the free columns 1 and 2 is independent of
    # e_0, yet y = lambda_2 lambda_1 - lambda_1 lambda_2 = 0 once the
    # weights are built at the dependent second row: the pass keeps one
    # row, and the rank, kernel and row space still come out exact
    l1, l2 = _LAMBDA, _LAMBDA ** 2 % P
    rows = [{0: 1}, {0: 1}, {1: l2, 2: -l1}, {0: 2}]
    dense = [[row.get(j, 0) for j in range(3)] for row in rows]
    with mock.patch.multiple(_kernel, **EVERY_ROW):
        assert independent_rows_mod_p(rows, 3)[0] == [0]
        assert reducing_independent_rows_mod_p(rows, 3)[0] == [0, 2]
        assert linalg.sparse_rank(rows, 3) == gauss_rank(dense) == 2
        assert linalg.vectors(*linalg.sparse_nullspace(rows, 3), 3) == \
            tuple(gauss_nullspace(dense, 3))
        ref, pivots = full_rref(dense)
        assert linalg.vectors(*linalg.sparse_row_space(rows, 3), 3) == \
            tuple(ref[:len(pivots)])
