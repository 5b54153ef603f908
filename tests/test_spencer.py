import json
import random
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from koszul import cli, linalg, spencer
from koszul.spaces import condition_rows
from koszul.errors import ValidationError
from koszul.spencer import (
    SymbolSpace,
    cartan_test,
    find_quasi_regular_basis,
    is_involutive,
    monomials,
    prolong,
    spencer_cohomology,
    symbol_coord_dim,
    symbol_space,
)

from conftest import full_hom, symbols, zero_symbol
from oracles import (dense_prolong, dense_spencer_cohomology,
                     full_symbol_cartan_total, nullspace_cartan_test,
                     nullspace_quasi_regular_basis, sorting_spencer_d,
                     stacked_rank_aj_dims, unbounded_quasi_regular_basis)


SO3_ROWS = [
    [0, 1, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, -1, 0],
]


def so3_symbol():
    return symbol_space(3, 3, SO3_ROWS)


def test_monomial_bookkeeping():
    for m in (1, 2, 3):
        for s in (1, 2, 3):
            assert len(monomials(m, s)) == comb(m + s - 1, s)
            assert symbol_coord_dim(m, 2, s) == 2 * comb(m + s - 1, s)
    assert monomials(2, 2) == ((0, 0), (0, 1), (1, 1))


def test_symbol_space_canonicalizes_input():
    a = symbol_space(2, 1, [[1, 0], [0, 1], [1, 1]])
    assert len(a.basis) == 2
    with pytest.raises(ValidationError):
        symbols(2, 1, ((Fraction(1), Fraction(0)),
                       (Fraction(2), Fraction(0))))


def test_full_symbol_prolongation_dimension():
    # a^{(1)} = Hom(S^2 V, W) when nothing is cut out
    for m in (1, 2, 3):
        for w in (1, 2):
            p = prolong(full_hom(m, w))
            assert len(p.basis) == w * comb(m + 1, 2)


def test_prolongation_slices_back_into_the_symbol(rng):
    a = so3_symbol()
    assert len(prolong(a).basis) == 0
    b = symbol_space(2, 2, [[1, 0, 0, 1], [0, 1, 0, 0]])
    p = prolong(b)
    m, w = 2, 2
    monos1 = monomials(m, 1)
    pos1 = {mo: i for i, mo in enumerate(monos1)}
    monos2 = monomials(m, 2)
    for vec in p.basis:
        for u in range(m):
            # contract one slot with e_u: order-2 coords drop to order 1
            sliced = [Fraction(0)] * (w * m)
            for k in range(w):
                for t, mono in enumerate(monos2):
                    if u in mono:
                        rest = list(mono)
                        rest.remove(u)
                        sliced[k * m + pos1[tuple(rest)]] += \
                            vec[k * len(monos2) + t]
            if any(sliced):
                stacked = list(b.basis) + [tuple(sliced)]
                assert linalg.rank(stacked) == len(b.basis)


def test_cartan_equality_for_full_symbols():
    for m in (1, 2, 3):
        for w in (1, 2, 3):
            p1, total, eq = cartan_test(full_hom(m, w))
            assert eq and total == full_symbol_cartan_total(m, w)
            assert p1 == w * comb(m + 1, 2)


def test_quasi_regular_basis_found_for_full_symbol(rng):
    basis = find_quasi_regular_basis(full_hom(2, 2), trials=8)
    assert basis is not None
    p1, total, eq = cartan_test(full_hom(2, 2), basis=basis)
    assert eq


def test_so3_symbol_fails_involutivity_with_both_diagnostics():
    a = so3_symbol()
    p1, total, eq = cartan_test(a)
    assert (p1, total, eq) == (0, 4, False)
    rep = spencer_cohomology(a)
    assert rep.d_squared_zero
    assert rep.h(2, 0) == 6 and rep.h(3, 0) == 3
    v = is_involutive(a)
    assert v.verdict == "no"
    assert v.cohomology_witness == (2, 0)
    assert v.basis is None


def test_full_symbol_window_vanishes_and_verdict_is_yes():
    for m, w in ((2, 2), (3, 2)):
        a = full_hom(m, w)
        rep = spencer_cohomology(a)
        for p in range(1, rep.p_max + 1):
            for q in range(rep.q_max + 1):
                assert rep.h(p, q) == 0
        v = is_involutive(a, trials=40)
        assert v.verdict == "yes" and v.basis is not None


def test_zero_symbol_is_involutive():
    v = is_involutive(zero_symbol(2, 2), trials=4)
    assert v.verdict == "yes"
    assert cartan_test(zero_symbol(2, 2)) == (0, 0, True)


def test_involutivity_guard_on_size():
    with pytest.raises(ValidationError):
        is_involutive(full_hom(5, 1))


def test_spencer_determinism():
    a = so3_symbol()
    r1 = spencer_cohomology(a)
    r2 = spencer_cohomology(a)
    assert r1 == r2
    v1 = is_involutive(a, seed=11)
    v2 = is_involutive(a, seed=11)
    assert v1.verdict == v2.verdict and v1.basis == v2.basis


def test_involutivity_computes_each_prolongation_once():
    # the window's a^(1), a^(2), a^(3), whatever the number of trials
    with mock.patch.object(spencer, "prolong",
                           wraps=spencer.prolong) as prolong_calls:
        v = is_involutive(so3_symbol(), trials=40)
    assert v.verdict == "no"
    assert prolong_calls.call_count == v.report.q_max + 1 == 3


@pytest.mark.parametrize("trials", [0, -3])
def test_trials_below_one_are_refused_before_the_window(trials):
    with mock.patch.object(spencer, "spencer_cohomology") as window:
        with pytest.raises(ValidationError, match="trials must be >= 1"):
            is_involutive(full_hom(4, 4), trials=trials)
    assert not window.called


ENTRIES = st.one_of(st.just(0), st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-3, 3),
                              st.integers(1, 4)))


def _matrix(draw, nr, nc):
    return [[draw(ENTRIES) for _ in range(nc)] for _ in range(nr)]


@st.composite
def cartan_cases(draw):
    """An order-1 symbol space with v, w <= 3 (integer or rational rows,
    optionally a dense conjugate Q A P^-1), a test basis, a seed, trials."""
    v, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = _matrix(draw, draw(st.integers(1, v * w)), v * w)
    if draw(st.booleans()):
        p, q = _matrix(draw, v, v), _matrix(draw, w, w)
        if linalg.rank(p) == v and linalg.rank(q) == w:
            p_inv = linalg.inverse(p)
            rows = [linalg.flatten(linalg.mat_mul(
                linalg.mat_mul(q, linalg.unflatten(row, w, v)), p_inv))
                for row in rows]
    a = symbol_space(v, w, rows)
    basis = _matrix(draw, v, v)
    if a.basis and draw(st.booleans()):
        # a first test vector killed by the first symbol: a flag that is not
        # generic, whose dimensions only exact rows get right
        ker = linalg.nullspace(linalg.unflatten(a.basis[0], w, v))
        if ker:
            c = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
            basis[0] = [c * x for x in ker[0]]
    return a, basis, draw(st.integers(0, 10 ** 6)), draw(st.integers(1, 6))


@settings(derandomize=True, database=None, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.too_slow])
@given(cartan_cases())
@example((symbol_space(3, 3, SO3_ROWS), [[1, 2, 0], [0, 1, 3], [1, 0, 1]],
          5, 6))
@example((full_hom(3, 2), [[1, 1, 0], [0, 1, 1], [1, 0, 1]], 11, 3))
@example((zero_symbol(2, 3), [[1, 0], [0, 1]], 0, 1))
@example((symbol_space(2, 1, [[0, 1]]), [[1, 1], [0, 1]], 9, 4))
@example((symbol_space(2, 1, [[2, -1]]), [["1/2", 1], [0, 1]], 9, 4))
@example((symbol_space(3, 2, [[0, 1, 0, 0, 0, 2], [0, 0, 1, 0, 1, 0]]),
          [[1, 0, 0], [1, 1, 0], [1, 1, 1]], 9, 4))
@example((full_hom(0, 2), [], 3, 2))
@example((full_hom(2, 0), [[1, 1], ["1/2", 0]], 3, 2))
def test_cartan_test_and_basis_search_match_the_nullspace_oracle(case):
    a, basis, seed, trials = case
    assert cartan_test(a) == nullspace_cartan_test(a)
    if linalg.rank(basis) == a.v_dim:
        assert cartan_test(a, basis) == nullspace_cartan_test(a, basis)
        basis = tuple(tuple(map(linalg.frac, v)) for v in basis)
        ints = [linalg.integer_row(v)[0] for v in basis]
        assert spencer._flag_test(a, ints)[1] == \
            sum(stacked_rank_aj_dims(a, basis))
    else:
        for test in (cartan_test, nullspace_cartan_test):
            with pytest.raises(ValidationError):
                test(a, basis)
    assert find_quasi_regular_basis(a, trials, seed) == \
        nullspace_quasi_regular_basis(a, trials, seed)


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(cartan_cases(), st.lists(st.integers(0, 10 ** 6), min_size=1,
                                max_size=3),
       st.sampled_from((1, 2, 8, 40)))
@example((symbol_space(3, 3, SO3_ROWS), [], 0, 1), [0, 5, 7], 40)
# the standard basis fails, and a drawn candidate passes
@example((symbol_space(2, 1, [[0, 1]]), [], 0, 1), [1, 2, 3], 8)
@example((symbol_space(3, 2, [[0, 1, 0, 0, 0, 2], [0, 0, 1, 0, 1, 0]]), [],
          0, 1), [3, 4], 40)
def test_integer_trials_return_the_fraction_trials_basis(case, seeds,
                                                         trials):
    # each candidate is drawn as the same (numerator, denominator) pairs in
    # the same order, ranked and flag-tested as integer rows, and built as
    # Fractions only when it is returned; the oracle draws Fraction
    # candidates and ranks them over the rationals
    a = case[0]
    for seed in seeds:
        assert find_quasi_regular_basis(a, trials, seed) == \
            nullspace_quasi_regular_basis(a, trials, seed)


@settings(derandomize=True, database=None, deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.too_slow])
@given(cartan_cases())
def test_prolongation_matches_the_dense_rows(case):
    a = case[0]
    assert prolong(a) == dense_prolong(a)
    assert prolong(a.prolongation) == dense_prolong(a.prolongation)


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(cartan_cases())
@example((symbol_space(3, 3, SO3_ROWS), [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
          0, 1))
@example((full_hom(3, 2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 0, 1))
@example((zero_symbol(2, 3), [[1, 0], [0, 1]], 0, 1))
@example((full_hom(0, 2), [], 0, 1))
@example((full_hom(2, 0), [[1, 0], [0, 1]], 0, 1))
def test_spencer_window_matches_the_dense_cochain_vectors(case):
    a = case[0]
    assert spencer_cohomology(a) == dense_spencer_cohomology(a)


def test_a_coboundary_without_signs_is_reported_as_d_squared_nonzero(
        monkeypatch):
    # the rows of d go through d once more; with the signs dropped the
    # images of x0*x1 meet with equal signs in Lambda^2 and do not cancel
    signed = spencer._d
    monkeypatch.setattr(spencer, "_d", lambda *args: (
        (key, col, abs(x)) for key, col, x in signed(*args)))
    assert spencer_cohomology(full_hom(2, 1)).d_squared_zero is False


def test_a_flag_is_one_elimination():
    # the flag dims of a basis are read off the pivots of one echelon form,
    # not off a rank of the growing stack of flag rows per step
    a = so3_symbol()
    basis = tuple(tuple(map(Fraction, v))
                  for v in ([1, 2, 0], ["1/2", 1, 3], [1, 0, "-1/3"]))
    ints = [linalg.integer_row(v)[0] for v in basis]
    a.prolongation
    with mock.patch.object(spencer, "echelon",
                           wraps=spencer.echelon) as ech, \
            mock.patch.object(linalg, "rank", wraps=linalg.rank) as rank:
        result = spencer._flag_test(a, ints)
    assert ech.call_count == 1 and rank.call_count == 0
    assert result == nullspace_cartan_test(a, basis)


def test_the_basis_search_validates_the_space_once(monkeypatch):
    # the public test (which checks the order) runs on the standard basis
    # only; every random candidate is ranked once, in the search
    calls = []
    public = spencer.cartan_test
    monkeypatch.setattr(spencer, "cartan_test",
                        lambda *args: calls.append(args) or public(*args))
    a = symbol_space(3, 3, SO3_ROWS)
    assert find_quasi_regular_basis(a, trials=6, seed=5) is None
    assert calls == [(a,)]
    with pytest.raises(ValidationError, match="order-1"):
        find_quasi_regular_basis(a.prolongation)


def _cartan_floor(a):
    # j test vectors impose at most j * w conditions on the d symbols
    return sum(max(0, a.dim - j * a.w_dim) for j in range(a.v_dim + 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.too_slow])
@given(cartan_cases())
@example((symbol_space(3, 3, SO3_ROWS), [[1, 2, 0], [0, 1, 3], [1, 0, 1]],
          5, 6))
@example((full_hom(3, 2), [[1, 1, 0], [0, 1, 1], [1, 0, 1]], 11, 3))
@example((symbol_space(2, 2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
          [[1, 0], [0, 1]], 0, 1))
def test_every_flag_sum_reaches_cartans_lower_bound(case):
    a, basis, _, _ = case
    bases = [linalg.identity(a.v_dim)]
    if linalg.rank(basis) == a.v_dim:
        bases.append(tuple(tuple(map(linalg.frac, v)) for v in basis))
    for b in bases:
        ints = [linalg.integer_row(v)[0] for v in b]
        assert spencer._flag_test(a, ints)[1] >= _cartan_floor(a)


@settings(derandomize=True, database=None, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.too_slow])
@given(cartan_cases())
@example((symbol_space(3, 3, SO3_ROWS), [], 5, 6))
# the standard basis fails above the floor, and a drawn candidate passes
@example((symbol_space(2, 1, [[0, 1]]), [], 2, 8))
@example((symbol_space(3, 2, [[0, 1, 0, 0, 0, 2], [0, 0, 1, 0, 1, 0]]), [],
          3, 6))
def test_the_draws_are_skipped_only_below_cartans_lower_bound(case):
    # below the floor no basis attains the bound, so the search ends as the
    # search through every candidate ends; anywhere else it draws them
    a, _, seed, trials = case
    p1, _, ok = cartan_test(a)
    with mock.patch.object(spencer.random, "Random",
                           wraps=random.Random) as rng:
        found = find_quasi_regular_basis(a, trials, seed)
    assert rng.called == (not ok and p1 >= _cartan_floor(a))
    assert found == unbounded_quasi_regular_basis(a, trials, seed)


def test_on_so3_the_basis_search_stops_at_cartans_lower_bound():
    # dim a^(1) = 0 against a floor of 3 + 0 + 0 + 0: one flag, the
    # standard basis's, is tested and no candidate is drawn
    a = so3_symbol()
    assert (a.prolongation.dim, _cartan_floor(a)) == (0, 3)
    with mock.patch.object(spencer, "_flag_test",
                           wraps=spencer._flag_test) as flags:
        assert find_quasi_regular_basis(a) is None
    assert flags.call_count == 1
    assert unbounded_quasi_regular_basis(a) is None


COBOUNDARY_SHAPES = st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(1, 3), st.integers(0, min(3, m)),
    st.integers(1, 4)))


@st.composite
def coboundary_cases(draw):
    """A shape (m, w, p, s), m <= 4, w <= 3, p <= 3, s <= 4, and cochain
    contributions (row key, column of C^p(order s), nonzero value)."""
    m, w, p, s = draw(COBOUNDARY_SHAPES)
    ncols = comb(m, p) * symbol_coord_dim(m, w, s)
    cochains = draw(st.lists(st.tuples(
        st.integers(0, 3), st.integers(0, ncols - 1),
        st.integers(-3, 3).filter(bool)), max_size=40))
    return m, w, p, s, cochains


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(coboundary_cases())
@example((4, 3, 3, 4, [(0, c, 1) for c in range(4 * 3 * 35)]))
@example((3, 2, 0, 4, [(k, 7 * k, 1 - 2 * k) for k in range(4)]))
@example((2, 1, 2, 1, [(0, 0, 2), (0, 1, -1)]))
def test_the_coboundary_table_matches_the_sorting_formula(case):
    m, w, p, s, cochains = case
    table = list(spencer._d(m, w, p, s, iter(cochains)))
    assert table == list(sorting_spencer_d(m, w, p, s, iter(cochains)))
    assert condition_rows(table) == condition_rows(
        sorting_spencer_d(m, w, p, s, iter(cochains)))


@settings(derandomize=True, database=None, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(cartan_cases())
@example((symbol_space(2, 2, [[1, 0, 0, 1], [0, 1, -1, 0]]), [], 0, 1))
def test_each_prolongation_keeps_the_annihilator_of_its_basis(case):
    # the reduced row space of the condition rows that cut out a^(q) is
    # the reduced row space of the kernel of a^(q)'s basis
    up = case[0]
    for _ in range(3):
        up = up.prolongation
        n = symbol_coord_dim(up.v_dim, up.w_dim, up.order)
        if up.rows:
            ann = linalg.sparse_nullspace(up.rows, n)[0]
            assert up.annihilator == linalg.sparse_row_space(list(ann), n)[0]


def test_only_the_order_one_symbol_is_solved_back_into_annihilators():
    # three prolongations of co(2): one solve of a basis, of the order-1
    # symbol, where there were three
    a = symbol_space(2, 2, [[1, 0, 0, 1], [0, 1, -1, 0]])
    with mock.patch.object(spencer.linalg, "sparse_nullspace",
                           wraps=linalg.sparse_nullspace) as solves:
        dims = [a.prolongation.dim, a.prolongation.prolongation.dim,
                a.prolongation.prolongation.prolongation.dim]
    assert dims == [2, 2, 2]
    assert [call.args[0] for call in solves.call_args_list] == [a.rows]


def _window_coords(v, w):
    return sum(comb(v, p) * symbol_coord_dim(v, w, q + 1)
               for p in range(4) for q in range(4))


def _run_cohomology(capsys, tmp_path, doc):
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["spencer", "--symbol", str(path), "--op", "cohomology"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("v, w, rows", [
    # a zero symbol just above the bound: the estimate reads v and w only
    (3, 74, []),
    # the full symbol of Hom(R^6, R^6), 26 s and 566 MB without the bound
    (6, 6, [[int(i == j) for j in range(36)] for i in range(36)]),
])
def test_spencer_window_over_the_coordinate_bound_is_refused_with_exit_2(
        capsys, tmp_path, v, w, rows):
    estimate = _window_coords(v, w)
    assert estimate > spencer.WINDOW_COORD_BOUND
    with mock.patch.object(spencer, "prolong") as prolongation:
        code, doc = _run_cohomology(capsys, tmp_path,
                                    {"v": v, "w": w, "basis": rows})
    assert code == 2 and not prolongation.called
    assert doc["error"] == {"type": "ValidationError", "message": (
        f"refused: Spencer window cochain coordinates estimated at "
        f"{estimate}, above the bound of {spencer.WINDOW_COORD_BOUND}")}


def test_spencer_window_just_below_the_coordinate_bound_runs(capsys,
                                                             tmp_path):
    assert _window_coords(3, 73) <= spencer.WINDOW_COORD_BOUND \
        < _window_coords(3, 74)
    code, doc = _run_cohomology(capsys, tmp_path,
                                {"v": 3, "w": 73, "basis": []})
    assert code == 0
    assert doc["result"]["prolong_dims"] == [0, 0, 0, 0]


# The zero space prolongs to zero without a solve; the solved result (the
# former dense solve) is the same space, and the reports of a symbol whose
# prolongation chain reaches zero (so3: a^(1) = 0) and of the zero symbol
# are those the solve gave.

@pytest.mark.parametrize("m, w, s", [(1, 1, 1), (2, 1, 1), (2, 2, 1),
                                     (3, 2, 1), (2, 3, 2), (3, 3, 2),
                                     (1, 2, 3), (4, 1, 2)])
def test_the_zero_space_prolongs_to_zero_without_a_solve(m, w, s):
    zero = SymbolSpace(m, w, (), (), s)
    with mock.patch.object(spencer.linalg, "sparse_nullspace",
                           side_effect=AssertionError("solved")):
        up = prolong(zero)
    assert up == dense_prolong(zero) == SymbolSpace(m, w, (), (), s + 1)


@pytest.mark.parametrize("basis", [SO3_ROWS, []])
@pytest.mark.parametrize("op", ["prolong", "cartan", "cohomology",
                                "involutive"])
def test_reports_through_a_zero_prolongation_are_unchanged(
        tmp_path, basis, op):
    path = tmp_path / "symbol.json"
    v = 3 if basis else 2
    path.write_text(json.dumps({"v": v, "w": v, "basis": basis}))
    argv = ["spencer", "--symbol", str(path), "--op", op]
    with mock.patch.object(spencer, "prolong", dense_prolong):
        solved = cli.run(argv)
    assert cli.run(argv) == solved
