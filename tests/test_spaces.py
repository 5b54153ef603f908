import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul import forms, linalg, spaces
from koszul._kernel import P, independent_rows_mod_p
from koszul.algebra import SparseTable
from koszul.catalog import sl2
from koszul.connections import cartan_connection
from koszul.errors import KoszulError, ValidationError
from koszul.forms import GENERAL, SYMMETRIC, form_space
from koszul.gauge import parallel_rows
from koszul.spaces import LinearSolutionSpace, from_conditions
from koszul.spencer import SymbolSpace

from conftest import rand_invertible, span
from oracles import basis_largest_invariant, word_largest_invariant

F = Fraction


def test_from_conditions_returns_the_verified_kernel():
    rows = [{0: 1, 2: -1}, {}]
    space = from_conditions(rows, 3)
    assert space.basis == ((F(0), F(1), F(0)), (F(1), F(0), F(1)))
    assert from_conditions([], 2).dim == 2


def test_from_conditions_rejects_a_vector_violating_its_conditions(
        monkeypatch):
    # a solver that answers with a wrong vector must not get past the
    # substitution check, including on a condition with one nonzero entry
    def wrong(rows, ncols):
        return ({0: 1, 2: 1}, {1: 1}), (1, 1)

    monkeypatch.setattr(linalg, "sparse_nullspace", wrong)
    rows = [{0: 1, 2: -1}, {1: 2}]
    with pytest.raises(KoszulError, match="violating its conditions"):
        spaces.from_conditions(rows, 3)


def test_form_space_rejects_a_fault_in_the_fold_or_the_expansion(
        monkeypatch):
    # the ad-invariant symmetric forms of sl2 (h, e, f): the Killing form,
    # with an off-diagonal entry. A solver that answers with a wrong vector,
    # a fold that loses rows or an expansion with the wrong sign must not
    # get past the substitution into the full rows.
    rows = parallel_rows(cartan_connection(sl2(), "plus"))
    assert form_space(rows, 3, SYMMETRIC).matrices() == (
        ((F(2), F(0), F(0)), (F(0), F(0), F(1)), (F(0), F(1), F(0))),)
    with pytest.raises(ValidationError, match="symmetric or skew"):
        form_space(rows, 3, GENERAL)
    expand = forms._expand
    faults = [
        (linalg, "sparse_nullspace", lambda rows, n: (
            tuple({c: 1} for c in range(n)), (1,) * n)),
        (linalg, "sparse_nullspace", lambda rows, n: (({0: 1},), (1,))),
        (forms, "condition_rows", lambda entries: []),
        (forms, "_expand", lambda row, pairs, sign:
         expand(row, pairs, -sign)),
    ]
    for module, name, fault in faults:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fault)
            with pytest.raises(KoszulError, match="its full conditions"):
                form_space(rows, 3, SYMMETRIC)


def test_dependent_basis_is_rejected():
    u = (F(1), F(2), F(0))
    v = (F(-1, 2), F(-1), F(0))
    with pytest.raises(KoszulError, match="linearly dependent"):
        span(3, (u, v))
    with pytest.raises(KoszulError, match="linearly dependent"):
        span(3, (u, (F(0), F(0), F(0))))
    assert span(3, (u, (F(0), F(0), F(1)))).dim == 2


# The one independence check of a basis (`spaces.independent`), for solution
# and symbol spaces alike: rows independent mod P are independent over Q,
# and only rows that fall short mod P are ranked exactly.

SPACES = [(lambda rows: LinearSolutionSpace(2, rows, (1,) * len(rows)),
           "solution basis is linearly dependent"),
          (lambda rows: SymbolSpace(2, 1, rows, (1,) * len(rows)),
           "symbol basis is linearly dependent")]


@pytest.mark.parametrize("build, message", SPACES)
def test_rows_dependent_mod_p_are_ranked_exactly(build, message):
    # det = P: dependent mod P, independent over Q
    rows = ({0: 1, 1: 1}, {0: 1, 1: 1 + P})
    assert len(independent_rows_mod_p(rows, 2)[0]) == 1
    assert build(rows).dim == 2
    with pytest.raises(KoszulError, match=message):
        build(({0: 1, 1: 1}, {0: 1, 1: 1}))


@pytest.mark.parametrize("build", [build for build, _ in SPACES])
def test_rows_independent_mod_p_skip_the_exact_rank(monkeypatch, build):
    monkeypatch.setattr(linalg, "sparse_rank", pytest.fail)
    assert build(({0: 3, 1: 1}, {1: 2})).dim == 2


@st.composite
def invariant_problems(draw):
    """One to three n x n operators M_i (entry [l][a]: the e_l part of
    M_i e_a), n <= 5, and a start spanned by unit vectors and at most one
    other vector, all under an optional dense basis change. The operators
    are lower triangular, or strictly so, or not at all: a triangular
    operator keeps each span(e_k, ..., e_{n-1}), so a start can shrink
    through several of them."""
    n = draw(st.integers(2, 5))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, F(1, 2)))
    vectors = st.lists(entries, min_size=n, max_size=n)
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        cut = draw(st.sampled_from((0, 1, 1, n)))
        ops.append([[x if l >= a + cut or cut == n else 0
                     for a, x in enumerate(row)]
                    for l, row in enumerate(draw(st.lists(
                        vectors, min_size=n, max_size=n)))])
    gens = [[int(j == u) for j in range(n)]
            for u in draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=n))]
    gens += draw(st.lists(vectors, max_size=1))
    change = draw(st.none() | st.integers(0, 2 ** 16))
    if change is not None:
        pm = rand_invertible(n, random.Random(change))
        inv = linalg.inverse(pm)
        ops = [linalg.mat_mul(inv, linalg.mat_mul(op, pm)) for op in ops]
        gens = [linalg.mat_vec(inv, g) for g in gens]
    return n, ops, gens


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(invariant_problems())
def test_largest_invariant_matches_the_word_oracle(problem):
    n, ops, gens = problem
    table = SparseTable((i, a, l, op[l][a]) for i, op in enumerate(ops)
                        for l in range(n) for a in range(n))
    start = linalg.sparse_row_space(
        [linalg.integer_row(g)[0] for g in gens], n)
    ann = linalg.sparse_nullspace(list(start[0]), n)[0]
    rows, scales, steps = spaces.largest_invariant(ann, table, n)
    # the former walk on the span's reduced basis gives the same basis,
    # scales and step count
    assert (rows, scales, steps) == basis_largest_invariant(*start, table, n)
    got = linalg.vectors(rows, scales, n)
    want = word_largest_invariant(linalg.vectors(*start, n), ops, n)
    d = len(start[0])
    assert len(got) == len(want) and steps <= d + 1
    assert linalg.rank(linalg.vectors(*start, n) + got) == d
    for op in ops:
        assert all(linalg.rank(got + (linalg.mat_vec(op, w),)) == len(got)
                   for w in got)
    assert linalg.row_space_basis(got) == linalg.row_space_basis(want)


def test_largest_invariant_of_a_shift():
    # M e_0 = e_1, M e_1 = e_2, M e_2 = 0: inside span(e_0, e_2) only e_2
    # stays, after a step that shrinks and one that does not; span(e_1,
    # e_2) is kept at once, and span(e_0) shrinks to zero in one step; each
    # span is given by the rows that cut it out
    table = SparseTable([(0, 0, 1, 1), (0, 1, 2, 1)])
    assert spaces.largest_invariant(({1: 1},), table, 3) == \
        (({2: 1},), (1,), 2)
    assert spaces.largest_invariant(({0: 1},), table, 3)[2] == 1
    assert spaces.largest_invariant(({1: 1}, {2: 1}), table, 3) == \
        ((), (), 1)
    assert spaces.largest_invariant(({0: 1}, {1: 1}, {2: 1}), table, 3) == \
        ((), (), 0)


def test_condition_rows_take_integers_only():
    # each row summed per cell and divided by its content, its sign kept;
    # a rational contribution is refused, not scaled
    assert spaces.condition_rows([(1, 0, 3), (0, 2, -4), (0, 1, 2),
                                  (1, 0, -3), (2, 1, -6)]) == \
        [{2: -2, 1: 1}, {1: -1}]
    with pytest.raises(TypeError):
        spaces.condition_rows([(0, 1, 2), (0, 2, Fraction(1, 2))])


def test_largest_invariant_solves_once_per_step(monkeypatch):
    # one elimination per step, one for the starting rows and one for the
    # space: s + 2 for s steps, the closure rows themselves solve nothing
    table = SparseTable([(0, 0, 1, 1), (0, 1, 2, 1)])
    calls = []
    for name in ("sparse_row_space", "sparse_nullspace"):
        def counted(rows, ncols, real=getattr(linalg, name)):
            calls.append(len(rows))
            return real(rows, ncols)
        monkeypatch.setattr(linalg, name, counted)
    for rows, steps in ((({1: 1},), 2), (({0: 1},), 1), ((), 1),
                        (({1: 1}, {2: 1}), 1),
                        (({0: 1}, {1: 1}, {2: 1}), 0)):
        calls.clear()
        assert spaces.largest_invariant(rows, table, 3)[2] == steps
        assert len(calls) == steps + 2
    into = spaces.accumulate((l, (k, a), v) for k, a, l, v in table.nonzeros)
    calls.clear()
    assert spaces._closure_rows(({1: 1},), into) == [{1: 1}, {0: 1}]
    assert calls == []
