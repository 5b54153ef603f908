from fractions import Fraction

import pytest

from koszul import forms, linalg, spaces
from koszul._kernel import P, independent_rows_mod_p
from koszul.catalog import sl2
from koszul.connections import cartan_connection
from koszul.errors import KoszulError, ValidationError
from koszul.forms import GENERAL, SYMMETRIC, form_space
from koszul.gauge import parallel_rows
from koszul.spaces import LinearSolutionSpace, from_conditions
from koszul.spencer import SymbolSpace

from conftest import span

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
