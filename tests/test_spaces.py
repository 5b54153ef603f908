from fractions import Fraction

import pytest

from koszul import forms, linalg, spaces
from koszul.catalog import sl2
from koszul.connections import cartan_connection
from koszul.errors import KoszulError, ValidationError
from koszul.forms import GENERAL, SYMMETRIC, form_space
from koszul.gauge import parallel_rows
from koszul.spaces import LinearSolutionSpace, from_conditions

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
        return ((F(1), F(0), F(1)), (F(0), F(1), F(0)))

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
        (linalg, "sparse_nullspace", lambda rows, n: linalg.identity(n)),
        (linalg, "sparse_nullspace", lambda rows, n: (
            tuple(F(int(c == 0)) for c in range(n)),)),
        (forms, "condition_rows", lambda entries: []),
        (forms, "_expand", lambda vec, pairs, m, sign:
         expand(vec, pairs, m, -sign)),
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
        LinearSolutionSpace(3, (u, v))
    with pytest.raises(KoszulError, match="linearly dependent"):
        LinearSolutionSpace(3, (u, (F(0), F(0), F(0))))
    assert LinearSolutionSpace(3, (u, (F(0), F(0), F(1)))).dim == 2
