from fractions import Fraction

import pytest

from koszul import linalg, spaces
from koszul.errors import KoszulError
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


def test_dependent_basis_is_rejected():
    u = (F(1), F(2), F(0))
    v = (F(-1, 2), F(-1), F(0))
    with pytest.raises(KoszulError, match="linearly dependent"):
        LinearSolutionSpace(3, (u, v))
    with pytest.raises(KoszulError, match="linearly dependent"):
        LinearSolutionSpace(3, (u, (F(0), F(0), F(0))))
    assert LinearSolutionSpace(3, (u, (F(0), F(0), F(1)))).dim == 2
