from fractions import Fraction
from math import comb

import pytest

from koszul import linalg
from koszul.errors import ValidationError
from koszul.spencer import (
    SymbolSpace,
    cartan_test,
    find_quasi_regular_basis,
    full_hom,
    is_involutive,
    monomials,
    prolong,
    spencer_cohomology,
    symbol_coord_dim,
    symbol_space,
    zero_symbol,
)

from oracles import full_symbol_cartan_total


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
        SymbolSpace(2, 1, ((Fraction(1), Fraction(0)),
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
