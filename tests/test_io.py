import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszul import io
from koszul.algebra import lie_from_sparse
from koszul.catalog import aff1_omega, heisenberg, heisenberg_kv, so3, so3_killing
from koszul.connections import cartan_connection
from koszul.errors import ValidationError
from koszul.spencer import symbol_space

from conftest import rand_fraction
from oracles import fraction_parse


def test_parse_fraction_accepts_exact_values_only():
    assert io.parse_fraction("3/4") == Fraction(3, 4)
    assert io.parse_fraction("-2") == Fraction(-2)
    assert io.parse_fraction(5) == Fraction(5)
    for bad in (0.5, True, False, None, "3.5", "a/b", [1]):
        with pytest.raises(ValidationError):
            io.parse_fraction(bad)


def _parsed(parse, value):
    try:
        return parse(value)
    except ValidationError as exc:
        return "ValidationError", str(exc)


# ASCII, Arabic-Indic and fullwidth digits: int() and the regex's \d read all
DIGITS = "0123456789" + "\u0660\u0663\u0669" + "\uff10\uff17"
LITERALS = st.builds(
    lambda sign, num, den: sign + num + den,
    st.sampled_from(["", "+", "-", "--", " "]),
    st.text(DIGITS, max_size=6),
    st.one_of(st.just(""), st.text(DIGITS, max_size=6).map("/".__add__)))
VALUES = st.one_of(LITERALS, st.text(max_size=5), st.integers(), st.floats(),
                   st.booleans(), st.none(), st.lists(st.integers(),
                                                      max_size=1))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(VALUES)
@example("7/0")
@example("-0/0")
@example("-0")
@example("+007/0010")
@example("1" * 4301)
@example("-2/" + "3" * 4301)
@example("9" * 4300)
@example(10 ** 5000)
@example(1.5)
@example(float("nan"))
def test_parse_fraction_matches_fraction_of_str(value):
    # the same Fraction or the same ValidationError text, digit-limit
    # errors of int() included
    assert _parsed(io.parse_fraction, value) == _parsed(fraction_parse, value)


def test_a_part_past_the_digit_limit_is_a_bad_literal():
    value = "1/" + "1" * 4301
    with pytest.raises(ValidationError) as info:
        io.parse_fraction(value)
    assert str(info.value) == f"bad rational literal {value!r}"


def test_fraction_str_roundtrip(rng):
    for _ in range(20):
        f = rand_fraction(rng, -20, 20)
        assert io.parse_fraction(io.fraction_str(f)) == f


def test_algebra_roundtrip(tmp_path):
    for L in (so3(), heisenberg()):
        p = tmp_path / "alg.json"
        p.write_text(json.dumps(io.dump_algebra(L)))
        back = io.load_algebra(p)
        assert back.dim == L.dim and back.c == L.c


def test_product_roundtrip(tmp_path):
    p = tmp_path / "prod.json"
    prod = heisenberg_kv()
    p.write_text(json.dumps(io.dump_product(prod)))
    back = io.load_product(p)
    assert back.dim == prod.dim and back.gamma == prod.gamma


def test_connection_roundtrip_checks_dimension(tmp_path):
    conn = cartan_connection(so3(), "zero")
    p = tmp_path / "conn.json"
    p.write_text(json.dumps(io.dump_connection(conn)))
    back = io.load_connection(p, so3())
    assert back.gamma.gamma == conn.gamma.gamma
    with pytest.raises(ValidationError):
        io.load_connection(p, lie_from_sparse(2, [(0, 1, 1, 1)]))


def test_form_roundtrip(tmp_path):
    for form in (so3_killing(), aff1_omega()):
        p = tmp_path / "form.json"
        p.write_text(json.dumps(io.dump_form(form)))
        back = io.load_form(p)
        assert back.matrix == form.matrix and back.sym == form.sym


def test_symbol_roundtrip(tmp_path):
    a = symbol_space(3, 2, [[1, 0, 0, 0, 1, 0], [0, 0, 1, 0, 0, -1]])
    p = tmp_path / "sym.json"
    p.write_text(json.dumps(io.dump_symbol(a)))
    back = io.load_symbol(p)
    assert back.v_dim == 3 and back.w_dim == 2
    assert back.basis == a.basis


def test_floats_in_documents_are_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dim": 2, "bracket": [[0, 1, 0, 0.5]]}))
    with pytest.raises(ValidationError):
        io.load_algebra(p)


def test_malformed_documents_are_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"bracket": []}))
    with pytest.raises(ValidationError):
        io.load_algebra(p)
    p.write_text(json.dumps({"dim": 2, "bracket": [[0, 5, 0, "1"]]}))
    with pytest.raises(ValidationError):
        io.load_algebra(p)
    p.write_text("not json at all {")
    with pytest.raises(ValidationError):
        io.load_algebra(p)


def _product_file(tmp_path, gamma):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"dim": 2, "gamma": gamma}))
    return path


def test_a_product_file_may_repeat_an_entry_exactly(tmp_path):
    p = io.load_product(_product_file(
        tmp_path, [[0, 1, 1, "1/2"], [1, 0, 0, "3"], [0, 1, 1, "2/4"]]))
    assert list(p.sparse.items()) == [(0, 1, 1, Fraction(1, 2)),
                                      (1, 0, 0, Fraction(3))]


def test_a_product_file_with_contradictory_entries_is_refused(tmp_path):
    path = _product_file(tmp_path, [[1, 0, 1, "1"], [0, 0, 0, "1"],
                                    [1, 0, 1, "2"]])
    with pytest.raises(ValidationError) as info:
        io.load_product(path)
    assert str(info.value) == f"{path}: conflicting entries for (1,0,1)"
    with pytest.raises(ValidationError, match=r"conflicting entries for "
                                              r"\(1,0,1\)$"):
        io.load_connection(path, lie_from_sparse(2, [(0, 1, 1, 1)]))


def test_jsonable_converts_everything():
    @dataclass
    class Tiny:
        a: Fraction
        b: tuple

    out = io.jsonable(Tiny(Fraction(1, 3), (Fraction(2), "x")))
    assert out == {"a": "1/3", "b": ["2", "x"]}
    assert io.jsonable(np.array([1.5, 2.5])) == [1.5, 2.5]
    assert io.jsonable(np.float64(0.25)) == 0.25
    assert json.dumps(io.jsonable({"k": Fraction(-7, 2)})) == '{"k": "-7/2"}'
