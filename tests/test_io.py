import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszul import cli, io
from koszul.algebra import SparseTable, lie_from_sparse
from koszul.catalog import aff1_omega, heisenberg, heisenberg_kv, so3, so3_killing
from koszul.connections import cartan_connection
from koszul.errors import KoszulError, ValidationError
from koszul.spencer import symbol_space

from conftest import rand_fraction
from oracles import fraction_load_table, fraction_parse, fraction_table


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


# A table file is read into integers, (index..., numerator, denominator),
# and built by `SparseTable.from_parts`; against the former path of one
# Fraction per entry (tests/oracles.py) it must give an equal table, with
# the same denominator and nonzeros, or the same error.

DENOMINATORS = st.sampled_from([1, 2, 3, 4, 6])


def _spelled(value: Fraction, draw) -> object:
    """value as a file may write it: an int, "p", or "p/q" not always in
    lowest terms."""
    k = draw(st.integers(1, 3))
    if value.denominator == 1 and k == 1:
        n = value.numerator
        return draw(st.sampled_from([n, str(n), f"+{n}" if n >= 0 else n]))
    return f"{value.numerator * k}/{value.denominator * k}"


# entries no reader or builder accepts, each with the message of its own
MALFORMED = [[0, 1], [0, 1, 0, "1", "2"], "0 1 0 1", None,
             [True, 0, 0, "1"], [0, 1.0, 0, "1"], [0, 0, 9, "1"],
             [-1, 0, 0, "1"], [0, 1, 0, "1.5"], [0, 1, 0, "a/b"],
             [0, 1, 0, "1/-2"], [0, 1, 0, "3/0"], [0, 1, 0, "1" * 4301],
             [0, 1, 0, "1/" + "7" * 4301], [0, 1, 0, 0.5], [0, 1, 0, True],
             [0, 1, 0, None], [0, 1, 0, [1]]]


@st.composite
def table_documents(draw):
    """(document, skew): a bracket or product file with shared or unshared
    denominators, zero entries, exact repeats, mirror entries, and at times
    a conflicting, not opposite, diagonal or malformed entry."""
    skew = draw(st.booleans())
    dim = draw(st.sampled_from([0, 1, 2, 3, 4, 4, 5, 5]))
    shared = draw(st.one_of(st.none(), DENOMINATORS))
    idx = st.integers(0, max(dim - 1, 0))
    values = []
    for _ in range(draw(st.integers(0, 8)) if dim else 0):
        i, j, k = draw(idx), draw(idx), draw(idx)
        if skew and i == j and draw(st.integers(0, 3)) < 3:
            j = (i + 1) % dim
        n = draw(st.integers(-6, 6))
        values.append((i, j, k, Fraction(n, shared or draw(DENOMINATORS))))
    entries = [[i, j, k, _spelled(v, draw)] for i, j, k, v in values]
    for i, j, k, v in values[:draw(st.integers(0, len(values)))]:
        kind = draw(st.sampled_from(["repeat", "mirror", "mirror", "other"]))
        if kind == "mirror":
            i, j, v = j, i, -v if skew else v
        elif kind == "other":
            v += draw(st.sampled_from([1, -1, Fraction(1, 2)]))
        entries.insert(draw(st.integers(0, len(entries))),
                       [i, j, k, _spelled(v, draw)])
    if draw(st.integers(0, 3)) == 0:
        entries.insert(draw(st.integers(0, len(entries))),
                       draw(st.sampled_from(MALFORMED)))
    return {"dim": dim, "bracket" if skew else "gamma": entries}, skew


def _table_outcome(load, *args):
    try:
        t = load(*args).sparse
    except KoszulError as exc:
        return type(exc).__name__, str(exc)
    return t.den, t.nonzeros


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(table_documents())
@example(({"dim": 2, "gamma": [[0, 1, 1, "1/2"], [0, 1, 1, "2/4"],
                               [1, 0, 0, "0/5"], [1, 1, 1, "-3/6"]]}, False))
@example(({"dim": 3, "bracket": [[0, 1, 2, "1/3"], [1, 0, 2, "-2/6"],
                                 [2, 2, 0, "0"], [1, 2, 0, 4]]}, True))
@example(({"dim": 2, "bracket": [[0, 1, 0, "1"], [1, 0, 0, "1"]]}, True))
@example(({"dim": 2, "bracket": [[1, 1, 0, "1/2"]]}, True))
@example(({"dim": 2, "gamma": [[0, 0, 0, "1"], [0, 0, 0, "2"],
                               [0, 1, 0, "1/0"]]}, False))
def test_a_table_file_loads_as_the_fraction_path_loads_it(case):
    doc, skew = case
    load = io.load_algebra if skew else io.load_product
    assert _table_outcome(load, "t.json", json.dumps(doc)) == \
        _table_outcome(fraction_load_table, doc, "t.json", skew)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.booleans(), st.lists(st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
    st.integers(-10 ** 20, 10 ** 20), st.integers(1, 12)), max_size=10))
def test_integer_tables_match_the_fraction_built_ones(skew, parts):
    # any dimension: no Jacobi check stands between the builder and the
    # comparison
    def outcome(build, entries):
        try:
            t = build(entries)
        except KoszulError as exc:
            return type(exc).__name__, str(exc)
        return t.den, t.nonzeros
    new = outcome(lambda e: SparseTable.from_parts(e, skew, "w: "), parts)
    old = outcome(lambda e: fraction_table(5, e, skew, "w: "),
                  [(i, j, k, Fraction(n, d)) for i, j, k, n, d in parts])
    if skew and isinstance(old[1], str):
        old = old[0], "w: " + old[1]
    assert new == old


def test_an_input_file_is_read_once(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(io.dump_algebra(so3())))
    reads = []
    real = io.read_text
    monkeypatch.setattr(io, "read_text",
                        lambda p: reads.append(p) or real(p))
    assert cli.run(["check-lie", "--algebra", str(path)])["result"] == {
        "valid": True, "dim": 3}
    assert reads == [str(path)]


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
