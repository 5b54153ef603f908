"""Packed rows (`koszul.algebra._packed`, `_unpacked`, `_route_width`).

Needs only the standard library, so it runs on every supported
interpreter: `PYTHONPATH=src:tests python -c "import test_packed_rows as t;
t.test_rows_round_trip_through_their_packed_integers();
t.test_digits_at_the_width_bound_round_trip_and_one_past_does_not();
t.test_a_packed_row_pays_for_every_digit_it_spans();
t.test_packed_sums_unpack_to_the_sums_of_the_rows()"`.
"""

import random

from koszul.algebra import (_PACK_MAX_WIDTH, _PACK_MIN_ROW, SparseTable,
                            _packed, _route_width, _unpacked)


def _row_table(row):
    """The table whose one row (0, 0) is `row`, k -> n."""
    return SparseTable.over({(0, 0, k): n for k, n in row.items()}, 1)


def test_rows_round_trip_through_their_packed_integers():
    # signed digits, zero digits between and after them, at several widths
    rng = random.Random(20261020)
    for width in (2, 3, 8, 63, 64, 65, 200):
        top = 2 ** (width - 1) - 1
        for _ in range(50):
            row = {k: rng.choice((rng.randint(-top, top), 0, top, -top))
                   for k in range(rng.randint(1, 9))}
            by_first, by_second = _packed(_row_table(row), width)
            want = {k: n for k, n in row.items() if n}
            if not want:
                assert by_first == by_second == {}
                continue
            [(j, zero, packed)] = by_first[0]
            assert (j, zero) == (0, 0) and by_second == {0: [(0, 0, packed)]}
            assert _unpacked({0: packed}, width) == want
            # a key k0 puts digit l at k0 + l
            assert _unpacked({40: packed}, width) == {
                40 + k: n for k, n in want.items()}
    assert _unpacked({0: 0, 5: 0}, 8) == {}


def test_digits_at_the_width_bound_round_trip_and_one_past_does_not():
    for bound in (1, 2, 3, 7, 8, 2 ** 64 - 1, 2 ** 64, 3 ** 200, 2 ** 1100):
        # the width the route rule derives for digit sums up to bound, on a
        # table whose rows qualify: no wider than needed to hold ±bound
        table = _row_table({k: 1 for k in range(_PACK_MIN_ROW)})
        width = _route_width(table, _PACK_MIN_ROW, lambda: bound)
        if width == 0:
            assert bound.bit_length() + 1 > _PACK_MAX_WIDTH
            continue
        assert 2 ** (width - 2) <= bound < 2 ** (width - 1)
        lo, hi = -2 ** (width - 1), 2 ** (width - 1) - 1
        digits = [bound, -bound, hi, lo, 0, lo, hi, 1, -1]
        packed = sum(d << width * l for l, d in enumerate(digits))
        assert _unpacked({0: packed}, width) == {
            l: d for l, d in enumerate(digits) if d}
        # 2^(W-1) is past the signed range: it reads as -2^(W-1) and a
        # carry into the next digit
        assert _unpacked({0: (hi + 1) << width}, width) == {1: lo, 2: 1}


def test_a_packed_row_pays_for_every_digit_it_spans():
    # _PACK_MIN_ROW nonzeros spread over 16 times as many digits: at most
    # _PACK_MAX_WIDTH bits per nonzero leaves digits of `cap` bits
    n, r = _PACK_MIN_ROW, 16 * _PACK_MIN_ROW
    cap = _PACK_MAX_WIDTH * n // r
    table = _row_table({16 * k: 1 for k in range(n)})
    assert _route_width(table, r, lambda: 2 ** (cap - 1) - 1) == cap
    assert _route_width(table, r, lambda: 2 ** (cap - 1)) == 0
    # the same row over n digits takes digits of up to _PACK_MAX_WIDTH bits
    assert _route_width(table, n, lambda: 2 ** (cap - 1)) == cap + 1
    # rows below _PACK_MIN_ROW nonzeros, and an empty table, are not packed
    short = _row_table({k: 1 for k in range(n - 1)})
    assert _route_width(short, n - 1, lambda: 1) == 0
    assert _route_width(SparseTable(), 0, lambda: 0) == 0


def test_packed_sums_unpack_to_the_sums_of_the_rows():
    # sum_t v_t · packed(row_t) unpacks to the digit sums sum_t v_t row_t[k]
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randint(1, 8)
        terms = [(rng.randint(-10 ** 6, 10 ** 6),
                  {k: rng.randint(-10 ** 9, 10 ** 9) for k in range(r)
                   if rng.random() < 0.7}) for _ in range(rng.randint(1, 12))]
        sums = {k: sum(v * row.get(k, 0) for v, row in terms)
                for k in range(r)}
        width = max(map(abs, sums.values())).bit_length() + 1
        acc = sum(v * sum(n << width * k for k, n in row.items())
                  for v, row in terms)
        assert _unpacked({0: acc}, width) == {k: x for k, x in sums.items()
                                              if x}
