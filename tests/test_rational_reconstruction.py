"""Rational reconstruction modulo P (`koszul._kernel._rational`).

Needs only the standard library, so it runs on every supported
interpreter: `PYTHONPATH=src:tests python -c "import
test_rational_reconstruction as t; t.test_small_fractions_round_trip();
t.test_residues_past_the_bound_have_no_reconstruction()"`.
"""

import random
from math import gcd

from koszul._kernel import _HALF, P, _rational


def test_small_fractions_round_trip():
    # every n / d with |n|, d <= _HALF in lowest terms comes back from its
    # residue, at the edges of the box and inside it
    rng = random.Random(20261019)
    edges = [0, 1, 2, _HALF - 1, _HALF]
    nums = edges + [-x for x in edges] + \
        [rng.randint(-_HALF, _HALF) for _ in range(200)]
    dens = [d for d in edges if d] + [rng.randint(1, _HALF) for _ in range(50)]
    seen = 0
    for n in nums:
        for d in dens:
            if gcd(n, d) == 1:
                assert _rational(n * pow(d, -1, P) % P) == (n, d)
                seen += 1
    assert seen > 5000
    # residues are read mod P
    assert _rational(-1) == _rational(P - 1) == (-1, 1)
    assert _rational(P + 3) == (3, 1)


def test_residues_past_the_bound_have_no_reconstruction():
    # _HALF + 1 over 1, 1 over _HALF + 1 and 3**25 over 1 have no fraction
    # within the bound with their residue
    for u in (_HALF + 1, -(_HALF + 1), pow(_HALF + 1, -1, P), 3 ** 25):
        assert _rational(u % P) is None
    # 2**40 is 1 / 2**21 mod P, a fraction within the bound, so its residue
    # reconstructs to that fraction and not to 2**40: only the span check
    # of `row_space` tells the two apart
    assert _rational(2 ** 40) == (1, 2 ** 21)
