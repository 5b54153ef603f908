import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import strategies as st

from koszul import _kernel, linalg
from koszul.algebra import (
    BilinearProduct,
    LieAlgebra,
    abelian,
    product_from_sparse,
    zero_product,
)
from koszul.catalog import aff1, heisenberg, heisenberg_kv, sl2, so3
from koszul.connections import InvariantConnection
from koszul.flatmodels import affine_algebra
from koszul.forms import BilinearForm
from koszul.spencer import SymbolSpace
from oracles import (dense_conjugate_product, dense_direct_sum_products,
                     dense_lie, dense_product, dense_rref_mod)


def rand_fraction(rng, lo=-2, hi=2):
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2)))


def rand_invertible(m, rng):
    while True:
        p = [[rand_fraction(rng) for _ in range(m)] for _ in range(m)]
        if linalg.rank(p) == m:
            return linalg.mat(p)


def conjugate_product(p: BilinearProduct, pmat) -> BilinearProduct:
    """The product transported along the basis change e_i' = P e_i."""
    return dense_product(p.dim, dense_conjugate_product(p, pmat))


def conjugate_lie(L: LieAlgebra, pmat) -> LieAlgebra:
    return dense_lie(L.dim, dense_conjugate_product(L.as_product(), pmat))


def direct_sum_products(a: BilinearProduct,
                        b: BilinearProduct) -> BilinearProduct:
    return dense_product(a.dim + b.dim, dense_direct_sum_products(a, b))


def full_hom(m: int, w: int) -> SymbolSpace:
    """The order-1 symbol space of all of Hom(V, W), dim V = m, dim W = w."""
    n = m * w
    basis = tuple(
        tuple(Fraction(1 if t == s else 0) for t in range(n)) for s in range(n))
    return SymbolSpace(m, w, basis, 1)


def zero_symbol(m: int, w: int) -> SymbolSpace:
    return SymbolSpace(m, w, (), 1)


def direct_sum_lie(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    m, n = a.dim, b.dim
    c = [[[Fraction(0)] * (m + n) for _ in range(m + n)] for _ in range(m + n)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                c[i][j][k] = a.c[i][j][k]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[m + i][m + j][m + k] = b.c[i][j][k]
    return dense_lie(m + n, c)


def lie_pool(max_dim=4):
    pool = [abelian(1), abelian(2), abelian(3), abelian(4),
            heisenberg(), so3(), sl2(), aff1(),
            direct_sum_lie(so3(), abelian(1)),
            direct_sum_lie(aff1(), aff1()),
            direct_sum_lie(heisenberg(), abelian(1))]
    return [L for L in pool if L.dim <= max_dim]


def random_lie(rng, max_dim=4):
    base = rng.choice(lie_pool(max_dim))
    return conjugate_lie(base, rand_invertible(base.dim, rng))


def random_torsion_free(L: LieAlgebra, rng) -> InvariantConnection:
    """Half the bracket plus a random (i,j)-symmetric part: torsion cancels."""
    m = L.dim
    half = Fraction(1, 2)
    s = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            for k in range(m):
                v = rand_fraction(rng)
                s[i][j][k] = v
                s[j][i][k] = v
    table = tuple(
        tuple(tuple(half * L.c[i][j][k] + s[i][j][k] for k in range(m))
              for j in range(m)) for i in range(m))
    return InvariantConnection(L, dense_product(m, table))


def random_metric(m, rng) -> BilinearForm:
    while True:
        e = [[rand_fraction(rng) for _ in range(m)] for _ in range(m)]
        g = [[e[i][j] + e[j][i] + (3 if i == j else 0) for j in range(m)]
             for i in range(m)]
        b = BilinearForm(m, linalg.mat(g), "symmetric")
        if b.is_nondegenerate:
            return b


# dim <= 3 pools of admissible products for the cohomology complexes

def kv_pool():
    return [zero_product(1), zero_product(2), zero_product(3),
            product_from_sparse(1, [(0, 0, 0, 1)]),
            affine_algebra(1).product,
            # left-symmetric but not associative: e1·e0 = e0 alone
            product_from_sparse(2, [(1, 0, 0, 1)]),
            heisenberg_kv()]


def truncated_poly(n: int) -> BilinearProduct:
    """k[t]/t^n in the basis 1, t, ..., t^{n-1}."""
    entries = [(i, j, i + j, 1) for i in range(n) for j in range(n) if i + j < n]
    return product_from_sparse(n, entries)


def assoc_pool():
    return [zero_product(1), zero_product(2), zero_product(3),
            truncated_poly(2), truncated_poly(3),
            product_from_sparse(1, [(0, 0, 0, 1)]),
            affine_algebra(1).product]


def random_kv(rng):
    base = rng.choice(kv_pool())
    return conjugate_product(base, rand_invertible(base.dim, rng))


def random_associative(rng):
    base = rng.choice(assoc_pool())
    return conjugate_product(base, rand_invertible(base.dim, rng))


# ---------------------------------------------------------------- matrices

DENSITIES = (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)


@st.composite
def int_matrices(draw, max_rows=12, max_cols=12, square=False):
    """Integer matrices of shape 0-12 x 0-12 at densities 0.05-1.0, entries
    small or up to 2**40, with duplicated, scaled, summed and zero rows and
    columns spliced in, so elimination meets exact cancellation."""
    nr = draw(st.integers(0, max_rows))
    nc = nr if square else draw(st.integers(0, max_cols))
    density = draw(st.sampled_from(DENSITIES))
    big = draw(st.sampled_from((9, 2 ** 40)))
    cells = draw(st.lists(st.tuples(st.floats(0, 1), st.integers(-big, big)),
                          min_size=nr * nc, max_size=nr * nc))
    a = [[v if u < density else 0 for u, v in cells[r * nc:(r + 1) * nc]]
         for r in range(nr)]
    edits = draw(st.lists(st.tuples(
        st.sampled_from(("dup", "scale", "sum", "zero")),
        st.booleans(), st.integers(0, 11), st.integers(0, 11),
        st.integers(-3, 3)), max_size=4))
    for kind, on_cols, s, t, k in edits:
        if on_cols:
            a = [list(col) for col in zip(*a)] if a and nc else a
        n = len(a)
        if n:
            s, t = s % n, t % n
            if kind == "dup":
                a[t] = list(a[s])
            elif kind == "scale":
                a[t] = [k * x for x in a[s]]
            elif kind == "sum":
                a[t] = [x + y for x, y in zip(a[s], a[t])]
            else:
                a[t] = [0] * len(a[t])
        if on_cols:
            a = [list(row) for row in zip(*a)] if a and nc else a
    return a


@st.composite
def rational_matrices(draw, square=False):
    """int_matrices over denominators 1, 2, 3 and 7, as Fractions."""
    a = draw(int_matrices(square=square))
    dens = draw(st.lists(st.sampled_from((1, 1, 2, 3, 7)),
                         min_size=sum(map(len, a)), max_size=sum(map(len, a))))
    it = iter(dens)
    return [[Fraction(x, next(it)) for x in row] for row in a]


def densify(rows, ncols: int) -> list[list[Fraction]]:
    """Sparse integer condition rows as dense `Fraction` rows."""
    return [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]


def assert_same_row_space(sparse, dense, ncols: int) -> None:
    """Equal reduced row-echelon forms: equal row spaces."""
    assert linalg.rref(densify(sparse, ncols)) == linalg.rref(dense)


def assert_rows_match(sparse, dense, ncols: int) -> None:
    """Row by row, each sparse row is a nonzero rational multiple of the
    dense oracle's row (the oracle's zero rows left out), and the two row
    spaces are equal."""
    ref = [row for row in dense if any(row)]
    assert len(sparse) == len(ref)
    for row, r in zip(densify(sparse, ncols), ref):
        j = next(j for j, x in enumerate(r) if x)
        c = row[j] / r[j]
        assert c and row == [c * x for x in r]
    assert_same_row_space(sparse, ref, ncols)


@contextmanager
def eliminations():
    """Yields a list that collects the row count of every Bareiss reduction
    (`_kernel.reduced_echelon`) made inside the block. A system whose
    reduced form mod P lifts to one that spans every row makes none; one
    that falls back makes one for the rows kept mod P when they pass the
    span check, two when every row is then eliminated."""
    seen = []
    real = _kernel.reduced_echelon

    def spy(rows):
        seen.append(len(rows))
        return real(rows)

    with mock.patch.object(_kernel, "reduced_echelon", spy), \
            mock.patch.object(linalg, "reduced_echelon", spy):
        yield seen


def expected_eliminations(ints, kept: int) -> list[int]:
    """What `eliminations` collects from `_kernel.row_space` on the integer
    rows `ints`, of which the pass mod P kept `kept` reading every row:
    nothing when their reduced form mod P is the residue of the exact one
    and every exact entry is within the reconstruction bound (the lift is
    then the exact form); else the kept rows, then every row when they
    fall short of the rank."""
    red, pivots, _ = _kernel.reduced_echelon(ints)
    exact = [[Fraction(x, row[c]) for x in row] for row, c in zip(red, pivots)]
    # within the bound every denominator is a unit mod P
    lifts = all(abs(x.numerator) <= _kernel._HALF
                and x.denominator <= _kernel._HALF
                for row in exact for x in row) and dense_rref_mod(
        ints, _kernel.P) == ([[x.numerator * pow(x.denominator, -1, _kernel.P)
                               % _kernel.P for x in row] for row in exact],
                             pivots)
    if lifts:
        return []
    return [kept] if kept == len(pivots) else [kept, len(ints)]


@pytest.fixture
def rng():
    return random.Random(20260814)
