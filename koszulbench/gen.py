"""Seeded benchmark inputs: textbook structures, basis changes, JSON files.

Everything here is the benchmark's own exact arithmetic on `Fraction`s; the
library is never imported, so the program under test receives only the
files written here and an argv. Structures are sparse dicts
{(i, j, k): value} (the e_k coefficient of e_i * e_j), forms are dense
square lists, and symbols are lists of w x v matrices.

A basis change is a matrix P whose column i holds the new basis vector e'_i
in old coordinates. Tensors move by

    t'^k_ij = sum_{a,b,c} P[a][i] P[b][j] t^c_ab Pinv[k][c],
    g'_ij   = sum_{a,b}   P[a][i] g_ab P[b][j],
    A'      = Q A Pinv            (symbol A: V -> W, P on V, Q on W),

which keeps every basis-invariant answer (validity, dims, ranks, Betti
numbers, verdicts) unchanged. Two kinds of change are drawn:

* sparse: a monomial matrix (permutation times a rational scaling), so the
  nonzero count of every tensor is preserved;
* dense: a general rational matrix, as a user's own coordinates would give.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

F = Fraction
ZERO = F(0)
SCALES = (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2))


# ------------------------------------------------------------ linear algebra


def identity(m: int) -> list[list[Fraction]]:
    return [[F(int(i == j)) for j in range(m)] for i in range(m)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in bt]
            for row in a]


def inverse(p):
    """Gauss-Jordan inverse; raises ValueError when p is singular."""
    n = len(p)
    work = [list(row) + [F(int(i == j)) for j in range(n)]
            for i, row in enumerate(p)]
    for c in range(n):
        piv = next((r for r in range(c, n) if work[r][c]), None)
        if piv is None:
            raise ValueError("singular basis change")
        work[c], work[piv] = work[piv], work[c]
        inv = 1 / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for r in range(n):
            f = work[r][c]
            if r != c and f:
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [row[n:] for row in work]


class Change:
    """A basis change P together with its inverse."""

    def __init__(self, p):
        self.p = [list(row) for row in p]
        self.pinv = inverse(self.p)
        m = len(p)
        # sparse views used by the tensor transforms
        self.rows = [[(i, x) for i, x in enumerate(row) if x]
                     for row in self.p]
        self.inv_cols = [[(k, self.pinv[k][c]) for k in range(m)
                          if self.pinv[k][c]] for c in range(m)]


def monomial_change(m: int, rng: random.Random) -> Change:
    perm = list(range(m))
    rng.shuffle(perm)
    p = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        p[perm[i]][i] = rng.choice(SCALES)
    return Change(p)


def dense_change(m: int, rng: random.Random) -> Change:
    while True:
        p = [[F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(m)]
             for _ in range(m)]
        try:
            return Change(p)
        except ValueError:
            continue


def draw_change(form: str, m: int, rng: random.Random) -> Change:
    return monomial_change(m, rng) if form == "sparse" else \
        dense_change(m, rng)


# ------------------------------------------------------------ transforms


def transform_table(t: dict, ch: Change) -> dict:
    out: dict = {}
    for (a, b, c), v in t.items():
        for i, pa in ch.rows[a]:
            for j, pb in ch.rows[b]:
                w = v * pa * pb
                for k, q in ch.inv_cols[c]:
                    key = (i, j, k)
                    out[key] = out.get(key, ZERO) + w * q
    return {key: v for key, v in out.items() if v}


def transform_form(g, ch: Change):
    pt = [list(col) for col in zip(*ch.p)]
    return mat_mul(mat_mul(pt, g), ch.p)


def transform_symbol(mats, ch_v: Change, ch_w: Change):
    return [mat_mul(mat_mul(ch_w.p, a), ch_v.pinv) for a in mats]


def nnz(t: dict) -> int:
    return sum(1 for v in t.values() if v)


# ------------------------------------------------------------ base structures
#
# Textbook bases, matching the constructions in koszul.catalog and
# koszul.flatmodels (the tests in this directory check the match).


def lie_table(m: int, upper) -> dict:
    """Skew-complete a bracket given on pairs i < j."""
    t = {}
    for i, j, k, v in upper:
        t[(i, j, k)] = F(v)
        t[(j, i, k)] = -F(v)
    return t


def abelian(m: int) -> tuple[int, dict]:
    return m, {}


def heisenberg():
    return 3, lie_table(3, [(0, 1, 2, 1)])


def so3():
    return 3, lie_table(3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)])


def sl2():
    return 3, lie_table(3, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)])


def aff1():
    return 2, lie_table(2, [(0, 1, 1, 1)])


def affine_product(n: int):
    """(A, a)*(B, b) = (BA, Ba) on matrix units E_pq then translations."""
    d = n * n + n
    t: dict = {}
    for p in range(n):
        for q in range(n):
            for r in range(n):
                key = (p * n + q, r * n + p, r * n + q)
                t[key] = t.get(key, ZERO) + 1
    for s in range(n):
        for r in range(n):
            key = (n * n + s, r * n + s, n * n + r)
            t[key] = t.get(key, ZERO) + 1
    return d, t


def matrix_product(k: int):
    n = k * k
    t = {}
    for p in range(k):
        for q in range(k):
            for s in range(k):
                t[(p * k + q, q * k + s, p * k + s)] = F(1)
    return n, t


def heisenberg_kv():
    return 3, {(0, 1, 2): F(1)}


def commutator(t: dict) -> dict:
    out: dict = {}
    for (i, j, k), v in t.items():
        out[(i, j, k)] = out.get((i, j, k), ZERO) + v
        out[(j, i, k)] = out.get((j, i, k), ZERO) - v
    return {key: v for key, v in out.items() if v}


def affine_lie(n: int):
    d, t = affine_product(n)
    return d, commutator(t)


def direct_sum(a, b):
    (m, ta), (n, tb) = a, b
    t = dict(ta)
    for (i, j, k), v in tb.items():
        t[(m + i, m + j, m + k)] = v
    return m + n, t


def scaled(t: dict, s) -> dict:
    return {key: s * v for key, v in t.items()} if s else {}


CARTAN_SCALE = {"minus": F(0), "zero": F(1, 2), "plus": F(1)}

LIE = {
    "abelian:2": lambda: abelian(2),
    "abelian:3": lambda: abelian(3),
    "abelian:4": lambda: abelian(4),
    "heisenberg": heisenberg,
    "so3": so3,
    "sl2": sl2,
    "aff1": aff1,
    "aff1+aff1": lambda: direct_sum(aff1(), aff1()),
    "heisenberg+abelian:1": lambda: direct_sum(heisenberg(), abelian(1)),
    "so3+abelian:1": lambda: direct_sum(so3(), abelian(1)),
    "so3+aff1": lambda: direct_sum(so3(), aff1()),
    "so3+sl2": lambda: direct_sum(so3(), sl2()),
    "so3+sl2+aff1": lambda: direct_sum(direct_sum(so3(), sl2()), aff1()),
    "affine:2+aff1": lambda: direct_sum(affine_lie(2), aff1()),
    "affine:2": lambda: affine_lie(2),
    "affine:3": lambda: affine_lie(3),
    "affine:4": lambda: affine_lie(4),
}

PRODUCT = {
    "zero:2": lambda: (2, {}),
    "zero:3": lambda: (3, {}),
    "heisenberg-kv": heisenberg_kv,
    "affine:1": lambda: affine_product(1),
    "affine:2": lambda: affine_product(2),
    "affine:3": lambda: affine_product(3),
    "matrix:2": lambda: matrix_product(2),
    "matrix:3": lambda: matrix_product(3),
}


def connection(spec: str):
    """(base Lie algebra, connection table) for a connection spec.

    Specs: "<lie>/<minus|zero|plus>" for the canonical connections,
    "aff1-symplectic", "heisenberg-kv", "affine-model:<n>" (the affine
    product over its own commutator).
    """
    if spec == "aff1-symplectic":
        return aff1(), {(0, 0, 1): F(1), (1, 0, 1): F(-1)}
    if spec == "heisenberg-kv":
        return heisenberg(), heisenberg_kv()[1]
    if spec.startswith("affine-model:"):
        d, t = affine_product(int(spec.partition(":")[2]))
        return (d, commutator(t)), t
    lie_name, _, kind = spec.rpartition("/")
    base = LIE[lie_name]()
    return base, scaled(base[1], CARTAN_SCALE[kind])


def _skew(m):
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            a = [[ZERO] * m for _ in range(m)]
            a[i][j], a[j][i] = F(1), F(-1)
            out.append(a)
    return out


def _units(w, v):
    out = []
    for k in range(w):
        for i in range(v):
            a = [[ZERO] * v for _ in range(w)]
            a[k][i] = F(1)
            out.append(a)
    return out


def _sym(m):
    out = []
    for i in range(m):
        for j in range(i, m):
            a = [[ZERO] * m for _ in range(m)]
            a[i][j] = a[j][i] = F(1)
            out.append(a)
    return out


def _conformal2():
    return [[[F(1), ZERO], [ZERO, F(1)]], [[ZERO, F(-1)], [F(1), ZERO]]]


def _traceless2():
    return [[[F(1), ZERO], [ZERO, F(-1)]], [[ZERO, F(1)], [ZERO, ZERO]],
            [[ZERO, ZERO], [F(1), ZERO]]]


def _diag(m):
    out = []
    for i in range(m):
        a = [[ZERO] * m for _ in range(m)]
        a[i][i] = F(1)
        out.append(a)
    return out


SYMBOL = {
    # name: (v, w, list of w x v matrices)
    "so3": lambda: (3, 3, _skew(3)),
    "skew:4": lambda: (4, 4, _skew(4)),
    "full:2x2": lambda: (2, 2, _units(2, 2)),
    "full:3x2": lambda: (3, 2, _units(2, 3)),
    "sym:2": lambda: (2, 2, _sym(2)),
    "sym:3": lambda: (3, 3, _sym(3)),
    "conformal:2": lambda: (2, 2, _conformal2()),
    "traceless:2": lambda: (2, 2, _traceless2()),
    "diag:3": lambda: (3, 3, _diag(3)),
    "zero:2x2": lambda: (2, 2, []),
}


def jacobi_holds(m: int, t: dict) -> bool:
    """Exact Jacobi check of a skew table, by the benchmark's own code."""
    by_pair: dict = {}
    for (i, j, k), v in t.items():
        by_pair.setdefault((i, j), []).append((k, v))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                acc: dict = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for a, v in by_pair.get((x, y), ()):
                        for b, w in by_pair.get((a, z), ()):
                            acc[b] = acc.get(b, ZERO) + v * w
                if any(acc.values()):
                    return False
    return True


def violate_jacobi(base, rng: random.Random):
    """Perturb one bracket entry of `base` until Jacobi fails."""
    m, t = base
    while True:
        i, j = sorted(rng.sample(range(m), 2))
        k = rng.randrange(m)
        v = F(rng.choice((1, -1, 2)), rng.choice((1, 2)))
        bad = dict(t)
        bad[(i, j, k)] = bad.get((i, j, k), ZERO) + v
        bad[(j, i, k)] = -bad[(i, j, k)]
        bad = {key: x for key, x in bad.items() if x}
        if not jacobi_holds(m, bad):
            return m, bad


# ------------------------------------------------------------ file writing


def _q(x: Fraction) -> str:
    return str(x)


def lie_doc(m: int, t: dict) -> dict:
    entries = [[i, j, k, _q(v)] for (i, j, k), v in sorted(t.items())
               if i < j and v]
    return {"dim": m, "bracket": entries}


def product_doc(m: int, t: dict) -> dict:
    return {"dim": m, "gamma": [[i, j, k, _q(v)]
                                for (i, j, k), v in sorted(t.items()) if v]}


def form_doc(g, sym: str = "symmetric") -> dict:
    m = len(g)
    entries = [[i, j, _q(g[i][j])] for i in range(m) for j in range(i, m)
               if g[i][j]]
    return {"dim": m, "sym": sym, "entries": entries}


def symbol_doc(v: int, w: int, mats) -> dict:
    return {"v": v, "w": w,
            "basis": [[_q(x) for row in a for x in row] for a in mats]}


def encode(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


class Writer:
    """Writes generated documents under one directory, by content name."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, doc: dict) -> str:
        path = self.root / f"{name}.json"
        path.write_bytes(encode(doc))
        return str(path)
