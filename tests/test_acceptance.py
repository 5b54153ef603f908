"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines; under plain
-v each test name doubles as the per-criterion verdict. Every numeric
claim is checked at the stated tolerance; the exact-arithmetic claims use
zero tolerance. Criterion 6's third clause is a strict expected failure:
the implementation reports the honest defect for the two-dimensional
affine model (see the test body for the hand computation).
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from koszul import linalg
from koszul.algebra import abelian, commutator_bracket
from koszul.catalog import heisenberg_kv, resolve, so3
from koszul.cohomology import (
    ADJOINT,
    SCALAR,
    TRIVIAL,
    Cochain,
    ce_coboundary_matrix,
    ce_cohomology_dims,
    hochschild_coboundary,
    kv_coboundary,
    maurer_cartan_defect,
)
from koszul.connections import (
    InvariantConnection,
    amari_dual,
    cartan_connection,
    is_locally_flat,
    is_torsion_free,
)
from koszul.flatmodels import affine_algebra, geometric_completeness, tower_dims
from koszul.forms import SKEW, identity_form
from koszul.gauge import parallel_forms, solve_fe_star, solve_gauge_equation
from koszul.invariants import (
    bi_invariant_metric,
    hessian_cocycle_space,
    hessian_defect,
    left_symplectic_oracle,
    max_rank,
    r_b_defect,
    s_b,
    s_star_b,
)
from koszul.spencer import cartan_test, is_involutive, prolong, symbol_space
from koszul.statmodel import (
    alpha_christoffels,
    bernoulli,
    categorical_mean,
    categorical_natural,
    curved4,
    default_theta,
    exponential_defect_probe,
    fisher_information,
)

import conftest
from conftest import (conjugate_lie, full_hom, lie_pool, rand_invertible,
                      random_metric, random_torsion_free, zero_symbol)
from oracles import is_zero_matrix

SEED = 20260814

SO3_SYMBOL_ROWS = [
    [0, 1, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, -1, 0],
]

TORSION_FREE_CATALOG = [
    "abelian-zero:1", "abelian-zero:2", "abelian-zero:3",
    "aff1-symplectic", "heisenberg-kv",
]


def _report(num, label, checks):
    bad = [msg for ok, msg in checks if not ok]
    status = "FAIL" if bad else "PASS"
    print(f"[{status}] criterion {num:02d} {label}: "
          f"{len(checks) - len(bad)}/{len(checks)} checks")
    assert not bad, f"criterion {num} failed: " + "; ".join(bad[:5])


def _random_lie(rng, max_dim):
    base = rng.choice(lie_pool(max_dim))
    return conjugate_lie(base, rand_invertible(base.dim, rng))


def test_criterion_01_flatness_equivalence():
    # r_b defect vanishes exactly on the locally flat torsion-free
    # connections; validated over the torsion-free catalog entries (the
    # equivalence assumes vanishing torsion) plus 100 random samples
    rng = random.Random(SEED)
    checks = []
    for name in TORSION_FREE_CATALOG:
        conn = resolve("connection", name)
        assert is_torsion_free(conn)
        agree = (r_b_defect(conn) == 0) == is_locally_flat(conn)[0]
        checks.append((agree, f"catalog {name}"))
    for t in range(100):
        conn = random_torsion_free(_random_lie(rng, 3), rng)
        agree = (r_b_defect(conn) == 0) == is_locally_flat(conn)[0]
        checks.append((agree, f"random sample {t}"))
    _report(1, "flatness equivalence", checks)


def test_criterion_02_fe_star_dimensions():
    checks = []
    for m in range(1, 5):
        sols = solve_fe_star(cartan_connection(abelian(m), "zero"))
        checks.append((sols.space.dim == m * m + m,
                       f"abelian({m}) dim W = {sols.space.dim}"))
        checks.append((sols.r_b == m, f"abelian({m}) r_b = {sols.r_b}"))
    sols = solve_fe_star(resolve("connection", "heisenberg-kv"))
    checks.append((sols.space.dim == 12, f"heisenberg dim W = {sols.space.dim}"))
    checks.append((sols.r_b == 3, f"heisenberg r_b = {sols.r_b}"))
    sols = solve_fe_star(cartan_connection(so3(), "zero"))
    checks.append((sols.r_b == 0, f"so3 zero-connection r_b = {sols.r_b}"))
    _report(2, "fundamental-equation dimensions", checks)


def test_criterion_03_gauge_split():
    # dim M(nabla, dual) = dim of parallel symmetric + parallel skew forms,
    # and the bridge phi -> g(phi., .) lands on parallel forms and inverts
    rng = random.Random(SEED + 3)
    checks = []
    pairs = []
    for t in range(100):
        lie = _random_lie(rng, 4)
        pairs.append((t, random_torsion_free(lie, rng),
                      random_metric(lie.dim, rng)))
    # flat catalog connections have large parallel spaces, so they exercise
    # the round trip on many nonzero solutions
    for name in TORSION_FREE_CATALOG:
        conn = resolve("connection", name)
        for _ in range(3):
            pairs.append((name, conn, random_metric(conn.dim, rng)))
    for t, conn, g in pairs:
        lie = conn.base
        m_space = solve_gauge_equation(conn, amari_dual(conn, g))
        sym = parallel_forms(conn, "symmetric")
        skew = parallel_forms(conn, "skew")
        checks.append((m_space.dim == sym.dim + skew.dim,
                       f"sample {t}: {m_space.dim} != {sym.dim}+{skew.dim}"))
        gmat = g.matrix
        ginv = linalg.inverse(gmat)
        for phi in m_space.matrices():
            b = linalg.mat_mul(gmat, phi)
            bt = linalg.transpose(b)
            half = Fraction(1, 2)
            b_sym = [[half * (b[i][j] + bt[i][j]) for j in range(lie.dim)]
                     for i in range(lie.dim)]
            b_skew = [[half * (b[i][j] - bt[i][j]) for j in range(lie.dim)]
                      for i in range(lie.dim)]
            ok = sym.contains(linalg.flatten(b_sym)) and \
                skew.contains(linalg.flatten(b_skew)) and \
                linalg.mat_mul(ginv, b) == tuple(tuple(r) for r in phi)
            checks.append((ok, f"sample {t}: round trip failed"))
    _report(3, "gauge-equation split", checks)


def test_criterion_04_bi_invariant_metrics():
    rng = random.Random(SEED + 4)
    checks = []
    v = bi_invariant_metric(so3())
    killing = resolve("form", "so3-killing").matrix
    lam = v.witness.matrix[0][0] / killing[0][0]
    checks.append((v.exists == "yes", "so3 verdict"))
    checks.append((v.witness.matrix == tuple(
        tuple(lam * x for x in row) for row in killing),
        "so3 witness not Killing-proportional"))
    for t in range(5):
        value, _ = s_b(so3(), random_metric(3, rng))
        checks.append((value == 0, f"so3 aux metric {t}: s_b = {value}"))
    v = bi_invariant_metric(resolve("lie", "aff1"))
    checks.append((v.exists == "no" and v.certificate is not None,
                   "aff1 verdict/certificate"))
    value, _ = s_b(resolve("lie", "aff1"), identity_form(2))
    checks.append((value == 1, f"aff1 s_b = {value}"))
    v = bi_invariant_metric(abelian(3))
    checks.append((v.exists == "yes", "abelian verdict"))
    for lie in lie_pool(4):
        route_a = s_b(lie, identity_form(lie.dim))[0] == 0
        route_b = bi_invariant_metric(lie).exists == "yes"
        checks.append((route_a == route_b, f"routes split on dim {lie.dim}"))
    _report(4, "bi-invariant metric existence", checks)


def _is_closed_two_cocycle(lie, b):
    m = lie.dim
    for i in range(m):
        for j in range(m):
            for k in range(m):
                s = sum(lie.c[i][j][l] * b.matrix[l][k]
                        + lie.c[j][k][l] * b.matrix[l][i]
                        + lie.c[k][i][l] * b.matrix[l][j]
                        for l in range(m))
                if s != 0:
                    return False
    return True


def test_criterion_05_symplectic_gaps():
    checks = []
    conn4 = cartan_connection(abelian(4), "zero")
    value, verdict = s_star_b(conn4, identity_form(4))
    w = verdict.witness
    checks.append((value == 0, f"abelian(4) gap = {value}"))
    checks.append((w is not None and w.sym == SKEW and w.rank == 4,
                   "abelian(4) witness rank"))
    checks.append((_is_closed_two_cocycle(abelian(4), w),
                   "abelian(4) witness closed"))
    value, _ = s_star_b(cartan_connection(abelian(3), "zero"),
                        identity_form(3))
    checks.append((value == 1, f"abelian(3) gap = {value}"))
    value, _ = s_star_b(cartan_connection(so3(), "plus"), identity_form(3),
                        require_torsion_free=False)
    checks.append((value == 3, f"so3 bracket-connection gap = {value}"))
    v = left_symplectic_oracle(resolve("lie", "aff1"))
    checks.append((v.exists == "yes" and v.witness.is_nondegenerate,
                   "aff1 symplectic"))
    checks.append((left_symplectic_oracle(so3()).exists == "no",
                   "so3 symplectic"))
    _report(5, "symplectic gaps", checks)


def _hessian_delta_is_zero(conn, mat):
    lie, gam = conn.base, conn.gamma.gamma
    m = lie.dim
    for i in range(m):
        for j in range(m):
            for k in range(m):
                s = sum(-lie.c[i][j][l] * mat[l][k]
                        - gam[i][k][l] * mat[j][l]
                        + gam[j][k][l] * mat[i][l]
                        for l in range(m))
                if s != 0:
                    return False
    return True


def test_criterion_06_hessian_defects():
    checks = []
    conn = cartan_connection(abelian(3), "zero")
    value, verdict = hessian_defect(conn)
    checks.append((value == 0, f"abelian defect = {value}"))
    checks.append((verdict.witness is not None
                   and verdict.witness.is_nondegenerate,
                   "abelian witness nondegenerate"))
    checks.append((_hessian_delta_is_zero(conn, verdict.witness.matrix),
                   "abelian witness fails delta g = 0"))

    conn = resolve("connection", "heisenberg-kv")
    space = hessian_cocycle_space(conn)
    hand = [  # symmetric forms annihilating the center e2, and no others
        ((1, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 1, 0), (1, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 1, 0), (0, 0, 0)),
    ]
    hand = [tuple(tuple(Fraction(x) for x in row) for row in h) for h in hand]
    checks.append((space.dim == 3, f"cocycle space dim = {space.dim}"))
    for h in hand:
        checks.append((space.contains(linalg.flatten(h)),
                       "hand cocycle missing from solved space"))
        checks.append((_hessian_delta_is_zero(conn, h),
                       "hand cocycle fails direct substitution"))
    for b in space.matrices():
        ok = all(b[2][t] == 0 and b[t][2] == 0 for t in range(3))
        checks.append((ok, "solved cocycle does not annihilate the center"))
    rank = max_rank(space).max_rank
    checks.append((rank == 2, f"max cocycle rank = {rank}"))
    value, _ = hessian_defect(conn)
    checks.append((value == 1, f"heisenberg defect = {value}"))
    _report(6, "hessian defects (abelian, nilpotent clauses)", checks)


@pytest.mark.xfail(
    strict=True,
    reason="stated target is defect 0 with a nondegenerate witness, but the "
    "cocycle equations of the 2-dimensional affine model force g01 = g11 = 0 "
    "(rows k=0 and k=1 of delta g), leaving span{E00}: the honest defect is 1 "
    "and no nondegenerate witness exists")
def test_criterion_06_hessian_defect_affine_clause():
    p = affine_algebra(1).product
    conn = InvariantConnection(commutator_bracket(p), p)
    value, verdict = hessian_defect(conn)
    print(f"[FAIL] criterion 06 affine clause: honest defect {value}, "
          "stated target 0")
    assert value == 0 and verdict.witness is not None


def _random_cochain(q, m, module, rng):
    width = m if module == ADJOINT else 1
    table = tuple(tuple(conftest.rand_fraction(rng) for _ in range(width))
                  for _ in range(m ** q))
    return Cochain(q, m, module, table)


def test_criterion_07_cohomology_soundness():
    rng = random.Random(SEED + 7)
    checks = []
    for t in range(80):  # KV complex, degrees 1 -> 3
        p = conftest.random_kv(rng)
        for module in (ADJOINT, SCALAR):
            for q in (1, 2):
                dd = kv_coboundary(kv_coboundary(
                    _random_cochain(q, p.dim, module, rng), p), p)
                checks.append((all(v == 0 for row in dd.table for v in row),
                               f"kv sample {t} d2 != 0"))
    for t in range(60):  # Chevalley-Eilenberg, degrees <= 3
        lie = _random_lie(rng, 3)
        for coeffs in (TRIVIAL, ADJOINT):
            for q in (0, 1, 2):
                d1, _, _ = ce_coboundary_matrix(lie, coeffs, q)
                d2, _, _ = ce_coboundary_matrix(lie, coeffs, q + 1)
                ok = not d1 or not d2 or \
                    is_zero_matrix(linalg.mat_mul(d2, d1))
                checks.append((ok, f"ce sample {t} d2 != 0"))
    for t in range(60):  # Hochschild, degrees <= 2
        p = conftest.random_associative(rng)
        for q in (0, 1):
            dd = hochschild_coboundary(hochschild_coboundary(
                _random_cochain(q, p.dim, ADJOINT, rng), p), p)
            checks.append((all(v == 0 for row in dd.table for v in row),
                           f"hochschild sample {t} d2 != 0"))
    betti = ce_cohomology_dims(so3(), TRIVIAL).betti()
    checks.append((betti == (1, 0, 0, 1), f"so3 betti = {betti}"))
    for t in range(100):  # Maurer-Cartan identity on bracket pairs
        pool = lie_pool(4)
        d = rng.choice(sorted({lie.dim for lie in pool}))
        cands = [lie for lie in pool if lie.dim == d]
        mu = conjugate_lie(rng.choice(cands), rand_invertible(d, rng))
        nu = conjugate_lie(rng.choice(cands), rand_invertible(d, rng))
        b = tuple(tuple(tuple(nu.c[i][j][k] - mu.c[i][j][k]
                              for k in range(d))
                        for j in range(d)) for i in range(d))
        checks.append((maurer_cartan_defect(mu, b).is_zero(),
                       f"mc pair {t} defect != 0"))
    _report(7, "cohomology soundness", checks)


def test_criterion_08_involutivity():
    checks = []
    symbols = []
    for m in range(1, 4):
        for w in range(1, 4):
            a = full_hom(m, w)
            symbols.append((f"hom({m},{w})", a))
            v = is_involutive(a, trials=40, seed=SEED)
            _, total, eq = cartan_test(a, basis=v.basis)
            checks.append((v.verdict == "yes", f"hom({m},{w}) verdict"))
            checks.append((eq and total == w * m * (m + 1) // 2,
                           f"hom({m},{w}) cartan sum {total}"))
    so3_symbol = symbol_space(3, 3, SO3_SYMBOL_ROWS)
    symbols.append(("so3", so3_symbol))
    symbols.append(("zero(2,2)", zero_symbol(2, 2)))
    symbols.append(("zero(3,1)", zero_symbol(3, 1)))
    checks.append((prolong(so3_symbol).dim == 0, "so3 prolongation"))
    v = is_involutive(so3_symbol, trials=200, seed=SEED)
    checks.append((v.verdict == "no" and v.basis is None,
                   "so3 basis search (200 trials)"))
    checks.append((v.cohomology_witness is not None
                   and v.report.h(*v.cohomology_witness) > 0,
                   "so3 spencer window"))
    for name, a in symbols:
        # decisive verdicts must come with exactly one route's certificate;
        # is_involutive raises on any two-route disagreement
        v = is_involutive(a, trials=40, seed=SEED)
        window_clear = all(
            v.report.h(p, q) == 0
            for p in range(1, v.report.p_max + 1)
            for q in range(v.report.q_max + 1))
        if v.verdict == "yes":
            checks.append((v.basis is not None and window_clear,
                           f"{name}: yes without agreeing routes"))
        elif v.verdict == "no":
            checks.append((v.basis is None and not window_clear,
                           f"{name}: no without agreeing routes"))
        else:
            checks.append((False, f"{name}: undecided on the catalog"))
    _report(8, "involutivity routes", checks)


def test_criterion_09_tower_and_completeness():
    checks = []
    rep = tower_dims(1, 3)
    checks.append((list(rep.dims) == [1, 2, 6, 42], f"dims = {rep.dims}"))
    for lvl in rep.levels:
        checks.append((lvl is not None and lvl.product.is_associative,
                       f"level dim {lvl.dim} not associative"))
    comp = geometric_completeness(heisenberg_kv())
    checks.append((comp.verdict == "complete", "heisenberg completeness"))
    comp = geometric_completeness(affine_algebra(1).product)
    checks.append((comp.verdict == "incomplete", "affine(1) verdict"))
    p = affine_algebra(1).product
    det = linalg.det(linalg.mat_add(p.right_matrix(comp.witness),
                                    linalg.identity(2)))
    checks.append((det == 0, f"affine(1) witness det = {det}"))
    _report(9, "affine tower and completeness", checks)


def test_criterion_10_information_geometry():
    checks = []
    g = fisher_information(bernoulli(), [0.5])
    checks.append((abs(g[0][0] - 4.0) < 1e-6, f"bernoulli fisher {g[0][0]}"))
    c3 = categorical_mean(3)
    g = fisher_information(c3, default_theta(c3))
    err = np.max(np.abs(g - np.array([[6.0, 3.0], [3.0, 6.0]])))
    checks.append((err < 1e-5, f"categorical(3) fisher err {err:.2e}"))
    nat = categorical_natural(3)
    for pt in ([0.0, 0.0], [0.3, -0.2]):
        mx = float(np.max(np.abs(alpha_christoffels(nat, pt, -1.0))))
        checks.append((mx < 1e-5, f"mixture symbols at {pt}: {mx:.2e}"))
    grid = [np.array([a, b]) for a in (-0.3, 0.0, 0.3)
            for b in (-0.3, 0.0, 0.3)]
    start = time.monotonic()
    rep = exponential_defect_probe(nat, grid)
    elapsed = time.monotonic() - start
    worst = max(rep.curvature_norms.values())
    checks.append((rep.grid_size == 9 and worst < 1e-4,
                   f"grid curvature {worst:.2e}"))
    checks.append((elapsed < 60.0, f"probe took {elapsed:.1f}s"))
    checks.append((rep.exponential_like, "exponential family not flagged"))
    repc = exponential_defect_probe(curved4(), grid)
    checks.append((not repc.exponential_like,
                   "curved subfamily wrongly flagged exponential-like"))
    _report(10, "information geometry", checks)
