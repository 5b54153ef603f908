"""Checks of the benchmark's own parts: generator, expectations, tracer.

Run: python3 -m pytest -q koszulbench/test_bench.py   (from the repo root)
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import check
import gen
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _files(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_bytes(tmp_path, name):
    a = workloads.Sweeper(name, 11, tmp_path / "a").sweep(2)
    b = workloads.Sweeper(name, 11, tmp_path / "b").sweep(2)
    strip = str(tmp_path)
    assert [[x.replace(strip + "/a", "") for x in q.argv] for q in a] == \
        [[x.replace(strip + "/b", "") for x in q.argv] for q in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    c = workloads.Sweeper(name, 12, tmp_path / "c").sweep(2)
    assert [q.key for q in a] == [q.key for q in c]
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("form", ["sparse", "dense"])
def test_every_basis_change_is_invertible(form):
    rng = random.Random(5)
    for m in range(1, 9):
        for _ in range(20):
            ch = gen.draw_change(form, m, rng)
            assert gen.mat_mul(ch.p, ch.pinv) == gen.identity(m)


def _tables():
    for name, build in gen.LIE.items():
        yield name, build()
    for name, build in gen.PRODUCT.items():
        yield name, build()
    for spec in ("aff1-symplectic", "heisenberg-kv", "affine-model:2",
                 "so3+sl2/zero"):
        yield spec, (gen.connection(spec)[0][0], gen.connection(spec)[1])


@pytest.mark.parametrize("name,table", list(_tables()))
def test_sparse_form_keeps_the_nonzero_count(name, table):
    m, t = table
    rng = random.Random(name)
    for _ in range(5):
        moved = gen.transform_table(t, gen.monomial_change(m, rng))
        assert gen.nnz(moved) == gen.nnz(t)


def test_sparse_symbols_keep_the_nonzero_count():
    rng = random.Random(3)
    for name, build in gen.SYMBOL.items():
        v, w, mats = build()
        moved = gen.transform_symbol(mats, gen.monomial_change(v, rng),
                                     gen.monomial_change(w, rng))
        count = [sum(1 for row in a for x in row if x) for a in mats]
        assert [sum(1 for row in a for x in row if x) for a in moved] \
            == count, name


def test_dense_form_fills_the_table():
    m, t = gen.LIE["so3+sl2"]()
    moved = gen.transform_table(t, gen.dense_change(m, random.Random(0)))
    assert gen.nnz(moved) > 4 * gen.nnz(t)


def test_transform_round_trips():
    rng = random.Random(9)
    m, t = gen.PRODUCT["affine:2"]()
    ch = gen.dense_change(m, rng)
    back = gen.Change(ch.pinv)
    assert gen.transform_table(gen.transform_table(t, ch), back) == t


def test_base_structures_match_the_catalog():
    from koszul import catalog
    from koszul.connections import cartan_connection

    def dense(m, t):
        return tuple(tuple(tuple(t.get((i, j, k), Fraction(0))
                                 for k in range(m)) for j in range(m))
                     for i in range(m))

    for name in ("so3", "sl2", "aff1", "heisenberg", "affine:2",
                 "affine:3", "abelian:3"):
        assert catalog.resolve("lie", name).c == dense(*gen.LIE[name]())
    for name in ("affine:2", "matrix:2", "heisenberg-kv", "zero:3"):
        assert catalog.resolve("product", name).gamma == \
            dense(*gen.PRODUCT[name]())
    conn = catalog.resolve("connection", "aff1-symplectic")
    (m, _), gam = gen.connection("aff1-symplectic")
    assert conn.gamma.gamma == dense(m, gam)
    (m, _), gam = gen.connection("so3/zero")
    assert cartan_connection(catalog.resolve("lie", "so3"), "zero") \
        .gamma.gamma == dense(m, gam)


def test_jacobi_breaker_breaks_jacobi():
    rng = random.Random(1)
    for name in ("so3+sl2", "affine:2"):
        m, t = gen.violate_jacobi(gen.LIE[name](), rng)
        assert not gen.jacobi_holds(m, t)
        assert gen.jacobi_holds(*gen.LIE[name]())


# Values asserted in the library's own tests (tests/test_acceptance.py,
# test_cli.py, test_cohomology.py, test_flatmodels.py) that the
# expectation table must repeat.
FROM_TESTS = {
    "invariants --which bimetric|so3": {"exists": "yes"},
    "invariants --which bimetric|aff1": {"exists": "no"},
    "invariants --which sb|aff1": {"s_b": 1},
    "invariants --which symplectic|aff1": {"exists": "yes"},
    "invariants --which symplectic|so3": {"exists": "no"},
    "invariants --which s*b|abelian:4/zero": {"s_star_b": 0},
    "invariants --which hessian|abelian:3/zero": {"defect": 0},
    "invariants --which hessian|heisenberg-kv": {"defect": 1},
    # the strict-xfail affine clause: the honest defect is 1
    "invariants --which hessian|affine-model:1": {"defect": 1},
    "invariants --which rb|abelian:4/zero": {"r_b": 4, "dim_solution": 20},
    "gauge --op festar|heisenberg-kv": {"dim_solution": 12, "r_b": 3},
    "kv-cohomology --complex kv --coeffs adjoint --max-degree 3"
    "|heisenberg-kv": {"betti": [1, 2, 11, 29]},
    "kv-cohomology --complex kv --coeffs scalar --max-degree 3|zero:3":
        {"betti": [1, 3, 9, 27]},
    "kv-cohomology --complex hochschild --max-degree 2|matrix:2":
        {"betti": [1, 0, 0]},
    "flat-models completeness|matrix:2": {"verdict": "incomplete"},
    "flat-models completeness|affine:1": {"verdict": "incomplete"},
    "flat-models completeness|heisenberg-kv": {"verdict": "complete"},
    "flat-models completeness|zero:3": {"verdict": "complete"},
    "spencer --op involutive --trials 40|so3":
        {"verdict": "no", "cohomology_witness": [2, 0]},
}


def test_expectations_repeat_the_library_tests():
    table = check.load_expected()
    for key, fields in FROM_TESTS.items():
        for field, value in fields.items():
            assert table[key][field] == value, (key, field)


def test_every_rung_has_an_expectation(tmp_path):
    table = check.load_expected()
    ladders = dict(workloads.WORKLOADS, warmup=workloads.WARMUP)
    for name, rungs in ladders.items():
        for q in workloads.Sweeper(name, 0, tmp_path).sweep(0, rungs):
            assert q.key in table, q.key


def _report(result: dict, code: int = 0) -> str:
    return json.dumps({"result": result} if code == 0 else
                      {"error": {"type": "X", "message": ""}})


def test_judge_counts_unknown_apart_and_flags_wrong_verdicts():
    table = {"invariants --which sb|aff1": {"exit": 0, "exists": "no",
                                            "s_b": 1}}
    key = "invariants --which sb|aff1"
    ok = check.judge(table, key, "dense", 0, _report(
        {"exists": "no", "s_b": 1}))
    assert ok.ok and not ok.unknown and ok.verdict_bearing
    unk = check.judge(table, key, "dense", 0, _report(
        {"exists": "unknown", "s_b": 2}))
    assert unk.ok and unk.unknown
    wrong = check.judge(table, key, "dense", 0, _report(
        {"exists": "yes", "s_b": 0}))
    assert not wrong.ok
    assert not check.judge(table, key, "dense", 3, "").ok
    assert not check.judge(table, key, "dense", None, "").ok


TRACE_SCRIPT = r"""
import contextlib, io, json, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import sympy, koszul, koszul.statmodel
from koszul import cli, gauge, invariants, linalg, _kernel
from tracer import Tracer, summarize
t = Tracer()
t.install()
assert invariants.solve_fe_star is gauge.solve_fe_star
assert invariants.solve_fe_star.__wrapped__ is not None
assert linalg.echelon is _kernel.echelon
assert hasattr(linalg.echelon, "__wrapped__")
for argv in (["invariants", "--which", "flat", "--catalog", "aff1"],
             ["gauge", "--op", "festar", "--catalog", "so3",
              "--cartan", "zero"]):
    t.begin_query()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    t.end_query("q", t0, time.perf_counter())
t.dump(sys.argv[3])
with open(sys.argv[3]) as fh:
    print(json.dumps(summarize(json.load(fh))))
"""


def test_tracer_self_times_sum_to_query_time(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_SCRIPT, str(ROOT / "src"),
         str(Path(__file__).parent), str(tmp_path / "spans.json")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    s = json.loads(proc.stdout)
    assert abs(sum(s["self_s"].values()) - s["query_s"]) < 1e-9
    for layer in ("sympy", "invariants", "gauge", "linalg.elim", "kernel",
                  "spaces", "io", "algebra"):
        assert s["calls"][layer] > 0, layer
    assert s["calls"]["cli"] == 2
