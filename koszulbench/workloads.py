"""The three query ladders, turned into concrete argv lists by seed.

A workload is a fixed list of rungs. One sweep asks every rung once, in
each of its forms, with inputs drawn fresh from `random.Random` seeded by
(workload, seed, sweep index, rung), so no timed input repeats within a
run and the same seed always writes the same bytes.

A rung is (forms, kind, base, argv prefix):

* forms: "sd" for both sparse and dense, "s" or "d" for one, "-" for
  queries without a basis (statmodel);
* kind: how the input files are made (see `Sweeper._files`);
* base: the textbook structure the expectation table is keyed on;
* argv prefix: the subcommand and its flags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import gen

BOTH, SPARSE, DENSE, PLAIN = "sd", "s", "d", "-"

TENSOR_LADDER = [
    (BOTH, "lie", "affine:2", "check-lie"),
    (SPARSE, "lie", "affine:3", "check-lie"),
    (SPARSE, "lie", "affine:4", "check-lie"),
    (BOTH, "lie", "so3+sl2", "check-lie"),
    (DENSE, "lie", "affine:2+aff1", "check-lie"),
    (SPARSE, "badlie", "affine:3", "check-lie"),
    (BOTH, "badlie", "so3+sl2", "check-lie"),
    (BOTH, "product", "affine:2", "algebra --op associator"),
    (SPARSE, "product", "affine:3", "algebra --op associator"),
    (SPARSE, "product", "matrix:3", "algebra --op associator"),
    (BOTH, "product", "bracket:so3+sl2", "algebra --op associator"),
    (SPARSE, "product", "affine:3", "algebra --op anomaly"),
    (BOTH, "product", "matrix:2", "algebra --op anomaly"),
    (BOTH, "product", "heisenberg-kv", "algebra --op anomaly"),
    (SPARSE, "lie", "affine:3", "algebra --op killing"),
    (BOTH, "lie", "so3+sl2", "algebra --op killing"),
    (DENSE, "lie", "so3+sl2+aff1", "algebra --op killing"),
    (SPARSE, "conn", "affine-model:3", "connection --op torsion"),
    (BOTH, "conn", "so3+sl2/plus", "connection --op torsion"),
    (BOTH, "conn", "affine-model:2", "connection --op curvature"),
    (BOTH, "conn", "so3+sl2/zero", "connection --op curvature"),
    (SPARSE, "conn", "affine-model:3", "connection --op flat"),
    (BOTH, "conn", "affine-model:2", "connection --op flat"),
    (BOTH, "conn", "so3+sl2/zero", "connection --op flat"),
]

SOLVE_LADDER = [
    # m = 5 (30 unknowns) in the sparse form only: its dense form takes
    # 4-6 s and would leave room for two sweeps in a run, not three
    (SPARSE, "conn", "so3+aff1/zero", "gauge --op festar"),
    (BOTH, "conn", "aff1+aff1/zero", "gauge --op festar"),
    (BOTH, "conn", "heisenberg-kv", "gauge --op festar"),
    (BOTH, "conn", "abelian:4/zero", "invariants --which rb"),
    (BOTH, "conn+metric", "so3+sl2/zero", "gauge --op fe"),
    (BOTH, "conn+metric", "heisenberg-kv", "gauge --op fe"),
    (BOTH, "conn", "affine-model:2", "gauge --op parallel"),
    (BOTH, "conn", "so3+sl2/plus", "gauge --op parallel --sym skew"),
    (BOTH, "product", "heisenberg-kv",
     "kv-cohomology --complex kv --coeffs adjoint --max-degree 3"),
    (BOTH, "product", "zero:3",
     "kv-cohomology --complex kv --coeffs scalar --max-degree 3"),
    (BOTH, "lie", "so3+sl2",
     "kv-cohomology --complex ce --coeffs adjoint --max-degree 3"),
    (BOTH, "lie", "affine:2",
     "kv-cohomology --complex ce --coeffs trivial --max-degree 3"),
    (BOTH, "product", "matrix:2",
     "kv-cohomology --complex hochschild --max-degree 2"),
    (BOTH, "symbol", "so3", "spencer --op cohomology"),
    (BOTH, "symbol", "full:3x2", "spencer --op cohomology"),
    (BOTH, "symbol", "skew:4", "spencer --op prolong"),
    (BOTH, "symbol", "sym:3", "spencer --op prolong"),
]

VERDICTS = [
    (BOTH, "lie", "so3", "invariants --which bimetric"),
    (BOTH, "lie", "aff1", "invariants --which bimetric"),
    (BOTH, "lie", "heisenberg", "invariants --which bimetric"),
    (BOTH, "lie", "so3+abelian:1", "invariants --which bimetric"),
    (BOTH, "lie", "aff1+aff1", "invariants --which bimetric"),
    (BOTH, "lie", "aff1", "invariants --which symplectic"),
    (BOTH, "lie", "so3", "invariants --which symplectic"),
    (BOTH, "lie", "aff1+aff1", "invariants --which symplectic"),
    (BOTH, "lie", "heisenberg+abelian:1", "invariants --which symplectic"),
    (BOTH, "lie+metric", "sl2", "invariants --which sb"),
    (BOTH, "lie+metric", "aff1", "invariants --which sb"),
    (BOTH, "lie+metric", "so3", "invariants --which sb+"),
    (BOTH, "conn+metric", "abelian:4/zero", "invariants --which s*b"),
    (BOTH, "conn+metric", "heisenberg-kv", "invariants --which s*b"),
    (BOTH, "conn+metric", "aff1-symplectic", "invariants --which s*b"),
    (BOTH, "conn", "abelian:3/zero", "invariants --which hessian"),
    (BOTH, "conn", "heisenberg-kv", "invariants --which hessian"),
    (BOTH, "conn", "affine-model:1", "invariants --which hessian"),
    (SPARSE, "lie", "aff1", "invariants --which flat"),
    (BOTH, "lie", "abelian:2", "invariants --which flat"),
    (BOTH, "lie", "heisenberg", "invariants --which flat"),
    (BOTH, "product", "matrix:2", "flat-models completeness"),
    (BOTH, "product", "affine:1", "flat-models completeness"),
    (BOTH, "product", "heisenberg-kv", "flat-models completeness"),
    (BOTH, "product", "zero:3", "flat-models completeness"),
    (BOTH, "symbol", "so3", "spencer --op involutive --trials 40"),
    (BOTH, "symbol", "full:2x2", "spencer --op involutive --trials 40"),
    (BOTH, "symbol", "conformal:2", "spencer --op involutive --trials 40"),
    (BOTH, "symbol", "sym:2", "spencer --op involutive --trials 40"),
    (BOTH, "symbol", "zero:2x2", "spencer --op involutive --trials 40"),
    (BOTH, "symbol", "so3", "spencer --op cartan"),
    (BOTH, "symbol", "traceless:2", "spencer --op cartan"),
    (PLAIN, "stat", "bernoulli", "statmodel --op fisher"),
    (PLAIN, "stat", "categorical:3", "statmodel --op fisher"),
    (PLAIN, "stat", "curved4", "statmodel --op defect"),
    (PLAIN, "stat", "categorical-natural:3",
     "statmodel --op curvature --alpha=-1"),
]

WORKLOADS = {
    "tensor-ladder": TENSOR_LADDER,
    "solve-ladder": SOLVE_LADDER,
    "verdicts": VERDICTS,
}

# Small inputs, distinct from every timed one, that touch each subcommand
# once (and the lazy sympy and numpy imports) before timing starts.
WARMUP = [
    (SPARSE, "lie", "heisenberg", "check-lie"),
    (SPARSE, "product", "heisenberg-kv", "algebra --op associator"),
    (SPARSE, "conn", "aff1-symplectic", "connection --op flat"),
    (SPARSE, "conn", "aff1-symplectic", "gauge --op festar"),
    (SPARSE, "lie", "sl2", "invariants --which bimetric"),
    (SPARSE, "product", "zero:2",
     "kv-cohomology --complex kv --coeffs adjoint --max-degree 2"),
    (SPARSE, "symbol", "diag:3", "spencer --op cohomology"),
    (SPARSE, "product", "affine:1", "flat-models completeness"),
    (PLAIN, "stat", "bernoulli", "statmodel --op curvature"),
]

@dataclass
class Query:
    qid: str
    form: str          # "sparse", "dense" or "plain"
    key: str           # expectation key: "<argv prefix>|<base>"
    argv: list

    def to_json(self) -> dict:
        return {"qid": self.qid, "form": self.form, "key": self.key,
                "argv": self.argv}


def expand_forms(forms: str) -> list[str]:
    if forms == PLAIN:
        return ["plain"]
    return [f for f, c in (("sparse", "s"), ("dense", "d")) if c in forms]


class Sweeper:
    """Writes the input files of one sweep and returns its queries."""

    def __init__(self, workload: str, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.writer = gen.Writer(root)

    def sweep(self, index: int, rungs=None) -> list[Query]:
        rungs = WORKLOADS[self.workload] if rungs is None else rungs
        out = []
        for r, (forms, kind, base, prefix) in enumerate(rungs):
            for form in expand_forms(forms):
                qid = f"s{index}r{r}{form[0]}"
                rng = random.Random(
                    f"{self.workload}/{self.seed}/{index}/{r}/{form}")
                argv = prefix.split() + self._files(kind, base, form, rng,
                                                    qid)
                if self._seeded(prefix):
                    argv += ["--seed", str(rng.randrange(1 << 30))]
                label = f"broken:{base}" if kind == "badlie" else base
                out.append(Query(qid, form, f"{prefix}|{label}", argv))
        return out

    @staticmethod
    def _seeded(prefix: str) -> bool:
        return prefix.startswith(("invariants", "flat-models")) or \
            "involutive" in prefix

    def _files(self, kind, base, form, rng, qid) -> list[str]:
        w = self.writer.write
        if kind == "stat":
            return ["--family", base, "--theta=" + stat_theta(base, rng)]
        if kind == "symbol":
            v, wd, mats = gen.SYMBOL[base]()
            ch_v = gen.draw_change(form, v, rng)
            ch_w = gen.draw_change(form, wd, rng)
            doc = gen.symbol_doc(v, wd, gen.transform_symbol(mats, ch_v,
                                                             ch_w))
            return ["--symbol", w(qid, doc)]
        if kind in ("lie", "badlie", "lie+metric"):
            m, t = gen.LIE[base]()
            if kind == "badlie":
                m, t = gen.violate_jacobi((m, t), rng)
            ch = gen.draw_change(form, m, rng)
            args = ["--algebra",
                    w(qid, gen.lie_doc(m, gen.transform_table(t, ch)))]
            if kind == "lie+metric":
                g = gen.transform_form(gen.identity(m), ch)
                args += ["--metric", w(qid + "g", gen.form_doc(g))]
            return args
        if kind == "product":
            if base.startswith("bracket:"):
                m, t = gen.LIE[base.partition(":")[2]]()
            else:
                m, t = gen.PRODUCT[base]()
            ch = gen.draw_change(form, m, rng)
            return ["--product",
                    w(qid, gen.product_doc(m, gen.transform_table(t, ch)))]
        # connections: the base algebra and the coefficients move together
        (m, t), gam = gen.connection(base)
        ch = gen.draw_change(form, m, rng)
        args = ["--algebra",
                w(qid + "a", gen.lie_doc(m, gen.transform_table(t, ch))),
                "--connection",
                w(qid, gen.product_doc(m, gen.transform_table(gam, ch)))]
        if kind == "conn+metric":
            g = gen.transform_form(gen.identity(m), ch)
            args += ["--metric", w(qid + "g", gen.form_doc(g))]
        return args


def stat_theta(family: str, rng: random.Random) -> str:
    """A seeded interior parameter, printed with three decimals."""
    if family == "bernoulli":
        vals = [rng.randint(150, 850) / 1000]
    elif family == "categorical:3":
        a = rng.randint(150, 450) / 1000
        vals = [a, rng.randint(150, 400) / 1000]
    elif family == "categorical-natural:3":
        vals = [rng.randint(-800, 800) / 1000 for _ in range(2)]
    else:  # curved4, near the middle of its domain
        vals = [rng.randint(-300, 300) / 1000 for _ in range(2)]
    return ",".join(f"{v:.3f}" for v in vals)
