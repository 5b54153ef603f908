"""Outcome checks: basis-invariant fields of each report, and their verdicts.

`extract` reads the fields of a `koszul` report that no basis change can
move (validity, dims, ranks, Betti numbers, verdicts, error types). The
expectation table `expected.json` holds those fields per rung, keyed by
"<argv prefix>|<base structure>"; `record.py` writes it. A query passes
when its exit code and every extracted field match. An `unknown` verdict
where a yes/no was expected is not a failure: it is counted apart, and
the fields that only a decided verdict certifies are then skipped.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# report fields that carry a verdict, and the fields a decided verdict backs
VERDICT_FIELD = {"invariants": "exists", "flat-models": "verdict",
                 "spencer --op involutive": "verdict"}
DECIDED_ONLY = {"s_b", "s_star_b", "defect", "cohomology_witness"}

ROUTES = ("exhaustive", "randomized", "common-kernel", "generic-rank",
          "groebner", "exact-roots", "nilpotent", "sampling", "parity")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def verdict_field(prefix: str) -> str | None:
    for head, field in VERDICT_FIELD.items():
        if prefix.startswith(head) and not prefix.endswith("--which rb"):
            return field
    return None


def _signature(form_doc: dict) -> list[int]:
    """(n_pos, n_neg, n_zero) of a symmetric form, by congruence."""
    m = form_doc["dim"]
    a = [[Fraction(0)] * m for _ in range(m)]
    for i, j, v in form_doc["entries"]:
        a[i][j] = a[j][i] = Fraction(v)
    pos = neg = 0
    for i in range(m):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, m) if a[j][j]), None)
            if j is None:
                j = next((j for j in range(i + 1, m) if a[i][j]), None)
                if j is None:
                    continue
                for c in range(m):
                    a[i][c] += a[j][c]
                for r in range(m):
                    a[r][i] += a[r][j]
            else:
                a[i], a[j] = a[j], a[i]
                for row in a:
                    row[i], row[j] = row[j], row[i]
        d = a[i][i]
        pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        for j in range(i + 1, m):
            f = a[j][i] / d
            if f:
                for c in range(m):
                    a[j][c] -= f * a[i][c]
                for r in range(m):
                    a[r][j] -= f * a[r][i]
    return [pos, neg, m - pos - neg]


def _fisher_error(family: str, theta: list, fisher: list) -> float:
    """Largest relative error against the closed-form Fisher matrix."""
    if family == "bernoulli":
        t = theta[0]
        want = [[1.0 / (t * (1.0 - t))]]
    else:  # categorical:N in mean coordinates
        last = 1.0 - sum(theta)
        want = [[(1.0 / ti if i == j else 0.0) + 1.0 / last
                 for j in range(len(theta))] for i, ti in enumerate(theta)]
    return max(abs(g - w) / abs(w) for rg, rw in zip(fisher, want)
               for g, w in zip(rg, rw))


def extract(prefix: str, form: str, result: dict) -> dict:
    """The basis-invariant fields of one successful report."""
    head = prefix.split()[0]
    op = prefix.split()[2] if len(prefix.split()) > 2 else ""
    if head == "check-lie":
        return {"valid": result["valid"], "dim": result["dim"]}
    if head in ("algebra", "connection") and op in (
            "associator", "anomaly", "torsion", "curvature"):
        (tensor,) = result.values()
        out = {"zero": tensor["zero"]}
        if form == "sparse":
            # a monomial change maps nonzero entries one to one
            out["entries"] = len(tensor["entries"])
        return out
    if op == "killing":
        return {"signature": _signature(result["killing"])}
    if op == "flat" and head == "connection":
        return {"flat": result["flat"]}
    if head == "gauge":
        out = {"dim_solution": result["dim_solution"],
               "basis_len": len(result["basis"])}
        for key in ("r_b", "shrink_steps", "shape"):
            if key in result:
                out[key] = result[key]
        return out
    if prefix.startswith("invariants --which rb"):
        return {k: result[k] for k in ("r_b", "defect", "dim_solution")}
    if head == "invariants":
        out = {"exists": result["exists"]}
        for key in ("s_b", "s_star_b", "defect"):
            if key in result:
                out[key] = result[key]
        return out
    if head == "kv-cohomology":
        return {k: result[k] for k in ("complex", "coefficients", "dim",
                                       "betti")}
    if head == "flat-models":
        return {"verdict": result["verdict"]}
    if op == "cohomology":
        return {k: result[k] for k in ("h", "c", "prolong_dims",
                                       "d_squared_zero")}
    if op == "prolong":
        return {"order": result["order"], "dim": result["dim"],
                "basis_len": len(result["basis"])}
    if op == "involutive":
        return {"verdict": result["verdict"],
                "cohomology_witness": result["cohomology_witness"]}
    if op == "cartan":
        p1, total = result["prolongation_dim"], result["flag_sum"]
        return {"prolongation_dim": p1,
                "cartan_bound_ok": p1 <= total and
                result["quasi_regular"] == (p1 == total)}
    if head == "statmodel" and op == "fisher":
        err = _fisher_error(result["family"], result["theta"],
                            result["fisher"])
        return {"fisher_close": err < 1e-6}
    if head == "statmodel" and op == "curvature":
        # finite differences leave about 1e-4 on a flat connection
        return {"flat": result["max_abs"] < 1e-2}
    if head == "statmodel" and op == "defect":
        return {"exponential_like": result["exponential_like"]}
    raise KeyError(f"no invariant fields defined for {prefix!r}")


def observe(prefix: str, form: str, code: int, out: str) -> dict:
    """Exit code plus the invariant fields (or error type) of one answer."""
    doc = json.loads(out)
    if code != 0:
        return {"exit": code, "error": doc["error"]["type"]}
    return {"exit": 0, **extract(prefix, form, doc["result"])}


def route_of(out: str) -> str:
    """The deciding route a report names, or "unstated"."""
    try:
        result = json.loads(out).get("result") or {}
    except json.JSONDecodeError:
        return "unstated"
    method = result.get("method")
    if method in ROUTES:
        return method
    cert = result.get("certificate") or ""
    if "annihilates" in cert:
        return "common-kernel"
    if "generic rank" in cert:
        return "generic-rank"
    if "Groebner" in cert:
        return "groebner"
    if "odd dimension" in cert:
        return "parity"
    return "unstated"


class Outcome:
    """The verdict on one answer: passed, failure reason, unknown flag."""

    __slots__ = ("ok", "why", "unknown", "verdict_bearing")

    def __init__(self, ok, why="", unknown=False, verdict_bearing=False):
        self.ok, self.why = ok, why
        self.unknown, self.verdict_bearing = unknown, verdict_bearing


def judge(expected: dict, key: str, form: str, code, out: str) -> Outcome:
    """Compare one answer with the expectation table entry for `key`."""
    prefix = key.split("|")[0]
    vfield = verdict_field(prefix)
    if code is None:
        return Outcome(False, "crash or timeout", verdict_bearing=bool(vfield))
    if code == 3:
        return Outcome(False, "exit 3", verdict_bearing=bool(vfield))
    want = expected.get(key)
    if want is None:
        return Outcome(False, f"no expectation for {key}")
    try:
        got = observe(prefix, form, code, out)
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(False, f"unreadable report: {exc!r}",
                       verdict_bearing=bool(vfield))
    unknown = bool(vfield) and got.get(vfield) == "unknown" and \
        want.get(vfield) != "unknown"
    skip = {vfield} | DECIDED_ONLY if unknown else set()
    if form != "sparse":
        skip.add("entries")
    for field, value in want.items():
        if field in skip:
            continue
        if got.get(field) != value:
            return Outcome(False, f"{field}: got {got.get(field)!r}, "
                           f"expected {value!r}", unknown, bool(vfield))
    return Outcome(True, "", unknown, bool(vfield))
