"""Write expected.json: the basis-invariant answer of every rung.

Usage, from the repo root: python3 koszulbench/record.py

Runs every rung of every workload, plus the warm-up rungs, in each of its
forms over SWEEPS sweeps, in-process, and keeps the fields `check.extract`
reads. A rung is recorded only when all its answers agree (sparse and dense
forms, every sweep); a disagreement is printed and the script exits 1 with
nothing written. Nonzero-entry counts come from the sparse form alone.
Values asserted in the library's tests are cross-checked in
test_bench.py; the table holds the rest as the library answered them when
the benchmark was defined.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import check
import workloads

SWEEPS = 3


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from koszul import cli

    ladders = dict(workloads.WORKLOADS, warmup=workloads.WARMUP)
    table: dict = {}
    bad = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, rungs in ladders.items():
            sweeper = workloads.Sweeper(name, 0, Path(tmp))
            seen: dict = {}
            for k in range(SWEEPS):
                for q in sweeper.sweep(k, rungs):
                    buf = io.StringIO()
                    t0 = time.perf_counter()
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(q.argv)
                    secs = time.perf_counter() - t0
                    got = check.observe(q.key.split("|")[0], q.form, code,
                                        buf.getvalue())
                    print(f"{secs * 1000:9.1f} ms {q.form:6} {q.key} {got}",
                          file=sys.stderr)
                    seen.setdefault(q.key, []).append(got)
            for key, answers in seen.items():
                merged, ok = _merge(key, answers)
                bad |= not ok
                table[key] = merged
    if bad:
        return 1
    check.EXPECTED_PATH.write_text(
        json.dumps(table, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(table)} rungs to {check.EXPECTED_PATH}")
    return 0


def _merge(key: str, answers: list) -> tuple[dict, bool]:
    vfield = check.verdict_field(key.split("|")[0])
    decided = [a for a in answers if not vfield or a.get(vfield) != "unknown"]
    pool = decided or answers
    merged = {}
    ok = True
    for field in sorted({f for a in pool for f in a}):
        values = {json.dumps(a[field]) for a in pool if field in a}
        if len(values) != 1:
            print(f"DISAGREE {key} {field}: {sorted(values)}",
                  file=sys.stderr)
            ok = False
        merged[field] = json.loads(min(values))
    return merged, ok


if __name__ == "__main__":
    sys.exit(main())
