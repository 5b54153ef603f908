"""The koszul benchmark: closed-loop CLI query ladders with checked answers.

Usage, from the root of a checkout (the library is read from ./src):

    python3 koszulbench/run.py --workload tensor-ladder --seed 0 \\
        --seconds 30 --trace 0

Workloads: tensor-ladder, solve-ladder, verdicts (see README.md). One
client sends queries to one fresh single-threaded worker process, which
answers each with `koszul.cli.main(argv)` and its stdout captured. Inputs
are generated from --seed before they are sent; every answer is checked
against expected.json. --seconds fixes how many sweeps of the ladder a
run asks (SWEEPS_PER_30S), each sweep with fresh inputs.

--trace 0 prints the end-to-end metrics; --trace 1 replays the same
sweeps in a second worker with the outside-in tracer installed and prints
the per-layer metrics. Human-readable lines come first; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer as tracer_mod
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".koszulbench_work"

SETUPS = 3            # worker start-ups per run; setup_s is their median
# Sweeps a 30-second run asks. The count is fixed by --seconds, not by a
# clock, so both sides of a comparison answer the same queries; a run stops
# early only past STRETCH x --seconds of query time. At the commit that
# defined the benchmark one sweep took about 11.6, 12 and 3.4 s.
SWEEPS_PER_30S = {"tensor-ladder": 3, "solve-ladder": 3, "verdicts": 9}
STRETCH = 3.0
# Median time of worker.calibrate() on the machine that defined the
# benchmark (2 vCPU, Python 3.11). Reported times are wall times scaled by
# REF_PROBE_S / (median of the NEAR_PROBES probes nearest the query):
# seconds at that speed. On a shared host the raw speed drifts by tens of
# percent within minutes; the probes run in the same worker between
# queries, so the scaled times keep the program's cost and drop most of
# the host's drift.
REF_PROBE_S = 0.010
NEAR_PROBES = 5
RUN_LIMIT_S = 170.0   # the whole run, set-up included


class BenchError(Exception):
    """The benchmark itself cannot run (no library, worker died)."""


class Worker:
    """One worker process, from spawn to its reported peak RSS."""

    def __init__(self, deadline: float, trace_path: Path | None = None):
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("KOSZUL_")}
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC)]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     cwd=ROOT, env=env)
        self.setup_s = self.scale = None
        self.ready: dict = {}

    def _send(self, doc: dict):
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()

    def _recv(self) -> dict:
        wait = self.deadline - time.perf_counter()
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(wait, 0.0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("worker died or ran past the run time limit")
        return json.loads(line)

    def warm(self, queries) -> list:
        """Send the warm-up; set setup_s (raw) and the speed scale."""
        self._send({"warmup": [q.to_json() for q in queries]})
        self.ready = self._recv()
        probes = self.ready["probes"]
        self.setup_s = time.perf_counter() - self.t_spawn - sum(probes)
        self.scale = scale_of(probes)
        return self.ready["results"]

    def ask(self, queries) -> tuple[list, list]:
        self._send({"queries": [q.to_json() for q in queries]})
        reply = self._recv()
        return reply["results"], reply["probes"]

    def close(self) -> float:
        self._send({"exit": True})
        peak = self._recv()["peak_rss_mb"]
        self.proc.wait(timeout=30)
        return peak

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Tally:
    """Checked outcomes of every answered query."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def judge(self, query, result) -> check.Outcome:
        code = result["code"] if result["err"] is None else None
        outcome = check.judge(self.expected, query.key, query.form, code,
                              result["out"])
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            why = result["err"] or outcome.why
            self.problems.append(f"{query.qid} {query.key}: {why}")
        return outcome


def warmup_queries(sweeper) -> list:
    """Warm-up rungs, plus a repeat of the seeded one for byte identity."""
    queries = sweeper.sweep("w", workloads.WARMUP)
    seeded = next(q for q in queries if "--seed" in q.argv)
    again = workloads.Query(seeded.qid + "x", seeded.form, seeded.key,
                            list(seeded.argv))
    return queries + [again]


def check_warmup(tally: Tally, queries, results):
    by_qid = {r["qid"]: r for r in results}
    for q in queries:
        tally.judge(q, by_qid[q.qid])
    seeded = next(q for q in queries if "--seed" in q.argv)
    if by_qid[seeded.qid]["out"] != by_qid[seeded.qid + "x"]["out"]:
        tally.failed += 1
        tally.problems.append(f"{seeded.key}: repeated argv and seed gave "
                              "different bytes")


def scale_of(probes: list) -> float:
    return REF_PROBE_S / statistics.median(probes)


@dataclass
class Sweep:
    queries: list
    results: list
    outcomes: list
    probes: list      # [index of the next query, probe seconds]

    def __post_init__(self):
        self.scales = [self._scale_at(i) for i in range(len(self.results))]

    def _scale_at(self, i: int) -> float:
        near = sorted(self.probes, key=lambda p: abs(p[0] - i - 0.5))
        return scale_of([s for _pos, s in near[:NEAR_PROBES]])

    def times(self, form=None, scaled=True) -> list[float]:
        return [r["s"] * (k if scaled else 1.0) for q, r, k in
                zip(self.queries, self.results, self.scales)
                if form is None or q.form == form]

    def seconds(self, form=None, scaled=True) -> float:
        return sum(self.times(form, scaled))


def sweep_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * SWEEPS_PER_30S[workload] / 30))


def run_sweeps(worker: Worker, sweeper, tally: Tally, count: int,
               limit_s: float, replay=None) -> list[Sweep]:
    """Ask `count` sweeps (or replay earlier ones), stopping past limit_s."""
    done, spent = [], 0.0
    for index in range(len(replay) if replay else count):
        queries = replay[index].queries if replay else sweeper.sweep(index)
        results, probes = worker.ask(queries)
        outcomes = [tally.judge(q, r) for q, r in zip(queries, results)]
        done.append(Sweep(queries, results, outcomes, probes))
        spent += done[-1].seconds(scaled=False)
        if spent > limit_s:
            break
    return done


def tail(values: list) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(sweeps: list[Sweep], starts: list[Worker], peak: float):
    per_query = [t * 1000 for sw in sweeps for t in sw.times()]
    sums = {form: [sw.seconds(form) for sw in sweeps]
            for form in ("sparse", "dense")}
    setups = [w.setup_s * w.scale for w in starts]
    tail_ms, tail_pct = tail(per_query)
    outcomes = [o for sw in sweeps for o in sw.outcomes]
    timed = len(outcomes)
    failed_timed = sum(1 for o in outcomes if not o.ok)
    verdicts = sum(1 for o in outcomes if o.verdict_bearing)
    unknown = sum(1 for o in outcomes if o.unknown)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sweep_s.sparse": (statistics.median(sums["sparse"]), "s"),
        "sweep_s.dense": (statistics.median(sums["dense"]), "s"),
        "query_ms_p50": (statistics.median(per_query), "ms"),
        "query_ms_tail": (tail_ms, "ms"),
        "answered_frac": (1.0 - failed_timed / timed, "ratio"),
        "decided_frac": (1.0 - unknown / verdicts if verdicts else 1.0,
                         "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }
    raw_sums = {form: [sw.seconds(form, scaled=False) for sw in sweeps]
                for form in sums}
    notes = [
        f"setup_s: median of {len(setups)} worker start-ups; raw "
        f"{', '.join(f'{w.setup_s:.3f}' for w in starts)} s, speed scale "
        f"{', '.join(f'{w.scale:.3f}' for w in starts)}",
        f"sweeps: {len(sweeps)}, {timed} timed queries; median speed scale "
        f"per sweep "
        f"{', '.join(f'{statistics.median(sw.scales):.3f}' for sw in sweeps)}",
        f"raw wall medians: sweep_s.sparse "
        f"{statistics.median(raw_sums['sparse']):.4f} s, sweep_s.dense "
        f"{statistics.median(raw_sums['dense']):.4f} s",
        f"query_ms_tail: p{tail_pct:.1f} of {timed} queries",
        f"failed_frac: {failed_timed}/{timed} = {failed_timed / timed:g}",
        f"unknown_frac: {unknown}/{verdicts} verdict-bearing = "
        f"{unknown / verdicts if verdicts else 0:g}",
    ]
    return metrics, notes


def per_layer(doc: dict, plain: list[Sweep],
              traced: list[Sweep]) -> tuple[dict, list]:
    """Per-layer metrics; times scaled by the traced worker's speed."""
    summary = tracer_mod.summarize(doc)
    self_sum = sum(summary["self_s"].values())
    raw_traced_s = summary["query_s"]
    if abs(self_sum - raw_traced_s) > 1e-6 * max(1.0, raw_traced_s):
        raise BenchError("layer self times do not sum to the query time")
    scale = scale_of([s for sw in traced for _pos, s in sw.probes])
    plain_s = sum(sw.seconds() for sw in plain)
    metrics = {}
    for layer in tracer_mod.LAYERS:
        metrics[f"{layer}.self_s"] = (summary["self_s"][layer] * scale, "s")
        metrics[f"{layer}.calls"] = (summary["calls"][layer], "count")
    counts = summary["counts"]
    cells = counts.get("linalg.elim.cells", 0)
    metrics["linalg.elim.cells"] = (cells, "count")
    metrics["linalg.elim.nnz_frac"] = (
        counts.get("linalg.elim.nonzeros", 0) / cells if cells else 0.0,
        "ratio")
    metrics["kernel.max_bits"] = (summary["max_bits"], "bits")
    for name in ("invariants.rank_samples", "spaces.contains_calls",
                 "spencer.cartan_trials", "flatmodels.det_probes"):
        metrics[name] = (counts.get(name, 0), "count")
    routes = dict.fromkeys(check.ROUTES + ("unstated",), 0)
    for sw in traced:
        for q, r in zip(sw.queries, sw.results):
            if check.verdict_field(q.key.split("|")[0]):
                routes[check.route_of(r["out"])] += 1
    for name, n in routes.items():
        metrics[f"route.{name}.count"] = (n, "count")
    traced_s = raw_traced_s * scale
    metrics["trace.query_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    notes = [f"{len(traced)} sweeps; raw traced query time "
             f"{raw_traced_s:.4f} s, layer self times sum to "
             f"{self_sum:.4f} s; scaled traced {traced_s:.4f} s, "
             f"scaled untraced {plain_s:.4f} s"]
    return metrics, notes


def metadata(ready: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "koszul").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": ready.get("python"), "platform": platform.platform(),
            "kernel_backend": ready.get("kernel_backend"),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "lazy_imports_at_ready": ready.get("lazy_imports")}


def bench(args, workdir: Path) -> tuple[dict, Tally, list]:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    tally = Tally(check.load_expected())
    sweeper = workloads.Sweeper(args.workload, args.seed, workdir / "in")
    warm = warmup_queries(sweeper)
    workers: list[Worker] = []
    try:
        if not args.trace:
            for _ in range(SETUPS):
                w = Worker(deadline)
                workers.append(w)
                check_warmup(tally, warm, w.warm(warm))
                if len(workers) < SETUPS:
                    w.close()
            main = workers[-1]
            sweeps = run_sweeps(main, sweeper, tally,
                                sweep_count(args.workload, args.seconds),
                                STRETCH * args.seconds)
            peak = main.close()
            metrics, notes = end_to_end(sweeps, workers, peak)
        else:
            plain = Worker(deadline)
            workers.append(plain)
            check_warmup(tally, warm, plain.warm(warm))
            count = sweep_count(args.workload, args.seconds / 2)
            sweeps = run_sweeps(plain, sweeper, tally, count,
                                STRETCH * args.seconds / 2)
            plain.close()
            spans = workdir / "spans.json"
            traced = Worker(deadline, trace_path=spans)
            workers.append(traced)
            check_warmup(tally, warm, traced.warm(warm))
            replayed = run_sweeps(traced, sweeper, tally, count,
                                  STRETCH * args.seconds, replay=sweeps)
            traced.close()
            metrics, notes = per_layer(json.loads(spans.read_text()),
                                       sweeps, replayed)
        notes.insert(0, json.dumps({"meta": metadata(workers[-1].ready)},
                                   sort_keys=True))
        notes.append(f"run wall time {time.perf_counter() - start:.1f} s")
        return metrics, tally, notes
    finally:
        for w in workers:
            w.kill()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "koszul" / "cli.py").is_file():
        print(f"no library at {SRC / 'koszul'}; run from a checkout",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, tally, notes = bench(args, workdir)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for line in tally.problems[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
