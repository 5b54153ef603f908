"""One benchmark worker: a fresh interpreter that answers CLI queries.

Usage (spawned by run.py, never by hand):
    python3 worker.py --src SRC_DIR [--trace SPANS_JSON]

Protocol: JSON lines. The worker imports `koszul.cli`, reads one
{"warmup": [...]} batch, answers it, and replies {"ready": ...}; from then
on each {"queries": [...]} line is answered with one {"results": [...]}
line, and {"exit": true} ends it with its peak RSS. Each query runs
`koszul.cli.main(argv)` with stdout captured, single-threaded, under a
per-query time limit. With --trace the outside-in tracer is installed
after warm-up (once sympy is loaded) and spans are written at exit.

Between queries, outside the timed region, the worker times a fixed loop
of `Fraction` arithmetic (`calibrate`) at least every PROBE_EVERY_S of
query time, and reports each probe with the index of the query it
preceded; run.py uses them to factor the host's speed out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction


QUERY_LIMIT_S = 60.0  # a query running longer fails as a timeout
PROBE_EVERY_S = 0.3
READY_PROBES = 5


class QueryTimeout(Exception):
    pass


def calibrate() -> float:
    """Seconds for a fixed loop of exact rational arithmetic."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 7, i % 11 + 1) * Fraction(3, i % 5 + 1)
    return time.perf_counter() - t0


def _alarm(_signum, _frame):
    raise QueryTimeout()


def answer(main, argv, limit_s: float, tracer=None, qid: str = ""):
    """(exit code or None, seconds, captured stdout, error text)."""
    buf = io.StringIO()
    code, err = None, None
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    if tracer is not None:
        tracer.begin_query()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except QueryTimeout:
        err = "timeout"
    except SystemExit as exc:
        err = f"SystemExit({exc.code})"
    except Exception as exc:  # a crash is a failed query, not a dead worker
        err = f"{type(exc).__name__}: {exc}"
    finally:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.end_query(qid, t0, t1)
    return code, t1 - t0, buf.getvalue(), err


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args()

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr  # stray prints must not break the protocol

    def send(doc):
        proto.write(json.dumps(doc) + "\n")

    sys.path.insert(0, args.src)
    import koszul
    from koszul import cli

    signal.signal(signal.SIGALRM, _alarm)
    backend = getattr(koszul, "kernel_backend", None)
    warm = json.loads(sys.stdin.readline())
    results = []
    for q in warm["warmup"]:
        code, secs, out, err = answer(cli.main, q["argv"], QUERY_LIMIT_S)
        results.append({"qid": q["qid"], "code": code, "s": secs,
                        "out": out, "err": err})
    lazy = {name: name in sys.modules for name in ("sympy", "numpy")}
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    probes = [calibrate() for _ in range(READY_PROBES)]
    send({"ready": True, "results": results, "probes": probes,
          "lazy_imports": lazy,
          "kernel_backend": backend() if backend else "absent",
          "python": sys.version.split()[0]})

    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("exit"):
            break
        results, probes, since = [], [], PROBE_EVERY_S
        for q in msg["queries"]:
            if since >= PROBE_EVERY_S:
                probes.append([len(results), calibrate()])
                since = 0.0
            code, secs, out, err = answer(cli.main, q["argv"], QUERY_LIMIT_S,
                                          tracer, q["qid"])
            since += secs
            results.append({"qid": q["qid"], "code": code, "s": secs,
                            "out": out, "err": err})
        probes.append([len(results), calibrate()])
        send({"results": results, "probes": probes})
    if tracer is not None:
        tracer.dump(args.trace)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    send({"peak_rss_mb": rss_kb / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
