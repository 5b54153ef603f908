"""The benchmark's tracer (koszulbench/tracer.py) wraps library functions by
name, so deleting or renaming one of them must fail here rather than in a
traced benchmark run."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "koszulbench"
TRACER = BENCH / "tracer.py"


def _targets():
    # executed from its source so that nothing is written beside it
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


def _resolves(obj, dotted):
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return callable(obj)


def test_every_traced_name_resolves():
    missing = [f"{module}.{name}"
               for module, names in _targets().values()
               for name in names
               if not _resolves(importlib.import_module(module), name)]
    assert missing == []


WARM_UP = """
    import contextlib, io, json, sys
    from pathlib import Path

    bench, inputs = sys.argv[1:]
    sys.path.insert(0, bench)
    import workloads
    from koszul import cli

    sweep = workloads.Sweeper("verdicts", 5, Path(inputs))
    codes = []
    for q in sweep.sweep("w", workloads.WARMUP):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(q.argv))
    tracer = Path(bench, "tracer.py")
    namespace = {"__name__": "tracer"}
    exec(compile(tracer.read_text(), str(tracer), "exec"), namespace)
    print(json.dumps({"codes": codes, "missing": sorted(
        module for module, _ in namespace["TARGETS"].values()
        if module not in sys.modules), "numpy": "numpy" in sys.modules}))
"""


def test_the_warm_up_imports_every_traced_module(tmp_path):
    # the tracer installs itself after the benchmark's warm-up and looks
    # each TARGETS module up in sys.modules, sympy included, so a warm-up
    # that stops importing one of them breaks every traced run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-B", "-c", textwrap.dedent(WARM_UP), str(BENCH),
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    doc = json.loads(done.stdout)
    assert set(doc["codes"]) == {0}
    assert doc["missing"] == []
    # no worker loads numpy: the warm-up's statmodel query runs on jets
    assert doc["numpy"] is False
