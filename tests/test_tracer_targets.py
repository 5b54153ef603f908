"""The benchmark's tracer (koszulbench/tracer.py) wraps library functions by
name, so deleting or renaming one of them must fail here rather than in a
traced benchmark run."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "koszulbench" / "tracer.py"


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
