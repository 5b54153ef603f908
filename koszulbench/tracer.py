"""Outside-in tracer: spans around the public functions of each layer.

The library is not edited. `Tracer.install` wraps the listed functions and
rebinds every `koszul.*` module attribute that holds the same function
object (so `koszul.linalg.echelon`, which is `koszul._kernel.echelon`, and
`invariants.solve_fe_star`, imported by name from `gauge`, are both
caught), then patches the sympy entry points the library calls through the
`sympy` namespace. Call it after the library and sympy are imported.

Every span records (id, parent id, function, start, end, self time); self
time is the span minus the time its child spans cover. Each timed query is
one root span of the `cli` layer, so per-layer self times sum exactly to
the traced query time. Spans stay in memory and are written out by `dump`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from itertools import count
from time import perf_counter

# layer -> (module, names); a name "Class.method" wraps a class attribute
TARGETS = {
    "algebra": ("koszul.algebra", (
        "jacobi_defect", "associator_defect", "kv_anomaly",
        "commutator_bracket", "killing_form", "lie_from_sparse",
        "product_from_sparse")),
    "connections": ("koszul.connections", (
        "torsion", "curvature", "curvature_operators", "is_locally_flat",
        "amari_dual")),
    "gauge": ("koszul.gauge", (
        "solve_gauge_equation", "solve_fe_star", "solve_fe_double_star",
        "parallel_forms", "g_nabla_subalgebra", "phi_split")),
    "cohomology": ("koszul.cohomology", (
        "kv_coboundary", "ce_coboundary_matrix", "hochschild_coboundary",
        "kv_cohomology_dims", "ce_cohomology_dims", "hochschild_dims")),
    "spencer": ("koszul.spencer", (
        "prolong", "cartan_test", "find_quasi_regular_basis",
        "spencer_cohomology", "is_involutive")),
    "flatmodels": ("koszul.flatmodels", (
        "geometric_completeness", "simple_right_ideal_check", "tower_dims",
        "affine_algebra", "matrix_algebra")),
    "invariants": ("koszul.invariants", (
        "max_rank", "generic_rank", "common_kernel", "r_b_defect",
        "hessian_cocycle_space", "hessian_defect", "flat_existence",
        "s_b", "s_star_b", "bi_invariant_metric", "left_symplectic_oracle")),
    "spaces": ("koszul.spaces", (
        "from_conditions", "LinearSolutionSpace.__post_init__",
        "LinearSolutionSpace.contains")),
    "linalg.elim": ("koszul.linalg", (
        "rank", "nullspace", "rref", "det", "inverse", "solve",
        "row_space_basis", "column_space_basis")),
    "linalg.dense": ("koszul.linalg", ("mat_mul", "commutator", "mat_vec")),
    "kernel": ("koszul._kernel", ("echelon",)),
    "io": ("koszul.io", (
        "load_algebra", "load_product", "load_connection", "load_form",
        "load_symbol", "dump_algebra", "dump_product", "dump_connection",
        "dump_form", "dump_symbol", "dump_space", "jsonable")),
    "statmodel": ("koszul.statmodel", (
        "fisher_information", "alpha_christoffels", "alpha_curvature",
        "exponential_defect_probe")),
    "sympy": ("sympy", (
        "groebner", "solve", "real_roots", "roots", "Matrix.rank",
        "Matrix.det")),
}

ROOT_LAYER = "cli"
LAYERS = (ROOT_LAYER,) + tuple(TARGETS)


def _rows_shape(rows):
    """(cells, nonzeros) of a row list, or None for a one-shot iterable."""
    if not isinstance(rows, (list, tuple)):
        return None
    cells = nz = 0
    for row in rows:
        cells += len(row)
        nz += sum(1 for x in row if x)
    return cells, nz


class Tracer:
    def __init__(self):
        self.functions: list[tuple[str, str]] = []
        self.spans: list[tuple] = []
        self.roots: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = count(1)
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self.max_bits = 0

    # ---------------------------------------------------------- spans

    def begin_query(self):
        self._stack = [[next(self._ids), 0.0]]

    def end_query(self, qid: str, t0: float, t1: float):
        sid, children = self._stack.pop()
        self.roots.append((sid, qid, t0, t1, (t1 - t0) - children))

    def _wrap(self, fn, layer: str, name: str):
        idx = len(self.functions)
        self.functions.append((layer, name))
        tracer = self
        pre = self._pre_hook(layer, name)
        post = self._post_hook(layer)
        key = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args)
            parent = stack[-1]
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            active = tracer._active
            active[key] += 1
            active[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[key] -= 1
                active[layer] -= 1
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                tracer.spans.append((frame[0], parent[0], idx, t0, t1,
                                     dur - frame[1]))
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ---------------------------------------------------------- counters

    def _pre_hook(self, layer: str, name: str):
        counts, active = self.counts, self._active
        if layer == "linalg.elim":
            def pre(args):
                if name == "rank" and active["invariants.max_rank"]:
                    counts["invariants.rank_samples"] += 1
                if name == "det" and \
                        active["flatmodels.geometric_completeness"]:
                    counts["flatmodels.det_probes"] += 1
                if not active["linalg.elim"]:
                    shape = _rows_shape(args[0]) if args else None
                    if shape is not None:
                        counts["linalg.elim.cells"] += shape[0]
                        counts["linalg.elim.nonzeros"] += shape[1]
            return pre
        if name == "LinearSolutionSpace.contains":
            def pre(args):
                counts["spaces.contains_calls"] += 1
            return pre
        if name == "cartan_test":
            def pre(args):
                counts["spencer.cartan_trials"] += 1
            return pre
        return None

    def _post_hook(self, layer: str):
        if layer != "kernel":
            return None

        def post(result):
            rows = result[0]
            bits = max((abs(x).bit_length() for row in rows for x in row),
                       default=0)
            if bits > self.max_bits:
                self.max_bits = bits
        return post

    # ---------------------------------------------------------- install

    def install(self):
        """Wrap every target and rebind each namespace that holds it."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "koszul" or
                                      n.startswith("koszul."))]
        for layer, (modname, names) in TARGETS.items():
            module = sys.modules[modname]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                orig = getattr(owner, attr)
                wrapper = self._wrap(orig, layer, name)
                setattr(owner, attr, wrapper)
                if owner_name:
                    continue
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)

    # ---------------------------------------------------------- output

    def dump(self, path: str):
        doc = {"functions": self.functions, "spans": self.spans,
               "roots": self.roots, "counts": dict(self.counts),
               "max_bits": self.max_bits}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def summarize(doc: dict) -> dict:
    """Per-layer self time and calls from a dumped trace."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for _sid, _parent, idx, _t0, _t1, own in doc["spans"]:
        layer = doc["functions"][idx][0]
        self_s[layer] += own
        calls[layer] += 1
    for _sid, _qid, _t0, _t1, own in doc["roots"]:
        self_s[ROOT_LAYER] += own
        calls[ROOT_LAYER] += 1
    query_s = sum(t1 - t0 for _s, _q, t0, t1, _o in doc["roots"])
    return {"self_s": self_s, "calls": calls, "query_s": query_s,
            "counts": doc["counts"], "max_bits": doc["max_bits"]}
