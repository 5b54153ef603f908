"""Command-line surface: one binary, one subcommand per module family.

Reports are JSON objects with a versioned schema; given identical argv the
bytes are identical (the one seed is `--seed`, and timing is only attached
on request). Every report and error document is written by `_dumps`, which
gives the bytes json.dumps writes with sorted keys and an indent of 2 at
about half the cost, and a defect tensor's entries are printed from its
integers. Exit codes: 0 success, 2 validation or precondition failure, 3
conformance mismatch (two routes to the same value disagreed, i.e. a
library bug surfaced by a built-in cross-check).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii

from koszul import (
    algebra as algebra_mod,
    catalog,
    cohomology,
    connections,
    flatmodels,
    gauge,
    invariants,
    io as kio,
    spencer,
)
from koszul.errors import ConformanceMismatch, KoszulError, ValidationError
from koszul.forms import BilinearForm, identity_form

SCHEMA = "koszul-report/1"


class _Inputs:
    """Collects raw input material for the digest and, under --dump, the
    parsed inputs as documents."""

    def __init__(self, dump: bool):
        self.material = {}
        self.dump = {} if dump else None

    def add_file(self, role: str, path) -> str:
        """Read the file once; its text is hashed and returned for the
        loader to parse."""
        text = self.material[role] = kio.read_text(path)
        return text

    def add_value(self, role: str, value):
        self.material[role] = repr(value)

    def add_dump(self, role: str, build, value):
        """Record build(value) under role; built only when --dump is given."""
        if self.dump is not None:
            self.dump[role] = build(value)

    def digest(self) -> str:
        blob = json.dumps(self.material, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _defect_doc(t) -> dict:
    """A defect tensor's report. Each entry is printed from its integer
    over the tensor's denominator with one gcd, as `str(Fraction)` prints
    the reduced value."""
    d = t.den

    def text(n):
        g = math.gcd(n, d)
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    return {"zero": t.is_zero(), "max_abs": kio.fraction_str(t.max_abs()),
            "entries": [[*idx, text(n)] for idx, n in t.numerators.items()]}


def _witness_doc(w):
    """A verdict witness: a form, a connection, or None."""
    if isinstance(w, BilinearForm):
        return kio.dump_form(w)
    if isinstance(w, connections.InvariantConnection):
        return kio.dump_connection(w)
    return kio.jsonable(w)


def _verdict_doc(v: invariants.ExistenceVerdict) -> dict:
    return {
        "exists": v.exists,
        "witness": _witness_doc(v.witness),
        "certificate": v.certificate,
        "notes": v.notes,
    }


def _load_lie(args, inputs: _Inputs):
    if getattr(args, "algebra", None):
        lie = kio.load_algebra(args.algebra,
                               inputs.add_file("algebra", args.algebra))
    elif getattr(args, "catalog", None):
        inputs.add_value("catalog", args.catalog)
        lie = catalog.resolve("lie", args.catalog)
    else:
        raise ValidationError("provide --algebra FILE or --catalog NAME")
    inputs.add_dump("algebra", kio.dump_algebra, lie)
    return lie


def _load_product(args, inputs: _Inputs):
    if getattr(args, "product", None):
        p = kio.load_product(args.product,
                             inputs.add_file("product", args.product))
    elif getattr(args, "catalog", None):
        inputs.add_value("catalog", args.catalog)
        p = catalog.resolve("product", args.catalog)
    else:
        raise ValidationError("provide --product FILE or --catalog NAME")
    inputs.add_dump("product", kio.dump_product, p)
    return p


def _load_connection(args, base, inputs: _Inputs, required=True):
    if getattr(args, "connection", None):
        conn = kio.load_connection(
            args.connection, base,
            inputs.add_file("connection", args.connection))
    elif getattr(args, "cartan", None):
        inputs.add_value("cartan", args.cartan)
        conn = connections.cartan_connection(base, args.cartan)
    elif required:
        raise ValidationError(
            "provide --connection FILE or --cartan minus|zero|plus")
    else:
        return None
    inputs.add_dump("connection", kio.dump_connection, conn)
    return conn


def _load_metric(args, dim: int, inputs: _Inputs):
    if not args.metric:
        return identity_form(dim)
    form = kio.load_form(args.metric, inputs.add_file("metric", args.metric))
    inputs.add_dump("metric", kio.dump_form, form)
    return form


# ---------------------------------------------------------------- commands


def _cmd_check_lie(args, inputs):
    lie = _load_lie(args, inputs)
    return {"valid": True, "dim": lie.dim}


def _cmd_algebra(args, inputs):
    if args.op == "killing":
        lie = _load_lie(args, inputs)
        return {"killing": kio.dump_form(algebra_mod.killing_form(lie))}
    p = _load_product(args, inputs)
    if args.op == "commutator":
        lie = algebra_mod.commutator_bracket(p)
        return {"algebra": kio.dump_algebra(lie)}
    if args.op == "anomaly":
        return {"kv_anomaly": _defect_doc(algebra_mod.kv_anomaly(p))}
    return {"associator": _defect_doc(algebra_mod.associator_defect(p))}


def _cmd_connection(args, inputs):
    lie = _load_lie(args, inputs)
    conn = _load_connection(args, lie, inputs)
    if args.op == "torsion":
        return {"torsion": _defect_doc(connections.torsion(conn))}
    if args.op == "curvature":
        return {"curvature": _defect_doc(connections.curvature(conn))}
    if args.op == "flat":
        flat, witness = connections.is_locally_flat(conn)
        return {"flat": flat, "witness": witness}
    metric = _load_metric(args, lie.dim, inputs)
    dual = connections.amari_dual(conn, metric)
    if args.op == "dual":
        return {"dual": kio.dump_connection(dual)}
    alpha = kio.parse_fraction(args.alpha)
    mixed = connections.alpha_connection(conn, dual, alpha)
    return {"alpha": kio.fraction_str(alpha),
            "connection": kio.dump_connection(mixed)}


def _cmd_gauge(args, inputs):
    lie = _load_lie(args, inputs)
    conn = _load_connection(args, lie, inputs)
    if args.op == "fe":
        if args.dual:
            dual = kio.load_connection(args.dual, lie,
                                       inputs.add_file("dual", args.dual))
            inputs.add_dump("dual", kio.dump_connection, dual)
        else:
            dual = connections.amari_dual(
                conn, _load_metric(args, lie.dim, inputs))
        space = gauge.solve_gauge_equation(conn, dual)
        return kio.dump_space(space)
    if args.op == "festar":
        sols = gauge.solve_fe_star(conn)
        doc = kio.dump_space(sols.space, r_b=sols.r_b)
        doc["shrink_steps"] = sols.shrink_steps
        return doc
    if args.op == "parallel":
        space = gauge.parallel_forms(conn, args.sym)
        return kio.dump_space(space)
    space, closed = gauge.g_nabla_subalgebra(conn)
    doc = kio.dump_space(space)
    doc["closed_under_product"] = closed
    return doc


def _bimetric_witness(lie, verdict):
    """Replace a witness proportional to the Killing form by its name."""
    w = verdict.witness
    if not isinstance(w, BilinearForm):
        return _witness_doc(w)
    k = algebra_mod.killing_form(lie)
    pivot = next(((i, j) for i in range(lie.dim) for j in range(lie.dim)
                  if k.entries[i][j]), None)
    if pivot is not None:
        lam = w.entries[pivot[0]][pivot[1]] / k.entries[pivot[0]][pivot[1]]
        if lam and all(
                w.entries[i][j] == lam * k.entries[i][j]
                for i in range(lie.dim) for j in range(lie.dim)):
            return "killing"
    return _witness_doc(w)


def _cmd_invariants(args, inputs):
    lie = _load_lie(args, inputs)
    which = args.which
    if which == "rb":
        conn = _load_connection(args, lie, inputs)
        sols = gauge.solve_fe_star(conn)
        return {"r_b": sols.r_b, "defect": lie.dim - sols.r_b,
                "dim_solution": sols.space.dim}
    if which in ("sb", "sb+"):
        g = _load_metric(args, lie.dim, inputs)
        value, verdict = invariants.s_b(
            lie, g, positive=(which == "sb+"))
        doc = _verdict_doc(verdict)
        doc["s_b"] = value
        return doc
    if which == "s*b":
        conn = _load_connection(args, lie, inputs)
        g = _load_metric(args, lie.dim, inputs)
        value, verdict = invariants.s_star_b(conn, g)
        doc = _verdict_doc(verdict)
        doc["s_star_b"] = value
        return doc
    if which == "hessian":
        conn = _load_connection(args, lie, inputs)
        value, verdict = invariants.hessian_defect(conn)
        doc = _verdict_doc(verdict)
        doc["defect"] = value
        return doc
    if which == "flat":
        conn = _load_connection(args, lie, inputs, required=False)
        verdict = invariants.flat_existence(
            lie, () if conn is None else (conn,))
        return _verdict_doc(verdict)
    if which == "bimetric":
        verdict = invariants.bi_invariant_metric(lie)
        doc = _verdict_doc(verdict)
        doc["witness"] = _bimetric_witness(lie, verdict)
        return doc
    verdict = invariants.left_symplectic_oracle(lie)
    return _verdict_doc(verdict)


def _cmd_kv_cohomology(args, inputs):
    # an absent --max-degree takes the complex's own cap
    degree = ({} if args.max_degree is None
              else {"max_degree": args.max_degree})
    if args.complex == "ce":
        lie = _load_lie(args, inputs)
        report = cohomology.ce_cohomology_dims(lie, args.coeffs, **degree)
    elif args.complex == "hochschild":
        if args.coeffs != cohomology.ADJOINT:
            raise ValidationError("hochschild coefficients must be adjoint")
        p = _load_product(args, inputs)
        report = cohomology.hochschild_dims(p, **degree)
    else:
        p = _load_product(args, inputs)
        if getattr(args, "algebra", None):
            declared = kio.load_algebra(
                args.algebra, inputs.add_file("algebra", args.algebra))
            derived = algebra_mod.commutator_bracket(p)
            if declared != derived:
                raise ValidationError(
                    "the supplied algebra is not the commutator of the "
                    "supplied product")
        report = cohomology.kv_cohomology_dims(p, args.coeffs, **degree)
    return {
        "complex": report.complex,
        "coefficients": report.coefficients,
        "dim": report.algebra_dim,
        "betti": list(report.betti()),
        "degrees": [kio.jsonable(d) for d in report.degrees],
        "notes": report.notes,
    }


def _cmd_spencer(args, inputs):
    a = kio.load_symbol(args.symbol, inputs.add_file("symbol", args.symbol))
    inputs.add_dump("symbol", kio.dump_symbol, a)
    if args.op == "prolong":
        up = spencer.prolong(a)
        return {"order": up.order, "dim": up.dim,
                "basis": kio.jsonable(up.basis)}
    if args.op == "cartan":
        p1, total, ok = spencer.cartan_test(a)
        return {"prolongation_dim": p1, "flag_sum": total,
                "quasi_regular": ok}
    if args.op == "cohomology":
        rep = spencer.spencer_cohomology(a)
        return {"h": [list(r) for r in rep.h_dims],
                "c": [list(r) for r in rep.c_dims],
                "prolong_dims": list(rep.prolong_dims),
                "d_squared_zero": rep.d_squared_zero}
    verdict = spencer.is_involutive(a, trials=args.trials, seed=args.seed)
    return {
        "verdict": verdict.verdict,
        "basis": kio.jsonable(verdict.basis),
        "cohomology_witness": verdict.cohomology_witness,
        "h": [list(r) for r in verdict.report.h_dims],
    }


def _cmd_flat_models(args, inputs):
    if args.fm_op == "tower":
        report = flatmodels.tower_dims(args.m, args.steps)
        return {"dims": list(report.dims),
                "levels_materialized": [lvl is not None
                                        for lvl in report.levels]}
    p = _load_product(args, inputs)
    if args.fm_op == "completeness":
        rep = flatmodels.geometric_completeness(p)
        return {"verdict": rep.verdict,
                "witness": kio.jsonable(rep.witness),
                "method": rep.method, "note": rep.note}
    doc = kio.read_document(args.ideal, inputs.add_file("ideal", args.ideal))
    dim = kio._int_field(doc, "dim", args.ideal)
    if dim != p.dim:
        raise ValidationError(
            f"ideal dim {dim} does not match product dim {p.dim}")
    basis = kio.basis_rows(doc, dim, args.ideal)
    inputs.add_dump("ideal", lambda rows: {
        "dim": dim, "basis": kio.jsonable(rows)}, basis)
    rep = flatmodels.simple_right_ideal_check(p, basis)
    return {"right_ideal": True, "simple": rep.simple,
            "ideal_dim": rep.ideal_dim, "core_dim": rep.core_dim,
            "core_basis": kio.jsonable(rep.core_basis)}


def _cmd_statmodel(args, inputs):
    # a non-finite alpha prints NaN or Infinity, which is not JSON, and an
    # infinite tol calls every model flat
    if not math.isfinite(args.alpha):
        raise ValidationError(f"--alpha must be finite, got {args.alpha}")
    if args.tol is not None and not (math.isfinite(args.tol)
                                     and args.tol >= 0):
        raise ValidationError(
            f"--tol must be finite and >= 0, got {args.tol}")
    from koszul import statmodel

    inputs.add_value("family", args.family)
    model = statmodel.get_family(args.family)
    if args.theta is None:
        theta = statmodel.default_theta(model)
    else:
        try:
            theta = [float(x) for x in args.theta.split(",")]
        except ValueError as exc:
            raise ValidationError(f"bad --theta value: {exc}") from exc
    inputs.add_value("theta", theta)
    if args.op == "fisher":
        g = statmodel.fisher_information(model, theta)
        return {"family": model.name, "theta": theta, "fisher": g}
    if args.op == "alpha":
        low = statmodel.alpha_christoffels(model, theta, args.alpha)
        _check_overflow(args.alpha, [x for plane in low for row in plane
                                     for x in row])
        return {"family": model.name, "alpha": args.alpha,
                "lowered": low}
    if args.op == "curvature":
        tensor, mx = statmodel.alpha_curvature(model, theta, args.alpha)
        _check_overflow(args.alpha, [mx])
        return {"family": model.name, "alpha": args.alpha,
                "max_abs": mx, "tensor": tensor}
    grid = model.probe_grid(theta)
    tol = statmodel.PROBE_TOL if args.tol is None else args.tol
    rep = statmodel.exponential_defect_probe(model, grid, tol=tol)
    return kio.jsonable(rep)


def _check_overflow(alpha, values):
    """Refuse a finite alpha so large that the floats it scales overflow."""
    if not all(map(math.isfinite, values)):
        raise ValidationError(
            f"--alpha {alpha} is too large: the result overflows")


# ------------------------------------------------------------- dispatcher


def _common_flags(nested: bool) -> argparse.ArgumentParser:
    """The flags every command takes.

    argparse copies every attribute a nested command's parser sets over
    those of the enclosing one, so for a nested command (the operations of
    flat-models) the defaults are suppressed: a flag given before the
    operation's name is kept, and one given after it wins.
    """
    def default(value):
        return argparse.SUPPRESS if nested else value

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int,
                        default=default(spencer.DEFAULT_SEED),
                        help="RNG seed, read by spencer --op involutive "
                             "only; every report prints it (default: "
                             f"{spencer.DEFAULT_SEED})")
    common.add_argument("--format", choices=("json", "text"),
                        default=default("json"))
    common.add_argument("--dump", action="store_true", default=default(False),
                        help="echo parsed inputs back as JSON documents")
    common.add_argument("--timing", action="store_true",
                        default=default(False),
                        help="attach the handler's wall-clock time to the "
                             "report as timing_ms (argument parsing and "
                             "JSON encoding are not included)")
    return common


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process.

    Sharing it is safe: `parse_args` returns a fresh Namespace and leaves
    the parser unchanged, no default is mutable, and handlers reach the
    library through module attributes, so a patched library function is
    still the one called.
    """
    common, nested = _common_flags(False), _common_flags(True)

    src = argparse.ArgumentParser(add_help=False)
    src.add_argument("--algebra", help="algebra JSON file")
    src.add_argument("--catalog", help="named catalog entry")

    conn_flags = argparse.ArgumentParser(add_help=False)
    conn_flags.add_argument("--connection", help="connection JSON file")
    conn_flags.add_argument("--cartan", choices=("minus", "zero", "plus"),
                            help="use a canonical connection of the algebra")
    conn_flags.add_argument("--metric", help="metric form JSON file")

    parser = argparse.ArgumentParser(
        prog="koszul", allow_abbrev=False,
        description="gauge-theoretic invariants of invariant Koszul "
                    "connections on finite-dimensional algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    # an option is named in full: argparse would take any unique prefix
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("check-lie", parents=[common, src],
                help="validate a Lie algebra file")
    p.set_defaults(handler=_cmd_check_lie)

    p = command("algebra", parents=[common, src],
                help="killing form, commutator bracket, defects")
    p.add_argument("--product", help="product JSON file")
    p.add_argument("--op", required=True,
                   choices=("killing", "commutator", "anomaly", "associator"))
    p.set_defaults(handler=_cmd_algebra)

    p = command("connection", parents=[common, src, conn_flags],
                help="torsion, curvature, flatness, duals")
    p.add_argument("--op", required=True,
                   choices=("torsion", "curvature", "flat", "dual", "alpha"))
    p.add_argument("--alpha", default="0", help="rational alpha, e.g. 1/2")
    p.set_defaults(handler=_cmd_connection)

    p = command("gauge", parents=[common, src, conn_flags],
                help="solution spaces of the fundamental equations")
    p.add_argument("--op", required=True,
                   choices=("fe", "festar", "parallel", "subalgebra"))
    p.add_argument("--dual", help="explicit dual connection JSON file")
    p.add_argument("--sym", choices=("symmetric", "skew"),
                   default="symmetric", help="parity for parallel forms")
    p.set_defaults(handler=_cmd_gauge)

    p = command("invariants", parents=[common, src, conn_flags],
                help="numerical invariants and existence verdicts")
    p.add_argument("--which", required=True,
                   choices=("rb", "sb", "sb+", "s*b", "hessian", "flat",
                            "bimetric", "symplectic"))
    p.set_defaults(handler=_cmd_invariants)

    p = command("kv-cohomology", parents=[common, src],
                help="cohomology dimensions")
    p.add_argument("--product", help="product JSON file")
    p.add_argument("--coeffs", default="adjoint",
                   choices=("adjoint", "scalar", "trivial"))
    p.add_argument("--max-degree", type=int,
                   help="highest degree (default: 3, or 2 for hochschild)")
    p.add_argument("--complex", default="kv",
                   choices=("kv", "ce", "hochschild"))
    p.set_defaults(handler=_cmd_kv_cohomology)

    p = command("spencer", parents=[common],
                help="symbol prolongation and involutivity")
    p.add_argument("--symbol", required=True, help="symbol JSON file")
    p.add_argument("--op", required=True,
                   choices=("prolong", "cartan", "cohomology", "involutive"))
    p.add_argument("--trials", type=int, default=spencer.DEFAULT_TRIALS,
                   help="candidate bases of the quasi-regular basis search, "
                        "read by --op involutive; must be >= 1 "
                        "(default: %(default)s)")
    p.set_defaults(handler=_cmd_spencer)

    p = command("flat-models", parents=[common],
                help="affine tower, completeness, right ideals")
    fm = p.add_subparsers(dest="fm_op", required=True)
    operation = functools.partial(fm.add_parser, allow_abbrev=False)
    t = operation("tower", parents=[nested])
    t.add_argument("--m", type=int, required=True)
    t.add_argument("--steps", type=int, required=True)
    c = operation("completeness", parents=[nested])
    c.add_argument("--product", help="product JSON file")
    c.add_argument("--catalog", help="named catalog product")
    i = operation("ideal", parents=[nested])
    i.add_argument("--product", help="product JSON file")
    i.add_argument("--catalog", help="named catalog product")
    i.add_argument("--ideal", required=True,
                   help="subspace JSON file {dim, basis}")
    p.set_defaults(handler=_cmd_flat_models)
    t.set_defaults(handler=_cmd_flat_models)
    c.set_defaults(handler=_cmd_flat_models)
    i.set_defaults(handler=_cmd_flat_models)

    p = command("statmodel", parents=[common],
                help="information geometry of finite models")
    p.add_argument("--family", required=True,
                   help="bernoulli, categorical:N, categorical-natural:N, "
                        "curved4, constant")
    p.add_argument("--op", required=True,
                   choices=("fisher", "alpha", "curvature", "defect"))
    p.add_argument("--theta", help="comma-separated parameter values")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(handler=_cmd_statmodel)

    return parser


def _render_text(value, indent: str = "") -> list[str]:
    lines = []
    if isinstance(value, dict):
        for key in value:
            v = value[key]
            if isinstance(v, (dict, list)) and v and not _is_flat_list(v):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_text(v, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {_inline(v)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item and \
                    not _is_flat_list(item):
                lines.append(f"{indent}-")
                lines.extend(_render_text(item, indent + "  "))
            else:
                lines.append(f"{indent}- {_inline(item)}")
    else:
        lines.append(f"{indent}{_inline(value)}")
    return lines


def _is_flat_list(v) -> bool:
    return isinstance(v, list) and all(
        not isinstance(x, (dict, list)) for x in v)


def _inline(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_inline(x) for x in v) + "]"
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def run(argv) -> dict:
    """Parse argv, dispatch, and return the report object.

    Prints nothing, except on an argv that argparse refuses: argparse then
    prints the usage and the error to stderr and raises SystemExit(2). A
    library error propagates as its `KoszulError`.
    """
    return _report(argv, _build_parser().parse_args(argv))


def _report(argv, args) -> dict:
    inputs = _Inputs(args.dump)
    start = time.monotonic()
    payload = args.handler(args, inputs)
    elapsed_ms = (time.monotonic() - start) * 1000.0
    report = {
        "schema": SCHEMA,
        "command": list(argv),
        "seed": args.seed,
        "inputs": {"sha256": inputs.digest()},
        "result": payload,
    }
    if args.dump:
        report["dump"] = inputs.dump
    if args.timing:
        report["timing_ms"] = elapsed_ms
    return report


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    try:
        report = _report(argv, args)
    except ConformanceMismatch as exc:
        _emit_error(argv, exc)
        return 3
    except KoszulError as exc:
        _emit_error(argv, exc)
        return 2
    if args.format == "text":
        print("\n".join(_render_text(report["result"])))
    else:
        print(_dumps(report))
    return 0


def _emit_error(argv, exc: KoszulError):
    doc = {
        "schema": SCHEMA,
        "command": list(argv),
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    print(_dumps(doc))


# The report writer: the bytes json.dumps writes with sorted keys and an
# indent of 2, at about half the cost. With an indent, json runs its
# pure-Python encoder (on Python 3.11 its C encoder serves only an indent
# of None); this writer formats strings with json's own C escaper, ints and
# floats with their reprs, and NaN and +-Infinity as json writes them.

def _dumps(doc) -> str:
    """doc as json.dumps writes it with sorted keys and an indent of 2.

    Every key must be a string, as every report's is; another key raises
    TypeError."""
    return _json_text(doc, "\n")


def _json_text(obj, newline: str) -> str:
    """obj at the nesting level whose lines start with `newline`."""
    write = _SCALARS.get(type(obj))
    if write is not None:
        return write(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        try:  # most lists hold scalars of exact types only
            items = [_SCALARS[type(x)](x) for x in obj]
        except KeyError:
            items = [_json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + _json_text(v, inner)
            for k, v in sorted(obj.items())]) + newline + "}"
    return _json_scalar(obj)


def _json_scalar(obj) -> str:
    """A scalar of any type json writes, subclasses included, in json's
    order of tests."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (math.inf, -math.inf):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    f"serializable")


# the exact scalar types, looked up before any isinstance test
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            float: _json_scalar, bool: _json_scalar, type(None): _json_scalar}


if __name__ == "__main__":
    sys.exit(main())
