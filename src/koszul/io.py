"""JSON interchange for algebras, products, connections, forms, symbols.

Rationals travel as strings ("3", "-1/2") because JSON numbers are lossy.
Each input file is read once, as UTF-8 text (`read_text`): the command
line hashes that text for the report's digest and hands the same text to
the loader, and a file that cannot be read, is not UTF-8, is not JSON,
holds a number past int()'s digit limit or is nested too deeply for the
parser is refused with a `ValidationError` naming it. One reader takes the [index..., value] entries of brackets,
products and forms (`_sparse_entries`): it checks each entry's shape and
indices once and each value against one pattern, and gives the value as
the int() of its parts, numerator and denominator, with no `Fraction`
(`parse_fraction` builds the `Fraction` from the same parts, which gives
what Fraction(str) gives, digit limit included). Tables are built from
those integers by `SparseTable.from_parts`, which completes a bracket's
skew half and refuses contradictory entries (two entries for one index
must be equal rationals). Sparse tables list only nonzero entries. Every
dumper/loader pair round-trips to exact equality.

Documents:
    algebra     {"dim": m, "bracket": [[i, j, k, "p/q"], ...]}
    product     {"dim": m, "gamma":   [[i, j, k, "p/q"], ...]}
    connection  same as product, interpreted over a base algebra
    form        {"dim": m, "sym": "symmetric"|"skew"|"general",
                 "entries": [[i, j, "p/q"], ...]}
    symbol      {"v": m, "w": w, "basis": [[row-major rationals], ...]}

A loader reads the file at its path, or parses `text` when it is given (the
text the command line has already read and hashed).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from koszul.algebra import BilinearProduct, LieAlgebra, SparseTable
from koszul.connections import InvariantConnection
from koszul.errors import ValidationError
from koszul.forms import BilinearForm, form_from_sparse
from koszul.spencer import SymbolSpace, symbol_space

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")


def _rational(value) -> tuple[int, int]:
    """(numerator, denominator > 0) of an exact rational: an int, or a
    string matching "p" or "p/q"; not necessarily in lowest terms."""
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ValidationError(
                f"bad rational literal {value!r}; use \"p\" or \"p/q\"")
        num, _, den = value.partition("/")
        try:
            # int() of the matched parts, which Fraction(str) also calls
            # after a regex of its own; a part past int's digit limit
            # raises ValueError here as there
            n, d = int(num), int(den) if den else 1
        except ValueError as exc:
            raise ValidationError(f"bad rational literal {value!r}") from exc
        if not d:
            raise ValidationError(f"bad rational literal {value!r}")
        return n, d
    if isinstance(value, bool):
        raise ValidationError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise ValidationError(
            f"floats are not accepted as rationals: {value!r}; "
            "use a string like \"1/3\"")
    raise ValidationError(f"expected a rational, got {value!r}")


def parse_fraction(value) -> Fraction:
    return Fraction(*_rational(value))


def fraction_str(f: Fraction) -> str:
    return str(f)


def read_text(path) -> str:
    """The text of an input file, decoded as UTF-8, JSON's encoding."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"cannot read {path}: not UTF-8 text ({exc})") from exc


def read_document(path, text: str | None = None) -> dict:
    if text is None:
        text = read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # a number past int()'s digit limit
        raise ValidationError(
            f"{path} cannot be read as JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(
            f"{path} is nested too deeply to be read as JSON") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top-level JSON must be an object")
    return doc


def _require(doc: dict, key: str, path):
    if key not in doc:
        raise ValidationError(f"{path}: missing key {key!r}")
    return doc[key]


def _int_field(doc: dict, key: str, path) -> int:
    v = _require(doc, key, path)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValidationError(f"{path}: {key!r} must be a non-negative "
                              f"integer, got {v!r}")
    return v


def _sparse_entries(doc: dict, key: str, arity: int, dim: int, path,
                    what: str = "") -> list[tuple]:
    """The document's `key` list of [index..., value] entries, `arity`
    indices each below dim, as (index..., numerator, denominator) tuples;
    the shape message names an entry by `what`, else by the key."""
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise ValidationError(f"{path}: {key!r} must be a list")
    shape = ", ".join(("i", "j", "k")[:arity])
    out = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != arity + 1:
            raise ValidationError(
                f"{path}: each {what or key} entry must be "
                f"[{shape}, value], got {entry!r}")
        idx = entry[:arity]
        for i in idx:
            if type(i) is not int or not 0 <= i < dim:
                raise ValidationError(
                    f"{path}: index {i!r} out of range for dim {dim}")
        out.append((*idx, *_rational(entry[arity])))
    return out


def load_algebra(path, text: str | None = None) -> LieAlgebra:
    doc = read_document(path, text)
    dim = _int_field(doc, "dim", path)
    return LieAlgebra(dim, SparseTable.from_parts(
        _sparse_entries(doc, "bracket", 3, dim, path), skew=True))


def dump_algebra(algebra: LieAlgebra) -> dict:
    entries = [[i, j, k, fraction_str(v)]
               for i, j, k, v in algebra.sparse.items() if i < j]
    return {"dim": algebra.dim, "bracket": entries}


def load_product(path, text: str | None = None) -> BilinearProduct:
    """The product of a file; two entries for one index must agree."""
    doc = read_document(path, text)
    dim = _int_field(doc, "dim", path)
    return BilinearProduct(dim, SparseTable.from_parts(
        _sparse_entries(doc, "gamma", 3, dim, path), where=f"{path}: "))


def dump_product(p: BilinearProduct) -> dict:
    entries = [[i, j, k, fraction_str(v)] for i, j, k, v in p.sparse.items()]
    return {"dim": p.dim, "gamma": entries}


def load_connection(path, base: LieAlgebra,
                    text: str | None = None) -> InvariantConnection:
    p = load_product(path, text)
    if p.dim != base.dim:
        raise ValidationError(
            f"{path}: connection dim {p.dim} does not match the base "
            f"algebra dim {base.dim}")
    return InvariantConnection(base, p)


def dump_connection(conn: InvariantConnection) -> dict:
    return dump_product(conn.gamma)


def load_form(path, text: str | None = None) -> BilinearForm:
    doc = read_document(path, text)
    dim = _int_field(doc, "dim", path)
    sym = doc.get("sym", "general")
    if sym not in ("symmetric", "skew", "general"):
        raise ValidationError(f"{path}: bad symmetry tag {sym!r}")
    return form_from_sparse(dim, sym, (
        (i, j, Fraction(n, d))
        for i, j, n, d in _sparse_entries(doc, "entries", 2, dim, path,
                                          "form")))


def dump_form(form: BilinearForm) -> dict:
    entries = []
    for i in range(form.dim):
        for j in range(form.dim):
            if form.sym == "symmetric" and j < i:
                continue
            if form.sym == "skew" and j <= i:
                continue
            v = form.entries[i][j]
            if v:
                entries.append([i, j, fraction_str(v)])
    return {"dim": form.dim, "sym": form.sym, "entries": entries}


def basis_rows(doc: dict, ncols: int, path,
               layout: str = "") -> list[list[Fraction]]:
    """The document's 'basis': a list of rows of `ncols` rationals each."""
    raw = doc.get("basis", [])
    if not isinstance(raw, list):
        raise ValidationError(f"{path}: 'basis' must be a list")
    rows = []
    for row in raw:
        if not isinstance(row, list) or len(row) != ncols:
            raise ValidationError(
                f"{path}: each basis row must list {ncols} rationals{layout}")
        rows.append([parse_fraction(x) for x in row])
    return rows


def load_symbol(path, text: str | None = None) -> SymbolSpace:
    doc = read_document(path, text)
    v = _int_field(doc, "v", path)
    w = _int_field(doc, "w", path)
    return symbol_space(
        v, w, basis_rows(doc, v * w, path, " (row-major w x v)"))


def dump_symbol(a: SymbolSpace) -> dict:
    if a.order != 1:
        raise ValidationError("only order-1 symbols have a file form")
    return {"v": a.v_dim, "w": a.w_dim,
            "basis": [[fraction_str(x) for x in b] for b in a.basis]}


def dump_space(space, r_b: int | None = None) -> dict:
    """Solution-space report: {"dim_solution", "basis", optional "r_b"}."""
    doc = {
        "dim_solution": space.dim,
        "basis": [[fraction_str(x) for x in b] for b in space.basis],
    }
    if space.shape is not None:
        doc["shape"] = list(space.shape)
    if r_b is not None:
        doc["r_b"] = r_b
    return doc


def jsonable(obj):
    """Recursively convert report payloads to JSON-encodable values."""
    from dataclasses import fields, is_dataclass

    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    try:
        import numpy as np
        if isinstance(obj, np.ndarray):
            return [jsonable(x) for x in obj.tolist()]
        if isinstance(obj, (np.floating, np.integer)):
            return float(obj)
    except ImportError:
        pass
    return str(obj)
