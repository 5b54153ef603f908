"""Named example structures shared by the CLI and the test suite.

Entries are addressed as "name" or "name:arg" (e.g. abelian:3, matrix:2).
Every builder returns a validated object: Lie algebras check antisymmetry
and Jacobi on construction, KV entries assert their anomaly vanishes, and
connections/forms are checked for the structural properties stated in
their notes.
"""

from __future__ import annotations

from koszul import flatmodels
from koszul.algebra import (
    BilinearProduct,
    LieAlgebra,
    abelian,
    commutator_bracket,
    killing_form,
    lie_from_sparse,
    product_from_sparse,
    zero_product,
)
from koszul.connections import (
    InvariantConnection,
    cartan_connection,
    connection_from_product,
    is_torsion_free,
)
from koszul.errors import ValidationError
from koszul.forms import BilinearForm, form_from_sparse, identity_form


def heisenberg() -> LieAlgebra:
    return lie_from_sparse(3, [(0, 1, 2, 1)])


def so3() -> LieAlgebra:
    return lie_from_sparse(3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)])


def sl2() -> LieAlgebra:
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return lie_from_sparse(3, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)])


def aff1() -> LieAlgebra:
    return lie_from_sparse(2, [(0, 1, 1, 1)])


def heisenberg_kv() -> BilinearProduct:
    """x*y = z on the Heisenberg algebra; flat torsion-free model."""
    p = product_from_sparse(3, [(0, 1, 2, 1)])
    if not p.is_kv:
        raise ValidationError("heisenberg product failed the KV check")
    return p


def aff1_symplectic_connection() -> InvariantConnection:
    """Torsion-free connection on aff(1) making [[0,1],[-1,0]] parallel."""
    # e_0*e_0 = e_1, e_1*e_0 = -e_1, everything else 0
    conn = InvariantConnection(
        aff1(), product_from_sparse(2, [(0, 0, 1, 1), (1, 0, 1, -1)]))
    if not is_torsion_free(conn):
        raise ValidationError("aff1 symplectic connection must be "
                              "torsion-free")
    return conn


def aff1_omega() -> BilinearForm:
    return form_from_sparse(2, "skew", [(0, 1, 1)])


def so3_killing() -> BilinearForm:
    return killing_form(so3())


_LIE = {
    "abelian": (True, lambda a: abelian(int(a))),
    "heisenberg": (False, lambda a: heisenberg()),
    "so3": (False, lambda a: so3()),
    "sl2": (False, lambda a: sl2()),
    "aff1": (False, lambda a: aff1()),
    "affine": (True, lambda a: commutator_bracket(
        flatmodels.affine_algebra(int(a)).product)),
}

_PRODUCT = {
    "zero": (True, lambda a: zero_product(int(a))),
    "heisenberg-kv": (False, lambda a: heisenberg_kv()),
    "affine": (True, lambda a: flatmodels.affine_algebra(int(a)).product),
    "matrix": (True, lambda a: flatmodels.matrix_algebra(int(a))),
}

_CONNECTION = {
    "aff1-symplectic": (False, lambda a: aff1_symplectic_connection()),
    "heisenberg-kv": (False, lambda a: connection_from_product(
        heisenberg(), heisenberg_kv())),
    "abelian-zero": (True, lambda a: cartan_connection(
        abelian(int(a)), "minus")),
    "so3-zero": (False, lambda a: cartan_connection(so3(), "zero")),
    "so3-plus": (False, lambda a: cartan_connection(so3(), "plus")),
}

_FORM = {
    "identity": (True, lambda a: identity_form(int(a))),
    "so3-killing": (False, lambda a: so3_killing()),
    "aff1-omega": (False, lambda a: aff1_omega()),
}

_KINDS = {
    "lie": _LIE,
    "product": _PRODUCT,
    "connection": _CONNECTION,
    "form": _FORM,
}


def _parse(name: str) -> tuple[str, str]:
    name = name.strip()
    if "(" in name and name.endswith(")"):
        head, _, rest = name.partition("(")
        return head, rest[:-1]
    head, _, arg = name.partition(":")
    return head, arg


def resolve(kind: str, name: str):
    """Build the named catalog entry; kind is lie/product/connection/form."""
    table = _KINDS.get(kind)
    if table is None:
        raise ValidationError(f"unknown catalog kind {kind!r}")
    head, arg = _parse(name)
    if head not in table:
        known = ", ".join(sorted(table))
        raise ValidationError(
            f"unknown {kind} catalog entry {name!r}; known: {known}")
    needs_arg, builder = table[head]
    if needs_arg and not arg:
        raise ValidationError(f"catalog entry {head!r} needs an argument, "
                              f"e.g. {head}:3")
    if not needs_arg and arg:
        raise ValidationError(f"catalog entry {head!r} takes no argument")
    try:
        return builder(arg)
    except ValueError as exc:
        raise ValidationError(f"bad catalog argument {arg!r}: {exc}") from exc
