"""Independent reference implementations used to cross-check the library.

Everything here is written naively and separately from the library's
tensor and elimination code: plain Gaussian elimination over Fraction,
the library's former dense `Fraction` kernel basis of an integer reduced
form (`dense_kernel_basis`),
direct index-chasing tensor formulas, the library's former dense tensor
routines (built on its former vector helpers `vec_add`, `vec_sub` and
`vec_scale` and on `BilinearProduct.mult` only), its
former dense Bareiss kernel, its former coboundary-matrix constructions
(one coboundary application per basis cochain, and the dense
Chevalley-Eilenberg loop), its former coboundaries of one cochain over the
dense table (`dense_kv_coboundary`, `dense_hochschild_coboundary`) and its
former expansion of the Maurer-Cartan defect (`dense_maurer_cartan_defect`),
its former sums of the two alternating contractions over every index
(`nested_jacobi_defect`, `two_sided_operator_defect`),
its former right-ideal core loop (`dense_right_ideal_core`), its former
completeness rungs, the flag-chain nilpotency test and the seeded
determinant sampling (`jointly_nilpotent`, `sampling_completeness`), its former
sympy root analysis for dimension <= 2 (`root_analysis_completeness`), its former
dense FE* solver, its former cohomology dimensions (exact rank of every
dense coboundary matrix, `dense_dims_from_deltas`), plain Gauss-Jordan
elimination modulo a prime (`dense_rref_mod`, `dense_rank_mod`), its
former pass over rows modulo P, which cleared each new pivot from every
kept row
(`full_scan_independent_rows_mod_p`), its later pass, which reduced every
row with no functional to skip the dependent ones
(`reducing_independent_rows_mod_p`), its former span check and lift of
that pass's basis, the sums of multiples of the reduced rows summed into a
dict by column (`dict_spans`) and every entry reconstructed on its own
(`per_entry_lift`), its former lower bounds for the
coboundary ranks, each read over all of its columns
(`full_width_lower_bounds`), its former certification of those ranks, a
fixpoint loop over a classifier of the squares each bound needs
(`fixpoint_certified_ranks`), its former reduced
row-echelon form over every row (`full_rref`), its former seeded rank
search, walking its whole pool (`full_pool_max_rank`), its former generic
rank over the rational function field by sympy (`symbolic_generic_rank`),
its former flat-existence search, with random torsion-free probes
(`_random_torsion_free_table`), an FE* solve per probe and sympy's
`solve` for dim <= 2 (`eager_flat_existence`,
`sympy_flat_existence_small`, whose unit-ideal test also holds the
library's former Groebner route for dim <= 2), its former s^b and s^{*b}
on the span of the `phi_split` parts with the witness form G times the
walked element (`phi_split_parts_space`, `phi_split_s_b`,
`phi_split_s_star_b`) and their dense recheck of a parallel form
(`dense_is_parallel`), its later s^b and
s^{*b} space, the halves of G phi for the FE(nabla, nabla*) solutions phi
(`phi_parts_space`, on `space_from_matrices`), its former bi-invariant
metric route, a rank walk on every algebra
(`rank_walk_bi_invariant_metric`), its former
Cartan test, with a prolongation per call and nullspace flag dimensions
over `Fraction` rows (`nullspace_cartan_test`,
`nullspace_quasi_regular_basis`), its former basis search, every
candidate drawn whatever Cartan's lower bound says
(`unbounded_quasi_regular_basis`), its former flag dimensions, one integer
rank of the growing stack of flag rows per step (`stacked_rank_aj_dims`),
its former Spencer window over dense `Fraction` cochain vectors
(`dense_spencer_cohomology`), its former Spencer coboundary, each image
column found by sorting index tuples (`sorting_spencer_d`), its former
Sylvester definiteness test
(`sylvester_positive_definite`) and a signature read from the
characteristic polynomial (`charpoly_signature`),
its former condition rows over the dense tables (`dense_hessian_rows`,
`dense_parallel_rows`, ...), its former parallel-form rows with no parity
and scalar KV delta_2 rows, every (i, j, k) listed (`full_parallel_rows`,
`full_hessian_rows`), its former sparse Hessian and cyclic-sum
symplectic rows, written beside the coboundaries of `cohomology`
(`hessian_rows`, `skew_cocycle_rows`), the symplectic verdict over them
(`cyclic_sum_symplectic_oracle`) and its former perfectness test, one rank
of the basis brackets (`bracket_rank_perfect`), its former solve of a form space over all
m x m entries, the parity imposed as extra rows (`parity_rows`,
`parity_row_form_space`), and its former dense `Fraction` condition rows
with the dense witness check they fed (`operator_matrix`,
`dense_gauge_equation_rows`, ..., `dense_prolong`, `check_rows`), its
former information-geometry routes by finite differences
(`fd_fisher_information`, ..., `fd_exponential_defect_probe`, over
`finite_difference_jets`), which read the library's families at each
stencil point as jets of order 0 (`point_log_probs`), public helpers the library
no longer needs (`cochain_value`, `left_matrix`, `is_zero_matrix`), its
former KV and Hochschild coboundary matrices, assembled from its
generators (`kv_coboundary_matrix`, `hochschild_coboundary_matrix`), the
Levi-Civita symbols by differences of its Fisher metrics
(`levi_civita_symbols`), its former parse of
every CLI call by a parser built anew (`fresh_parse`), its former tensor
path over `Fraction` objects: values parsed by Fraction(str)
(`fraction_parse`), contraction sums read as Fractions
(`fractions_over`), defect tensors with one Fraction per entry
(`FractionDefectTensor`, `fraction_defect_doc`) and reports written by
`json.dumps` (`json_report`), its former file path of a table over one
`Fraction` per entry (`fraction_entries`, `fraction_lie_table`,
`fraction_table`, `fraction_load_table`) and its former build of defect
tensors by index tuple, mirrored by `skew_pairs` and sorted as tuples
(`tuple_jacobi_defect`, ..., `tuple_curvature`), its former solve-ladder hot paths over
`Fraction` and `dict`: the dual connection by two dense `Fraction`
products per basis vector (`dense_form_dual`), the Chevalley-Eilenberg
contributions placed by sorting (`sort_alternating`,
`sorting_ce_entries`), the delta² check summed into a dict
(`dict_check_square`), the FE* closure rows from `Fraction`
annihilators (`fraction_closure_rows`), its former `condition_rows` over
rational contributions (`fraction_condition_rows`), its former largest
invariant walk, a basis in and a kernel and its annihilators solved at
every step (`basis_largest_invariant`), its former dense
structure-constant tables (`table3`, `zero_table3`, `sparse_of`) with the
dense builders and readers that used them (`dense_*_algebra`,
`dense_conjugate_product`, `dense_mult`, ...), its former form verdicts,
each route with its own walk, witness, re-check and ending
(`per_route_hessian_defect`, `per_route_s_b`, `per_route_s_star_b`,
`per_route_bi_invariant_metric`, `per_route_left_symplectic_oracle`), its
former KV and Chevalley-Eilenberg generators, one formula per module behind
an `adjoint` flag (`flag_kv_entries`, `flag_kv_degree_zero_entries`,
`flag_kv_delta`, `flag_ce_entries`), and its former Hochschild generator,
each column the flat index of a spliced tuple
(`splicing_hochschild_entries`), the Lie algebra cohomology H^1(g_A,
Hom(A, M)) that KV H^2 equals, on dense matrices (`lie_h1_of_hom`), and
closed forms from textbooks. Slower is fine; agreeing by construction is the point.
"""

import json
import random
from bisect import bisect_left
import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product as iproduct
from math import comb, exp, gcd, lcm
from typing import NamedTuple

import numpy as np
import sympy

from koszul import cli, cohomology, linalg, spaces, spencer
from koszul._kernel import P, _rational, echelon
from koszul.algebra import (BilinearProduct, DefectTensor, LieAlgebra,
                            SparseTable, _left_traces, kv_anomaly,
                            operator_defect, zero_product)
from koszul.cohomology import (ADJOINT, SCALAR, CohomologyReport, Cochain,
                               DegreeDims, _assemble, _check_associative,
                               _check_kv, _flat_index, _hochschild_delta,
                               _kv_delta, ce_coboundary_matrix,
                               kv_degree_zero_space, zero_cochain)
from koszul.connections import (InvariantConnection, amari_dual,
                                cartan_connection, is_locally_flat,
                                is_torsion_free, torsion)
from koszul.errors import (ConformanceMismatch, DomainViolation,
                           JacobiViolation, KoszulError, NonNormalized, NotKV, NotTorsionFree,
                           SingularFisher, SingularMetric, TorsionMismatch,
                           ValidationError)
from koszul.flatmodels import CompletenessReport, _det_poly, _psi_det
from koszul.forms import SKEW, SYMMETRIC, BilinearForm, form_space
from koszul.gauge import (FeStarSolutions, parallel_forms, phi_split,
                          solve_gauge_equation)
from koszul.invariants import (ExistenceVerdict, RankWitness,
                               _no_or_unknown, hessian_cocycle_space,
                               max_rank, r_b_defect)
from koszul.linalg import Mat, Vec, frac
from koszul.spaces import LinearSolutionSpace, condition_rows
from koszul.spencer import (DEFAULT_SEED, DEFAULT_TRIALS, SpencerReport,
                            SymbolSpace, _mono_pos, monomials, prolong,
                            symbol_coord_dim)
from koszul.statmodel import NORM_TOL, PROBE_TOL, FiniteStatModel, ProbeReport
from koszul.statmodel import _coordinates as statmodel_coordinates
from koszul.statmodel import fisher_information


def F(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def vec_add(u, v) -> Vec:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u, v) -> Vec:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, v) -> Vec:
    c = frac(c)
    return tuple(c * x for x in v)


# ---------------------------------------------------------------- linear algebra

def dense_kernel_basis(reduced, ncols: int) -> tuple[Vec, ...]:
    """The library's former `linalg._kernel_basis`: the canonical kernel
    basis of an integer reduced echelon form as dense `Fraction` vectors,
    one free variable set to 1 in each."""
    red, pivots, _ = reduced
    zero, basis = Fraction(0), []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        v = [zero] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            if row[fc]:
                v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return tuple(basis)


def scaled(vectors) -> tuple[tuple[dict, ...], tuple[int, ...]]:
    """(rows, scales) of rational vectors, each the integer row over the
    lcm of its denominators (`linalg.integer_row`): the basis of a solution
    or symbol space built from `Fraction` vectors."""
    pairs = [linalg.integer_row(v) for v in vectors]
    return tuple(r for r, _ in pairs), tuple(t for _, t in pairs)


def gauss_eliminate(rows):
    """Forward elimination with partial pivoting over Fraction; returns
    (echelon rows, pivot column list)."""
    a = [[F(x) for x in row] for row in rows]
    if not a:
        return [], []
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(a)):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def gauss_rank(rows):
    return len(gauss_eliminate(rows)[0])


def gauss_nullspace(rows, ncols):
    ech, pivots = gauss_eliminate(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -ech[r][fc]
        basis.append(tuple(v))
    return basis


def dense_bareiss(rows):
    """The library's former row-echelon kernel: one-step Bareiss over every
    cell. Returns (echelon_rows, pivot_columns, swap_sign)."""
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        piv = a[r][c]
        for i in range(r + 1, nr):
            aic = a[i][c]
            row_i = a[i]
            row_r = a[r]
            for j in range(c + 1, nc):
                row_i[j] = (piv * row_i[j] - aic * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return a, pivots, sign


def dense_rref_mod(rows, p) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form of an integer matrix over the integers mod
    a prime p, (nonzero rows, pivot columns), by plain Gauss-Jordan
    elimination over every cell."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    pivots = []
    for c in range(len(a[0]) if a else 0):
        pr = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[rank], a[pr] = a[pr], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        pivots.append(c)
        rank += 1
    return a[:rank], pivots


def dense_rank_mod(rows, p):
    """Rank of an integer matrix over the integers mod a prime p."""
    return len(dense_rref_mod(rows, p)[1])


def full_scan_independent_rows_mod_p(rows, bound: int) -> list[int]:
    """The former `_kernel.independent_rows_mod_p`: the same reading order
    and kept positions, but each new row is pivoted on the entry
    `dict.popitem` takes from it rather than on its leftmost column, and
    each new pivot column is cleared by scanning every kept row."""
    kept: list[int] = []
    if bound <= 0:
        return kept
    basis: dict[int, dict[int, int]] = {}   # pivot column -> rest of its row
    for pos, row in enumerate(rows):
        acc: dict[int, int] = {}
        for c, x in row.items():
            b = basis.get(c)
            if b is None:
                acc[c] = acc.get(c, 0) + x
            else:
                x %= P
                for j, v in b.items():
                    acc[j] = acc.get(j, 0) - x * v
        r = {j: x % P for j, x in acc.items() if x % P}
        if not r:
            continue
        c, x = r.popitem()
        inv = pow(x, -1, P)
        new = {j: x * inv % P for j, x in r.items()}
        for b in basis.values():
            f = b.pop(c, 0) % P
            if f:
                for j, v in new.items():
                    b[j] = b.get(j, 0) - f * v
        basis[c] = new
        kept.append(pos)
        if len(kept) == bound:
            break
    return kept


def reducing_independent_rows_mod_p(rows, bound: int
                                    ) -> tuple[list[int], dict]:
    """The former `_kernel.independent_rows_mod_p`: the same leftmost pivots
    and the same index of the kept rows holding each column, but every row
    reduced, with no functional that skips the dependent ones."""
    kept: list[int] = []
    basis: dict[int, dict[int, int]] = {}   # pivot column -> rest of its row
    if bound <= 0:
        return kept, basis
    holders: dict[int, list[dict[int, int]]] = {}   # column -> rests with it
    for pos, row in enumerate(rows):
        acc: dict[int, int] = {}
        for c, x in row.items():
            b = basis.get(c)
            if b is None:
                acc[c] = acc.get(c, 0) + x
            else:
                x %= P
                for j, v in b.items():
                    acc[j] = acc.get(j, 0) - x * v
        r = {j: y for j, x in acc.items() if (y := x % P)}
        if not r:
            continue
        c = min(r)
        inv = pow(r.pop(c), -1, P)
        new = {j: x * inv % P for j, x in r.items()}
        for b in holders.pop(c, ()):
            f = b.pop(c) % P
            if f:
                for j, v in new.items():
                    if j in b:
                        b[j] -= f * v
                    else:
                        b[j] = -f * v
                        holders.setdefault(j, []).append(b)
        for j in new:
            holders.setdefault(j, []).append(new)
        basis[c] = new
        kept.append(pos)
        if len(kept) == bound:
            break
    return kept, basis


def dict_spans(red, pivots, support, rows) -> bool:
    """The former `_kernel._spans`: L x[j] against sum_k x[p_k] (L /
    piv_k) red_k[j], summed into a dict by column for every row."""
    scale = lcm(*(row[c] for row, c in zip(red, pivots)))
    at = {c: (scale // row[c], row, [j for j in cols if j != c])
          for row, c, cols in zip(red, pivots, support)}
    for row in rows:
        acc: dict[int, int] = {}
        for j, x in row.items():
            hit = at.get(j)
            if hit is None:
                acc[j] = acc.get(j, 0) - scale * x
                continue
            f, red_k, cols = hit
            f *= x
            for t in cols:
                acc[t] = acc.get(t, 0) + f * red_k[t]
        if any(acc.values()):
            return False
    return True


def per_entry_lift(basis, ncols: int):
    """The former `_kernel._lift`: every nonzero entry of the mod-P basis
    reconstructed on its own, each row scaled by the lcm of the
    denominators."""
    red, pivots, support = [], [], []
    for c in sorted(basis):
        rest = []
        for j, v in basis[c].items():
            if v % P:
                nd = _rational(v)
                if nd is None:
                    return None
                rest.append((j, nd))
        scale = lcm(*(d for _, (_, d) in rest))
        row = [0] * ncols
        row[c] = scale
        for j, (n, d) in rest:
            row[j] = n * (scale // d)
        red.append(row)
        pivots.append(c)
        support.append([c] + [j for j, _ in rest])
    return red, pivots, support


def full_width_lower_bounds(deltas) -> list[list[int]]:
    """The former first loop of `cohomology._certified_ranks`: the kept
    positions of each delta_q (row -> {col: n}, ncols, nrows) read mod P
    over all of its columns, at most ncols minus the count before it."""
    kept: list[list[int]] = []
    for q, (rows, ncols, _) in enumerate(deltas):
        bound = min(len(rows), ncols - (len(kept[-1]) if q else 0))
        kept.append(full_scan_independent_rows_mod_p(rows.values(), bound))
    return kept


def fixpoint_certified_ranks(deltas) -> list[int]:
    """The former `cohomology._certified_ranks`: the same pass mod P, then a
    classifier of each lower bound (proved by no square, by one named
    square, or not proved) re-run after every rank made exact, and only
    the squares the proofs named checked. Its helpers are read from
    `cohomology` at call time, so spies on them see this function too."""
    n = len(deltas)
    kept, bases, images = [], [], []
    image: set[int] = set()
    for rows, ncols, _ in deltas:
        bound = min(len(rows), ncols - len(image))
        positions, basis = cohomology.independent_rows_mod_p(
            cohomology._outside(rows, image), bound)
        kept.append(positions)
        bases.append(basis)
        images.append(image)
        keys = list(rows)
        image = {keys[i] for i in kept[-1]}
    low = [len(k) for k in kept]
    exact = [False] * n

    def square(q):
        """q' when low[q] is proved by delta_{q'+1} delta_{q'} = 0, () when
        it needs no square, None when it is not proved."""
        rows, ncols, nrows = deltas[q]
        if exact[q] or low[q] == min(len(rows), ncols):
            return ()
        if q and low[q] == ncols - low[q - 1]:
            return q - 1
        if q + 1 < n and low[q] == nrows - low[q + 1]:
            return q
        return None

    while True:
        q = next((q for q in range(n) if square(q) is None), None)
        if q is None:
            break
        rows, ncols, _ = deltas[q]
        cohomology.envelope("exact elimination cells", len(kept[q]) * ncols,
                            cohomology.ROW_SPACE_CELL_BOUND)
        low[q] = len(cohomology.row_space(
            list(cohomology._outside(rows, images[q])), ncols, kept[q],
            bases[q])[1])
        exact[q] = True
    squares = {square(q) for q in range(n)} - {()}
    squares.update(q - 1 for q in range(n) if exact[q] and images[q])
    for q in sorted(squares):
        cohomology._check_square(deltas[q + 1][0], deltas[q][0],
                                 deltas[q][1], q)
    return low

def _to_int_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Scale each row by the LCM of its denominators; returns (rows, scales)."""
    out: list[list[int]] = []
    scales: list[int] = []
    for row in rows:
        nz = [(j, frac(x)) for j, x in enumerate(row) if x]
        m = lcm(*(f.denominator for _, f in nz)) if nz else 1
        ints = [0] * len(row)
        for j, f in nz:
            ints[j] = f.numerator * (m // f.denominator)
        out.append(ints)
        scales.append(m)
    return out, scales


def full_rref(rows) -> tuple[Mat, tuple[int, ...]]:
    """The library's former `linalg.rref`: every row eliminated. Reduced
    row-echelon form with unit pivots; returns (rref, pivot_cols).

    Back-substitution stays in integers: clearing pivot column c from a row
    above combines it with the pivot row, visiting only rows that hold c
    and only their nonzero columns, then divides out the row's content.
    Each entry of the result is then one quotient by its row's pivot.
    """
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return (), ()
    ncols = len(rows[0])
    int_rows, _ = _to_int_rows(rows)
    ech, pivots, _ = echelon(int_rows)
    red = ech[:len(pivots)]
    support = [[j for j, x in enumerate(row) if x] for row in red]
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        row_i = red[i]
        piv = row_i[c]
        for t in range(i):
            row_t = red[t]
            f = row_t[c]
            if not f:
                continue
            g = gcd(piv, f)
            a, b = piv // g, f // g
            cols = set(support[t]).union(support[i])
            for j in cols:
                row_t[j] = a * row_t[j] - b * row_i[j]
            nz = [j for j in cols if row_t[j]]
            content = gcd(*(row_t[j] for j in nz))
            if content > 1:
                for j in nz:
                    row_t[j] //= content
            support[t] = nz
    zero = Fraction(0)
    out = []
    for row, c, cols in zip(red, pivots, support):
        piv = row[c]
        vals = [zero] * ncols
        for j in cols:
            vals[j] = Fraction(row[j], piv)
        out.append(tuple(vals))
    return tuple(out), tuple(pivots)


def sympy_rank(rows):
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).rank()


def sympy_det(rows):
    m = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
    return Fraction(str(m.det()))


def sylvester_positive_definite(g) -> bool:
    """The library's former `linalg.is_positive_definite`: Sylvester's
    criterion, every leading principal minor positive."""
    n = len(g)
    for k in range(1, n + 1):
        minor = tuple(tuple(g[i][j] for j in range(k)) for i in range(k))
        if linalg.det(minor) <= 0:
            return False
    return True


def charpoly_signature(g) -> tuple[int, int, int]:
    """(n_pos, n_neg, n_zero) of a symmetric matrix from its characteristic
    polynomial p: all its roots are real, so Descartes' rule of signs is
    exact, and the sign changes of p(x) and p(-x) count the positive and
    negative eigenvalues with multiplicity."""
    n = len(g)
    x = sympy.Symbol("x")
    p = sympy.Matrix(n, n, lambda i, j: sympy.Rational(g[i][j])).charpoly(x)
    coeffs = p.all_coeffs()

    def changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    flipped = [c * (-1) ** (n - d) for d, c in enumerate(coeffs)]
    pos, neg = changes(coeffs), changes(flipped)
    return pos, neg, n - pos - neg


# ---------------------------------------------------------------- dense tables
#
# The library stores a rank-3 table by its nonzeros and builds each one
# directly. Below are its former dense table helpers, its former builders
# (each returns the dense nested tuple that the new builder's `.gamma` or
# `.c` view must equal) and its former dense readers of the table.

def table3(entries):
    return tuple(tuple(tuple(frac(x) for x in row) for row in plane)
                 for plane in entries)


def zero_table3(m: int):
    z = Fraction(0)
    return tuple(tuple(tuple(z for _ in range(m)) for _ in range(m))
                 for _ in range(m))


def sparse_of(table) -> SparseTable:
    """The nonzeros of a dense table (the library's former `SparseTable.of`)."""
    return SparseTable((i, j, k, v) for i, plane in enumerate(table)
                       for j, row in enumerate(plane)
                       for k, v in enumerate(row) if v)


def dense_product(m, table) -> BilinearProduct:
    return BilinearProduct(m, sparse_of(table))


def dense_lie(m, table) -> LieAlgebra:
    return LieAlgebra(m, sparse_of(table))


def dense_mult(gamma, u, v):
    """u·v over a dense table (the library's former `BilinearProduct.mult`)."""
    m = len(gamma)
    out = [Fraction(0)] * m
    for i in range(m):
        ui = frac(u[i])
        if ui == 0:
            continue
        for j in range(m):
            vj = frac(v[j])
            if vj == 0:
                continue
            for k in range(m):
                g = gamma[i][j][k]
                if g:
                    out[k] += ui * vj * g
    return tuple(out)


def dense_left_matrices(gamma):
    m = len(gamma)
    return tuple(
        tuple(tuple(gamma[i][j][k] for j in range(m)) for k in range(m))
        for i in range(m))


def dense_right_matrix(gamma, x):
    m = len(gamma)
    return tuple(
        tuple(sum(gamma[j][i][k] * frac(x[i]) for i in range(m))
              for j in range(m)) for k in range(m))


def dense_product_from_sparse(m: int, entries):
    g = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i, j, k, v in entries:
        if not all(0 <= t < m for t in (i, j, k)):
            raise ValidationError(f"index out of range in entry ({i},{j},{k})")
        g[i][j][k] = frac(v)
    return table3(g)


def dense_lie_from_sparse(m: int, entries):
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    seen = {}
    for i, j, k, v in entries:
        if not all(0 <= t < m for t in (i, j, k)):
            raise ValidationError(f"index out of range in entry ({i},{j},{k})")
        v = frac(v)
        if i == j:
            if v != 0:
                raise ValidationError(f"nonzero diagonal bracket ({i},{i},{k})")
            continue
        if (i, j, k) in seen and seen[(i, j, k)] != v:
            raise ValidationError(f"conflicting entries for ({i},{j},{k})")
        if (j, i, k) in seen and seen[(j, i, k)] != -v:
            raise ValidationError(
                f"entries ({i},{j},{k}) and ({j},{i},{k}) are not opposite")
        seen[(i, j, k)] = v
        c[i][j][k] = v
        c[j][i][k] = -v
    return table3(c)


def dense_commutator_bracket(p: BilinearProduct):
    m = p.dim
    return tuple(
        tuple(
            tuple(p.gamma[i][j][k] - p.gamma[j][i][k] for k in range(m))
            for j in range(m)) for i in range(m))


def dense_conjugate_product(p: BilinearProduct, pmat):
    m = p.dim
    pinv = linalg.inverse(pmat)
    cols = linalg.transpose(pmat)
    g = []
    for i in range(m):
        plane = []
        for j in range(m):
            plane.append(tuple(dense_mat_vec(
                pinv, dense_mult(p.gamma, cols[i], cols[j]))))
        g.append(tuple(plane))
    return tuple(g)


def dense_direct_sum_products(a: BilinearProduct, b: BilinearProduct):
    m, n = a.dim, b.dim
    d = m + n
    g = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i, j, k in iproduct(range(m), repeat=3):
        g[i][j][k] = a.gamma[i][j][k]
    for i, j, k in iproduct(range(n), repeat=3):
        g[m + i][m + j][m + k] = b.gamma[i][j][k]
    return table3(g)


def dense_affine_algebra(m: int):
    n = m * m + m
    gamma = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for p in range(m):
        for q in range(m):
            for r in range(m):
                gamma[p * m + q][r * m + p][r * m + q] += 1
    for t in range(m):
        for r in range(m):
            gamma[m * m + t][r * m + t][m * m + r] += 1
    return table3(gamma)


def dense_matrix_algebra(k: int):
    n = k * k
    gamma = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for p in range(k):
        for q in range(k):
            for s in range(k):
                gamma[p * k + q][q * k + s][p * k + s] += 1
    return table3(gamma)


def dense_cartan_connection(L: LieAlgebra, kind: str):
    m = L.dim
    if kind == "minus":
        return zero_table3(m)
    s = Fraction(1, 2) if kind == "zero" else Fraction(1)
    return tuple(
        tuple(tuple(s * L.c[i][j][k] for k in range(m)) for j in range(m))
        for i in range(m))


def dense_amari_dual(conn, g):
    m = conn.dim
    gm = g.matrix
    ginv = linalg.inverse(gm)
    duals = [linalg.mat_scale(-1, dense_mat_mul(
        ginv, dense_mat_mul(linalg.transpose(gi), gm)))
        for gi in dense_left_matrices(conn.gamma.gamma)]
    return tuple(
        tuple(tuple(duals[i][k][j] for k in range(m)) for j in range(m))
        for i in range(m))


def dense_form_dual(base, mats, gm):
    """The library's former `form_dual`: Gamma_i = −G^{-1} A_i^T G for the
    dense operators mats = (A_i), by two dense `Fraction` products per
    basis vector."""
    m = base.dim
    ginv = linalg.inverse(gm)
    duals = [linalg.mat_scale(-1, linalg.mat_mul(
        ginv, linalg.mat_mul(linalg.transpose(a), gm))) for a in mats]
    table = SparseTable((i, j, k, duals[i][k][j]) for i in range(m)
                        for j in range(m) for k in range(m))
    return InvariantConnection(base, BilinearProduct(m, table))


def dense_alpha_connection(conn, dual, alpha):
    a = frac(alpha)
    s, t = (1 + a) / 2, (1 - a) / 2
    m = conn.dim
    return tuple(
        tuple(
            tuple(s * conn.gamma.gamma[i][j][k] + t * dual.gamma.gamma[i][j][k]
                  for k in range(m)) for j in range(m)) for i in range(m))


# ---------------------------------------------------------------- tensor formulas

def jacobi_entry(c, i, j, k, l):
    """[[ei,ej],ek] + [[ej,ek],ei] + [[ek,ei],ej], coefficient along el."""
    m = len(c)
    s = Fraction(0)
    for a in range(m):
        s += c[i][j][a] * c[a][k][l]
        s += c[j][k][a] * c[a][i][l]
        s += c[k][i][a] * c[a][j][l]
    return s


def torsion_entry(gamma, c, i, j, k):
    return gamma[i][j][k] - gamma[j][i][k] - c[i][j][k]


def curvature_entry(gamma, c, i, j, k, l):
    """R(ei,ej)ek along el with R(x,y)z = grad_x grad_y z - grad_y grad_x z
    - grad_{[x,y]} z."""
    m = len(c)
    s = Fraction(0)
    for a in range(m):
        s += gamma[j][k][a] * gamma[i][a][l]
        s -= gamma[i][k][a] * gamma[j][a][l]
        s -= c[i][j][a] * gamma[a][k][l]
    return s


def associator_entry(gamma, i, j, k, l):
    """((ei·ej)·ek - ei·(ej·ek)) along el."""
    m = len(gamma)
    s = Fraction(0)
    for a in range(m):
        s += gamma[i][j][a] * gamma[a][k][l]
        s -= gamma[j][k][a] * gamma[i][a][l]
    return s


def kv_anomaly_entry(gamma, i, j, k, l):
    """Left-symmetry defect: assoc(x,y,z) - assoc(y,x,z) along el."""
    return (associator_entry(gamma, i, j, k, l)
            - associator_entry(gamma, j, i, k, l))


def killing_entry(c, i, j):
    """tr(ad_ei ad_ej) expanded directly."""
    m = len(c)
    s = Fraction(0)
    for a in range(m):
        for b in range(m):
            s += c[i][a][b] * c[j][b][a]
    return s


# ---------------------------------------------------------------- closed forms

def abelian_betti(m, p):
    """Trivial-coefficient Chevalley-Eilenberg Betti numbers of R^m."""
    return comb(m, p)


def fisher_bernoulli(theta):
    return 1.0 / (theta * (1.0 - theta))


def fisher_categorical_natural(theta):
    """Categorical on n outcomes in logit coordinates, p = softmax(theta, 0):
    G = diag(p) - p p^T over the first n-1 probabilities."""
    z = [exp(t) for t in theta]
    total = 1.0 + sum(z)
    p = [x / total for x in z]
    return [[(p[i] if i == j else 0.0) - p[i] * p[j]
             for j in range(len(p))] for i in range(len(p))]


def fisher_categorical_mean(theta):
    """Categorical on n outcomes, coordinates are the first n-1 probabilities:
    G_ij = delta_ij / theta_i + 1 / theta_n."""
    d = len(theta)
    last = 1.0 - sum(theta)
    return [[(1.0 / theta[i] if i == j else 0.0) + 1.0 / last
             for j in range(d)] for i in range(d)]


def full_symbol_cartan_total(m, w):
    """Sum over a quasi-regular flag for a = Hom(V,W): dim a_j = w(m-j),
    so the total is w * m(m+1)/2."""
    return w * m * (m + 1) // 2


def stacked_rank_aj_dims(a: SymbolSpace, basis_vectors) -> list[int]:
    """The library's former `spencer._aj_dims`: dim of
    {A in a : A b_t = 0 for t <= j}, for j = 0..m, each by an integer rank
    of the whole stack of flag rows so far.

    The rows (A_s b_t)_k are built in integers: each A_s and each b_t is
    scaled by the LCM of its denominators, which scales a column or a block
    of rows by a nonzero integer and so keeps every rank.
    """
    m, w = a.v_dim, a.w_dim
    mats = [[A.get(j, 0) for j in range(m * w)] for A in a.rows]
    bs, _ = linalg.integer_rows(basis_vectors)
    d = a.dim
    dims = [d]
    rows = []
    for bt in bs:
        for k in range(w):
            rows.append([sum(A[k * m + i] * bt[i] for i in range(m))
                         for A in mats])
        dims.append(d - linalg.rank(rows))
    return dims


def _nullspace_aj_dims(a: SymbolSpace, basis_vectors) -> list[int]:
    """The library's former `spencer._aj_dims`: each flag dimension as the
    size of a nullspace of `Fraction` rows."""
    m, w = a.v_dim, a.w_dim
    mats = tuple(linalg.unflatten(b, w, m) for b in a.basis)
    d = a.dim
    dims = [d]
    rows = []
    for bt in basis_vectors:
        for k in range(w):
            rows.append([sum(mats[s][k][i] * bt[i] for i in range(m))
                         for s in range(d)])
        dims.append(len(linalg.nullspace(rows, ncols=d)))
    return dims


def nullspace_cartan_test(a: SymbolSpace, basis=None) -> tuple[int, int, bool]:
    """The library's former `spencer.cartan_test`: a fresh prolongation per
    call and nullspace flag dimensions."""
    if a.order != 1:
        raise ValidationError("cartan test applies to order-1 symbols")
    m = a.v_dim
    if basis is None:
        basis = linalg.identity(m)
    else:
        basis = tuple(tuple(linalg.frac(x) for x in v) for v in basis)
        if linalg.rank(basis) != m:
            raise ValidationError("test basis does not span V")
    p1 = prolong(a).dim
    total = sum(_nullspace_aj_dims(a, basis))
    if p1 > total:
        raise ConformanceMismatch(
            "prolongation exceeded the Cartan bound; computation is wrong")
    return p1, total, p1 == total


def nullspace_quasi_regular_basis(a: SymbolSpace, trials: int = 64,
                                  seed=DEFAULT_SEED) -> tuple | None:
    """The library's `spencer.find_quasi_regular_basis` over
    `nullspace_cartan_test`: the same candidates in the same order."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    m = a.v_dim
    std = linalg.identity(m)
    _, _, ok = nullspace_cartan_test(a, std)
    if ok:
        return std
    rng = random.Random(seed)
    for _ in range(trials - 1):
        cand = tuple(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 2))
                  for _ in range(m)) for _ in range(m))
        if linalg.rank(cand) != m:
            continue
        _, _, ok = nullspace_cartan_test(a, cand)
        if ok:
            return cand
    return None


def unbounded_quasi_regular_basis(a: SymbolSpace,
                                  trials: int = DEFAULT_TRIALS,
                                  seed=DEFAULT_SEED) -> tuple | None:
    """The library's former `spencer.find_quasi_regular_basis`: the
    standard basis, then every one of the trials - 1 seeded candidates,
    flag-tested as integer rows, with no lower bound on the flag sum."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    m = a.v_dim
    _, _, ok = spencer.cartan_test(a)
    if ok:
        return linalg.identity(m)
    rng = random.Random(seed)
    for _ in range(trials - 1):
        cand = [[(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(m)]
                for _ in range(m)]
        ints = [{i: n * (2 // d) for i, (n, d) in enumerate(v) if n}
                for v in cand]
        if linalg.sparse_rank(ints, m) == m and \
                spencer._flag_test(a, ints)[2]:
            return tuple(tuple(Fraction(n, d) for n, d in v) for v in cand)
    return None


def sorting_spencer_d(m: int, w: int, p: int, s: int, cochains):
    """The library's former `spencer._d`: each contribution's image columns
    found by sorting the (p+1)-tuple and removing u from the monomial."""
    monos = monomials(m, s)
    ns, nl = len(monos), len(monomials(m, s - 1))
    ptuples = list(combinations(range(m), p))
    up = {t: i for i, t in enumerate(combinations(range(m), p + 1))}
    down = _mono_pos(m, s - 1)
    for key, col, x in cochains:
        t, rest = divmod(col, w * ns)
        k, i = divmod(rest, ns)
        ptuple, mono = ptuples[t], monos[i]
        for u in sorted(set(mono).difference(ptuple)):
            newp = tuple(sorted(ptuple + (u,)))
            lower = list(mono)
            lower.remove(u)
            yield (key, (up[newp] * w + k) * nl + down[tuple(lower)],
                   -x if newp.index(u) % 2 else x)


def _apply_d(m: int, order: int, coeffs: dict) -> dict:
    """Spencer coboundary on one cochain.

    coeffs: {(ptuple, flat symbol coord position): value} for symbols of the
    given order; returns the same encoding with p+1 and order-1.
    """
    out: dict = {}
    lower_n = len(monomials(m, order - 1))
    for (ptuple, flat), val in coeffs.items():
        if val == 0:
            continue
        k, mono_pos_idx = divmod(flat, len(monomials(m, order)))
        for u in range(m):
            if u in ptuple:
                continue
            newp = tuple(sorted(ptuple + (u,)))
            t = newp.index(u)
            sign = (-1) ** t
            mono = monomials(m, order)[mono_pos_idx]
            # slice the symbol slot by e_u: pick entries whose monomial
            # contains u; as a basis action, the slice of a coordinate
            # function is a coordinate function one degree down
            down = list(mono)
            if u not in down:
                continue
            down.remove(u)
            pos = _mono_pos(m, order - 1)[tuple(down)]
            key = (newp, k * lower_n + pos)
            out[key] = out.get(key, Fraction(0)) + sign * val
    return out


def _cochain_vec(m: int, w: int, p: int, order: int, coeffs: dict) -> Vec:
    ptuples = list(combinations(range(m), p))
    nsym = symbol_coord_dim(m, w, order)
    vec = [Fraction(0)] * (len(ptuples) * nsym)
    pos = {t: i for i, t in enumerate(ptuples)}
    for (ptuple, flat), val in coeffs.items():
        vec[pos[ptuple] * nsym + flat] += val
    return tuple(vec)


def dense_spencer_cohomology(a: SymbolSpace, p_max: int = 3,
                             q_max: int = 2) -> SpencerReport:
    """The library's former `spencer.spencer_cohomology`: each image a dense
    `Fraction` vector of the whole cochain space, ranked by `linalg.rank`.

    Cohomology of Lambda^p V* (x) a^{(q)} in a finite window.

    H^{p,q} is taken at C^{p,q} inside
    C^{p-1,q+1} -> C^{p,q} -> C^{p+1,q-1}; images are computed in ambient
    symbol coordinates so no membership solves are needed, and the rank of
    each d is computed once, serving both degrees it bounds.
    """
    if a.order != 1:
        raise ValidationError("spencer complex starts from order-1 symbols")
    m, w = a.v_dim, a.w_dim
    spaces = {0: a}
    for q in range(1, q_max + 2):
        spaces[q] = spaces[q - 1].prolongation

    def basis_cochains(p, q):
        out = []
        for ptuple in combinations(range(m), p):
            for b in spaces[q].basis:
                coeffs = {(ptuple, i): x for i, x in enumerate(b) if x != 0}
                out.append(coeffs)
        return out

    d2_ok = True
    ranks = {}

    def rank_d(p, q):
        """Rank of d: C^{p,q} -> C^{p+1,q-1}, computed once per (p, q); d² = 0
        is checked on the way for 1 <= q <= q_max."""
        nonlocal d2_ok
        if (p, q) not in ranks:
            images = []
            for coeffs in basis_cochains(p, q):
                img = _apply_d(m, q + 1, coeffs)
                images.append(_cochain_vec(m, w, p + 1, q, img))
                if 1 <= q <= q_max and any(
                        v != 0 for v in _apply_d(m, q, img).values()):
                    d2_ok = False
            ranks[p, q] = linalg.rank([v for v in images if any(v)])
        return ranks[p, q]

    from math import comb
    c_dims = [[comb(m, p) * spaces[q].dim for q in range(q_max + 1)]
              for p in range(p_max + 1)]
    h_dims = [[0] * (q_max + 1) for _ in range(p_max + 1)]
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            if not c_dims[p][q]:
                continue
            rank_in = rank_d(p - 1, q + 1) if p >= 1 else 0
            h_dims[p][q] = c_dims[p][q] - rank_d(p, q) - rank_in
            if h_dims[p][q] < 0:
                raise ConformanceMismatch("negative cohomology dimension")
    return SpencerReport(
        v_dim=m, w_dim=w, p_max=p_max, q_max=q_max,
        prolong_dims=tuple(spaces[q].dim for q in range(q_max + 2)),
        c_dims=tuple(tuple(r) for r in c_dims),
        h_dims=tuple(tuple(r) for r in h_dims),
        d_squared_zero=d2_ok)


# ---------------------------------------------------------------- dense tensors
#
# The library computes these tensors as contractions over nonzeros. The dense
# formulas below are the ones it used before, kept as differential oracles:
# each walks every basis triple and returns the full nested tuple
# (zeros included) that the library's `DefectTensor.entries` must equal.

def dense_mat_mul(a, b):
    bt = linalg.transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def dense_mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def is_zero_matrix(a) -> bool:
    return all(x == 0 for row in a for x in row)


def dense_commutator(a, b):
    return linalg.mat_sub(dense_mat_mul(a, b), dense_mat_mul(b, a))


def dense_lie_check(m, c):
    """The dense constructor checks of a Lie bracket table, same messages."""
    if len(c) != m or any(
            len(p) != m or any(len(r) != m for r in p) for p in c):
        raise ValidationError("bracket table shape does not match dim")
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if c[i][j][k] != -c[j][i][k]:
                    raise ValidationError(
                        f"bracket not antisymmetric at ({i},{j},{k})")
    for idx, v in walk(dense_jacobi_defect(c)):
        if v != 0:
            raise JacobiViolation(
                f"Jacobi identity fails on basis triple {idx[:3]}")


def walk(entries, prefix=()):
    """(multi_index, value) of every entry of a nested tuple, in index order."""
    if isinstance(entries, Fraction):
        yield prefix, entries
        return
    for i, sub in enumerate(entries):
        yield from walk(sub, prefix + (i,))


def dense_jacobi_defect(c):
    """Coefficients of sum_cyclic [[e_i,e_j],e_k] as a rank-4 tensor."""
    m = len(c)
    basis = linalg.identity(m)

    def bk(u, v):
        return dense_mult(c, u, v)

    out = []
    for i in range(m):
        plane = []
        for j in range(m):
            row = []
            for k in range(m):
                x, y, z = basis[i], basis[j], basis[k]
                val = vec_add(
                    vec_add(bk(bk(x, y), z), bk(bk(y, z), x)),
                    bk(bk(z, x), y))
                row.append(tuple(val))
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def _associator(p, x, y, z):
    return vec_sub(p.mult(p.mult(x, y), z), p.mult(x, p.mult(y, z)))


def dense_associator_defect(p):
    """(e_i·e_j)·e_k − e_i·(e_j·e_k) over all basis triples."""
    m = p.dim
    basis = linalg.identity(m)
    return tuple(
        tuple(
            tuple(_associator(p, basis[i], basis[j], basis[k])
                  for k in range(m)) for j in range(m)) for i in range(m))


def dense_kv_anomaly(p):
    """Asymmetry of the associator in its first two slots."""
    m = p.dim
    basis = linalg.identity(m)
    return tuple(
        tuple(
            tuple(vec_sub(_associator(p, basis[i], basis[j], basis[k]),
                                 _associator(p, basis[j], basis[i], basis[k]))
                  for k in range(m)) for j in range(m)) for i in range(m))


def dense_killing_form(L):
    """K(x,y) = trace(ad_x ad_y) as a matrix."""
    m = L.dim
    ads = L.ad_matrices
    entries = []
    for i in range(m):
        row = []
        for j in range(m):
            prod = dense_mat_mul(ads[i], ads[j])
            row.append(sum(prod[a][a] for a in range(m)))
        entries.append(tuple(row))
    return tuple(entries)


def dense_trace_form(p):
    """t(x, y) = tr L_{xy}, the trace form of a product, as a matrix: the
    trace of left multiplication by each product e_i·e_j."""
    m = p.dim
    lefts = p.left_matrices
    basis = [tuple(Fraction(int(i == j)) for j in range(m)) for i in range(m)]
    return tuple(tuple(sum(x * lefts[a][b][b]
                           for a, x in enumerate(p.mult(basis[i], basis[j]))
                           for b in range(m))
                       for j in range(m)) for i in range(m))


def dense_torsion(conn):
    """T(e_i,e_j) = nabla_i e_j − nabla_j e_i − [e_i,e_j], rank-3 tensor."""
    m = conn.dim
    g, c = conn.gamma.gamma, conn.base.c
    return tuple(
        tuple(
            tuple(g[i][j][k] - g[j][i][k] - c[i][j][k] for k in range(m))
            for j in range(m)) for i in range(m))


def dense_curvature_operators(conn):
    """R_ij = [Gamma_i, Gamma_j] − sum_k c^k_{ij} Gamma_k as matrices."""
    m = conn.dim
    mats = conn.matrices
    c = conn.base.c
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            rij = dense_commutator(mats[i], mats[j])
            for l in range(m):
                if c[i][j][l]:
                    rij = linalg.mat_sub(rij, linalg.mat_scale(c[i][j][l],
                                                               mats[l]))
            row.append(rij)
        out.append(tuple(row))
    return tuple(out)


def dense_curvature(conn):
    """R(e_i,e_j)e_k along e_l; column k of R_ij is R(e_i,e_j)e_k."""
    m = conn.dim
    ops = dense_curvature_operators(conn)
    return tuple(
        tuple(
            tuple(tuple(ops[i][j][a][k] for a in range(m)) for k in range(m))
            for j in range(m)) for i in range(m))


# ---------------------------------------------------------------- two-sided sums
#
# The library accumulates only the independent half of its two alternating
# contractions: the Jacobiator at sorted triples, the bracket-mode operator
# defect at i < j. Below are the formulas it used before, over every index
# (without their size envelopes): the Jacobiator through a nested dict of
# T(p,q,r) = [[e_p,e_q],e_r] and its three cyclic copies, and the operator
# defect adding each product at both (i, j) and (j, i).

def fractions_over(acc: dict, den: int) -> dict:
    """Integer accumulators over `den` as nonzero rationals (the library's
    former reading of a contraction's sums)."""
    return {idx: Fraction(n, den) for idx, n in acc.items() if n}


def nested_jacobi_defect(m: int, c: SparseTable) -> dict:
    """Nonzero entries of sum_cyclic [[e_i,e_j],e_k] over every index."""
    nested: dict = defaultdict(int)
    for p, q, a, v in c.nonzeros:
        for r, l, w in c.by_first.get(a, ()):
            nested[p, q, r, l] += v * w
    acc: dict = defaultdict(int)
    for (p, q, r, l), x in nested.items():
        acc[p, q, r, l] += x
        acc[q, r, p, l] += x
        acc[r, p, q, l] += x
    return fractions_over(acc, c.den * c.den)


def two_sided_operator_defect(g: SparseTable, q: SparseTable,
                              bracket: bool = False) -> dict:
    """Nonzero entries of L_i L_j (− L_j L_i) − sum_a q[i][j][a] L_a over
    every (i, j)."""
    d = lcm(g.den, q.den)
    fp, fq = d // g.den, d // q.den
    acc: dict = defaultdict(int)
    for j, k, a, v in g.nonzeros:
        v *= fp
        for i, l, w in g.by_second.get(a, ()):
            x = v * w
            acc[i, j, k, l] += x
            if bracket:
                acc[j, i, k, l] -= x
    for i, j, a, v in q.nonzeros:
        v *= fq
        for k, l, w in g.by_first.get(a, ()):
            acc[i, j, k, l] -= v * w
    return fractions_over(acc, g.den * d)


# ---------------------------------------------------------------- coboundaries
#
# The library applies each coboundary to a cochain through the same
# generator of contributions that builds its matrix, and takes the
# Maurer-Cartan defect from `jacobi_defect`. Below are the formulas it used
# before: loops over the dense structure-constant table.

def cochain_value(c: Cochain, idx):
    """The module value of c on the basis tuple idx (the library's former
    `Cochain.value`)."""
    return c.table[_flat_index(idx, c.dim)]


def dense_kv_coboundary(c: Cochain, algebra: BilinearProduct,
                        coefficients: str | None = None) -> Cochain:
    """One step of the left-symmetric coboundary.

    For f of degree q >= 1 and xi = X_1 ⊗ ... ⊗ X_{q+1}:
    delta f(xi) = sum_{i=1..q} (-1)^i [ X_i·f(∂_i xi)
                  + f(∂²_{i,q+1} xi ⊗ X_i)·X_{q+1}  (algebra coefficients only)
                  - f(X_i·∂_i xi) ],
    the action on a tensor spreading over every slot. Degree 0 with algebra
    coefficients: (delta xi)(X) = -X·xi + xi·X; with scalars: zero.
    """
    if coefficients is not None and coefficients != c.module:
        raise ValidationError("cochain module does not match coefficients")
    if c.dim != algebra.dim:
        raise ValidationError("cochain dimension does not match the algebra")
    if c.degree > 4:
        raise ValidationError("coboundary implemented for degree <= 4")
    if not algebra.is_kv:
        hit = kv_anomaly(algebra).first_nonzero()
        raise NotKV(f"product is not left-symmetric (witness {hit[0][:3]})")
    m = algebra.dim
    q = c.degree
    gam = algebra.gamma

    if q == 0:
        if c.module == SCALAR:
            return zero_cochain(1, m, SCALAR)
        xi = c.table[0]
        basis = linalg.identity(m)
        table = tuple(
            tuple(vec_sub(algebra.mult(xi, basis[x]),
                                 algebra.mult(basis[x], xi)))
            for x in range(m))
        return Cochain(1, m, ADJOINT, table)

    width = c.module_dim
    out = []
    for idx in iproduct(range(m), repeat=q + 1):
        acc = [Fraction(0)] * width
        last = idx[q]
        for i in range(1, q + 1):
            xi_i = idx[i - 1]
            rest = idx[:i - 1] + idx[i:]
            sign = -1 if i % 2 else 1

            if c.module == ADJOINT:
                fv = cochain_value(c, rest)
                lm = gam[xi_i]
                for a in range(m):
                    if fv[a]:
                        for k in range(m):
                            if lm[a][k]:
                                acc[k] += sign * fv[a] * lm[a][k]
                mid_args = idx[:i - 1] + idx[i:q] + (xi_i,)
                fv2 = cochain_value(c, mid_args)
                for a in range(m):
                    if fv2[a]:
                        for k in range(m):
                            g = gam[a][last][k]
                            if g:
                                acc[k] += sign * fv2[a] * g
            for t in range(q):
                old = rest[t]
                for a in range(m):
                    g = gam[xi_i][old][a]
                    if g:
                        fv3 = cochain_value(c, rest[:t] + (a,) + rest[t + 1:])
                        for k in range(width):
                            if fv3[k]:
                                acc[k] -= sign * g * fv3[k]
        out.append(tuple(acc))
    return Cochain(q + 1, m, c.module, tuple(out))


def dense_hochschild_coboundary(c: Cochain,
                                algebra: BilinearProduct) -> Cochain:
    """(delta f)(x_0..x_q) = x_0 f(...) + sum (-1)^i f(..x_{i-1}x_i..)
    + (-1)^{q+1} f(...) x_q."""
    m = algebra.dim
    q = c.degree
    out = []
    for idx in iproduct(range(m), repeat=q + 1):
        acc = [Fraction(0)] * m
        fv = cochain_value(c, idx[1:])
        for k in range(m):
            for a in range(m):
                g = algebra.gamma[idx[0]][a][k]
                if g and fv[a]:
                    acc[k] += g * fv[a]
        for i in range(1, q + 1):
            sign = (-1) ** i
            pref = idx[:i - 1]
            suff = idx[i + 1:]
            for a in range(m):
                g = algebra.gamma[idx[i - 1]][idx[i]][a]
                if g:
                    fv2 = cochain_value(c, pref + (a,) + suff)
                    for k in range(m):
                        if fv2[k]:
                            acc[k] += sign * g * fv2[k]
        fv3 = cochain_value(c, idx[:q])
        sign = (-1) ** (q + 1)
        for a in range(m):
            if fv3[a]:
                for k in range(m):
                    g = algebra.gamma[a][idx[q]][k]
                    if g:
                        acc[k] += sign * fv3[a] * g
        out.append(tuple(acc))
    return Cochain(q + 1, m, ADJOINT, tuple(out))


def dense_maurer_cartan_defect(mu: LieAlgebra, b_table) -> DefectTensor:
    """dB + J_B for a skew bracket perturbation B.

    dB is the adjoint Chevalley-Eilenberg coboundary of B against mu, and
    J_B(x,y,z) = sum_cyclic B(x, B(y,z)). Zero exactly when mu + B is again
    a Lie bracket.
    """
    b_table = table3(b_table)
    m = mu.dim
    if len(b_table) != m:
        raise ValidationError("perturbation shape does not match the algebra")
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if b_table[i][j][k] != -b_table[j][i][k]:
                    raise ValidationError("perturbation is not skew")
    basis = linalg.identity(m)

    def br(u, v):
        return dense_mult(mu.c, u, v)

    def bb(u, v):
        return dense_mult(b_table, u, v)

    out = {}
    for i in range(m):
        for j in range(m):
            for k in range(m):
                x, y, z = basis[i], basis[j], basis[k]
                db = [Fraction(0)] * m
                for term in (br(x, bb(y, z)),
                             vec_scale(-1, br(y, bb(x, z))),
                             br(z, bb(x, y)),
                             vec_scale(-1, bb(br(x, y), z)),
                             bb(br(x, z), y),
                             vec_scale(-1, bb(br(y, z), x)),
                             bb(x, bb(y, z)),
                             bb(y, bb(z, x)),
                             bb(z, bb(x, y))):
                    db = [a + t for a, t in zip(db, term)]
                for l, v in enumerate(db):
                    out[i, j, k, l] = v
    return DefectTensor((m,) * 4, out)


# ---------------------------------------------------------------- coboundary matrices

def delta_matrix_columns(basis_inputs, apply_delta):
    """Column-per-basis-cochain matrix, returned as rows for rank work."""
    cols = []
    for b in basis_inputs:
        image = apply_delta(b)
        cols.append(tuple(x for v in image.table for x in v))
    if not cols:
        return []
    return [list(row) for row in zip(*cols)]


def unit_cochains(q, m, module):
    """Every cochain of degree q with a single 1 in its flat value table."""
    width = m if module == ADJOINT else 1
    inputs = []
    size = (m ** q) * width
    for pos in range(size):
        table = []
        for row in range(m ** q):
            vals = [Fraction(0)] * width
            if row * width <= pos < row * width + width:
                vals[pos - row * width] = Fraction(1)
            table.append(tuple(vals))
        inputs.append(Cochain(q, m, module, tuple(table)))
    return inputs


def kv_delta_by_cochains(algebra, coefficients, q):
    """delta_q of the KV complex by applying dense_kv_coboundary to each
    basis cochain (the legal 0-cochains, or the scalar 1, in degree 0)."""
    m = algebra.dim
    if q == 0:
        zero_basis = linalg.vectors(*kv_degree_zero_space(algebra), m) \
            if coefficients == ADJOINT else ((Fraction(1),),)
        inputs = [Cochain(0, m, coefficients, (tuple(v),))
                  for v in zero_basis]
    else:
        inputs = unit_cochains(q, m, coefficients)
    return delta_matrix_columns(inputs,
                                lambda b: dense_kv_coboundary(b, algebra))


def hochschild_delta_by_cochains(algebra, q):
    """delta_q of the Hochschild complex, one unit cochain at a time."""
    return delta_matrix_columns(
        unit_cochains(q, algebra.dim, ADJOINT),
        lambda b: dense_hochschild_coboundary(b, algebra))


def kv_coboundary_matrix(algebra: BilinearProduct, coefficients: str, q: int):
    """Matrix rows of delta: C^q -> C^{q+1} for the KV complex, assembled
    from the library's generator as `ce_coboundary_matrix` is.

    Column j is the image of the j-th basis cochain: for q >= 1 the unit
    cochain at flat position j of the cochain table, for q = 0 with algebra
    coefficients the j-th vector of `kv_degree_zero_space`, and for scalars
    the constant 1. Returns (rows, ncols, nrows).
    """
    _check_kv(algebra, coefficients)
    zero_basis = (kv_degree_zero_space(algebra)[0]
                  if coefficients == ADJOINT else ({0: 1},))
    return _assemble(algebra.sparse.den,
                     *_kv_delta(algebra, coefficients, q, zero_basis))


def flag_kv_entries(sp, m: int, q: int, adjoint: bool):
    """The library's former contributions to the KV delta_q (q >= 1), one
    formula per module chosen by the `adjoint` flag, each column found by
    `_flat_index` of a spliced index tuple."""
    by_first, by_second, by_pair = sp.by_first, sp.by_second, sp.by_pair
    width = m if adjoint else 1
    for out, idx in enumerate(iproduct(range(m), repeat=q + 1)):
        row0 = out * width
        last = idx[q]
        for i in range(1, q + 1):
            x = idx[i - 1]
            rest = idx[:i - 1] + idx[i:]
            sign = -1 if i % 2 else 1
            if adjoint:
                # X_i·f(∂_i xi)
                col0 = _flat_index(rest, m) * m
                for a, k, n in by_first.get(x, ()):
                    yield row0 + k, col0 + a, sign * n
                # f(∂²_{i,q+1} xi ⊗ X_i)·X_{q+1}
                col0 = _flat_index(idx[:i - 1] + idx[i:q] + (x,), m) * m
                for a, k, n in by_second.get(last, ()):
                    yield row0 + k, col0 + a, sign * n
            # -f(X_i·∂_i xi): X_i acts on each slot of rest
            for t, held in enumerate(rest):
                for a, n in by_pair.get((x, held), ()):
                    col0 = _flat_index(rest[:t] + (a,) + rest[t + 1:],
                                       m) * width
                    for k in range(width):
                        yield row0 + k, col0 + k, -sign * n


def flag_kv_degree_zero_entries(sp, m: int, zero_basis):
    """The library's former contributions to delta_0 with algebra
    coefficients: xi·X - X·xi, for each row {column: value} xi of
    zero_basis."""
    by_first, by_second = sp.by_first, sp.by_second
    for col, xi in enumerate(zero_basis):
        for a, v in xi.items():
            if v:
                for x, k, n in by_first.get(a, ()):
                    yield x * m + k, col, v * n
                for x, k, n in by_second.get(a, ()):
                    yield x * m + k, col, -v * n


def flag_kv_delta(algebra: BilinearProduct, coefficients: str, q: int,
                  zero_basis):
    """The library's former (entries, ncols, nrows) of the KV delta_q over
    the flag generators, the scalar degree 0 taken as zero on one column
    whatever zero_basis holds."""
    m = algebra.dim
    sp = algebra.sparse
    adjoint = coefficients == ADJOINT
    width = m if adjoint else 1
    nrows = m ** (q + 1) * width
    if q == 0 and not adjoint:
        return (), 1, nrows
    ncols = m ** q * width if q else len(zero_basis)
    if not sp.nonzeros:
        return (), ncols, nrows
    if q:
        return flag_kv_entries(sp, m, q, adjoint), ncols, nrows
    return flag_kv_degree_zero_entries(sp, m, zero_basis), ncols, nrows


def flag_ce_entries(sp, m: int, p: int, adjoint: bool, dom_pos, cod):
    """The library's former contributions to the Chevalley-Eilenberg
    delta_p, the adjoint action's terms behind the `adjoint` flag."""
    by_pair = sp.by_pair
    width = m if adjoint else 1
    for out, tup in enumerate(cod):
        row0 = out * width
        for i in range(p + 1):
            x = tup[i]
            sign = -1 if i % 2 else 1
            if adjoint:
                col0 = dom_pos[tup[:i] + tup[i + 1:]] * width
                for a, k, n in sp.by_first.get(x, ()):
                    yield row0 + k, col0 + a, sign * n
            for j in range(i + 1, p + 1):
                rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
                s2 = -1 if (i + j) % 2 else 1
                for l, n in by_pair.get((x, tup[j]), ()):
                    pos = bisect_left(rest, l)
                    if pos < len(rest) and rest[pos] == l:
                        continue
                    col0 = dom_pos[rest[:pos] + (l,) + rest[pos:]] * width
                    v = -s2 * n if pos % 2 else s2 * n
                    for w in range(width):
                        yield row0 + w, col0 + w, v


def splicing_hochschild_entries(sp, m: int, q: int):
    """The library's former contributions to the Hochschild delta_q, each
    column found by `_flat_index` of a spliced index tuple."""
    by_first, by_second, by_pair = sp.by_first, sp.by_second, sp.by_pair
    last_sign = -1 if q % 2 == 0 else 1
    for out, idx in enumerate(iproduct(range(m), repeat=q + 1)):
        row0 = out * m
        col0 = _flat_index(idx[1:], m) * m
        for a, k, n in by_first.get(idx[0], ()):
            yield row0 + k, col0 + a, n
        for i in range(1, q + 1):
            sign = -1 if i % 2 else 1
            for a, n in by_pair.get((idx[i - 1], idx[i]), ()):
                col0 = _flat_index(idx[:i - 1] + (a,) + idx[i + 1:], m) * m
                for k in range(m):
                    yield row0 + k, col0 + k, sign * n
        col0 = _flat_index(idx[:q], m) * m
        for a, k, n in by_second.get(idx[q], ()):
            yield row0 + k, col0 + a, last_sign * n


def hom_action(algebra: BilinearProduct, coefficients: str):
    """Dense matrices rho(e_x) of the Lie algebra g_A (A under x·y - y·x)
    on V = Hom(A, M): (x·phi)(a) = x·phi(a) - phi(x·a) + phi(x)·a for
    M = A, and -phi(x·a) for scalars. Coordinate a * w + u of V is the e_u
    part of phi(e_a), w = dim M."""
    m, g = algebra.dim, algebra.gamma
    w = m if coefficients == ADJOINT else 1
    n = m * w
    out = []
    for x in range(m):
        rho = [[Fraction(0)] * n for _ in range(n)]
        for b in range(m):
            for v in range(w):
                # phi = E_{b,v}: phi(e_b) = e_v, zero on the other e_a
                col = b * w + v
                for a in range(m):
                    rho[a * w + v][col] -= g[x][a][b]
                if coefficients != ADJOINT:
                    continue
                for u in range(m):
                    rho[b * w + u][col] += g[x][v][u]
                    for a in range(m):
                        if x == b:
                            rho[a * w + u][col] += g[v][a][u]
        out.append(rho)
    return out


def lie_h1_of_hom(algebra: BilinearProduct, coefficients: str) -> int:
    """dim H^1(g_A, Hom(A, M)) by dense integer Bareiss, which is dim KV
    H^2 with coefficients M (Nijenhuis, Enseignement Math. 1968; Nguiffo
    Boyom, Pacific J. Math. 2006). Z^1 is the c: g_A -> V with c([x, y]) =
    x·c(y) - y·c(x), B^1 the x -> x·v, so dim H^1 = dim Z^1 - (dim V -
    dim V^g). Raises AssertionError unless the action is a representation.
    """
    m, g = algebra.dim, algebra.gamma
    rho = hom_action(algebra, coefficients)
    n = len(rho[0])
    bracket = [[[g[x][y][k] - g[y][x][k] for k in range(m)]
                for y in range(m)] for x in range(m)]
    for x, y in combinations(range(m), 2):
        # rho([x, y]) - rho(x) rho(y) + rho(y) rho(x), summed over nonzeros
        acc = [[Fraction(0)] * n for _ in range(n)]
        for k, c in enumerate(bracket[x][y]):
            for s in range(n):
                for t in range(n) if c else ():
                    acc[s][t] += c * rho[k][s][t]
        for a, b, sign in ((x, y, -1), (y, x, 1)):
            for s in range(n):
                for r, v in enumerate(rho[a][s]):
                    if v:
                        for t, u in enumerate(rho[b][r]):
                            if u:
                                acc[s][t] += sign * v * u
        assert not any(map(any, acc)), "the action is not a representation"
    # unknowns c(e_k) at k * n + t; one row per pair x < y and coordinate s
    rows = []
    for x, y in combinations(range(m), 2):
        for s in range(n):
            row = [Fraction(0)] * (m * n)
            for k in range(m):
                row[k * n + s] += bracket[x][y][k]
            for t in range(n):
                row[y * n + t] -= rho[x][s][t]
                row[x * n + t] += rho[y][s][t]
            if any(row):
                rows.append(row)
    cocycles = m * n - _bareiss_rank(rows)
    acting = _bareiss_rank([r for mat in rho for r in mat if any(r)])
    return cocycles - acting


def _bareiss_rank(rows) -> int:
    return len(dense_bareiss(_to_int_rows(rows)[0])[1]) if rows else 0


def hochschild_coboundary_matrix(algebra: BilinearProduct, q: int):
    """Matrix rows of delta: C^q -> C^{q+1} for the Hochschild complex,
    column j the image of the unit cochain at flat position j. Returns
    (rows, ncols, nrows)."""
    _check_associative(algebra)
    return _assemble(algebra.sparse.den, *_hochschild_delta(algebra, q))


def sort_alternating(idx):
    """Sorted index tuple and permutation sign; (None, 0) on a repeat."""
    order = sorted(range(len(idx)), key=lambda t: idx[t])
    sidx = tuple(idx[t] for t in order)
    for a, b in zip(sidx, sidx[1:]):
        if a == b:
            return None, 0
    sign = 1
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return sidx, sign


def sorting_ce_entries(sp, m, p, adjoint, dom_pos, cod):
    """The library's former contributions to the Chevalley-Eilenberg
    delta_p, each bracket's e_l part placed into rest by sorting (l,) +
    rest and counting inversions (`sort_alternating`)."""
    by_pair = sp.by_pair
    width = m if adjoint else 1
    for out, tup in enumerate(cod):
        row0 = out * width
        for i in range(p + 1):
            x = tup[i]
            sign = -1 if i % 2 else 1
            if adjoint:
                col0 = dom_pos[tup[:i] + tup[i + 1:]] * width
                for a, k, n in sp.by_first.get(x, ()):
                    yield row0 + k, col0 + a, sign * n
            for j in range(i + 1, p + 1):
                rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
                s2 = -1 if (i + j) % 2 else 1
                for l, n in by_pair.get((x, tup[j]), ()):
                    sidx, psign = sort_alternating((l,) + rest)
                    if sidx is not None:
                        col0 = dom_pos[sidx] * width
                        for w in range(width):
                            yield row0 + w, col0 + w, s2 * psign * n


def dense_ce_coboundary_matrix(L, coefficients, p):
    """The library's former Chevalley-Eilenberg assembly over every cell of
    the bracket table; returns (rows, ncols, nrows)."""
    m = L.dim
    width = m if coefficients == ADJOINT else 1
    dom = list(combinations(range(m), p))
    cod = list(combinations(range(m), p + 1))
    if not dom or not cod:
        return [], len(dom) * width, len(cod) * width
    dom_pos = {t: i for i, t in enumerate(dom)}
    cod_pos = {t: i for i, t in enumerate(cod)}
    ncols = len(dom) * width
    rows = [[Fraction(0)] * ncols for _ in range(len(cod) * width)]

    def add(out_tuple, out_coord, in_tuple, in_coord, val):
        if val == 0:
            return
        r = cod_pos[out_tuple] * width + out_coord
        col = dom_pos[in_tuple] * width + in_coord
        rows[r][col] += val

    for tup in cod:
        for i in range(p + 1):
            rest = tup[:i] + tup[i + 1:]
            sign = (-1) ** i
            if coefficients == ADJOINT:
                x = tup[i]
                for a in range(m):
                    for k in range(m):
                        add(tup, k, rest, a, sign * L.c[x][a][k])
            for j in range(i + 1, p + 1):
                y = tup[j]
                x = tup[i]
                rr = tuple(t for t_i, t in enumerate(tup)
                           if t_i != i and t_i != j)
                s2 = (-1) ** (i + j)
                for l in range(m):
                    cval = L.c[x][y][l]
                    if cval == 0:
                        continue
                    sidx, psign = sort_alternating((l,) + rr)
                    if sidx is None:
                        continue
                    for w in range(width):
                        add(tup, w, sidx, w, s2 * psign * cval)
    return rows, ncols, len(cod) * width


# ---------------------------------------------------------------- FE* system
#
# The library builds the FE* operators as one sparse table and takes the
# compatibility operators from `algebra.operator_defect`. Below are the dense
# n x n operators, the commutator loop and the solver it used before.

def dense_fe_star_operators(conn):
    m = conn.dim
    n = m + m * m
    mats = conn.matrices
    ops = []
    for i in range(m):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for a in range(m):
            rows[a][m + a * m + i] += 1
            for b in range(m):
                rows[a][b] -= mats[i][a][b]
        for a in range(m):
            for b in range(m):
                r = m + a * m + b
                for c in range(m):
                    rows[r][m + a * m + c] += mats[i][c][b]
                    rows[r][m + c * m + b] -= mats[i][a][c]
        ops.append(tuple(tuple(r) for r in rows))
    return ops


def dense_fe_star_compat(conn, ops):
    """F_ij = [M_i, M_j] + sum_k c^k_ij M_k for i < j, in (i, j) order."""
    m = conn.dim
    c = conn.base.c
    compat = []
    for i in range(m):
        for j in range(i + 1, m):
            f = linalg.commutator(ops[i], ops[j])
            for k in range(m):
                if c[i][j][k]:
                    f = linalg.mat_add(f, linalg.mat_scale(c[i][j][k], ops[k]))
            compat.append(f)
    return compat


def dense_solve_fe_star(conn):
    """Largest invariant subspace of compatible Cauchy data for nabla^2 X = 0."""
    m = conn.dim
    n = m + m * m
    ops = dense_fe_star_operators(conn)
    compat = dense_fe_star_compat(conn, ops)

    rows = [row for f in compat for row in f]
    basis = linalg.nullspace(rows, ncols=n)
    steps = 0
    while basis:
        ann = linalg.nullspace(basis, ncols=n)
        new_rows = list(ann)
        for op in ops:
            for a in ann:
                new_rows.append(linalg.mat_vec(linalg.transpose(op),
                                               tuple(a)))
        # a^T (M w) = (M^T a)^T w: invariance of W is linear in w
        new_basis = linalg.nullspace(new_rows, ncols=n)
        steps += 1
        if len(new_basis) == len(basis):
            basis = new_basis
            break
        basis = new_basis
        if steps > n:
            raise KoszulError("stabilization failed to terminate")

    space = LinearSolutionSpace(n, *scaled(basis))
    for w in space.basis:
        for f in compat:
            if any(x != 0 for x in linalg.mat_vec(f, w)):
                raise KoszulError("stabilized vector violates compatibility")
        for op in ops:
            if not space.contains(linalg.mat_vec(op, w)):
                raise KoszulError("stabilized space is not invariant")

    proj = [w[:m] for w in space.basis]
    r_b = linalg.rank(proj) if proj else 0
    return FeStarSolutions(m=m, space=space, r_b=r_b, shrink_steps=steps)


def fraction_condition_rows(entries):
    """The library's former `spaces.condition_rows`, which also took
    rational contributions: each row summed per cell, times the lcm of its
    denominators over the gcd of its numerators."""
    out = []
    for _, row in sorted(spaces.accumulate(entries).items()):
        row = {j: x for j, x in row.items() if x}
        if row:
            m = lcm(*(x.denominator for x in row.values()))
            g = gcd(*(x.numerator for x in row.values()))
            out.append({j: x.numerator * (m // x.denominator) // g
                        for j, x in row.items()})
    return out


def fraction_closure_rows(ann, into):
    """`spaces._closure_rows` on `Fraction` annihilators: each integer row
    over the size of its first entry, the rows M_k^T a built from
    `Fraction` products and made primitive by `fraction_condition_rows`."""
    ann = tuple(enumerate({l: Fraction(x, abs(a[min(a)])) for l, x in
                           a.items()} for a in ann))
    return fraction_condition_rows(chain(
        (((-1, t), l, x) for t, a in ann for l, x in a.items()),
        (((k, t), c, v * x) for t, a in ann for l, x in a.items()
         for (k, c), v in into.get(l, {}).items())))


def basis_largest_invariant(rows, scales, ops, n):
    """The library's former `spaces.largest_invariant`, which took a basis
    (integer rows over scales) and walked it: at each step it solved the
    basis for its annihilators a, then the rows a and M_k^T a for the next
    basis, until the dimension stayed. The result is re-checked."""
    into = spaces.accumulate((l, (k, a), v) for k, a, l, v in ops.nonzeros)
    steps, last = 0, None
    while rows and len(rows) != last:
        last, steps = len(rows), steps + 1
        ann = linalg.sparse_nullspace(rows, n)[0]
        rows, scales = linalg.sparse_nullspace(condition_rows(chain(
            (((-1, t), l, x) for t, a in enumerate(ann) for l, x in a.items()),
            (((k, t), c, v * x) for t, a in enumerate(ann)
             for l, x in a.items()
             for (k, c), v in into.get(l, {}).items()))), n)
    moved = list(spaces.accumulate(
        ((s, k), l, v * w[a]) for s, w in enumerate(rows)
        for k, a, l, v in ops.nonzeros if a in w).values())
    if linalg.sparse_rank(list(rows) + moved, n) != len(rows):
        raise KoszulError("stabilized space is not invariant")
    return rows, scales, steps


# ---------------------------------------------------------------- right ideals

def dense_right_ideal_core(p, basis):
    """The library's former core loop of `simple_right_ideal_check`, which
    imposed both e·b and b·e for every unit e: the largest two-sided ideal
    inside the span of `basis` (a row-reduced basis of a right ideal)."""
    n = p.dim
    units = linalg.identity(n)
    core = basis
    while core:
        ann = linalg.nullspace(core, ncols=n)
        if not ann:
            break
        d = len(core)
        # e·b and b·e for each unit e, computed once for every lam
        sides = [side for e in units for side in (
            [p.mult(e, bvec) for bvec in core],
            [p.mult(bvec, e) for bvec in core])]
        rows = [[sum(lam[t] * y[t] for t in range(n)) for y in side]
                for lam in ann for side in sides]
        coords = linalg.nullspace(rows, ncols=d)
        nxt = tuple(
            tuple(sum(t[s] * core[s][u] for s in range(d)) for u in range(n))
            for t in coords)
        if len(nxt) == len(core):
            break
        core = nxt
    return core


def word_largest_invariant(basis, ops, n):
    """The largest subspace of the span of the `Fraction` vectors `basis`
    that each n x n matrix of `ops` keeps, with no fixed-point loop: the w
    whose images under every word in the matrices of length at most n stay
    in the span, i.e. a^T M_word w = 0 for each annihilator a of the span.
    The subspaces cut out by the words up to length k shrink with k until
    two agree, after which they stay, so length n suffices. Each level of
    rows a^T M_word is kept as a row-reduced basis."""
    level = linalg.nullspace(basis, ncols=n) if basis else linalg.identity(n)
    rows = list(level)
    for _ in range(n):
        level = linalg.row_space_basis(
            [tuple(sum(r[l] * op[l][c] for l in range(n)) for c in range(n))
             for r in level for op in ops])
        rows += level
    return linalg.nullspace(rows, ncols=n) if rows else linalg.identity(n)


# ---------------------------------------------------------------- completeness

def jointly_nilpotent(ops: tuple[Mat, ...], n: int) -> bool:
    """Flag chain U <- sum_i R_i(U) reaches 0.

    Joint nilpotency makes every linear combination of the operators
    nilpotent, hence det(R + I) = 1 identically.
    """
    space: tuple[Vec, ...] = linalg.identity(n)
    for _ in range(n + 1):
        if not space:
            return True
        images = [linalg.mat_vec(op, v) for op in ops for v in space]
        images = [v for v in images if any(v)]
        nxt = linalg.row_space_basis(images)
        if len(nxt) >= len(space):
            return False
        space = nxt
    return not space


def sampling_completeness(p: BilinearProduct, budget: int = 256,
                          seed=DEFAULT_SEED) -> CompletenessReport:
    """The former last rung of `geometric_completeness`: the unit vectors,
    the sums of two, their negatives, then seeded random probes, up to
    `budget` in all; "incomplete" at the first zero of det(R + I), else
    "unknown"."""
    n = p.dim
    probes = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        probes.append(tuple(e))
        probes.append(tuple(-x for x in e))
    for i in range(n):
        for j in range(i + 1, n):
            e = [Fraction(0)] * n
            e[i] = e[j] = Fraction(1)
            probes.append(tuple(e))
            probes.append(tuple(-x for x in e))
    rng = random.Random(seed)
    for _ in range(max(0, budget - len(probes))):
        probes.append(tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                            for _ in range(n)))
    for a_star in probes:
        if _psi_det(p, a_star) == 0:
            return CompletenessReport("incomplete", a_star, "sampling", "")
    return CompletenessReport(
        "unknown", None, "sampling",
        f"no determinant zero among {len(probes)} samples; "
        "completeness not certified")


def _rational_roots(poly) -> list:
    if poly.is_zero or poly.degree() <= 0:
        return []
    return sorted(r for r in sympy.roots(poly).keys() if r.is_Rational)


def rational_zero_search(q, syms) -> Vec | None:
    """Small exact search for a rational zero of q; None if not found."""
    candidates = []
    for i, s in enumerate(syms):
        restricted = q.subs({t: 0 for j, t in enumerate(syms) if j != i})
        poly = sympy.Poly(restricted, s)
        if poly.is_zero:
            candidates.append(tuple(
                Fraction(1) if j == i else Fraction(0)
                for j in range(len(syms))))
            continue
        for root in _rational_roots(poly):
            candidates.append(tuple(
                Fraction(root.p, root.q) if j == i else Fraction(0)
                for j in range(len(syms))))
    grid = [Fraction(k, 2) for k in range(-8, 9)]
    if len(syms) == 2:
        s0, s1 = syms
        for x in grid:
            restricted = sympy.Poly(q.subs(s0, sympy.Rational(x)), s1)
            if restricted.is_zero:
                candidates.append((Fraction(x), Fraction(0)))
                continue
            for root in _rational_roots(restricted):
                candidates.append((Fraction(x), Fraction(root.p, root.q)))
    for cand in candidates:
        if q.subs({s: sympy.Rational(c) for s, c in zip(syms, cand)}) == 0:
            return cand
    return None


def root_analysis_completeness(p: BilinearProduct):
    """The library's former exact completeness decision for ambient
    dimension <= 2, by sympy root analysis of det(R_s + I).

    Returns (verdict, witness, note). The determinant of psi is a
    polynomial q with q(0) = 1, so incompleteness is exactly the existence
    of a real zero of q.
    """
    n = p.dim
    q, syms = _det_poly(p)
    if n == 1:
        poly = sympy.Poly(q, syms[0])
        if poly.degree() <= 0:
            return "complete", None, "determinant is constant 1"
        root = _rational_roots(poly)
        if root:
            r = root[0]
            return "incomplete", (Fraction(r.p, r.q),), ""
        if sympy.real_roots(poly):
            return "incomplete", None, "real but irrational determinant zero"
        return "complete", None, "determinant has no real zeros"

    s0, s1 = syms
    poly1 = sympy.Poly(q, s1)
    coeffs = {d: c for (d,), c in poly1.terms()}
    a = sympy.expand(coeffs.get(2, sympy.Integer(0)))
    b = sympy.expand(coeffs.get(1, sympy.Integer(0)))
    c = sympy.expand(coeffs.get(0, sympy.Integer(0)))

    def wrap(verdict, witness=None, note=""):
        if witness is None and verdict == "incomplete":
            witness = rational_zero_search(q, syms)
            if witness is None:
                note = (note + "; " if note else "") + \
                    "zero exists but is irrational"
        return verdict, witness, note

    if a == 0 and b == 0:
        polyc = sympy.Poly(c, s0)
        if polyc.degree() <= 0:
            return "complete", None, "determinant is constant 1"
        if sympy.real_roots(polyc):
            return wrap("incomplete")
        return "complete", None, "determinant has no real zeros"
    if a == 0:
        # linear in s1 with nonconstant slope somewhere: pick s0 off the
        # root set of b and solve
        return wrap("incomplete")
    disc = sympy.expand(b * b - 4 * a * c)
    polyd = sympy.Poly(disc, s0)
    if polyd.is_zero:
        return wrap("incomplete", note="discriminant vanishes identically")
    droots = sympy.real_roots(polyd)
    if not droots and polyd.eval(0) < 0:
        # disc < 0 on all of R; any real root of a would force
        # disc = b^2 >= 0 there, so a is also zero-free and q never vanishes
        return "complete", None, "negative discriminant for every s0"
    lead = polyd.LC()
    if polyd.degree() % 2 == 1 or lead > 0:
        return wrap("incomplete")
    distinct = sorted(set(droots))
    if len(distinct) >= 2:
        return wrap("incomplete")
    rho = distinct[0]
    polya = sympy.Poly(a, s0)
    if polya.eval(rho) != 0:
        return wrap("incomplete")
    # a(rho) = 0 forces b(rho) = 0 via disc(rho) = 0; constant slice c decides
    if sympy.Poly(c, s0).eval(rho) == 0:
        return wrap("incomplete")
    return "complete", None, \
        "single isolated discriminant zero with nonvanishing constant term"


def left_matrix(p: BilinearProduct, x):
    """Matrix of y -> x·y (the library's former `BilinearProduct.left_matrix`)."""
    m = p.dim
    return tuple(
        tuple(sum(linalg.frac(x[i]) * p.gamma[i][j][k] for i in range(m))
              for j in range(m)) for k in range(m))


# ---------------------------------------------------------------- cohomology dims
#
# The library certifies each coboundary rank from a rank modulo a prime and
# delta² = 0, eliminating exactly only where that bound is not met. Below is
# its former route: exact `linalg.rank` of every dense coboundary matrix.

def dense_dims_from_deltas(name, coefficients, m, c_dims, deltas,
                           notes="") -> CohomologyReport:
    """deltas[q]: matrix of delta_q as list of rows (maps C^q -> C^{q+1})."""
    ranks = [linalg.rank(mat) for mat in deltas]
    out = []
    for q in range(len(c_dims)):
        rank_out = ranks[q] if q < len(deltas) else 0
        z = c_dims[q] - rank_out
        b = ranks[q - 1] if q >= 1 else 0
        out.append(DegreeDims(q, c_dims[q], z, b, z - b))
    return CohomologyReport(name, coefficients, m, tuple(out), notes)


def dict_check_square(after, first, q):
    """The library's former check of delta_{q+1} delta_q = 0: the product
    summed cell by cell into a dict, each row of delta_q read by
    `dict.get`."""
    for row in after.values():
        acc = {}
        for k, x in row.items():
            for col, y in first.get(k, {}).items():
                acc[col] = acc.get(col, 0) + x * y
        if any(acc.values()):
            raise ConformanceMismatch(
                f"coboundary squares to nonzero from degree {q}")


def dense_kv_cohomology_dims(algebra, coefficients, max_degree=3):
    c_dims = []
    deltas = []
    for q in range(max_degree + 1):
        rows, ncols, _ = kv_coboundary_matrix(algebra, coefficients, q)
        c_dims.append(ncols)
        deltas.append(rows)
    notes = ("degree-0 cochains restricted to the second-order-parallel "
             "elements" if coefficients == ADJOINT else
             "degree-0 scalar coboundary taken as zero; the source's "
             "degree-0 rule is not a map into 1-cochains")
    return dense_dims_from_deltas("kv", coefficients, algebra.dim, c_dims,
                                  deltas, notes)


def dense_ce_cohomology_dims(L, coefficients, max_degree=3):
    m = L.dim
    width = m if coefficients == ADJOINT else 1
    c_dims = []
    deltas = []
    for p in range(max_degree + 1):
        c_dims.append(comb(m, p) * width)
        rows, _, _ = ce_coboundary_matrix(L, coefficients, p)
        deltas.append(rows)
    return dense_dims_from_deltas("chevalley-eilenberg", coefficients, m,
                                  c_dims, deltas)


def dense_hochschild_dims(algebra, max_degree=2):
    c_dims = []
    deltas = []
    for q in range(max_degree + 1):
        rows, ncols, _ = hochschild_coboundary_matrix(algebra, q)
        c_dims.append(ncols)
        deltas.append(rows)
    return dense_dims_from_deltas("hochschild", ADJOINT, algebra.dim, c_dims,
                                  deltas)


# ---------------------------------------------------------------- rank search

GRID_LIMIT = 3
SAMPLE_COUNT = 64


def _random_coeff(rng: random.Random) -> Fraction:
    q = rng.randint(1, 16)
    return Fraction(rng.randint(-10 * q, 10 * q), q)


def full_pool_max_rank(space: LinearSolutionSpace, constraint: str = "none",
                       seed=DEFAULT_SEED) -> RankWitness:
    """The library's former `invariants.max_rank`, walking its whole pool:
    {-2, ..., 2}^dim up to dim GRID_LIMIT, otherwise SAMPLE_COUNT seeded
    rational samples. A full rank is the only rank it certifies."""
    if space.shape is None or len(space.shape) != 2:
        raise ValidationError("max_rank needs matrix-shaped elements")
    d = space.dim
    nr, nc = space.shape
    if d == 0:
        z = linalg.zeros(nr, nc)
        pd = False if constraint == "positive_definite" else None
        return RankWitness(0, (), z, True, positive_definite=pd)

    if d <= GRID_LIMIT:
        pool = [tuple(Fraction(x) for x in pt)
                for pt in iproduct((-2, -1, 0, 1, 2), repeat=d)]
    else:
        rng = random.Random(seed)
        pool = [tuple(_random_coeff(rng) for _ in range(d))
                for _ in range(SAMPLE_COUNT)]

    best_rank, best_coeffs, best_el = -1, None, None
    pd_coeffs, pd_el = None, None
    for coeffs in pool:
        el = linalg.unflatten(space.element(coeffs), nr, nc)
        r = linalg.rank(el)
        if r > best_rank:
            best_rank, best_coeffs, best_el = r, coeffs, el
        if (constraint == "positive_definite" and pd_el is None
                and nr == nc and el == linalg.transpose(el)
                and sylvester_positive_definite(el)):
            pd_coeffs, pd_el = coeffs, el
    full = best_rank == min(nr, nc)
    if constraint == "positive_definite":
        if pd_el is not None:
            return RankWitness(linalg.rank(pd_el), pd_coeffs, pd_el, True,
                               positive_definite=True)
        return RankWitness(best_rank, best_coeffs, best_el, full,
                           positive_definite=None)
    return RankWitness(best_rank, best_coeffs, best_el, full)


def symbolic_generic_rank(space: LinearSolutionSpace) -> int:
    """The library's former `invariants.generic_rank`: the rank of
    sum_s t_s B_s over Q(t), computed by sympy."""
    if space.dim == 0:
        return 0
    nr, nc = space.shape
    ts = sympy.symbols(f"t0:{space.dim}")
    mats = space.matrices()
    m = sympy.zeros(nr, nc)
    for t, b in zip(ts, mats):
        m += t * sympy.Matrix(nr, nc, lambda i, j: sympy.Rational(b[i][j]))
    return m.rank(simplify=True)


# ---------------------------------------------------------------- flat existence
#
# The library's former `invariants.flat_existence`: every probe pays a full
# FE* solve, and dim <= 2 is decided by sympy (a Groebner unit-ideal test,
# then `sympy.solve` with leftover parameters pinned on a small grid).

def _random_torsion_free_table(L: LieAlgebra, rng: random.Random):
    m = L.dim
    table = {}
    for i in range(m):
        for j in range(i, m):
            for k in range(m):
                v = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                table[i, j, k] = table[j, i, k] = v
    for i, j, k, v in L.sparse.items():
        table[i, j, k] += v / 2
    return BilinearProduct(
        m, SparseTable((*idx, v) for idx, v in table.items()))


def eager_flat_existence(L: LieAlgebra, candidates, budget: int = 64,
                         seed=DEFAULT_SEED) -> ExistenceVerdict:
    m = L.dim
    best = None
    for cand in candidates:
        conn = InvariantConnection(L, cand.gamma) \
            if isinstance(cand, InvariantConnection) else InvariantConnection(L, cand)
        if not torsion(conn).is_zero():
            raise TorsionMismatch(
                "candidate's commutator does not match the bracket")
        flat, _ = is_locally_flat(conn)
        if flat:
            return ExistenceVerdict("yes", invariant_value=0, witness=conn)
        d = r_b_defect(conn)
        best = d if best is None else min(best, d)

    rng = random.Random(seed)
    half = cartan_connection(L, "zero")
    probes = [half.gamma] + [_random_torsion_free_table(L, rng)
                             for _ in range(max(0, budget))]
    for gam in probes:
        conn = InvariantConnection(L, gam)
        flat, _ = is_locally_flat(conn)
        if flat:
            return ExistenceVerdict("yes", invariant_value=0, witness=conn)
        d = r_b_defect(conn)
        best = d if best is None else min(best, d)

    if m <= 2:
        verdict = sympy_flat_existence_small(L)
        if verdict is not None:
            return verdict
    note = "" if best is None else f"best defect over tried connections: {best}"
    return ExistenceVerdict("unknown", invariant_value=best, notes=note)


def sympy_flat_existence_small(L: LieAlgebra) -> ExistenceVerdict | None:
    """Exact decision for dim <= 2 via a polynomial system on the symbols."""
    m = L.dim
    if m == 0:
        return ExistenceVerdict("yes", invariant_value=0,
                                witness=InvariantConnection(L, zero_product(0)))
    c = {(i, j, k): v for i, j, k, v in L.sparse.items()}
    syms = {}
    for i in range(m):
        for j in range(i, m):
            for k in range(m):
                syms[(i, j, k)] = sympy.Symbol(f"s_{i}_{j}_{k}")

    def gamma(i, j, k):
        half = sympy.Rational(c.get((i, j, k), 0), 1) / 2
        key = (i, j, k) if i <= j else (j, i, k)
        return half + syms[key]

    eqs = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    # R(e_i,e_j)e_k, coefficient of e_l
                    expr = sympy.Integer(0)
                    for a in range(m):
                        expr += gamma(j, k, a) * gamma(i, a, l)
                        expr -= gamma(i, k, a) * gamma(j, a, l)
                        expr -= (sympy.Rational(c.get((i, j, a), 0), 1)
                                 * gamma(a, k, l))
                    eqs.append(sympy.expand(expr))
    eqs = [e for e in eqs if e != 0]
    variables = list(syms.values())
    if not eqs:
        sol = {v: sympy.Integer(0) for v in variables}
    else:
        gb = sympy.groebner(eqs, *variables, order="grevlex")
        if list(gb.exprs) == [sympy.Integer(1)]:
            return ExistenceVerdict(
                "no", certificate="flatness equations are unsolvable "
                "(Groebner basis is the unit ideal)")
        sols = sympy.solve(eqs, variables, dict=True)
        sol = None
        pins = [sympy.Integer(0), sympy.Integer(1), sympy.Integer(-1),
                sympy.Rational(1, 2)]
        for cand in sols:
            full = {v: cand.get(v, v) for v in variables}
            free = sorted({s for val in full.values()
                           for s in val.free_symbols}, key=str)
            # parametric branch: pin leftover parameters on a small grid
            for pin in ([{}] if not free else
                        [dict(zip(free, combo)) for combo in
                         iproduct(pins, repeat=len(free))]):
                trial = {v: val.subs(pin) for v, val in full.items()}
                if all(val.free_symbols == set() and val.is_rational
                       for val in trial.values()):
                    if all(e.subs(trial) == 0 for e in eqs):
                        sol = trial
                        break
            if sol is not None:
                break
        if sol is None:
            return None
    table = SparseTable(
        (i, j, k, Fraction(c.get((i, j, k), 0), 2)
         + Fraction(str(sol[syms[(min(i, j), max(i, j), k)]])))
        for i in range(m) for j in range(m) for k in range(m))
    conn = InvariantConnection(L, BilinearProduct(m, table))
    flat, _ = is_locally_flat(conn)
    if not flat:
        return None
    return ExistenceVerdict("yes", invariant_value=0, witness=conn)


# ---------------------------------------------------------------- gauge parts
#
# The library's former s^b and s^{*b}. The earlier one split every
# FE(nabla, nabla*) solution by `gauge.phi_split`, walked the endomorphisms
# Phi or Phi* with `max_rank`, and took the witness form as G times the
# walked element, the skew one re-checked on the dense connection matrices.
# The later one walked the forms G Phi or G Phi*, read through the bridge as
# the symmetric or skew halves of G phi (`phi_parts_space`); the library now
# walks the parallel forms of one parity, which that space equals.

def space_from_matrices(mats, m: int) -> LinearSolutionSpace:
    """The span of m x m matrices on the reduced row-echelon basis."""
    flat = [linalg.flatten(b) for b in mats]
    basis = linalg.row_space_basis(flat)
    return LinearSolutionSpace(m * m, *scaled(basis), shape=(m, m))


def phi_parts_space(conn: InvariantConnection, g: BilinearForm,
                    part: str) -> LinearSolutionSpace:
    """The library's former `invariants._phi_parts_space`: the forms
    b = g(Phi·,·) (part "sym") or g(Phi*·,·) (part "skew") of the
    FE(nabla, nabla*) solutions phi, read through the bridge: G Phi is the
    symmetric half of G phi and G Phi* its skew half."""
    dual = amari_dual(conn, g)
    sols = solve_gauge_equation(conn, dual)
    m, sign = conn.dim, 1 if part == "sym" else -1
    forms = []
    for phi in sols.matrices():
        b = linalg.mat_mul(g.matrix, phi)
        forms.append([[(b[i][j] + sign * b[j][i]) / 2 for j in range(m)]
                      for i in range(m)])
    return space_from_matrices(forms, m)


def phi_split_parts_space(conn: InvariantConnection, g: BilinearForm,
                          part: str) -> LinearSolutionSpace:
    """The library's former `invariants._phi_parts_space`: the span of the
    g-symmetric parts Phi (part "sym") or g-skew parts Phi* (part "skew")."""
    dual = amari_dual(conn, g)
    sols = solve_gauge_equation(conn, dual)
    parts = []
    for phi in sols.matrices():
        pair = phi_split(phi, g)
        parts.append(pair.phi_sym if part == "sym" else pair.phi_skew)
    return space_from_matrices(parts, conn.dim)


def dense_is_parallel(conn: InvariantConnection, b: Mat) -> bool:
    """The library's former recheck of a symplectic witness:
    Gamma_i^T b + b Gamma_i = 0 for every connection matrix Gamma_i."""
    return all(is_zero_matrix(linalg.mat_add(
        linalg.mat_mul(linalg.transpose(gi), b), linalg.mat_mul(b, gi)))
        for gi in conn.matrices)


def phi_split_s_b(L: LieAlgebra, g: BilinearForm, positive: bool = False):
    """The library's former `invariants.s_b`, on `phi_split_parts_space`,
    with the witness form G times the walked element."""
    m = L.dim
    plus = cartan_connection(L, "plus")
    space = phi_split_parts_space(plus, g, "sym")
    rw = max_rank(space, "positive_definite" if positive else "none")
    gap = m - rw.max_rank
    if rw.positive_definite if positive else gap == 0:
        witness = BilinearForm(m, linalg.mat_mul(g.matrix, rw.element),
                               SYMMETRIC)
        if not dense_is_parallel(plus, witness.matrix):
            raise ValidationError("witness form is not ad-invariant")
        if not (witness.is_positive_definite() if positive
                else witness.is_nondegenerate):
            raise ValidationError("witness form failed revalidation")
        return gap, ExistenceVerdict("yes", invariant_value=gap,
                                     witness=witness)
    notes = "no positive definite sample found" if positive else ""
    return gap, _no_or_unknown(space, m, rw, notes=notes)


def phi_split_s_star_b(conn: InvariantConnection, g: BilinearForm):
    """The library's former `invariants.s_star_b` (torsion not checked), on
    `phi_split_parts_space`, with the witness form G times the walked
    element."""
    m = conn.dim
    space = phi_split_parts_space(conn, g, "skew")
    rw = max_rank(space)
    gap = m - rw.max_rank
    if gap == 0:
        omega = linalg.mat_mul(g.matrix, rw.element)
        witness = BilinearForm(m, omega, SKEW)
        if not dense_is_parallel(conn, omega):
            raise ValidationError("symplectic witness is not parallel")
        if not witness.is_nondegenerate:
            raise ValidationError("symplectic witness is degenerate")
        return 0, ExistenceVerdict("yes", invariant_value=0, witness=witness)
    return gap, _no_or_unknown(space, m, rw)


# ---------------------------------------------------------------- condition rows
#
# The library's former condition rows of `invariants` and `gauge`, read
# from the dense structure-constant tables and connection matrices.

def dense_hessian_rows(conn):
    m = conn.dim
    c = conn.base.c
    gam = conn.gamma.gamma
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                row = [Fraction(0)] * (m * m)
                for l in range(m):
                    row[l * m + k] -= c[i][j][l]
                    row[j * m + l] -= gam[i][k][l]
                    row[i * m + l] += gam[j][k][l]
                if any(row):
                    rows.append(row)
    return rows


def dense_parallel_rows(conn):
    """The library's former rows of `gauge.parallel_forms`, read from the
    dense connection matrices, zero rows included."""
    m = conn.dim
    mats = conn.matrices
    rows = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                row = [Fraction(0)] * (m * m)
                for a in range(m):
                    row[a * m + k] += mats[i][a][j]
                    row[j * m + a] += mats[i][a][k]
                rows.append(row)
    return rows


def dense_ad_invariance_rows(L):
    m = L.dim
    rows = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                row = [Fraction(0)] * (m * m)
                for l in range(m):
                    row[l * m + k] += L.c[i][j][l]
                    row[j * m + l] += L.c[i][k][l]
                if any(row):
                    rows.append(row)
    return rows


def dense_skew_cocycle_rows(L):
    m = L.dim
    rows = []
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                row = [Fraction(0)] * (m * m)
                for l in range(m):
                    row[l * m + k] += L.c[i][j][l]
                    row[l * m + i] += L.c[j][k][l]
                    row[l * m + j] += L.c[k][i][l]
                if any(row):
                    rows.append(row)
    return rows


def full_parallel_rows(conn) -> list[dict[int, int]]:
    """The library's former `gauge.parallel_rows`, with no parity: every
    row (i, j, k) of b(nabla_i e_j, e_k) + b(e_j, nabla_i e_k) = 0 over the
    m x m entries of b, nonzero rows only, a complete check for any form."""
    m = conn.dim
    nz = conn.gamma.sparse.nonzeros
    return condition_rows(chain(
        (((i, j, k), a * m + k, n) for i, j, a, n in nz for k in range(m)),
        (((i, j, k), j * m + a, n) for i, k, a, n in nz for j in range(m))))


def full_hessian_rows(conn) -> list[dict[int, int]]:
    """The library's former Hessian rows, `cohomology.scalar_coboundary_rows`
    of the connection's product in degree 2 before it listed x < y only:
    every row (x, y, z) of the scalar KV delta_2, from the generator that
    `kv_cohomology_dims` reads."""
    return condition_rows(_kv_delta(conn.gamma, SCALAR, 2, ())[0])


# The library's former sparse rows of the Hessian and symplectic systems,
# written beside `cohomology`'s coboundaries, the symplectic verdict read
# from them and the former perfectness test. Once torsion vanishes, the
# scalar KV delta_2 rows are the Hessian rows up to sign and repetition;
# the trivial Chevalley-Eilenberg delta_2 rows are the cyclic sums up to
# sign on skew forms.

def hessian_rows(conn) -> list[dict[int, int]]:
    """Rows (i, j, k), i < j, of -g([e_i,e_j],e_k) - g(e_j, nabla_{e_i}e_k)
    + g(e_i, nabla_{e_j}e_k) = 0 over the flat m x m entries of g."""
    # both tables over c.den * gam.den
    m = conn.dim
    c, gam = conn.base.sparse, conn.gamma.sparse
    return condition_rows(chain(
        (((i, j, k), l * m + k, -n * gam.den)
         for i, j, l, n in c.nonzeros if i < j for k in range(m)),
        (((i, j, k), j * m + l, -n * c.den)
         for i, k, l, n in gam.nonzeros for j in range(i + 1, m)),
        (((i, j, k), i * m + l, n * c.den)
         for j, k, l, n in gam.nonzeros for i in range(j))))


def skew_cocycle_rows(L) -> list[dict[int, int]]:
    """Rows (i, j, k), i < j < k, of the cyclic sum of omega([e_i,e_j],e_k)
    over the flat m x m entries of omega."""
    # omega([e_a, e_b], e_k) enters row (i, j, k) when (a, b, k) is a
    # cyclic shift of (i, j, k)
    m = L.dim
    return condition_rows(
        (tuple(sorted((a, b, k))), l * m + k, n)
        for a, b, l, n in L.sparse.nonzeros for k in range(m)
        if a < b < k or b < k < a or k < a < b)


def cyclic_sum_symplectic_oracle(L) -> ExistenceVerdict:
    """The library's former `invariants.left_symplectic_oracle`, over
    `skew_cocycle_rows`."""
    m = L.dim
    rows = skew_cocycle_rows(L)
    space = form_space(rows, m, SKEW)
    if m % 2 == 1:
        return ExistenceVerdict(
            "no", invariant_value=m - max_rank(space).max_rank,
            certificate="skew forms in odd dimension are singular")
    rw = max_rank(space)
    if rw.max_rank == m:
        witness = BilinearForm(m, rw.element, SKEW)
        if not spaces.satisfies(
                rows, linalg.integer_row(linalg.flatten(rw.element))[0]):
            raise ValidationError("symplectic cocycle witness failed recheck")
        return ExistenceVerdict("yes", invariant_value=0, witness=witness)
    return _no_or_unknown(space, m, rw)


def rank_walk_bi_invariant_metric(L) -> ExistenceVerdict:
    """The library's former `invariants.bi_invariant_metric`: the
    ad-invariant symmetric forms walked by `max_rank` on every algebra, with
    no trace read first, the witness re-checked on the dense connection
    matrices."""
    m = L.dim
    plus = cartan_connection(L, "plus")
    space = parallel_forms(plus, SYMMETRIC)
    rw = max_rank(space, constraint="positive_definite")
    if rw.max_rank == m:
        if not dense_is_parallel(plus, rw.element):
            raise ValidationError("witness form is not parallel")
        notes = ("witness is positive definite"
                 if rw.positive_definite else
                 "witness is nondegenerate; definiteness not certified")
        return ExistenceVerdict(
            "yes", invariant_value=0,
            witness=BilinearForm(m, rw.element, SYMMETRIC), notes=notes)
    return _no_or_unknown(space, m, rw)


def _per_route_validate_parallel(conn, b: BilinearForm):
    w = linalg.integer_row(linalg.flatten(b.matrix))[0]
    if not spaces.satisfies(full_parallel_rows(conn), w):
        raise ValidationError("witness form is not parallel")


def _per_route_rebased(conn, sym: str) -> LinearSolutionSpace:
    space = parallel_forms(conn, sym)
    return LinearSolutionSpace(space.ambient_dim, *linalg.sparse_row_space(
        space.rows, space.ambient_dim), shape=space.shape)


def per_route_hessian_defect(conn):
    """The library's former `invariants.hessian_defect`, with its own walk,
    witness and re-check (the witness's membership of the walked space)."""
    space = hessian_cocycle_space(conn)
    m = conn.dim
    rw = max_rank(space)
    defect = m - rw.max_rank
    if defect == 0:
        if not space.contains(linalg.flatten(rw.element)):
            raise ValidationError("hessian witness escaped its space")
        witness = BilinearForm(m, rw.element, SYMMETRIC)
        return 0, ExistenceVerdict("yes", invariant_value=0, witness=witness)
    return defect, _no_or_unknown(space, m, rw)


def per_route_s_b(L, g: BilinearForm, positive: bool = False):
    """The library's former `invariants.s_b`, with its own walk, witness,
    re-check on `full_parallel_rows` and second rank of the witness."""
    if g.sym != SYMMETRIC:
        raise SingularMetric("auxiliary metric must be symmetric")
    if not g.is_nondegenerate:
        raise SingularMetric(f"auxiliary metric has rank {g.rank} < {g.dim}")
    m = L.dim
    plus = cartan_connection(L, "plus")
    space = _per_route_rebased(plus, SYMMETRIC)
    constraint = "positive_definite" if positive else "none"
    rw = max_rank(space, constraint=constraint)
    gap = m - rw.max_rank
    if rw.positive_definite if positive else gap == 0:
        witness = BilinearForm(m, rw.element, SYMMETRIC)
        _per_route_validate_parallel(plus, witness)
        if not (witness.is_positive_definite() if positive
                else witness.is_nondegenerate):
            raise ValidationError("witness form failed revalidation")
        return gap, ExistenceVerdict("yes", invariant_value=gap,
                                     witness=witness)
    notes = "no positive definite sample found" if positive else ""
    return gap, _no_or_unknown(space, m, rw, notes=notes)


def per_route_bi_invariant_metric(L) -> ExistenceVerdict:
    """The library's former `invariants.bi_invariant_metric`: the trace
    read first, then its own walk, witness and re-check on
    `full_parallel_rows`."""
    m = L.dim
    sp = L.sparse
    traces = _left_traces(sp, m)
    hit = next((i for i, t in enumerate(traces) if t), None)
    if hit is not None:
        return ExistenceVerdict("no", certificate=(
            f"tr ad(e_{hit}) = {Fraction(traces[hit], sp.den)} is not 0, so "
            f"the algebra is not unimodular; a nondegenerate ad-invariant "
            f"form makes every ad_x skew, of trace 0"))
    plus = cartan_connection(L, "plus")
    space = parallel_forms(plus, SYMMETRIC)
    rw = max_rank(space, constraint="positive_definite")
    if rw.max_rank == m:
        witness = BilinearForm(m, rw.element, SYMMETRIC)
        _per_route_validate_parallel(plus, witness)
        notes = ("witness is positive definite"
                 if rw.positive_definite else
                 "witness is nondegenerate; definiteness not certified")
        return ExistenceVerdict("yes", invariant_value=0, witness=witness,
                                notes=notes)
    return _no_or_unknown(space, m, rw)


def per_route_s_star_b(conn, g: BilinearForm,
                       require_torsion_free: bool = True):
    """The library's former `invariants.s_star_b`, with its own walk,
    witness, re-check on `full_parallel_rows` and second rank of the
    witness."""
    if g.sym != SYMMETRIC:
        raise SingularMetric("auxiliary metric must be symmetric")
    if not g.is_nondegenerate:
        raise SingularMetric(f"auxiliary metric has rank {g.rank} < {g.dim}")
    if require_torsion_free and not is_torsion_free(conn):
        hit = torsion(conn).first_nonzero()
        raise NotTorsionFree(f"torsion does not vanish (witness {hit[0][:3]})")
    m = conn.dim
    space = _per_route_rebased(conn, SKEW)
    rw = max_rank(space)
    gap = m - rw.max_rank
    if gap == 0:
        witness = BilinearForm(m, rw.element, SKEW)
        _per_route_validate_parallel(conn, witness)
        if not witness.is_nondegenerate:
            raise ValidationError("symplectic witness is degenerate")
        return 0, ExistenceVerdict("yes", invariant_value=0, witness=witness)
    return gap, _no_or_unknown(space, m, rw)


def per_route_left_symplectic_oracle(L) -> ExistenceVerdict:
    """The library's former `invariants.left_symplectic_oracle`, with its
    own walk, witness and re-check on the Chevalley-Eilenberg delta_2
    rows."""
    m = L.dim
    rows = cohomology.scalar_coboundary_rows(L, 2)
    space = form_space(rows, m, SKEW)
    if m % 2 == 1:
        return ExistenceVerdict(
            "no", invariant_value=m - max_rank(space).max_rank,
            certificate="skew forms in odd dimension are singular")
    rw = max_rank(space)
    if rw.max_rank == m:
        witness = BilinearForm(m, rw.element, SKEW)
        if not spaces.satisfies(
                rows, linalg.integer_row(linalg.flatten(rw.element))[0]):
            raise ValidationError("symplectic cocycle witness failed recheck")
        return ExistenceVerdict("yes", invariant_value=0, witness=witness)
    return _no_or_unknown(space, m, rw)


def bracket_rank_perfect(L) -> bool:
    """The library's former perfectness test of `invariants.flat_existence`:
    the brackets of the basis pairs span the algebra."""
    m = L.dim
    brackets = [[dict(row).get(k, 0) for k in range(m)]
                for (i, j), row in L.sparse.by_pair.items() if i < j]
    return bool(m) and linalg.rank(brackets) == m


# The library's former dense condition rows of `gauge`, `cohomology`,
# `forms` and `spencer`, one `Fraction` list per row, zero rows included
# where they were, and its former dense witness check (`check_rows`).

def operator_matrix(entries: dict, i: int, j: int, m: int) -> Mat:
    """Dense matrix (row l, column k) of the (i, j) operator in `entries`."""
    zero = Fraction(0)
    return tuple(tuple(entries.get((i, j, k, l), zero) for k in range(m))
                 for l in range(m))


def dense_gauge_equation_rows(conn, dual):
    """Rows of Gamma*_i phi - phi Gamma_i = 0, in (i, k, j) order."""
    m = conn.dim
    gl, gr = dual.matrices, conn.matrices
    rows = []
    for i in range(m):
        for k in range(m):
            for j in range(m):
                row = [Fraction(0)] * (m * m)
                for a in range(m):
                    row[a * m + j] += gl[i][k][a]
                for b in range(m):
                    row[k * m + b] -= gr[i][b][j]
                rows.append(row)
    return rows


def dense_fe_star_compatibility_rows(conn, ops):
    """Rows of the FE* compatibility operators F_ij, i < j, by
    `operator_matrix`."""
    m = conn.dim
    c = conn.base.sparse
    neg_c = SparseTable((i, j, k, Fraction(-v, c.den))
                        for i, j, k, v in c.nonzeros)
    d = two_sided_operator_defect(ops, neg_c, bracket=True)
    return [row for i in range(m) for j in range(i + 1, m)
            for row in operator_matrix(d, i, j, m + m * m)]


def dense_associator_rows(table: SparseTable, m: int):
    """Rows of (x·y)·xi = x·(y·xi), the conditions of
    `gauge.g_nabla_subalgebra` (table: the connection's) and of
    `cohomology.kv_degree_zero_space` (table: the product's)."""
    d = fractions_over(*operator_defect(table, table))
    return [row for i in range(m) for j in range(m)
            for row in operator_matrix(d, i, j, m)]


def dense_parity_rows(m: int, sym: str):
    sign = -1 if sym == "symmetric" else 1
    rows = []
    for a in range(m):
        for b in range(a, m):
            row = [Fraction(0)] * (m * m)
            row[a * m + b] += 1
            row[b * m + a] += sign
            if any(row):
                rows.append(row)
    return rows


def parity_rows(m: int, sym: str) -> list[dict[int, int]]:
    """Conditions on a flat (row-major) m x m matrix for one parity.

    e_ab - e_ba for symmetric forms and e_ab + e_ba (2 e_aa on the diagonal)
    for skew ones, over a <= b; zero rows are left out.
    """
    sign = -1 if sym == SYMMETRIC else 1
    return condition_rows(
        entry for a in range(m) for b in range(a, m)
        for entry in (((a, b), a * m + b, 1), ((a, b), b * m + a, sign)))


def parity_row_form_space(rows, m: int, sym: str) -> LinearSolutionSpace:
    """`forms.form_space` as the rows plus `parity_rows`, solved over all
    m x m entries."""
    return spaces.from_conditions(rows + parity_rows(m, sym), m * m,
                                  shape=(m, m))


def dense_prolong(a: SymbolSpace) -> SymbolSpace:
    """`spencer.prolong` over dense rows."""
    m, w, s = a.v_dim, a.w_dim, a.order
    amb = symbol_coord_dim(m, w, s)
    ann = linalg.nullspace(a.basis, ncols=amb)
    up = monomials(m, s + 1)
    nup = len(up)
    pos_up = {mono: i for i, mono in enumerate(up)}
    lower = monomials(m, s)
    nl = len(lower)
    rows = []
    for j in range(m):
        for lam in ann:
            row = [Fraction(0)] * (w * nup)
            for k in range(w):
                for p, mono in enumerate(lower):
                    coeff = lam[k * nl + p]
                    if coeff:
                        row[k * nup + pos_up[tuple(sorted(mono + (j,)))]] \
                            += coeff
            if any(row):
                rows.append(row)
    basis = linalg.nullspace(rows, ncols=w * nup)
    return SymbolSpace(m, w, *scaled(basis), s + 1)


def check_rows(rows, flatvec) -> bool:
    return all(sum(a * x for a, x in zip(row, flatvec)) == 0 for row in rows)


# ---------------------------------------------------------------- statmodel
#
# The library's former routes of `statmodel`: scores and Hessians of the log
# densities by central differences with one Richardson refinement (step
# GRAD_STEP), the curvature by central differences of the raised symbols
# (step CURV_STEP), every route evaluating the log densities at all of its
# points in one batched call. They read a model's log probabilities at each
# point as jets of order 0 (`point_log_probs`), so they differentiate the
# library's own families. A route checks the domain at the points it is
# asked about, as the library does, and not at their difference stencils.
# Results are nested lists of floats, as the library's are.

GRAD_STEP = 1e-4
CURV_STEP = 1e-3


def point_log_probs(model: FiniteStatModel, points) -> np.ndarray:
    """The log probabilities at each row of points (k, d), shape (k, n)."""
    return np.array([[x.value for x in model.log_probs(
        statmodel_coordinates([float(t) for t in row], 0))]
        for row in points])


def _richardson(f, h):
    return (4.0 * f(h / 2) - f(h)) / 3.0


class FiniteDifferenceJets(NamedTuple):
    """Jets at k points, stacked: probabilities (k, n), scores (k, n, d),
    Hessians of the log densities (k, n, d, d) or None, Fisher matrices
    (k, d, d), and their inverses (k, d, d) or None."""

    p: np.ndarray
    scores: np.ndarray
    hess: np.ndarray | None
    g: np.ndarray
    ginv: np.ndarray | None


def _stencil(theta: np.ndarray, hessians: bool) -> dict:
    """The points the differences at each row of `theta` (k, d) read, as
    blocks of shape (k, m, d): the row itself ("mid"), then for each step
    s the rows +- s e_i and, for Hessians, + s (e_i + e_j), + s (e_i - e_j),
    - s (e_i - e_j) and - s (e_i + e_j) over the pairs i < j."""
    at = theta[:, None, :]
    eye = np.eye(theta.shape[1])
    if hessians:
        i, j = np.triu_indices(len(eye), 1)
        both, skew = eye[i] + eye[j], eye[i] - eye[j]
    blocks = {"mid": at}
    for s in (GRAD_STEP / 2, GRAD_STEP):
        blocks[s, "+"] = at + s * eye
        blocks[s, "-"] = at - s * eye
        if hessians:
            blocks[s, "++"] = at + s * both
            blocks[s, "+-"] = at + s * skew
            blocks[s, "-+"] = at - s * skew
            blocks[s, "--"] = at - s * both
    return blocks


def finite_difference_jets(model: FiniteStatModel, centers,
                           hessians: bool = True,
                           raised: bool = False) -> FiniteDifferenceJets:
    """Jets at each of `centers`, from one evaluation of the log
    probabilities at every centre and its `_stencil`; each centre's
    normalization and, with `raised`, the condition of its Fisher matrix
    are checked in the centres' order."""
    n, d = model.n_outcomes, model.n_params
    centers = np.array(centers, dtype=float).reshape(-1, d)
    blocks = _stencil(centers, hessians)
    widths = [b.shape[1] for b in blocks.values()]
    points = np.concatenate(list(blocks.values()), axis=1)
    k = len(points)
    logp = point_log_probs(model, points.reshape(-1, d)).reshape(k, -1, n)
    logp = dict(zip(blocks, np.split(logp.transpose(0, 2, 1),
                                     np.cumsum(widths)[:-1], axis=2)))
    mid = logp["mid"]
    p = np.exp(mid[:, :, 0])
    scores = _richardson(
        lambda s: (logp[s, "+"] - logp[s, "-"]) / (2 * s), GRAD_STEP)
    hess = None
    if hessians:
        hess = np.zeros((k, n, d, d))
        diag = np.arange(d)
        hess[..., diag, diag] = _richardson(
            lambda s: (logp[s, "+"] - 2.0 * mid + logp[s, "-"]) / s ** 2,
            GRAD_STEP)
        i, j = np.triu_indices(d, 1)
        hess[..., i, j] = hess[..., j, i] = _richardson(
            lambda s: (logp[s, "++"] - logp[s, "+-"] - logp[s, "-+"]
                       + logp[s, "--"]) / (4 * s ** 2), GRAD_STEP)
    g = np.zeros((k, d, d))
    for x in range(n):
        s = scores[:, x]
        g += p[:, x, None, None] * (s[:, :, None] * s[:, None, :])
    g = 0.5 * (g + g.swapaxes(1, 2))
    cond = np.linalg.cond(g) if raised else None
    for a, t in enumerate(centers):
        total = sum(p[a].tolist())
        if abs(total - 1.0) > NORM_TOL:
            raise NonNormalized(
                f"probabilities sum to {total!r} at theta={t.tolist()}")
        if raised and cond[a] > 1e10:
            raise SingularFisher("fisher matrix is numerically singular")
    return FiniteDifferenceJets(p, scores, hess, g,
                                np.linalg.inv(g) if raised else None)


def _checked(model: FiniteStatModel, points) -> tuple[list, Exception]:
    """The points before the first one outside the domain, as arrays, and
    that point's error or None; the first point outside raises at once."""
    checked, fault = [], None
    for t in points:
        try:
            checked.append(np.array(model.check_domain(t)))
        except (ValidationError, DomainViolation) as exc:
            fault = exc
            break
    if not checked:
        raise fault
    return checked, fault


def fd_fisher_information(model: FiniteStatModel, theta) -> list:
    """Fisher matrix sum_x p (grad log p)(grad log p)^T."""
    theta = model.check_domain(theta)
    return finite_difference_jets(model, [theta], hessians=False).g[0] \
        .tolist()


def fd_fisher_via_hessian(model: FiniteStatModel, theta) -> np.ndarray:
    """Independent route -sum_x p hess(log p); agrees within tolerance."""
    theta = model.check_domain(theta)
    jets = finite_difference_jets(model, [theta])
    g = -np.einsum("x,xij->ij", jets.p[0], jets.hess[0])
    return 0.5 * (g + g.T)


def _fd_lowered(jets: FiniteDifferenceJets, alpha: float) -> np.ndarray:
    """Lowered symbols at each jet, of shape (k, d, d, d)."""
    k, n, d = jets.scores.shape
    low = np.zeros((k, d, d, d))
    w = (1.0 + alpha) / 2.0
    for x in range(n):
        s = jets.scores[:, x]
        core = jets.hess[:, x] + w * (s[:, :, None] * s[:, None, :])
        low += jets.p[:, x, None, None, None] \
            * (core[..., None] * s[:, None, None, :])
    return low


def _fd_raise(low: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    return np.array([np.einsum("ijl,lk->ijk", sym, gi)
                     for sym, gi in zip(low, ginv)])


def fd_alpha_christoffels(model: FiniteStatModel, theta, alpha: float,
                          raised: bool = False) -> list:
    """Lowered symbols sum_x p [hess_ij + (1+a)/2 s_i s_j] s_k, or with
    raised=True Gamma^k_ij stored as [i][j][k]."""
    theta = model.check_domain(theta)
    jets = finite_difference_jets(model, [theta], raised=raised)
    with np.errstate(over="ignore", invalid="ignore"):
        low = _fd_lowered(jets, alpha)
        return (_fd_raise(low, jets.ginv) if raised else low)[0].tolist()


def _curvature_stencil(theta, d: int, h: float):
    """theta, then theta + h e_i and theta - h e_i for each i."""
    yield theta
    for e in np.eye(d):
        yield theta + h * e
        yield theta - h * e


def _fd_curvature(symbols: np.ndarray, h: float) -> np.ndarray:
    """The curvature from the raised symbols at the points of
    `_curvature_stencil`, stacked in its order."""
    base = symbols[0]
    d = len(base)
    grad = (symbols[1::2] - symbols[2::2]) / (2 * h)
    r = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(d):
            r[i, j] = grad[i][j] - grad[j][i] \
                + np.einsum("ml,km->kl", base[i], base[j]) \
                - np.einsum("ml,km->kl", base[j], base[i])
    return r


def fd_alpha_curvature(model: FiniteStatModel, theta, alpha: float,
                       h: float | None = None) -> tuple[list, float]:
    """Curvature of the raised alpha symbols by central differences of
    step h (CURV_STEP by default); the tensor and its max-abs."""
    h = CURV_STEP if h is None else h
    theta = np.array(model.check_domain(theta))
    jets = finite_difference_jets(
        model, list(_curvature_stencil(theta, model.n_params, h)),
        raised=True)
    with np.errstate(over="ignore", invalid="ignore"):
        r = _fd_curvature(_fd_raise(_fd_lowered(jets, alpha), jets.ginv), h)
    return r.tolist(), float(np.max(np.abs(r)))


def fd_exponential_defect_probe(model: FiniteStatModel, grid,
                                tol: float = PROBE_TOL,
                                h: float | None = None) -> ProbeReport:
    """The probe over the curvature of `fd_alpha_curvature` at each grid
    point, from one batched evaluation of every stencil."""
    h = CURV_STEP if h is None else h
    grid = list(grid)
    if not grid:
        raise ValidationError("probe grid is empty")
    checked, fault = _checked(model, grid)
    d = model.n_params
    jets = finite_difference_jets(
        model, [u for t in checked for u in _curvature_stencil(t, d, h)],
        raised=True)
    if fault is not None:
        raise fault
    norms = {}
    torsion = 0.0
    for alpha in (-1.0, 1.0):
        low = _fd_lowered(jets, alpha)
        symbols = _fd_raise(low, jets.ginv).reshape(len(checked), 2 * d + 1,
                                                    d, d, d)
        worst = 0.0
        for at_t, low_t in zip(symbols, low[::2 * d + 1]):
            worst = max(worst, float(np.max(np.abs(_fd_curvature(at_t, h)))))
            torsion = max(torsion, float(
                np.max(np.abs(low_t - np.swapaxes(low_t, 0, 1)))))
        norms[alpha] = worst
    best = min(norms, key=lambda a: norms[a])
    verdict = min(norms.values()) < tol and torsion < tol
    return ProbeReport(
        exponential_like=verdict,
        best_alpha=best,
        curvature_norms=norms,
        torsion_max=torsion,
        tol=tol,
        grid_size=len(grid),
        notes="flat within tolerance at alpha = %+g" % best if verdict
        else "no flat member found at alpha = -1 or +1")


def levi_civita_symbols(model: FiniteStatModel, theta) -> np.ndarray:
    """Lowered Levi-Civita symbols of the Fisher metric, by Richardson
    refined differences of the library's metrics: an oracle for the
    alpha = 0 member."""
    theta = np.array(model.check_domain(theta))
    d = model.n_params
    eye = np.eye(d)

    def dg(step):
        return np.array([np.subtract(
            fisher_information(model, theta + step * e),
            fisher_information(model, theta - step * e)) / (2 * step)
            for e in eye])

    grad = _richardson(dg, CURV_STEP)
    return 0.5 * (grad + grad.transpose(1, 0, 2) - grad.transpose(1, 2, 0))


# ---------------------------------------------------------------- command line

def fresh_parse(argv):
    """argv parsed by a CLI parser built for this call alone."""
    return cli._build_parser.__wrapped__().parse_args(argv)


# The tensor path before it kept rationals as integers: the file parser
# built each value by Fraction(str), a defect tensor held one Fraction per
# nonzero entry, its report printed those, and every report was written by
# json.dumps.

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")


def fraction_parse(value) -> Fraction:
    """`io.parse_fraction` by Fraction(str)."""
    if isinstance(value, bool):
        raise ValidationError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ValidationError(
                f"bad rational literal {value!r}; use \"p\" or \"p/q\"")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {value!r}") from exc
    if isinstance(value, float):
        raise ValidationError(
            f"floats are not accepted as rationals: {value!r}; "
            "use a string like \"1/3\"")
    raise ValidationError(f"expected a rational, got {value!r}")


@dataclass(frozen=True)
class FractionDefectTensor:
    """`algebra.DefectTensor` keeping one Fraction per nonzero entry."""

    shape: tuple[int, ...]
    nonzeros: dict

    def __post_init__(self):
        object.__setattr__(self, "nonzeros", {
            idx: v for idx, v in sorted(self.nonzeros.items()) if v})

    def items(self):
        zero = Fraction(0)
        for idx in iproduct(*map(range, self.shape)):
            yield idx, self.nonzeros.get(idx, zero)

    @property
    def entries(self) -> tuple:
        zero, rank = Fraction(0), len(self.shape)

        def block(prefix):
            if len(prefix) == rank:
                return self.nonzeros.get(prefix, zero)
            return tuple(block(prefix + (i,))
                         for i in range(self.shape[len(prefix)]))
        return block(())

    def max_abs(self) -> Fraction:
        return max(map(abs, self.nonzeros.values()), default=Fraction(0))

    def is_zero(self) -> bool:
        return not self.nonzeros

    def first_nonzero(self):
        return next(iter(self.nonzeros.items()), None)


def fraction_defect_doc(t: FractionDefectTensor) -> dict:
    """`cli._defect_doc` printing each entry's Fraction."""
    entries = [[*idx, str(v)] for idx, v in t.nonzeros.items()]
    return {"zero": t.is_zero(), "max_abs": str(t.max_abs()),
            "entries": entries}


def json_report(doc) -> str:
    """A report as the CLI wrote it by json.dumps."""
    return json.dumps(doc, sort_keys=True, indent=2)


# ---------------------------------------------------------------- tables and
# tensors by index tuple
#
# The file path of a table and the defect tensors' build before they stayed
# in integers end to end: the reader turned each value into a Fraction
# (`fraction_entries`), the builders keyed each Fraction by its index tuple
# and compared repeats as Fractions (`fraction_lie_table`,
# `fraction_product_from_sparse`, and the conflict check of `fraction_table`,
# read by `fraction_load_table`), and each contraction turned its flat sums into
# index tuples (`unflatten_sums`) before mirroring (`skew_pairs`) and sorting
# them (`tuple_jacobi_defect`, `tuple_associator_defect`, ...).

def fraction_entries(doc: dict, key: str, arity: int, dim: int, path,
                     what: str = ""):
    """`io._sparse_entries` giving (index..., Fraction) tuples."""
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
        *idx, val = entry
        for i in idx:
            if not isinstance(i, int) or isinstance(i, bool) or \
                    not 0 <= i < dim:
                raise ValidationError(
                    f"{path}: index {i!r} out of range for dim {dim}")
        out.append((*idx, fraction_parse(val)))
    return out


def _fraction_check_entry(m: int, i, j, k) -> None:
    if not (0 <= i < m and 0 <= j < m and 0 <= k < m):
        raise ValidationError(f"index out of range in entry ({i},{j},{k})")


def fraction_product_from_sparse(m: int, entries) -> BilinearProduct:
    """`algebra.product_from_sparse` keying one Fraction per index; a later
    entry for an index replaces an earlier one."""
    table = {}
    for i, j, k, v in entries:
        _fraction_check_entry(m, i, j, k)
        table[i, j, k] = frac(v)
    return BilinearProduct(
        m, SparseTable((*idx, v) for idx, v in table.items()))


def fraction_lie_table(m: int, entries) -> SparseTable:
    """The table of `algebra.lie_from_sparse`, comparing repeats as
    Fractions."""
    c = {}
    seen = {}
    for i, j, k, v in entries:
        _fraction_check_entry(m, i, j, k)
        v = frac(v)
        if i == j:
            if v != 0:
                raise ValidationError(f"nonzero diagonal bracket ({i},{i},{k})")
            continue
        if (i, j, k) in seen and seen[(i, j, k)] != v:
            raise ValidationError(f"conflicting entries for ({i},{j},{k})")
        if (j, i, k) in seen and seen[(j, i, k)] != -v:
            raise ValidationError(
                f"entries ({i},{j},{k}) and ({j},{i},{k}) are not opposite")
        seen[(i, j, k)] = v
        c[i, j, k] = v
        c[j, i, k] = -v
    return SparseTable((*idx, v) for idx, v in c.items())


def fraction_table(m: int, entries, skew: bool,
                   where: str = "") -> SparseTable:
    """`SparseTable.from_parts` over (i, j, k, Fraction) entries: a
    bracket's table (skew) as `fraction_lie_table` builds it, else the
    former conflict check of `io.load_product` and a product's table."""
    if skew:
        return fraction_lie_table(m, entries)
    seen = {}
    for i, j, k, v in entries:
        if seen.setdefault((i, j, k), v) != v:
            raise ValidationError(
                f"{where}conflicting entries for ({i},{j},{k})")
    return fraction_product_from_sparse(m, entries).sparse


def fraction_load_table(doc: dict, path, skew: bool):
    """`io.load_algebra` (skew) or `io.load_product` of a parsed document,
    one Fraction per entry."""
    from koszul.io import _int_field
    dim = _int_field(doc, "dim", path)
    if skew:
        return LieAlgebra(dim, fraction_table(
            dim, fraction_entries(doc, "bracket", 3, dim, path), True))
    return BilinearProduct(dim, fraction_table(
        dim, fraction_entries(doc, "gamma", 3, dim, path), False,
        f"{path}: "))


def unflatten_sums(sums: dict, n: int) -> dict:
    """The nonzero sums of an accumulator keyed by ((i·n + j)·n + k)·n + l,
    keyed by (i, j, k, l)."""
    out = {}
    for key, x in sums.items():
        if x:
            key, l = divmod(key, n)
            key, k = divmod(key, n)
            out[(*divmod(key, n), k, l)] = x
    return out


def skew_pairs(half: dict) -> dict:
    """The tensor antisymmetric in its first two indices whose entries with
    i < j are `half` (as `operator_defect` returns in bracket mode)."""
    full = dict(half)
    full.update(((j, i, *rest), -v) for (i, j, *rest), v in half.items())
    return full


def tuple_jacobi_defect(m: int, c: SparseTable) -> DefectTensor:
    """`algebra.jacobi_defect` expanding each sorted entry into six index
    tuples (without its envelope)."""
    from koszul.algebra import _check_skew, _index_range
    _check_skew(c)
    n = _index_range(c)
    n2, n3 = n * n, n * n * n
    acc: dict = defaultdict(int)
    for p, q, a, v in c.nonzeros:
        if p >= q:
            continue
        pqr, rpq, prq = p * n3 + q * n2, p * n2 + q * n, p * n3 + q * n
        for r, l, w in c.by_first.get(a, ()):
            if r > q:
                acc[pqr + r * n + l] += v * w
            elif r < p:
                acc[r * n3 + rpq + l] += v * w
            elif p < r < q:
                acc[prq + r * n2 + l] -= v * w
    full: dict = {}
    for (p, q, r, l), x in unflatten_sums(acc, n).items():
        full.update({(p, q, r, l): x, (q, r, p, l): x, (r, p, q, l): x,
                     (q, p, r, l): -x, (p, r, q, l): -x, (r, q, p, l): -x})
    return DefectTensor.over((m,) * 4, full, c.den * c.den)


def tuple_associator_defect(p: BilinearProduct) -> DefectTensor:
    d, den = operator_defect(p.sparse, p.sparse)
    return DefectTensor.over((p.dim,) * 4, {idx: -n for idx, n in d.items()},
                             den)


def tuple_kv_anomaly(p: BilinearProduct) -> DefectTensor:
    from koszul.algebra import _commutator
    d, den = operator_defect(p.sparse, _commutator(p.sparse), bracket=True)
    return DefectTensor.over((p.dim,) * 4,
                             skew_pairs({idx: -n for idx, n in d.items()}),
                             den)


def tuple_torsion(conn: InvariantConnection) -> DefectTensor:
    g, c = conn.gamma.sparse, conn.base.sparse
    acc: dict = defaultdict(int)
    for i, j, k, n in g.nonzeros:
        acc[i, j, k] += n * c.den
        acc[j, i, k] -= n * c.den
    for i, j, k, n in c.nonzeros:
        acc[i, j, k] -= n * g.den
    return DefectTensor.over((conn.dim,) * 3, acc, g.den * c.den)


def tuple_curvature(conn: InvariantConnection) -> DefectTensor:
    d, den = operator_defect(conn.gamma.sparse, conn.base.sparse,
                             bracket=True)
    return DefectTensor.over((conn.dim,) * 4, skew_pairs(d), den)
