import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from koszul import linalg
from koszul.algebra import (
    LieAlgebra,
    SparseTable,
    abelian,
    associator_defect,
    commutator_bracket,
    conjugate_lie,
    conjugate_product,
    direct_sum_products,
    jacobi_defect,
    killing_form,
    kv_anomaly,
    lie_from_sparse,
    product_from_sparse,
    zero_product,
)
from koszul.catalog import aff1, heisenberg, heisenberg_kv, sl2, so3
from koszul.connections import cartan_connection, curvature
from koszul.errors import JacobiViolation, ValidationError
from koszul.forms import form_from_sparse, identity_form

import conftest
from conftest import rand_fraction, rand_invertible
from oracles import (
    associator_entry,
    dense_lie,
    dense_product,
    jacobi_entry,
    killing_entry,
    kv_anomaly_entry,
    left_matrix,
    sparse_of,
    vec_add,
    vec_scale,
    vec_sub,
)


def random_table(rng, m):
    return tuple(
        tuple(tuple(rand_fraction(rng) for _ in range(m)) for _ in range(m))
        for _ in range(m))


def random_skew_table(rng, m):
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(m):
                v = rand_fraction(rng)
                c[i][j][k] = v
                c[j][i][k] = -v
    return tuple(tuple(tuple(r) for r in pl) for pl in c)


def test_jacobi_defect_matches_oracle(rng):
    for _ in range(20):
        m = rng.randint(1, 3)
        c = random_skew_table(rng, m)
        d = dict(jacobi_defect(m, sparse_of(c)).items())
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    for l in range(m):
                        assert d[(i, j, k, l)] == jacobi_entry(c, i, j, k, l)


def test_lie_constructor_enforces_axioms():
    with pytest.raises(ValidationError):
        dense_lie(2, (((Fraction(1), Fraction(0)),) * 2,) * 2)
    # skew but failing Jacobi: [[e2,e0],e1] = [e0,e1] = e2 survives the cyclic sum
    with pytest.raises(JacobiViolation):
        lie_from_sparse(3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 0, 1)])
    with pytest.raises(ValidationError):
        LieAlgebra(2, SparseTable([(0, 1, 2, 1), (1, 0, 2, -1)]))


def test_catalog_algebras_satisfy_jacobi():
    for L in (abelian(3), heisenberg(), so3(), sl2(), aff1()):
        assert jacobi_defect(L.dim, L.sparse).is_zero()


def test_bracket_bilinearity_and_skewness(rng):
    L = so3()
    for _ in range(10):
        u = [rand_fraction(rng) for _ in range(3)]
        v = [rand_fraction(rng) for _ in range(3)]
        w = [rand_fraction(rng) for _ in range(3)]
        a = rand_fraction(rng)
        lhs = L.bracket(vec_add(u, vec_scale(a, v)), w)
        rhs = vec_add(L.bracket(u, w), vec_scale(a, L.bracket(v, w)))
        assert lhs == rhs
        assert L.bracket(u, v) == vec_scale(-1, L.bracket(v, u))


def test_associator_and_kv_anomaly_match_oracles(rng):
    for _ in range(15):
        m = rng.randint(1, 3)
        p = dense_product(m, random_table(rng, m))
        da = dict(associator_defect(p).items())
        dk = dict(kv_anomaly(p).items())
        for idx in product(range(m), repeat=4):
            assert da[idx] == associator_entry(p.gamma, *idx)
            assert dk[idx] == kv_anomaly_entry(p.gamma, *idx)


def test_admissible_pools():
    for p in conftest.kv_pool():
        assert p.is_kv
    for p in conftest.assoc_pool():
        assert p.is_associative
    # associative implies left-symmetric; the converse fails, e.g. e1·e0 = e0
    p = product_from_sparse(2, [(1, 0, 0, 1)])
    assert p.is_kv and not p.is_associative


def test_commutator_of_kv_product_is_lie(rng):
    for _ in range(10):
        p = conftest.random_kv(rng)
        L = commutator_bracket(p)  # constructor re-checks Jacobi
        for i in range(p.dim):
            for j in range(p.dim):
                e = linalg.identity(p.dim)
                want = vec_sub(p.mult(e[i], e[j]), p.mult(e[j], e[i]))
                assert L.bracket(e[i], e[j]) == want


def test_left_right_matrices(rng):
    p = heisenberg_kv()
    e = linalg.identity(3)
    for i in range(3):
        assert p.left_matrices[i] == left_matrix(p, e[i])
        for j in range(3):
            col_l = tuple(p.left_matrices[i][k][j] for k in range(3))
            assert col_l == p.mult(e[i], e[j])
            col_r = tuple(p.right_matrix(e[j])[k][i] for k in range(3))
            assert col_r == p.mult(e[i], e[j])


def test_killing_form_values_and_invariance(rng):
    K = killing_form(so3())
    assert K.matrix == linalg.mat_scale(-2, linalg.identity(3))
    for L in (heisenberg(), sl2(), aff1()):
        K = killing_form(L)
        m = L.dim
        for i in range(m):
            for j in range(m):
                assert K.matrix[i][j] == killing_entry(L.c, i, j)
        # ad-invariance: K([x,y],z) + K(y,[x,z]) = 0
        for _ in range(5):
            x = [rand_fraction(rng) for _ in range(m)]
            y = [rand_fraction(rng) for _ in range(m)]
            z = [rand_fraction(rng) for _ in range(m)]
            s = K.evaluate(L.bracket(x, y), z) + K.evaluate(y, L.bracket(x, z))
            assert s == 0
    # nilpotent: Killing form of the Heisenberg algebra is degenerate
    assert not killing_form(heisenberg()).is_nondegenerate


def test_conjugation_transports_the_product(rng):
    for _ in range(10):
        p = conftest.random_kv(rng)
        m = p.dim
        pm = rand_invertible(m, rng)
        q = conjugate_product(p, pm)
        pinv = linalg.inverse(pm)
        u = [rand_fraction(rng) for _ in range(m)]
        v = [rand_fraction(rng) for _ in range(m)]
        lhs = q.mult(u, v)
        rhs = linalg.mat_vec(
            pinv, p.mult(linalg.mat_vec(pm, u), linalg.mat_vec(pm, v)))
        assert lhs == tuple(rhs)
        assert q.is_kv


def test_conjugation_preserves_lie_structure(rng):
    for _ in range(8):
        L = conftest.random_lie(rng, max_dim=3)
        q = conjugate_lie(L, rand_invertible(L.dim, rng))
        assert jacobi_defect(q.dim, q.sparse).is_zero()


def test_direct_sum_blocks_do_not_interact():
    p = direct_sum_products(heisenberg_kv(), zero_product(2))
    assert p.dim == 5
    e = linalg.identity(5)
    for i in range(3):
        for j in range(3, 5):
            assert p.mult(e[i], e[j]) == (Fraction(0),) * 5
            assert p.mult(e[j], e[i]) == (Fraction(0),) * 5
    assert p.is_kv


def test_product_from_sparse_rejects_bad_indices():
    with pytest.raises(ValidationError):
        product_from_sparse(2, [(0, 0, 2, 1)])


# Large sparse inputs. Each check runs in a fresh interpreter whose address
# space is capped at 1 GiB, so work that is not refused up front ends in a
# MemoryError there instead of exhausting the machine's memory.

SRC = Path(__file__).resolve().parents[1] / "src"


def run_capped(code: str, *args) -> subprocess.CompletedProcess:
    prelude = ("import resource\n"
               "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n")
    return subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code), *map(str, args)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=300)


def test_large_sparse_lie_algebra_validates_and_round_trips(tmp_path):
    # dim 2000 with three brackets: a dense table would hold 8e9 cells
    result = run_capped("""
        import json, sys
        from koszul import io as kio
        from koszul.algebra import jacobi_defect, lie_from_sparse
        from koszul.errors import JacobiViolation, ValidationError

        m = 2000
        L = lie_from_sparse(m, [(0, 1, 1999, 1), (2, 3, 1999, "1/2"),
                                (10, 11, 11, -3)])
        assert jacobi_defect(m, L.sparse).is_zero()
        doc = kio.dump_algebra(L)
        assert doc == {"dim": m, "bracket": [[0, 1, 1999, "1"],
                                             [2, 3, 1999, "1/2"],
                                             [10, 11, 11, "-3"]]}
        with open(sys.argv[1], "w") as fh:
            json.dump(doc, fh)
        assert kio.load_algebra(sys.argv[1]) == L
        try:
            lie_from_sparse(m, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 0, 1)])
        except JacobiViolation as exc:
            print(exc)
        for view in ("c", "ad_matrices"):
            try:
                getattr(L, view)
            except ValidationError as exc:
                print(exc)
    """, tmp_path / "large.json")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "Jacobi identity fails on basis triple (0, 1, 2)"] + [
        "refused: dense table cells estimated at 8000000000, above the "
        "bound of 1000000"] * 2


def test_contraction_over_the_pair_bound_is_refused_with_exit_2():
    # affine:27 is dim 756; its Jacobi check would visit 1,099,359 pairs
    # with p < q
    result = run_capped("""
        import sys
        from koszul import cli
        sys.exit(cli.main(["check-lie", "--catalog", "affine:27"]))
    """)
    assert result.returncode == 2, result.stderr
    error = json.loads(result.stdout)["error"]
    assert error == {"type": "ValidationError", "message": (
        "refused: Jacobi defect accumulator entries estimated at 1099359, "
        "above the bound of 1000000")}


@pytest.mark.parametrize("doc, argv", [
    ({"dim": 10 ** 5, "sym": "symmetric", "entries": []},
     ["--catalog", "so3", "--cartan", "zero", "--metric"]),
    # the metric defaults to the identity form of the algebra's dim
    ({"dim": 10 ** 5, "bracket": []}, ["--cartan", "zero", "--algebra"]),
])
def test_dense_form_over_the_cell_bound_is_refused_with_exit_2(
        tmp_path, doc, argv):
    # a few bytes of file would ask for 10^10 dense form cells
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    result = run_capped("""
        import sys
        from koszul import cli
        sys.exit(cli.main(["connection", "--op", "dual", *sys.argv[1:]]))
    """, *argv, path)
    assert result.returncode == 2, result.stderr
    error = json.loads(result.stdout)["error"]
    assert error == {"type": "ValidationError", "message": (
        "refused: dense form cells estimated at 10000000000, above the "
        "bound of 1000000")}


def test_dense_form_at_the_cell_bound_is_not_refused():
    # dim 1000 is 10^6 cells, the bound itself
    assert form_from_sparse(1000, "skew", [(0, 999, 1)]).entries[999][0] == -1
    for build in (identity_form, lambda m: form_from_sparse(m, "skew", [])):
        with pytest.raises(ValidationError, match="estimated at 1002001"):
            build(1001)


def test_dense_lie_algebra_of_dim_17_is_not_refused():
    # so3^5 + R^2 in a dense integer basis: its Jacobi check and the
    # curvature of its Cartan zero connection visit over 10^6 pairs of
    # nonzeros, into at most 17^4 = 83,521 accumulator entries
    m = 17
    L = lie_from_sparse(m, [(3 * s + i, 3 * s + j, 3 * s + k, 1)
                            for s in range(5)
                            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))])
    pmat = linalg.mat([[(3 * i + 5 * j) % 7 - 3 + 9 * (i == j)
                        for j in range(m)] for i in range(m)])
    dense = conjugate_lie(L, pmat)
    assert len(dense.sparse.nonzeros) == 4624
    assert not curvature(cartan_connection(dense, "zero")).is_zero()


def test_sparse_tables_compare_by_value():
    a = SparseTable([(1, 0, 0, Fraction(2, 4)), (0, 1, 1, 3), (0, 0, 0, 0)])
    b = SparseTable([(0, 1, 1, Fraction(6, 2)), (1, 0, 0, Fraction(1, 2))])
    assert a == b and hash(a) == hash(b)
    assert a.nonzeros == ((0, 1, 1, 6), (1, 0, 0, 1)) and a.den == 2
    assert a != SparseTable([(0, 1, 1, 3)])
    assert product_from_sparse(2, [(1, 0, 0, "1/2"), (0, 1, 1, 3)]) == \
        dense_product(2, a.dense(2))
