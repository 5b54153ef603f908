"""Exact gauge-theoretic invariants of invariant Koszul connections.

Rational-arithmetic library for left-invariant connections on
finite-dimensional Lie algebras: fundamental-equation solution spaces,
flatness/Hessian/bi-invariant-metric/symplectic invariants with witnessed
verdicts, KV/Chevalley-Eilenberg/Hochschild cohomology, symbol
prolongation and involutivity, closed-form flat models, and a small
floating-point information-geometry bench.

Pure Python: row reduction runs on a fraction-free integer kernel that
works on nonzero entries only (koszul._kernel.echelon).
"""

from koszul.algebra import (
    BilinearProduct,
    DefectTensor,
    LieAlgebra,
    abelian,
    associator_defect,
    commutator_bracket,
    jacobi_defect,
    killing_form,
    kv_anomaly,
    lie_from_sparse,
    product_from_sparse,
    zero_product,
)
from koszul.connections import (
    InvariantConnection,
    alpha_connection,
    amari_dual,
    cartan_connection,
    curvature,
    is_locally_flat,
    is_torsion_free,
    torsion,
)
from koszul.errors import KoszulError
from koszul.forms import BilinearForm, form_space, identity_form
from koszul.gauge import (
    FeStarSolutions,
    GaugePair,
    g_nabla_subalgebra,
    kernel_image_split,
    parallel_forms,
    phi_split,
    solve_fe_star,
    solve_gauge_equation,
)
from koszul.invariants import (
    ExistenceVerdict,
    RankWitness,
    bi_invariant_metric,
    flat_existence,
    hessian_cocycle_space,
    hessian_defect,
    left_symplectic_oracle,
    max_rank,
    r_b_defect,
    s_b,
    s_star_b,
)
from koszul.spaces import LinearSolutionSpace
from koszul.spencer import (
    SymbolSpace,
    cartan_test,
    find_quasi_regular_basis,
    is_involutive,
    prolong,
    spencer_cohomology,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
