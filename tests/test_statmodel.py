import contextlib
import io
from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul import cli
from koszul.errors import (
    DomainViolation,
    KoszulError,
    NonNormalized,
    SingularFisher,
    ValidationError,
)
from koszul.statmodel import (
    CURV_STEP,
    EVALUATION_BOUND,
    PROBE_OFFSET,
    FiniteStatModel,
    alpha_christoffels,
    alpha_curvature,
    bernoulli,
    categorical_mean,
    categorical_natural,
    constant_family,
    curved4,
    default_theta,
    exponential_defect_probe,
    fisher_information,
    get_family,
)

from oracles import (fisher_bernoulli, fisher_categorical_mean,
                     levi_civita_symbols, per_outcome_model,
                     scalar_alpha_christoffels, scalar_alpha_curvature,
                     scalar_bernoulli, scalar_categorical_mean,
                     scalar_categorical_natural, scalar_constant_family,
                     scalar_curved4, scalar_exponential_defect_probe,
                     scalar_fisher_information, scalar_fisher_via_hessian)


def grid9(off=0.3):
    return [np.array([a, b]) for a in (-off, 0.0, off)
            for b in (-off, 0.0, off)]


def test_bernoulli_fisher_closed_form():
    b = bernoulli()
    assert abs(fisher_information(b, [0.5])[0, 0] - 4.0) < 1e-9
    for t in (0.1, 0.3, 0.62):
        got = fisher_information(b, [t])[0, 0]
        assert abs(got - fisher_bernoulli(t)) < 1e-8


def test_categorical_fisher_closed_form():
    c3 = categorical_mean(3)
    bary = default_theta(c3)
    assert np.max(np.abs(fisher_information(c3, bary)
                         - np.array([[6.0, 3.0], [3.0, 6.0]]))) < 1e-9
    theta = [0.2, 0.5]
    want = fisher_categorical_mean(theta)
    assert np.max(np.abs(fisher_information(c3, theta)
                         - np.array(want))) < 1e-7


def test_fisher_routes_agree():
    # the score product against -sum_x p hess(log p) on the per-outcome twin
    cases = [(bernoulli(), scalar_bernoulli(), [0.4]),
             (categorical_mean(3), scalar_categorical_mean(3), [0.2, 0.3]),
             (categorical_natural(3), scalar_categorical_natural(3),
              [0.3, -0.2]),
             (curved4(), scalar_curved4(), [0.5, -0.4])]
    for model, oracle_model, theta in cases:
        a = fisher_information(model, theta)
        b = scalar_fisher_via_hessian(oracle_model, theta)
        assert np.max(np.abs(a - b)) < 1e-6


def test_fisher_is_symmetric_positive_definite():
    for model, theta in [(categorical_mean(4), [0.2, 0.3, 0.25]),
                         (categorical_natural(3), [0.7, -1.1])]:
        g = fisher_information(model, theta)
        assert np.array_equal(g, g.T)
        assert np.min(np.linalg.eigvalsh(g)) > 0


def test_mixture_symbols_vanish_in_natural_coordinates():
    # alpha = -1 is the flat member for an exponential family in these
    # coordinates (weight (1+alpha)/2 kills the score product)
    nat = categorical_natural(3)
    for pt in ([0.0, 0.0], [0.3, -0.2], [1.5, 1.0]):
        low = alpha_christoffels(nat, pt, -1.0)
        assert np.max(np.abs(low)) < 1e-5


def test_levi_civita_matches_alpha_zero():
    b = bernoulli()
    assert np.max(np.abs(levi_civita_symbols(b, [0.3])
                         - alpha_christoffels(b, [0.3], 0.0))) < 1e-6
    nat = categorical_natural(3)
    assert np.max(np.abs(levi_civita_symbols(nat, [0.3, -0.2])
                         - alpha_christoffels(nat, [0.3, -0.2], 0.0))) < 1e-6


def test_alpha_family_is_affine_in_alpha():
    nat = categorical_natural(3)
    t = [0.4, -0.7]
    mid = alpha_christoffels(nat, t, 0.7) + alpha_christoffels(nat, t, -0.7) \
        - 2.0 * alpha_christoffels(nat, t, 0.0)
    assert np.max(np.abs(mid)) < 1e-12


def test_lowered_symbols_are_torsion_free():
    low = alpha_christoffels(curved4(), [0.5, -0.4], 0.3)
    assert np.max(np.abs(low - np.swapaxes(low, 0, 1))) < 1e-12


def test_exponential_family_probe_flat_on_grid():
    rep = exponential_defect_probe(categorical_natural(3), grid9())
    assert rep.exponential_like
    assert rep.grid_size == 9
    assert max(rep.curvature_norms.values()) < 1e-4
    assert rep.torsion_max < 1e-4
    assert rep.best_alpha in (-1.0, 1.0)


def test_curved_subfamily_is_flagged():
    rep = exponential_defect_probe(curved4(), grid9())
    assert not rep.exponential_like
    assert min(rep.curvature_norms.values()) > 0.1
    assert "no flat member" in rep.notes


@pytest.mark.parametrize("center", [(0.8, 0.8), (-0.8, 0.8), (0.8, -0.8),
                                    (-0.8, -0.8), (0.1, 0.2)])
def test_default_tolerance_separates_flat_from_curved(center):
    # the probe's finite-difference residue on the flat natural chart
    # reaches 3.3e-4 here; curved4 stays curved at the same points
    grid = [np.add(center, t) for t in grid9()]
    assert exponential_defect_probe(categorical_natural(3), grid) \
        .exponential_like
    assert not exponential_defect_probe(curved4(), grid).exponential_like


def test_one_parameter_curvature_is_exactly_zero():
    tensor, mx = alpha_curvature(bernoulli(), [0.4], 0.5)
    assert tensor.shape == (1, 1, 1, 1) and mx == 0.0


def test_constant_family_has_singular_fisher():
    cf = constant_family()
    assert np.max(np.abs(fisher_information(cf, [0.0]))) == 0.0
    with pytest.raises(SingularFisher):
        alpha_christoffels(cf, [0.0], 0.0, raised=True)


def test_domain_and_shape_guards():
    b = bernoulli()
    with pytest.raises(DomainViolation):
        fisher_information(b, [0.005])
    with pytest.raises(DomainViolation):
        fisher_information(b, [0.9999])
    with pytest.raises(ValidationError):
        fisher_information(b, [0.3, 0.4])
    with pytest.raises(ValidationError):
        exponential_defect_probe(b, [])


def _grid_fits(model, center, s):
    """Every point of center + {-s, 0, s}^n and its +-CURV_STEP stencil
    passes check_domain."""
    n = model.n_params
    steps = [np.zeros(n)] + [sign * CURV_STEP * np.eye(n)[i]
                             for i in range(n) for sign in (-1, 1)]
    try:
        for combo in product((-s, 0.0, s), repeat=n):
            for step in steps:
                model.check_domain(np.asarray(center) + combo + step)
    except DomainViolation:
        return False
    return True


@pytest.mark.parametrize("model, center, room", [
    (curved4(), [0.0, 0.0], True),
    (categorical_natural(3), [0.0, 0.0], True),
    (bernoulli(), [0.5], True),
    (bernoulli(), [0.2], False),
    (categorical_mean(3), [1 / 3, 1 / 3], False),
    (categorical_mean(3), [0.45, 0.4], False),
])
def test_probe_offset_is_the_largest_grid_that_fits(model, center, room):
    s = model.probe_offset(center)
    assert (s == PROBE_OFFSET) is room
    assert _grid_fits(model, center, s)
    assert room or not _grid_fits(model, center, s + 1e-6)


def test_probe_offset_refuses_a_point_with_no_room():
    with pytest.raises(DomainViolation):
        categorical_mean(3).probe_offset([0.5, 0.4895])


def test_non_normalized_model_is_rejected():
    bad = FiniteStatModel("bad", 2, 1,
                          lambda points: np.full((len(points), 2),
                                                 np.log(0.6)),
                          ((-1.0, 1.0),))
    with pytest.raises(NonNormalized):
        fisher_information(bad, [0.0])


def test_get_family_parsing():
    assert get_family("bernoulli").name == "bernoulli"
    assert get_family("categorical:3").n_outcomes == 3
    assert get_family("categorical-natural:4").n_params == 3
    assert get_family("curved4").n_outcomes == 4
    assert get_family("constant").n_params == 1
    with pytest.raises(ValidationError):
        get_family("poisson")
    with pytest.raises(ValidationError):
        get_family("categorical")
    with pytest.raises(ValidationError):
        categorical_mean(1)


def test_default_theta_values():
    assert np.allclose(default_theta(bernoulli()), [0.5])
    assert np.allclose(default_theta(categorical_mean(3)), [1 / 3, 1 / 3])
    assert np.allclose(default_theta(categorical_natural(3)), [0.0, 0.0])
    assert np.allclose(default_theta(curved4()), [0.0, 0.0])
    assert np.allclose(default_theta(constant_family()), [0.0])


# Each family, with its per-outcome oracle and a strategy for its points:
# the box less the domain margin and, on the simplex, points up to its
# edge, where the curvature stencil leaves the domain. The families with
# three parameters take the mixed Hessian over more than one pair.
DIFFERENTIAL_FAMILIES = {
    "bernoulli": (bernoulli(), scalar_bernoulli(),
                  st.tuples(st.floats(0.01, 0.99))),
    "categorical:3": (categorical_mean(3), scalar_categorical_mean(3),
                      st.floats(0.01, 0.98).flatmap(
                          lambda a: st.tuples(st.just(a),
                                              st.floats(0.01, 0.99 - a)))),
    "categorical:4": (categorical_mean(4), scalar_categorical_mean(4),
                      st.floats(0.01, 0.97).flatmap(
                          lambda a: st.floats(0.01, 0.98 - a).flatmap(
                              lambda b: st.tuples(
                                  st.just(a), st.just(b),
                                  st.floats(0.01, 0.99 - a - b))))),
    "categorical-natural:3": (categorical_natural(3),
                              scalar_categorical_natural(3),
                              st.tuples(*[st.floats(-3.9, 3.9)] * 2)),
    "categorical-natural:4": (categorical_natural(4),
                              scalar_categorical_natural(4),
                              st.tuples(*[st.floats(-3.9, 3.9)] * 3)),
    "curved4": (curved4(), scalar_curved4(),
                st.tuples(*[st.floats(-2.9, 2.9)] * 2)),
}


def _outcome(route, *args):
    """The route's value, or the type and message of the error it raised."""
    try:
        return route(*args)
    except KoszulError as exc:
        return type(exc), str(exc)


def _bitwise_equal(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, tuple) and len(a) == len(b):
        return all(_bitwise_equal(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


ROUTES = [
    (fisher_information, scalar_fisher_information, ()),
    (alpha_christoffels, scalar_alpha_christoffels, (False,)),
    (alpha_christoffels, scalar_alpha_christoffels, (True,)),
    (alpha_curvature, scalar_alpha_curvature, ()),
]


def _route_outcomes(model, oracle_model, theta, alpha):
    """(route, oracle) outcome pairs of every pointwise route at theta,
    the route on `model` and the oracle on its per-outcome `oracle_model`."""
    for route, oracle, extra in ROUTES:
        args = (theta,) if route is fisher_information \
            else (theta, alpha, *extra)
        yield (route.__name__, _outcome(route, model, *args),
               _outcome(oracle, oracle_model, *args))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(data=st.data(), name=st.sampled_from(sorted(DIFFERENTIAL_FAMILIES)),
       alpha=st.sampled_from((-1.0, 0.3, 1.0)))
def test_jet_routes_match_the_per_outcome_oracles(data, name, alpha):
    model, oracle_model, points = DIFFERENTIAL_FAMILIES[name]
    theta = list(data.draw(points))
    for route, got, want in _route_outcomes(model, oracle_model, theta,
                                            alpha):
        assert _bitwise_equal(got, want), route


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(data=st.data(), name=st.sampled_from(sorted(DIFFERENTIAL_FAMILIES)))
def test_probe_matches_the_per_outcome_oracle(data, name):
    model, oracle_model, points = DIFFERENTIAL_FAMILIES[name]
    center = data.draw(st.just(default_theta(model)) | points)
    try:
        grid = model.probe_grid(center)
    except DomainViolation:
        grid = [center]
    assert _bitwise_equal(
        _outcome(exponential_defect_probe, model, grid),
        _outcome(scalar_exponential_defect_probe, oracle_model, grid))


def _unnormalized():
    bad = per_outcome_model("bad", 2, 1, lambda theta, x: float(np.log(0.6)),
                            ((-1.0, 1.0),))
    return bad, bad


# each model comes with its per-outcome oracle
@pytest.mark.parametrize("model, theta, error", [
    ((constant_family(), scalar_constant_family()), [0.0], SingularFisher),
    (_unnormalized(), [0.0], NonNormalized),
    # inside the domain, but its +-CURV_STEP stencil is not
    ((bernoulli(), scalar_bernoulli()), [0.0105], DomainViolation),
    ((categorical_mean(3), scalar_categorical_mean(3)), [0.5, 0.4895],
     DomainViolation),
])
def test_jet_routes_raise_what_the_oracles_raise(model, theta, error):
    model, oracle_model = model
    outcomes = list(_route_outcomes(model, oracle_model, theta, 0.3))
    outcomes.append(("probe", _outcome(exponential_defect_probe, model,
                                       [theta]),
                     _outcome(scalar_exponential_defect_probe, oracle_model,
                              [theta])))
    for route, got, want in outcomes:
        assert _bitwise_equal(got, want), route
    # the curvature and the probe reach the faulty point in every case
    assert [got[0] for _, got, _ in outcomes[-2:]] == [error, error]


def _three_regimes():
    """A one-parameter model that is constant (a singular Fisher matrix)
    for theta <= -0.5, a Bernoulli model for -0.5 < theta < 0.5 and not
    normalized from 0.5 on."""

    def log_density(theta, x):
        t = float(theta[0])
        if t <= -0.5:
            return float(np.log(0.5))
        if t < 0.5:
            return float(np.log((1.0 + t) / 2 if x else (1.0 - t) / 2))
        return float(np.log(0.6))

    return per_outcome_model("regimes", 2, 1, log_density, ((-1.0, 1.0),))


@pytest.mark.parametrize("grid, error", [
    ([[0.0], [0.7], [-0.7]], NonNormalized),
    ([[0.0], [-0.7], [0.7]], SingularFisher),
    ([[0.0], [0.995], [0.7]], DomainViolation),
    ([[0.0], [0.7], [0.995]], NonNormalized),
    ([[0.0], [0.1, 0.2], [0.7]], ValidationError),
    ([[0.2], [0.7], [0.1, 0.2]], NonNormalized),
])
def test_the_probe_raises_the_first_fault_of_its_grid(grid, error):
    # the batched jets check their points in the order the per-point
    # routes reached them: the first fault on the grid wins
    model = _three_regimes()
    got = _outcome(exponential_defect_probe, model, grid)
    assert got[0] is error
    assert _bitwise_equal(
        got, _outcome(scalar_exponential_defect_probe, model, grid))


def _counted(model):
    """model whose log densities record each stack of points they are
    evaluated at."""
    calls = []

    def log_probs(points):
        calls.append(points.copy())
        return model.log_probs(points)

    return replace(model, log_probs=log_probs), calls


def _per_outcome_counted(model):
    """per-outcome model whose log density records each (point, outcome)
    it is evaluated at."""
    calls = []

    def log_density(theta, x):
        calls.append((theta.tobytes(), x))
        return model.log_density(theta, x)

    return per_outcome_model(model.name, model.n_outcomes, model.n_params,
                             log_density, model.domain, model.simplex), calls


def test_each_point_and_outcome_is_evaluated_once():
    model, calls = _counted(curved4())
    grid = model.probe_grid(default_theta(model))
    exponential_defect_probe(model, grid)
    # one batched call: 9 grid points x 5 curvature stencil points x 17
    # difference points, each once, against 15,768 (point, outcome)
    # evaluations by the per-outcome routes
    assert len(calls) == 1 and calls[0].shape == (9 * 5 * 17, 2)
    points = {row.tobytes() for row in calls[0]}
    assert len(points) == 9 * 5 * 17
    oracle_model, oracle_calls = _per_outcome_counted(scalar_curved4())
    scalar_exponential_defect_probe(oracle_model, grid)
    assert len(oracle_calls) == 15768
    assert {pt for pt, _ in oracle_calls} == points

    model, calls = _counted(bernoulli())
    alpha_curvature(model, [0.4], 0.5)
    # 3 stencil points x 5 difference points in one call (96 before)
    assert len(calls) == 1 and calls[0].shape == (3 * 5, 1)
    assert len({row.tobytes() for row in calls[0]}) == 3 * 5


# Each route just below and just above EVALUATION_BOUND on
# categorical-natural:n, with its count of log-probability values.
EVALUATION_EDGES = [
    ("fisher", 500, 998500, 1002501),
    ("curvature", 19, 911791, 1127100),
    ("probe", 5, 236925, 1619838),
]


def _evaluate(route, model):
    theta = default_theta(model)
    if route == "fisher":
        return fisher_information(model, theta)
    if route == "curvature":
        return alpha_curvature(model, theta, 0.0)
    return exponential_defect_probe(model, model.probe_grid(theta))


@pytest.mark.parametrize("route, n, below, above", EVALUATION_EDGES,
                         ids=[edge[0] for edge in EVALUATION_EDGES])
def test_jets_above_the_evaluation_bound_are_refused_before_any_point(
        route, n, below, above):
    model, calls = _counted(categorical_natural(n))
    _evaluate(route, model)
    assert sum(c.shape[0] for c in calls) * n == below <= EVALUATION_BOUND
    # a family too large for its Fisher matrix is refused as it is built
    calls = []
    with pytest.raises(ValidationError, match=f"estimated at {above},"):
        model, calls = _counted(categorical_natural(n + 1))
        _evaluate(route, model)
    assert calls == []
    if route == "probe":
        # an explicit grid is counted by the jets themselves
        grid = [list(p) for p in product((-0.3, 0.0, 0.3), repeat=n)]
        with pytest.raises(ValidationError, match=f"estimated at {above},"):
            exponential_defect_probe(model, grid)
        assert calls == []


def test_a_malformed_outcome_count_names_the_spec():
    for spec in ("categorical:x", "categorical-natural:2.5",
                 "categorical:3.0"):
        with pytest.raises(ValidationError, match=f"family '{spec}'"):
            get_family(spec)


# The CLI byte test's corpus: every operation on every family at its
# default point and off centre, and the refusals.
OFF_CENTRE = {"bernoulli": "0.3", "categorical:3": "0.2,0.5",
              "categorical-natural:3": "0.4,-0.7", "curved4": "0.5,-0.4",
              "constant": "0.2"}
CLI_CORPUS = [
    ["statmodel", "--family", family, "--op", op, "--alpha", "0.3"] + theta
    for family in OFF_CENTRE
    for op in ("fisher", "alpha", "curvature", "defect")
    for theta in ([], ["--theta=" + OFF_CENTRE[family]])
] + [
    ["statmodel", "--family", "categorical:3", "--op", "defect"],
    ["statmodel", "--family", "categorical:3", "--op", "defect",
     "--theta=0.5,0.4895"],
    ["statmodel", "--family", "curved4", "--op", "alpha", "--alpha", "nan"],
    ["statmodel", "--family", "bernoulli", "--op", "alpha", "--alpha=1e308"],
    ["statmodel", "--family", "bernoulli", "--op", "curvature",
     "--alpha=1e308"],
]

# the per-outcome routes and families, patched over the batched ones
ORACLE_STATMODEL = {
    "fisher_information": scalar_fisher_information,
    "alpha_christoffels": scalar_alpha_christoffels,
    "alpha_curvature": scalar_alpha_curvature,
    "exponential_defect_probe": scalar_exponential_defect_probe,
    "bernoulli": scalar_bernoulli,
    "categorical_mean": scalar_categorical_mean,
    "categorical_natural": scalar_categorical_natural,
    "curved4": scalar_curved4,
    "constant_family": scalar_constant_family,
}


def _main_bytes(argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("argv", CLI_CORPUS, ids=" ".join)
def test_cli_bytes_match_the_per_outcome_oracles(argv):
    got = _main_bytes(argv)
    with mock.patch.multiple("koszul.statmodel", **ORACLE_STATMODEL):
        want = _main_bytes(argv)
    assert got == want
