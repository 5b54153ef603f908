from dataclasses import replace
from itertools import product

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
    fisher_via_hessian,
    get_family,
    levi_civita_symbols,
)

from oracles import (fisher_bernoulli, fisher_categorical_mean,
                     scalar_alpha_christoffels, scalar_alpha_curvature,
                     scalar_exponential_defect_probe,
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
    cases = [(bernoulli(), [0.4]),
             (categorical_mean(3), [0.2, 0.3]),
             (categorical_natural(3), [0.3, -0.2]),
             (curved4(), [0.5, -0.4])]
    for model, theta in cases:
        a = fisher_information(model, theta)
        b = fisher_via_hessian(model, theta)
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
                          lambda theta, x: float(np.log(0.6)),
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


# Each family with a strategy for its points: the box less the domain
# margin and, on the simplex, points up to its edge, where the curvature
# stencil leaves the domain.
DIFFERENTIAL_FAMILIES = {
    "bernoulli": (bernoulli(), st.tuples(st.floats(0.01, 0.99))),
    "categorical:3": (categorical_mean(3), st.floats(0.01, 0.98).flatmap(
        lambda a: st.tuples(st.just(a), st.floats(0.01, 0.99 - a)))),
    "categorical-natural:3": (categorical_natural(3),
                              st.tuples(*[st.floats(-3.9, 3.9)] * 2)),
    "curved4": (curved4(), st.tuples(*[st.floats(-2.9, 2.9)] * 2)),
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
    (fisher_via_hessian, scalar_fisher_via_hessian, ()),
    (alpha_christoffels, scalar_alpha_christoffels, (False,)),
    (alpha_christoffels, scalar_alpha_christoffels, (True,)),
    (alpha_curvature, scalar_alpha_curvature, ()),
]


def _route_outcomes(model, theta, alpha):
    """(route, oracle) outcome pairs of every pointwise route at theta."""
    for route, oracle, extra in ROUTES:
        args = (model, theta) if route in (fisher_information,
                                           fisher_via_hessian) \
            else (model, theta, alpha, *extra)
        yield route.__name__, _outcome(route, *args), _outcome(oracle, *args)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(data=st.data(), name=st.sampled_from(sorted(DIFFERENTIAL_FAMILIES)),
       alpha=st.sampled_from((-1.0, 0.3, 1.0)))
def test_jet_routes_match_the_per_outcome_oracles(data, name, alpha):
    model, points = DIFFERENTIAL_FAMILIES[name]
    theta = list(data.draw(points))
    for route, got, want in _route_outcomes(model, theta, alpha):
        assert _bitwise_equal(got, want), route


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(data=st.data(), name=st.sampled_from(sorted(DIFFERENTIAL_FAMILIES)))
def test_probe_matches_the_per_outcome_oracle(data, name):
    model, points = DIFFERENTIAL_FAMILIES[name]
    center = data.draw(st.just(default_theta(model)) | points)
    try:
        grid = cli._probe_grid(model, center)
    except DomainViolation:
        grid = [center]
    assert _bitwise_equal(
        _outcome(exponential_defect_probe, model, grid),
        _outcome(scalar_exponential_defect_probe, model, grid))


def _unnormalized():
    return FiniteStatModel("bad", 2, 1, lambda theta, x: float(np.log(0.6)),
                           ((-1.0, 1.0),))


@pytest.mark.parametrize("model, theta, error", [
    (constant_family(), [0.0], SingularFisher),
    (_unnormalized(), [0.0], NonNormalized),
    # inside the domain, but its +-CURV_STEP stencil is not
    (bernoulli(), [0.0105], DomainViolation),
    (categorical_mean(3), [0.5, 0.4895], DomainViolation),
])
def test_jet_routes_raise_what_the_oracles_raise(model, theta, error):
    outcomes = list(_route_outcomes(model, theta, 0.3))
    outcomes.append(("probe", _outcome(exponential_defect_probe, model,
                                       [theta]),
                     _outcome(scalar_exponential_defect_probe, model,
                              [theta])))
    for route, got, want in outcomes:
        assert _bitwise_equal(got, want), route
    # the curvature and the probe reach the faulty point in every case
    assert [got[0] for _, got, _ in outcomes[-2:]] == [error, error]


def _counted(model):
    """model whose log density records each (point, outcome) it is
    evaluated at."""
    calls = []

    def log_density(theta, x):
        calls.append((theta.tobytes(), x))
        return model.log_density(theta, x)

    return replace(model, log_density=log_density), calls


def test_each_point_and_outcome_is_evaluated_once():
    model, calls = _counted(curved4())
    grid = cli._probe_grid(model, default_theta(model))
    exponential_defect_probe(model, grid)
    # 9 grid points x 5 curvature stencil points x 17 difference points
    # x 4 outcomes, against 15,768 evaluations by the per-outcome routes
    assert len(calls) == len(set(calls)) == 9 * 5 * 17 * 4
    model, oracle_calls = _counted(curved4())
    scalar_exponential_defect_probe(model, grid)
    assert len(oracle_calls) == 15768 and set(oracle_calls) == set(calls)

    model, calls = _counted(bernoulli())
    alpha_curvature(model, [0.4], 0.5)
    # 3 stencil points x 5 difference points x 2 outcomes (96 before)
    assert len(calls) == len(set(calls)) == 3 * 5 * 2
