from itertools import product

import numpy as np
import pytest

from koszul.errors import (
    DomainViolation,
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

from oracles import fisher_bernoulli, fisher_categorical_mean


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
