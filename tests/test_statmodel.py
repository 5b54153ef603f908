import contextlib
import io
import json
import math
from dataclasses import asdict, replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul import cli, statmodel
from koszul.errors import (
    DomainViolation,
    KoszulError,
    NonNormalized,
    SingularFisher,
    ValidationError,
)
from koszul.statmodel import (
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
    log,
)

from oracles import (CURV_STEP, fd_alpha_christoffels, fd_alpha_curvature,
                     fd_exponential_defect_probe, fd_fisher_information,
                     fd_fisher_via_hessian, fisher_bernoulli,
                     fisher_categorical_mean, fisher_categorical_natural,
                     levi_civita_symbols)


def grid9(off=0.3):
    return [np.array([a, b]) for a in (-off, 0.0, off)
            for b in (-off, 0.0, off)]


def _max_diff(a, b) -> float:
    return float(np.max(np.abs(np.subtract(a, b))))


def test_bernoulli_fisher_closed_form():
    b = bernoulli()
    assert abs(fisher_information(b, [0.5])[0][0] - 4.0) < 1e-12
    for t in (0.1, 0.3, 0.62):
        want = fisher_bernoulli(t)
        assert abs(fisher_information(b, [t])[0][0] - want) < 1e-12 * want


def test_categorical_fisher_closed_form():
    c3 = categorical_mean(3)
    bary = default_theta(c3)
    assert _max_diff(fisher_information(c3, bary),
                     [[6.0, 3.0], [3.0, 6.0]]) < 1e-12
    theta = [0.2, 0.5]
    assert _max_diff(fisher_information(c3, theta),
                     fisher_categorical_mean(theta)) < 1e-12


@pytest.mark.parametrize("theta", [[0.0, 0.0], [0.4, -0.7], [2.5, -3.1]])
def test_natural_categorical_fisher_is_diag_p_minus_p_pt(theta):
    assert _max_diff(fisher_information(categorical_natural(3), theta),
                     fisher_categorical_natural(theta)) < 1e-12


def test_fisher_routes_agree():
    # the score product against -sum_x p hess(log p) by differences
    cases = [(bernoulli(), [0.4]), (categorical_mean(3), [0.2, 0.3]),
             (categorical_natural(3), [0.3, -0.2]), (curved4(), [0.5, -0.4])]
    for model, theta in cases:
        assert _max_diff(fisher_information(model, theta),
                         fd_fisher_via_hessian(model, theta)) < 1e-6


def test_fisher_is_symmetric_positive_definite():
    for model, theta in [(categorical_mean(4), [0.2, 0.3, 0.25]),
                         (categorical_natural(3), [0.7, -1.1])]:
        g = fisher_information(model, theta)
        assert g == [list(col) for col in zip(*g)]
        assert np.min(np.linalg.eigvalsh(g)) > 0


def test_mixture_symbols_vanish_in_natural_coordinates():
    # alpha = -1 is the flat member for an exponential family in these
    # coordinates (weight (1+alpha)/2 kills the score product)
    nat = categorical_natural(3)
    for pt in ([0.0, 0.0], [0.3, -0.2], [1.5, 1.0]):
        low = alpha_christoffels(nat, pt, -1.0)
        assert np.max(np.abs(low)) < 1e-12


def test_exponential_symbols_vanish_in_mean_coordinates():
    # and alpha = +1 in the mean coordinates, where each log p is the log
    # of an affine function, so that hess log p + s s^T = 0 outcome by
    # outcome
    mean = categorical_mean(4)
    for pt in ([0.25, 0.25, 0.25], [0.1, 0.6, 0.2]):
        low = alpha_christoffels(mean, pt, 1.0)
        assert np.max(np.abs(low)) < 1e-12


def test_levi_civita_matches_alpha_zero():
    b = bernoulli()
    assert _max_diff(levi_civita_symbols(b, [0.3]),
                     alpha_christoffels(b, [0.3], 0.0)) < 1e-8
    nat = categorical_natural(3)
    assert _max_diff(levi_civita_symbols(nat, [0.3, -0.2]),
                     alpha_christoffels(nat, [0.3, -0.2], 0.0)) < 1e-8


def test_alpha_family_is_affine_in_alpha():
    nat = categorical_natural(3)
    t = [0.4, -0.7]
    mid = np.add(alpha_christoffels(nat, t, 0.7),
                 alpha_christoffels(nat, t, -0.7)) \
        - 2.0 * np.array(alpha_christoffels(nat, t, 0.0))
    assert np.max(np.abs(mid)) < 1e-12


def test_lowered_symbols_are_torsion_free():
    low = alpha_christoffels(curved4(), [0.5, -0.4], 0.3)
    assert _max_diff(low, np.swapaxes(low, 0, 1)) < 1e-12


def test_exponential_family_probe_flat_on_grid():
    rep = exponential_defect_probe(categorical_natural(3), grid9())
    assert rep.exponential_like
    assert rep.grid_size == 9
    assert max(rep.curvature_norms.values()) < 1e-8
    assert rep.torsion_max < 1e-12
    assert rep.best_alpha in (-1.0, 1.0)


def test_curved_subfamily_is_flagged():
    rep = exponential_defect_probe(curved4(), grid9())
    assert not rep.exponential_like
    assert min(rep.curvature_norms.values()) > 0.1
    assert "no flat member" in rep.notes


@pytest.mark.parametrize("center", [(0.8, 0.8), (-0.8, 0.8), (0.8, -0.8),
                                    (-0.8, -0.8), (0.1, 0.2)])
def test_default_tolerance_separates_flat_from_curved(center):
    # the flat natural chart reads rounding alone here; curved4 stays
    # curved at the same points
    grid = [np.add(center, t) for t in grid9()]
    assert exponential_defect_probe(categorical_natural(3), grid) \
        .exponential_like
    assert not exponential_defect_probe(curved4(), grid).exponential_like


# Both ends of the alpha family are flat on a full categorical family,
# which is dually flat, so both curvature norms read rounding alone. The
# finite differences read 0.758 at alpha = -1 over the default grid of
# categorical:3, on the corner (0.4945, 0.4945).
FLAT_CENTRES = {
    "categorical:2": [0.7], "categorical:3": [0.2, 0.5],
    "categorical:4": [0.2, 0.3, 0.25], "categorical-natural:2": [1.5],
    "categorical-natural:3": [0.4, -0.7],
    "categorical-natural:4": [0.3, -1.0, 0.5],
}


@pytest.mark.parametrize("spec", sorted(FLAT_CENTRES))
@pytest.mark.parametrize("where", ["default", "off-centre"])
def test_dually_flat_families_read_flat_to_rounding(spec, where):
    model = get_family(spec)
    center = default_theta(model) if where == "default" \
        else FLAT_CENTRES[spec]
    rep = exponential_defect_probe(model, model.probe_grid(center))
    assert max(rep.curvature_norms.values()) < 1e-8, rep.curvature_norms
    assert rep.exponential_like


def test_one_parameter_curvature_is_exactly_zero():
    tensor, mx = alpha_curvature(bernoulli(), [0.4], 0.5)
    assert tensor == [[[[0.0]]]] and mx == 0.0


def test_constant_family_has_singular_fisher():
    cf = constant_family()
    assert fisher_information(cf, [0.0]) == [[0.0]]
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
    """Every point of center + {-s, 0, s}^n passes check_domain."""
    try:
        for combo in product((-s, 0.0, s), repeat=model.n_params):
            model.check_domain(np.add(center, combo))
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
        categorical_mean(3).probe_offset([0.5, 0.49])


def _unnormalized():
    def log_probs(theta):
        return [0.0 * theta[0] + math.log(0.6)] * 2

    return FiniteStatModel("bad", 2, 1, log_probs, ((-1.0, 1.0),))


def test_non_normalized_model_is_rejected():
    with pytest.raises(NonNormalized):
        fisher_information(_unnormalized(), [0.0])


def test_jets_compose_exp_and_log_to_the_identity():
    # log(x) and exp(log(x)) of a coordinate jet read the Taylor
    # coefficients 1/x, -1/(2x^2), 1/(3x^3) and x, 1, 0, 0
    x = statmodel._coordinates([0.4], 3)[0]
    assert np.allclose(log(x).c[1:], [2.5, -3.125, 1 / (3 * 0.4 ** 3)],
                       rtol=1e-15)
    assert np.allclose(statmodel.exp(log(x)).c, [0.4, 1.0, 0.0, 0.0],
                       rtol=1e-15, atol=1e-15)


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
    assert default_theta(bernoulli()) == [0.5]
    assert default_theta(categorical_mean(3)) == [1 / 3, 1 / 3]
    assert default_theta(categorical_natural(3)) == [0.0, 0.0]
    assert default_theta(curved4()) == [0.0, 0.0]
    assert default_theta(constant_family()) == [0.0]


# Each family with a strategy for its points: the box less the domain
# margin and, on the simplex, points up to its edge. The families with
# three parameters take the mixed derivatives over more than one pair.
DIFFERENTIAL_FAMILIES = {
    "bernoulli": (bernoulli(), st.tuples(st.floats(0.01, 0.99))),
    "categorical:3": (categorical_mean(3),
                      st.floats(0.01, 0.98).flatmap(
                          lambda a: st.tuples(st.just(a),
                                              st.floats(0.01, 0.99 - a)))),
    "categorical:4": (categorical_mean(4),
                      st.floats(0.01, 0.97).flatmap(
                          lambda a: st.floats(0.01, 0.98 - a).flatmap(
                              lambda b: st.tuples(
                                  st.just(a), st.just(b),
                                  st.floats(0.01, 0.99 - a - b))))),
    "categorical-natural:3": (categorical_natural(3),
                              st.tuples(*[st.floats(-3.9, 3.9)] * 2)),
    "categorical-natural:4": (categorical_natural(4),
                              st.tuples(*[st.floats(-3.9, 3.9)] * 3)),
    "curved4": (curved4(), st.tuples(*[st.floats(-2.9, 2.9)] * 2)),
}


def _outcome(route, *args, **kwargs):
    """The route's value, or the type and message of the error it raised."""
    try:
        return route(*args, **kwargs)
    except KoszulError as exc:
        return type(exc), str(exc)


def _raised(outcome) -> bool:
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


# The finite differences' own error. Their scores and Hessians carry
# rounding of about 1e-8 of the terms the symbols sum, whose size is that
# of the symbols at either end of the alpha family (`_symbol_scale`): near
# the simplex edge the terms reach 1e4 where a symbol at alpha = +1 is 0.
# The curvature's differences at CURV_STEP add an h^2 residue, estimated
# by step halving, and the centre's symbols enter it squared. The Fisher
# matrix's scores alone read within 1e-9 of its entries.


def _symbol_scale(model, theta, raised: bool) -> float:
    return max(1.0, *(float(np.max(np.abs(
        fd_alpha_christoffels(model, theta, a, raised)))) for a in (-1, 1)))


def _tolerance(route, model, theta, alpha, want) -> float:
    """The oracle's error on want, its value of a pointwise route."""
    if route == "fisher":
        return 1e-8 * max(1.0, float(np.max(np.abs(want))))
    if route == "curvature":
        half = fd_alpha_curvature(model, theta, alpha, h=CURV_STEP / 2)[0]
        return 16 * _max_diff(want, half) \
            + 1e-6 * _symbol_scale(model, theta, True) ** 2
    return 1e-6 * _symbol_scale(model, theta, route == "raised")


def _assert_close(name, got, want, tol):
    """got is the error want is, or a value within tol() of it."""
    if _raised(want):
        assert got == want, name
        return
    assert not _raised(got), (name, got)
    assert _max_diff(got, want) <= tol(), name


POINTWISE = [
    ("fisher", fisher_information, fd_fisher_information, False),
    ("alpha", alpha_christoffels, fd_alpha_christoffels, False),
    ("raised", alpha_christoffels, fd_alpha_christoffels, True),
    ("curvature", alpha_curvature, fd_alpha_curvature, False),
]


def _compare_routes(model, theta, alpha):
    """Each pointwise route at theta against its finite-difference
    oracle: the same error, or values within the oracle's error."""
    for name, route, oracle, raised in POINTWISE:
        args = () if name == "fisher" else (alpha, raised) if raised \
            else (alpha,)
        got = _outcome(route, model, theta, *args)
        want = _outcome(oracle, model, theta, *args)
        if name == "curvature":
            if not _raised(got):
                assert got[1] == float(np.max(np.abs(got[0])))
                got = got[0]
            if not _raised(want):
                want = want[0]
        _assert_close(name, got, want,
                      lambda: _tolerance(name, model, theta, alpha, want))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(data=st.data(), name=st.sampled_from(sorted(DIFFERENTIAL_FAMILIES)),
       alpha=st.sampled_from((-1.0, 0.3, 1.0)))
def test_jet_routes_match_the_finite_difference_oracles(data, name, alpha):
    model, points = DIFFERENTIAL_FAMILIES[name]
    _compare_routes(model, list(data.draw(points)), alpha)


def _probe_errors(model, grid) -> dict:
    """The oracle probe's error on its norm at each end of the alpha
    family: the norm is the largest curvature entry over the grid, so its
    error is at most the largest pointwise one."""
    return {alpha: max(_tolerance("curvature", model, t, alpha,
                                  fd_alpha_curvature(model, t, alpha)[0])
                       for t in grid)
            for alpha in (-1.0, 1.0)}


VERDICT_FIELDS = ("exponential_like", "best_alpha", "notes")


def _assert_probe_agrees(got: dict, want: dict, errors: dict):
    """A probe report against the oracle's: each norm within its error and
    every other field equal, the verdict fields only where the oracle
    resolves them (each norm farther from tol than its error, and the two
    norms farther apart than their errors together), since its residue on
    a flat family can exceed the probe's tolerance (0.758 on
    categorical:3)."""
    norms = want["curvature_norms"]
    err = {a: errors[float(a)] for a in norms}
    assert got.keys() == want.keys()
    assert got["curvature_norms"].keys() == norms.keys()
    for a in norms:
        assert abs(got["curvature_norms"][a] - norms[a]) <= err[a], a
    low, high = sorted(norms.values())
    resolved = all(abs(norms[a] - want["tol"]) > err[a] for a in norms) \
        and high - low > sum(err.values())
    skip = {"curvature_norms"} | (set() if resolved else set(VERDICT_FIELDS))
    assert {k: v for k, v in got.items() if k not in skip} \
        == {k: v for k, v in want.items() if k not in skip}


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(data=st.data(), name=st.sampled_from(sorted(DIFFERENTIAL_FAMILIES)))
def test_probe_matches_the_finite_difference_oracle(data, name):
    model, points = DIFFERENTIAL_FAMILIES[name]
    center = data.draw(st.just(default_theta(model)) | points)
    try:
        grid = model.probe_grid(center)
    except DomainViolation:
        grid = [center]
    got = _outcome(exponential_defect_probe, model, grid)
    want = _outcome(fd_exponential_defect_probe, model, grid)
    if _raised(want):
        assert got == want
        return
    _assert_probe_agrees(asdict(got), asdict(want), _probe_errors(model, grid))


@pytest.mark.parametrize("model, theta, error", [
    (constant_family(), [0.0], SingularFisher),
    (_unnormalized(), [0.0], NonNormalized),
    (bernoulli(), [0.005], DomainViolation),
    (categorical_mean(3), [0.5, 0.495], DomainViolation),
])
def test_jet_routes_raise_what_the_oracles_raise(model, theta, error):
    _compare_routes(model, theta, 0.3)
    got = _outcome(exponential_defect_probe, model, [theta])
    assert got == _outcome(fd_exponential_defect_probe, model, [theta])
    # the curvature and the probe reach the faulty point in every case
    assert [_outcome(alpha_curvature, model, theta, 0.3)[0], got[0]] \
        == [error, error]


@pytest.mark.parametrize("model, theta", [
    (bernoulli(), [0.0105]), (categorical_mean(3), [0.5, 0.4895])])
def test_a_point_near_the_domain_margin_answers(model, theta):
    # inside the domain; the former curvature stencil, theta +- CURV_STEP,
    # reached outside it, and a jet reads nothing but theta
    _compare_routes(model, theta, 0.3)
    assert alpha_curvature(model, theta, 0.3)[1] >= 0.0
    assert exponential_defect_probe(model, model.probe_grid(theta)) \
        .grid_size == 3 ** model.n_params


def _three_regimes():
    """A one-parameter model that is constant (a singular Fisher matrix)
    for theta <= -0.5, a Bernoulli model for -0.5 < theta < 0.5 and not
    normalized from 0.5 on."""

    def log_probs(theta):
        t = theta[0]
        if t.value <= -0.5:
            return [0.0 * t + math.log(0.5)] * 2
        if t.value < 0.5:
            return [log((1.0 - t) * 0.5), log((1.0 + t) * 0.5)]
        return [0.0 * t + math.log(0.6)] * 2

    return FiniteStatModel("regimes", 2, 1, log_probs, ((-1.0, 1.0),))


@pytest.mark.parametrize("grid, error", [
    ([[0.0], [0.7], [-0.7]], NonNormalized),
    ([[0.0], [-0.7], [0.7]], SingularFisher),
    ([[0.0], [0.995], [0.7]], DomainViolation),
    ([[0.0], [0.7], [0.995]], NonNormalized),
    ([[0.0], [0.1, 0.2], [0.7]], ValidationError),
    ([[0.2], [0.7], [0.1, 0.2]], NonNormalized),
])
def test_the_probe_raises_the_first_fault_of_its_grid(grid, error):
    # the domains of the grid are checked first, then each point in
    # order: the first fault on the grid wins
    model = _three_regimes()
    got = _outcome(exponential_defect_probe, model, grid)
    assert got[0] is error
    assert got == _outcome(fd_exponential_defect_probe, model, grid)


def _counted(model):
    """model whose log densities record the order and the centre of each
    call."""
    calls = []

    def log_probs(theta):
        calls.append((theta[0].basis.order, [t.value for t in theta]))
        return model.log_probs(theta)

    return replace(model, log_probs=log_probs), calls


def test_one_log_probs_call_per_centre():
    model, calls = _counted(curved4())
    grid = model.probe_grid(default_theta(model))
    exponential_defect_probe(model, grid)
    # the former routes evaluated 9 grid points x 5 curvature stencil
    # points x 17 difference points in one batched call
    assert calls == [(3, point) for point in grid]
    for route, args, order in [(fisher_information, (), 1),
                               (alpha_christoffels, (0.3,), 2),
                               (alpha_curvature, (0.3,), 3)]:
        model, calls = _counted(bernoulli())
        route(model, [0.4], *args)
        assert calls == [(order, [0.4])]


# Each route just below and just above EVALUATION_BOUND on
# categorical-natural:n, with its work units.
EVALUATION_EDGES = [
    ("fisher", 272, 19975952, 20197632),
    ("alpha", 56, 18634000, 20020224),
    ("curvature", 17, 17825792, 24054048),
    ("probe", 6, 14580000, 105815808),
]


def _evaluate(route, model):
    theta = default_theta(model)
    if route == "fisher":
        return fisher_information(model, theta)
    if route == "alpha":
        return alpha_christoffels(model, theta, 0.0)
    if route == "curvature":
        return alpha_curvature(model, theta, 0.0)
    return exponential_defect_probe(model, model.probe_grid(theta))


@pytest.mark.parametrize("route, n, below, above", EVALUATION_EDGES,
                         ids=[edge[0] for edge in EVALUATION_EDGES])
def test_jets_above_the_evaluation_bound_are_refused_before_any_point(
        route, n, below, above):
    model, calls = _counted(categorical_natural(n))
    _evaluate(route, model)
    d = n - 1
    work = sum(n * d ** (order + 1) * statmodel._ORDER_WEIGHT[order]
               for order, _ in calls)
    assert work == below <= EVALUATION_BOUND
    # a family too large for its Fisher matrix is refused as it is built
    calls = []
    with pytest.raises(ValidationError, match=f"estimated at {above},"):
        model, calls = _counted(categorical_natural(n + 1))
        _evaluate(route, model)
    assert calls == []
    if route == "probe":
        # an explicit grid is counted by the sums themselves
        grid = [list(p) for p in product((-0.3, 0.0, 0.3), repeat=n)]
        with pytest.raises(ValidationError, match=f"estimated at {above},"):
            exponential_defect_probe(model, grid)
        assert calls == []


def test_a_malformed_outcome_count_names_the_spec():
    for spec in ("categorical:x", "categorical-natural:2.5",
                 "categorical:3.0"):
        with pytest.raises(ValidationError, match=f"family '{spec}'"):
            get_family(spec)


# The CLI test's corpus: every operation on every family at its default
# point and off centre, and the refusals. A huge alpha is refused off
# centre, where the Bernoulli symbols do not vanish.
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
    ["statmodel", "--family", "categorical:3", "--op", "defect",
     "--theta=0.5,0.49"],
    ["statmodel", "--family", "curved4", "--op", "alpha", "--alpha", "nan"],
    ["statmodel", "--family", "bernoulli", "--op", "alpha", "--alpha=1e308",
     "--theta=0.3"],
    ["statmodel", "--family", "bernoulli", "--op", "curvature",
     "--alpha=1e308"],
]

# the finite-difference routes, patched over the library's
ORACLE_STATMODEL = {
    "fisher_information": fd_fisher_information,
    "alpha_christoffels": fd_alpha_christoffels,
    "alpha_curvature": fd_alpha_curvature,
    "exponential_defect_probe": fd_exponential_defect_probe,
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
def test_cli_reports_match_the_finite_difference_oracles(argv):
    code, out, err = _main_bytes(argv)
    with mock.patch.multiple("koszul.statmodel", **ORACLE_STATMODEL):
        want = _main_bytes(argv)
    assert (code, err) == (want[0], want[2])
    if code:
        assert out == want[1]
        return
    got, want = json.loads(out), json.loads(want[1])
    result, want_result = got.pop("result"), want.pop("result")
    assert got == want
    args = cli._build_parser().parse_args(argv)
    model = get_family(args.family)
    theta = default_theta(model) if args.theta is None \
        else [float(x) for x in args.theta.split(",")]
    if args.op == "defect":
        _assert_probe_agrees(result, want_result,
                             _probe_errors(model, model.probe_grid(theta)))
        return
    key = {"fisher": "fisher", "alpha": "lowered", "curvature": "tensor"}
    got_tensor, tensor = result.pop(key[args.op]), want_result.pop(key[args.op])
    tol = _tolerance(args.op, model, theta, args.alpha, tensor)
    assert _max_diff(got_tensor, tensor) <= tol
    if args.op == "curvature":
        assert abs(result.pop("max_abs") - want_result.pop("max_abs")) <= tol
    assert result == want_result
