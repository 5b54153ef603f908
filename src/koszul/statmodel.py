"""Information geometry of finite statistical models.

Floating point module: Fisher information, the alpha-family of Christoffel
symbols, numeric curvature, and the exponential-family probe. Everything
else in the package is exact; here derivatives of log densities force
floats, so every operation carries an explicit tolerance.

Convention note: the lowered symbols use the weight (1+alpha)/2 on the
score product, so it is alpha = -1 (not +1) that vanishes identically in
the natural coordinates of an exponential family. The alpha = 0 member is
the Levi-Civita connection of the Fisher metric either way.

Derivatives are central differences with one Richardson refinement
(h = 1e-4); curvature differentiates the raised symbols at h = 1e-3
without refinement. The integral over outcomes uses counting measure.
Each log density is evaluated once per point and shared: one jet per
point, which the probe reuses for both alpha ends and the torsion check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from koszul.errors import (
    DomainViolation,
    NonNormalized,
    SingularFisher,
    ValidationError,
)

GRAD_STEP = 1e-4
CURV_STEP = 1e-3
NORM_TOL = 1e-12
DOMAIN_MARGIN = 0.01
# An exactly flat connection leaves in `alpha_curvature` only the
# truncation error of its central differences: h^2 (h = CURV_STEP) times
# the third derivatives of the symbols. A curved family has curvature of
# order one. The probe's tolerance is h, the geometric mean of the scales
# h^2 and 1: a flat family passes while that derivative factor stays below
# 1/h (about 330 on categorical-natural:3 over [-0.8, 0.8]^2 and its
# +-0.3 probe grid, a residue of 3.3e-4), and a curved family fails while
# its curvature stays above h (curved4 reads 0.2 to 1.4 near the origin).
PROBE_TOL = CURV_STEP
# Half-width of the probe grid center + {-s, 0, s}^n where the domain has
# room for it (`FiniteStatModel.probe_offset`).
PROBE_OFFSET = 0.3


@dataclass(frozen=True)
class FiniteStatModel:
    """Positive probability model on finitely many outcomes.

    log_density(theta, x) must be smooth in theta and normalized:
    sum_x exp(log_density(theta, x)) = 1 within 1e-12 wherever evaluated.
    The domain is the box `domain`, intersected with the simplex
    sum(theta) <= 1 when `simplex` is set (mean coordinates, where the last
    probability is 1 - sum(theta)).
    """

    name: str
    n_outcomes: int
    n_params: int
    log_density: Callable[[np.ndarray, int], float]
    domain: tuple[tuple[float, float], ...]
    simplex: bool = False

    def check_domain(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValidationError(
                f"theta must have {self.n_params} coordinates")
        for t, (lo, hi) in zip(theta, self.domain):
            if not (lo + DOMAIN_MARGIN <= t <= hi - DOMAIN_MARGIN):
                raise DomainViolation(
                    f"theta component {t} outside "
                    f"[{lo + DOMAIN_MARGIN}, {hi - DOMAIN_MARGIN}]")
        if self.simplex and not 1.0 - float(np.sum(theta)) >= DOMAIN_MARGIN:
            raise DomainViolation(
                f"theta components sum to {float(np.sum(theta))}, above "
                f"{1.0 - DOMAIN_MARGIN}")
        return theta

    def probe_offset(self, center) -> float:
        """Largest s <= PROBE_OFFSET such that every point of the grid
        center + {-s, 0, s}^n, and the +-CURV_STEP stencil on which
        `alpha_curvature` differentiates at it, passes `check_domain`.

        Each coordinate needs s <= room to its box ends less
        DOMAIN_MARGIN + CURV_STEP; on the simplex the corner sum(center)
        + n s + CURV_STEP must stay 1 - DOMAIN_MARGIN or below.
        """
        theta = self.check_domain(center)
        reach = DOMAIN_MARGIN + CURV_STEP
        room = [min(t - lo, hi - t) - reach
                for t, (lo, hi) in zip(theta, self.domain)]
        if self.simplex:
            room.append((1.0 - reach - float(np.sum(theta))) / self.n_params)
        # the slack keeps rounding in center + s off the domain margin
        tight = min(room) - 1e-9
        if tight < 0.0:
            raise DomainViolation(
                f"theta {theta.tolist()} is within {reach} of the domain "
                f"boundary; no probe grid fits around it")
        return float(min(PROBE_OFFSET, tight))

    def probs(self, theta) -> np.ndarray:
        return _normalized([self.log_density(theta, x)
                            for x in range(self.n_outcomes)], theta)


def _normalized(logs, theta) -> np.ndarray:
    p = np.array([np.exp(v) for v in logs])
    if abs(float(p.sum()) - 1.0) > NORM_TOL:
        raise NonNormalized(
            f"probabilities sum to {p.sum()!r} at theta={theta}")
    return p


def _richardson(f, h):
    return (4.0 * f(h / 2) - f(h)) / 3.0


def _jet(model: FiniteStatModel, theta, hessians: bool = True):
    """(p, scores, Hessians or None, Fisher) at theta, of shapes (n,),
    (n, d), (n, d, d), (d, d), elementwise over the outcomes."""
    theta = model.check_domain(theta)
    n, d = model.n_outcomes, model.n_params
    memo = {}

    def logp(t):
        key = t.tobytes()
        if key not in memo:
            memo[key] = np.array([model.log_density(t, x) for x in range(n)])
        return memo[key]

    p = _normalized(logp(theta).tolist(), theta)
    eye = np.eye(d)
    scores = np.zeros((n, d))
    hess = np.zeros((n, d, d)) if hessians else None
    for i, ei in enumerate(eye):

        def diff(s):
            return (logp(theta + s * ei) - logp(theta - s * ei)) / (2 * s)

        def diag(s):
            return (logp(theta + s * ei) - 2.0 * logp(theta)
                    + logp(theta - s * ei)) / s ** 2

        scores[:, i] = _richardson(diff, GRAD_STEP)
        if hess is None:
            continue
        hess[:, i, i] = _richardson(diag, GRAD_STEP)
        for j, ej in enumerate(eye[i + 1:], i + 1):

            def mixed(s):
                return (logp(theta + s * (ei + ej))
                        - logp(theta + s * (ei - ej))
                        - logp(theta - s * (ei - ej))
                        + logp(theta - s * (ei + ej))) / (4 * s ** 2)

            hess[:, i, j] = hess[:, j, i] = _richardson(mixed, GRAD_STEP)
    g = np.zeros((d, d))
    for px, s in zip(p, scores):
        g += px * np.outer(s, s)
    return p, scores, hess, 0.5 * (g + g.T)


def fisher_information(model: FiniteStatModel, theta) -> np.ndarray:
    """Fisher matrix sum_x p (grad log p)(grad log p)^T."""
    return _jet(model, theta, hessians=False)[3]


def fisher_via_hessian(model: FiniteStatModel, theta) -> np.ndarray:
    """Independent route -sum_x p hess(log p); agrees within tolerance."""
    p, _, hessians, _ = _jet(model, theta)
    g = np.zeros((model.n_params, model.n_params))
    for px, hess in zip(p, hessians):
        g -= px * hess
    return 0.5 * (g + g.T)


def alpha_christoffels(model: FiniteStatModel, theta, alpha: float,
                       raised: bool = False) -> np.ndarray:
    """Lowered symbols sum_x p [hess_ij + (1+a)/2 s_i s_j] s_k.

    With raised=True the last index is raised by the inverse Fisher
    matrix, giving Gamma^k_ij stored as [i][j][k].
    """
    return _symbols(_jet(model, theta), alpha, raised)


def _symbols(jet, alpha: float, raised: bool) -> np.ndarray:
    p, scores, hessians, g = jet
    low = np.zeros((len(g),) * 3)
    w = (1.0 + alpha) / 2.0
    for px, s, hess in zip(p, scores, hessians):
        low += px * np.einsum("ij,k->ijk", hess + w * np.outer(s, s), s)
    if not raised:
        return low
    if np.linalg.cond(g) > 1e10:
        raise SingularFisher("fisher matrix is numerically singular")
    return np.einsum("ijl,lk->ijk", low, np.linalg.inv(g))


def levi_civita_symbols(model: FiniteStatModel, theta) -> np.ndarray:
    """Lowered Levi-Civita symbols of the Fisher metric, by metric
    differences: an oracle for the alpha = 0 member."""
    theta = model.check_domain(theta)
    d = model.n_params
    h = CURV_STEP

    def g_at(t):
        return fisher_information(model, t)

    dg = np.zeros((d, d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0

        def diff(step):
            return (g_at(theta + step * e) - g_at(theta - step * e)) \
                / (2 * step)

        dg[i] = _richardson(diff, h)
    low = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                low[i, j, k] = 0.5 * (dg[i][j, k] + dg[j][i, k] - dg[k][i, j])
    return low


def alpha_curvature(model: FiniteStatModel, theta,
                    alpha: float) -> tuple[np.ndarray, float]:
    """Curvature of the raised alpha symbols by central differences.

    R[i,j,k,l] = d_i G[j,k,l] - d_j G[i,k,l]
                 + sum_m (G[i,m,l] G[j,k,m] - G[j,m,l] G[i,k,m])
    with G[i,j,k] the raised symbols; returns the tensor and its max-abs.
    """
    return _curvature(partial(_jet, model), model.check_domain(theta), alpha)


def _curvature(jet_at, theta, alpha):
    def symbols(t):
        return _symbols(jet_at(t), alpha, raised=True)

    base = symbols(theta)
    d = len(base)
    h = CURV_STEP
    grad = np.zeros((d, d, d, d))
    for i, e in enumerate(np.eye(d)):
        grad[i] = (symbols(theta + h * e) - symbols(theta - h * e)) / (2 * h)
    r = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(d):
            r[i, j] = grad[i][j] - grad[j][i] \
                + np.einsum("ml,km->kl", base[i], base[j]) \
                - np.einsum("ml,km->kl", base[j], base[i])
    return r, float(np.max(np.abs(r))) if d else 0.0


@dataclass(frozen=True)
class ProbeReport:
    exponential_like: bool
    best_alpha: float
    curvature_norms: dict
    torsion_max: float
    tol: float
    grid_size: int
    notes: str = ""


def exponential_defect_probe(model: FiniteStatModel, grid,
                             tol: float = PROBE_TOL) -> ProbeReport:
    """Flag a model exponential-like when some end of the alpha family is
    numerically flat on the grid.

    Checks max |R(alpha)| for alpha in {-1, +1} and the symmetry defect of
    the symbols; a numeric surrogate for the flatness characterization,
    not a proof.
    """
    grid = [np.asarray(t, dtype=float) for t in grid]
    if not grid:
        raise ValidationError("probe grid is empty")
    jets = {}

    def jet_at(t):
        key = t.tobytes()
        if key not in jets:
            jets[key] = _jet(model, t)
        return jets[key]

    norms = {}
    torsion = 0.0
    for alpha in (-1.0, 1.0):
        worst = 0.0
        for t in grid:
            _, mx = _curvature(jet_at, t, alpha)
            worst = max(worst, mx)
            low = _symbols(jet_at(t), alpha, raised=False)
            torsion = max(torsion, float(
                np.max(np.abs(low - np.swapaxes(low, 0, 1)))))
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


def bernoulli() -> FiniteStatModel:
    """Two outcomes, mean parameter theta = P(X = 1)."""

    def logp(theta, x):
        t = float(theta[0])
        return float(np.log(t if x == 1 else 1.0 - t))

    return FiniteStatModel("bernoulli", 2, 1, logp, ((0.0, 1.0),))


def categorical_mean(n: int) -> FiniteStatModel:
    """n outcomes, mean coordinates theta_i = p_i for i < n-1."""
    if n < 2:
        raise ValidationError("categorical model needs >= 2 outcomes")

    def logp(theta, x):
        if x < n - 1:
            return float(np.log(theta[x]))
        return float(np.log(1.0 - float(np.sum(theta))))

    box = tuple(((0.0, 1.0),) * (n - 1))
    return FiniteStatModel(f"categorical:{n}", n, n - 1, logp, box,
                           simplex=True)


def categorical_natural(n: int) -> FiniteStatModel:
    """n outcomes, natural (logit) coordinates: p = softmax(theta, 0)."""
    if n < 2:
        raise ValidationError("categorical model needs >= 2 outcomes")

    def logp(theta, x):
        logits = np.append(np.asarray(theta, dtype=float), 0.0)
        return float(logits[x] - _logsumexp(logits))

    box = tuple(((-4.0, 4.0),) * (n - 1))
    return FiniteStatModel(f"categorical-natural:{n}", n, n - 1, logp, box)


def curved4() -> FiniteStatModel:
    """Curved 2-parameter subfamily of the 4-outcome family: logits
    (t1, t2, t1*t2, 0). The nonlinear constraint breaks dual flatness."""

    def logp(theta, x):
        t1, t2 = float(theta[0]), float(theta[1])
        logits = np.array([t1, t2, t1 * t2, 0.0])
        return float(logits[x] - _logsumexp(logits))

    return FiniteStatModel("curved4", 4, 2, logp,
                           ((-3.0, 3.0), (-3.0, 3.0)))


def constant_family() -> FiniteStatModel:
    """Uniform on two outcomes regardless of theta; zero Fisher metric."""

    def logp(theta, x):
        return float(np.log(0.5))

    return FiniteStatModel("constant", 2, 1, logp, ((-1.0, 1.0),))


def _logsumexp(v: np.ndarray) -> float:
    m = float(np.max(v))
    return m + float(np.log(np.sum(np.exp(v - m))))


_FAMILY_BUILDERS = {
    "bernoulli": lambda arg: bernoulli(),
    "categorical": lambda arg: categorical_mean(int(arg)),
    "categorical-natural": lambda arg: categorical_natural(int(arg)),
    "curved4": lambda arg: curved4(),
    "constant": lambda arg: constant_family(),
}


def get_family(spec: str) -> FiniteStatModel:
    """Resolve a family name like 'bernoulli' or 'categorical:3'."""
    name, _, arg = spec.partition(":")
    if name not in _FAMILY_BUILDERS:
        raise ValidationError(f"unknown family {spec!r}")
    if name in ("categorical", "categorical-natural") and not arg:
        raise ValidationError(f"family {name} needs an outcome count, "
                              f"e.g. {name}:3")
    return _FAMILY_BUILDERS[name](arg)


def default_theta(model: FiniteStatModel) -> np.ndarray:
    """Canonical interior point: barycenter for mean coordinates, origin
    for natural coordinates, midpoint otherwise."""
    if model.name.startswith("categorical:"):
        n = model.n_outcomes
        return np.full(model.n_params, 1.0 / n)
    if model.name.startswith("categorical-natural") or \
            model.name == "curved4":
        return np.zeros(model.n_params)
    if model.name == "bernoulli":
        return np.array([0.5])
    return np.array([(lo + hi) / 2.0 for lo, hi in model.domain])
