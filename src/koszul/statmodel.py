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
A model's log densities are one array expression over a stack of points
(`FiniteStatModel.log_probs`), and each route evaluates them in one
batched call: every point it takes a jet at, with that point's difference
stencil (`_jets`). The probe takes its jets at every grid point and its
curvature stencil at once and reads them for both alpha ends and the
torsion check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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
# The two steps of the Richardson-refined differences.
_STEPS = (GRAD_STEP / 2, GRAD_STEP)


@dataclass(frozen=True)
class FiniteStatModel:
    """Positive probability model on finitely many outcomes.

    log_probs maps points of shape (k, n_params) to their log
    probabilities, of shape (k, n_outcomes). It must be smooth in theta
    and normalized: each row of exp(log_probs(points)) sums to 1 within
    1e-12 wherever evaluated. The domain is the box `domain`, intersected
    with the simplex sum(theta) <= 1 when `simplex` is set (mean
    coordinates, where the last probability is 1 - sum(theta)).
    """

    name: str
    n_outcomes: int
    n_params: int
    log_probs: Callable[[np.ndarray], np.ndarray]
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


def _richardson(f, h):
    return (4.0 * f(h / 2) - f(h)) / 3.0


class _Jets(NamedTuple):
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
    i, j = np.triu_indices(len(eye), 1)
    both, skew = eye[i] + eye[j], eye[i] - eye[j]
    blocks = {"mid": at}
    for s in _STEPS:
        blocks[s, "+"] = at + s * eye
        blocks[s, "-"] = at - s * eye
        if hessians:
            blocks[s, "++"] = at + s * both
            blocks[s, "+-"] = at + s * skew
            blocks[s, "-+"] = at - s * skew
            blocks[s, "--"] = at - s * both
    return blocks


def _jets(model: FiniteStatModel, centers, hessians: bool = True,
          raised: bool = False) -> _Jets:
    """Jets at each of `centers` (a nonempty iterable of points), from one
    call of `model.log_probs` on every center and its `_stencil`.

    The checks fail as if each jet were taken alone, in the order of the
    centers: a center's domain, then its normalization and, with `raised`,
    the condition of its Fisher matrix, which is then inverted once. The
    domains are checked before anything is evaluated; the iteration stops
    at the first center outside, so a lazy `centers` builds nothing past
    it, and that error is raised once the centers before it pass.
    """
    checked, fault = [], None
    for t in centers:
        try:
            checked.append(model.check_domain(t))
        except (ValidationError, DomainViolation) as exc:
            fault = exc
            break
    if not checked:
        raise fault
    n, d = model.n_outcomes, model.n_params
    blocks = _stencil(np.array(checked), hessians)
    widths = [b.shape[1] for b in blocks.values()]
    points = np.concatenate(list(blocks.values()), axis=1)
    k = len(points)
    logp = model.log_probs(points.reshape(-1, d)).reshape(k, -1, n)
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
    for a, t in enumerate(checked):
        if abs(float(p[a].sum()) - 1.0) > NORM_TOL:
            raise NonNormalized(
                f"probabilities sum to {p[a].sum()!r} at theta={t}")
        if raised and cond[a] > 1e10:
            raise SingularFisher("fisher matrix is numerically singular")
    if fault is not None:
        raise fault
    return _Jets(p, scores, hess, g, np.linalg.inv(g) if raised else None)


def fisher_information(model: FiniteStatModel, theta) -> np.ndarray:
    """Fisher matrix sum_x p (grad log p)(grad log p)^T."""
    return _jets(model, [theta], hessians=False).g[0]


def fisher_via_hessian(model: FiniteStatModel, theta) -> np.ndarray:
    """Independent route -sum_x p hess(log p); agrees within tolerance."""
    jets = _jets(model, [theta])
    g = np.zeros((model.n_params, model.n_params))
    for px, hess in zip(jets.p[0], jets.hess[0]):
        g -= px * hess
    return 0.5 * (g + g.T)


def alpha_christoffels(model: FiniteStatModel, theta, alpha: float,
                       raised: bool = False) -> np.ndarray:
    """Lowered symbols sum_x p [hess_ij + (1+a)/2 s_i s_j] s_k.

    With raised=True the last index is raised by the inverse Fisher
    matrix, giving Gamma^k_ij stored as [i][j][k].
    """
    jets = _jets(model, [theta], raised=raised)
    # a huge alpha overflows to inf or nan, which the caller checks
    with np.errstate(over="ignore", invalid="ignore"):
        low = _lowered(jets, alpha)
        return (_raise(low, jets.ginv) if raised else low)[0]


def _lowered(jets: _Jets, alpha: float) -> np.ndarray:
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


def _raise(low: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """The last index of each jet's symbols raised by its inverse Fisher
    matrix."""
    return np.array([np.einsum("ijl,lk->ijk", sym, gi)
                     for sym, gi in zip(low, ginv)])


def levi_civita_symbols(model: FiniteStatModel, theta) -> np.ndarray:
    """Lowered Levi-Civita symbols of the Fisher metric, by metric
    differences: an oracle for the alpha = 0 member."""
    theta = model.check_domain(theta)
    d = model.n_params
    h = CURV_STEP
    steps = (h / 2, h)
    centers = [c for e in np.eye(d) for step in steps
               for c in (theta + step * e, theta - step * e)]
    g = _jets(model, centers, hessians=False).g.reshape(d, 2, 2, d, d)
    # step -> the metrics at theta + step e_i and theta - step e_i
    at = dict(zip(steps, g.swapaxes(0, 1)))
    dg = _richardson(
        lambda step: (at[step][:, 0] - at[step][:, 1]) / (2 * step), h)
    return 0.5 * (dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))


def _curvature_stencil(theta, d: int):
    """theta, then theta + CURV_STEP e_i and theta - CURV_STEP e_i for each
    i: the points `_curvature` reads the raised symbols at, in order."""
    yield theta
    for e in np.eye(d):
        yield theta + CURV_STEP * e
        yield theta - CURV_STEP * e


def alpha_curvature(model: FiniteStatModel, theta,
                    alpha: float) -> tuple[np.ndarray, float]:
    """Curvature of the raised alpha symbols by central differences.

    R[i,j,k,l] = d_i G[j,k,l] - d_j G[i,k,l]
                 + sum_m (G[i,m,l] G[j,k,m] - G[j,m,l] G[i,k,m])
    with G[i,j,k] the raised symbols; returns the tensor and its max-abs.
    """
    theta = model.check_domain(theta)
    jets = _jets(model, _curvature_stencil(theta, model.n_params),
                 raised=True)
    with np.errstate(over="ignore", invalid="ignore"):
        return _curvature(_raise(_lowered(jets, alpha), jets.ginv))


def _curvature(symbols: np.ndarray) -> tuple[np.ndarray, float]:
    """`alpha_curvature` from the raised symbols at the points of
    `_curvature_stencil`, stacked in its order."""
    base = symbols[0]
    d = len(base)
    grad = (symbols[1::2] - symbols[2::2]) / (2 * CURV_STEP)
    quad = [[np.einsum("ml,km->kl", base[i], base[j]) for j in range(d)]
            for i in range(d)]
    r = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(d):
            r[i, j] = grad[i][j] - grad[j][i] + quad[i][j] - quad[j][i]
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
    d = model.n_params
    jets = _jets(model, (u for t in grid for u in _curvature_stencil(t, d)),
                 raised=True)
    norms = {}
    torsion = 0.0
    for alpha in (-1.0, 1.0):
        low = _lowered(jets, alpha)
        symbols = _raise(low, jets.ginv).reshape(len(grid), 2 * d + 1,
                                                 d, d, d)
        worst = 0.0
        for at_t, low_t in zip(symbols, low[::2 * d + 1]):
            worst = max(worst, _curvature(at_t)[1])
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


def bernoulli() -> FiniteStatModel:
    """Two outcomes, mean parameter theta = P(X = 1)."""

    def log_probs(points):
        t = points[:, 0]
        return np.log(np.stack((1.0 - t, t), axis=1))

    return FiniteStatModel("bernoulli", 2, 1, log_probs, ((0.0, 1.0),))


def categorical_mean(n: int) -> FiniteStatModel:
    """n outcomes, mean coordinates theta_i = p_i for i < n-1."""
    if n < 2:
        raise ValidationError("categorical model needs >= 2 outcomes")

    def log_probs(points):
        last = 1.0 - points.sum(axis=1, keepdims=True)
        return np.log(np.concatenate((points, last), axis=1))

    box = tuple(((0.0, 1.0),) * (n - 1))
    return FiniteStatModel(f"categorical:{n}", n, n - 1, log_probs, box,
                           simplex=True)


def categorical_natural(n: int) -> FiniteStatModel:
    """n outcomes, natural (logit) coordinates: p = softmax(theta, 0)."""
    if n < 2:
        raise ValidationError("categorical model needs >= 2 outcomes")

    def log_probs(points):
        return _log_softmax(np.concatenate(
            (points, np.zeros((len(points), 1))), axis=1))

    box = tuple(((-4.0, 4.0),) * (n - 1))
    return FiniteStatModel(f"categorical-natural:{n}", n, n - 1, log_probs,
                           box)


def curved4() -> FiniteStatModel:
    """Curved 2-parameter subfamily of the 4-outcome family: logits
    (t1, t2, t1*t2, 0). The nonlinear constraint breaks dual flatness."""

    def log_probs(points):
        t1, t2 = points[:, 0], points[:, 1]
        return _log_softmax(np.stack(
            (t1, t2, t1 * t2, np.zeros(len(points))), axis=1))

    return FiniteStatModel("curved4", 4, 2, log_probs,
                           ((-3.0, 3.0), (-3.0, 3.0)))


def constant_family() -> FiniteStatModel:
    """Uniform on two outcomes regardless of theta; zero Fisher metric."""

    def log_probs(points):
        return np.full((len(points), 2), np.log(0.5))

    return FiniteStatModel("constant", 2, 1, log_probs, ((-1.0, 1.0),))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Each row of logits less its log-sum-exp, shifted by its maximum."""
    m = logits.max(axis=1, keepdims=True)
    return logits - (m + np.log(np.sum(np.exp(logits - m), axis=1,
                                       keepdims=True)))


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
