"""Information geometry of finite statistical models.

The one floating-point module: Fisher information, the alpha-family of
Christoffel symbols, their curvature, and the exponential-family probe.
Everything else in the package is exact; here the log densities are
transcendental, so every verdict carries an explicit tolerance.

Convention note: the lowered symbols use the weight (1+alpha)/2 on the
score product, so it is alpha = -1 (not +1) that vanishes identically in
the natural coordinates of an exponential family. The alpha = 0 member is
the Levi-Civita connection of the Fisher metric either way.

Derivatives are exact up to rounding. A model's log densities
(`FiniteStatModel.log_probs`) map the d coordinate functions of theta,
each a truncated Taylor polynomial (`Jet`) about a centre, to the log
probabilities of its n outcomes as jets of the same order (Griewank and
Walther, "Evaluating Derivatives", 2008). Their coefficients give the
scores s, the Hessians H and the third derivatives T of the log densities
at the centre, and every route is a finite sum over outcomes of their
products weighted by p (Amari and Nagaoka, "Methods of Information
Geometry", 2000): the Fisher matrix g = E[s s], the lowered symbols
E[H s] + (1+alpha)/2 E[s s s], and the derivatives of both read off the
same products. Each route evaluates `log_probs` once per centre: at order
1 for the Fisher matrix, 2 for the symbols, 3 for the curvature and the
probe. The integral over outcomes uses counting measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations_with_replacement, product, repeat
from operator import add, mul, sub
from typing import Callable, NamedTuple

from koszul.algebra import envelope
from koszul.errors import (
    DomainViolation,
    NonNormalized,
    SingularFisher,
    ValidationError,
)

NORM_TOL = 1e-12
DOMAIN_MARGIN = 0.01
# On the dually flat families the probe's curvature norms are rounding
# alone: at most 4.6e-11 over categorical:n and categorical-natural:n,
# n = 2 to 4, on the probe grids of the default centre and 24 seeded
# random centres of each domain (the largest on categorical:3 about
# (0.318, 0.584)). A curved family reads far above it (curved4: 1.4 to 2.0
# near the origin, 0.017 on the grid about (2.5, 2.5)). The tolerance sits
# near the geometric mean of 1e-10 and 1, so a flat family passes with a
# margin above 10^5 and a curved one fails while its curvature stays
# above 1e-5.
PROBE_TOL = 1e-5
# Half-width of the probe grid center + {-s, 0, s}^n where the domain has
# room for it (`FiniteStatModel.probe_offset`).
PROBE_OFFSET = 0.3
# A route is refused before any evaluation when its estimated work
# exceeds this many units (`_check_evaluations`). At jet order k a centre
# of a model with n outcomes and d parameters costs n d^(k+1) products
# summed over outcomes, times the weight of its order: per product, the
# tensors of order 3 take about 16 times as long as the Fisher matrix and
# those of order 2 twice as long. The bound admits on categorical-natural:n
# the Fisher matrix to n = 272, the symbols to n = 56, the curvature to
# n = 17 and the probe to n = 6; each of these largest inputs takes 0.4 to
# 1.1 s in process on one core.
EVALUATION_BOUND = 2 * 10 ** 7
_ORDER_WEIGHT = {1: 1, 2: 2, 3: 16}


class _Basis:
    """The monomials of degree at most `order` in d variables, in graded
    order (the constant, then x_0 ... x_{d-1}, ...), each a sorted tuple of
    variable indices; the product table of their coefficients, and the
    positions and factors that read derivatives off them."""

    def __init__(self, d: int, order: int):
        self.d, self.order = d, order
        graded = [list(combinations_with_replacement(range(d), k))
                  for k in range(order + 1)]
        monomials = [m for degree in graded for m in degree]
        self.index = {m: i for i, m in enumerate(monomials)}
        self.size = len(monomials)
        # upto[k]: the count of monomials of degree <= k
        upto = [0]
        for degree in graded:
            upto.append(upto[-1] + len(degree))
        # rows[i]: the (j, k) with monomial i times monomial j = monomial k
        self.rows = [[(j, self.index[tuple(sorted(a + b))])
                      for j, b in enumerate(
                          monomials[:upto[order - len(a) + 1]])]
                     for a in monomials]
        # the partial derivative at the centre along monomial m is its
        # coefficient times factor[m], the product of the factorials of
        # its index multiplicities
        self.factor = [math.prod(math.factorial(m.count(v)) for v in set(m))
                       for m in monomials]

    @cache
    def positions(self, rank: int) -> list[int]:
        """The monomial of each multi-index of `rank`, in row-major
        order."""
        return [self.index[tuple(sorted(idx))]
                for idx in product(range(self.d), repeat=rank)]


@cache
def _basis(d: int, order: int) -> _Basis:
    return _Basis(d, order)


class Jet:
    """A truncated Taylor polynomial about a centre: one coefficient per
    monomial of its basis, the constant first. Supports +, - and * with
    jets of the same basis and with floats, and `exp` and `log`."""

    __slots__ = ("c", "basis")

    def __init__(self, c: list, basis: _Basis):
        self.c, self.basis = c, basis

    @property
    def value(self) -> float:
        return self.c[0]

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet([a + b for a, b in zip(self.c, other.c)], self.basis)
        c = self.c[:]
        c[0] += other
        return Jet(c, self.basis)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-a for a in self.c], self.basis)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet([a - b for a, b in zip(self.c, other.c)], self.basis)
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(_product(self.c, other.c, self.basis.rows),
                       self.basis)
        return Jet([a * other for a in self.c], self.basis)

    __rmul__ = __mul__


def _product(a: list, b: list, rows: list) -> list:
    """The truncated product of two coefficient lists, looping over the
    nonzeros of the sparser."""
    if a.count(0.0) < b.count(0.0):
        a, b = b, a
    out = [0.0] * len(a)
    for i, ai in enumerate(a):
        if ai:
            for j, k in rows[i]:
                out[k] += ai * b[j]
    return out


def _series(u: Jet, coefficients: list) -> Jet:
    """sum_k coefficients[k] (u - u_0)^k to the jet's order, by Horner's
    rule: a power series about u_0 composed with u."""
    basis = u.basis
    if not basis.order:
        return Jet(coefficients[:1], basis)
    *rest, f = coefficients
    acc = [f * x for x in u.c]
    acc[0] = rest.pop()
    rows = basis.rows
    # the nonzeros of u - u_0, each times a row of the product table
    terms = [(x, rows[i]) for i, x in enumerate(u.c) if i and x]
    for f in reversed(rest):
        out = [0.0] * basis.size
        for x, row in terms:
            for j, k in row:
                out[k] += x * acc[j]
        out[0] += f
        acc = out
    return Jet(acc, basis)


def exp(u: Jet) -> Jet:
    """e^u, truncated at the jet's order."""
    e = math.exp(u.value)
    return _series(u, [e / math.factorial(k)
                       for k in range(u.basis.order + 1)])


def log(u: Jet) -> Jet:
    """The natural logarithm of u, whose value must be positive, truncated
    at the jet's order."""
    u0 = u.value
    return _series(u, [math.log(u0)] + [
        (-1.0) ** (k + 1) / (k * u0 ** k)
        for k in range(1, u.basis.order + 1)])


def _coordinates(theta: list, order: int) -> list[Jet]:
    """The coordinate functions of theta as jets of `order` about it."""
    basis = _basis(len(theta), order)
    jets = []
    for i, t in enumerate(theta):
        c = [0.0] * basis.size
        c[0] = t
        if order:
            c[1 + i] = 1.0
        jets.append(Jet(c, basis))
    return jets


@dataclass(frozen=True)
class FiniteStatModel:
    """Positive probability model on finitely many outcomes.

    log_probs maps the n_params coordinate jets of theta (`Jet`, all of
    one order about one centre) to the n_outcomes jets of the log
    probabilities. It must be smooth in theta and normalized: the
    probabilities at each centre sum to 1 within NORM_TOL. The domain is
    the box `domain`, intersected with the simplex sum(theta) <= 1 when
    `simplex` is set (mean coordinates, where the last probability is
    1 - sum(theta)).
    """

    name: str
    n_outcomes: int
    n_params: int
    log_probs: Callable[[list[Jet]], list[Jet]]
    domain: tuple[tuple[float, float], ...]
    simplex: bool = False

    def check_domain(self, theta) -> list[float]:
        try:
            theta = [float(t) for t in theta]
        except TypeError:
            raise ValidationError(
                f"theta must have {self.n_params} coordinates") from None
        if len(theta) != self.n_params:
            raise ValidationError(
                f"theta must have {self.n_params} coordinates")
        for t, (lo, hi) in zip(theta, self.domain):
            if not (lo + DOMAIN_MARGIN <= t <= hi - DOMAIN_MARGIN):
                raise DomainViolation(
                    f"theta component {t} outside "
                    f"[{lo + DOMAIN_MARGIN}, {hi - DOMAIN_MARGIN}]")
        if self.simplex and not 1.0 - sum(theta) >= DOMAIN_MARGIN:
            raise DomainViolation(
                f"theta components sum to {sum(theta)}, above "
                f"{1.0 - DOMAIN_MARGIN}")
        return theta

    def probe_offset(self, center) -> float:
        """Largest s <= PROBE_OFFSET such that every point of the grid
        center + {-s, 0, s}^n passes `check_domain`.

        Each coordinate needs s <= room to its box ends less
        DOMAIN_MARGIN; on the simplex the corner sum(center) + n s must
        stay 1 - DOMAIN_MARGIN or below.
        """
        theta = self.check_domain(center)
        room = [min(t - lo, hi - t) - DOMAIN_MARGIN
                for t, (lo, hi) in zip(theta, self.domain)]
        if self.simplex:
            room.append((1.0 - DOMAIN_MARGIN - sum(theta)) / self.n_params)
        # the slack keeps rounding in center + s off the domain margin
        tight = min(room) - 1e-9
        if tight < 0.0:
            raise DomainViolation(
                f"theta {theta} is within {DOMAIN_MARGIN} of the domain "
                f"boundary; no probe grid fits around it")
        return min(PROBE_OFFSET, tight)

    def probe_grid(self, center) -> list[list[float]]:
        """The grid center + {-s, 0, s}^n, s = `probe_offset(center)`, for
        `exponential_defect_probe`; refused before it is built when the
        probe's sums on it would exceed EVALUATION_BOUND."""
        s = self.probe_offset(center)
        d = self.n_params
        _check_evaluations(self.n_outcomes, d, 3 ** d, order=3)
        return [[c + o for c, o in zip(center, combo)]
                for combo in product((-s, 0.0, s), repeat=d)]


def _check_evaluations(n: int, d: int, centers: int, order: int) -> None:
    """Refuse a route of jet `order` at `centers` points of a model with n
    outcomes and d parameters when its work, n d^(order+1) products per
    centre times the weight of the order, would exceed EVALUATION_BOUND."""
    envelope("statmodel work units",
             centers * n * d ** (order + 1) * _ORDER_WEIGHT[order],
             EVALUATION_BOUND)


class _Sums(NamedTuple):
    """The expectations at one centre, each a flat row-major list over its
    indices: the Fisher matrix g (as rows) and its inverse or None; from
    order 2 the lowered symbols' parts C = E[H_ij s_k] and
    D = E[s_i s_j s_k], at (i, j, k); from order 3 the parts of their
    derivatives, d_l(C + w D)_ijk = A + w B at (i, j, l, k), and
    (d_c g) g^-1 at (c, q, e)."""

    g: list
    ginv: list | None
    c: list | None
    d: list | None
    a: list | None
    b: list | None
    dgg: list | None


def _expectations(model: FiniteStatModel, centers, order: int,
                  raised: bool = False) -> list[_Sums]:
    """`_Sums` at each of `centers` (a nonempty iterable of points), from
    one call of `model.log_probs` per centre at jet `order`, refused above
    EVALUATION_BOUND once the centres are counted.

    The checks fail as if each centre were taken alone, in order: a
    centre's domain, then its normalization and, with `raised`, the
    condition of its Fisher matrix. The domains are checked before
    anything is evaluated; the iteration stops at the first centre
    outside, so a lazy `centers` builds nothing past it, and that error
    is raised once the centres before it pass.
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
    _check_evaluations(model.n_outcomes, model.n_params, len(checked), order)
    sums = [_sums_at(model, t, order, raised) for t in checked]
    if fault is not None:
        raise fault
    return sums


def _sums_at(model: FiniteStatModel, theta: list, order: int,
             raised: bool) -> _Sums:
    d = len(theta)
    basis = _basis(d, order)
    jets = model.log_probs(_coordinates(theta, order))
    # cols[m]: the coefficient of monomial m in each outcome's jet
    cols = list(zip(*[j.c for j in jets]))
    p = list(map(math.exp, cols[0]))
    total = sum(p)
    if abs(total - 1.0) > NORM_TOL:
        raise NonNormalized(
            f"probabilities sum to {total!r} at theta={theta}")
    # each outcome's partial derivatives along each monomial, and times p
    deriv = [x if f == 1 else tuple([f * y for y in x])
             for x, f in zip(cols, basis.factor)]
    pderiv = [list(map(mul, p, x)) for x in deriv]
    s, ps = deriv[1:d + 1], pderiv[1:d + 1]
    g = [[0.0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            g[i][j] = g[j][i] = sum(map(mul, ps[i], s[j]))
    ginv = _inverse(g) if raised else None
    if order < 2:
        return _Sums(g, ginv, None, None, None, None, None)
    # the tensors symmetric in their first two indices are summed at the
    # pairs i <= j alone and spread to every (i, j)
    sym = _positions(d)
    h = [deriv[m] for m in basis.positions(2)]
    ph = [pderiv[m] for m in basis.positions(2)]
    ph_ij = [ph[i * d + j] for i, j in sym.ij]
    pss = [list(map(mul, ps[i], s[j])) for i, j in sym.ij]
    c = [sum(map(mul, x, y)) for x in ph_ij for y in s]
    dd = [sum(map(mul, x, y)) for x in pss for y in s]
    c, dd = _spread(c, sym.three), _spread(dd, sym.three)
    if order < 3:
        return _Sums(g, ginv, c, dd, None, None, None)
    pt = [pderiv[m] for m in basis.positions(3)]
    r = range(d)
    # per outcome at (i, j, l): p (H_ij s_l + T_ijl), then p H_ij, and
    # p (s_i s_j s_l + H_il s_j + H_jl s_i), then p s_i s_j
    wa = [list(map(add, map(mul, ph_ij[q], s[l]), pt[(i * d + j) * d + l]))
          + ph_ij[q] for q, (i, j) in enumerate(sym.ij) for l in r]
    wb = [list(map(add, map(add, map(mul, pss[q], s[l]),
                            map(mul, ph[i * d + l], s[j])),
                   map(mul, ph[j * d + l], s[i])))
          for q, (i, j) in enumerate(sym.ij) for l in r]
    # d_l g_ij = E[wb_ijl]
    dg = list(map(sum, wb))
    wb = [x + pss[q // d] for q, x in enumerate(wb)]
    # A = E[wa_ijl s_k] + E[p H_ij H_lk] and B = E[wb_ijl s_k] +
    # E[p s_i s_j H_lk]: each one sum over the outcomes listed twice
    right = [[s[k] + h[l * d + k] for k in r] for l in r]
    a = [sum(map(mul, x, y)) for q, x in enumerate(wa) for y in right[q % d]]
    b = [sum(map(mul, x, y)) for q, x in enumerate(wb) for y in right[q % d]]
    dg = [_spread(dg, row) for row in sym.dg_rows]
    dgg = [sum(map(mul, x, y)) for x in dg for y in ginv]
    return _Sums(g, ginv, c, dd, _spread(a, sym.four), _spread(b, sym.four),
                 dgg)


class _Positions:
    """Flat row-major positions for tensors over d indices. The tensors
    symmetric in their first two indices are summed at the pairs `ij`
    (i <= j) alone: `three` spreads a list over (pair, k) to (i, j, k),
    `four` one over (pair, l, k) to (i, j, l, k), and `dg_rows` gives for
    each (c, q) the positions of (pair(q, m), c) over m. `g_cols` gives
    for each (c, e) the positions of (c, m, e) over m, `plus` and `minus`
    for each (i, j, k, l) those of (j, k, i, l) and (i, k, j, l)
    (`_curvature`), and `swap` for each (i, j, k) that of (j, i, k). The
    lists over d^4 indices, used at jet order 3 alone, are built on first
    use."""

    def __init__(self, d: int):
        self.d = d
        r = self.r = range(d)
        self.ij = [(i, j) for i in r for j in r if i <= j]
        at = self.at = {}
        for q, (i, j) in enumerate(self.ij):
            at[i, j] = at[j, i] = q
        self.three = [at[i, j] * d + k for i in r for j in r for k in r]
        self.dg_rows = [[at[q, m] * d + c for m in r] for c in r for q in r]
        self.g_cols = [[(c * d + m) * d + e for m in r]
                       for c in r for e in r]
        self.swap = [(j * d + i) * d + k for i in r for j in r for k in r]

    @cached_property
    def four(self) -> list:
        d, r, at = self.d, self.r, self.at
        return [(at[i, j] * d + l) * d + k
                for i in r for j in r for l in r for k in r]

    @cached_property
    def plus(self) -> list:
        d, r = self.d, self.r
        return [((j * d + k) * d + i) * d + l
                for i in r for j in r for k in r for l in r]

    @cached_property
    def minus(self) -> list:
        d, r = self.d, self.r
        return [((i * d + k) * d + j) * d + l
                for i in r for j in r for k in r for l in r]


@cache
def _positions(d: int) -> _Positions:
    return _Positions(d)


def _spread(values: list, positions: list) -> list:
    return list(map(values.__getitem__, positions))


def _inverse(g: list) -> list:
    """The inverse of the symmetric Fisher matrix g, from its eigenvalues
    and eigenvectors; refused as singular when its condition number (the
    ratio of the largest to the smallest absolute eigenvalue) exceeds
    1e10."""
    values, vectors = _eigh(g)
    top = max(map(abs, values))
    low = min(map(abs, values))
    if not low * 1e10 >= top or low == 0.0:
        raise SingularFisher("fisher matrix is numerically singular")
    d = len(g)
    scaled = [[x / lam for x, lam in zip(row, values)] for row in vectors]
    inv = [[0.0] * d for _ in range(d)]
    for i in range(d):
        for k in range(i, d):
            inv[i][k] = inv[k][i] = sum(map(mul, scaled[i], vectors[k]))
    return inv


def _eigh(g: list) -> tuple[list, list]:
    """Eigenvalues and eigenvectors (the columns of the second list, as
    rows indexed by coordinate) of the symmetric matrix g, by cyclic
    Jacobi rotations, each pass rotating away every off-diagonal entry
    above 1e-18 of its two diagonal entries, until a pass finds none."""
    d = len(g)
    a = [row[:] for row in g]
    v = [[float(i == j) for j in range(d)] for i in range(d)]
    for _ in range(64):
        rotated = False
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p][q]
                if abs(apq) <= 1e-18 * (abs(a[p][p]) + abs(a[q][q])):
                    a[p][q] = a[q][p] = 0.0
                    continue
                rotated = True
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)) \
                    if abs(theta) < 1e150 else 0.5 / theta
                cos = 1.0 / math.sqrt(t * t + 1.0)
                sin = t * cos
                for row in a:
                    x, y = row[p], row[q]
                    row[p], row[q] = cos * x - sin * y, sin * x + cos * y
                ap, aq = a[p], a[q]
                a[p] = [cos * x - sin * y for x, y in zip(ap, aq)]
                a[q] = [sin * x + cos * y for x, y in zip(ap, aq)]
                a[p][q] = a[q][p] = 0.0
                for row in v:
                    x, y = row[p], row[q]
                    row[p], row[q] = cos * x - sin * y, sin * x + cos * y
        if not rotated:
            break
    return [a[i][i] for i in range(d)], v


def _rows(flat: list, d: int) -> list:
    return [flat[i:i + d] for i in range(0, len(flat), d)]


def _nested(flat: list, d: int, rank: int) -> list:
    """A flat row-major list over rank indices as nested lists."""
    for _ in range(rank - 1):
        flat = _rows(flat, d)
    return flat


def _lowered(sums: _Sums, alpha: float) -> list:
    """The lowered alpha-symbols, flat at (i, j, k)."""
    return _combine(sums.c, sums.d, (1.0 + alpha) / 2.0)


def _combine(x: list, y: list, w: float) -> list:
    """x + w y, entrywise."""
    return list(map(add, x, map(mul, y, repeat(w))))


def _raise(low: list, ginv: list) -> list:
    """The last index of flat symbols raised by the inverse Fisher
    matrix (symmetric, so its rows are its columns)."""
    return [sum(map(mul, row, col)) for row in _rows(low, len(ginv))
            for col in ginv]


def _curvature(sums: _Sums, alpha: float, low: list) -> list:
    """The curvature of the raised alpha-symbols G[i, j, k] (Gamma^k_ij),

        R[i,j,k,l] = d_i G[j,k,l] - d_j G[i,k,l]
                     + sum_m (G[i,m,l] G[j,k,m] - G[j,m,l] G[i,k,m]),

    flat at (i, j, k, l). With d_c G = (d_c low - G d_c g) g^-1, the sum
    F[a, b, c, e] = d_c G[a, b, e] + sum_m G[a, b, m] G[c, m, e] is

        sum_m d_c low[a, b, m] g^-1[m, e]
        + sum_m G[a, b, m] (G[c, m, e] - ((d_c g) g^-1)[m, e]),

    one sum of 2d products per entry, and R[i,j,k,l] = F[j,k,i,l] -
    F[i,k,j,l]. `low` is `_lowered(sums, alpha)`."""
    d = len(sums.g)
    at = _positions(d)
    ginv = sums.ginv
    big = _raise(low, ginv)
    g_rows = _rows(big, d)
    dlow = _rows(_combine(sums.a, sums.b, (1.0 + alpha) / 2.0), d)
    left = [x + g_rows[q // d] for q, x in enumerate(dlow)]
    dgg = sums.dgg
    right = [[ginv[e] + list(map(sub, map(big.__getitem__, col),
                                  map(dgg.__getitem__, col)))
              for e, col in enumerate(at.g_cols[c * d:(c + 1) * d])]
             for c in range(d)]
    f = [sum(map(mul, x, y)) for q, x in enumerate(left)
         for y in right[q % d]]
    return list(map(sub, map(f.__getitem__, at.plus),
                    map(f.__getitem__, at.minus)))


def _max_abs(values: list) -> float:
    """max |v|, or nan when the values sum to nan: a nan among them, or
    both infinities (max() keeps a nan only where it comes first)."""
    if math.isnan(sum(values)):
        return math.nan
    return max(map(abs, values), default=0.0)


def fisher_information(model: FiniteStatModel, theta) -> list:
    """Fisher matrix sum_x p (grad log p)(grad log p)^T."""
    return _expectations(model, [theta], order=1)[0].g


def alpha_christoffels(model: FiniteStatModel, theta, alpha: float,
                       raised: bool = False) -> list:
    """Lowered symbols sum_x p [hess_ij + (1+a)/2 s_i s_j] s_k.

    With raised=True the last index is raised by the inverse Fisher
    matrix, giving Gamma^k_ij stored as [i][j][k].
    """
    sums = _expectations(model, [theta], order=2, raised=raised)[0]
    low = _lowered(sums, alpha)
    return _nested(_raise(low, sums.ginv) if raised else low,
                   len(sums.g), 3)


def alpha_curvature(model: FiniteStatModel, theta,
                    alpha: float) -> tuple[list, float]:
    """Curvature of the raised alpha symbols.

    R[i,j,k,l] = d_i G[j,k,l] - d_j G[i,k,l]
                 + sum_m (G[i,m,l] G[j,k,m] - G[j,m,l] G[i,k,m])
    with G[i,j,k] the raised symbols; returns the tensor and its max-abs.
    """
    sums = _expectations(model, [theta], order=3, raised=True)[0]
    r = _curvature(sums, alpha, _lowered(sums, alpha))
    return _nested(r, len(sums.g), 4), _max_abs(r)


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
    grid = list(grid)
    if not grid:
        raise ValidationError("probe grid is empty")
    norms = {-1.0: 0.0, 1.0: 0.0}
    torsion = 0.0
    for sums in _expectations(model, grid, order=3, raised=True):
        swap = _positions(len(sums.g)).swap
        for alpha in norms:
            low = _lowered(sums, alpha)
            norms[alpha] = max(norms[alpha],
                               _max_abs(_curvature(sums, alpha, low)))
            torsion = max(torsion, _max_abs(list(map(
                sub, low, map(low.__getitem__, swap)))))
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

    def log_probs(theta):
        t = theta[0]
        return [log(1.0 - t), log(t)]

    return FiniteStatModel("bernoulli", 2, 1, log_probs, ((0.0, 1.0),))


def categorical_mean(n: int) -> FiniteStatModel:
    """n outcomes, mean coordinates theta_i = p_i for i < n-1."""
    _check_outcomes(n)

    def log_probs(theta):
        return [log(t) for t in theta] + [log(1.0 - sum(theta))]

    box = tuple(((0.0, 1.0),) * (n - 1))
    return FiniteStatModel(f"categorical:{n}", n, n - 1, log_probs, box,
                           simplex=True)


def categorical_natural(n: int) -> FiniteStatModel:
    """n outcomes, natural (logit) coordinates: p = softmax(theta, 0)."""
    _check_outcomes(n)

    def log_probs(theta):
        return _log_softmax(theta + [0.0])

    box = tuple(((-4.0, 4.0),) * (n - 1))
    return FiniteStatModel(f"categorical-natural:{n}", n, n - 1, log_probs,
                           box)


def _check_outcomes(n: int) -> None:
    """Refuse a categorical family no route could evaluate, before it is
    built: the cheapest route, the Fisher matrix at one point, sums over
    n outcomes at jet order 1."""
    if n < 2:
        raise ValidationError("categorical model needs >= 2 outcomes")
    _check_evaluations(n, n - 1, 1, order=1)


def curved4() -> FiniteStatModel:
    """Curved 2-parameter subfamily of the 4-outcome family: logits
    (t1, t2, t1*t2, 0). The nonlinear constraint breaks dual flatness."""

    def log_probs(theta):
        t1, t2 = theta
        return _log_softmax([t1, t2, t1 * t2, 0.0])

    return FiniteStatModel("curved4", 4, 2, log_probs,
                           ((-3.0, 3.0), (-3.0, 3.0)))


def constant_family() -> FiniteStatModel:
    """Uniform on two outcomes regardless of theta; zero Fisher metric."""

    def log_probs(theta):
        half = 0.0 * theta[0] + math.log(0.5)
        return [half, half]

    return FiniteStatModel("constant", 2, 1, log_probs, ((-1.0, 1.0),))


def _log_softmax(logits: list) -> list[Jet]:
    """Each logit, a jet or a constant, less the log-sum-exp of all,
    shifted by their largest value."""
    jets = [x for x in logits if isinstance(x, Jet)]
    m = max(x.value if isinstance(x, Jet) else x for x in logits)
    total = [sum(c) for c in zip(*[exp(x - m).c for x in jets])]
    total[0] += sum(math.exp(x - m) for x in logits
                    if not isinstance(x, Jet))
    lse = log(Jet(total, jets[0].basis)) + m
    return [x - lse for x in logits]


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
    try:
        return _FAMILY_BUILDERS[name](arg)
    except ValueError:  # from int() of the outcome count
        raise ValidationError(f"family {spec!r}: the outcome count must be "
                              f"an integer, e.g. {name}:3") from None


def default_theta(model: FiniteStatModel) -> list[float]:
    """Canonical interior point: barycenter for mean coordinates, origin
    for natural coordinates, midpoint otherwise."""
    if model.name.startswith("categorical:"):
        return [1.0 / model.n_outcomes] * model.n_params
    if model.name.startswith("categorical-natural") or \
            model.name == "curved4":
        return [0.0] * model.n_params
    if model.name == "bernoulli":
        return [0.5]
    return [(lo + hi) / 2.0 for lo, hi in model.domain]
