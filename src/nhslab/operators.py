"""Kernels, the fractional Marcinkiewicz integral, and maximal operators.

On an atomic space the truncated kernel sums are piecewise constant in the
truncation parameter, so the Marcinkiewicz integral evaluates in closed form:
between consecutive distances the inner sum is frozen and the remaining
one-dimensional integral is an explicit power integral.  The maximal
operators are suprema over candidate balls containing the evaluation point,
computed by per-center prefix sums and a scatter of per-ball values onto
members.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .errors import (
    InvalidParams,
    NoDoublingBall,
    NonMonotoneTheta,
    NotNormalized,
    ZeroNormB,
)
from .geometry import (
    Ball,
    ball_measure,
    doubling_flags,
    coefficient_tables,
    nested_pairs,
    pairs_are_exhaustive,
    sampled_nested_pairs,
)
from .mmspace import (
    DominatingFunction,
    GeometryProfile,
    PointCloudSpace,
)
from .report import CheckReport
from .spaces import (
    GrowthFunctionPhi,
    RegularityFunctionPsi,
    campanato_norm,
    morrey_norm,
    oscillation_sums,
)


# ------------------------------------------------------------------------------
# Parameters
# ------------------------------------------------------------------------------
@dataclass(frozen=True)
class OperatorParams:
    """Exponents and scales shared by the operator suite.

    ``tau`` is the enlargement of the maximal operators (at least 5); the
    dilation step of coefficient computations is passed separately where it
    matters.
    """

    l: float = 0.0
    rho: float = 1.0
    s: float = 2.0
    p: float = 2.0
    q: float = 2.0
    tau: float = 5.0
    eta: float = 2.0
    delta: float = 0.5
    sigma: float = 0.2
    gamma: float = 1.0

    def __post_init__(self):
        if self.l < 0:
            raise InvalidParams(f"l must be nonnegative, got {self.l!r}")
        if not self.rho > 0:
            raise InvalidParams(f"rho must be positive, got {self.rho!r}")
        if not self.s >= 1:
            raise InvalidParams(f"s must be at least 1, got {self.s!r}")
        if not 1.0 < self.p < math.inf:
            raise InvalidParams(f"p must lie in (1, inf), got {self.p!r}")
        if not self.p <= self.q < math.inf:
            raise InvalidParams(f"q must lie in [p, inf), got {self.q!r}")
        if not self.tau >= 5:
            raise InvalidParams(f"tau must be at least 5, got {self.tau!r}")
        if not self.eta > 1:
            raise InvalidParams(f"eta must exceed 1, got {self.eta!r}")
        if not 0.0 < self.delta < 1.0:
            raise InvalidParams(f"delta must lie in (0, 1), got {self.delta!r}")
        if not self.sigma > 0:
            raise InvalidParams(f"sigma must be positive, got {self.sigma!r}")
        if not self.gamma >= 1:
            raise InvalidParams(f"gamma must be at least 1, got {self.gamma!r}")


# ------------------------------------------------------------------------------
# Kernel moduli and the log-weighted modulus integral
# ------------------------------------------------------------------------------
def power_theta(a: float) -> Callable:
    if not a > 0:
        raise InvalidParams(f"power modulus exponent must be positive, got {a!r}")

    def theta(t):
        return np.power(t, a)

    theta.family = f"power({a:g})"
    return theta


def zero_theta() -> Callable:
    def theta(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    theta.family = "zero"
    return theta


def constant_theta(value: float = 1.0) -> Callable:
    def theta(t):
        return np.full_like(np.asarray(t, dtype=float), value)

    theta.family = f"constant({value:g})"
    return theta


def dini_integral(theta: Callable, tol: float = 1e-8, max_levels: int = 60) -> float:
    """Integral of theta(t)/t * log(1/t) over (0, 1] by dyadic pieces.

    Returns ``math.inf`` when the dyadic pieces admit no decaying geometric
    majorant within ``max_levels`` levels (a divergence declaration); the
    finite value is otherwise accurate within ``tol``.
    """
    ts = np.geomspace(1e-12, 1.0, 241)
    vals = np.asarray(theta(ts), dtype=float)
    slack = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    if np.any(vals[1:] < vals[:-1] - slack):
        j = int(np.argmax(vals[1:] < vals[:-1] - slack))
        raise NonMonotoneTheta(
            f"theta decreases between t={ts[j]!r} and t={ts[j + 1]!r}")

    def integrand(t: float) -> float:
        return float(theta(t)) / t * math.log(1.0 / t)

    total = 0.0
    pieces: list = []
    for j in range(max_levels):
        a, b = 2.0 ** (-(j + 1)), 2.0 ** (-j)
        piece, _ = quad(integrand, a, b, epsabs=tol / 2.0 ** (j + 2), epsrel=1e-10, limit=200)
        pieces.append(piece)
        total += piece
        if j >= 2:
            recent = pieces[-3:]
            if max(recent) == 0.0:
                return total
            ratios = [recent[i + 1] / recent[i] for i in range(2) if recent[i] > 0]
            if ratios and max(ratios) < 0.95 and recent[1] > 0:
                r = max(ratios)
                if pieces[-1] * r / (1.0 - r) < tol:
                    return total
    return math.inf


# ------------------------------------------------------------------------------
# Kernels
# ------------------------------------------------------------------------------
@dataclass(eq=False)
class KernelSpec:
    """Off-diagonal kernel with size exponent l, modulus theta, and its
    measured size constant (the max of |K| against the reference envelope)."""

    l: float
    theta: Callable
    matrix: np.ndarray
    c_size: float
    dini_value: float
    family: str = "canonical"

    def __call__(self, x: int, y: int) -> float:
        return float(self.matrix[x, y])


def size_bound_matrix(space: PointCloudSpace, lam: DominatingFunction, l: float) -> np.ndarray:
    """Reference envelope d(x,y)**(1+l) / lam(x, d(x,y)), zero on the diagonal."""
    lam_mat = space.pair_table(lam)
    bound = space.dist ** (1.0 + l) / lam_mat
    np.fill_diagonal(bound, 0.0)
    return bound


def make_kernel(space: PointCloudSpace, lam: DominatingFunction, *,
                l: float = 0.0, theta: Optional[Callable] = None,
                family: str = "canonical", scale: float = 1.0, eps: float = 0.1,
                seed: int = 0, dini_tol: float = 1e-8, check_dini: bool = True) -> KernelSpec:
    """Build a kernel from a named family against the reference envelope.

    Families: "canonical" (the envelope itself), "scaled" (a constant multiple)
    and "perturbed" (the envelope times 1 + eps*h for a seeded bounded h).
    """
    if theta is None:
        theta = power_theta(1.0)
    dini = dini_integral(theta, dini_tol) if check_dini else math.nan
    if check_dini and not math.isfinite(dini):
        raise InvalidParams("the kernel modulus fails the log-weighted integrability test")
    bound = size_bound_matrix(space, lam, l)
    if family == "canonical":
        matrix = bound.copy()
    elif family == "scaled":
        matrix = scale * bound
    elif family == "perturbed":
        rng = np.random.default_rng(seed)
        h = rng.uniform(-1.0, 1.0, size=bound.shape)
        matrix = bound * (1.0 + eps * h)
    else:
        raise InvalidParams(f"unknown kernel family {family!r}")
    positive = bound > 0
    c_size = float(np.max(np.abs(matrix[positive]) / bound[positive])) if positive.any() else 0.0
    return KernelSpec(l=l, theta=theta, matrix=matrix, c_size=c_size,
                      dini_value=dini, family=family)


def validate_kernel(space: PointCloudSpace, lam: DominatingFunction, kernel: KernelSpec,
                    pair_budget: int = 8000, seed: int = 0) -> CheckReport:
    """Measure the size constant exactly over all ordered pairs and the
    smoothness constants over admissible triples.

    The smoothness display subtracts two kernel differences, so the left side
    can be negative; it is clamped at zero and the constant for the summed
    variant is reported alongside, neither asserted.
    """
    bound = size_bound_matrix(space, lam, kernel.l)
    positive = bound > 0
    c_size = float(np.max(np.abs(kernel.matrix[positive]) / bound[positive])) if positive.any() else 0.0
    lam_mat = space.pair_table(lam)
    n = space.n
    if n * n <= pair_budget:
        xz_pairs = [(x, z) for x in range(n) for z in range(n) if x != z]
    else:
        rng = np.random.default_rng(seed)
        xz_pairs = []
        for _ in range(pair_budget):
            x, z = rng.choice(n, size=2, replace=False)
            xz_pairs.append((int(x), int(z)))
    smooth_diff = 0.0
    smooth_sum = 0.0
    unbounded = False
    ys = np.arange(n)
    for x, z in xz_pairs:
        dxz = space.dist[x, z]
        if dxz <= 0:
            continue
        dxy = space.dist[x]
        mask = (ys != x) & (ys != z) & (dxy > 0) & (dxy >= dxz / 2.0)
        if not mask.any():
            continue
        row_diff = np.abs(kernel.matrix[x, mask] - kernel.matrix[z, mask])
        col_diff = np.abs(kernel.matrix[mask, x] - kernel.matrix[mask, z])
        lhs_diff = np.maximum(row_diff - col_diff, 0.0)
        lhs_sum = row_diff + col_diff
        rhs = np.asarray(kernel.theta(dxz / dxy[mask]), dtype=float) \
            * dxz ** (1.0 + kernel.l) / lam_mat[x, mask]
        ok = rhs > 0
        if np.any(~ok & (lhs_sum > 1e-300)):
            unbounded = True
        if ok.any():
            smooth_diff = max(smooth_diff, float(np.max(lhs_diff[ok] / rhs[ok])))
            smooth_sum = max(smooth_sum, float(np.max(lhs_sum[ok] / rhs[ok])))
    return CheckReport(
        check="kernel_constants",
        passed=None,
        value=c_size,
        details={
            "c_size": c_size,
            "smoothness_difference": math.inf if unbounded else smooth_diff,
            "smoothness_sum": math.inf if unbounded else smooth_sum,
            "dini_value": kernel.dini_value,
            "family": kernel.family,
        },
    )


# ------------------------------------------------------------------------------
# Integral operators
# ------------------------------------------------------------------------------
def t_lambda(space: PointCloudSpace, lam: DominatingFunction, f: np.ndarray,
             x: Optional[int] = None):
    """Sum of f(y) w(y) / lam(x, d(x, y)) over y at positive distance from x."""
    f = np.asarray(f, dtype=float)
    lam_mat = space.pair_table(lam)
    mask = space.dist > 0
    contrib = np.where(mask, (f * space.weights)[None, :] / lam_mat, 0.0)
    totals = contrib.sum(axis=1)
    return totals if x is None else float(totals[x])


def _marcinkiewicz(space: PointCloudSpace, kernel: KernelSpec, f, x: Optional[int],
                   params: Optional[OperatorParams], b: Optional[np.ndarray] = None):
    """The integral at ``x`` (every point if None), weighted by b(x) - b(y) if ``b`` is given.

    One pass over the rows of ``space.order``: the summands of every row
    (positive distance, f(y) != 0) in distance order form one flat array, and
    each row's run of equal distances is one jump.  The per-row reductions
    add in the order of a per-point evaluation, so the values do not depend
    on how many points are evaluated.
    """
    params = params or OperatorParams()
    f = np.asarray(f, dtype=float)
    rows = np.arange(space.n) if x is None else np.asarray([x])
    order = space.order[rows]
    dist = space.sorted_dist[rows]
    r, k = np.nonzero((dist > 0) & (f[order] != 0))
    y, center, d = order[r, k], rows[r], dist[r, k]
    contrib = kernel.matrix[center, y] * f[y] * space.weights[y] / d ** (1.0 - params.rho)
    if b is not None:
        contrib = contrib * (b[center] - b[y])
    out = np.zeros(rows.size)
    if r.size:
        new_row = np.r_[True, r[1:] != r[:-1]]
        start = np.flatnonzero(new_row | np.r_[True, d[1:] != d[:-1]])  # one per jump
        sums = np.add.reduceat(contrib, start)
        # the running sums of each row, on a grid of (row, jump g within the row)
        row_of, row_first = r[start], np.flatnonzero(new_row[start])
        g = np.arange(start.size) - row_first[np.cumsum(new_row[start]) - 1]
        grid = np.zeros((rows.size, int(g.max()) + 1))
        grid[row_of, g] = sums
        partial = np.cumsum(grid, axis=1)[row_of, g]
        a_exp = (params.l + params.rho) * params.s
        rpow = d[start] ** (-a_exp)
        upper = np.r_[rpow[1:], 0.0]
        upper[np.r_[row_first[1:], start.size] - 1] = 0.0  # a row's last jump runs to infinity
        pieces = np.abs(partial) ** params.s * (rpow - upper) / a_exp
        # reduceat adds onto a slice's first element, np.sum onto zero: lead with a zero
        totals = np.add.reduceat(np.insert(pieces, row_first, 0.0), row_first + np.arange(row_first.size))
        # scalar powers, as array powers may take a different (SIMD) route
        out[row_of[row_first]] = [t ** (1.0 / params.s) for t in totals.tolist()]
    return out if x is None else float(out[0])


def marcinkiewicz(space: PointCloudSpace, kernel: KernelSpec, f: np.ndarray,
                  x: Optional[int] = None, params: Optional[OperatorParams] = None):
    """Closed-form evaluation of the fractional Marcinkiewicz integral.

    The truncation integral is summed exactly over the intervals between
    consecutive distinct distances from x to the support of f; atoms at equal
    distance merge into a single jump.
    """
    return _marcinkiewicz(space, kernel, f, x, params)


def marcinkiewicz_commutator(space: PointCloudSpace, kernel: KernelSpec,
                             b: np.ndarray, f: np.ndarray,
                             x: Optional[int] = None,
                             params: Optional[OperatorParams] = None):
    """Commutator variant: each summand is weighted by b(x) - b(y)."""
    return _marcinkiewicz(space, kernel, f, x, params, np.asarray(b, dtype=float))


# ------------------------------------------------------------------------------
# Maximal operators
# ------------------------------------------------------------------------------
def _scatter_sup(space: PointCloudSpace, values: np.ndarray) -> np.ndarray:
    """Pointwise supremum over candidate balls containing each point, given
    one value per ball of the family; -inf marks excluded balls."""
    family = space.balls()
    n = space.n
    # by_count[c, q - 1]: best value among the balls of c with q members
    by_count = np.full((n, n), -math.inf)
    np.maximum.at(by_count, (family.center, family.counts() - 1), values)
    # a ball with q members covers the q points closest to its center
    by_rank = np.maximum.accumulate(by_count[:, ::-1], axis=1)[:, ::-1]
    by_point = np.empty((n, n))
    np.put_along_axis(by_point, space.order, by_rank, axis=1)
    return by_point.max(axis=0)


def _power_means(space: PointCloudSpace, f: np.ndarray, p: float, tau: float) -> np.ndarray:
    """Per ball: (sum of |f|**p w over B / mu(tau*B))**(1/p)."""
    family = space.balls()
    power = space.prefix_of(np.abs(f) ** p * space.weights)
    return (power[family.center, family.counts()] / family.measures(tau)) ** (1.0 / p)


def maximal_p_tau(space: PointCloudSpace, f: np.ndarray, p: float, tau: float,
                  x: Optional[int] = None):
    """Supremum over candidate balls containing x of the (1/mu(tau*B)
    normalized) p-mean of |f| on B."""
    if not p > 1:
        raise InvalidParams(f"p must exceed 1, got {p!r}")
    if not tau >= 5:
        raise InvalidParams(f"tau must be at least 5, got {tau!r}")
    f = np.asarray(f, dtype=float)
    out = _scatter_sup(space, _power_means(space, f, p, tau))
    return out if x is None else float(out[x])


def maximal_psi_p_tau(space: PointCloudSpace, psi: RegularityFunctionPsi,
                      f: np.ndarray, p: float, tau: float,
                      x: Optional[int] = None):
    """As maximal_p_tau with the factor psi(B) inside the supremum."""
    if not p > 1:
        raise InvalidParams(f"p must exceed 1, got {p!r}")
    if not tau >= 5:
        raise InvalidParams(f"tau must be at least 5, got {tau!r}")
    f = np.asarray(f, dtype=float)
    vals = space.fn_table(psi) * _power_means(space, f, p, tau)
    out = _scatter_sup(space, vals)
    return out if x is None else float(out[x])


def doubling_maximal(space: PointCloudSpace, profile: GeometryProfile, f: np.ndarray,
                     x: Optional[int] = None):
    """Supremum of plain means of |f| over doubling candidate balls containing
    the point.  Saturated balls are always doubling, so coverage is total."""
    f = np.asarray(f, dtype=float)
    family = space.balls()
    flags = doubling_flags(space, profile, 6.0)
    absf = space.prefix_of(np.abs(f) * space.weights)
    counts = family.counts()
    means = absf[family.center, counts] / space.prefix_weight[family.center, counts]
    out = _scatter_sup(space, np.where(flags, means, -math.inf))
    if np.any(~np.isfinite(out)):
        raise NoDoublingBall("a point is covered by no doubling candidate ball")
    return out if x is None else float(out[x])


def _max_table(values: np.ndarray, depth: int) -> np.ndarray:
    """Sparse table: row k < depth holds the largest of ``values`` over each
    window ``i:i + 2**k``; a -inf pad ends every row."""
    table = np.empty((depth, values.size + 1))
    table[0, :-1] = values
    table[0, -1] = -math.inf
    for k in range(1, depth):
        half = 1 << (k - 1)
        table[k, -half:] = table[k - 1, -half:]
        np.maximum(table[k - 1, :-half], table[k - 1, half:], out=table[k, :-half])
    return table


def _window_max(table: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Largest value of each window ``lo:hi`` from two overlapping
    power-of-two windows, -inf for an empty one."""
    length = hi - lo
    k = np.frexp(np.maximum(length, 1))[1] - 1
    row = k * table.shape[1]
    flat = table.reshape(-1)
    out = np.maximum(flat[row + lo], flat[row + hi - (1 << k)])
    out[length == 0] = -math.inf
    return out


def _sharp_exhaustive(space, lam, profile, f, tau) -> np.ndarray:
    beta = profile.beta(tau)
    f = np.asarray(f, dtype=float)
    family = space.balls()
    balls = [Ball(int(c), float(r)) for c, r in zip(family.center, family.radius)]
    means = []
    masks = []
    dbl = []
    osc = np.zeros(space.n)
    for ball in balls:
        mask = space.dist[ball.center] <= ball.radius
        masks.append(mask)
        w = space.weights[mask]
        m = float(np.sum(f[mask] * w) / np.sum(w))
        means.append(m)
        dbl.append(ball_measure(space, ball.scaled(tau)) <= beta * ball_measure(space, ball))
        val = float(np.sum(np.abs(f[mask] - m) * w)) / ball_measure(space, ball.scaled(6.0))
        osc[mask] = np.maximum(osc[mask], val)
    pair = np.zeros(space.n)
    inner, outer = nested_pairs(space)
    coeffs = coefficient_tables(space, lam, 6.0).pairs(inner, outer).tolist()
    for i, j, coeff in zip(inner, outer, coeffs):
        if not (dbl[i] and dbl[j]):
            continue
        val = abs(means[i] - means[j]) / coeff
        pair[masks[i]] = np.maximum(pair[masks[i]], val)
    return np.maximum(osc, pair)


def sharp_maximal(space: PointCloudSpace, lam: DominatingFunction,
                  profile: GeometryProfile, f: np.ndarray,
                  x: Optional[int] = None, *, pair_budget: int = 2000, seed: int = 0):
    """Oscillation maximal function combined with the coefficient-normalized
    mean-jump supremum over nested doubling ball pairs containing the point.

    Concentric pairs are enumerated exhaustively; non-concentric containing
    pairs are the doubling pairs of the space's shared fixed-seed sample
    (everything, when :func:`~nhslab.geometry.pairs_are_exhaustive` holds).
    """
    family = space.balls()
    f = np.asarray(f, dtype=float)
    if pairs_are_exhaustive(space):
        out = _sharp_exhaustive(space, lam, profile, f, 6.0)
        return out if x is None else float(out[x])

    counts = family.counts()
    osc_s = oscillation_sums(space, f)[family.center, counts - 1]
    pf = space.prefix_of(f * space.weights)
    pw = space.prefix_weight
    means = pf[family.center, counts] / pw[family.center, counts]
    flags = doubling_flags(space, profile, 6.0)
    tables = coefficient_tables(space, lam, 6.0)

    # concentric pairs (b, j >= b): the outer balls of scale index N form the
    # run lo:hi of b's segment, so the largest jump is at the run's extrema
    ends = family.run_ends(6.0)
    depth = int(np.frexp(int(np.diff(family.offsets).max()))[1])  # runs stay in a segment
    top = _max_table(np.where(flags, means, -math.inf), depth)
    bottom = _max_table(np.where(flags, -means, -math.inf), depth)
    pair_vals = np.full(len(family), -math.inf)
    lo = np.arange(len(family))
    with np.errstate(invalid="ignore"):
        for n_idx in range(ends.shape[1]):
            hi = ends[:, n_idx]
            jump = np.maximum(_window_max(top, lo, hi) - means, means + _window_max(bottom, lo, hi))
            np.maximum(pair_vals, jump / tables.concentric(slice(None), n_idx), out=pair_vals)
            lo = hi
    pair_vals[~flags] = -math.inf
    # a sampled pair reaches the members of its inner ball, as a concentric one
    pairs = sampled_nested_pairs(space, pair_budget, seed)
    doubling = flags[pairs.b1] & flags[pairs.b2]
    b1, b2 = pairs.b1[doubling], pairs.b2[doubling]
    np.maximum.at(pair_vals, b1, np.abs(means[b1] - means[b2]) / tables.pairs(b1, b2))

    osc_part = _scatter_sup(space, osc_s / family.measures(6.0))
    pair_part = np.maximum(_scatter_sup(space, pair_vals), 0.0)
    out = np.maximum(osc_part, pair_part)
    return out if x is None else float(out[x])


# ------------------------------------------------------------------------------
# Pointwise estimates
# ------------------------------------------------------------------------------
def check_pointwise_domination(space: PointCloudSpace, lam: DominatingFunction,
                               kernel: KernelSpec, f: np.ndarray,
                               params: Optional[OperatorParams] = None,
                               rel_slack: float = 1e-9) -> CheckReport:
    """Assert, at every point, that the Marcinkiewicz integral is bounded by
    ((l+rho)s)**(-1/s) * c_size times the dominating potential of |f|.

    This is the exact triangle-inequality step of the operator bound: the
    truncation integral of each summand is an explicit power tail, so the
    inequality must hold identically up to rounding.
    """
    params = params or OperatorParams()
    f = np.asarray(f, dtype=float)
    lhs = marcinkiewicz(space, kernel, f, None, params)
    a_exp = (params.l + params.rho) * params.s
    rhs = a_exp ** (-1.0 / params.s) * kernel.c_size * t_lambda(space, lam, np.abs(f))
    slack = rel_slack * np.maximum(1.0, rhs)
    viol = lhs - rhs - slack
    worst = int(np.argmax(viol))
    passed = bool(np.all(viol <= 0))
    return CheckReport(
        check="pointwise_domination",
        passed=passed,
        value=float(np.max(lhs - rhs)),
        worst_witness={"x": worst, "lhs": float(lhs[worst]), "rhs": float(rhs[worst])},
        details={"constant": a_exp ** (-1.0 / params.s) * kernel.c_size},
    )


def check_sharp_maximal_estimate(space: PointCloudSpace, lam: DominatingFunction,
                                 profile: GeometryProfile, kernel: KernelSpec,
                                 psi: RegularityFunctionPsi, b: np.ndarray, f: np.ndarray,
                                 params: Optional[OperatorParams] = None,
                                 *, norm_tau: float = 2.0, pair_budget: int = 2000,
                                 seed: int = 0, b_norm: Optional[float] = None) -> CheckReport:
    """Measure the pointwise ratio of the sharp maximal function of the
    commutator against the maximal-function bound; the max ratio is the
    empirical constant used in refinement-stability tests.

    ``b_norm`` skips recomputing the symbol's oscillation norm when the
    caller evaluates many functions against one symbol.
    """
    params = params or OperatorParams()
    b = np.asarray(b, dtype=float)
    f = np.asarray(f, dtype=float)
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    if b_norm is None:
        b_norm = campanato_norm(space, lam, b, psi, norm_tau, params.gamma,
                                pair_budget=pair_budget, seed=seed).norm
    if b_norm <= 1e-13 * max(scale, 1.0):
        raise ZeroNormB("the commutator symbol has zero oscillation norm")
    mf = marcinkiewicz(space, kernel, f, None, params)
    g = marcinkiewicz_commutator(space, kernel, b, f, None, params)
    lhs = sharp_maximal(space, lam, profile, g, pair_budget=pair_budget, seed=seed)
    den = b_norm * (maximal_psi_p_tau(space, psi, f, params.p, 5.0, None)
                    + maximal_psi_p_tau(space, psi, mf, params.p, 6.0, None))
    mask = den > 0
    skipped = int(np.sum(~mask))
    if not mask.any():
        return CheckReport(check="sharp_maximal_estimate", passed=None, value=0.0,
                           details={"skipped_points": skipped, "b_norm": b_norm})
    ratio = lhs[mask] / den[mask]
    j = int(np.argmax(ratio))
    witness_x = int(np.nonzero(mask)[0][j])
    return CheckReport(
        check="sharp_maximal_estimate",
        passed=None,
        value=float(np.max(ratio)),
        worst_witness={"x": witness_x},
        details={"skipped_points": skipped, "b_norm": b_norm},
    )


def maximal_embedding_constant(space: PointCloudSpace, psi: RegularityFunctionPsi,
                               phi: GrowthFunctionPhi, p: float, q: float) -> float:
    """Largest value of psi(B) * phi(B)**(1/p - 1/q) over candidate balls."""
    psit = space.fn_table(psi)
    phit = space.fn_table(phi)
    return float(np.max(psit * phit ** (1.0 / p - 1.0 / q)))


def check_maximal_morrey_pointwise(space: PointCloudSpace, psi: RegularityFunctionPsi,
                                   phi: GrowthFunctionPhi, f: np.ndarray,
                                   params: Optional[OperatorParams] = None,
                                   *, c10: Optional[float] = None, c_impl: float = 1.0,
                                   rel_slack: float = 1e-9) -> CheckReport:
    """Check the pointwise maximal-function embedding for a function with
    Morrey norm at most 1 (normalized with the same enlargement).

    Splitting on whether phi at the witness ball exceeds the p-th power of
    the plain maximal function gives the bound with constant exactly c10, so
    the measured ratio must not exceed ``c_impl`` (tolerance tightens to
    1e-12 when p equals q, where the chain is a single exact comparison).
    """
    params = params or OperatorParams()
    f = np.asarray(f, dtype=float)
    p, q, tau = params.p, params.q, params.tau
    if c10 is None:
        c10 = maximal_embedding_constant(space, psi, phi, p, q)
    norm = morrey_norm(space, f, p, phi, eta=tau)
    if norm > 1.0 + 1e-9:
        raise NotNormalized(f"Morrey norm is {norm!r}; rescale the input to at most 1")
    lhs = maximal_psi_p_tau(space, psi, f, p, tau, None)
    base = maximal_p_tau(space, f, p, tau, None)
    mask = base > 0
    bad_zero = bool(np.any(lhs[~mask] > 0))
    tol = 1e-12 if p == q else rel_slack
    if not mask.any():
        return CheckReport(check="maximal_morrey_pointwise", passed=not bad_zero,
                           value=0.0, details={"c10": c10, "c_impl": c_impl})
    ratio = lhs[mask] / (c10 * base[mask] ** (p / q))
    max_ratio = float(np.max(ratio))
    j = int(np.argmax(ratio))
    witness_x = int(np.nonzero(mask)[0][j])
    passed = (max_ratio <= c_impl * (1.0 + tol)) and not bad_zero
    return CheckReport(
        check="maximal_morrey_pointwise",
        passed=passed,
        value=max_ratio,
        worst_witness={"x": witness_x},
        details={"c10": c10, "c_impl": c_impl, "morrey_norm": norm},
    )
