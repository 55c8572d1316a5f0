"""Kernels, the fractional Marcinkiewicz integral, and maximal operators.

On an atomic space the truncated kernel sums are piecewise constant in the
truncation parameter, so the Marcinkiewicz integral evaluates in closed form:
between consecutive distances the inner sum is frozen and the remaining
one-dimensional integral is an explicit power integral.  The maximal
operators are suprema over candidate balls containing the evaluation point,
computed by per-center prefix sums and a scatter of per-ball values onto
members.  The sharp maximal function has one pass for every space size: its
concentric pairs always come from the run ends of the family, its other
pairs from :func:`~nhslab.geometry.pair_source` and its per-ball numbers
from :func:`~nhslab.spaces.function_tables`, where the family size chooses.
The commutator estimate reads the symbol's norm from
:func:`~nhslab.spaces.campanato_norm`, which the space memoises, and every
point's Marcinkiewicz integral is memoised per kernel on (f, b, l, rho, s).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidParams,
    NoDoublingBall,
    NonMonotoneTheta,
    NotNormalized,
    ZeroNormB,
)
from .geometry import doubling_flags, coefficient_tables, pair_source
from .mmspace import (
    DominatingFunction,
    GeometryProfile,
    PointCloudSpace,
    memo,
    row_blocks,
)
from .report import CheckReport
from .spaces import (
    GrowthFunctionPhi,
    RegularityFunctionPsi,
    ball_power_sums,
    campanato_norm,
    function_tables,
    morrey_norm,
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
    sigma: float = 0.2
    gamma: float = 1.0

    def __post_init__(self):
        for name, ok, rule in (
                ("l", self.l >= 0, "be nonnegative"), ("rho", self.rho > 0, "be positive"),
                ("s", self.s >= 1, "be at least 1"), ("p", 1.0 < self.p < math.inf, "lie in (1, inf)"),
                ("q", self.p <= self.q < math.inf, "lie in [p, inf)"), ("tau", self.tau >= 5, "be at least 5"),
                ("eta", self.eta > 1, "exceed 1"), ("sigma", self.sigma > 0, "be positive"),
                ("gamma", self.gamma >= 1, "be at least 1")):
            if not ok:
                raise InvalidParams(f"{name} must {rule}, got {getattr(self, name)!r}")


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


#: Gauss-Kronrod G10-K21 rule on [-1, 1] (Kronrod 1965, as tabulated by
#: QUADPACK's qk21, Piessens et al. 1983): the 21 Kronrod abscissae in
#: descending order (the odd positions 1, 3, ..., 9 are the 10-point Gauss
#: nodes, the last is the center) and their weights, then the Gauss weights.
GK21_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
GK21_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208977211922, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
G10_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])

#: Subintervals :func:`gauss_kronrod` forms per piece, QUADPACK's ``limit``:
#: past it a piece accepts every open interval whatever its error estimate
#: (a jump of the integrand is never resolved exactly, and a staircase
#: modulus has many).
GK_MAX_INTERVALS = 200

#: Dyadic levels of :func:`dini_integral`: 2**-1000 is still a normal double,
#: and the constant modulus's integrand stays finite there.
DINI_LEVELS = 1000

#: The default kernel modulus theta(t) = t; ``_linear_dini`` integrates it once per process.
LINEAR_THETA = power_theta(1.0)
_linear_dini = functools.cache(lambda: dini_integral(LINEAR_THETA))


def _gk21(f: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The K21 value and the error estimate |K21 - G10| of f on every
    [lo[i], hi[i]], from one call of f; sums run in qk21's order."""
    centr, hlgth = 0.5 * (lo + hi), 0.5 * (hi - lo)
    absc = hlgth * GK21_NODES[:10, None]
    t = np.concatenate([centr - absc, centr + absc, centr[None]])
    fv = np.asarray(f(t.ravel()), dtype=float).reshape(t.shape)
    fsum = fv[:10] + fv[10:20]
    resk = GK21_WEIGHTS[10] * fv[20]
    resg = np.zeros_like(resk)
    for j in range(1, 10, 2):
        resg = resg + G10_WEIGHTS[j // 2] * fsum[j]
        resk = resk + GK21_WEIGHTS[j] * fsum[j]
    for j in range(0, 10, 2):
        resk = resk + GK21_WEIGHTS[j] * fsum[j]
    return resk * hlgth, np.abs((resk - resg) * hlgth)


def gauss_kronrod(f: Callable, a: np.ndarray, b: np.ndarray,
                  epsabs: np.ndarray, epsrel: float) -> np.ndarray:
    """Integrals of the vectorised ``f`` over every [a[i], b[i]].

    Each round applies the G10-K21 rule to every open interval at once and
    bisects those whose estimate exceeds their share of their piece's
    tolerance max(epsabs[i], epsrel * |current value|), in proportion to
    length, until the piece has formed ``GK_MAX_INTERVALS`` subintervals;
    the rest are accepted.  A piece whose rule passes on the whole interval
    is its K21 value.
    """
    values = np.zeros(a.size)
    formed = np.ones(a.size, dtype=np.int64)
    lo, hi, owner = a, b, np.arange(a.size)
    while True:
        k, err = _gk21(f, lo, hi)
        tol = np.maximum(epsabs, epsrel * np.abs(values + np.bincount(owner, k, a.size)))
        # the share is formed from the length ratio: tol * (hi - lo) underflows
        # on the deepest pieces; a NaN estimate is accepted, as bisection
        # cannot repair it
        accept = ~(err > tol[owner] * ((hi - lo) / (b - a)[owner]))
        accept |= formed[owner] >= GK_MAX_INTERVALS
        np.add.at(values, owner[accept], k[accept])
        split = ~accept
        if not split.any():
            return values
        lo, hi, owner = lo[split], hi[split], owner[split]
        formed += 2 * np.bincount(owner, minlength=a.size)
        mid = 0.5 * (lo + hi)
        lo, hi, owner = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.tile(owner, 2)


def dini_integral(theta: Callable) -> float:
    """Integral of theta(t)/t * log(1/t) over (0, 1] by dyadic pieces.

    Every piece [2**-(j+1), 2**-j] is integrated at once by
    :func:`gauss_kronrod` (absolute tolerance 1e-8 / 2**(j+2), relative
    1e-10).  Returns ``math.inf`` when the pieces admit no decaying geometric
    majorant within ``DINI_LEVELS`` levels (a divergence declaration).  The
    finite value is within 1e-8 for a modulus smooth on each dyadic piece,
    such as t**a.  Jumps inside a piece are not resolved: floor(1024 t) / 1024
    gives 0.9811053 against the exact 0.9810702.
    """
    ts = np.geomspace(1e-12, 1.0, 241)
    vals = np.asarray(theta(ts), dtype=float)
    slack = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    if np.any(vals[1:] < vals[:-1] - slack):
        j = int(np.argmax(vals[1:] < vals[:-1] - slack))
        raise NonMonotoneTheta(
            f"theta decreases between t={ts[j]!r} and t={ts[j + 1]!r}")

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.asarray(theta(t), dtype=float) / t * np.log(1.0 / t)

    levels = np.arange(DINI_LEVELS)
    pieces = gauss_kronrod(integrand, np.ldexp(1.0, -(levels + 1)), np.ldexp(1.0, -levels),
                           np.ldexp(1e-8, -(levels + 2)), 1e-10).tolist()
    total = 0.0
    for j, piece in enumerate(pieces):
        total += piece
        if j >= 2:
            recent = pieces[j - 2 : j + 1]
            if max(recent) == 0.0:
                return total
            ratios = [recent[i + 1] / recent[i] for i in range(2) if recent[i] > 0]
            if ratios and max(ratios) < 0.95 and recent[1] > 0:
                r = max(ratios)
                if piece * r / (1.0 - r) < 1e-8:
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
                seed: int = 0) -> KernelSpec:
    """Build a kernel from a named family against the reference envelope.

    Families: "canonical" (the envelope itself), "scaled" (a constant multiple)
    and "perturbed" (the envelope times 1 + eps*h for a seeded bounded h).
    """
    theta, dini = (LINEAR_THETA, _linear_dini()) if theta is None else (theta, dini_integral(theta))
    if not math.isfinite(dini):
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
    return KernelSpec(l=l, theta=theta, matrix=matrix, c_size=_size_constant(matrix, bound),
                      dini_value=dini, family=family)


def _size_constant(matrix: np.ndarray, bound: np.ndarray) -> float:
    """The largest |K| / bound over the pairs where the bound is positive, 0 if none."""
    positive = bound > 0
    return float(np.max(np.abs(matrix[positive]) / bound[positive])) if positive.any() else 0.0


def validate_kernel(space: PointCloudSpace, lam: DominatingFunction, kernel: KernelSpec) -> CheckReport:
    """Measure the size constant over all ordered pairs and the smoothness
    constants over all admissible triples (x, y, z), in one pass per point x
    over its (z, y) grid.

    The smoothness display subtracts two kernel differences, so the left side
    can be negative; it is clamped at zero and the constant for the summed
    variant is reported alongside, neither asserted.
    """
    c_size = _size_constant(kernel.matrix, size_bound_matrix(space, lam, kernel.l))
    K, n = kernel.matrix, space.n
    lam_mat = space.pair_table(lam)
    # per pair (x, z), the largest ratio over y of the difference and of the summed variant
    pair_max = np.empty((2, n, n))
    unbounded = False
    for x, d in enumerate(space.dist):
        # admissible (z, y): both distances > 0 (so z, y != x), y != z, d(x, y) >= d(x, z) / 2
        adm = (d[:, None] > 0) & (d > 0) & (d >= d[:, None] / 2.0)
        np.fill_diagonal(adm, False)
        z, y = np.nonzero(adm)
        # one scalar power per z, as array powers may take a different (SIMD) route
        reach = np.asarray([v ** (1.0 + kernel.l) for v in d])
        rhs = np.zeros((n, n))
        rhs[adm] = np.asarray(kernel.theta(d[z] / d[y]), dtype=float) * reach[z] / lam_mat[x, y]
        ok = rhs > 0
        row_diff = np.abs(K[x] - K)
        col_diff = np.abs(K[:, x] - K.T)
        lhs_sum = row_diff + col_diff
        unbounded |= bool(np.any(adm & ~ok & (lhs_sum > 1e-300)))
        ratio = np.full((2, n, n), -math.inf)
        for out, lhs in zip(ratio, (np.maximum(row_diff - col_diff, 0.0), lhs_sum)):
            np.divide(lhs, rhs, out=out, where=ok)
        pair_max[:, x] = ratio.max(axis=2)
    # a pair with a NaN ratio drops out whole (fmax skips its NaN row maximum)
    smooth_diff, smooth_sum = np.fmax.reduce(pair_max.reshape(2, -1), axis=1, initial=0.0).tolist()
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

    Every point's values are memoised in the kernel's store, keyed on the
    float64 bytes of f and b (an f changed in place reads fresh values) and
    on (l, rho, s), and returned as a copy; the kernel's matrix is read as fixed.
    """
    params = params or OperatorParams()
    f = np.asarray(f, dtype=float)
    if x is not None:
        return float(_integral_rows(space, kernel, f, np.asarray([x]), params, b)[0])
    key = ("marcinkiewicz", f.tobytes(), None if b is None else b.tobytes(),
           params.l, params.rho, params.s)
    return memo(space.store(kernel), key, lambda: _integral_rows(
        space, kernel, f, np.arange(space.n), params, b)).copy()


def _integral_rows(space: PointCloudSpace, kernel: KernelSpec, f: np.ndarray, rows: np.ndarray,
                   params: OperatorParams, b: Optional[np.ndarray]) -> np.ndarray:
    """The integral at each of ``rows``, by the blocks of :func:`~nhslab.mmspace.row_blocks`."""
    return np.concatenate([_integral_block(space, kernel, f, rows[s], params, b)
                           for s in row_blocks(rows.size, space.n)])


def _integral_block(space: PointCloudSpace, kernel: KernelSpec, f: np.ndarray, rows: np.ndarray,
                    params: OperatorParams, b: Optional[np.ndarray]) -> np.ndarray:
    """The integral at each of ``rows``, in one pass over their rows of ``space.order``.

    The summands of every row (positive distance, f(y) != 0) in distance
    order form one flat array, and each row's run of equal distances is one
    jump.  The per-row reductions add in the order of a per-point evaluation,
    so the values do not depend on how many points are evaluated.
    """
    order = space.order[rows]
    dist = space.sorted_dist[rows]
    r, k = np.nonzero((dist > 0) & (f[order] != 0))
    y, center, d = order[r, k], rows[r], dist[r, k]
    contrib = kernel.matrix[center, y] * f[y] * space.weights[y] / d ** (1.0 - params.rho)
    if b is not None:
        contrib = contrib * (b[center] - b[y])
    del order, dist, k, y, center  # each as large as a row block, 256 KB
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
    return out


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
    n = space.n
    family = space.balls()
    # by_count[c, q - 1]: best value among the balls of c with q members, in
    # the n x (n + 1) layout of family.at; the running maximum skips the
    # last column, which stays unwritten
    by_count = np.full((n, n + 1), -math.inf)
    with np.errstate(invalid="ignore"):  # a NaN value propagates silently
        np.maximum.at(by_count.ravel(), family.flat + family.counts() - 1, values)
    # a ball with q members covers the q points closest to its center
    by_rank = np.maximum.accumulate(by_count[:, -2::-1], axis=1)[:, ::-1]
    by_point = np.empty((n, n))
    np.put_along_axis(by_point, space.order, by_rank, axis=1)
    return by_point.max(axis=0)


def _power_means(space: PointCloudSpace, f: np.ndarray, p: float, tau: float) -> np.ndarray:
    """Per ball: (sum of |f|**p w over B / mu(tau*B))**(1/p), for p > 1 and tau >= 5."""
    if not p > 1:
        raise InvalidParams(f"p must exceed 1, got {p!r}")
    if not tau >= 5:
        raise InvalidParams(f"tau must be at least 5, got {tau!r}")
    return (ball_power_sums(space, f, p) / space.balls().measures(tau)) ** (1.0 / p)


def maximal_p_tau(space: PointCloudSpace, f: np.ndarray, p: float, tau: float,
                  x: Optional[int] = None):
    """Supremum over candidate balls containing x of the (1/mu(tau*B)
    normalized) p-mean of |f| on B."""
    out = _scatter_sup(space, _power_means(space, f, p, tau))
    return out if x is None else float(out[x])


def maximal_psi_p_tau(space: PointCloudSpace, psi: RegularityFunctionPsi,
                      f: np.ndarray, p: float, tau: float,
                      x: Optional[int] = None):
    """As maximal_p_tau with the factor psi(B) inside the supremum."""
    out = _scatter_sup(space, _power_means(space, f, p, tau) * space.fn_table(psi))
    return out if x is None else float(out[x])


def doubling_maximal(space: PointCloudSpace, profile: GeometryProfile, f: np.ndarray,
                     x: Optional[int] = None):
    """Supremum of plain means of |f| over doubling candidate balls containing
    the point.  Saturated balls are always doubling, so coverage is total."""
    f = np.asarray(f, dtype=float)
    family = space.balls()
    flags = doubling_flags(space, profile, 6.0)
    means = family.at(space.prefix_mean(np.abs(f)), family.counts())
    out = _scatter_sup(space, np.where(flags, means, -math.inf))
    if np.any(~np.isfinite(out)):
        raise NoDoublingBall("a point is covered by no doubling candidate ball")
    return out if x is None else float(out[x])


def sharp_maximal(space: PointCloudSpace, lam: DominatingFunction,
                  profile: GeometryProfile, f: np.ndarray,
                  x: Optional[int] = None, *, pair_budget: int = 2000, seed: int = 0):
    """Oscillation maximal function combined with the coefficient-normalized
    mean-jump supremum over nested doubling ball pairs containing the point.

    Concentric pairs are enumerated exhaustively; the other pairs are the
    doubling ones of :func:`~nhslab.geometry.pair_source` (the space's shared
    fixed-seed sample, or every nested pair of a small family), and the
    per-ball numbers are those of :func:`~nhslab.spaces.function_tables`.
    """
    family = space.balls()
    fn = function_tables(space, f)
    means, mu6, osc = fn.means, fn.measures(6.0), fn.oscillation()  # the p = 1 pass first
    b1, b2 = pair_source(space, pair_budget, seed)
    flags = mu6 <= profile.beta(6.0) * fn.measures(1.0)  # the doubling balls
    tables = coefficient_tables(space, lam, 6.0)

    # concentric pairs (b, j > b): the outer balls of scale index N >= 1 form a
    # run of b's segment, so the largest jump is at the run's largest or smallest
    # mean, and max(a, b) / c == max(a / c, b / c) for a coefficient c > 0; the
    # run maxima of the means and of their negations (the non-doubling balls
    # masked to -inf) give both, as m - min(x) == m + max(-x) bit for bit
    ladder, windows = family.ladder(6.0), family.windows(6.0)
    top, neg = np.where(flags, means, -math.inf), np.where(flags, -means, -math.inf)
    pair_vals, offsets = np.full(len(family), -math.inf), windows[1]
    levels = ladder.offsets[ladder.k_floor + 1:ladder.k_floor + offsets.shape[1] - 1]
    with np.errstate(invalid="ignore"):
        for k, b, (jump, dip) in family.run_max((top, neg), *windows):
            m = means.take(b)
            np.maximum(np.subtract(jump, m, out=jump), np.add(m, dip, out=dip), out=jump)
            jump /= tables.cumulative.take(ladder.rank.take(b) + np.repeat(levels, np.diff(offsets[k, 1:]))) + 1.0
            np.maximum.at(pair_vals, b, jump)
            del m, jump, dip
    del top, neg
    pair_vals[~flags] = -math.inf
    # a pair of the other source (for a small family, every nested pair) reaches
    # the members of its inner ball, as a concentric one
    doubling = flags[b1] & flags[b2]
    b1, b2 = b1[doubling], b2[doubling]
    np.maximum.at(pair_vals, b1, np.abs(means[b1] - means[b2]) / tables.pairs(b1, b2))

    out = np.maximum(_scatter_sup(space, np.maximum(osc / mu6, pair_vals)), 0.0)
    return out if x is None else float(out[x])


# ------------------------------------------------------------------------------
# Pointwise estimates
# ------------------------------------------------------------------------------
def check_pointwise_domination(space: PointCloudSpace, lam: DominatingFunction,
                               kernel: KernelSpec, f: np.ndarray,
                               params: Optional[OperatorParams] = None) -> CheckReport:
    """Assert, at every point, that the Marcinkiewicz integral is bounded by
    ((l+rho)s)**(-1/s) * c_size times the dominating potential of |f|.

    This is the exact triangle-inequality step of the operator bound: the
    truncation integral of each summand is an explicit power tail, so the
    inequality must hold identically up to a relative rounding slack of 1e-9.
    """
    params = params or OperatorParams()
    f = np.asarray(f, dtype=float)
    lhs = marcinkiewicz(space, kernel, f, None, params)
    a_exp = (params.l + params.rho) * params.s
    rhs = a_exp ** (-1.0 / params.s) * kernel.c_size * t_lambda(space, lam, np.abs(f))
    slack = 1e-9 * np.maximum(1.0, rhs)
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
                                 *, pair_budget: int = 2000, seed: int = 0) -> CheckReport:
    """Measure the pointwise ratio of the sharp maximal function of the
    commutator against the maximal-function bound; the max ratio is the
    empirical constant used in refinement-stability tests.

    The symbol's oscillation norm (tau = 2) is :func:`~nhslab.spaces.campanato_norm`,
    which the space memoises, so many functions against one symbol pay it once.
    """
    params = params or OperatorParams()
    b = np.asarray(b, dtype=float)
    f = np.asarray(f, dtype=float)
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    b_norm = campanato_norm(space, lam, b, psi, 2.0, params.gamma,
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
                                   *, c10: Optional[float] = None) -> CheckReport:
    """Check the pointwise maximal-function embedding for a function with
    Morrey norm at most 1 (normalized with the same enlargement).

    Splitting on whether phi at the witness ball exceeds the p-th power of
    the plain maximal function gives the bound with constant exactly c10, so
    the measured ratio must not exceed ``details["c_impl"]`` = 1 (tolerance
    1e-9, tightened to 1e-12 when p equals q, where the chain is a single
    exact comparison).
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
    tol = 1e-12 if p == q else 1e-9
    if not mask.any():
        return CheckReport(check="maximal_morrey_pointwise", passed=not bad_zero,
                           value=0.0, details={"c10": c10, "c_impl": 1.0})
    ratio = lhs[mask] / (c10 * base[mask] ** (p / q))
    max_ratio = float(np.max(ratio))
    j = int(np.argmax(ratio))
    witness_x = int(np.nonzero(mask)[0][j])
    passed = (max_ratio <= 1.0 + tol) and not bad_zero
    return CheckReport(
        check="maximal_morrey_pointwise",
        passed=passed,
        value=max_ratio,
        worst_witness={"x": witness_x},
        details={"c10": c10, "c_impl": 1.0, "morrey_norm": norm},
    )
