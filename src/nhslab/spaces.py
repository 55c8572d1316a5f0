"""Generalized Morrey and Campanato norms on finite weighted point clouds.

The Morrey norm is a supremum over candidate balls of normalized p-means;
the Campanato norm combines a normalized mean-oscillation supremum with a
regularity supremum over nested ball pairs, where mean jumps are divided by
a power of the discrete nesting coefficient.  Both suprema have one tail
for every space size; the size chooses only their inputs: the per-ball
numbers of :class:`FunctionTables` (sums in point-index order for small
families, else the prefix tables and the concentric dyadic ladder) and the
pairs of :func:`~nhslab.geometry.pair_source` (every nested pair, else the
budgeted, fixed-seed sample of non-concentric containing pairs).  The
sample and the mean-jump check's comparable pairs are replayed from the
PCG64 raw stream by :func:`~nhslab.geometry.replay_draws`.  The nested-ball
constants of phi measure every concentric pair exactly, then the pair source.

The space's store keeps the latest function's tables in one slot
(:func:`function_tables`), each Campanato report under (lambda, psi), so
a norm asked for again, such as a commutator symbol's, is not recomputed,
and the mean-jump check's comparable pairs per (budget, seed).

The normalizers psi and phi follow the radial-function protocol of
:class:`~nhslab.mmspace.Radial`: each family is one broadcasting
``fn(center, radius)``, read through ``table`` over the whole candidate
family at once.
"""
from __future__ import annotations

import copy
import dataclasses
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidExponent, ZeroNorm
from .geometry import (
    Ball,
    ball_measure,
    ball_members,
    coefficient_tables,
    pair_source,
    pairs_are_exhaustive,
    replay_choice,
    replay_draws,
)
from .mmspace import (
    DominatingFunction,
    PointCloudSpace,
    Radial,
    comparability_ratio,
    memo,
    row_blocks,
)
from .report import CheckReport


# ------------------------------------------------------------------------------
# Radial function families
# ------------------------------------------------------------------------------
@dataclass(eq=False)
class RadialFunction(Radial):
    """Positive function of (center point, radius): one broadcasting
    ``fn(center, radius)``, as for every :class:`~nhslab.mmspace.Radial`."""

    family: str = "custom"
    param: Optional[float] = None


@dataclass(eq=False)
class RegularityFunctionPsi(RadialFunction):
    """Ball normalizer for the Campanato norm; :func:`validate_psi` reports
    its measured doubling/comparability constant."""


@dataclass(eq=False)
class GrowthFunctionPhi(RadialFunction):
    """Strictly decreasing Morrey normalizer with concavity exponent delta;
    :func:`validate_phi_gdec` reports its nested-ball constants."""

    delta: float = 0.5


def constant_psi() -> RegularityFunctionPsi:
    return RegularityFunctionPsi(lambda c, r: 1.0, family="constant", param=None)


def radius_power_psi(exponent: float) -> RegularityFunctionPsi:
    return RegularityFunctionPsi(lambda c, r: r ** exponent, family="radius_power", param=exponent)


def lambda_power_psi(lam: DominatingFunction, alpha: float) -> RegularityFunctionPsi:
    return RegularityFunctionPsi(lambda c, r: lam.table(c, r) ** alpha,
                                 family="lambda_power", param=alpha)


def power_phi(a: float, delta: float = 0.5) -> GrowthFunctionPhi:
    if not a > 0:
        raise InvalidExponent(f"power decay exponent must be positive, got {a!r}")
    return GrowthFunctionPhi(lambda c, r: r ** (-a), family="power", param=a, delta=delta)


def shifted_power_phi(a: float, delta: float = 0.5) -> GrowthFunctionPhi:
    if not a > 0:
        raise InvalidExponent(f"power decay exponent must be positive, got {a!r}")
    return GrowthFunctionPhi(lambda c, r: (1.0 + r) ** (-a),
                             family="shifted_power", param=a, delta=delta)


def constant_phi(delta: float = 0.5) -> GrowthFunctionPhi:
    return GrowthFunctionPhi(lambda c, r: 1.0, family="constant", param=None, delta=delta)


def phi_compatible_psi(phi: GrowthFunctionPhi, p: float, q: float) -> RegularityFunctionPsi:
    """The normalizer phi**(1/q - 1/p), which satisfies the maximal-operator
    embedding hypothesis with constant 1."""
    expo = 1.0 / q - 1.0 / p
    return RegularityFunctionPsi(lambda c, r: phi.table(c, r) ** expo,
                                 family="phi_power", param=expo)


# ------------------------------------------------------------------------------
# Means and oscillation machinery
# ------------------------------------------------------------------------------
def ball_mean(space: PointCloudSpace, f: np.ndarray, ball: Ball) -> float:
    """Weighted mean of f over the closed ball (point-index order)."""
    mask = space.dist[ball.center] <= ball.radius
    w = space.weights[mask]
    return float(np.sum(np.asarray(f)[mask] * w) / np.sum(w))


#: Centers and prefix rows per tile of the generic-p oscillation sums.
_OSC_TILE = 16


def _shifted(space: PointCloudSpace, g: np.ndarray) -> tuple:
    """g and the weights in each center's distance order, g measured from the
    center's first value: the sums do not see a shift, and so the running mean
    stays as small as the spread of g."""
    gs = np.asarray(g, dtype=float)[space.order]
    return gs - gs[:, :1], space.weights[space.order]


def _moment_sums(space: PointCloudSpace, g: np.ndarray) -> tuple:
    """The p = 2 and p = 4 tables of :func:`oscillation_sums`, from one pass
    over the prefix position q, vectorised over the centers, that adds the q-th
    closest point to every center's weighted central moments (West 1979;
    Pebay 2008): O(n^2) in all."""
    n = space.n
    gs, ws = _shifted(space, g)
    pw = space.prefix_weight
    out = np.zeros((2, n, n))
    mean = np.zeros(n)
    m2, m3, m4 = np.zeros(n), np.zeros(n), np.zeros(n)
    for q in range(1, n):
        wa, w, big_w = pw[:, q], ws[:, q], pw[:, q + 1]
        d = gs[:, q] - mean
        dw = d * w / big_w
        mean += dw
        t = d * dw * wa
        # M4 reads the old M2 and M3, and M3 the old M2
        m4 += (t * d * d * (wa * wa - wa * w + w * w) / (big_w * big_w)
               + 6.0 * dw * dw * m2 - 4.0 * dw * m3)
        m3 += t * d * (wa - w) / big_w - 3.0 * dw * m2
        m2 += t
        out[0, :, q], out[1, :, q] = m2, m4
    return out[0], out[1]


def oscillation_sums(space: PointCloudSpace, g: np.ndarray, p: float = 1.0) -> np.ndarray:
    """``out[c, q-1]`` is the weighted p-th oscillation sum of g around its
    mean over the q points closest to c.

    For p = 2 and 4 it is a table of :func:`_moment_sums`.  Any other p walks
    tiles of ``_OSC_TILE`` centers by ``_OSC_TILE`` prefix rows: a tile writes
    ``|g_j - mean_q|**p`` for the columns j its rows reach into one buffer,
    zeroes j > q in its diagonal block, and gets its rows' sums from one
    stacked product with the weights.  The buffer's g_j - mean_q is the
    product (1, -mean_q) . (g_j, 1), a rank-2 BLAS product built once per
    center tile: both terms are exact (a product by 1.0 is exact), and their
    sum, an add or a fused multiply-add, rounds once (IEEE 754-2008), so it
    equals the broadcast subtract, bit for bit, at any BLAS thread count.
    """
    if p in (2.0, 4.0):
        return _moment_sums(space, g)[int(p == 4.0)]
    n = space.n
    gs, ws = _shifted(space, g)
    pw = space.prefix_weight
    out = np.zeros((n, n))
    means = np.cumsum(gs * ws, axis=1) / pw[:, 1:]
    upper = np.triu(np.ones((_OSC_TILE, _OSC_TILE), dtype=bool), 1)
    buf = np.empty(_OSC_TILE * _OSC_TILE * n)
    for c0 in range(0, n, _OSC_TILE):
        c1 = min(c0 + _OSC_TILE, n)
        left, right = np.ones((c1 - c0, n, 2)), np.ones((c1 - c0, 2, n))
        left[..., 1], right[:, 0] = -means[c0:c1], gs[c0:c1]
        for q0 in range(0, n, _OSC_TILE):
            q1 = min(q0 + _OSC_TILE, n)
            diff = buf[:(c1 - c0) * (q1 - q0) * q1].reshape(c1 - c0, q1 - q0, q1)
            np.matmul(left[:, q0:q1], right[:, :, :q1], out=diff)
            np.abs(diff, out=diff)
            if p != 1.0:
                diff **= p
            # row q keeps the columns j <= q (assigned: a non-finite g_j stays out of rows q < j)
            np.copyto(diff[:, :, q0:], 0.0, where=upper[:q1 - q0, :q1 - q0])
            out[c0:c1, q0:q1] = np.matmul(diff, ws[c0:c1, :q1, None])[..., 0]
    return out


class FunctionTables:
    """The per-ball numbers of one function f on a space's candidate family,
    each read-only: the means, the prefix-mean table the ladders read, the
    p-th oscillation numerators, and the measures the suprema set against
    them.  Only here does the family size choose their source: when
    :func:`~nhslab.geometry.pairs_are_exhaustive` holds, the means, p = 1
    numerators and measures are summed over each ball's members in point-index
    order, the means and measures by :func:`ball_mean` and
    :func:`~nhslab.geometry.ball_measure` themselves, which the acceptance
    criterion "budgeted suprema equal to exhaustive enumeration on small
    fixtures exactly" pins; otherwise the prefix tables serve, and the
    family's measures, gathered on each read.  The tables, built on first read, live in ``store`` and hold
    the space through a weak proxy, so the space's slot makes no reference cycle.
    """

    def __init__(self, space: PointCloudSpace, key: tuple):
        # f is read back from the key's bytes: a read-only array of its own
        self.key, self.exhaustive, self.f = key, key[1], np.frombuffer(key[2])
        self._space, self.store = weakref.proxy(space), {}

    def _ball_sums(self) -> np.ndarray:
        """Rows 0 and 1: each ball's mean (:func:`ball_mean`) and p = 1 numerator, in point-index order."""
        def build():
            family, space, f = self._space.balls(), self._space, self.f
            out = np.empty((2, len(family)))
            for b, (c, r) in enumerate(zip(family.center.tolist(), family.radius.tolist())):
                members = ball_members(space, ball := Ball(c, r))
                out[0, b] = m = ball_mean(space, f, ball)
                out[1, b] = np.sum(np.abs(f[members] - m) * space.weights[members])
            return out
        return memo(self.store, "sums", build)

    @property
    def mean_table(self) -> np.ndarray:
        return memo(self.store, "mean_table", lambda: self._space.prefix_mean(self.f))

    @property
    def means(self) -> np.ndarray:
        if self.exhaustive:
            return self._ball_sums()[0]
        family = self._space.balls()
        return memo(self.store, "means", lambda: family.at(self.mean_table, family.counts()))

    def oscillation(self, p: float = 1.0) -> np.ndarray:
        """Per ball, the sum of |f - mean|**p * w over its members."""
        if self.exhaustive and p == 1.0:
            return self._ball_sums()[1]
        family = self._space.balls()
        if p in (2.0, 4.0) and ("osc", p) not in self.store:
            # one recurrence gives both tables
            for q, sums in zip((2.0, 4.0), _moment_sums(self._space, self.f)):
                memo(self.store, ("osc", q), lambda sums=sums: sums[family.center, family.counts() - 1])
        return memo(self.store, ("osc", p), lambda: oscillation_sums(self._space, self.f, p)[
            family.center, family.counts() - 1])

    def measures(self, scale: float) -> np.ndarray:
        family, space = self._space.balls(), self._space
        if not self.exhaustive:
            return family.measures(scale)
        return memo(self.store, ("measures", scale), lambda: np.array([
            ball_measure(space, Ball(c, scale * r))
            for c, r in zip(family.center.tolist(), family.radius.tolist())]))


def function_tables(space: PointCloudSpace, f: np.ndarray) -> FunctionTables:
    """The :class:`FunctionTables` of f in the one slot of the space's store,
    keyed on the size choice and f's float64 bytes (an f changed in place
    reads fresh tables) and emptied whenever another function is read."""
    key = ("tables", pairs_are_exhaustive(space), np.asarray(f, dtype=float).tobytes())
    slot = memo(space.store(), "function", dict)
    if key not in slot:
        slot.clear()
    return memo(slot, key, lambda: FunctionTables(space, key))


# ------------------------------------------------------------------------------
# Morrey norm
# ------------------------------------------------------------------------------
def ball_power_sums(space: PointCloudSpace, f: np.ndarray, p: float) -> np.ndarray:
    """Per ball of the candidate family, the sum of |f|**p * w over its
    members: the prefix sums read at each ball's member count."""
    family = space.balls()
    power = np.abs(np.asarray(f, dtype=float)) ** p * space.weights
    return family.at(space.prefix_of(power), family.counts())


def morrey_norm(space: PointCloudSpace, f: np.ndarray, p: float,
                phi: GrowthFunctionPhi, eta: float,
                *, with_witness: bool = False):
    """Supremum over candidate balls of the phi-and-enlargement normalized
    p-mean of |f|."""
    if p < 1:
        raise InvalidExponent(f"p must be at least 1, got {p!r}")
    if not eta > 1:
        raise InvalidExponent(f"eta must exceed 1, got {eta!r}")
    family = space.balls()
    mass = ball_power_sums(space, f, p)
    vals = (mass / (space.fn_table(phi) * family.measures(eta))) ** (1.0 / p)
    best, witness = family.sup(vals)
    return (best, witness) if with_witness else best


# ------------------------------------------------------------------------------
# Campanato norm
# ------------------------------------------------------------------------------
@dataclass
class CampanatoNormReport:
    """The two suprema defining the oscillation-regularity norm, with argmax
    witnesses.  The norm is their maximum: it is the least constant bounding
    both the normalized oscillations and the coefficient-controlled jumps.

    ``pairs`` names how the regularity supremum enumerated its ball pairs,
    ``"exhaustive"`` (every nested pair) or ``"ladder_and_sampled"`` (the
    concentric ladder plus a sample), and ``pair_count`` how many it measured.
    """

    oscillation_sup: float
    regularity_sup: float
    norm: float
    tau: float
    gamma: float
    oscillation_witness: dict = field(default_factory=dict)
    regularity_witness: dict = field(default_factory=dict)
    pairs: str = "exhaustive"
    pair_count: int = 0


def _ladder_jumps(family, mean_table: np.ndarray, means: np.ndarray, psit: np.ndarray, tau: float):
    """``(k, |means - mean of tau**k B|, psi, live)`` for k = 1 .. one past the
    deepest saturation, over the balls B of ladder level k in the ladder's
    ``order``; ``live`` marks those with k at most one past their own.  A level's
    arrays are its own gathers (a constant psi stays a broadcast), bound to no name."""
    ladder = family.ladder(tau)
    for k in range(1, int(ladder.sat.max()) + 2):
        q = ladder.level(ladder.counts, k + ladder.k_floor)
        balls = ladder.order[:q.size]
        yield (k, np.abs(means.take(balls) - mean_table.ravel().take(family.flat.take(balls) + q)),
               psit[:q.size] if psit.strides == (0,) else psit.take(balls), ladder.sat.take(balls) >= k - 1)


def campanato_norm_multi(space: PointCloudSpace, lam: DominatingFunction, f: np.ndarray,
                         psi: RegularityFunctionPsi, combos: Sequence[tuple],
                         *, pair_budget: int = 2000, seed: int = 0) -> list:
    """Oscillation-regularity norms for several (tau, gamma) combinations,
    sharing the per-function tables of :func:`function_tables` across combos.

    A family for which :func:`~nhslab.geometry.pairs_are_exhaustive` holds
    reads every nested pair, raised with Python's pow; a larger one reads the
    concentric ladder and the sampled pairs.  The regularity supremum of each
    combination is one running maximum, a value with its ball and k: the top
    of each ladder level over its live balls, then the pairs, a pair replacing
    the best only when strictly larger.  Ties go to the first center, then the
    first k, then the first radius, and among pairs to the first.  Each report
    is memoised for :func:`campanato_norm`.
    """
    for tau, gamma in combos:
        if not tau > 1:
            raise InvalidExponent(f"tau must exceed 1, got {tau!r}")
        if not gamma >= 1:
            raise InvalidExponent(f"gamma must be at least 1, got {gamma!r}")
    family = space.balls()
    psit = space.fn_table(psi)
    tables = function_tables(space, f)
    exhaustive, means = tables.exhaustive, tables.means
    b1, b2 = pair_source(space, pair_budget, seed)
    pair_jumps, pair_psi = np.abs(means[b1] - means[b2]), psit[b1]
    reports: list = [None] * len(combos)
    # everything but the power gamma depends on tau alone, so it is paid once per tau
    for tau in dict.fromkeys(t for t, _ in combos):
        slots = [(i, gamma) for i, (t, gamma) in enumerate(combos) if t == tau]
        coeffs = coefficient_tables(space, lam, tau)
        ladder = family.ladder(tau)
        osc, osc_w = family.sup(tables.oscillation() / (psit * tables.measures(tau)))
        # per combination the running (value, ball, k) of the pairs (B, tau**k B) up to one step
        # past saturation (tau**sat B covers the space); a small family reads every nested pair instead
        run = [(0.0, 0, 0)] * len(slots)
        for k, jump, psi_k, live in () if exhaustive else _ladder_jumps(
                family, tables.mean_table, means, psit, tau):
            for s, (_, gamma) in enumerate(slots):
                vals = jump / (psi_k * coeffs.level(k) ** gamma)
                top = float(np.fmax.reduce(vals, where=live, initial=-np.inf))
                if top > 0.0 and top >= run[s][0]:
                    # ties go to the first center, then the first k, then the first radius
                    b = int(ladder.order[:vals.size][live & (vals == top)].min())
                    if top > run[s][0] or family.center[b] < family.center[run[s][1]]:
                        run[s] = (top, b, k)
                del vals
            del jump, psi_k, live
        pair_coeff = coeffs.pairs(b1, b2)
        for (i, gamma), (reg, b, k) in zip(slots, run):
            reg_w = {"inner": family.ball(b), "outer": {"center": int(family.center[b]), "radius": float(
                ladder.scales[k + ladder.k_floor] * family.radius[b])}} if reg else {}
            if b1.size:
                # Python's pow, as the exhaustive oracles and acceptance fixtures use;
                # NumPy squares at gamma = 2, and the two can differ in the last bit
                powers = (np.array([c ** gamma for c in pair_coeff.tolist()]) if exhaustive
                          else pair_coeff ** gamma)
                vals = pair_jumps / (pair_psi * powers)
                j = int(np.argmax(vals))
                if vals[j] > reg:
                    reg = float(vals[j])
                    reg_w = {"inner": family.ball(b1[j]), "outer": family.ball(b2[j])}
            reports[i] = CampanatoNormReport(
                osc, reg, max(osc, reg), tau, gamma, dict(osc_w), reg_w,
                "exhaustive" if exhaustive else "ladder_and_sampled",
                b1.size if exhaustive else int(np.sum(ladder.sat + 1)) + b1.size)
    space.store(lam, psi).update({("campanato", tables.key, t, g, pair_budget, seed): copy.deepcopy(r)
                                  for (t, g), r in zip(combos, reports)})
    return reports


def campanato_norm(space: PointCloudSpace, lam: DominatingFunction, f: np.ndarray,
                   psi: RegularityFunctionPsi, tau: float = 2.0, gamma: float = 1.0,
                   *, pair_budget: int = 2000, seed: int = 0) -> CampanatoNormReport:
    """Oscillation-regularity norm of f, memoised per space.

    When :func:`~nhslab.geometry.pairs_are_exhaustive` holds the nested-pair
    supremum enumerates every pair; otherwise it combines the exhaustive
    concentric ladder with ``pair_budget`` sampled containing pairs.
    """
    key = ("campanato", function_tables(space, f).key, tau, gamma, pair_budget, seed)
    report = memo(space.store(lam, psi), key, lambda: campanato_norm_multi(
        space, lam, f, psi, [(tau, gamma)], pair_budget=pair_budget, seed=seed)[0])
    return dataclasses.replace(copy.deepcopy(report), tau=tau, gamma=gamma)


def p_oscillation_norm(space: PointCloudSpace, f: np.ndarray,
                       psi: RegularityFunctionPsi, p: float, tau: float,
                       *, with_witness: bool = False):
    """Supremum over candidate balls of the normalized p-th mean oscillation."""
    if not p > 1:
        raise InvalidExponent(f"p must exceed 1, got {p!r}")
    if not tau > 1:
        raise InvalidExponent(f"tau must exceed 1, got {tau!r}")
    sums = function_tables(space, f).oscillation(p)
    family = space.balls()
    vals = (sums / family.measures(tau)) ** (1.0 / p) / space.fn_table(psi)
    best, witness = family.sup(vals)
    return (best, witness) if with_witness else best


# ------------------------------------------------------------------------------
# Normalizer validation
# ------------------------------------------------------------------------------
_LIMIT_TABLE = {
    # family -> (limit at 0 is +inf, limit at +inf is 0)
    "power": (True, True),
    "shifted_power": (False, True),
    "constant": (False, False),
}


def validate_phi_gdec(space: PointCloudSpace, phi: GrowthFunctionPhi,
                      etas: Sequence[float] = (2.0,), pair_budget: int = 2000,
                      seed: int = 0) -> CheckReport:
    """Check strict radius decrease on the grid, measure the nested-ball constants for
    each enlargement factor, and resolve the asymptotic limits symbolically for the
    shipped families (reported as unchecked otherwise).

    With a = phi * mu(eta B)**delta and c = phi * mu(eta B), every concentric pair
    (b, j > b) gives min(a / later_max(a)) and max(c / -later_max(-c)), exactly
    (a / max_j a_j == min_j (a / a_j) for positive operands): ``later_max`` runs the
    family's one range-maximum kernel, ``run_max``, over the runs of b's later balls.
    Then the :func:`~nhslab.geometry.pair_source` pairs, which ``details`` names
    (``pairs``: ``"exhaustive"`` or ``"concentric_and_sampled"``) and counts.
    """
    family = space.balls()
    phit = space.fn_table(phi)
    inner = family.center[:-1] == family.center[1:]  # the balls with a larger concentric one
    rising = (phit[1:] >= phit[:-1]) & inner
    decreasing = not rising.any()
    witness: dict = {}
    if not decreasing:
        j = int(np.argmax(rising))
        witness = {**family.ball(j), "next_radius": float(family.radius[j + 1])}

    # the pairs of a small family are every nested pair, the concentric ones included
    exhaustive = pairs_are_exhaustive(space)
    b1, b2 = pair_source(space, pair_budget, seed)
    sizes = np.diff(family.offsets)
    pair_count = b1.size + (0 if exhaustive else int(np.sum(sizes * (sizes - 1) // 2)))
    eta_constants = {}
    if pair_count:
        for eta in etas:
            mu = family.measures(eta)
            a, c = phit * mu ** phi.delta, phit * mu
            lower = np.min(np.r_[(a / family.later_max(a))[:-1][inner], a[b1] / a[b2]])
            upper = np.max(np.r_[(c / -family.later_max(-c))[:-1][inner], c[b1] / c[b2]])
            eta_constants[float(eta)] = (float(lower), float(upper))

    limits = _LIMIT_TABLE.get(phi.family)
    limits_known = limits is not None
    limits_ok = None if not limits_known else bool(limits[0] and limits[1])
    passed = decreasing and (limits_ok is not False)
    return CheckReport(
        check="phi_decrease",
        passed=passed,
        value=min((v[0] for v in eta_constants.values()), default=None),
        worst_witness=witness,
        details={
            "strictly_decreasing": decreasing,
            "limits": ("unchecked" if not limits_known
                       else {"zero_radius": limits[0], "infinite_radius": limits[1]}),
            "eta_constants": {str(k): list(v) for k, v in eta_constants.items()},
            "family": phi.family,
            "pairs": "exhaustive" if exhaustive else "concentric_and_sampled",
            "pair_count": int(pair_count),
        },
    )


def validate_psi(space: PointCloudSpace, psi: RegularityFunctionPsi) -> CheckReport:
    """Measure the doubling and equal-radius comparability constant of psi
    over the candidate family; finite on finite spaces, so it always passes
    and the value feeds cross-refinement stability tests."""
    family = space.balls()
    ratios = psi.table(family.center, 2.0 * family.radius) / space.fn_table(psi)
    j = int(np.argmax(ratios))
    worst = 1.0
    witness: dict = {}
    if ratios[j] > worst:
        worst = float(ratios[j])
        witness = {"kind": "doubling", **family.ball(j)}
    comparability, pair = comparability_ratio(space, psi)
    if comparability > worst:
        worst = comparability
        witness = {"kind": "comparability", **pair}
    return CheckReport(
        check="psi_regularity",
        passed=bool(math.isfinite(worst)),
        value=worst,
        worst_witness=witness,
        details={"family": psi.family},
    )


# ------------------------------------------------------------------------------
# Distribution of oscillations on a ball
# ------------------------------------------------------------------------------
@dataclass
class JNReport:
    """Measured level-set distribution of |f - f_B| / psi(B) on a ball, with
    the least-squares exponential rate fitted on its support."""

    ball: dict
    tau: float
    t_values: np.ndarray
    distribution: np.ndarray
    mu_tau_ball: float
    rate: float
    intercept: float
    n_fit_points: int


def jn_distribution(space: PointCloudSpace, f: np.ndarray,
                    psi: RegularityFunctionPsi, ball: Ball, tau: float) -> JNReport:
    """Measure mu({x in B : |f(x) - f_B| / psi(B) > t}) at 32 values of t from
    0 to the largest deviation and fit an exponential envelope rate by least
    squares on the support."""
    f = np.asarray(f, dtype=float)
    members = ball_members(space, ball)
    w = space.weights[members]
    mean = ball_mean(space, f, ball)
    devs = np.abs(f[members] - mean) / psi(ball.center, ball.radius)
    dev_max = float(devs.max())
    if dev_max <= 0.0:
        raise ZeroNorm("the function is constant on the ball; no distribution to fit")
    ts = np.linspace(0.0, dev_max, 32)
    order = np.argsort(devs, kind="stable")
    sorted_devs = devs[order]
    cum = np.concatenate([[0.0], np.cumsum(w[order])])
    total = cum[-1]
    counts = np.searchsorted(sorted_devs, ts, side="right")
    dist = total - cum[counts]
    mu_tau = ball_measure(space, ball.scaled(tau))
    support = dist > 0
    if int(support.sum()) >= 2:
        slope, intercept = np.polyfit(ts[support], np.log(dist[support] / mu_tau), 1)
        rate = float(-slope)
        intercept = float(intercept)
    else:
        rate = math.inf
        intercept = 0.0
    return JNReport(
        ball={"center": ball.center, "radius": ball.radius},
        tau=tau,
        t_values=ts,
        distribution=dist,
        mu_tau_ball=mu_tau,
        rate=rate,
        intercept=intercept,
        n_fit_points=int(support.sum()),
    )


# ------------------------------------------------------------------------------
# Mean-jump constants
# ------------------------------------------------------------------------------
def check_mean_jump_bounds(space: PointCloudSpace, lam: DominatingFunction,
                           f: np.ndarray, psi: RegularityFunctionPsi,
                           pair_budget: int = 2000, seed: int = 0,
                           norm: Optional[float] = None) -> CheckReport:
    """Record the normalized mean-jump suprema: single enlargements per step
    k of ``TAU_PAIR``, iterated enlargements divided by the step count, and
    comparable-ball pairs whose larger radius equals the center distance.

    Constant functions yield the all-zero report rather than an error.  The
    oscillation-regularity norm (tau = 2, gamma = 1) is :func:`campanato_norm`
    of f unless the caller passes it in.
    """
    f = np.asarray(f, dtype=float)
    scale = float(np.max(np.abs(f))) if f.size else 0.0
    if norm is None:
        norm = campanato_norm(space, lam, f, psi, pair_budget=pair_budget, seed=seed).norm
    if norm <= 1e-13 * max(scale, 1.0):
        return CheckReport(
            check="mean_jump_bounds", passed=None, value=0.0,
            details={"constant_function": True, "per_k": {str(k): 0.0 for k in TAU_PAIR},
                     "iterated": 0.0, "comparable": 0.0, "norm": norm},
        )
    tables, family = function_tables(space, f), space.balls()
    # the prefix-table means at every family size, as the ladders read them
    means = family.at(tables.mean_table, family.counts()) if tables.exhaustive else tables.means
    psit = space.fn_table(psi)
    per_k = {}
    iterated = 0.0
    for k in TAU_PAIR:
        # past saturation the jump stays and jump / j falls, so each ball
        # stops one step after it
        for j, jump, psi_j, live in _ladder_jumps(family, tables.mean_table, means, psit, k):
            top = float(np.max(jump / (psi_j * norm), where=live, initial=-np.inf))
            if j == 1:
                per_k[str(k)] = max(0.0, top)
            iterated = max(iterated, top / j)

    def pairs():
        # the loop c1, c2 = rng.choice(n, 2, replace=False), then rng.integers(small)
        # when c1 has small > 0 radii up to d(c1, c2)
        small = np.asarray([np.searchsorted(family.radius[family.segment(c)], space.dist[c], side="right")
                            for c in range(space.n)])

        def step(draw):
            c1, c2 = replay_choice(draw, space.n, 2).T
            return c1, c2, draw(np.maximum(small[c1, c2], 1))
        c1, c2, i1 = replay_draws(seed, pair_budget if space.n > 1 else 0, 4, step)
        drawn = small[c1, c2] > 0
        c1, c2, b1 = c1[drawn], c2[drawn], family.offsets[c1[drawn]] + i1[drawn]
        d = space.dist[c1, c2]  # then the members of B(c2, d), by blocks of c2's rows
        return c1, c2, b1, d, np.concatenate([np.zeros(0, dtype=np.intp)] + [np.count_nonzero(
            space.dist[c2[s]] <= d[s, None], axis=1) for s in row_blocks(d.size, space.n)])
    # the pairs do not depend on f: drawn once per (space, budget, seed)
    c1, c2, b1, d, q2 = memo(space.store(), ("mean_jump_pairs", pair_budget, seed), pairs)
    vals = np.abs(means[b1] - tables.mean_table[c2, q2]) / (psit[b1] * norm)
    comparable = float(np.fmax.reduce(vals, initial=0.0))
    comp_witness: dict = {}
    if comparable > 0.0:  # the first maximum is the witness
        t = int(np.argmax(vals == comparable))
        comp_witness = {"b1": {"center": int(c1[t]), "radius": float(family.radius[b1[t]])},
                        "b2": {"center": int(c2[t]), "radius": float(d[t])}}
    return CheckReport(
        check="mean_jump_bounds",
        passed=None,
        value=max(max(per_k.values(), default=0.0), iterated, comparable),
        worst_witness=comp_witness,
        details={"constant_function": False, "per_k": per_k,
                 "iterated": iterated, "comparable": comparable, "norm": norm},
    )


# ------------------------------------------------------------------------------
# Parameter-independence bands
# ------------------------------------------------------------------------------
#: The dilation steps and coefficient powers whose four combinations the
#: parameter-independence bands compare, tau-major; the steps are also those
#: of :func:`check_mean_jump_bounds`.
TAU_PAIR = (2.0, 6.0)
GAMMA_PAIR = (1.0, 2.0)
NORM_COMBOS = tuple((t, g) for t in TAU_PAIR for g in GAMMA_PAIR)


def _equivalence_bands(space: PointCloudSpace, lam: DominatingFunction,
                       psi: RegularityFunctionPsi, functions: Sequence[np.ndarray],
                       pair_budget: int, seed: int, each: Callable) -> CheckReport:
    """The ``equivalence_bands`` report: the min/max of every pairwise ratio
    of the :func:`campanato_norm_multi` norms under ``NORM_COMBOS``.  A
    function whose four norms are all at most 1e-13 * max(max|f|, 1) is
    constant and skipped; ``each(f, norms)`` runs for every other one, while
    f's tables still hold the space's slot."""
    names = [f"tau{t:g}_gamma{g:g}" for t, g in NORM_COMBOS]
    bands: dict = {}
    used = 0
    for f in functions:
        f = np.asarray(f, dtype=float)
        scale = float(np.max(np.abs(f))) if f.size else 0.0
        norms = [r.norm for r in campanato_norm_multi(
            space, lam, f, psi, NORM_COMBOS, pair_budget=pair_budget, seed=seed)]
        if max(norms) <= 1e-13 * max(scale, 1.0):
            continue
        used += 1
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                key = f"{names[a]}_vs_{names[b]}"
                ratio = norms[a] / norms[b]
                lo, hi = bands.get(key, (math.inf, -math.inf))
                bands[key] = (min(lo, ratio), max(hi, ratio))
        each(f, norms)
    return CheckReport(
        check="equivalence_bands",
        passed=None,
        value=None if not bands else max(v[1] for v in bands.values()),
        details={"bands": {k: list(v) for k, v in bands.items()},
                 "functions_used": used, "functions_skipped": len(functions) - used,
                 "tau_pair": list(TAU_PAIR), "gamma_pair": list(GAMMA_PAIR)},
    )


def function_constants(space: PointCloudSpace, lam: DominatingFunction,
                       psi: RegularityFunctionPsi, functions: Sequence[np.ndarray],
                       pair_budget: int, seed: int) -> dict:
    """One pass over a family of functions for the constants read against
    their norms: per function one :func:`campanato_norm_multi` call under
    ``NORM_COMBOS``, and the p = 2 and p = 4 oscillation norms and
    :func:`check_mean_jump_bounds` over the tau = 2, gamma = 1 norm, for
    each function that :func:`equivalence_experiment` does not skip.

    Returns ``"equivalence"``, the ``equivalence_bands`` report of every
    pairwise norm ratio's min/max; ``"mean_jump"``, the mean-jump report of
    largest value (the first wins; a zero report when none is positive);
    ``"p_oscillation"``, the ratio bands keyed ``"p2"`` and ``"p4"``; and
    ``"mean_jump_max"``, the componentwise maxima of the mean-jump constants.
    """
    p_osc = {"p2": [math.inf, -math.inf], "p4": [math.inf, -math.inf]}
    jump = CheckReport(check="mean_jump_bounds", passed=None, value=0.0)
    jump_max = {"k2": 0.0, "k6": 0.0, "iterated": 0.0, "comparable": 0.0}

    def each(f, norms):
        nonlocal jump
        for p, key in ((2.0, "p2"), (4.0, "p4")):
            ratio = p_oscillation_norm(space, f, psi, p, 2.0) / norms[0]
            p_osc[key] = [min(p_osc[key][0], ratio), max(p_osc[key][1], ratio)]
        rep = check_mean_jump_bounds(space, lam, f, psi, pair_budget=pair_budget, seed=seed)
        if rep.value > jump.value:
            jump = rep
        d = rep.details
        for key, value in zip(jump_max, (d["per_k"]["2.0"], d["per_k"]["6.0"],
                                         d["iterated"], d["comparable"])):
            jump_max[key] = max(jump_max[key], value)
    equivalence = _equivalence_bands(space, lam, psi, functions, pair_budget, seed, each)
    return {"equivalence": equivalence, "mean_jump": jump, "p_oscillation": p_osc,
            "mean_jump_max": jump_max}


def equivalence_experiment(space: PointCloudSpace, lam: DominatingFunction,
                           psi: RegularityFunctionPsi, functions: Sequence[np.ndarray],
                           pair_budget: int = 2000, seed: int = 0) -> CheckReport:
    """The min/max of every pairwise ratio of the norms under the four
    ``NORM_COMBOS`` over a family of functions, constant functions excluded:
    the ``equivalence`` report of :func:`function_constants`."""
    return _equivalence_bands(space, lam, psi, functions, pair_budget, seed, lambda f, norms: None)
