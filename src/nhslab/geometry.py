"""Balls, doubling-ball search, and the discrete nesting coefficient.

The coefficient of a nested ball pair (B, S) is 1 plus the sum of
measure-to-dominating-function ratios along the dyadic enlargements of B up
to the scale of S; it measures how far the measure is from doubling between
the two scales.  :class:`CoefficientTables` holds one flat row per candidate
ball, the running sum along its ladder (``BallFamily.ladder``); the scalar
:func:`discrete_coefficient` runs the same arithmetic on one ball, so the two
agree bit for bit, and serves balls outside the family such as chain links.
Nested-pair suprema read every pair when :func:`pairs_are_exhaustive`, else
the ladder plus :func:`sampled_nested_pairs`, one sample per (space, budget,
seed) shared by all of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotNested
from .mmspace import (
    DominatingFunction,
    GeometryProfile,
    PointCloudSpace,
    floor_log,
    scale_index_array,
    smallest_scale_index,
)
from .report import CheckReport


@dataclass(frozen=True)
class Ball:
    """Closed ball: membership is dist(center, y) <= radius, no tolerance."""

    center: int
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise NotNested(f"ball radius must be positive, got {self.radius!r}")

    def scaled(self, factor: float) -> "Ball":
        return Ball(self.center, factor * self.radius)


def ball_members(space: PointCloudSpace, ball: Ball) -> np.ndarray:
    """Member indices in point-index order."""
    return np.nonzero(space.dist[ball.center] <= ball.radius)[0]


def ball_measure(space: PointCloudSpace, ball: Ball) -> float:
    """Total weight of the closed ball, summed in point-index order."""
    mask = space.dist[ball.center] <= ball.radius
    return float(np.sum(space.weights[mask]))


# ------------------------------------------------------------------------------
# Scalar coefficient
# ------------------------------------------------------------------------------
@dataclass
class CoefficientValue:
    """Discrete nesting coefficient with its summands exposed.

    ``value`` equals 1 plus the sum of ``terms``; ``N`` is the dyadic index of
    the outer scale and ``k_min`` the lowest summation index.
    """

    value: float
    N: int
    k_min: int
    terms: list


def discrete_coefficient(space: PointCloudSpace, lam: DominatingFunction,
                         inner: Ball, outer: Ball, tau: float) -> CoefficientValue:
    """Coefficient of the nested pair (inner, outer) at dilation step tau.

    Raises :class:`NotNested` unless the member set of ``inner`` is contained
    in ``outer``'s and the radii are ordered.
    """
    if not tau > 1.0:
        raise NotNested(f"tau must exceed 1, got {tau!r}")
    if outer.radius < inner.radius:
        raise NotNested("outer radius is smaller than inner radius")
    inner_mask = space.dist[inner.center] <= inner.radius
    outer_mask = space.dist[outer.center] <= outer.radius
    if np.any(inner_mask & ~outer_mask):
        raise NotNested("inner ball members are not contained in the outer ball")
    n_idx = smallest_scale_index(tau, inner.radius, outer.radius)
    k_min = -floor_log(tau)
    radii = inner.radius * tau ** np.arange(k_min, n_idx + 1)
    counts = np.searchsorted(space.sorted_dist[inner.center], radii, side="right")
    terms = space.prefix_weight[inner.center][counts] / lam.table(inner.center, radii)
    return CoefficientValue(value=float(1.0 + np.cumsum(terms)[-1]), N=n_idx,
                            k_min=k_min, terms=terms.tolist())


# ------------------------------------------------------------------------------
# Doubling balls
# ------------------------------------------------------------------------------
def smallest_doubling_ball(space: PointCloudSpace, profile: GeometryProfile,
                           ball: Ball, alpha: float) -> Ball:
    """Smallest enlargement alpha**i * B that is (alpha, beta_alpha)-doubling.

    Terminates structurally: once the radius reaches the diameter, enlarging
    no longer changes the measure and the doubling test passes.
    """
    if not alpha > 1.0:
        raise NotNested(f"alpha must exceed 1, got {alpha!r}")
    beta = profile.beta(alpha)
    cap = smallest_scale_index(alpha, ball.radius, max(space.diameter, ball.radius)) + 2
    for i in range(cap + 1):
        candidate = Ball(ball.center, alpha ** i * ball.radius)
        if ball_measure(space, candidate.scaled(alpha)) <= beta * ball_measure(space, candidate):
            return candidate
    raise AssertionError("doubling search failed to terminate; finite spaces always saturate")


# ------------------------------------------------------------------------------
# Flat coefficient tables
# ------------------------------------------------------------------------------
class CoefficientTables:
    """Cumulative coefficient sums of every candidate ball.

    ``cumulative[b, j]`` is the sum of mu(tau**k B) / lam(tau**k B) over
    k = -k_floor .. j - k_floor for family ball B = b, along the family's
    ladder, so the coefficient of (B, tau**N B), and of any nested pair whose
    outer scale index is N, is ``1 + cumulative[b, N + k_floor]``.  The tables
    are cached on the space under ``lam`` and hold neither, so no reference
    cycle delays freeing a dropped space.
    """

    def __init__(self, space: PointCloudSpace, lam: DominatingFunction, tau: float):
        family = space.balls()
        ladder = family.ladder(tau)
        self.tau = float(tau)
        self.k_floor = ladder.k_floor
        self._family = family
        terms = space.prefix_weight[family.center[:, None], ladder.counts]
        terms /= lam.table(family.center[:, None], family.radius[:, None] * ladder.scales)
        self.cumulative = np.cumsum(terms, axis=1, out=terms)

    def concentric(self, ball, n_index) -> np.ndarray:
        """Coefficients of the family balls ``ball`` at outer scale index
        ``n_index``, vectorized over both."""
        return 1.0 + self.cumulative[ball, np.asarray(n_index) + self.k_floor]

    def pairs(self, b1, b2) -> np.ndarray:
        """Coefficients of the nested family pairs ``(b1, b2)``."""
        radius = self._family.radius
        return self.concentric(b1, scale_index_array(self.tau, radius[b1], radius[b2]))

    def pair_scale_indices(self, center: int) -> np.ndarray:
        """Matrix of scale indices for every concentric radius pair of a
        center, the reference for ``BallFamily.run_ends``."""
        radii = self._family.radius[self._family.segment(center)]
        return scale_index_array(self.tau, radii[:, None], radii[None, :])


def coefficient_tables(space: PointCloudSpace, lam: DominatingFunction, tau: float) -> CoefficientTables:
    """Cached access to :class:`CoefficientTables` for (space, lam, tau)."""
    per_lam = space._coeff_cache.setdefault(lam, {})
    tau = float(tau)
    if tau not in per_lam:
        per_lam[tau] = CoefficientTables(space, lam, tau)
    return per_lam[tau]


# ------------------------------------------------------------------------------
# Doubling flags and indices, vectorized
# ------------------------------------------------------------------------------
def doubling_flags(space: PointCloudSpace, profile: GeometryProfile, alpha: float) -> np.ndarray:
    """Boolean array over the candidate family marking the balls that are
    (alpha, beta_alpha)-doubling."""
    family = space.balls()
    return family.measures(alpha) <= profile.beta(alpha) * family.measures()


def doubling_indices(space: PointCloudSpace, profile: GeometryProfile, alpha: float) -> np.ndarray:
    """Over the candidate family: smallest i with alpha**i * B doubling."""
    family = space.balls()
    ladder = family.ladder(alpha)
    # column i compares alpha**(i+1) * B with alpha**i * B, from i = 0
    mu = space.prefix_weight[family.center[:, None], ladder.counts[:, ladder.k_floor:]]
    doubling = mu[:, 1:] <= profile.beta(alpha) * mu[:, :-1]
    assert bool(np.all(doubling.any(axis=1))), "saturated balls are always doubling"
    return np.argmax(doubling, axis=1)


# ------------------------------------------------------------------------------
# Nested candidate-ball pairs
# ------------------------------------------------------------------------------
#: Nested-pair suprema enumerate every pair of a family of B balls when B**2
#: is at most this, and otherwise read the ladder plus the sampled pairs.
EXHAUSTIVE_PAIR_LIMIT = 20000


def pairs_are_exhaustive(space: PointCloudSpace) -> bool:
    """Whether nested-pair suprema on ``space`` enumerate every pair."""
    return len(space.balls()) ** 2 <= EXHAUSTIVE_PAIR_LIMIT


def nested_pairs(space: PointCloudSpace) -> tuple:
    """Every nested candidate-ball pair, as flat family indices ``(b1, b2)``.

    Ball b1 is nested in b2 when its radius is at most b2's and every member
    of b1 is a member of b2, that is, when the two share all of b1's members.
    Pairs come in b1-major order with b2 ascending.  The shared-member table
    is B x B, so this serves the exhaustive branches of small families.
    """
    family = space.balls()
    member = (space.dist[family.center] <= family.radius[:, None]).astype(np.int64)
    contained = member @ member.T == family.counts()[:, None]
    return np.nonzero(contained & (family.radius[None, :] >= family.radius[:, None]))


@dataclass(eq=False)
class NestedPairSample:
    """Accepted non-concentric nested pairs (inner ball, outer ball) as flat
    indices into the candidate family."""

    b1: np.ndarray
    b2: np.ndarray

    def __len__(self) -> int:
        return int(self.b1.shape[0])


def sampled_nested_pairs(space: PointCloudSpace, budget: int, seed: int) -> NestedPairSample:
    """Draw up to ``budget`` non-concentric nested candidate-ball pairs with a
    fixed-seed generator, verifying member containment.

    The sample is drawn once per (space, budget, seed) and shared by every
    supremum; callers read coefficients from :meth:`CoefficientTables.pairs`,
    and the sharp maximal function keeps the pairs of :func:`doubling_flags`
    balls (each draw makes the same generator calls, accepted or not).
    """
    key = (budget, seed)
    if key in space._pair_samples:
        return space._pair_samples[key]
    rng = np.random.default_rng(seed)
    family = space.balls()
    sizes = np.diff(family.offsets).tolist()
    counts = family.counts()
    pairs: list = []
    if space.n > 1:
        for _ in range(budget):
            c1, c2 = (int(v) for v in rng.choice(space.n, size=2, replace=False))
            b1 = int(family.offsets[c1] + rng.integers(sizes[c1]))
            b2 = int(family.offsets[c2] + rng.integers(sizes[c2]))
            if family.radius[b2] < family.radius[b1]:
                c1, c2, b1, b2 = c2, c1, b2, b1
            members1 = space.order[c1][:counts[b1]]
            if not np.all(space.dist[c2][members1] <= family.radius[b2]):
                continue
            pairs.append((b1, b2))
    b1s, b2s = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    space._pair_samples[key] = NestedPairSample(b1s, b2s)
    return space._pair_samples[key]


# ------------------------------------------------------------------------------
# Inequality suite for the coefficient
# ------------------------------------------------------------------------------
def check_coefficient_inequalities(space: PointCloudSpace, lam: DominatingFunction,
                                   tau_pair: tuple = (2.0, 6.0),
                                   sample_budget: int = 5000,
                                   seed: int = 0) -> CheckReport:
    """Sample concentric nested triples B ⊆ R ⊆ S and check/record the
    coefficient inequalities.

    Exact (asserted): the coefficient grows with the outer ball, with
    constant 1, because the outer index only extends a nonnegative prefix sum.
    Recorded (empirical): bounded-enlargement maxima, the difference constant
    over triples, the inner-shrink constant, and the two-sided ratio band
    between the two dilation steps.
    """
    tau1, tau2 = float(tau_pair[0]), float(tau_pair[1])
    family = space.balls()
    t1 = coefficient_tables(space, lam, tau1)
    t2 = coefficient_tables(space, lam, tau2)
    rng = np.random.default_rng(seed)

    monotone_ok = True
    monotone_witness: dict = {}
    diff_ratio_max = 0.0
    shrink_ratio_max = 0.0
    cross_max = -math.inf
    cross_min = math.inf
    bounded_max = {2.0: -math.inf, 6.0: -math.inf}
    ge_one_ok = True

    sizes = np.diff(family.offsets)
    eligible = np.flatnonzero(sizes >= 3)
    attempted = 0
    if eligible.size:
        for _ in range(sample_budget):
            attempted += 1
            c = int(rng.choice(eligible))
            i, j, k = family.offsets[c] + np.sort(rng.choice(sizes[c], size=3, replace=False))
            r_i, r_j, r_k = (float(family.radius[x]) for x in (i, j, k))
            k_br = float(t1.concentric(i, smallest_scale_index(tau1, r_i, r_j)))
            k_bs = float(t1.concentric(i, smallest_scale_index(tau1, r_i, r_k)))
            k_rs = float(t1.concentric(j, smallest_scale_index(tau1, r_j, r_k)))
            if not (k_br >= 1.0 and k_bs >= 1.0 and k_rs >= 1.0):
                ge_one_ok = False
            if k_br > k_bs:
                monotone_ok = False
                monotone_witness = {"center": c, "r_b": r_i, "r_r": r_j, "r_s": r_k,
                                    "inner": k_br, "outer": k_bs}
            diff_ratio_max = max(diff_ratio_max, (k_bs - k_br) / k_rs)
            shrink_ratio_max = max(shrink_ratio_max, k_rs / k_bs)
            cross = k_bs / float(t2.concentric(i, smallest_scale_index(tau2, r_i, r_k)))
            cross_max = max(cross_max, cross)
            cross_min = min(cross_min, cross)
            ratio = r_k / r_i
            for alpha in bounded_max:
                if ratio <= alpha:
                    bounded_max[alpha] = max(bounded_max[alpha], k_bs)

    # deterministic pass over pairs (B, alpha*B) for the bounded-enlargement record
    balls = np.arange(len(family))
    for alpha in (2.0, 6.0):
        n_idx = scale_index_array(tau1, family.radius, alpha * family.radius)
        bounded_max[alpha] = max(bounded_max[alpha], float(t1.concentric(balls, n_idx).max()))

    passed = monotone_ok and ge_one_ok
    return CheckReport(
        check="coefficient_inequalities",
        passed=passed,
        value=diff_ratio_max,
        worst_witness=monotone_witness,
        details={
            "sampled_triples": attempted,
            "outer_monotone_exact": monotone_ok,
            "at_least_one_exact": ge_one_ok,
            "bounded_enlargement_max": {str(a): v for a, v in bounded_max.items()},
            "difference_constant": diff_ratio_max,
            "inner_shrink_constant": shrink_ratio_max,
            "cross_step_ratio_max": cross_max if cross_max > -math.inf else None,
            "cross_step_ratio_min": cross_min if cross_min < math.inf else None,
            "tau_pair": [tau1, tau2],
        },
    )


def check_coefficient_chain_bound(space: PointCloudSpace, lam: DominatingFunction,
                                  tau: float, chains: Sequence) -> CheckReport:
    """Check the chain inequality on concentric dyadic chains.

    A chain is (center, base_radius, exponents); the balls have radii
    tau**e * base_radius.  Chains whose links do not all exceed the threshold
    3 + floor(log_tau 2) are skipped and counted; qualifying chains must
    satisfy the strict inequality
    sum of link coefficients < threshold * end-to-end coefficient.
    """
    threshold = 3.0 + floor_log(tau)
    qualifying = 0
    passing = 0
    skipped = 0
    witness: dict = {}
    for chain in chains:
        center, base_radius, exponents = chain
        exps = sorted(int(e) for e in exponents)
        if len(exps) < 2:
            skipped += 1
            continue
        balls = [Ball(int(center), tau ** e * float(base_radius)) for e in exps]
        links = [
            discrete_coefficient(space, lam, balls[i], balls[i + 1], tau).value
            for i in range(len(balls) - 1)
        ]
        if not all(v > threshold for v in links):
            skipped += 1
            continue
        qualifying += 1
        total = discrete_coefficient(space, lam, balls[0], balls[-1], tau).value
        if sum(links) < threshold * total:
            passing += 1
        elif not witness:
            witness = {"center": int(center), "base_radius": float(base_radius),
                       "exponents": exps, "links": links, "total": total}
    return CheckReport(
        check="coefficient_chain_bound",
        passed=(qualifying == passing),
        value=float(qualifying),
        worst_witness=witness,
        details={"qualifying": qualifying, "passing": passing,
                 "skipped": skipped, "threshold": threshold},
    )


def check_doubling_coefficient_bound(space: PointCloudSpace, lam: DominatingFunction,
                                     profile: GeometryProfile, alpha: float) -> CheckReport:
    """Record the maximal coefficient between a ball and its smallest
    doubling enlargement (an empirical constant for stability testing)."""
    tables = coefficient_tables(space, lam, alpha)
    idx = doubling_indices(space, profile, alpha)
    family = space.balls()
    vals = tables.concentric(np.arange(len(family)), idx)
    j = int(np.argmax(vals))
    return CheckReport(
        check="doubling_coefficient_bound",
        passed=None,
        value=float(vals[j]),
        worst_witness={**family.ball(j), "doubling_exponent": int(idx[j])},
        details={"alpha": alpha, "beta": profile.beta(alpha)},
    )


def validate_weak_doubling(space: PointCloudSpace, lam: DominatingFunction,
                           profile: GeometryProfile, tau: float) -> CheckReport:
    """Record the maximal dyadic index between a ball and its smallest
    doubling enlargement (the empirical weak-doubling constant)."""
    family = space.balls()
    idx = doubling_indices(space, profile, tau)
    j = int(np.argmax(idx))
    return CheckReport(
        check="weak_doubling_index",
        passed=None,
        value=float(idx[j]),
        worst_witness=family.ball(j),
        details={"tau": tau, "beta": profile.beta(tau)},
    )
