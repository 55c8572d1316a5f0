"""Balls, doubling-ball search, and the discrete nesting coefficient.

The coefficient of a nested ball pair (B, S) is 1 plus the sum of
measure-to-dominating-function ratios along the dyadic enlargements of B up
to the scale of S; it measures how far the measure is from doubling between
the two scales.  :class:`CoefficientTables` holds every candidate ball's
running sum along its levels of ``BallFamily.ladder``; the scalar
:func:`concentric_coefficients` runs the same arithmetic on the concentric
pairs of one center, so the two agree bit for bit, and serves balls outside
the family such as chain links; :func:`discrete_coefficient` is its one-pair
form.
Every nested-pair supremum reads its pairs from :func:`pair_source`: every pair of
:func:`nested_pairs` when :func:`pairs_are_exhaustive` holds, else :func:`sampled_nested_pairs`,
one sample per (space, budget, seed), which :func:`replay_draws` recomputes from the PCG64 raw
stream with no scalar ``Generator`` loop, from the chain's own word offsets when they line up.
Scale indices come from the one array form, :func:`~nhslab.mmspace.scale_index_array`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
# NumPy loads numpy.random on first use; importing it here keeps that cost in
# `import nhslab` rather than in the first draw of a run
from numpy.random import default_rng

from .errors import NotNested
from .mmspace import (
    DominatingFunction,
    GeometryProfile,
    PointCloudSpace,
    floor_log,
    memo,
    row_blocks,
    scale_index_array,
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


class ConcentricCoefficients(NamedTuple):
    """Coefficients of the concentric pairs B = B(c, r_in[i]) ⊆ B(c, tau**N[i] r_in[i]).

    Row i of ``terms`` holds the summands of ``values[i]``,
    mu(tau**k B) / lam(tau**k B) for k = k_min .. N[i], then zeros.
    """

    values: np.ndarray
    k_min: int
    terms: np.ndarray


def concentric_coefficients(space: PointCloudSpace, lam: DominatingFunction, center: int,
                            r_in: Sequence[float], n_idx: Sequence[int],
                            tau: float) -> ConcentricCoefficients:
    """The one coefficient formula, over many concentric pairs of one center.

    Each pair is an inner radius and the outer scale index N: a pair of
    candidate balls takes N from :func:`scale_index_array`, as the table's
    do, and a chain link its exponent gap.  The ladder of every inner radius
    is built once to the largest N, measured by one ``searchsorted`` and one
    gather, and divided by one ``lam.table``; the terms past a row's N are
    zeroed and the row-wise running sum is read at column N - k_min, so each
    value is the sequential sum of its own terms.
    """
    if not tau > 1.0:
        raise NotNested(f"tau must exceed 1, got {tau!r}")
    r_in = np.asarray(r_in, dtype=float)
    n_idx = np.asarray(n_idx, dtype=np.int64)
    k_min = -floor_log(tau)
    ks = np.arange(k_min, int(n_idx.max(initial=0)) + 1)
    radii = r_in[:, None] * tau ** ks
    counts = np.searchsorted(space.sorted_dist[center], radii, side="right")
    terms = space.prefix_weight[center][counts] / lam.table(center, radii)
    terms[ks[None, :] > n_idx[:, None]] = 0.0
    values = 1.0 + np.cumsum(terms, axis=1)[np.arange(n_idx.size), n_idx - k_min]
    return ConcentricCoefficients(values, k_min, terms)


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
    n_idx = int(scale_index_array(tau, inner.radius, outer.radius))
    coeff = concentric_coefficients(space, lam, inner.center, [inner.radius], [n_idx], tau)
    return CoefficientValue(value=float(coeff.values[0]), N=n_idx,
                            k_min=coeff.k_min, terms=coeff.terms[0].tolist())


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
    cap = int(scale_index_array(alpha, ball.radius, max(space.diameter, ball.radius))) + 2
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

    ``cumulative`` is a level table of the family's ladder: at level j, ball B
    has the sum of mu(tau**k B) / lam(tau**k B) over k = -k_floor .. j - k_floor,
    so the coefficient of (B, tau**N B), and of any nested pair of outer scale
    index N, is 1 plus its entry at level N + k_floor.  Cached in the space's
    store under ``lam``, the tables hold neither, so no cycle delays freeing a space.
    """

    def __init__(self, space: PointCloudSpace, lam: DominatingFunction, tau: float):
        family = space.balls()
        ladder = family.ladder(tau)
        self.tau, self.k_floor, self._family, self._ladder = float(tau), ladder.k_floor, family, ladder
        center, radius, flat = (a[ladder.order] for a in (family.center, family.radius, family.flat))
        self.cumulative = np.empty(ladder.counts.size)
        for j, scale in enumerate(ladder.scales):
            q = ladder.level(ladder.counts, j)
            terms = space.prefix_weight.ravel().take(flat[:q.size] + q)
            terms /= lam.table(center[:q.size], radius[:q.size] * scale)
            if j:
                terms += ladder.level(self.cumulative, j - 1)[:q.size]
            ladder.level(self.cumulative, j)[:] = terms

    def level(self, n_index: int) -> np.ndarray:
        """Coefficients of the pairs (B, tau**n_index B) over their ladder level, in its order."""
        return 1.0 + self._ladder.level(self.cumulative, n_index + self.k_floor)

    def concentric(self, ball, n_index) -> np.ndarray:
        """Coefficients of the family balls ``ball`` at outer scale index
        ``n_index``, vectorized over both; IndexError past a ball's levels."""
        return 1.0 + self.cumulative[self._ladder.index(ball, np.asarray(n_index) + self.k_floor)]

    def pairs(self, b1, b2) -> np.ndarray:
        """Coefficients of the nested family pairs ``(b1, b2)``."""
        radius = self._family.radius
        return self.concentric(b1, scale_index_array(self.tau, radius[b1], radius[b2]))

    def pair_scale_indices(self, center: int) -> np.ndarray:
        """Matrix of scale indices for every concentric radius pair of a
        center, the reference for the runs of ``BallFamily.windows``."""
        radii = self._family.radius[self._family.segment(center)]
        return scale_index_array(self.tau, radii[:, None], radii[None, :])


def coefficient_tables(space: PointCloudSpace, lam: DominatingFunction, tau: float) -> CoefficientTables:
    """Cached access to :class:`CoefficientTables` for (space, lam, tau)."""
    tau = float(tau)
    return memo(space.store(lam), ("coefficients", tau), lambda: CoefficientTables(space, lam, tau))


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
    flat, beta, idx, mu = family.flat[ladder.order], profile.beta(alpha), np.full(len(family), -1), None
    # step i compares alpha**i * B with alpha**(i - 1) * B over the balls of level i + k_floor
    for i, j in enumerate(range(ladder.k_floor, ladder.scales.size)):
        q = ladder.level(ladder.counts, j)
        mu, prev = space.prefix_weight.ravel().take(flat[:q.size] + q), mu
        if prev is not None:
            idx[:q.size][(idx[:q.size] < 0) & (mu <= beta * prev[:q.size])] = i - 1
    assert bool(np.all(idx >= 0)), "saturated balls are always doubling"
    return idx[ladder.rank]


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


def replay_draws(seed: int, budget: int, words: int, step) -> list:
    """``budget`` steps of a scalar ``Generator`` loop, replayed from the raw words of ``default_rng(seed)``.

    ``step(draw)`` runs one step from many 32-bit word offsets at once; ``draw(r)`` is
    ``Generator.integers(r)``, r <= 2**32: Lemire's method, whose threshold ``(2**32 - r) % r``
    equals ``2**32 % r``.  ``words`` bounds the words of a step without rejections.  Steps run
    from the offsets ``k * words`` (k < budget), kept if each ends where the next starts; else
    also from the other offsets, and the chain from 0 is walked (a chain past the block doubles it).
    """
    raw = default_rng(seed).bit_generator.random_raw(words * max(budget, 0) // 2 + 32)
    block = raw.astype("<u8").view("<u4").astype(np.uint64)

    def run(pos):
        def draw(r):
            nonlocal pos
            r = np.broadcast_to(np.asarray(r, dtype=np.uint64), pos.shape)
            m, pos, todo = np.zeros(pos.shape, dtype=np.uint64), pos.copy(), np.flatnonzero(r > 1)
            while todo.size:
                # a word read past the block ends the draw, with its offset past too
                m[todo] = block[np.minimum(pos[todo], block.size - 1)] * r[todo]
                pos[todo] += 1
                todo = todo[(m[todo] % 2**32 < 2**32 % r[todo]) & (pos[todo] <= block.size)]
            return (m >> 32).astype(np.int64)
        return [np.asarray(v) for v in step(draw)] + [pos]
    starts = words * np.arange(max(budget, 0))
    *values, ends = run(starts)
    if np.array_equal(ends[:-1], starts[1:]) and np.all(ends[-1:] <= block.size):
        return values
    # the other offsets run too; start k * words goes after k * (words - 1) of them
    rest = np.flatnonzero(np.bincount(starts, minlength=block.size + 1) == 0)
    slot = starts - np.arange(starts.size)
    *values, pos = [np.insert(m, slot, v, axis=0) for v, m in zip(values + [ends], run(rest))]
    # every offset past the block leads to block.size + 1, and that to itself
    nxt, chain, at = np.minimum(pos, block.size + 1).tolist() + [block.size + 1], [], 0
    for _ in range(budget):
        chain.append(at)
        at = nxt[at]
    if at > block.size:
        return replay_draws(seed, budget, 2 * words, step)
    return [v[np.asarray(chain, dtype=np.int64)] for v in values]


def replay_choice(draw, m, k: int) -> np.ndarray:
    """``Generator.choice(m, k, replace=False)`` for small k from a
    :func:`replay_draws` ``draw``: Floyd's algorithm, a repeated pick
    replaced by the top of its range, then a Fisher-Yates shuffle."""
    picks = []
    for j in range(k):
        v = draw(m - k + j + 1)
        picks.append(np.where(np.any([v == p for p in picks], axis=0), m - k + j, v))
    picks = np.stack(picks, axis=-1)
    rows = np.arange(picks.shape[0])
    for i in range(k - 1, 0, -1):
        j = draw(i + 1)
        picks[rows, i], picks[rows, j] = picks[rows, j], picks[rows, i]
    return picks


def sampled_nested_pairs(space: PointCloudSpace, budget: int, seed: int) -> NestedPairSample:
    """Draw up to ``budget`` non-concentric nested candidate-ball pairs with a
    fixed-seed generator, verifying member containment.

    The sample is drawn once per (space, budget, seed) and shared by every
    supremum; callers read coefficients from :meth:`CoefficientTables.pairs`,
    and the sharp maximal function keeps the pairs of :func:`doubling_flags`
    balls.  The draws are those of the scalar loop ``c1, c2 =
    rng.choice(n, 2, replace=False)`` then ``rng.integers(size)`` for each
    center, replayed by :func:`replay_draws`; the radius order, the drop of draws whose
    outer ball misses the inner center and the containment test run in one vectorised pass.
    """
    def build():
        family = space.balls()
        sizes = np.diff(family.offsets)

        def step(draw):
            c1, c2 = replay_choice(draw, space.n, 2).T
            return c1, c2, draw(sizes[c1]), draw(sizes[c2])
        c1, c2, i1, i2 = replay_draws(seed, budget if space.n > 1 else 0, 5, step)
        b1, b2 = family.offsets[c1] + i1, family.offsets[c2] + i2
        swap = family.radius[b2] < family.radius[b1]
        c1, c2 = np.where(swap, c2, c1), np.where(swap, c1, c2)
        b1, b2 = np.where(swap, b2, b1), np.where(swap, b1, b2)
        keep = space.dist[c2, c1] <= family.radius[b2]
        c1, c2, b1, b2 = c1[keep], c2[keep], b1[keep], b2[keep]
        # b1 is nested in b2 when the farthest of b1's members, seen from c2, is
        # within b2's radius; the (rows, n) gather runs in the blocks of row_blocks
        counts = family.counts()[b1]
        nested = np.empty(b1.shape, dtype=bool)
        for s in row_blocks(b1.size, space.n):
            farthest = np.maximum.accumulate(space.dist[c2[s, None], space.order[c1[s]]], axis=1)
            nested[s] = farthest[np.arange(farthest.shape[0]), counts[s] - 1] <= family.radius[b2[s]]
        return NestedPairSample(b1[nested], b2[nested])
    return memo(space.store(), ("pairs", budget, seed), build)


def pair_source(space: PointCloudSpace, budget: int, seed: int) -> tuple:
    """The one pair source of the nested-pair suprema, as flat family indices ``(b1, b2)``:
    :func:`nested_pairs` when :func:`pairs_are_exhaustive` holds, else the shared sample."""
    if pairs_are_exhaustive(space):
        return nested_pairs(space)
    sample = sampled_nested_pairs(space, budget, seed)
    return sample.b1, sample.b2


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

    # the draws of the loop c = rng.choice(eligible), then
    # rng.choice(sizes[c], 3, replace=False); every triple is measured in one pass
    sizes = np.diff(family.offsets)
    eligible = np.flatnonzero(sizes >= 3)

    def step(draw):
        c = eligible[draw(eligible.size)]
        return c, replay_choice(draw, sizes[c], 3)
    centers, picks = replay_draws(seed, sample_budget if eligible.size else 0, 6, step)
    i, j, k = (family.offsets[centers][:, None] + np.sort(picks, axis=1)).T
    r_i, r_j, r_k = family.radius[i], family.radius[j], family.radius[k]
    k_br = t1.concentric(i, scale_index_array(tau1, r_i, r_j))
    k_bs = t1.concentric(i, scale_index_array(tau1, r_i, r_k))
    k_rs = t1.concentric(j, scale_index_array(tau1, r_j, r_k))
    cross = k_bs / t2.concentric(i, scale_index_array(tau2, r_i, r_k))
    ge_one_ok = bool(np.all((k_br >= 1.0) & (k_bs >= 1.0) & (k_rs >= 1.0)))
    failing = np.flatnonzero(k_br > k_bs)
    monotone_ok = not failing.size
    monotone_witness: dict = {}
    if failing.size:
        t = failing[-1]
        monotone_witness = {"center": int(family.center[i[t]]), "r_b": float(r_i[t]),
                            "r_r": float(r_j[t]), "r_s": float(r_k[t]),
                            "inner": float(k_br[t]), "outer": float(k_bs[t])}
    # fmax and fmin skip NaN, as running maxima of comparisons do
    diff_ratio_max = float(np.fmax.reduce((k_bs - k_br) / k_rs, initial=0.0))
    shrink_ratio_max = float(np.fmax.reduce(k_rs / k_bs, initial=0.0))
    cross_max = float(np.fmax.reduce(cross, initial=-math.inf))
    cross_min = float(np.fmin.reduce(cross, initial=math.inf))

    # every pair (B, alpha*B), and the sampled triples within each enlargement:
    # a triple exceeds the pairs only where the coefficient falls with the
    # outer ball (a lambda with negative values), the case the exact check is for
    balls = np.arange(len(family))
    bounded_max = {}
    for alpha in (2.0, 6.0):
        sampled = float(np.fmax.reduce(k_bs[r_k / r_i <= alpha], initial=-math.inf))
        n_idx = scale_index_array(tau1, family.radius, alpha * family.radius)
        bounded_max[alpha] = max(sampled, float(t1.concentric(balls, n_idx).max()))

    passed = monotone_ok and ge_one_ok
    return CheckReport(
        check="coefficient_inequalities",
        passed=passed,
        value=diff_ratio_max,
        worst_witness=monotone_witness,
        details={
            "sampled_triples": len(centers),
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
    sum of link coefficients < threshold * end-to-end coefficient.  With no
    qualifying chain the check passes vacuously, and ``details["vacuous"]``
    says so.
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
        # Ball rejects a radius that is not positive
        radii = [Ball(int(center), tau ** e * float(base_radius)).radius for e in exps]
        # the links, then the end-to-end pair, in one kernel call; each
        # outer scale index is the exponent gap, not a ratio of rounded radii
        gaps = np.diff(exps).tolist() + [exps[-1] - exps[0]]
        coeff = concentric_coefficients(space, lam, int(center), radii[:-1] + radii[:1],
                                        gaps, tau).values.tolist()
        links, total = coeff[:-1], coeff[-1]
        if not all(v > threshold for v in links):
            skipped += 1
            continue
        qualifying += 1
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
                 "skipped": skipped, "threshold": threshold,
                 "vacuous": qualifying == 0},
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
