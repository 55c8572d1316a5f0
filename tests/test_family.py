"""Property tests for the radial-function protocol, the flat candidate-ball
family and the suprema over it.

Every shipped dominating, regularity and growth function gives the same bits
from a scalar call, a 1-element table, a per-center table, a center-by-radius
grid and the flat family table.  Every supremum that reads the family is
compared, bit for bit in value and witness, with a per-center reference loop
kept here; the nested-pair enumerator is compared with a brute-force double
loop over ball masks, the batched doubling greedy with the per-ball greedy it
replaced, the one scatter of ``sharp_maximal`` with the per-pair member loop
it replaced, the shared nested-pair sample (plain and filtered by the doubling
flags) with the draw loops it replaced, the coefficient table with the
scalar primitive on every nested pair, the concentric coefficient kernel
with the scalar formula it replaced, the chain search with its per-link
loop, the coefficient inequalities with their per-triple loop, the per-ball
ladder levels and coefficient sums with the dense tables they replaced (and
every reader within each ball's levels), the run ends of ``sharp_maximal``'s
concentric pass with the scale-index matrix, the one supremum tail of ``campanato_norm_multi`` and
``sharp_maximal`` on small families with the per-ball and per-pair loops it
replaced (kept here as oracles), and the one-pass Marcinkiewicz integral
with its per-point loop, also across the seams of its row blocks.  The
oscillation sums are compared with exact rational sums and with the dense
table they replaced, also on spaces
that cross the edges of their tiles, and the scatter of the maximal
operators with the ``np.maximum.at`` form it replaced.  The draws that
``geometry.replay_draws`` recomputes from the raw PCG64 stream are compared
with the scalar ``Generator`` calls they replace: the bounded draw itself,
the three draw schedules, and every report field of the pair sample, the
mean-jump comparable pairs and the coefficient triples against their draw
loops; the replay is also compared with the every-offset pass alone (an
oracle kept here), and the pair sample with its pass without the prefilter
of draws whose outer ball misses the inner center.  ``validate_kernel`` is
compared with its all-pairs loop, and with the 8000 pairs it once drew.  Guard tests pin that the family and the pair
sample are one per space, with no option.  Spaces are small (n <= 10):
points in 1 to 3 dimensions and integer-length graph metrics with many tied
distances, with weight ratios up to 1e6; the doubling property also draws
coincident lattice points, and the replay tests lattice spaces up to
n = 600, whose centers may have one or exactly three candidate radii.  The
ladders and the sharp maximal function are also compared on grid(d=1, n=64)
and a 40-point graph metric, whose long runs need wide windows.
"""
from __future__ import annotations

import dataclasses
import inspect
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import nhslab as nl
from nhslab import geometry, lab, mmspace, operators, spaces
from nhslab.geometry import Ball, ball_measure, coefficient_tables, nested_pairs
from nhslab.operators import OperatorParams
from nhslab.spaces import CampanatoNormReport, ball_mean
from test_mmspace import _exhaustive_doubling_count

PROPERTY = settings(max_examples=60, deadline=None)


def weight_psi(space):
    """Center-dependent, radius-free normalizer; useful as a comparability
    stress case because wildly varying weights break the equal-radius bound."""
    w = space.weights
    return spaces.RegularityFunctionPsi(lambda c, r: w[c], family="weight", param=None)


# ------------------------------------------------------------------------------
# Strategies
# ------------------------------------------------------------------------------
def _graph_metric(n, parents, extra):
    """Shortest-path metric of a spanning tree plus extra edges."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, (j, length) in enumerate(parents, start=1):
        d[i, j] = d[j, i] = min(d[i, j], length)
    for i, j, length in extra:
        if i != j:
            d[i, j] = d[j, i] = min(d[i, j], length)
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


@st.composite
def small_spaces(draw, coincident=False, n=None):
    """Points or graph metrics on n points (1 to 10 if None); with
    ``coincident``, points on the integer lattice {0..3}^dim, so atoms
    coincide and distances tie."""
    n = draw(st.integers(1, 10)) if n is None else n
    weights = draw(st.lists(st.floats(1.0, 1e6), min_size=n, max_size=n))
    if coincident or draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        coord = (st.integers(0, 3).map(float) if coincident
                 else st.floats(0.0, 1.0, allow_subnormal=False))
        points = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                               min_size=n, max_size=n))
        return nl.build_space(points=points, weights=weights)
    parents = [(draw(st.integers(0, i - 1)), draw(st.integers(1, 4))) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(1, 4)), max_size=n))
    return nl.build_space(distances=_graph_metric(n, parents, extra), weights=weights)


@st.composite
def spaces_and_functions(draw):
    space = draw(small_spaces())
    f = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=space.n, max_size=space.n)))
    return space, f


@st.composite
def power_lambdas(draw, n):
    """Center-dependent a[c] * r**k[c]; fails each validator kind somewhere."""
    a = np.asarray(draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)))
    k = np.asarray(draw(st.lists(st.floats(-1.0, 3.0), min_size=n, max_size=n)))
    c_lambda = draw(st.floats(1.0, 4.0))
    return nl.DominatingFunction(lambda c, r: a[c] * r ** k[c], c_lambda=c_lambda)


def _lam(space):
    return nl.fit_power_lambda(space, 1.0)


PROFILE = nl.GeometryProfile(N0=3, nu=1.0)


def _segments(space):
    family = space.balls()
    return [(c, slice(family.offsets[c], family.offsets[c + 1])) for c in range(space.n)]


# ------------------------------------------------------------------------------
# The radial-function protocol
# ------------------------------------------------------------------------------
@st.composite
def radial_functions(draw, space):
    """Every shipped factory, each with drawn parameters."""
    expo = draw(st.floats(-2.0, 3.0))
    decay = draw(st.floats(0.1, 3.0))
    try:
        lam = nl.fit_power_lambda(space, draw(st.floats(0.0, 3.0)))
    except nl.errors.DegenerateRadii:
        reject()
    phi = draw(st.sampled_from([spaces.power_phi(decay), spaces.shifted_power_phi(decay),
                                spaces.constant_phi()]))
    return draw(st.sampled_from([
        lam, lab.two_point_lambda(), phi,
        spaces.constant_psi(), spaces.radius_power_psi(expo),
        spaces.lambda_power_psi(lam, expo), weight_psi(space),
        spaces.phi_compatible_psi(phi, 2.0, draw(st.floats(2.0, 8.0))),
    ]))


@PROPERTY
@given(st.data())
def test_scalar_call_table_and_broadcast_agree(data):
    space = data.draw(small_spaces())
    obj = data.draw(radial_functions(space))
    radii = np.asarray(data.draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=20)))

    def same(a, b):
        # a fitted c0 is inf when a tiny candidate radius ** kappa underflows,
        # and inf * 0 is NaN on both sides
        return np.array_equal(a, b, equal_nan=True)

    for c in range(space.n):
        scalar = [obj(c, r) for r in radii]
        assert same(scalar, [obj.table(c, [r])[0] for r in radii])
        assert same(scalar, obj.table(c, radii))
    grid = obj.table(np.arange(space.n)[:, None], radii)
    assert same(grid, np.stack([obj.table(c, radii) for c in range(space.n)]))
    family = space.balls()
    assert same(obj.table(family.center, family.radius),
                np.concatenate([obj.table(c, space.candidate_radii(c)) for c in range(space.n)]))


# ------------------------------------------------------------------------------
# The family and the enumerator
# ------------------------------------------------------------------------------
@PROPERTY
@given(small_spaces())
def test_one_family_per_space_and_no_multiplier_option(space):
    """The radius rule is an ``mmspace`` constant: no call takes a multiplier
    set, each space builds its family once, and a center's candidate radii are
    a read-only view of its segment."""
    callables = [getattr(nl, name) for name in dir(nl) if callable(getattr(nl, name))]
    callables += [nl.PointCloudSpace.balls, nl.PointCloudSpace.candidate_radii,
                  nl.PointCloudSpace.radius_union, nl.PointCloudSpace.fn_table,
                  geometry.coefficient_tables, geometry.nested_pairs, geometry.sampled_nested_pairs]
    for fn in callables:
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):
            continue
        assert "multipliers" not in params, fn
    family = space.balls()
    assert space.balls() is family
    for c, s in _segments(space):
        radii = space.candidate_radii(c)
        assert np.array_equal(radii, family.radius[s])
        assert not radii.flags.writeable


def _chained_dedup(values):
    out = [float(values[0])]
    for v in values[1:]:
        if v > out[-1] * (1.0 + nl.mmspace.RADIUS_DEDUP_TOL):
            out.append(float(v))
    return out


def _candidate_radii_reference(space):
    """Every center's radii as the family built them before the one-pass
    build: unique distances, scaled, sorted, merged by the chained rule."""
    radii = []
    for row in space.dist:
        base = np.unique(row[row > 0.0])
        scaled = np.sort(np.concatenate([m * base for m in nl.mmspace.RADIUS_MULTIPLIERS]))
        radii.append(_chained_dedup(scaled) if base.size else [nl.mmspace.FALLBACK_RADIUS])
    return radii


@st.composite
def near_tie_spaces(draw):
    """1-D points at a * (1 + m * 4e-13): distances tie exactly or within a
    few ``RADIUS_DEDUP_TOL`` steps, so chains of near-ties occur."""
    n = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), min_size=n, max_size=n))
    return nl.build_space(points=[[a * (1.0 + m * 4e-13)] for a, m in pairs], weights=np.ones(n))


# 0, 1, 1 + 6e-13, 1 + 1.2e-12: from the center 0 the chained rule keeps
# 1 + 1.2e-12 (past 1 * (1 + 1e-12)) where the adjacent rule would drop it
CHAINED_NEAR_TIES = nl.build_space(points=[[0.0], [1.0], [1.0 + 6e-13], [1.0 + 1.2e-12]],
                                   weights=np.ones(4))


@PROPERTY
@given(st.one_of(near_tie_spaces(), small_spaces(), small_spaces(coincident=True)))
@example(CHAINED_NEAR_TIES)
def test_one_pass_radii_equal_per_center_loop(space):
    want = _candidate_radii_reference(space)
    family = space.balls()
    assert family.radius.tolist() == [r for radii in want for r in radii]
    assert family.offsets.tolist() == np.cumsum([0] + [len(r) for r in want]).tolist()
    assert family.center.tolist() == [c for c, radii in enumerate(want) for _ in radii]
    assert space.radius_union().tolist() == _chained_dedup(np.sort(family.radius))


def test_chained_near_ties_keep_the_chained_rule():
    rows = np.array([[0.0, 1.0, 1.0 + 6e-13, 1.0 + 1.2e-12, 2.0]])
    values, row = nl.mmspace._dedup_rows(rows)
    assert values.tolist() == [1.0, 1.0 + 1.2e-12, 2.0] == _chained_dedup(rows[0, 1:])
    assert row.tolist() == [0, 0, 0]
    assert CHAINED_NEAR_TIES.candidate_radii(0).tolist() == [0.5, 0.5 + 6e-13, 1.0, 1.0 + 1.2e-12]
    # a run of five open near-ties takes five rounds; rows without a positive
    # entry yield FALLBACK_RADIUS between rows with runs
    run = [1.0 + k * 6e-13 for k in range(6)]
    rows = np.array([[0.0] * 7, [0.0, *run], [0.0] * 7, [0.5, 0.5, *run[:4], 3.0], [0.0] * 7])
    values, row = nl.mmspace._dedup_rows(rows)
    want = [_chained_dedup(np.unique(r[r > 0.0])) if np.any(r > 0.0) else [nl.mmspace.FALLBACK_RADIUS]
            for r in rows]
    assert values.tolist() == [v for w in want for v in w]
    assert row.tolist() == [i for i, w in enumerate(want) for _ in w]
    assert want[1] == [1.0, 1.0 + 1.2e-12, 1.0 + 2.4e-12]
    # grid(d=1, n=256), the battery's input: most centers hold runs of near-ties
    space = lab.generate_space({"kind": "grid", "d": 1, "n": 256})
    want = _candidate_radii_reference(space)
    family = space.balls()
    assert family.radius.tolist() == [r for radii in want for r in radii]
    assert family.offsets.tolist() == np.cumsum([0] + [len(r) for r in want]).tolist()


@PROPERTY
@given(small_spaces(), st.sampled_from([1.0, 2.0, 5.0, 6.0]))
def test_family_matches_candidate_radii_and_counts(space, scale):
    family = space.balls()
    assert np.array_equal(family.radius,
                          np.concatenate([space.candidate_radii(c) for c in range(space.n)]))
    later = family.later_max(family.measures(scale))
    for c, s in _segments(space):
        assert np.all(family.center[s] == c)
        radii = space.candidate_radii(c)
        assert np.array_equal(family.counts(scale)[s], space.counts(c, scale * radii))
        assert np.array_equal(family.measures(scale)[s],
                              space.prefix_weight[c][space.counts(c, scale * radii)])
        # later_max: per ball, the largest measure over the later balls of its segment
        mu = family.measures(scale)[s].tolist()
        assert later[s].tolist() == [max(mu[i + 1:], default=-math.inf) for i in range(len(mu))]
    # the measures are cached per scale and read-only, as the counts are
    mu = family.measures(scale)
    assert np.array_equal(mu, space.prefix_weight[family.center, family.counts(scale)])
    assert family.measures(scale) is mu
    with pytest.raises(ValueError, match="read-only"):
        mu[:1] = 0.0


@PROPERTY
@given(small_spaces())
def test_nested_pairs_equal_brute_force_in_order(space):
    balls = [Ball(c, float(r)) for c in range(space.n) for r in space.candidate_radii(c)]
    masks = [space.dist[b.center] <= b.radius for b in balls]
    want = [(b1, b2) for i, b1 in enumerate(balls) for j, b2 in enumerate(balls)
            if b2.radius >= b1.radius and not np.any(masks[i] & ~masks[j])]
    b1, b2 = geometry.nested_pairs(space)
    assert [(balls[i], balls[j]) for i, j in zip(b1, b2)] == want


def _sampled_nested_pairs_reference(space, budget, seed, profile=None):
    """The draw loop of ``sampled_nested_pairs`` before its vectorised pass:
    swap, then one containment test per draw.  With a ``profile``, the loop
    the sharp maximal function ran before the sample was shared: a drawn pair
    whose balls are not both (6, beta_6)-doubling is dropped before its
    containment test."""
    rng = np.random.default_rng(seed)
    family = space.balls()
    sizes = np.diff(family.offsets).tolist()
    counts = family.counts()
    flags = None if profile is None else geometry.doubling_flags(space, profile, 6.0)
    pairs = []
    if space.n > 1:
        for _ in range(budget):
            c1, c2 = (int(v) for v in rng.choice(space.n, size=2, replace=False))
            b1 = int(family.offsets[c1] + rng.integers(sizes[c1]))
            b2 = int(family.offsets[c2] + rng.integers(sizes[c2]))
            if family.radius[b2] < family.radius[b1]:
                c1, c2, b1, b2 = c2, c1, b2, b1
            if flags is not None and not (flags[b1] and flags[b2]):
                continue
            members1 = space.order[c1][:counts[b1]]
            if not np.all(space.dist[c2][members1] <= family.radius[b2]):
                continue
            pairs.append((b1, b2))
    return tuple(np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T)


ONE_POINT = nl.build_space(points=[[0.0]], weights=[1.0])


@PROPERTY
@given(small_spaces(), st.sampled_from([0, 1, 2000]), st.integers(0, 2))
@example(ONE_POINT, 2000, 0)
def test_sampled_pairs_equal_draw_loop(space, budget, seed):
    sample = geometry.sampled_nested_pairs(space, budget, seed)
    inner, outer = _sampled_nested_pairs_reference(space, budget, seed)
    assert sample.b1.dtype == sample.b2.dtype == np.int64
    assert np.array_equal(sample.b1, inner) and np.array_equal(sample.b2, outer)


def _sampled_nested_pairs_unfiltered(space, budget, seed):
    """The vectorised pass of ``sampled_nested_pairs`` before its prefilter:
    every draw reaches the containment gather."""
    family = space.balls()
    sizes = np.diff(family.offsets)

    def step(draw):
        c1, c2 = geometry.replay_choice(draw, space.n, 2).T
        return c1, c2, draw(sizes[c1]), draw(sizes[c2])
    c1, c2, i1, i2 = geometry.replay_draws(seed, budget if space.n > 1 else 0, 5, step)
    b1, b2 = family.offsets[c1] + i1, family.offsets[c2] + i2
    swap = family.radius[b2] < family.radius[b1]
    c1, c2 = np.where(swap, c2, c1), np.where(swap, c1, c2)
    b1, b2 = np.where(swap, b2, b1), np.where(swap, b1, b2)
    counts = family.counts()[b1]
    nested = np.empty(b1.shape, dtype=bool)
    step = max(1, (1 << 20) // (8 * space.n))
    for lo in range(0, b1.size, step):
        s = slice(lo, lo + step)
        farthest = np.maximum.accumulate(space.dist[c2[s, None], space.order[c1[s]]], axis=1)
        nested[s] = farthest[np.arange(farthest.shape[0]), counts[s] - 1] <= family.radius[b2[s]]
    return b1[nested], b2[nested]


#: Coincident atoms: ``order[c, 0]`` is another point for c = 1 and c = 3.
COINCIDENT = nl.build_space(points=[[0.0], [0.0], [1.0], [1.0], [3.0]], weights=np.arange(1.0, 6.0))


@PROPERTY
@given(st.one_of(small_spaces(), small_spaces(coincident=True)), st.sampled_from([0, 1, 2000]),
       st.integers(0, 2))
@example(COINCIDENT, 2000, 0)
def test_prefiltered_sample_equals_unfiltered_pass(space, budget, seed):
    inner, outer = _sampled_nested_pairs_unfiltered(space, budget, seed)
    sample = geometry.sampled_nested_pairs(space, budget, seed)
    assert np.array_equal(sample.b1, inner) and np.array_equal(sample.b2, outer)


@PROPERTY
@given(small_spaces(), st.sampled_from([PROFILE, nl.GeometryProfile(N0=1, nu=0.0)]),
       st.sampled_from([0, 300, 2000]), st.integers(0, 2))
def test_shared_sample_filtered_by_doubling_equals_doubling_draw_loop(space, profile, budget, seed):
    """One sample per (space, budget, seed): filtered by the doubling flags,
    it is the sample the doubling draw loop gave, pair for pair and in order."""
    sample = geometry.sampled_nested_pairs(space, budget, seed)
    assert geometry.sampled_nested_pairs(space, budget, seed) is sample
    flags = geometry.doubling_flags(space, profile, 6.0)
    doubling = flags[sample.b1] & flags[sample.b2]
    inner, outer = _sampled_nested_pairs_reference(space, budget, seed, profile)
    assert np.array_equal(sample.b1[doubling], inner)
    assert np.array_equal(sample.b2[doubling], outer)


def test_one_sample_signature_and_one_size_rule():
    """The sample takes no function, carries no coefficient, and the branch
    choice is the ``geometry`` constant, read at call time."""
    assert list(inspect.signature(geometry.sampled_nested_pairs).parameters) == ["space", "budget", "seed"]
    assert [f.name for f in dataclasses.fields(geometry.NestedPairSample)] == ["b1", "b2"]
    for fn in (spaces.campanato_norm, spaces.campanato_norm_multi, spaces.validate_phi_gdec,
               operators.sharp_maximal):
        assert "exhaustive_limit" not in inspect.signature(fn).parameters, fn
    space = nl.build_space(points=[[0.0], [1.0], [3.0]], weights=np.ones(3))
    assert geometry.pairs_are_exhaustive(space)
    with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", len(space.balls()) ** 2 - 1):
        assert not geometry.pairs_are_exhaustive(space)


def test_pair_source_is_every_nested_pair_up_to_the_limit_and_the_sample_above():
    # ten scattered points give 180 candidate balls, so the sample is drawn by default
    space = nl.build_space(points=np.random.default_rng(1).uniform(0.0, 1.0, (10, 1)),
                           weights=np.ones(10))
    size = len(space.balls()) ** 2
    sample = geometry.sampled_nested_pairs(space, 2000, 0)
    assert 0 < len(sample) < nested_pairs(space)[0].size
    for limit, want in ((size, nested_pairs(space)), (size - 1, (sample.b1, sample.b2))):
        with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", limit):
            got = geometry.pair_source(space, 2000, 0)
        assert len(got) == 2 and all(np.array_equal(g, w) for g, w in zip(got, want))


# ------------------------------------------------------------------------------
# Per-center reference loops
# ------------------------------------------------------------------------------
def _per_center_sup(space, table):
    """The loop every supremum ran before the family: ``table(c, radii)``
    gives one value per candidate ball of c; strict improvements only."""
    best, witness = 0.0, {}
    for c in range(space.n):
        radii = space.candidate_radii(c)
        vals = table(c, radii)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best, witness = float(vals[j]), {"center": c, "radius": float(radii[j])}
    return best, witness


def _mu(space, c, radii):
    return space.prefix_weight[c][space.counts(c, radii)]


def _scatter_reference(space, per_center):
    out = np.full(space.n, -math.inf)
    ranks = np.arange(1, space.n + 1)
    for c in range(space.n):
        counts = space.counts(c, space.candidate_radii(c))
        suffix = np.maximum.accumulate(np.asarray(per_center(c), dtype=float)[::-1])[::-1]
        first = np.searchsorted(counts, ranks, side="left")
        covered = first < counts.size
        members = space.order[c][covered]
        out[members] = np.maximum(out[members], suffix[first[covered]])
    return out


@PROPERTY
@given(spaces_and_functions(), st.sampled_from([1.0, 2.0, 3.5]), st.sampled_from([1.5, 2.0, 6.0]))
def test_morrey_and_oscillation_norms_equal_per_center_loops(data, p, tau):
    space, f = data
    phi = spaces.shifted_power_phi(1.0)
    psi = weight_psi(space)
    power = space.prefix_of(np.abs(f) ** p * space.weights)
    want = _per_center_sup(space, lambda c, radii: (
        power[c][space.counts(c, radii)] / (phi.table(c, radii) * _mu(space, c, tau * radii))) ** (1.0 / p))
    assert spaces.morrey_norm(space, f, p, phi, tau, with_witness=True) == want

    if p > 1:
        sums = spaces.oscillation_sums(space, f, p)
        want = _per_center_sup(space, lambda c, radii: (
            sums[c][space.counts(c, radii) - 1] / _mu(space, c, tau * radii)) ** (1.0 / p)
            / psi.table(c, radii))
        assert spaces.p_oscillation_norm(space, f, psi, p, tau, with_witness=True) == want

    sums = spaces.oscillation_sums(space, f)
    want = _per_center_sup(space, lambda c, radii: (
        sums[c][space.counts(c, radii) - 1] / (psi.table(c, radii) * _mu(space, c, tau * radii))))
    with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", 0):
        report = spaces.campanato_norm(space, _lam(space), f, psi, tau, pair_budget=50)
    assert (report.oscillation_sup, report.oscillation_witness) == want


@PROPERTY
@given(spaces_and_functions(), st.sampled_from([5.0, 6.0]))
def test_maximal_operators_equal_per_center_loops(data, tau):
    space, f = data
    psi = weight_psi(space)
    phi = spaces.power_phi(0.5)
    power = space.prefix_of(np.abs(f) ** 2.0 * space.weights)

    def p_mean(c):
        radii = space.candidate_radii(c)
        return (power[c][space.counts(c, radii)] / _mu(space, c, tau * radii)) ** 0.5

    assert np.array_equal(operators.maximal_p_tau(space, f, 2.0, tau),
                          _scatter_reference(space, p_mean))
    assert np.array_equal(operators.maximal_psi_p_tau(space, psi, f, 2.0, tau),
                          _scatter_reference(space, lambda c: psi.table(c, space.candidate_radii(c)) * p_mean(c)))

    profile = PROFILE
    beta = profile.beta(6.0)
    absf = space.prefix_of(np.abs(f) * space.weights)

    def doubling_mean(c):
        radii = space.candidate_radii(c)
        qs = space.counts(c, radii)
        flags = _mu(space, c, 6.0 * radii) <= beta * _mu(space, c, radii)
        return np.where(flags, absf[c][qs] / space.prefix_weight[c][qs], -math.inf)

    assert np.array_equal(operators.doubling_maximal(space, profile, f),
                          _scatter_reference(space, doubling_mean))

    want = max(float(np.max(psi.table(c, r) * phi.table(c, r) ** (1.0 / 2.0 - 1.0 / 3.0)))
               for c, r in ((c, space.candidate_radii(c)) for c in range(space.n)))
    assert operators.maximal_embedding_constant(space, psi, phi, 2.0, 3.0) == want


def _scatter_sup_reference(space, values):
    """``operators._scatter_sup`` with its ``np.maximum.at`` scatter into an
    n x n table indexed by (center, member count - 1)."""
    family = space.balls()
    n = space.n
    by_count = np.full((n, n), -math.inf)
    np.maximum.at(by_count, (family.center, family.counts() - 1), values)
    by_rank = np.maximum.accumulate(by_count[:, ::-1], axis=1)[:, ::-1]
    by_point = np.empty((n, n))
    np.put_along_axis(by_point, space.order, by_rank, axis=1)
    return by_point.max(axis=0)


def _scatter_sup_brute_force(space, values):
    """For each point x, the largest ``values[b]`` over the balls b with
    dist(center[b], x) <= radius[b], found by membership.  The balls are
    visited by center, then from the most members down, then by index;
    np.maximum keeps the later of two equal values, so a tie of 0.0 and -0.0
    resolves as in the scatter, and a NaN propagates."""
    family = space.balls()
    covers = space.dist[family.center] <= family.radius[:, None]
    out = np.full(space.n, -math.inf)
    for b in np.lexsort((np.arange(len(family)), -covers.sum(axis=1), family.center)):
        out[covers[b]] = np.maximum(out[covers[b]], values[b])
    return out


@PROPERTY
@given(st.data())
def test_scatter_sup_equals_maximum_at(data):
    space = data.draw(st.one_of(small_spaces(), small_spaces(coincident=True)))
    size = len(space.balls())
    value = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-math.inf, math.nan, 0.0, -0.0]))
    values = np.asarray(data.draw(st.lists(value, min_size=size, max_size=size)), dtype=float)
    got = operators._scatter_sup(space, values)
    assert got.tobytes() == _scatter_sup_reference(space, values).tobytes()
    assert got.tobytes() == _scatter_sup_brute_force(space, values).tobytes()


def test_scatter_sup_follows_membership_where_radii_merge():
    """For points [0, 1, 1 + 1e-13] the radii 1 and 1 + 1e-13 of center 0
    merge, so no ball of center 0 covers point 2."""
    space = nl.build_space(points=[[0.0], [1.0], [1.0 + 1e-13]], weights=[1.0, 2.0, 3.0])
    family = space.balls()
    assert family.counts()[family.segment(0)].tolist() == [1, 2]
    rng = np.random.default_rng(7)
    specials = np.array([-math.inf, math.nan, 0.0, -0.0])
    for _ in range(200):
        values = np.where(rng.random(len(family)) < 0.3,
                          rng.choice(specials, len(family)), rng.uniform(-1.0, 1.0, len(family)))
        got = operators._scatter_sup(space, values)
        assert got.tobytes() == _scatter_sup_brute_force(space, values).tobytes()


def _sharp_maximal_reference(space, lam, profile, f, pairs):
    """``sharp_maximal``'s ladder branch as per-center loops, with the sampled
    ``pairs`` (inner and outer index arrays) scattered one pair at a time onto
    the members of the inner ball, in ascending order of their ratio."""
    osc = spaces.oscillation_sums(space, f)
    pf = space.prefix_of(f * space.weights)
    pw = space.prefix_weight
    tables = geometry.coefficient_tables(space, lam, 6.0)
    beta = profile.beta(6.0)

    def flags(c, radii):
        return _mu(space, c, 6.0 * radii) <= beta * _mu(space, c, radii)

    def osc_vals(c):
        radii = space.candidate_radii(c)
        return osc[c][space.counts(c, radii) - 1] / _mu(space, c, 6.0 * radii)

    def pair_vals(c):
        radii = space.candidate_radii(c)
        qs = space.counts(c, radii)
        fm = pf[c][qs] / pw[c][qs]
        s = space.balls().segment(c)
        coeff = tables.concentric(np.arange(s.start, s.stop)[:, None], tables.pair_scale_indices(c))
        v = np.abs(fm[:, None] - fm[None, :]) / coeff
        ok = (radii[None, :] >= radii[:, None]) & flags(c, radii)[None, :] & flags(c, radii)[:, None]
        return np.where(ok, v, -math.inf).max(axis=1)

    pair_part = np.maximum(_scatter_reference(space, pair_vals), 0.0)
    family = space.balls()
    counts = family.counts()
    means = pf[family.center, counts] / pw[family.center, counts]
    inner, outer = pairs
    ratio = np.abs(means[inner] - means[outer]) / tables.pairs(inner, outer)
    for t in np.argsort(ratio):
        b1 = inner[t]
        members = space.order[family.center[b1]][: counts[b1]]
        pair_part[members] = np.maximum(pair_part[members], ratio[t])
    return np.maximum(_scatter_reference(space, osc_vals), pair_part)


@PROPERTY
@given(spaces_and_functions())
def test_sharp_maximal_ladder_equals_per_center_loop(data):
    space, f = data
    lam = _lam(space)
    no_pairs = _sampled_nested_pairs_reference(space, 0, 0, PROFILE)
    want = _sharp_maximal_reference(space, lam, PROFILE, f, no_pairs)
    with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", 0):
        got = operators.sharp_maximal(space, lam, PROFILE, f, pair_budget=0)
    assert np.array_equal(got, want)


@PROPERTY
@given(spaces_and_functions(), st.sampled_from([300, 2000]))
def test_sharp_maximal_sampled_pairs_equal_per_pair_loop(data, budget):
    space, f = data
    lam = _lam(space)
    pairs = _sampled_nested_pairs_reference(space, budget, 0, PROFILE)
    want = _sharp_maximal_reference(space, lam, PROFILE, f, pairs)
    with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", 0):
        got = operators.sharp_maximal(space, lam, PROFILE, f, pair_budget=budget)
    assert np.array_equal(got, want)


# ------------------------------------------------------------------------------
# The coefficient: primitive, table and the ladders over it
# ------------------------------------------------------------------------------
TAUS = st.sampled_from([1.5, 2.0, 3.0, 6.0])


@PROPERTY
@given(st.data(), TAUS)
def test_discrete_coefficient_equals_table(data, tau):
    space = data.draw(small_spaces())
    lam = data.draw(st.one_of(st.just(_lam(space)), power_lambdas(space.n)))
    family = space.balls()
    tables = geometry.coefficient_tables(space, lam, tau)

    def primitive(i, j):
        return nl.discrete_coefficient(space, lam, Ball(**family.ball(i)), Ball(**family.ball(j)), tau)

    # every nested candidate pair, concentric or not
    for i, j in zip(*geometry.nested_pairs(space)):
        value = primitive(i, j)
        assert value.value == tables.concentric(i, value.N)
    sample = geometry.sampled_nested_pairs(space, 60, 1)
    assert np.array_equal(tables.pairs(sample.b1, sample.b2),
                          [primitive(i, j).value for i, j in zip(sample.b1, sample.b2)])


def _dense_ladder(space, tau):
    """The ladder as it was stored before each ball kept only its own levels:
    ``(k_floor, scales, counts)`` with the member counts of every ball at every
    scale tau**k, k = -k_floor .. 4 past the scale index from the smallest
    radius to the larger of the largest radius and the diameter, and at least
    the scale index of every 6-fold enlargement."""
    family = space.balls()
    top = int(geometry.scale_index_array(tau, family.radius.min(),
                                         max(float(family.radius.max()), space.diameter))) + 4
    top = max(top, int(geometry.scale_index_array(tau, family.radius, 6.0 * family.radius).max()))
    k_floor = nl.mmspace.floor_log(tau)
    scales = tau ** np.arange(-k_floor, top + 1)
    return k_floor, scales, family.counts_of(family.radius[:, None] * scales)


def _dense_cumulative(space, lam, tau):
    """The B x K coefficient table it replaced: the row-wise running sum of
    mu(tau**k B) / lam(tau**k B) along :func:`_dense_ladder`."""
    family = space.balls()
    _, scales, counts = _dense_ladder(space, tau)
    terms = space.prefix_weight[family.center[:, None], counts]
    terms /= lam.table(family.center[:, None], family.radius[:, None] * scales)
    return np.cumsum(terms, axis=1, out=terms)


def _campanato_ladder_reference(space, lam, f, psi, tau, gamma):
    """The per-center concentric ladder ``campanato_norm_multi`` ran before
    it was flat: strict improvements in (center, k, radius) order."""
    family = space.balls()
    cumulative = _dense_cumulative(space, lam, tau)
    k_floor, scales, _ = _dense_ladder(space, tau)
    pf, pw = space.prefix_of(f * space.weights), space.prefix_weight
    reg, witness = 0.0, {}
    for c, s in _segments(space):
        radii = family.radius[s]
        qs = space.counts(c, radii)
        means = pf[c][qs] / pw[c][qs]
        sat = geometry.scale_index_array(tau, radii, max(space.diameter, float(radii[0])))
        for k in range(1, int(sat.max()) + 2):
            outer_r = scales[k + k_floor] * radii
            q_out = space.counts(c, outer_r)
            coeff = 1.0 + cumulative[s, k + k_floor]
            vals = np.abs(means - pf[c][q_out] / pw[c][q_out]) / (psi.table(c, radii) * coeff ** gamma)
            vals[k > sat + 1] = -np.inf
            j = int(np.argmax(vals))
            if vals[j] > reg:
                reg = float(vals[j])
                witness = {"inner": {"center": c, "radius": float(radii[j])},
                           "outer": {"center": c, "radius": float(outer_r[j])}}
    return reg, witness


def _mean_jump_reference(space, f, psi, k_values, norm):
    """The per-center mean-jump ladder of ``check_mean_jump_bounds``: every
    ball of a center runs to one step past the center's deepest saturation."""
    family = space.balls()
    pf, pw = space.prefix_of(f * space.weights), space.prefix_weight
    per_k, iterated = {}, 0.0
    for k in k_values:
        ladder = family.ladder(k)
        best = 0.0
        for c, s in _segments(space):
            radii = family.radius[s]
            qs = space.counts(c, radii)
            sat = geometry.scale_index_array(k, radii, max(space.diameter, float(radii[0])))
            for j in range(1, int(sat.max()) + 2):
                q_out = space.counts(c, ladder.scales[j + ladder.k_floor] * radii)
                jumps = np.abs(pf[c][q_out] / pw[c][q_out] - pf[c][qs] / pw[c][qs]) \
                    / (psi.table(c, radii) * norm)
                if j == 1:
                    best = max(best, float(jumps.max()))
                iterated = max(iterated, float(jumps.max()) / j)
        per_k[str(k)] = best
    return per_k, iterated


def _tree(parents, f):
    space = nl.build_space(distances=_graph_metric(len(f), parents, []), weights=np.ones(len(f)))
    return space, np.asarray(f, dtype=float)


@PROPERTY
@given(spaces_and_functions(), TAUS, st.sampled_from([1.0, 2.0]), st.sampled_from([0.0, 1.0]))
# trees on which the ladder maximum ties between balls of the first center:
# at different k, and at one k
@example(_tree([(0, 1), (0, 3), (2, 1), (2, 4)], [1, 1, -1, 0, 1]), 1.5, 1.0, 0.0)
@example(_tree([(0, 3), (1, 4), (0, 3)], [1, -1, 0, 1]), 6.0, 1.0, 0.0)
def test_campanato_and_mean_jump_ladders_equal_per_center_loops(data, tau, gamma, kappa):
    space, f = data
    # a constant lambda (kappa = 0) gives equal coefficients to balls with equal
    # member counts along their ladders, so values tie and the witness order counts
    try:
        lam = nl.fit_power_lambda(space, kappa)
    except nl.errors.DegenerateRadii:
        reject()
    psi = weight_psi(space)
    with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", 0):
        report = spaces.campanato_norm(space, lam, f, psi, tau, gamma, pair_budget=0)
    assert (report.regularity_sup, report.regularity_witness) == \
        _campanato_ladder_reference(space, lam, f, psi, tau, gamma)
    g = np.round(f)
    with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", 0):
        report = spaces.campanato_norm(space, lam, g, psi, tau, gamma, pair_budget=0)
    assert (report.regularity_sup, report.regularity_witness) == \
        _campanato_ladder_reference(space, lam, g, psi, tau, gamma)

    k_values = (tau, 6.0)
    report = spaces.check_mean_jump_bounds(space, lam, f, psi, k_values, pair_budget=0, norm=0.5)
    assert (report.details["per_k"], report.details["iterated"]) == \
        _mean_jump_reference(space, f, psi, k_values, 0.5)


def _medium_graph_space():
    """A 40-point shortest-path metric: a random spanning tree plus 40 random
    edges of lengths 1 to 4, with log-uniform weights."""
    rng = np.random.default_rng(5)
    n = 40
    parents = [(int(rng.integers(i)), int(rng.integers(1, 5))) for i in range(1, n)]
    extra = [tuple(int(v) for v in rng.integers(0, n, 2)) + (int(rng.integers(1, 5)),)
             for _ in range(n)]
    return nl.build_space(distances=_graph_metric(n, parents, extra),
                          weights=np.exp(rng.uniform(math.log(1e-3), 0.0, n)))


@pytest.mark.parametrize("make_space", [
    lambda: lab.generate_space({"kind": "grid", "d": 1, "n": 64}), _medium_graph_space,
], ids=["grid64", "graph40"])
def test_ladders_and_sharp_maximal_equal_per_center_loops_on_medium_spaces(make_space):
    # the property spaces have n <= 10, so their segments are short and the
    # windows of sharp_maximal take at most 4 powers of two
    space = make_space()
    assert space.balls().windows(6.0)[0] > 4
    lam, psi = _lam(space), weight_psi(space)
    f = np.random.default_rng(space.n).uniform(-1.0, 1.0, space.n)
    with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", 0):
        for tau, gamma in spaces.NORM_COMBOS:
            report = spaces.campanato_norm(space, lam, f, psi, tau, gamma, pair_budget=0)
            assert (report.regularity_sup, report.regularity_witness) == \
                _campanato_ladder_reference(space, lam, f, psi, tau, gamma)
        report = spaces.check_mean_jump_bounds(space, lam, f, psi, (2.0, 6.0), pair_budget=0, norm=0.5)
        assert (report.details["per_k"], report.details["iterated"]) == \
            _mean_jump_reference(space, f, psi, (2.0, 6.0), 0.5)
        for budget in (0, 300):
            pairs = _sampled_nested_pairs_reference(space, budget, 0, PROFILE)
            got = operators.sharp_maximal(space, lam, PROFILE, f, pair_budget=budget)
            assert np.array_equal(got, _sharp_maximal_reference(space, lam, PROFILE, f, pairs))


def test_marcinkiewicz_equals_per_point_loop_across_row_blocks():
    # the property spaces fit in one block of rows; 300 points take three blocks
    # of _COVER_BLOCK // 300 = 109 rows, so the values meet at two seams
    space = lab.generate_space({"kind": "grid", "d": 1, "n": 300})
    assert -(-space.n // (mmspace._COVER_BLOCK // space.n)) == 3
    kernel = operators.make_kernel(space, _lam(space), family="perturbed", seed=1)
    rng = np.random.default_rng(300)
    f, b = rng.uniform(-1.0, 1.0, (2, space.n))
    f[::7] = 0.0
    for params in (OperatorParams(), OperatorParams(l=0.2, rho=0.7, s=3.0)):
        for weight in (None, b):
            got = operators._marcinkiewicz(space, kernel, f, None, params, weight)
            want = _marcinkiewicz_reference(space, kernel, f, None, params, weight)
            assert np.array_equal(got, want, equal_nan=True)


def _doubling_indices_reference(space, profile, alpha):
    """The scale loop ``doubling_indices`` ran before it read the ladder."""
    family = space.balls()
    k_floor, scales, _ = _dense_ladder(space, alpha)
    r0 = float(family.radius.min())
    depth = int(nl.mmspace.scale_index_array(alpha, r0, max(space.diameter, r0))) + 4
    idx = np.full(len(family), -1)
    mu = family.measures()
    for i in range(depth - 1):
        scale = scales[i + 1 + k_floor]
        mu_next = space.prefix_weight[family.center, family.counts_of(family.radius * scale)]
        idx[(idx < 0) & (mu_next <= profile.beta(alpha) * mu)] = i
        mu = mu_next
    return idx


@PROPERTY
@given(small_spaces(), TAUS)
def test_doubling_indices_and_coefficient_bound_equal_per_center_loops(space, alpha):
    lam = _lam(space)
    idx = geometry.doubling_indices(space, PROFILE, alpha)
    assert np.array_equal(idx, _doubling_indices_reference(space, PROFILE, alpha))

    tables = geometry.coefficient_tables(space, lam, alpha)
    worst, witness = -math.inf, {}
    for c, s in _segments(space):
        vals = tables.concentric(np.arange(s.start, s.stop), idx[s])
        j = int(np.argmax(vals))
        if vals[j] > worst:
            worst = float(vals[j])
            witness = {"center": c, "radius": float(space.candidate_radii(c)[j]),
                       "doubling_exponent": int(idx[s][j])}
    report = nl.check_doubling_coefficient_bound(space, lam, PROFILE, alpha)
    assert (report.value, report.worst_witness) == (worst, witness)


# ------------------------------------------------------------------------------
# Validators
# ------------------------------------------------------------------------------
def _least_factor_reference(num, den):
    """The least C >= 0 with num <= C * den, one pair at a time."""
    out = np.empty(num.size)
    for i, (a, b) in enumerate(zip(num.tolist(), den.tolist())):
        if a == b and (a == 0.0 or math.isinf(a)):
            out[i] = 0.0
        elif b == 0.0:
            out[i] = math.inf
        else:
            out[i] = a / b
    return out


def _upper_doubling_reference(space, lam, rel_tol=nl.mmspace.DEFAULT_REL_TOL):
    """The per-center validator loop: a kind's witness is (re)written each
    time that kind's running worst strictly grows past its bound."""
    worst = [-math.inf, -math.inf, -math.inf]
    witness, kinds = {}, []
    for c in range(space.n):
        radii = space.candidate_radii(c)
        vals = lam.table(c, radii)
        mus = _mu(space, c, radii)
        ratios = [_least_factor_reference(mus, vals),
                  _least_factor_reference(vals, lam.table(c, radii / 2.0)),
                  _least_factor_reference(vals[:-1], vals[1:])]
        bounds = [1.0 + rel_tol, lam.c_lambda * (1.0 + rel_tol), 1.0 + rel_tol]
        for kind, (ratio, bound) in enumerate(zip(ratios, bounds)):
            if not ratio.size:
                continue
            j = int(np.argmax(ratio))
            if ratio[j] > worst[kind]:
                worst[kind] = float(ratio[j])
                if ratio[j] > bound:
                    kinds.append((c, kind))
                    witness = {"center": c, "radius": float(radii[j])}
                    if kind == 0:
                        witness.update(kind="domination", mu=float(mus[j]), **{"lambda": float(vals[j])})
                    elif kind == 1:
                        witness.update(kind="half_radius", ratio=float(ratio[j]), c_lambda=lam.c_lambda)
                    else:
                        witness.update(kind="monotonicity", next_radius=float(radii[j + 1]))
    return worst, witness, kinds


@PROPERTY
@given(st.data())
def test_upper_doubling_equals_per_center_loop(data):
    space = data.draw(small_spaces())
    lam = data.draw(power_lambdas(space.n))
    report = nl.validate_upper_doubling(space, lam)
    worst, witness, kinds = _upper_doubling_reference(space, lam)
    assert report.details["worst_domination_ratio"] == worst[0]
    assert report.details["worst_half_radius_ratio"] == worst[1]
    assert report.details["required_c_lambda"] == max(1.0, worst[1])
    assert report.value == max(worst[0], worst[1] / lam.c_lambda)
    assert report.worst_witness == witness
    assert report.passed == (not kinds)
    if kinds:
        # each failing kind's last write is at the first ball attaining its
        # worst, so the report names the latest (center, kind) among them
        last = {kind: c for c, kind in kinds}
        c, kind = max((c, kind) for kind, c in last.items())
        assert (witness["center"], witness["kind"]) == \
            (c, ("domination", "half_radius", "monotonicity")[kind])


def test_upper_doubling_ratios_where_lambda_underflows():
    # r ** 3 underflows to 0 on every ball of a space of diameter 3e-150:
    # domination fails (mu > 0 = lambda), while lambda(r) <= C * lambda(r / 2)
    # and monotonicity hold as 0 <= 0, whose least factor is 0, not 0 / 0
    space = nl.build_space(points=[[0.0], [1e-150], [3e-150]], weights=[1.0, 2.0, 3.0])
    lam = nl.DominatingFunction(lambda c, r: r ** 3, c_lambda=8.0)
    assert not np.any(space.fn_table(lam))
    report = nl.validate_upper_doubling(space, lam)
    assert not report.passed and report.worst_witness["kind"] == "domination"
    assert report.details["worst_domination_ratio"] == math.inf
    assert report.details["worst_half_radius_ratio"] == 0.0
    assert report.details["required_c_lambda"] == 1.0
    assert _upper_doubling_reference(space, lam)[0] == [math.inf, 0.0, 0.0]


@PROPERTY
@given(small_spaces())
def test_monotonicity_never_compares_two_centers(space):
    # increasing in r at every center, but dropping from one center to the next
    scale = 2.0 * space.total_measure * space.n
    lam = nl.DominatingFunction(lambda c, r: scale * (space.n - c) * (1.0 + r), c_lambda=2.0)
    report = nl.validate_upper_doubling(space, lam)
    assert report.passed, report.worst_witness


@PROPERTY
@given(small_spaces())
def test_fit_and_doubling_indices_equal_per_center_loops(space):
    lam = _lam(space)
    want = max(float(np.max(_mu(space, c, r) / r)) for c, r in
               ((c, space.candidate_radii(c)) for c in range(space.n)))
    assert lam(0, 1.0) == want

    profile = PROFILE
    beta = profile.beta(2.0)
    flags = geometry.doubling_flags(space, profile, 2.0)
    idx = geometry.doubling_indices(space, profile, 2.0)
    for c, s in _segments(space):
        radii = space.candidate_radii(c)
        assert np.array_equal(flags[s], _mu(space, c, 2.0 * radii) <= beta * _mu(space, c, radii))
        i = np.zeros(radii.size, dtype=int)
        while True:
            grow = ~(_mu(space, c, 2.0 ** (i + 1) * radii) <= beta * _mu(space, c, 2.0 ** i * radii))
            if not grow.any():
                break
            i += grow
        assert np.array_equal(idx[s], i)
    best = _per_center_sup(space, lambda c, r: idx[_segments(space)[c][1]] + 1.0)
    report = nl.validate_weak_doubling(space, lam, profile, 2.0)
    assert (report.value + 1.0, report.worst_witness) == best


@PROPERTY
@given(small_spaces())
def test_psi_and_phi_validators_equal_per_center_loops(space):
    psi = weight_psi(space)
    worst, witness = 1.0, {}
    for c in range(space.n):
        radii = space.candidate_radii(c)
        ratios = psi.table(c, 2.0 * radii) / psi.table(c, radii)
        j = int(np.argmax(ratios))
        if ratios[j] > worst:
            worst, witness = float(ratios[j]), {"kind": "doubling", "center": c, "radius": float(radii[j])}
    if space.n > 1:
        union = space.radius_union()
        table = np.stack([psi.table(c, union) for c in range(space.n)])
        for k, r in enumerate(union):
            admissible = (space.dist <= r) & ~np.eye(space.n, dtype=bool)
            ratio = np.where(admissible, table[:, k][:, None] / table[:, k][None, :], 0.0)
            x, y = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
            if admissible.any() and ratio[x, y] > worst:
                worst = float(ratio[x, y])
                witness = {"kind": "comparability", "x": int(x), "y": int(y), "radius": float(r)}
    report = nl.validate_psi(space, psi)
    assert (report.value, report.worst_witness) == (worst, witness)

    phi = spaces.shifted_power_phi(0.5)
    balls = [Ball(c, float(r)) for c in range(space.n) for r in space.candidate_radii(c)]
    masks = [space.dist[b.center] <= b.radius for b in balls]
    values = np.concatenate([phi.table(c, space.candidate_radii(c)) for c in range(space.n)])
    mu = np.asarray([_mu(space, b.center, 2.0 * b.radius) for b in balls])
    inner, outer = np.asarray([(i, j) for i, b1 in enumerate(balls) for j, b2 in enumerate(balls)
                               if b2.radius >= b1.radius and not np.any(masks[i] & ~masks[j])]).T
    p1, p2, mu1, mu2 = values[inner], values[outer], mu[inner], mu[outer]
    want = [float(np.min((p1 * mu1 ** 0.5) / (p2 * mu2 ** 0.5))), float(np.max((p1 * mu1) / (p2 * mu2)))]
    with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", 10 ** 6):
        report = nl.validate_phi_gdec(space, phi, etas=(2.0,))
    assert report.details["eta_constants"]["2.0"] == want


# ------------------------------------------------------------------------------
# Geometric doubling
# ------------------------------------------------------------------------------
def _per_ball_doubling(space):
    """The greedy ``estimate_geometric_doubling`` ran before it was batched:
    one farthest-point traversal per candidate ball, on a copy of the ball's
    distance submatrix, starting at the center, ties to the lowest index."""
    best = 1
    for c in range(space.n):
        row = space.dist[c]
        for r in space.candidate_radii(c):
            members = np.nonzero(row <= r)[0]
            if members.size <= best:
                continue
            sub = space.dist[np.ix_(members, members)]
            mind = sub[int(np.searchsorted(members, c))].copy()
            count = 1
            while True:
                far = int(np.argmax(mind))
                if mind[far] <= r / 2.0:
                    break
                count += 1
                np.minimum(mind, sub[far], out=mind)
            best = max(best, count)
    return best


# A graph metric on which the farthest-point ties decide the greedy: ties to
# the lowest index give 4 balls, ties to the highest 3 (the least cover is 3).
# Random draws rarely hit one: a few in a thousand small graph metrics.
TIE_SENSITIVE = nl.build_space(distances=[[0, 3, 5, 1, 2], [3, 0, 2, 3, 2], [5, 2, 0, 5, 4],
                                          [1, 3, 5, 0, 1], [2, 2, 4, 1, 0]], weights=np.ones(5))


def _batched_doubling(space):
    """The batched greedy ``estimate_geometric_doubling`` ran before it
    skipped rows and ran blocks of rows across centers: one farthest-point
    step per round over every candidate radius of a center, until none of
    them has a member beyond its r/2."""
    family = space.balls()
    best = 1
    for c in range(space.n):
        r = family.radius[family.segment(c)]
        row = space.dist[c]
        mind = np.where(row <= r[:, None], row, -np.inf)
        half, rows = r / 2.0, np.arange(r.size)
        count = 1
        while True:
            far = np.argmax(mind, axis=1)
            if not np.any(mind[rows, far] > half):
                break
            count += 1
            np.minimum(mind, space.dist[far], out=mind)
        best = max(best, count)
    return best


@PROPERTY
@given(st.one_of(small_spaces(), small_spaces(coincident=True)))
@example(TIE_SENSITIVE)
def test_doubling_count_skipping_rows_equals_batched_greedy(space):
    want = _batched_doubling(space)
    assert nl.estimate_geometric_doubling(space) == want
    # one row per block: blocks split centers and ``best`` prunes across them
    with mock.patch.object(mmspace, "_COVER_BLOCK", 1):
        assert nl.estimate_geometric_doubling(space) == want


@PROPERTY
@given(st.one_of(small_spaces(), small_spaces(coincident=True)))
@example(TIE_SENSITIVE)
def test_doubling_count_equals_per_ball_greedy(space):
    count = nl.estimate_geometric_doubling(space)
    assert count == _per_ball_doubling(space)
    with mock.patch.object(mmspace, "_COVER_BLOCK", 1):
        assert nl.estimate_geometric_doubling(space) == count
    if space.n <= 7:
        # a greedy cover is a cover, so it is no smaller than the least one
        assert count >= _exhaustive_doubling_count(space)


@pytest.mark.parametrize("generator, want", [({"kind": "grid", "d": 1, "n": 256}, 3),
                                             ({"kind": "grid", "d": 2, "n": 16}, 13)])
def test_doubling_count_in_many_blocks_equals_batched_greedy(generator, want):
    # 256 points: a block holds 128 rows, so the family spans many blocks
    space = lab.generate_space(generator)
    assert len(space.balls()) > mmspace._COVER_BLOCK // space.n
    assert nl.estimate_geometric_doubling(space) == _batched_doubling(space) == want


def test_doubling_count_peaks_in_its_blocks():
    # a buffer over the whole family would take about 1.2 GB at n = 512
    space = lab.generate_space({"kind": "grid", "d": 1, "n": 512})
    space.balls().counts()
    tracemalloc.start()
    try:
        assert nl.estimate_geometric_doubling(space) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20, peak


# ------------------------------------------------------------------------------
# Concentric runs per scale index
# ------------------------------------------------------------------------------
def _run_ends_reference(space, tau):
    """``ends[b, N]``, one past the last ball of b's segment with radius at
    most tau**N * radius[b], so the balls j >= b of pair scale index N are
    ``ends[b, N - 1]:ends[b, N]`` (from b for N = 0): the dense table the
    windows of ``sharp_maximal`` were built from before they kept only the
    non-empty runs.  Columns stop at the largest concentric pair's index."""
    family = space.balls()
    k_floor, scales, _ = _dense_ladder(space, tau)
    reach = family.radius[:, None] * scales[k_floor:]
    ends = np.empty(reach.shape, dtype=np.int32)
    for c in range(space.n):
        s = family.segment(c)
        ends[s] = s.start + np.searchsorted(family.radius[s], reach[s], side="right")
    np.maximum.accumulate(ends, axis=1, out=ends)
    grows = np.flatnonzero(np.any(ends[:, 1:] > ends[:, :-1], axis=0))
    return ends[:, : grows[-1] + 2 if grows.size else 1]


@PROPERTY
@given(st.one_of(small_spaces(), small_spaces(coincident=True)),
       st.sampled_from([1.5, 2.0, 3.0, 5.0, 6.0]))
@example(TIE_SENSITIVE, 1.5)
@example(TIE_SENSITIVE, 2.0)
@example(TIE_SENSITIVE, 3.0)
@example(TIE_SENSITIVE, 5.0)
@example(TIE_SENSITIVE, 6.0)
def test_run_ends_group_outer_balls_by_scale_index(space, tau):
    family = space.balls()
    ladder = family.ladder(tau)
    ends = _run_ends_reference(space, tau)
    assert np.all(np.diff(ends, axis=1) >= 0)
    tables = geometry.coefficient_tables(space, _lam(space), tau)
    top = 0
    for c, s in _segments(space):
        n_mat = tables.pair_scale_indices(c)
        top = max(top, int(n_mat.max()))
        for b in range(s.start, s.stop):
            for j in range(b, s.stop):
                n_idx = n_mat[b - s.start, j - s.start]
                start = b if n_idx == 0 else ends[b, n_idx - 1]
                assert start <= j < ends[b, n_idx]
    # no column past the largest scale index of a concentric pair
    assert ends.shape[1] == top + 1
    # run 0 of a ball is the ball itself, and has no window; every non-empty run
    # N >= 1 is one column of the windows, under its (k, N) with b in ladder level
    # N + k_floor; its two windows of 2**k balls cover the run exactly, and an
    # empty run has no column
    lo = np.hstack([np.arange(len(family))[:, None], ends[:, :-1]])
    assert np.array_equal(ends[:, 0], np.arange(len(family)) + 1)
    depth, offsets, idx = family.windows(tau)
    assert idx.dtype == np.int32 and offsets.shape == (depth, ends.shape[1] + 1)
    assert np.all(np.diff(offsets.ravel()) >= 0)
    assert np.array_equal(offsets.ravel()[[0, -1]], [0, idx.shape[1]])
    assert np.all(offsets[1:, 0] == offsets[:-1, -1]) and np.all(offsets[:, 0] == offsets[:, 1])
    seen = set()
    for k in range(depth):
        for n_idx in range(1, ends.shape[1]):
            b, c0, c1 = idx[:, offsets[k, n_idx]:offsets[k, n_idx + 1]].astype(np.int64)
            assert np.all(ladder.rank[b] < np.diff(ladder.offsets)[n_idx + ladder.k_floor])
            length = ends[b, n_idx] - lo[b, n_idx]
            assert np.all((1 << k) <= length) and np.all(length < (2 << k))
            assert np.array_equal(c0, lo[b, n_idx]) and np.array_equal(c1 + (1 << k), ends[b, n_idx])
            seen.update((int(ball), n_idx) for ball in b)
    assert len(seen) == idx.shape[1]
    assert seen == {(int(b), int(n) + 1) for b, n in zip(*np.nonzero(ends[:, 1:] > lo[:, 1:]))}
    # the ladder's scales give the products scale_index_array tests, bit for bit
    n = np.arange(-ladder.k_floor, ladder.scales.size - ladder.k_floor)
    r = family.radius[:, None]
    assert (ladder.scales[n + ladder.k_floor] * r).tobytes() == (tau ** n * r).tobytes()


LEVEL_TAUS = [1.1, 2.0, 3.0, 6.0]


@PROPERTY
@given(st.one_of(small_spaces(), small_spaces(coincident=True)), st.sampled_from(LEVEL_TAUS))
@example(ONE_POINT, 1.1)
@example(ONE_POINT, 6.0)
@example(TIE_SENSITIVE, 1.1)
@example(TIE_SENSITIVE, 2.0)
@example(TIE_SENSITIVE, 3.0)
@example(TIE_SENSITIVE, 6.0)
def test_ladder_levels_equal_the_dense_oracle_and_every_reader_stays_inside(space, tau):
    """Ball b keeps the levels up to K_b = max(sat[b] + 1, the 6-fold scale
    index): every stored count and coefficient sum has the bytes of the dense
    tables, a read past K_b raises, and every reader runs within the levels."""
    family, lam = space.balls(), _lam(space)
    ladder, tables = family.ladder(tau), coefficient_tables(space, lam, tau)
    k_floor, scales, counts = _dense_ladder(space, tau)
    cumulative = _dense_cumulative(space, lam, tau)
    sat = geometry.scale_index_array(tau, family.radius, space.diameter)
    last = np.maximum(sat + 1, geometry.scale_index_array(tau, family.radius, 6.0 * family.radius))
    assert ladder.k_floor == k_floor and np.array_equal(ladder.sat, sat)
    assert ladder.scales.tobytes() == scales[:int(last.max()) + k_floor + 1].tobytes()
    assert np.array_equal(ladder.order, np.argsort(-last, kind="stable"))
    assert np.array_equal(ladder.rank[ladder.order], np.arange(len(family)))
    for j in range(ladder.scales.size):
        balls = ladder.order[:np.diff(ladder.offsets)[j]]
        assert np.array_equal(np.sort(balls), np.flatnonzero(last + k_floor >= j))
        assert ladder.level(ladder.counts, j).tobytes() == counts[balls, j].tobytes()
        assert ladder.level(tables.cumulative, j).tobytes() == cumulative[balls, j].tobytes()
        assert tables.level(j - k_floor).tobytes() == (1.0 + cumulative[balls, j]).tobytes()
    for b in range(len(family)):
        n_idx = np.arange(last[b] + 1)
        assert tables.concentric(b, n_idx).tobytes() == (1.0 + cumulative[b, n_idx + k_floor]).tobytes()
        with pytest.raises(IndexError):
            tables.concentric(b, last[b] + 1)
        with pytest.raises(IndexError):
            tables.concentric([0, b], [0, last[b] + 1])

    # every reader, against its dense-table reference
    b1, b2 = nested_pairs(space)
    assert tables.pairs(b1, b2).tobytes() == (1.0 + cumulative[
        b1, geometry.scale_index_array(tau, family.radius[b1], family.radius[b2]) + k_floor]).tobytes()
    assert np.array_equal(geometry.doubling_indices(space, PROFILE, tau),
                          _doubling_indices_reference(space, PROFILE, tau))
    nl.check_doubling_coefficient_bound(space, lam, PROFILE, tau)
    report = geometry.check_coefficient_inequalities(space, lam, (tau, 6.0), 200, 0)
    assert report.details == _coefficient_inequalities_reference(space, lam, (tau, 6.0), 200, 0)[3]
    f, psi = np.cos(np.arange(space.n)), weight_psi(space)
    with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", 0):
        report = spaces.campanato_norm(space, lam, f, psi, tau, 2.0, pair_budget=0)
        assert (report.regularity_sup, report.regularity_witness) == \
            _campanato_ladder_reference(space, lam, f, psi, tau, 2.0)
        report = spaces.check_mean_jump_bounds(space, lam, f, psi, (tau, 6.0), pair_budget=0, norm=0.5)
        assert (report.details["per_k"], report.details["iterated"]) == \
            _mean_jump_reference(space, f, psi, (tau, 6.0), 0.5)
        got = operators.sharp_maximal(space, lam, PROFILE, f, pair_budget=0)
    assert np.array_equal(got, _sharp_maximal_reference(space, lam, PROFILE, f, (b1[:0], b2[:0])))


# ------------------------------------------------------------------------------
# One supremum tail against the exhaustive loops it replaced
# ------------------------------------------------------------------------------
def _campanato_exhaustive(space, lam, f, psi, tau, gamma) -> CampanatoNormReport:
    """Primitive-based enumeration over every candidate ball and every nested
    candidate pair; used when the family is small enough."""
    f = np.asarray(f, dtype=float)
    family = space.balls()
    balls = [Ball(int(c), float(r)) for c, r in zip(family.center, family.radius)]
    means = [ball_mean(space, f, b) for b in balls]
    psit = space.fn_table(psi).tolist()
    osc = 0.0
    osc_w: dict = {}
    for b, m, psi_b in zip(balls, means, psit):
        mask = space.dist[b.center] <= b.radius
        num = float(np.sum(np.abs(f[mask] - m) * space.weights[mask]))
        val = num / (psi_b * ball_measure(space, b.scaled(tau)))
        if val > osc:
            osc = val
            osc_w = {"center": b.center, "radius": b.radius}
    reg = 0.0
    reg_w: dict = {}
    inner, outer = nested_pairs(space)
    coeffs = coefficient_tables(space, lam, tau).pairs(inner, outer).tolist()
    for i, j, coeff in zip(inner, outer, coeffs):
        b1, b2 = balls[i], balls[j]
        val = abs(means[i] - means[j]) / (psit[i] * coeff ** gamma)
        if val > reg:
            reg = val
            reg_w = {"inner": {"center": b1.center, "radius": b1.radius},
                     "outer": {"center": b2.center, "radius": b2.radius}}
    return CampanatoNormReport(osc, reg, max(osc, reg), tau, gamma, osc_w, reg_w,
                               "exhaustive", len(coeffs))


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


ORACLE_COMBOS = [(t, g) for t in (1.5, 2.0, 3.0, 6.0) for g in (1.0, 2.0)]

# Two points whose largest tau = 1.5, gamma = 2 pair value differs in the last
# bit when NumPy squares the coefficient instead of Python's pow raising it.
POW_SENSITIVE = nl.build_space(points=[[0.8881652611147983, 0.34919114644099536],
                                       [0.19647324275965472, 0.29279068437750133]],
                               weights=[0.746091380120192, 1.475703872795111])


@PROPERTY
@given(st.one_of(small_spaces(), small_spaces(coincident=True)),
       st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10), st.booleans(),
       st.sampled_from(["auto", 1.0]))
@example(TIE_SENSITIVE, [0.5, -1.0, 0.25, 1.0, 0.0] * 2, False, "auto")
@example(TIE_SENSITIVE, [0.3, 0.3, -0.7, 0.9, -0.2] * 2, True, 1.0)
@example(POW_SENSITIVE, [-0.3068060489526834, 0.626243225243879] + [0.0] * 8, False, "auto")
def test_exhaustive_suprema_equal_pair_loops(space, values, weighted, kappa):
    """Families small enough for every nested pair take the one supremum tail
    with the per-ball numbers of ``ball_sums``: every report field and the
    sharp array equal the loops over balls and pairs, all (tau, gamma) at once."""
    if not geometry.pairs_are_exhaustive(space):
        reject()
    try:
        lam = nl.fit_power_lambda(space, kappa)
    except nl.errors.DegenerateRadii:
        reject()
    profile = nl.make_profile(space, lam)
    psi = weight_psi(space) if weighted else spaces.constant_psi()
    for f in (np.asarray(values[:space.n]), np.round(values[:space.n])):
        reports = spaces.campanato_norm_multi(space, lam, f, psi, ORACLE_COMBOS)
        assert reports == [_campanato_exhaustive(space, lam, f, psi, tau, gamma)
                           for tau, gamma in ORACLE_COMBOS]
        assert np.array_equal(operators.sharp_maximal(space, lam, profile, f),
                              _sharp_exhaustive(space, lam, profile, f, 6.0))


# ------------------------------------------------------------------------------
# The concentric coefficient kernel and the chain search over it
# ------------------------------------------------------------------------------
def _coefficient_reference(space, lam, center, r_in, n_idx, tau):
    """The scalar formula before the kernel: one ladder from ``r_in`` to the
    outer scale index ``n_idx``, one ``searchsorted`` and one ``lam.table``
    per pair; returns (value, terms)."""
    k_min = -nl.mmspace.floor_log(tau)
    radii = r_in * tau ** np.arange(k_min, n_idx + 1)
    counts = np.searchsorted(space.sorted_dist[center], radii, side="right")
    terms = space.prefix_weight[center][counts] / lam.table(center, radii)
    return float(1.0 + np.cumsum(terms)[-1]), terms.tolist()


CHAIN_TAUS = [1.1, 1.5, 2.0, 3.0, 6.0]


@PROPERTY
@given(st.one_of(small_spaces(), small_spaces(coincident=True)), st.sampled_from(CHAIN_TAUS),
       st.sampled_from(["auto", 0.8, 2.0]), st.integers(0, 9))
@example(TIE_SENSITIVE, 1.1, "auto", 0)
@example(TIE_SENSITIVE, 1.5, 0.8, 1)
@example(TIE_SENSITIVE, 2.0, "auto", 2)
@example(TIE_SENSITIVE, 3.0, 2.0, 3)
@example(TIE_SENSITIVE, 6.0, "auto", 4)
def test_concentric_kernel_equals_scalar_coefficient(space, tau, kappa, center):
    """One kernel call over every ordered candidate-radius pair of a center
    and a block of chain links gives each pair's scalar value and terms; a
    ball pair's N is its scale index, a link's its exponent gap."""
    try:
        lam = nl.fit_power_lambda(space, kappa)
    except nl.errors.DegenerateRadii:
        reject()
    c = center % space.n
    radii = space.candidate_radii(c).tolist()
    balls = [(a, b) for i, a in enumerate(radii) for b in radii[i:]]
    balls += [(radii[-1], radii[0])]  # an outer radius below the inner one has N = 0
    pairs = [(a, int(nl.mmspace.scale_index_array(tau, a, b))) for a, b in balls]
    pairs += [(tau ** lo * radii[0], hi - lo) for lo in range(4) for hi in range(lo, 12)]
    r_in, n_idx = (list(r) for r in zip(*pairs))
    kernel = geometry.concentric_coefficients(space, lam, c, r_in, n_idx, tau)
    for i, (a, n) in enumerate(pairs):
        value, terms = _coefficient_reference(space, lam, c, a, n, tau)
        assert kernel.values[i] == value
        assert kernel.terms[i].tolist() == terms + [0.0] * (kernel.terms.shape[1] - len(terms))
        if i < len(balls) and balls[i][1] >= a:
            got = nl.discrete_coefficient(space, lam, Ball(c, a), Ball(c, balls[i][1]), tau)
            assert (got.value, got.N, got.terms) == (value, n, terms)


def _generate_chains_reference(space, lam, tau, count, seed, lengths=(3, 4), gaps=(3, 4, 5)):
    """``lab.generate_chains`` before the kernel: one scalar coefficient per
    link, spec by spec (and one chain for a count of 0 or less)."""
    threshold = 3.0 + nl.mmspace.floor_log(tau)
    rng = np.random.default_rng(seed)
    chains = []
    for c in rng.permutation(space.n):
        radii = space.candidate_radii(int(c))
        for base in radii[: max(1, radii.size // 4)]:
            for length in lengths:
                for gap in gaps:
                    exponents = [i * gap for i in range(length)]
                    links = [_coefficient_reference(space, lam, int(c), tau ** e * float(base), gap, tau)[0]
                             for e in exponents[:-1]]
                    if all(v > threshold for v in links):
                        chains.append((int(c), float(base), exponents))
                        if len(chains) >= count:
                            return chains
    return chains


def _chain_bound_reference(space, lam, tau, chains):
    """(qualifying, passing, skipped) of the chain check, link by link."""
    threshold = 3.0 + nl.mmspace.floor_log(tau)
    qualifying = passing = skipped = 0
    for center, base, exponents in chains:
        exps = sorted(exponents)
        links = [_coefficient_reference(space, lam, center, tau ** a * base, b - a, tau)[0]
                 for a, b in zip(exps, exps[1:])]
        if len(exps) < 2 or not all(v > threshold for v in links):
            skipped += 1
            continue
        qualifying += 1
        total = _coefficient_reference(space, lam, center, tau ** exps[0] * base,
                                       exps[-1] - exps[0], tau)[0]
        passing += sum(links) < threshold * total
    return qualifying, passing, skipped


@pytest.mark.parametrize("generator, tau, count, seed", [
    ({"kind": "grid", "d": 2, "n": 9}, 2.0, 50, 7),
    ({"kind": "grid", "d": 1, "n": 64}, 2.0, 200, 11),
    ({"kind": "grid", "d": 1, "n": 64}, 1.5, 200, 11),
    ({"kind": "grid", "d": 1, "n": 64}, 3.0, 200, 11),
])
def test_generate_chains_equals_per_link_loop(generator, tau, count, seed):
    space = lab.generate_space(generator)
    lam = nl.fit_power_lambda(space)
    chains = lab.generate_chains(space, lam, tau, count, seed)
    want = _generate_chains_reference(space, lam, tau, count, seed)
    assert chains == want
    assert 0 < chains.centers_searched <= space.n and chains.links_evaluated > 0
    if generator["d"] == 2:
        # no chain qualifies on the 9x9 grid, so every center is searched
        assert want == [] and chains.centers_searched == space.n
    # the check, with links and totals from the kernel, on these chains and
    # on a mix with short and non-qualifying ones
    center, base, _ = want[0] if want else (0, float(space.candidate_radii(0)[0]), None)
    mixed = list(want[:5]) + [(center, base, [0]), (center, base, [0, 1]), (center, base, [6, 0, 3])]
    for given_chains in (want, mixed):
        rep = geometry.check_coefficient_chain_bound(space, lam, tau, given_chains)
        d = rep.details
        assert (d["qualifying"], d["passing"], d["skipped"]) == \
            _chain_bound_reference(space, lam, tau, given_chains)


@pytest.mark.parametrize("count", [0, -3])
def test_generate_chains_of_no_count_is_empty(grid64, count):
    space, lam = grid64
    assert _generate_chains_reference(space, lam, 2.0, count, 0) != []  # the old bug
    chains = lab.generate_chains(space, lam, 2.0, count, 0)
    assert chains == [] and chains.centers_searched == 0


def test_chain_links_take_their_exponent_gap_as_n(grid64, monkeypatch):
    """At tau = 3 the radii tau**hi * b and tau**(hi - lo) * (tau**lo * b)
    round apart on some links, and a scale index of the rounded radii counts
    one term too many there; the chain check's link and end-to-end values are
    the ladder sums to N = the exponent gap."""
    space, lam = grid64
    tau = 3.0
    chains = [(c, base, [i * gap for i in range(4)]) for c in range(0, space.n, 4)
              for base in space.candidate_radii(c)[: space.candidate_radii(c).size // 4].tolist()
              for gap in (3, 4, 5)]
    calls = []
    kernel = geometry.concentric_coefficients

    def recorded(*args):
        out = kernel(*args)
        calls.append(out.values.tolist())
        return out

    monkeypatch.setattr(geometry, "concentric_coefficients", recorded)
    geometry.check_coefficient_chain_bound(space, lam, tau, chains)
    assert len(calls) == len(chains)
    apart = 0
    for (c, base, exps), values in zip(chains, calls):
        spans = list(zip(exps, exps[1:])) + [(exps[0], exps[-1])]
        assert values == [_coefficient_reference(space, lam, c, tau ** lo * base, hi - lo, tau)[0]
                          for lo, hi in spans]
        apart += sum(int(nl.mmspace.scale_index_array(tau, tau ** lo * base, tau ** hi * base)) != hi - lo
                     for lo, hi in spans)
    assert apart > 0  # the links where the radius form would count N = gap + 1


# ------------------------------------------------------------------------------
# The coefficient inequalities over sampled triples
# ------------------------------------------------------------------------------
def _coefficient_inequalities_reference(space, lam, tau_pair, sample_budget, seed):
    """``geometry.check_coefficient_inequalities`` before the one-pass reductions:
    one loop over the draws with running maxima and flags."""
    tau1, tau2 = float(tau_pair[0]), float(tau_pair[1])
    family = space.balls()
    t1 = geometry.coefficient_tables(space, lam, tau1)
    t2 = geometry.coefficient_tables(space, lam, tau2)
    rng = np.random.default_rng(seed)
    index = nl.mmspace.scale_index_array
    monotone_ok, monotone_witness, ge_one_ok = True, {}, True
    diff_ratio_max = shrink_ratio_max = 0.0
    cross_max, cross_min = -math.inf, math.inf
    bounded_max = {2.0: -math.inf, 6.0: -math.inf}
    sizes = np.diff(family.offsets)
    eligible = np.flatnonzero(sizes >= 3)
    attempted = 0
    if eligible.size:
        for _ in range(sample_budget):
            attempted += 1
            c = int(rng.choice(eligible))
            i, j, k = family.offsets[c] + np.sort(rng.choice(sizes[c], size=3, replace=False))
            r_i, r_j, r_k = (float(family.radius[x]) for x in (i, j, k))
            k_br = float(t1.concentric(i, index(tau1, r_i, r_j)))
            k_bs = float(t1.concentric(i, index(tau1, r_i, r_k)))
            k_rs = float(t1.concentric(j, index(tau1, r_j, r_k)))
            if not (k_br >= 1.0 and k_bs >= 1.0 and k_rs >= 1.0):
                ge_one_ok = False
            if k_br > k_bs:
                monotone_ok = False
                monotone_witness = {"center": c, "r_b": r_i, "r_r": r_j, "r_s": r_k,
                                    "inner": k_br, "outer": k_bs}
            diff_ratio_max = max(diff_ratio_max, (k_bs - k_br) / k_rs)
            shrink_ratio_max = max(shrink_ratio_max, k_rs / k_bs)
            cross = k_bs / float(t2.concentric(i, index(tau2, r_i, r_k)))
            cross_max = max(cross_max, cross)
            cross_min = min(cross_min, cross)
            for alpha in bounded_max:
                if r_k / r_i <= alpha:
                    bounded_max[alpha] = max(bounded_max[alpha], k_bs)
    balls = np.arange(len(family))
    for alpha in (2.0, 6.0):
        n_idx = nl.mmspace.scale_index_array(tau1, family.radius, alpha * family.radius)
        bounded_max[alpha] = max(bounded_max[alpha], float(t1.concentric(balls, n_idx).max()))
    details = {
        "sampled_triples": attempted,
        "outer_monotone_exact": monotone_ok,
        "at_least_one_exact": ge_one_ok,
        "bounded_enlargement_max": {str(a): v for a, v in bounded_max.items()},
        "difference_constant": diff_ratio_max,
        "inner_shrink_constant": shrink_ratio_max,
        "cross_step_ratio_max": cross_max if cross_max > -math.inf else None,
        "cross_step_ratio_min": cross_min if cross_min < math.inf else None,
        "tau_pair": [tau1, tau2],
    }
    return monotone_ok and ge_one_ok, diff_ratio_max, monotone_witness, details


@PROPERTY
@given(st.one_of(small_spaces(), small_spaces(coincident=True)),
       st.sampled_from([1.5, 2.0, 3.0, 6.0]), st.sampled_from([0, 1, 2000]),
       st.floats(0.0, 2.0), st.booleans())
@example(TIE_SENSITIVE, 1.5, 2000, 1.0, False)
@example(TIE_SENSITIVE, 2.0, 2000, 1.0, True)
@example(TIE_SENSITIVE, 3.0, 1, 0.0, False)
@example(TIE_SENSITIVE, 6.0, 0, 2.0, False)
def test_coefficient_inequalities_equal_per_triple_loop(space, tau, budget, kappa, negate):
    try:
        lam = nl.fit_power_lambda(space, kappa)
    except nl.errors.DegenerateRadii:
        reject()  # radius ** kappa leaves the float range on spaces of tiny diameter
    if negate:
        # negative terms make the coefficient fall with the outer ball, so the
        # exact checks fail and the witness is the last failing triple
        fitted = lam
        lam = nl.DominatingFunction(lambda c, r: -fitted.table(c, r), c_lambda=1.0)
    rep = geometry.check_coefficient_inequalities(space, lam, (tau, 6.0), budget, 5)
    want = _coefficient_inequalities_reference(space, lam, (tau, 6.0), budget, 5)
    assert (rep.passed, rep.value, rep.worst_witness, rep.details) == want


# ------------------------------------------------------------------------------
# The Marcinkiewicz integral, one point at a time
# ------------------------------------------------------------------------------
def _marcinkiewicz_reference(space, kernel, f, x, params, b=None):
    """The per-point evaluation ``operators._marcinkiewicz`` ran before its one
    pass: every distinct distance of a summand from x is one jump."""
    if x is None:
        return np.asarray([_marcinkiewicz_reference(space, kernel, f, i, params, b)
                           for i in range(space.n)])
    row = space.dist[x]
    sel = (row > 0) & (f != 0)
    if not sel.any():
        return 0.0
    d = row[sel]
    contrib = kernel.matrix[x, sel] * f[sel] * space.weights[sel] / d ** (1.0 - params.rho)
    if b is not None:
        contrib = contrib * (b[x] - b[sel])
    order = np.argsort(d, kind="stable")
    d = d[order]
    contrib = contrib[order]
    uniq, start = np.unique(d, return_index=True)
    partial = np.cumsum(np.add.reduceat(contrib, start))
    a_exp = (params.l + params.rho) * params.s
    rpow = uniq ** (-a_exp)
    upper = np.concatenate([rpow[1:], [0.0]])
    pieces = np.abs(partial) ** params.s * (rpow - upper) / a_exp
    return float(np.sum(pieces) ** (1.0 / params.s))


@st.composite
def sparse_values(draw, n):
    """Values on n points, many of them zero or repeated."""
    value = st.one_of(st.just(0.0), st.sampled_from([-1.0, 2.0]), st.floats(-1.0, 1.0))
    return np.asarray(draw(st.lists(value, min_size=n, max_size=n)))


@PROPERTY
@given(st.data(), st.sampled_from([(0.0, 1.0, 2.0), (0.5, 0.5, 1.0), (0.2, 1.0, 3.0),
                                   (0.0, 0.7, 1.5)]))
def test_marcinkiewicz_one_pass_equals_per_point_loop(data, lrs):
    space = data.draw(st.one_of(small_spaces(), small_spaces(coincident=True)))
    f = data.draw(sparse_values(space.n))
    b = data.draw(sparse_values(space.n))
    params = OperatorParams(l=lrs[0], rho=lrs[1], s=lrs[2])
    lam = _lam(space)
    kernel = operators.make_kernel(space, lam, l=params.l, family="perturbed",
                                   seed=data.draw(st.integers(0, 3)))
    for weight in (None, b):
        # NaN where d ** -(l + rho) s overflows on tiny distances, as in the loop
        got = operators._marcinkiewicz(space, kernel, f, None, params, weight)
        want = _marcinkiewicz_reference(space, kernel, f, None, params, weight)
        assert np.array_equal(got, want, equal_nan=True)
        single = [operators._marcinkiewicz(space, kernel, f, x, params, weight) for x in range(space.n)]
        assert np.array_equal(single, got, equal_nan=True)
    canonical = operators.make_kernel(space, lam, l=params.l)
    if np.all(np.isfinite(operators.marcinkiewicz(space, canonical, f, None, params))):
        assert operators.check_pointwise_domination(space, lam, canonical, f, params).passed


# ------------------------------------------------------------------------------
# Oscillation sums against the dense table and exact rational sums
# ------------------------------------------------------------------------------
def _oscillation_sums_dense(space, g, p=1.0):
    """``oscillation_sums`` as the full (q, j) table of ``|g_j - mean_q|**p * w_j``
    per center, masked to j <= q: O(n^3).  As there, g is measured from its
    value at the center's closest point."""
    n = space.n
    g = np.asarray(g, dtype=float)
    out = np.empty((n, n))
    tril = np.tril(np.ones((n, n)))
    for c in range(n):
        order = space.order[c]
        gs = g[order] - g[order[0]]
        ws = space.weights[order]
        pw = space.prefix_weight[c]
        pg = np.concatenate([[0.0], np.cumsum(gs * ws)])
        means = pg[1:] / pw[1:]
        diff = np.abs(gs[None, :] - means[:, None])
        if p != 1.0:
            diff **= p
        out[c] = (diff * ws[None, :] * tril).sum(axis=1)
    return out


def _oscillation_sums_exact(space, g, p):
    """``{(c, q - 1): (sum, slack)}`` for q >= 2: the sum in rational arithmetic
    from the float inputs (for a non-integer p, each |g_j - mean_q| is rounded
    once before the power), and for p = 1 the most it moves when the mean
    moves by a float mean's rounding, (q + 2) ulp of max |g|: that sum's slope
    in the mean is up to the ball's weight.  For p > 1 the slope is 0 at the
    exact mean (p = 2) or carries |g_j - mean_q|**(p - 1), within the 1e-12."""
    exact = {}
    for c in range(space.n):
        order = space.order[c].tolist()
        gs = [Fraction(float(g[j])) for j in order]
        ws = [Fraction(float(space.weights[j])) for j in order]
        for q in range(2, space.n + 1):
            mean = sum(x * w for x, w in zip(gs[:q], ws[:q])) / sum(ws[:q])
            if p == int(p):
                terms = (abs(x - mean) ** int(p) * w for x, w in zip(gs[:q], ws[:q]))
            else:
                terms = (Fraction(float(abs(x - mean)) ** p) * w for x, w in zip(gs[:q], ws[:q]))
            slack = sum(ws[:q]) * (q + 2) * Fraction(2) ** -52 * max(map(abs, gs[:q])) if p == 1.0 else 0
            exact[c, q - 1] = (sum(terms), slack)
    return exact


@st.composite
def separated_values(draw, n, offset=False):
    """Distinct values on the grid k/16 in [-1, 1], plus a shift: every prefix
    of two or more points has a spread that the float mean resolves.  With
    ``offset``, 100 plus those values times 1e-6: a spread far below an ulp of
    the float mean of g itself."""
    ks = draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n, unique=True))
    if offset:
        return 100.0 + np.asarray(ks, dtype=float) / 16.0 * 1e-6
    return np.asarray(ks, dtype=float) / 16.0 + draw(st.sampled_from([0.0, 1.75]))


@PROPERTY
@given(st.data(), st.sampled_from([1.0, 2.0, 3.5, 4.0]))
def test_oscillation_sums_match_exact_and_dense_sums(data, p):
    space = data.draw(st.one_of(small_spaces(), small_spaces(coincident=True),
                                st.just(TIE_SENSITIVE)))
    offset = data.draw(st.booleans())
    g = data.draw(separated_values(space.n, offset))
    got = spaces.oscillation_sums(space, g, p)
    for (c, q), (want, slack) in _oscillation_sums_exact(space, g, p).items():
        assert abs(Fraction(float(got[c, q])) - want) <= Fraction(1e-12) * want + slack, (c, q)
    if p in (2.0, 4.0):
        assert np.all(got[:, 0] == 0.0)
        const = np.full(space.n, data.draw(st.floats(-1.0, 1.0)) + data.draw(st.sampled_from([0.0, 1.75])))
        assert np.all(spaces.oscillation_sums(space, const, p) == 0.0)
    else:
        np.testing.assert_allclose(got, _oscillation_sums_dense(space, g, p), rtol=1e-13, atol=0.0)


def _oscillation_sums_broadcast(space, g, p):
    """The generic-p tile loop of ``oscillation_sums`` as it ran before its
    rank-2 product: each tile's g_j - mean_q from one broadcast subtract."""
    n, tile = space.n, spaces._OSC_TILE
    gs, ws = np.asarray(g, dtype=float)[space.order], space.weights[space.order]
    pw = space.prefix_weight
    out = np.zeros((n, n))
    gs = gs - gs[:, :1]
    means = np.cumsum(gs * ws, axis=1) / pw[:, 1:]
    tril = np.tril(np.ones((tile, tile)))
    buf = np.empty(tile * tile * n)
    for c0 in range(0, n, tile):
        c1 = min(c0 + tile, n)
        for q0 in range(0, n, tile):
            q1 = min(q0 + tile, n)
            diff = buf[:(c1 - c0) * (q1 - q0) * q1].reshape(c1 - c0, q1 - q0, q1)
            np.subtract(gs[c0:c1, None, :q1], means[c0:c1, q0:q1, None], out=diff)
            np.abs(diff, out=diff)
            if p != 1.0:
                diff **= p
            diff[:, :, q0:] *= tril[:q1 - q0, :q1 - q0]
            out[c0:c1, q0:q1] = np.matmul(diff, ws[c0:c1, :q1, None])[..., 0]
    return out


@PROPERTY
@given(st.data(), st.sampled_from([1, 2, 15, 16, 17, 33, 81]), st.sampled_from([1.0, 1.5, 3.0]))
def test_oscillation_tiles_equal_the_broadcast_subtract(data, n, p):
    # the rank-2 product rounds each g_j - mean_q once, as the subtract does;
    # the sizes fill one tile, end a tile early or late, and cross several
    space = data.draw(st.one_of(small_spaces(n=n), small_spaces(coincident=True, n=n)))
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, n)
    g = np.round(g, data.draw(st.sampled_from([1, 17])))  # one decimal ties many values
    g *= 10.0 ** data.draw(st.integers(-3, 3))
    assert np.array_equal(spaces.oscillation_sums(space, g, p), _oscillation_sums_broadcast(space, g, p))


@pytest.mark.parametrize("make_space", [
    lambda: lab.generate_space({"kind": "grid", "d": 1, "n": 64}), _medium_graph_space,
    lambda: lab.generate_space({"kind": "grid", "d": 1, "n": 37}),
], ids=["grid64", "graph40", "grid37"])
@pytest.mark.parametrize("p", [1.0, 3.5])
def test_oscillation_sums_cross_tile_edges(make_space, p):
    # the property spaces have n <= 10, inside one tile; these cross the tile
    # edges in centers and in prefix rows, and grid37 ends in partial tiles
    space = make_space()
    assert space.n > spaces._OSC_TILE
    g = np.random.default_rng(space.n).uniform(-1.0, 1.0, space.n)
    np.testing.assert_allclose(spaces.oscillation_sums(space, g, p), _oscillation_sums_dense(space, g, p),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p", [1.0, 3.5])
def test_oscillation_sums_match_exact_sums_past_one_tile(p):
    space = lab.generate_space({"kind": "grid", "d": 1, "n": 20})
    g = np.random.default_rng(20).uniform(-1.0, 1.0, space.n)
    got = spaces.oscillation_sums(space, g, p)
    for (c, q), (want, slack) in _oscillation_sums_exact(space, g, p).items():
        assert abs(Fraction(float(got[c, q])) - want) <= Fraction(1e-12) * want + slack, (c, q)


# ------------------------------------------------------------------------------
# Draws replayed from one raw block
# ------------------------------------------------------------------------------
#: Bounds r of ``Generator.integers(r)``: the small ones of real spaces, and
#: large ones at which a quarter to a half of the words are rejected.
DRAW_BOUNDS = (1, 2, 3, 7, 2**31 + 1, 3 * 2**30, 2**32 - 5)

SEEDS = st.integers(0, 2**63 - 1)
BUDGETS = st.one_of(st.sampled_from([0, 1, 300]), st.integers(0, 300))


@PROPERTY
@given(st.sampled_from(DRAW_BOUNDS), SEEDS, BUDGETS)
@example(2**31 + 1, 0, 300)
def test_bounded_draw_equals_generator_integers(r, seed, budget):
    rng = np.random.default_rng(seed)
    want = [int(rng.integers(r)) for _ in range(budget)]
    (got,) = geometry.replay_draws(seed, budget, 1, lambda draw: (draw(r),))
    assert got.dtype == np.int64 and got.tolist() == want


@PROPERTY
@given(st.integers(2, 600), st.integers(0, 2**32 - 1), BUDGETS, SEEDS)
@example(2, 0, 300, 0)
@example(3, 1, 300, 0)
def test_replayed_schedules_equal_scalar_generator_calls(n, sizes_seed, budget, seed):
    """The draw schedules of the three sampling loops, on per-center sizes with
    one and exactly three candidate radii among others."""
    sizes = np.random.default_rng(sizes_seed).choice([1, 2, 3, 3, 7, 600], size=n)
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(budget):
        c1, c2 = (int(v) for v in rng.choice(n, size=2, replace=False))
        want.append((c1, c2, int(rng.integers(sizes[c1])), int(rng.integers(sizes[c2]))))

    def pairs(draw):
        c1, c2 = geometry.replay_choice(draw, n, 2).T
        return c1, c2, draw(sizes[c1]), draw(sizes[c2])

    assert list(zip(*(v.tolist() for v in geometry.replay_draws(seed, budget, 5, pairs)))) == want

    eligible = np.flatnonzero(sizes >= 3)
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(budget if eligible.size else 0):
        c = int(rng.choice(eligible))
        want.append((c, rng.choice(sizes[c], size=3, replace=False).tolist()))

    def triples(draw):
        c = eligible[draw(eligible.size)]
        return c, geometry.replay_choice(draw, sizes[c], 3)

    got = geometry.replay_draws(seed, budget if eligible.size else 0, 6, triples)
    assert list(zip(got[0].tolist(), got[1].tolist())) == want


def _replay_every_offset(seed, budget, words, step):
    """``geometry.replay_draws`` before its pass along the chain: every step
    runs from every word offset of the block, and the chain is walked."""
    raw = np.random.default_rng(seed).bit_generator.random_raw(words * max(budget, 0) // 2 + 32)
    block = raw.astype("<u8").view("<u4").astype(np.uint64)
    pos = np.arange(block.size + 1 if budget > 0 else 0)

    def draw(r):
        nonlocal pos
        r = np.broadcast_to(np.asarray(r, dtype=np.uint64), pos.shape)
        m, pos, todo = np.zeros(pos.shape, dtype=np.uint64), pos.copy(), np.flatnonzero(r > 1)
        while todo.size:
            m[todo] = block[np.minimum(pos[todo], block.size - 1)] * r[todo]
            pos[todo] += 1
            todo = todo[(m[todo] % 2**32 < 2**32 % r[todo]) & (pos[todo] <= block.size)]
        return (m >> 32).astype(np.int64)
    values = step(draw)
    nxt, chain, at = np.minimum(pos, block.size + 1).tolist() + [block.size + 1], [], 0
    for _ in range(budget):
        chain.append(at)
        at = nxt[at]
    if at > block.size:
        return _replay_every_offset(seed, budget, 2 * words, step)
    return [np.asarray(v)[np.asarray(chain, dtype=np.int64)] for v in values]


def _assert_replays_equal(seed, budget, words, step):
    """``replay_draws`` gives the oracle's arrays; returns the number of word
    offsets of each run of ``step``."""
    runs = []

    def counted(draw):
        values = step(draw)
        runs.append(len(values[0]))
        return values
    got = geometry.replay_draws(seed, budget, words, counted)
    want = _replay_every_offset(seed, budget, words, step)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return runs


REPLAY_BUDGETS = (0, 1, 2, 2000, 5000)


@pytest.mark.parametrize("r", DRAW_BOUNDS)
def test_bounded_draws_equal_every_offset_pass(r):
    for budget in REPLAY_BUDGETS:
        for seed in (0, 7):
            _assert_replays_equal(seed, budget, 1, lambda draw: (draw(r),))


def _replayed_steps(space, budget):
    """``(seed, budget, words, step)`` of the ``replay_draws`` calls of the
    pair sample, the mean-jump comparable pairs and the coefficient triples."""
    calls, real = [], geometry.replay_draws

    def spy(*args):
        calls.append(args)
        return real(*args)
    lam = nl.fit_power_lambda(space, 1.0)
    f = np.arange(space.n, dtype=float)
    with mock.patch.object(geometry, "replay_draws", spy), mock.patch.object(spaces, "replay_draws", spy):
        geometry.sampled_nested_pairs(space, budget, 0)
        spaces.check_mean_jump_bounds(space, lam, f, weight_psi(space), (2.0,), budget, 0, norm=0.5)
        geometry.check_coefficient_inequalities(space, lam, (2.0, 6.0), budget, 0)
    return calls


#: grid(d=1, n=64), whose steps read 5, 4 and 6 words; two points, whose
#: pair and mean-jump steps read 4 and 3 words (the first pick has one
#: choice); a line of four points, whose centers 1 and 2 have exactly three
#: candidate radii (distances {1, 2}), so their triple steps read 5 words and
#: the others 6; a line with two doubled points, whose mean-jump steps read 3
#: words when c1 and c2 coincide (no radius is up to distance 0, so no draw).
#: Each maps to the step runs of its pair, mean-jump and triple replays at
#: budgets of 2000 and up.
REPLAY_SPACES = {
    "grid64": (lambda: lab.generate_space({"kind": "grid", "d": 1, "n": 64}), [1, 1, 1]),
    "two_points": (lambda: nl.build_space(points=[[0.0], [1.0]], weights=[1.0, 1.0]), [2, 2, 1]),
    "mixed_sizes": (lambda: nl.build_space(points=[[0.0], [1.0], [2.0], [3.0]], weights=np.ones(4)),
                    [1, 1, 2]),
    "coincident": (lambda: nl.build_space(points=[[0.0], [0.0], [1.0], [2.0], [2.0], [3.0]],
                                          weights=np.ones(6)), [1, 2, 2]),
}


@pytest.mark.parametrize("budget", REPLAY_BUDGETS)
@pytest.mark.parametrize("name", list(REPLAY_SPACES))
def test_replayed_steps_equal_every_offset_pass(name, budget):
    """The pair, mean-jump and triple steps of four spaces give the oracle's
    arrays.  Where the chain's offsets are not ``k * words``, ``step`` runs
    twice, and the two runs cover each word offset of the block once: the
    pass along the chain is kept, not run again."""
    make, fallbacks = REPLAY_SPACES[name]
    calls = _replayed_steps(make(), budget)
    assert [words for _, _, words, _ in calls] == [5, 4, 6]
    runs = [_assert_replays_equal(*call) for call in calls]
    if budget >= 2000:
        assert [len(r) for r in runs] == fallbacks
    for (_, b, words, _), r in zip(calls, runs):
        assert len(r) <= 2 and (len(r) == 1 or sum(r) == 2 * (words * b // 2 + 32) + 1)


def _lattice_space(n, dim, top, seed):
    """n weighted points on the integer lattice {0..top}**dim, built without
    ``build_space``'s cubic triangle check: ``top = 0`` makes every center a
    single candidate radius, ``top = 2`` gives centers exactly three."""
    rng = np.random.default_rng(seed)
    points = rng.integers(0, top + 1, size=(n, dim)).astype(float)
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    return nl.PointCloudSpace(dist, np.exp(rng.uniform(-3.0, 0.0, size=n)))


lattice_spaces = st.builds(_lattice_space, st.integers(2, 600), st.sampled_from([1, 2]),
                           st.sampled_from([0, 1, 2, 3, 12]), st.integers(0, 2**32 - 1))


def _comparable_pairs_reference(space, f, psi, pair_budget, seed, norm):
    """The draw loop of the comparable pairs in ``check_mean_jump_bounds``
    before the replay: one pair per draw, strict improvements."""
    family = space.balls()
    pf, pw = space.prefix_of(f * space.weights), space.prefix_weight
    counts = family.counts()
    means = pf[family.center, counts] / pw[family.center, counts]
    psit = space.fn_table(psi)
    comparable, witness = 0.0, {}
    rng = np.random.default_rng(seed)
    if space.n > 1:
        for _ in range(pair_budget):
            c1, c2 = (int(v) for v in rng.choice(space.n, size=2, replace=False))
            d = float(space.dist[c1, c2])
            if d <= 0:
                continue
            small = int(np.count_nonzero(family.radius[family.segment(c1)] <= d))
            if small == 0:
                continue
            b1 = int(family.offsets[c1] + rng.integers(small))
            q2 = int(np.searchsorted(space.sorted_dist[c2], d, side="right"))
            val = abs(means[b1] - pf[c2][q2] / pw[c2][q2]) / (psit[b1] * norm)
            if val > comparable:
                comparable = val
                witness = {"b1": {"center": c1, "radius": float(family.radius[b1])},
                           "b2": {"center": c2, "radius": d}}
    return comparable, witness


@settings(max_examples=25, deadline=None)
@given(lattice_spaces, BUDGETS, SEEDS)
@example(_lattice_space(600, 1, 0, 0), 300, 0)
@example(_lattice_space(40, 1, 2, 1), 300, 3)
def test_replayed_samples_equal_draw_loops(space, budget, seed):
    """Pairs, comparable pairs and triples of lattice spaces up to n = 600,
    every report field equal to the scalar loops'."""
    sample = geometry.sampled_nested_pairs(space, budget, seed)
    inner, outer = _sampled_nested_pairs_reference(space, budget, seed)
    assert np.array_equal(sample.b1, inner) and np.array_equal(sample.b2, outer)

    lam = nl.fit_power_lambda(space, 1.0)
    psi = weight_psi(space)
    f = np.random.default_rng(seed).uniform(-1.0, 1.0, size=space.n)
    rep = spaces.check_mean_jump_bounds(space, lam, f, psi, (2.0, 6.0), budget, seed, norm=0.5)
    per_k, iterated = _mean_jump_reference(space, f, psi, (2.0, 6.0), 0.5)
    comparable, witness = _comparable_pairs_reference(space, f, psi, budget, seed, 0.5)
    assert rep.worst_witness == witness
    assert rep.details == {"constant_function": False, "per_k": per_k, "iterated": iterated,
                           "comparable": comparable, "norm": 0.5}
    assert rep.value == max(max(per_k.values()), iterated, comparable)

    rep = geometry.check_coefficient_inequalities(space, lam, (2.0, 6.0), budget, seed)
    want = _coefficient_inequalities_reference(space, lam, (2.0, 6.0), budget, seed)
    assert (rep.passed, rep.value, rep.worst_witness, rep.details) == want


def _kernel_draws(n):
    """The pairs (x, z) that ``operators.validate_kernel`` sampled when the
    space had more than 8000 ordered pairs: 8000 scalar ``rng.choice`` calls
    of generator seed 0."""
    rng = np.random.default_rng(0)
    return [tuple(int(v) for v in rng.choice(n, size=2, replace=False)) for _ in range(8000)]


def _validate_kernel_reference(space, lam, kernel, xz_pairs):
    """``operators.validate_kernel`` as a loop over the pairs (x, z): every
    ordered pair gives the exact constants, ``_kernel_draws`` the old sample."""
    bound = operators.size_bound_matrix(space, lam, kernel.l)
    positive = bound > 0
    c_size = float(np.max(np.abs(kernel.matrix[positive]) / bound[positive])) if positive.any() else 0.0
    lam_mat = space.pair_table(lam)
    n = space.n
    smooth_diff = smooth_sum = 0.0
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
    return c_size, {"c_size": c_size,
                    "smoothness_difference": math.inf if unbounded else smooth_diff,
                    "smoothness_sum": math.inf if unbounded else smooth_sum,
                    "dini_value": kernel.dini_value, "family": kernel.family}


@settings(max_examples=6, deadline=None)
@given(st.integers(85, 200), st.sampled_from([1, 2]), st.sampled_from([3, 12]),
       st.integers(0, 2**32 - 1), st.sampled_from(["canonical", "perturbed"]))
@example(89, 1, 12, 5, "perturbed")  # n * n = 7921: the old cap of 8000 took every pair
@example(90, 2, 12, 6, "perturbed")  # n * n = 8100: above the cap, 8000 pairs were drawn
def test_validate_kernel_equals_all_pairs_loop(n, dim, top, seed, family):
    """The one pass gives the all-pairs loop's report, whose smoothness
    constants are at least those of the 8000 pairs once sampled."""
    space = _lattice_space(n, dim, top, seed)
    lam = nl.fit_power_lambda(space, 1.0)
    kernel = operators.make_kernel(space, lam, family=family, seed=seed)
    rep = operators.validate_kernel(space, lam, kernel)
    every = [(x, z) for x in range(n) for z in range(n) if x != z]
    assert (rep.value, rep.details) == _validate_kernel_reference(space, lam, kernel, every)
    if n * n > 8000:
        _, sampled = _validate_kernel_reference(space, lam, kernel, _kernel_draws(n))
        for key in ("smoothness_difference", "smoothness_sum"):
            assert rep.details[key] >= sampled[key]
