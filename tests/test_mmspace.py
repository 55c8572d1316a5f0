from __future__ import annotations

import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhslab as nl
from nhslab import mmspace
from nhslab.errors import (
    DegenerateRadii,
    DimensionMismatch,
    InvalidParams,
    MetricViolation,
    NonPositiveWeight,
)


# ------------------------------------------------------------------------------
# build_space
# ------------------------------------------------------------------------------
def test_singleton_space():
    space = nl.build_space(points=[[0.0]], weights=[1.0])
    assert space.total_measure == 1.0
    assert space.diameter == 0.0
    assert list(space.candidate_radii(0)) == [1.0]


def test_two_point_construction():
    space = nl.build_space(points=[0.0, 1.0], weights=[1.0, 1.0])
    assert space.dist[0, 1] == 1.0
    assert space.total_measure == 2.0
    assert list(space.candidate_radii(0)) == [0.5, 1.0]


def test_triangle_violation_reports_triple():
    bad = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    with pytest.raises(MetricViolation) as err:
        nl.build_space(distances=bad, weights=[1.0, 1.0, 1.0])
    assert "triangle" in str(err.value)


def test_sampled_triangle_check_finds_a_planted_violation():
    # d(0, 1) = 10 exceeds d(0, k) + d(k, 1) = 2 through each of the four other points
    bad = np.ones((6, 6)) - np.eye(6)
    bad[0, 1] = bad[1, 0] = 10.0
    with mock.patch.object(mmspace, "TRIANGLE_EXHAUSTIVE_LIMIT", 5):
        with pytest.raises(MetricViolation, match="sampled triple"):
            nl.build_space(distances=bad, weights=np.ones(6))
        # a metric passes the sampled branch
        nl.build_space(distances=np.ones((6, 6)) - np.eye(6), weights=np.ones(6))
    with pytest.raises(MetricViolation, match="fails on \\(0,"):
        nl.build_space(distances=bad, weights=np.ones(6))


def test_nonpositive_weight():
    with pytest.raises(NonPositiveWeight):
        nl.build_space(points=[[0.0], [1.0]], weights=[1.0, 0.0])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        nl.build_space(distances=[[0.0, 1.0], [1.0, 0.0]], weights=[1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        nl.build_space(points=[[0.0]], weights=[])


def test_asymmetric_distances_rejected():
    bad = [[0.0, 1.0], [2.0, 0.0]]
    with pytest.raises(MetricViolation):
        nl.build_space(distances=bad, weights=[1.0, 1.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_metric_axioms_hold_on_coordinate_clouds(n, seed):
    rng = np.random.default_rng(seed)
    space = nl.build_space(points=rng.uniform(-1, 1, (n, 2)),
                           weights=rng.uniform(0.1, 2.0, n))
    d = space.dist
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-12 * max(d[i, j], 1.0)


# ------------------------------------------------------------------------------
# geometric doubling
# ------------------------------------------------------------------------------
def _min_cover_size(space, center, radius):
    members = np.nonzero(space.dist[center] <= radius)[0]
    for k in range(1, len(members) + 1):
        for centers in combinations(members, k):
            if all(min(space.dist[m][c] for c in centers) <= radius / 2.0
                   for m in members):
                return k
    raise AssertionError("unreachable: the member set covers itself")


def _exhaustive_doubling_count(space):
    best = 1
    for c in range(space.n):
        for r in space.candidate_radii(c):
            best = max(best, _min_cover_size(space, c, float(r)))
    return best


def test_doubling_count_singleton():
    space = nl.build_space(points=[[0.0]], weights=[1.0])
    assert nl.estimate_geometric_doubling(space) == 1


def test_doubling_count_two_point(two_point):
    space, _ = two_point
    assert nl.estimate_geometric_doubling(space) == 2


def test_doubling_count_matches_exhaustive_on_four_grid():
    space = nl.build_space(points=[[0.0], [1.0], [2.0], [3.0]], weights=[1.0] * 4)
    greedy = nl.estimate_geometric_doubling(space)
    assert greedy == _exhaustive_doubling_count(space) == 3


def test_doubling_count_at_the_size_cap():
    # the per-ball greedy that the batched one replaced also gives 3 here,
    # after about 140 CPU seconds
    space = nl.generate_space({"kind": "grid", "d": 1, "n": nl.lab.DEFAULT_MAX_N})
    assert nl.make_profile(space, nl.fit_power_lambda(space, 0.8)).N0 == 3


def test_doubling_count_monotone_under_refinement():
    counts = []
    for pts in ([0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0]):
        space = nl.build_space(points=[[p] for p in pts], weights=[1.0] * len(pts))
        counts.append(nl.estimate_geometric_doubling(space))
    assert counts == sorted(counts)


# ------------------------------------------------------------------------------
# power-law dominating functions
# ------------------------------------------------------------------------------
def test_fit_singleton_kappa_one():
    space = nl.build_space(points=[[0.0]], weights=[1.0])
    lam = nl.fit_power_lambda(space, 1.0)
    # single candidate radius 1, so the tight constant is measure/radius = 1
    assert lam(0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert lam(0, 2.0) == pytest.approx(2.0, rel=1e-12)


def test_fit_two_point_kappa_one(two_point):
    space, _ = two_point
    lam = nl.fit_power_lambda(space, 1.0)
    assert lam(0, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert lam.c_lambda == 2.0
    assert nl.validate_upper_doubling(space, lam).passed


def test_fit_auto_two_point(two_point):
    space, _ = two_point
    lam = nl.fit_power_lambda(space)
    # slope of log-measure against log-radius through (log .5, log 1), (log 1, log 2)
    assert lam.nu == pytest.approx(1.0, abs=1e-12)


def test_fit_existing_bypass(two_point):
    space, lam = two_point
    assert nl.fit_power_lambda(space, existing=lam) is lam


def test_fit_auto_degenerate_radii():
    space = nl.build_space(points=[[0.0]], weights=[1.0])
    with pytest.raises(DegenerateRadii):
        nl.fit_power_lambda(space)


def test_fit_rejects_powers_that_underflow():
    # radius ** 3 underflows to 0 at both radii (5e-151 and 1e-150)
    space = nl.build_space(points=[[0.0], [1e-150]], weights=[1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateRadii, match="float range"):
            nl.fit_power_lambda(space, 3.0)
        lam = nl.fit_power_lambda(space, 0.5)
    assert np.isfinite(lam(0, 1e-150))


def test_ladder_rejects_tau_at_most_one(two_point):
    space, _ = two_point
    for tau in (1.0, 0.5, -2.0, float("nan")):
        with pytest.raises(InvalidParams, match="tau must exceed 1"):
            space.balls().ladder(tau)
        with pytest.raises(InvalidParams, match="tau must exceed 1"):
            space.balls().run_ends(tau)


def test_fit_domination_slack():
    rng = np.random.default_rng(11)
    space = nl.build_space(points=rng.uniform(0, 1, (12, 1)),
                           weights=rng.uniform(0.1, 5.0, 12))
    lam = nl.fit_power_lambda(space)
    for c in range(space.n):
        for r in space.candidate_radii(c):
            mu = nl.ball_measure(space, nl.Ball(c, float(r)))
            assert mu <= lam(c, float(r)) * (1 + 1e-12)


# ------------------------------------------------------------------------------
# upper doubling / comparability validators
# ------------------------------------------------------------------------------
def test_upper_doubling_raw_measure_fails():
    space = nl.build_space(points=[[0.0], [1.0]], weights=[1.0, 1000.0])
    # mu(B(c, r)), broadcast over center and radius arrays
    lam = nl.DominatingFunction(
        lambda c, r: np.sum(space.weights * (space.dist[c] <= r[..., None]), axis=-1), c_lambda=2.0)
    report = nl.validate_upper_doubling(space, lam)
    assert not report.passed
    assert report.details["worst_half_radius_ratio"] == pytest.approx(1001.0)


def test_upper_doubling_constant_lambda(two_point):
    space, _ = two_point
    lam = nl.DominatingFunction(lambda c, r: space.total_measure, c_lambda=1.0)
    report = nl.validate_upper_doubling(space, lam)
    assert report.passed
    assert report.details["required_c_lambda"] == pytest.approx(1.0)


def test_comparability_center_independent(two_point):
    space, lam = two_point
    report = nl.validate_lambda_comparability(space, lam)
    assert report.passed
    assert report.value == pytest.approx(1.0)


def test_comparability_weighted_failure(two_point):
    space, _ = two_point
    w = np.array([1.0, 10.0])
    lam = nl.DominatingFunction(lambda c, r: w[c] * r, c_lambda=2.0)
    report = nl.validate_lambda_comparability(space, lam)
    assert not report.passed
    assert report.value == pytest.approx(10.0)


def test_comparability_singleton_vacuous():
    space = nl.build_space(points=[[0.0]], weights=[1.0])
    lam = nl.fit_power_lambda(space, 1.0)
    report = nl.validate_lambda_comparability(space, lam)
    assert report.passed
    assert report.value == pytest.approx(1.0)


# ------------------------------------------------------------------------------
# weak reverse doubling
# ------------------------------------------------------------------------------
def test_weak_reverse_doubling_linear(two_point):
    space, _ = two_point
    lam = nl.fit_power_lambda(space, 1.0)
    report = nl.validate_weak_reverse_doubling(lam, space, 1.0, (2.0,))
    row = report.details["rows"][0]
    assert report.passed
    assert row["c_a"] == pytest.approx(2.0, rel=1e-12)
    assert row["partial_sum"] == pytest.approx(1.0, abs=2e-6)


def test_weak_reverse_doubling_quadratic(two_point):
    space, _ = two_point
    lam = nl.fit_power_lambda(space, 2.0)
    report = nl.validate_weak_reverse_doubling(lam, space, 0.25, (2.0,))
    row = report.details["rows"][0]
    assert row["c_a"] == pytest.approx(4.0, rel=1e-12)
    assert row["partial_sum"] == pytest.approx(1.0 / (4.0 ** 0.25 - 1.0), abs=2e-6)


def test_weak_reverse_doubling_constant_diverges(two_point):
    space, _ = two_point
    lam = nl.DominatingFunction(lambda c, r: 2.0, c_lambda=1.0)
    report = nl.validate_weak_reverse_doubling(lam, space, 1.0, (2.0,))
    assert not report.passed
    assert not report.details["rows"][0]["converged"]


# ------------------------------------------------------------------------------
# geometry profile
# ------------------------------------------------------------------------------
def test_beta_monotone_in_alpha(two_point):
    space, lam = two_point
    profile = nl.make_profile(space, lam)
    values = [profile.beta(a) for a in (2.0, 5.0, 6.0, 30.0)]
    assert values == sorted(values)


def test_beta_singleton_constant():
    space = nl.build_space(points=[[0.0]], weights=[1.0])
    lam = nl.fit_power_lambda(space, 0.0)
    profile = nl.make_profile(space, lam)
    assert profile.N0 == 1
    assert profile.nu == 0.0
    for a in (2.0, 5.0, 6.0, 30.0):
        assert profile.beta(a) == pytest.approx(3.0)


def test_profile_rejects_bad_counts():
    with pytest.raises(DimensionMismatch):
        nl.GeometryProfile(N0=0, nu=1.0)
