from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhslab as nl
from nhslab import geometry, lab
from nhslab.errors import NotNested
from nhslab.geometry import (
    Ball,
    floor_log,
    scale_index_array,
)


# ------------------------------------------------------------------------------
# Independent oracle: coefficient by direct summation of the definition
# ------------------------------------------------------------------------------
def coefficient_oracle(space, lam, inner: Ball, outer: Ball, tau: float) -> float:
    n = 0
    while tau ** n * inner.radius < outer.radius:
        n += 1
    k_min = -math.floor(math.log(2.0) / math.log(tau) + 1e-12)
    total = 1.0
    for k in range(k_min, n + 1):
        r = tau ** k * inner.radius
        mu = sum(float(space.weights[y]) for y in range(space.n)
                 if space.dist[inner.center, y] <= r)
        total += mu / lam(inner.center, r)
    return total


# ------------------------------------------------------------------------------
# ball primitives
# ------------------------------------------------------------------------------
def test_ball_measure_singleton():
    space = nl.build_space(points=[[0.0]], weights=[0.7])
    assert nl.ball_measure(space, Ball(0, 5.0)) == pytest.approx(0.7)


def test_ball_measure_two_point(two_point):
    space, _ = two_point
    assert nl.ball_measure(space, Ball(0, 0.5)) == 1.0
    assert nl.ball_measure(space, Ball(0, 1.0)) == 2.0


def test_ball_measure_strict_closed_semantics(two_point):
    space, _ = two_point
    assert nl.ball_measure(space, Ball(0, 1.0 - 1e-15)) == 1.0


def test_ball_requires_positive_radius():
    with pytest.raises(NotNested):
        Ball(0, 0.0)


# ------------------------------------------------------------------------------
# index helpers
# ------------------------------------------------------------------------------
def test_floor_log_exact_power():
    assert floor_log(2.0) == 1
    assert floor_log(6.0) == 0
    assert floor_log(1.5) == 1
    assert floor_log(2.0 ** 0.5) == 2


@pytest.mark.parametrize("r_in,r_out,expected", [
    (1.0, 1.0, 0),
    (1.0, 4.0, 2),
    (1.0, 4.0000001, 3),
    (0.5, 1.0, 1),
    (1.0, 0.5, 0),
])
def test_smallest_scale_index(r_in, r_out, expected):
    assert scale_index_array(2.0, r_in, r_out) == expected


def smallest_scale_index(tau: float, r_inner: float, r_outer: float) -> int:
    """The scalar scale index with Python's pow, which ``scale_index_array``
    replaced; at tau = 2 every power is exact, so the two agree."""
    if r_outer <= r_inner:
        return 0
    n = max(0, int(math.ceil(math.log(r_outer / r_inner) / math.log(tau) - 1e-12)))
    while tau ** n * r_inner < r_outer:
        n += 1
    while n > 0 and tau ** (n - 1) * r_inner >= r_outer:
        n -= 1
    return n


def test_scale_index_array_matches_scalar():
    rng = np.random.default_rng(5)
    inner = rng.uniform(0.01, 2.0, 40)
    outer = rng.uniform(0.01, 8.0, 40)
    outer = np.maximum(outer, inner)
    got = scale_index_array(2.0, inner, outer)
    want = [smallest_scale_index(2.0, float(a), float(b)) for a, b in zip(inner, outer)]
    assert list(got) == want


def _scale_index_by_powers(tau: float, inner, outer) -> np.ndarray:
    """``scale_index_array`` as it was before it read one table of powers:
    ``tau ** n`` with an integer-array exponent at every correction step."""
    inner, outer = np.asarray(inner, dtype=float), np.asarray(outer, dtype=float)
    n = np.maximum(np.ceil(np.log(np.maximum(outer / inner, 1.0)) / math.log(tau) - 1e-12).astype(np.int64), 0)
    for _ in range(2):
        n = n + (tau ** n * inner < outer)
        n = n - ((n > 0) & (tau ** np.maximum(n - 1, 0) * inner >= outer))
    return n


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1.1, 1.5, 2.0, 3.0, 6.0, 6.0 ** (1.0 / 3.0)]), st.data())
def test_scale_index_array_equals_the_per_step_power_oracle(tau, data):
    # outer radii at ratios 10**e up to 1e308, where tau**(n + 1) overflows to
    # inf, and exact ties outer = inner * tau**k; inner radii from 1e-300 to 1
    size = data.draw(st.integers(1, 24))
    inner = 10.0 ** np.array(data.draw(st.lists(st.floats(-300.0, 0.0), min_size=size, max_size=size)))
    ratio = 10.0 ** np.array(data.draw(st.lists(st.floats(-1.0, 308.0), min_size=size, max_size=size)))
    k = np.array(data.draw(st.lists(st.integers(0, 60), min_size=size, max_size=size)))
    for outer in (inner * ratio, inner * tau ** k, np.maximum(inner * ratio, inner)):
        with np.errstate(over="ignore"):
            got, want = scale_index_array(tau, inner, outer), _scale_index_by_powers(tau, inner, outer)
            scalar = scale_index_array(tau, inner[0], outer[0])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert scalar == want[0]


# ------------------------------------------------------------------------------
# discrete coefficient
# ------------------------------------------------------------------------------
def test_coefficient_equal_balls(two_point):
    space, lam = two_point
    value = nl.discrete_coefficient(space, lam, Ball(0, 1.0), Ball(0, 1.0), 2.0)
    assert value.N == 0
    assert value.value == pytest.approx(2.5, rel=1e-12)


def test_coefficient_hand_value(two_point):
    space, lam = two_point
    value = nl.discrete_coefficient(space, lam, Ball(0, 1.0), Ball(0, 4.0), 2.0)
    assert value.N == 2
    assert value.value == pytest.approx(3.25, rel=1e-12)
    assert value.value == pytest.approx(
        coefficient_oracle(space, lam, Ball(0, 1.0), Ball(0, 4.0), 2.0), rel=1e-12)


def test_coefficient_terms_in_unit_interval(small_space):
    space, lam = small_space
    value = nl.discrete_coefficient(space, lam, Ball(2, 0.1), Ball(2, 0.9), 2.0)
    for term in value.terms:
        assert 0.0 <= term <= 1.0 + 1e-12


def test_coefficient_not_nested(two_point):
    space, lam = two_point
    with pytest.raises(NotNested):
        nl.discrete_coefficient(space, lam, Ball(0, 2.0), Ball(0, 1.0), 2.0)
    with pytest.raises(NotNested):
        nl.discrete_coefficient(space, lam, Ball(0, 1.0), Ball(1, 1.0 - 1e-12), 2.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 1.0), st.floats(1.0, 8.0), st.sampled_from([1.5, 2.0, 3.0, 6.0]))
def test_coefficient_at_least_one(small_space, r_inner, factor, tau):
    space, lam = small_space
    inner = Ball(0, r_inner)
    outer = Ball(0, r_inner * factor)
    value = nl.discrete_coefficient(space, lam, inner, outer, tau)
    assert value.value >= 1.0


def test_coefficient_outer_monotone(small_space):
    space, lam = small_space
    inner = Ball(3, 0.2)
    prev = -np.inf
    for r_out in (0.2, 0.4, 0.8, 1.6, 3.2):
        value = nl.discrete_coefficient(space, lam, inner, Ball(3, r_out), 2.0).value
        assert value >= prev
        prev = value


# ------------------------------------------------------------------------------
# doubling search
# ------------------------------------------------------------------------------
def test_smallest_doubling_ball_fixed_point(two_point):
    space, lam = two_point
    profile = nl.make_profile(space, lam)
    ball = Ball(0, 2.0)  # saturated: enlarging changes nothing
    found = nl.smallest_doubling_ball(space, profile, ball, 2.0)
    assert found.radius == ball.radius


def test_smallest_doubling_ball_linear_scan_oracle():
    space = nl.build_space(points=[[0.0], [1.0]], weights=[1.0, 100.0])
    lam = nl.fit_power_lambda(space, 1.0)
    profile = nl.GeometryProfile(N0=2, nu=lam.nu)
    alpha = 2.0
    beta = profile.beta(alpha)
    ball = Ball(0, 0.6)
    found = nl.smallest_doubling_ball(space, profile, ball, alpha)
    i = round(math.log(found.radius / ball.radius) / math.log(alpha))
    # replay the scan: every smaller exponent must fail the doubling test
    for j in range(i):
        b = Ball(0, alpha ** j * ball.radius)
        assert nl.ball_measure(space, b.scaled(alpha)) > beta * nl.ball_measure(space, b)
    b = Ball(0, alpha ** i * ball.radius)
    assert nl.ball_measure(space, b.scaled(alpha)) <= beta * nl.ball_measure(space, b)


def test_weak_doubling_index_two_point():
    space = nl.build_space(points=[[0.0], [1.0]], weights=[1.0, 100.0])
    lam = nl.fit_power_lambda(space, 1.0)
    profile = nl.make_profile(space, lam)
    report = nl.validate_weak_doubling(space, lam, profile, 2.0)
    # cross-check against the scalar search on every candidate ball
    worst = 0
    for c in range(space.n):
        for r in space.candidate_radii(c):
            found = nl.smallest_doubling_ball(space, profile, Ball(c, float(r)), 2.0)
            worst = max(worst, round(math.log(found.radius / r) / math.log(2.0)))
    assert report.value == worst


# ------------------------------------------------------------------------------
# coefficient inequality suite
# ------------------------------------------------------------------------------
@pytest.mark.parametrize("tau", [1.1, 1.5, 6.0 ** 0.25])
@pytest.mark.parametrize("points", [[[0.0]], [[0.0], [1.0]]])
def test_coefficient_inequalities_on_short_ladders(points, tau):
    # the 6-fold enlargement of the bounded-enlargement pass has a scale index
    # above 4, past the saturation depth of a one- or two-point space
    space = nl.build_space(points=points, weights=[1.0] * len(points))
    lam = nl.fit_power_lambda(space, 1.0)
    report = nl.check_coefficient_inequalities(space, lam, (tau, 6.0), 100)
    assert report.passed
    bounded = report.details["bounded_enlargement_max"]
    assert 1.0 <= bounded["2.0"] <= bounded["6.0"] < math.inf


def test_coefficient_inequalities_exact_parts(grid16):
    space, lam = grid16
    report = nl.check_coefficient_inequalities(space, lam, (2.0, 6.0), 800, seed=1)
    assert report.passed
    assert report.details["outer_monotone_exact"]
    assert report.details["at_least_one_exact"]
    assert report.details["cross_step_ratio_min"] > 0
    assert report.details["cross_step_ratio_max"] >= report.details["cross_step_ratio_min"]
    assert report.details["bounded_enlargement_max"]["2.0"] <= \
        report.details["bounded_enlargement_max"]["6.0"]


def test_cross_ratio_band_brute_force(two_point):
    space, lam = two_point
    # all concentric pairs on the two-point space, both dilation steps
    ratios = []
    for c in range(space.n):
        radii = list(space.candidate_radii(c))
        for i, r1 in enumerate(radii):
            for r2 in radii[i:]:
                k2 = coefficient_oracle(space, lam, Ball(c, r1), Ball(c, r2), 2.0)
                k6 = coefficient_oracle(space, lam, Ball(c, r1), Ball(c, r2), 6.0)
                ratios.append(k2 / k6)
    assert min(ratios) > 0
    assert max(ratios) < 10


# ------------------------------------------------------------------------------
# chain inequality
# ------------------------------------------------------------------------------
def test_chain_single_link_trivial(grid16):
    space, lam = grid16
    chains = [(8, float(space.candidate_radii(8)[0]), [0, 4])]
    report = nl.check_coefficient_chain_bound(space, lam, 2.0, chains)
    # single link: either it qualifies and passes, or it is skipped
    assert report.passed
    assert report.details["qualifying"] == report.details["passing"]


def test_chain_no_qualifying_vacuous(two_point):
    space, lam = two_point
    chains = [(0, 1.0, [0, 1])]  # tiny link coefficient, below the threshold
    report = nl.check_coefficient_chain_bound(space, lam, 2.0, chains)
    assert report.passed
    assert report.details["qualifying"] == 0
    assert report.details["skipped"] == 1


def test_generated_chains_pass_with_oracle(grid64):
    space, lam = grid64
    chains = lab.generate_chains(space, lam, 2.0, 25, seed=3)
    assert len(chains) == 25
    report = nl.check_coefficient_chain_bound(space, lam, 2.0, chains)
    assert report.passed
    assert report.details["qualifying"] == 25
    threshold = 3 + floor_log(2.0)
    center, base, exps = chains[0]
    links = [coefficient_oracle(space, lam, Ball(center, 2.0 ** exps[i] * base),
                                Ball(center, 2.0 ** exps[i + 1] * base), 2.0)
             for i in range(len(exps) - 1)]
    total = coefficient_oracle(space, lam, Ball(center, 2.0 ** exps[0] * base),
                               Ball(center, 2.0 ** exps[-1] * base), 2.0)
    assert all(v > threshold for v in links)
    assert sum(links) < threshold * total


# ------------------------------------------------------------------------------
# doubling coefficient record
# ------------------------------------------------------------------------------
def test_doubling_coefficient_bound_singleton():
    space = nl.build_space(points=[[0.0]], weights=[1.0])
    lam = nl.fit_power_lambda(space, 1.0)
    profile = nl.make_profile(space, lam)
    report = nl.check_doubling_coefficient_bound(space, lam, profile, 6.0)
    # every ball is doubling, so the value is a zero-exponent coefficient
    oracle = coefficient_oracle(space, lam, Ball(0, 1.0), Ball(0, 1.0), 6.0)
    assert report.value == pytest.approx(oracle, rel=1e-12)


def test_doubling_coefficient_bound_matches_scan(small_space):
    space, lam = small_space
    profile = nl.make_profile(space, lam)
    report = nl.check_doubling_coefficient_bound(space, lam, profile, 6.0)
    worst = 0.0
    for c in range(space.n):
        for r in space.candidate_radii(c):
            found = nl.smallest_doubling_ball(space, profile, Ball(c, float(r)), 6.0)
            worst = max(worst, coefficient_oracle(space, lam, Ball(c, float(r)), found, 6.0))
    assert report.value == pytest.approx(worst, rel=1e-9)
