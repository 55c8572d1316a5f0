from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest

import nhslab as nl
from nhslab import geometry, lab, spaces
from nhslab.errors import InvalidExponent, ZeroNorm
from nhslab.geometry import Ball
from test_family import weight_psi


# ------------------------------------------------------------------------------
# Independent oracle: Campanato suprema by full enumeration with primitives
# ------------------------------------------------------------------------------
def campanato_oracle(space, lam, f, psi, tau, gamma):
    f = np.asarray(f, dtype=float)
    balls = [Ball(c, float(r)) for c in range(space.n)
             for r in space.candidate_radii(c)]
    osc = 0.0
    for b in balls:
        mask = space.dist[b.center] <= b.radius
        m = nl.ball_mean(space, f, b)
        num = float(np.sum(np.abs(f[mask] - m) * space.weights[mask]))
        den = psi(b.center, b.radius) * nl.ball_measure(space, b.scaled(tau))
        osc = max(osc, num / den)
    reg = 0.0
    for b1 in balls:
        mask1 = space.dist[b1.center] <= b1.radius
        for b2 in balls:
            if b2.radius < b1.radius:
                continue
            if np.any(mask1 & ~(space.dist[b2.center] <= b2.radius)):
                continue
            coeff = nl.discrete_coefficient(space, lam, b1, b2, tau).value
            val = abs(nl.ball_mean(space, f, b1) - nl.ball_mean(space, f, b2)) \
                / (psi(b1.center, b1.radius) * coeff ** gamma)
            reg = max(reg, val)
    return osc, reg


# ------------------------------------------------------------------------------
# ball means
# ------------------------------------------------------------------------------
def test_ball_mean_constant(two_point):
    space, _ = two_point
    assert nl.ball_mean(space, np.array([3.3, 3.3]), Ball(0, 1.0)) == pytest.approx(3.3)


def test_ball_mean_examples(two_point):
    space, _ = two_point
    f = np.array([0.0, 1.0])
    assert nl.ball_mean(space, f, Ball(0, 1.0)) == pytest.approx(0.5)
    weighted = nl.build_space(points=[[0.0], [1.0]], weights=[1.0, 3.0])
    assert nl.ball_mean(weighted, f, Ball(0, 1.0)) == pytest.approx(0.75)


# ------------------------------------------------------------------------------
# Morrey norm
# ------------------------------------------------------------------------------
def test_morrey_zero(two_point, psi_const):
    space, _ = two_point
    phi = spaces.power_phi(1.0)
    assert nl.morrey_norm(space, np.zeros(2), 2.0, phi, 2.0) == 0.0


def test_morrey_singleton_value():
    space = nl.build_space(points=[[0.0]], weights=[1.0])
    phi = spaces.power_phi(1.0)
    v = -2.5
    # single ball of radius 1, measure of any enlargement is 1
    expected = abs(v) * phi(0, 1.0) ** (-0.5)
    assert nl.morrey_norm(space, np.array([v]), 2.0, phi, 3.0) == pytest.approx(expected, rel=1e-12)


def test_morrey_homogeneity_and_triangle(small_space):
    space, _ = small_space
    phi = spaces.power_phi(0.5)
    rng = np.random.default_rng(0)
    f = rng.uniform(-1, 1, space.n)
    g = rng.uniform(-1, 1, space.n)
    base = nl.morrey_norm(space, f, 2.0, phi, 2.0)
    assert nl.morrey_norm(space, -3.0 * f, 2.0, phi, 2.0) == pytest.approx(3.0 * base, rel=1e-12)
    lhs = nl.morrey_norm(space, f + g, 2.0, phi, 2.0)
    rhs = base + nl.morrey_norm(space, g, 2.0, phi, 2.0)
    assert lhs <= rhs * (1 + 1e-12)


def test_morrey_invalid_exponent(two_point):
    space, _ = two_point
    with pytest.raises(InvalidExponent):
        nl.morrey_norm(space, np.zeros(2), 0.5, spaces.power_phi(1.0), 2.0)


def test_morrey_witness(two_point):
    space, _ = two_point
    value, witness = nl.morrey_norm(space, np.array([0.0, 1.0]), 2.0,
                                    spaces.power_phi(1.0), 2.0, with_witness=True)
    assert value > 0
    assert set(witness) == {"center", "radius"}


# ------------------------------------------------------------------------------
# Campanato norm
# ------------------------------------------------------------------------------
def test_campanato_constant_zero(two_point, psi_const):
    space, lam = two_point
    report = nl.campanato_norm(space, lam, np.array([4.0, 4.0]), psi_const)
    assert report.norm <= 1e-12 * 4.0
    assert report.oscillation_sup <= 1e-12 * 4.0
    assert report.regularity_sup <= 1e-12 * 4.0


def test_campanato_two_point_hand_values(two_point, psi_const):
    space, lam = two_point
    report = nl.campanato_norm(space, lam, np.array([0.0, 1.0]), psi_const, 2.0, 1.0)
    assert report.oscillation_sup == pytest.approx(0.5, rel=1e-12)
    assert report.regularity_sup == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert report.norm == pytest.approx(0.5, rel=1e-12)


def test_campanato_affine_invariance(small_space, psi_const):
    space, lam = small_space
    rng = np.random.default_rng(2)
    f = rng.uniform(-1, 1, space.n)
    base = nl.campanato_norm(space, lam, f, psi_const).norm
    scaled = nl.campanato_norm(space, lam, -2.5 * f + 7.0, psi_const).norm
    assert scaled == pytest.approx(2.5 * base, rel=1e-12)


def test_campanato_budgeted_equals_exhaustive_small(small_space, psi_const):
    space, lam = small_space
    rng = np.random.default_rng(4)
    f = rng.uniform(-1, 1, space.n)
    for tau, gamma in ((2.0, 1.0), (3.0, 2.0)):
        report = nl.campanato_norm(space, lam, f, psi_const, tau, gamma)
        osc, reg = campanato_oracle(space, lam, f, psi_const, tau, gamma)
        assert report.oscillation_sup == osc
        assert report.regularity_sup == reg


def test_campanato_fast_path_matches_exhaustive(small_space, psi_const):
    space, lam = small_space
    rng = np.random.default_rng(9)
    f = rng.uniform(-1, 1, space.n)
    exh = nl.campanato_norm(space, lam, f, psi_const)
    with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", 0):
        fast = nl.campanato_norm(space, lam, f, psi_const, pair_budget=30000)
    assert fast.norm == pytest.approx(exh.norm, rel=1e-12)


def test_campanato_reports_exhaustive_pairs(small_space, psi_const):
    space, lam = small_space
    f = np.random.default_rng(5).uniform(-1, 1, space.n)
    report = nl.campanato_norm(space, lam, f, psi_const)
    assert len(space.balls()) ** 2 <= geometry.EXHAUSTIVE_PAIR_LIMIT
    assert report.pairs == "exhaustive"
    assert report.pair_count == nl.geometry.nested_pairs(space)[0].size


def test_campanato_reports_ladder_and_sampled_pairs(small_space, psi_const):
    space, lam = small_space
    f = np.random.default_rng(5).uniform(-1, 1, space.n)
    with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", 0):
        report = nl.campanato_norm(space, lam, f, psi_const, 3.0, pair_budget=40)
    assert report.pairs == "ladder_and_sampled"
    # each ball B is paired with 3**k B for k = 1 .. one past its saturation depth
    ladder = sum(int(nl.mmspace.scale_index_array(3.0, r, max(space.diameter, radii[0]))) + 1
                 for radii in (space.candidate_radii(c) for c in range(space.n)) for r in radii)
    sample = nl.geometry.sampled_nested_pairs(space, 40, 0)
    assert 0 < len(sample) < 40
    assert report.pair_count == ladder + len(sample)


def test_campanato_term_monotonicity(two_point, psi_const):
    space, lam = two_point
    f = np.array([0.0, 1.0])
    # oscillation term is nonincreasing in tau at a fixed witness ball
    b = Ball(0, 1.0)
    mask = space.dist[b.center] <= b.radius
    num = float(np.sum(np.abs(f[mask] - nl.ball_mean(space, f, b)) * space.weights[mask]))
    for tau1, tau2 in ((1.5, 2.0), (2.0, 6.0)):
        t1 = num / nl.ball_measure(space, b.scaled(tau1))
        t2 = num / nl.ball_measure(space, b.scaled(tau2))
        assert t2 <= t1
    # regularity term is nonincreasing in gamma at a fixed pair
    inner, outer = Ball(0, 0.5), Ball(0, 1.0)
    coeff = nl.discrete_coefficient(space, lam, inner, outer, 2.0).value
    jump = abs(nl.ball_mean(space, f, inner) - nl.ball_mean(space, f, outer))
    assert jump / coeff ** 2.0 <= jump / coeff ** 1.0


def test_campanato_invalid_parameters(two_point, psi_const):
    space, lam = two_point
    with pytest.raises(InvalidExponent):
        nl.campanato_norm(space, lam, np.zeros(2), psi_const, tau=1.0)
    with pytest.raises(InvalidExponent):
        nl.campanato_norm(space, lam, np.zeros(2), psi_const, gamma=0.5)


# ------------------------------------------------------------------------------
# p-oscillation norm
# ------------------------------------------------------------------------------
def test_p_oscillation_constant_zero(small_space, psi_const):
    space, _ = small_space
    assert nl.p_oscillation_norm(space, np.full(space.n, 2.0), psi_const, 2.0, 2.0) == 0.0


def test_p_oscillation_jensen_on_saturated_ball(small_space, psi_const):
    space, _ = small_space
    rng = np.random.default_rng(6)
    f = rng.uniform(-1, 1, space.n)
    c = 0
    r = float(space.candidate_radii(c)[-1])  # saturated: tau*B = B
    b = Ball(c, r)
    mask = space.dist[c] <= r
    w = space.weights[mask]
    m = nl.ball_mean(space, f, b)
    mu = float(np.sum(w))
    one_osc = float(np.sum(np.abs(f[mask] - m) * w)) / mu
    two_osc = (float(np.sum((f[mask] - m) ** 2 * w)) / mu) ** 0.5
    assert one_osc <= two_osc * (1 + 1e-12)


def test_p_oscillation_direct_vs_enumeration(small_space, psi_const):
    space, _ = small_space
    rng = np.random.default_rng(8)
    f = rng.uniform(-1, 1, space.n)
    got = nl.p_oscillation_norm(space, f, psi_const, 2.0, 2.0)
    best = 0.0
    for c in range(space.n):
        for r in space.candidate_radii(c):
            b = Ball(c, float(r))
            mask = space.dist[c] <= r
            m = nl.ball_mean(space, f, b)
            mu_tau = nl.ball_measure(space, b.scaled(2.0))
            val = (float(np.sum(np.abs(f[mask] - m) ** 2 * space.weights[mask])) / mu_tau) ** 0.5
            best = max(best, val / psi_const(c, float(r)))
    assert got == pytest.approx(best, rel=1e-12)


def test_p_oscillation_fourth_power_affine_invariance(grid64, psi_const):
    # the p = 4 sums carry the third central moment, which changes sign with
    # the scale, so c < 0 catches an update that loses that sign (one taking
    # an absolute value, say); a slipped coefficient keeps the sums
    # homogeneous, and the exact-sum property in test_family catches it
    # instead
    space, _ = grid64
    f = lab.generate_functions(space, "random_bounded", 1, 7)[0]
    c, d = -2.5, 1.75
    base = nl.p_oscillation_norm(space, f, psi_const, 4.0, 2.0)
    aff = nl.p_oscillation_norm(space, c * f + d, psi_const, 4.0, 2.0)
    assert abs(aff - abs(c) * base) <= 1e-12 * abs(c) * base


def test_p_oscillation_zero_iff_constant(small_space, psi_const):
    space, _ = small_space
    f = np.zeros(space.n)
    f[3] = 1e-9
    assert nl.p_oscillation_norm(space, f, psi_const, 2.0, 2.0) > 0.0


# ------------------------------------------------------------------------------
# phi / psi validation
# ------------------------------------------------------------------------------
def test_phi_power_passes(small_space):
    space, _ = small_space
    report = nl.validate_phi_gdec(space, spaces.power_phi(1.0))
    assert report.passed
    assert report.details["limits"] == {"zero_radius": True, "infinite_radius": True}


def test_phi_constant_fails(small_space):
    space, _ = small_space
    report = nl.validate_phi_gdec(space, spaces.constant_phi())
    assert not report.passed
    assert not report.details["strictly_decreasing"]


def test_phi_shifted_power_fails_zero_limit(small_space):
    space, _ = small_space
    report = nl.validate_phi_gdec(space, spaces.shifted_power_phi(1.0))
    assert report.details["strictly_decreasing"]
    assert report.details["limits"]["zero_radius"] is False
    assert not report.passed


def test_phi_constants_match_exhaustive(small_space):
    space, _ = small_space
    phi = spaces.power_phi(0.25, delta=0.5)
    report = nl.validate_phi_gdec(space, phi, etas=(2.0,))
    lower, upper = report.details["eta_constants"]["2.0"]
    # independent enumeration of every nested pair
    balls = [Ball(c, float(r)) for c in range(space.n) for r in space.candidate_radii(c)]
    lo, hi = math.inf, -math.inf
    for b1 in balls:
        mask1 = space.dist[b1.center] <= b1.radius
        for b2 in balls:
            if b2.radius < b1.radius or np.any(mask1 & ~(space.dist[b2.center] <= b2.radius)):
                continue
            mu1 = nl.ball_measure(space, b1.scaled(2.0))
            mu2 = nl.ball_measure(space, b2.scaled(2.0))
            p1, p2 = phi(b1.center, b1.radius), phi(b2.center, b2.radius)
            lo = min(lo, (p1 * mu1 ** 0.5) / (p2 * mu2 ** 0.5))
            hi = max(hi, (p1 * mu1) / (p2 * mu2))
    assert lower == pytest.approx(lo, rel=1e-12)
    assert upper == pytest.approx(hi, rel=1e-12)


def test_phi_gdec_reports_its_pair_branch():
    # ten scattered points give 18 candidate balls per center, 180 in all,
    # so 180**2 exceeds EXHAUSTIVE_PAIR_LIMIT (20000) and pairs are sampled
    space = nl.build_space(points=np.random.default_rng(1).uniform(0.0, 1.0, (10, 1)),
                           weights=np.ones(10))
    phi = spaces.power_phi(1.0)
    sampled = nl.validate_phi_gdec(space, phi)
    assert len(space.balls()) == 180
    assert sampled.details["pairs"] == "concentric_and_sampled"
    assert sampled.details["pair_count"] > 0
    with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", 10 ** 6):
        full = nl.validate_phi_gdec(space, phi)
    assert full.details["pairs"] == "exhaustive"
    assert full.details["pair_count"] == nl.geometry.nested_pairs(space)[0].size


@pytest.mark.parametrize("generator", [{"kind": "grid", "d": 2, "n": 16},
                                       {"kind": "grid", "d": 1, "n": 256}])
def test_phi_constants_equal_every_concentric_pair_plus_the_pair_source(generator):
    # strided radii per center missed the lower constant of the 16x16 grid
    space = lab.generate_space(generator)
    phi = lab.make_phi(None)
    report = nl.validate_phi_gdec(space, phi, etas=(2.0, 5.0), pair_budget=500, seed=7)
    family, phit = space.balls(), space.fn_table(phi)
    b1, b2 = geometry.pair_source(space, 500, 7)
    assert report.details["pairs"] == "concentric_and_sampled"
    for eta in (2.0, 5.0):
        mu = family.measures(eta)

        def bounds(i, j):
            lower = (phit[i] * mu[i] ** phi.delta) / (phit[j] * mu[j] ** phi.delta)
            upper = (phit[i] * mu[i]) / (phit[j] * mu[j])
            return [np.min(lower, initial=math.inf), np.max(upper, initial=-math.inf)]
        want, count = bounds(b1, b2), b1.size
        for c in range(space.n):
            s = family.segment(c)
            i, j = np.triu_indices(s.stop - s.start, 1)
            lower, upper = bounds(s.start + i, s.start + j)
            want, count = [min(want[0], lower), max(want[1], upper)], count + i.size
        assert report.details["eta_constants"][str(eta)] == want
        assert report.details["pair_count"] == count


def test_psi_constant_unit(small_space, psi_const):
    space, _ = small_space
    report = nl.validate_psi(space, psi_const)
    assert report.passed
    assert report.value == pytest.approx(1.0)


def test_psi_lambda_power_doubling_constant(two_point):
    space, _ = two_point
    lam = nl.fit_power_lambda(space, 1.0)
    psi = spaces.lambda_power_psi(lam, 0.5)
    report = nl.validate_psi(space, psi)
    assert report.value == pytest.approx(2.0 ** 0.5, rel=1e-12)


def test_psi_weight_comparability_blows_up():
    space = nl.build_space(points=[[0.0], [1.0]], weights=[1.0, 50.0])
    psi = weight_psi(space)
    report = nl.validate_psi(space, psi)
    assert report.value == pytest.approx(50.0)
    assert report.worst_witness["kind"] == "comparability"


# ------------------------------------------------------------------------------
# oscillation distribution
# ------------------------------------------------------------------------------
def test_jn_distribution_bounds_and_steps(small_space, psi_const):
    space, _ = small_space
    rng = np.random.default_rng(12)
    f = rng.uniform(-1, 1, space.n)
    ball = Ball(0, float(space.candidate_radii(0)[-1]))
    rep = nl.jn_distribution(space, f, psi_const, ball, 2.0)
    assert bool(np.all(np.diff(rep.distribution) <= 1e-15))
    assert rep.distribution[0] <= nl.ball_measure(space, ball)
    assert rep.distribution[0] <= 2.0 * rep.mu_tau_ball
    # pointwise recount oracle at every grid value
    members = nl.ball_members(space, ball)
    devs = np.abs(f[members] - nl.ball_mean(space, f, ball)) / psi_const(0, ball.radius)
    for t, v in zip(rep.t_values, rep.distribution):
        assert v == pytest.approx(float(np.sum(space.weights[members][devs > t])), abs=1e-14)
    # beyond the largest deviation the distribution vanishes
    assert rep.distribution[-1] == 0.0


def test_jn_distribution_zero_norm(two_point, psi_const):
    space, _ = two_point
    with pytest.raises(ZeroNorm):
        nl.jn_distribution(space, np.ones(2), psi_const, Ball(0, 1.0), 2.0)


# ------------------------------------------------------------------------------
# mean jumps
# ------------------------------------------------------------------------------
def test_mean_jumps_constant_function(small_space, psi_const):
    space, lam = small_space
    report = nl.check_mean_jump_bounds(space, lam, np.full(space.n, 5.0), psi_const)
    assert report.details["constant_function"]
    assert report.value == 0.0


def test_mean_jumps_k_one_degenerate(small_space, psi_const):
    space, lam = small_space
    rng = np.random.default_rng(13)
    f = rng.uniform(-1, 1, space.n)
    report = nl.check_mean_jump_bounds(space, lam, f, psi_const, k_values=(1.0, 2.0))
    assert report.details["per_k"]["1.0"] == 0.0


def test_mean_jumps_deterministic(grid16, psi_const):
    space, lam = grid16
    f = lab.generate_functions(space, "random_bounded", 1, 42)[0]
    r1 = nl.check_mean_jump_bounds(space, lam, f, psi_const, seed=5)
    r2 = nl.check_mean_jump_bounds(space, lam, f, psi_const, seed=5)
    assert r1.details == r2.details


# ------------------------------------------------------------------------------
# equivalence experiment
# ------------------------------------------------------------------------------
def test_equivalence_skips_constants(small_space, psi_const):
    space, lam = small_space
    fs = [np.ones(space.n), np.zeros(space.n)]
    report = nl.equivalence_experiment(space, lam, psi_const, fs)
    assert report.details["functions_skipped"] == 2
    assert report.details["bands"] == {}


def test_equivalence_band_contains_gamma_monotone_ratio(small_space, psi_const):
    space, lam = small_space
    fs = lab.generate_functions(space, "random_bounded", 3, 1)
    report = nl.equivalence_experiment(space, lam, psi_const, fs)
    bands = report.details["bands"]
    lo, hi = bands["tau2_gamma1_vs_tau2_gamma2"]
    # the gamma=2 norm never exceeds the gamma=1 norm (coefficients are >= 1)
    assert lo >= 1.0 - 1e-12
    assert hi >= lo
