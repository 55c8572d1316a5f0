from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

import nhslab as nl
from nhslab import geometry, lab, operators, spaces
from nhslab.errors import (
    InvalidParams,
    NonMonotoneTheta,
    NotNormalized,
    ZeroNormB,
)
from nhslab.geometry import Ball
from nhslab.operators import OperatorParams, power_theta


# ------------------------------------------------------------------------------
# Independent oracle: truncation integral by adaptive quadrature
# ------------------------------------------------------------------------------
def marcinkiewicz_quadrature(space, kernel, f, x, params, b=None):
    f = np.asarray(f, dtype=float)
    row = space.dist[x]
    sel = (row > 0) & (f != 0)
    if not sel.any():
        return 0.0
    ds = row[sel]
    contrib = kernel.matrix[x, sel] * f[sel] * space.weights[sel] / ds ** (1.0 - params.rho)
    if b is not None:
        contrib = contrib * (b[x] - np.asarray(b)[sel])
    exponent = params.l + params.rho

    def integrand(t: float) -> float:
        inner = float(np.sum(contrib[ds <= t]))
        return abs(inner / t ** exponent) ** params.s / t

    r = np.unique(ds)
    total = 0.0
    if r.size > 1:
        total += quad(integrand, r[0], r[-1], points=list(r), limit=400,
                      epsabs=1e-8, epsrel=1e-8)[0]
    total += quad(integrand, r[-1], np.inf, limit=400, epsabs=1e-8, epsrel=1e-8)[0]
    return total ** (1.0 / params.s)


def perturbed_kernel(space, lam, *, l=0.0, eps=0.1, seed=0):
    """The canonical kernel times 1 + eps * h, h uniform on [-1, 1] from
    ``seed``: a kernel off its envelope, with its size constant measured."""
    kernel = nl.make_kernel(space, lam, l=l)
    bound = kernel.matrix
    matrix = bound * (1.0 + eps * np.random.default_rng(seed).uniform(-1.0, 1.0, bound.shape))
    return dataclasses.replace(kernel, matrix=matrix, c_size=operators._size_constant(matrix, bound))


def random_instance(seed, n_max=16):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    space = nl.build_space(points=rng.uniform(0, 1, (n, 1)),
                           weights=rng.uniform(0.2, 2.0, n))
    lam = nl.fit_power_lambda(space)
    kernel = nl.make_kernel(space, lam)
    f = rng.uniform(-1, 1, n)
    x = int(rng.integers(n))
    return space, lam, kernel, f, x


# ------------------------------------------------------------------------------
# modulus integral
# ------------------------------------------------------------------------------
def zero_theta():
    def theta(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return theta


def constant_theta():
    def theta(t):
        return np.ones_like(np.asarray(t, dtype=float))

    return theta


def test_dini_identity_modulus():
    # theta(t) = t: the integral is the area under log(1/t), which is 1
    assert nl.dini_integral(power_theta(1.0)) == pytest.approx(1.0, abs=2e-8)


def test_dini_constant_diverges():
    assert nl.dini_integral(constant_theta()) == math.inf


def test_dini_zero():
    assert nl.dini_integral(zero_theta()) == 0.0


def test_dini_rejects_decreasing_modulus():
    with pytest.raises(NonMonotoneTheta):
        nl.dini_integral(lambda t: 1.0 / (1.0 + np.asarray(t)))


def _quad_dini(theta):
    """``dini_integral`` as it ran on ``scipy.integrate.quad``: the same
    dyadic pieces, tolerances and geometric-majorant exit, 60 levels."""
    def integrand(t):
        return float(theta(t)) / t * math.log(1.0 / t)

    total, pieces = 0.0, []
    for j in range(60):
        a, b = 2.0 ** (-(j + 1)), 2.0 ** (-j)
        piece, _ = quad(integrand, a, b, epsabs=1e-8 / 2.0 ** (j + 2), epsrel=1e-10, limit=200)
        pieces.append(piece)
        total += piece
        if j >= 2:
            recent = pieces[-3:]
            if max(recent) == 0.0:
                return total
            ratios = [recent[i + 1] / recent[i] for i in range(2) if recent[i] > 0]
            if ratios and max(ratios) < 0.95 and recent[1] > 0:
                r = max(ratios)
                if pieces[-1] * r / (1.0 - r) < 1e-8:
                    return total
    return math.inf


@pytest.mark.parametrize("theta", [
    power_theta(1.0),
    power_theta(2.0),
    lambda t: np.minimum(t, 0.3),
    # a jump inside the piece [1/4, 1/2]: the rule bisects towards it
    lambda t: np.where(np.asarray(t) >= 0.3, 1.5, 1.0) * np.asarray(t),
], ids=["t", "t^2", "min(t,0.3)", "step"])
def test_dini_matches_quadpack_dyadic_sum(theta):
    assert nl.dini_integral(theta) == pytest.approx(_quad_dini(theta), rel=0.0, abs=1e-10)


def test_dini_default_modulus_is_quadpack_value():
    # every piece of theta(t) = t passes on the whole interval, so each is
    # the K21 sum in qk21's order: bit for bit the value quad gave
    assert nl.dini_integral(power_theta(1.0)) == _quad_dini(power_theta(1.0))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_dini_bisection_stops_where_it_cannot_help():
    # a NaN estimate is accepted (and the NaN piece declares divergence, as
    # quad's NaN did); a 2**20-step staircase has more jumps than a piece's
    # GK_MAX_INTERVALS subintervals resolve, and stops there as quad's limit
    # does: the 21 pieces holding steps form at most about 3 * 200 intervals
    # each (without the limit, 458,752 are open at once)
    assert nl.dini_integral(lambda t: np.where(np.asarray(t) < 1e-3, np.nan, t)) == math.inf
    stairs = lambda t: np.floor(np.asarray(t) * 2.0 ** 20) / 2.0 ** 20
    with mock.patch.object(operators, "_gk21", wraps=operators._gk21) as rule:
        value = nl.dini_integral(stairs)
    formed = sum(call.args[1].size for call in rule.call_args_list)
    assert formed <= operators.DINI_LEVELS + 21 * 3 * operators.GK_MAX_INTERVALS
    assert value == pytest.approx(_quad_dini(stairs), rel=0.0, abs=1e-6)


@pytest.mark.parametrize("a", [0.5, 0.25])
def test_dini_slow_power_moduli_converge(a):
    # the integral of t**(a-1) log(1/t) over (0, 1] is 1/a**2; the geometric
    # majorant needs 66 levels at a = 0.5
    assert nl.dini_integral(power_theta(a)) == pytest.approx(1.0 / a ** 2, rel=0.0, abs=1e-7)
    space = lab.two_point_space()
    kernel = nl.make_kernel(space, lab.two_point_lambda(), theta=power_theta(a))
    assert kernel.dini_value == nl.dini_integral(power_theta(a))


@pytest.mark.parametrize("a", [0.5, 0.75, 2.0, 3.0])
def test_dini_power_moduli_within_stated_accuracy(a):
    # t**a is smooth on every dyadic piece, where the 1e-8 claim holds
    assert abs(nl.dini_integral(power_theta(a)) - 1.0 / a ** 2) <= 1e-8


def test_gauss_kronrod_nodes_and_exactness():
    x, w = np.polynomial.legendre.leggauss(10)
    assert np.allclose(np.sort(x[x > 0]), np.sort(operators.GK21_NODES[1:10:2]), rtol=0, atol=1e-15)
    assert np.allclose(np.sort(w[x > 0]), np.sort(operators.G10_WEIGHTS), rtol=0, atol=1e-15)
    # K21 integrates polynomials of degree 31 exactly (an infinite tolerance
    # accepts the rule on the whole interval)
    lo, hi = np.array([0.0, -1.0, 2.0]), np.array([1.0, 0.5, 3.0])
    exact = (hi ** 32 - lo ** 32) / 32.0
    got = operators.gauss_kronrod(lambda t: t ** 31, lo, hi, np.full(3, math.inf), 0.0)
    assert np.allclose(got, exact, rtol=1e-13, atol=0)
    # G10 is exact only to degree 19, so a tight tolerance bisects, and the
    # bisected value stays exact
    got = operators.gauss_kronrod(lambda t: t ** 31, lo, hi, np.zeros(3), 1e-13)
    assert np.allclose(got, exact, rtol=1e-13, atol=0)


def test_import_loads_no_scipy():
    """The Dini check integrates in NumPy, so the package imports no SciPy
    module; it does load numpy.random, which every run draws from."""
    env = dict(os.environ)
    src = str(Path(nl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nhslab; print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
         "print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


# ------------------------------------------------------------------------------
# kernels
# ------------------------------------------------------------------------------
def test_canonical_kernel_size_constant_exact(two_point):
    space, lam = two_point
    kernel = nl.make_kernel(space, lam)
    assert kernel.c_size == 1.0
    report = nl.validate_kernel(space, lam, kernel)
    assert report.details["c_size"] == 1.0


def test_zero_kernel_constants(two_point):
    space, lam = two_point
    canonical = nl.make_kernel(space, lam)
    matrix = 0.0 * canonical.matrix
    kernel = dataclasses.replace(canonical, matrix=matrix,
                                 c_size=operators._size_constant(matrix, canonical.matrix))
    report = nl.validate_kernel(space, lam, kernel)
    assert report.details["c_size"] == 0.0
    assert report.details["smoothness_difference"] == 0.0
    assert report.details["smoothness_sum"] == 0.0


def test_perturbed_kernel_constants_match_triple_enumeration():
    rng = np.random.default_rng(21)
    space = nl.build_space(points=rng.uniform(0, 1, (16, 1)),
                           weights=rng.uniform(0.5, 1.5, 16))
    lam = nl.fit_power_lambda(space)
    kernel = perturbed_kernel(space, lam, eps=0.3, seed=5)
    report = nl.validate_kernel(space, lam, kernel)
    lam_mat = space.pair_table(lam)
    c_size = 0.0
    smooth_diff = 0.0
    smooth_sum = 0.0
    n = space.n
    for x in range(n):
        for y in range(n):
            d = space.dist[x, y]
            if d > 0:
                c_size = max(c_size, abs(kernel.matrix[x, y])
                             / (d ** (1 + kernel.l) / lam_mat[x, y]))
    for x in range(n):
        for z in range(n):
            dxz = space.dist[x, z]
            if x == z or dxz <= 0:
                continue
            for y in range(n):
                dxy = space.dist[x, y]
                if y in (x, z) or dxy <= 0 or dxy < dxz / 2.0:
                    continue
                rhs = float(kernel.theta(dxz / dxy)) * dxz ** (1 + kernel.l) / lam_mat[x, y]
                if rhs <= 0:
                    continue
                row = abs(kernel.matrix[x, y] - kernel.matrix[z, y])
                col = abs(kernel.matrix[y, x] - kernel.matrix[y, z])
                smooth_diff = max(smooth_diff, max(row - col, 0.0) / rhs)
                smooth_sum = max(smooth_sum, (row + col) / rhs)
    assert report.details["c_size"] == pytest.approx(c_size, rel=1e-12)
    assert report.details["smoothness_difference"] == pytest.approx(smooth_diff, rel=1e-12)
    assert report.details["smoothness_sum"] == pytest.approx(smooth_sum, rel=1e-12)


def test_default_modulus_is_integrated_once_per_process():
    """Default kernels share one integral of theta(t) = t; an explicit
    modulus is integrated, and its monotonicity checked, on every call."""
    integrations = []
    real = operators.gauss_kronrod

    def counted(*args):
        integrations.append(None)
        return real(*args)
    spaces_ = [lab.two_point_space(), lab.generate_space({"kind": "grid", "d": 1, "n": 8})]
    operators._linear_dini.cache_clear()
    with mock.patch.object(operators, "gauss_kronrod", counted):
        kernels = [nl.make_kernel(s, nl.fit_power_lambda(s, 1.0)) for s in spaces_]
        assert len(integrations) == 1
        assert kernels[0].dini_value == kernels[1].dini_value == nl.dini_integral(power_theta(1.0))
        for s in spaces_:
            explicit = nl.make_kernel(s, nl.fit_power_lambda(s, 1.0), theta=power_theta(1.0))
            assert explicit.dini_value == kernels[0].dini_value
        assert len(integrations) == 4
        for s in spaces_:
            with pytest.raises(NonMonotoneTheta):
                nl.make_kernel(s, nl.fit_power_lambda(s, 1.0), theta=lambda t: 1.0 / (1.0 + np.asarray(t)))


def test_kernel_rejects_divergent_modulus(two_point):
    space, lam = two_point
    with pytest.raises(InvalidParams):
        nl.make_kernel(space, lam, theta=constant_theta())


# ------------------------------------------------------------------------------
# potential operator
# ------------------------------------------------------------------------------
def test_potential_zero(two_point):
    space, lam = two_point
    assert np.all(nl.t_lambda(space, lam, np.zeros(2)) == 0)


def test_potential_hand_value(two_point):
    space, lam = two_point
    assert nl.t_lambda(space, lam, np.array([0.0, 1.0]), 0) == pytest.approx(0.5, rel=1e-12)


def test_potential_linearity(small_space):
    space, lam = small_space
    rng = np.random.default_rng(3)
    f = rng.uniform(-1, 1, space.n)
    g = rng.uniform(-1, 1, space.n)
    lhs = nl.t_lambda(space, lam, 2.0 * f - 3.0 * g)
    rhs = 2.0 * nl.t_lambda(space, lam, f) - 3.0 * nl.t_lambda(space, lam, g)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


# ------------------------------------------------------------------------------
# Marcinkiewicz integral
# ------------------------------------------------------------------------------
def test_marcinkiewicz_zero(two_point):
    space, lam = two_point
    kernel = nl.make_kernel(space, lam)
    assert np.all(nl.marcinkiewicz(space, kernel, np.zeros(2)) == 0)


def test_marcinkiewicz_hand_value(two_point):
    space, lam = two_point
    kernel = nl.make_kernel(space, lam)
    value = nl.marcinkiewicz(space, kernel, np.array([0.0, 1.0]), 0)
    assert value == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)


def test_marcinkiewicz_homogeneity(small_space):
    space, lam = small_space
    kernel = nl.make_kernel(space, lam)
    rng = np.random.default_rng(7)
    f = rng.uniform(-1, 1, space.n)
    base = nl.marcinkiewicz(space, kernel, f)
    scaled = nl.marcinkiewicz(space, kernel, -4.0 * f)
    assert np.allclose(scaled, 4.0 * base, rtol=1e-12)


def test_marcinkiewicz_matches_quadrature():
    params = OperatorParams()
    for seed in range(8):
        space, lam, kernel, f, x = random_instance(seed)
        closed = nl.marcinkiewicz(space, kernel, f, x, params)
        numeric = marcinkiewicz_quadrature(space, kernel, f, x, params)
        assert closed == pytest.approx(numeric, rel=1e-6, abs=1e-12)


def test_marcinkiewicz_invalid_params():
    with pytest.raises(InvalidParams):
        OperatorParams(s=0.5)
    with pytest.raises(InvalidParams):
        OperatorParams(rho=0.0)
    with pytest.raises(InvalidParams):
        OperatorParams(q=1.5, p=2.0)


# ------------------------------------------------------------------------------
# commutator
# ------------------------------------------------------------------------------
def test_commutator_constant_symbol(small_space):
    space, lam = small_space
    kernel = nl.make_kernel(space, lam)
    rng = np.random.default_rng(9)
    f = rng.uniform(-1, 1, space.n)
    values = nl.marcinkiewicz_commutator(space, kernel, np.full(space.n, 3.0), f)
    assert np.all(values == 0.0)


def test_commutator_sign_flip(two_point):
    space, lam = two_point
    kernel = nl.make_kernel(space, lam)
    f = np.array([0.0, 1.0])
    value = nl.marcinkiewicz_commutator(space, kernel, f, f, 0)
    assert value == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)


def test_commutator_subadditive_in_symbol(small_space):
    space, lam = small_space
    kernel = nl.make_kernel(space, lam)
    rng = np.random.default_rng(10)
    f = rng.uniform(-1, 1, space.n)
    b1 = rng.uniform(-1, 1, space.n)
    b2 = rng.uniform(-1, 1, space.n)
    lhs = nl.marcinkiewicz_commutator(space, kernel, b1 + b2, f)
    rhs = nl.marcinkiewicz_commutator(space, kernel, b1, f) \
        + nl.marcinkiewicz_commutator(space, kernel, b2, f)
    assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-14)


def test_commutator_matches_quadrature():
    params = OperatorParams()
    rng = np.random.default_rng(77)
    for seed in range(4):
        space, lam, kernel, f, x = random_instance(seed + 100)
        b = rng.uniform(-1, 1, space.n)
        closed = nl.marcinkiewicz_commutator(space, kernel, b, f, x, params)
        numeric = marcinkiewicz_quadrature(space, kernel, f, x, params, b=b)
        assert closed == pytest.approx(numeric, rel=1e-6, abs=1e-12)


# ------------------------------------------------------------------------------
# maximal operators
# ------------------------------------------------------------------------------
def test_maximal_singleton_constant():
    space = nl.build_space(points=[[0.0]], weights=[1.0])
    value = nl.maximal_p_tau(space, np.array([-2.0]), 2.0, 5.0, 0)
    assert value == pytest.approx(2.0, rel=1e-12)


def test_maximal_zero(small_space):
    space, _ = small_space
    assert np.all(nl.maximal_p_tau(space, np.zeros(space.n), 2.0, 5.0) == 0)


def test_maximal_monotone_in_abs(small_space):
    space, _ = small_space
    rng = np.random.default_rng(11)
    f = rng.uniform(-1, 1, space.n)
    g = f * rng.uniform(1.0, 2.0, space.n)
    mf = nl.maximal_p_tau(space, f, 2.0, 5.0)
    mg = nl.maximal_p_tau(space, g, 2.0, 5.0)
    assert np.all(mf <= mg * (1 + 1e-12))


def test_maximal_invalid_params(small_space):
    space, _ = small_space
    with pytest.raises(InvalidParams):
        nl.maximal_p_tau(space, np.zeros(space.n), 1.0, 5.0)
    with pytest.raises(InvalidParams):
        nl.maximal_p_tau(space, np.zeros(space.n), 2.0, 4.0)


def test_maximal_matches_exhaustive_scan(small_space):
    space, _ = small_space
    rng = np.random.default_rng(14)
    f = rng.uniform(-1, 1, space.n)
    got = nl.maximal_p_tau(space, f, 2.0, 5.0)
    for x in range(space.n):
        best = 0.0
        for c in range(space.n):
            for r in space.candidate_radii(c):
                if space.dist[c, x] > r:
                    continue
                mask = space.dist[c] <= r
                mass = float(np.sum(np.abs(f[mask]) ** 2 * space.weights[mask]))
                mu_tau = nl.ball_measure(space, Ball(c, 5.0 * float(r)))
                best = max(best, (mass / mu_tau) ** 0.5)
        assert got[x] == pytest.approx(best, rel=1e-12)


def test_maximal_psi_reduction_exact(small_space, psi_const):
    space, _ = small_space
    rng = np.random.default_rng(15)
    f = rng.uniform(-1, 1, space.n)
    plain = nl.maximal_p_tau(space, f, 2.0, 5.0)
    unit = nl.maximal_psi_p_tau(space, psi_const, f, 2.0, 5.0)
    assert np.all(plain == unit)


def test_maximal_psi_matches_exhaustive_scan(small_space):
    space, lam = small_space
    psi = spaces.lambda_power_psi(lam, 0.3)
    rng = np.random.default_rng(16)
    f = rng.uniform(-1, 1, space.n)
    got = nl.maximal_psi_p_tau(space, psi, f, 2.0, 6.0)
    for x in range(space.n):
        best = 0.0
        for c in range(space.n):
            for r in space.candidate_radii(c):
                if space.dist[c, x] > r:
                    continue
                mask = space.dist[c] <= r
                mass = float(np.sum(np.abs(f[mask]) ** 2 * space.weights[mask]))
                mu_tau = nl.ball_measure(space, Ball(c, 6.0 * float(r)))
                best = max(best, psi(c, float(r)) * (mass / mu_tau) ** 0.5)
        assert got[x] == pytest.approx(best, rel=1e-12)


def test_weighted_maximal_monotone_in_abs(small_space, psi_const):
    space, _ = small_space
    rng = np.random.default_rng(28)
    f = rng.uniform(-1, 1, space.n)
    g = f * rng.uniform(1.0, 2.0, space.n)
    mf = nl.maximal_psi_p_tau(space, psi_const, f, 2.0, 5.0)
    mg = nl.maximal_psi_p_tau(space, psi_const, g, 2.0, 5.0)
    assert np.all(mf <= mg * (1 + 1e-12))


def test_doubling_maximal_monotone_in_abs(small_space):
    space, lam = small_space
    profile = nl.make_profile(space, lam)
    rng = np.random.default_rng(29)
    f = rng.uniform(-1, 1, space.n)
    g = f * rng.uniform(1.0, 2.0, space.n)
    mf = nl.doubling_maximal(space, profile, f)
    mg = nl.doubling_maximal(space, profile, g)
    assert np.all(mf <= mg * (1 + 1e-12))


def test_doubling_maximal_homogeneous(small_space):
    space, lam = small_space
    profile = nl.make_profile(space, lam)
    rng = np.random.default_rng(30)
    f = rng.uniform(-1, 1, space.n)
    assert np.allclose(nl.doubling_maximal(space, profile, -2.0 * f),
                       2.0 * nl.doubling_maximal(space, profile, f), rtol=1e-12)


def test_coincident_points_are_tolerated():
    # two atoms at zero distance plus one far atom: kernel sums drop the
    # zero-distance pairs, everything else stays finite
    space = nl.build_space(distances=[[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
                           weights=[1.0, 2.0, 1.0])
    lam = nl.fit_power_lambda(space, 1.0)
    kernel = nl.make_kernel(space, lam)
    f = np.array([1.0, -1.0, 0.5])
    assert np.all(np.isfinite(nl.t_lambda(space, lam, f)))
    assert np.all(np.isfinite(nl.marcinkiewicz(space, kernel, f)))
    profile = nl.make_profile(space, lam)
    assert np.all(np.isfinite(nl.sharp_maximal(space, lam, profile, f)))


def test_doubling_maximal_constant(small_space):
    space, lam = small_space
    profile = nl.make_profile(space, lam)
    values = nl.doubling_maximal(space, profile, np.full(space.n, -1.5))
    assert np.allclose(values, 1.5, rtol=1e-12)


def test_doubling_maximal_matches_exhaustive_scan(small_space):
    space, lam = small_space
    profile = nl.make_profile(space, lam)
    beta = profile.beta(6.0)
    rng = np.random.default_rng(17)
    f = rng.uniform(-1, 1, space.n)
    got = nl.doubling_maximal(space, profile, f)
    for x in range(space.n):
        best = 0.0
        for c in range(space.n):
            for r in space.candidate_radii(c):
                b = Ball(c, float(r))
                if space.dist[c, x] > r:
                    continue
                if nl.ball_measure(space, b.scaled(6.0)) > beta * nl.ball_measure(space, b):
                    continue
                best = max(best, abs(nl.ball_mean(space, np.abs(f), b)))
        assert got[x] == pytest.approx(best, rel=1e-12)


# ------------------------------------------------------------------------------
# sharp maximal operator
# ------------------------------------------------------------------------------
def sharp_oracle(space, lam, profile, f):
    f = np.asarray(f, dtype=float)
    beta = profile.beta(6.0)
    balls = [Ball(c, float(r)) for c in range(space.n) for r in space.candidate_radii(c)]
    out = np.zeros(space.n)
    dbl = {}
    for b in balls:
        mask = space.dist[b.center] <= b.radius
        m = nl.ball_mean(space, f, b)
        val = float(np.sum(np.abs(f[mask] - m) * space.weights[mask])) \
            / nl.ball_measure(space, b.scaled(6.0))
        out[mask] = np.maximum(out[mask], val)
        dbl[b] = nl.ball_measure(space, b.scaled(6.0)) <= beta * nl.ball_measure(space, b)
    for b1 in balls:
        if not dbl[b1]:
            continue
        mask1 = space.dist[b1.center] <= b1.radius
        for b2 in balls:
            if not dbl[b2] or b2.radius < b1.radius:
                continue
            if np.any(mask1 & ~(space.dist[b2.center] <= b2.radius)):
                continue
            coeff = nl.discrete_coefficient(space, lam, b1, b2, 6.0).value
            val = abs(nl.ball_mean(space, f, b1) - nl.ball_mean(space, f, b2)) / coeff
            out[mask1] = np.maximum(out[mask1], val)
    return out


def test_sharp_constant_zero(small_space):
    space, lam = small_space
    profile = nl.make_profile(space, lam)
    assert np.all(nl.sharp_maximal(space, lam, profile, np.full(space.n, 9.0)) <= 1e-12 * 9.0)


def test_sharp_affine(small_space):
    space, lam = small_space
    profile = nl.make_profile(space, lam)
    rng = np.random.default_rng(18)
    f = rng.uniform(-1, 1, space.n)
    base = nl.sharp_maximal(space, lam, profile, f)
    pushed = nl.sharp_maximal(space, lam, profile, -3.0 * f + 11.0)
    assert np.allclose(pushed, 3.0 * base, rtol=1e-12, atol=1e-15)


def test_sharp_budgeted_equals_exhaustive_small():
    rng = np.random.default_rng(19)
    for n in (4, 8):
        space = nl.build_space(points=rng.uniform(0, 1, (n, 1)),
                               weights=rng.uniform(0.5, 2.0, n))
        lam = nl.fit_power_lambda(space)
        profile = nl.make_profile(space, lam)
        f = rng.uniform(-1, 1, n)
        got = nl.sharp_maximal(space, lam, profile, f)
        want = sharp_oracle(space, lam, profile, f)
        assert np.array_equal(got, want)


def test_sharp_on_geometric_atoms_equals_exhaustive():
    # at distances 1, 10, 100, ... a ball's runs of one scale index are short and
    # many, so at some window length there are more runs than balls
    rng = np.random.default_rng(21)
    space = lab.generate_space({"kind": "atoms", "points": [[0.0]] + [[10.0 ** i] for i in range(7)],
                                "weights": rng.uniform(0.5, 2.0, 8).tolist()})
    family = space.balls()
    depth, offsets, _ = family.windows(6.0)
    assert max(offsets[k, -1] - offsets[k, 1] for k in range(depth)) > len(family)
    assert geometry.pairs_are_exhaustive(space)
    lam = nl.fit_power_lambda(space)
    profile = nl.make_profile(space, lam)
    f = rng.uniform(-1, 1, space.n)
    assert np.array_equal(nl.sharp_maximal(space, lam, profile, f), sharp_oracle(space, lam, profile, f))


def test_sharp_fast_path_matches_exhaustive(small_space):
    space, lam = small_space
    profile = nl.make_profile(space, lam)
    rng = np.random.default_rng(20)
    f = rng.uniform(-1, 1, space.n)
    exh = nl.sharp_maximal(space, lam, profile, f)
    with mock.patch.object(geometry, "EXHAUSTIVE_PAIR_LIMIT", 0):
        fast = nl.sharp_maximal(space, lam, profile, f, pair_budget=30000)
    assert np.allclose(fast, exh, rtol=1e-12)


# ------------------------------------------------------------------------------
# pointwise estimates
# ------------------------------------------------------------------------------
def test_domination_zero_function(two_point):
    space, lam = two_point
    kernel = nl.make_kernel(space, lam)
    report = nl.check_pointwise_domination(space, lam, kernel, np.zeros(2))
    assert report.passed


def test_domination_tight_two_point(two_point):
    space, lam = two_point
    kernel = nl.make_kernel(space, lam)
    f = np.array([0.0, 1.0])
    report = nl.check_pointwise_domination(space, lam, kernel, f)
    assert report.passed
    lhs = nl.marcinkiewicz(space, kernel, f, 0)
    rhs = 2.0 ** -0.5 * kernel.c_size * nl.t_lambda(space, lam, np.abs(f), 0)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_domination_random_instances():
    for seed in range(12):
        space, lam, kernel, f, _ = random_instance(seed + 50, n_max=24)
        report = nl.check_pointwise_domination(space, lam, kernel, f)
        assert report.passed, report.worst_witness


def test_sharp_estimate_rejects_constant_symbol(small_space, psi_const):
    space, lam = small_space
    profile = nl.make_profile(space, lam)
    kernel = nl.make_kernel(space, lam)
    rng = np.random.default_rng(23)
    f = rng.uniform(-1, 1, space.n)
    with pytest.raises(ZeroNormB):
        nl.check_sharp_maximal_estimate(space, lam, profile, kernel, psi_const,
                                        np.full(space.n, 2.0), f)


def test_sharp_estimate_zero_function(small_space, psi_const):
    space, lam = small_space
    profile = nl.make_profile(space, lam)
    kernel = nl.make_kernel(space, lam)
    rng = np.random.default_rng(24)
    b = rng.uniform(-1, 1, space.n)
    report = nl.check_sharp_maximal_estimate(space, lam, profile, kernel,
                                             psi_const, b, np.zeros(space.n))
    assert report.value == 0.0
    assert report.details["skipped_points"] == space.n


def test_sharp_estimate_reports_finite_ratio(grid16, psi_const):
    space, lam = grid16
    profile = nl.make_profile(space, lam)
    kernel = nl.make_kernel(space, lam)
    fs = lab.generate_functions(space, "random_bounded", 2, 31)
    report = nl.check_sharp_maximal_estimate(space, lam, profile, kernel,
                                             psi_const, fs[0], fs[1])
    assert math.isfinite(report.value)
    assert report.value > 0


# ------------------------------------------------------------------------------
# maximal embedding
# ------------------------------------------------------------------------------
def test_embedding_p_equals_q_reduction(small_space):
    space, _ = small_space
    phi = spaces.power_phi(1.0)
    params = OperatorParams(p=2.0, q=2.0)
    psi = spaces.phi_compatible_psi(phi, 2.0, 2.0)  # constant 1
    rng = np.random.default_rng(25)
    f = rng.uniform(-1, 1, space.n)
    norm = nl.morrey_norm(space, f, 2.0, phi, eta=params.tau)
    report = nl.check_maximal_morrey_pointwise(space, psi, phi, f / norm, params)
    assert report.passed
    assert report.value <= 1.0 + 1e-12


def test_embedding_p_less_q(small_space):
    space, _ = small_space
    phi = spaces.power_phi(1.0)
    params = OperatorParams(p=2.0, q=4.0)
    psi = spaces.phi_compatible_psi(phi, 2.0, 4.0)
    rng = np.random.default_rng(26)
    for _ in range(4):
        f = rng.uniform(-1, 1, space.n)
        norm = nl.morrey_norm(space, f, 2.0, phi, eta=params.tau)
        report = nl.check_maximal_morrey_pointwise(space, psi, phi, f / norm, params)
        assert report.passed
        assert report.value <= 1.0 + 1e-9


def test_embedding_zero_function(small_space):
    space, _ = small_space
    phi = spaces.power_phi(1.0)
    psi = spaces.phi_compatible_psi(phi, 2.0, 4.0)
    report = nl.check_maximal_morrey_pointwise(space, psi, phi, np.zeros(space.n),
                                               OperatorParams(p=2.0, q=4.0))
    assert report.passed
    assert report.value == 0.0


def test_embedding_rejects_unnormalized(small_space):
    space, _ = small_space
    phi = spaces.power_phi(1.0)
    psi = spaces.phi_compatible_psi(phi, 2.0, 4.0)
    f = np.full(space.n, 100.0)
    with pytest.raises(NotNormalized):
        nl.check_maximal_morrey_pointwise(space, psi, phi, f, OperatorParams(p=2.0, q=4.0))
