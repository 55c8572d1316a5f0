"""Every reported value is recomputed from its witness.

A report that names a ball or a pair as its witness must be reproducible
from that witness alone, through the scalar helpers that sum over a ball's
members in point-index order: ``ball_members``, ``ball_mean``,
``ball_measure``, ``discrete_coefficient`` and ``smallest_doubling_ball``.
Each recomputed value must match the reported one within 1e-12 relative (the
suprema of large families read prefix tables, whose sums round differently).
This runs on grid(d=1, n=64), the golden configuration, on the 9x9 grid and
on the small random spaces of ``test_family``.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

import nhslab as nl
from nhslab import geometry, lab, spaces
from nhslab.geometry import Ball, ball_measure, ball_members, discrete_coefficient
from nhslab.spaces import NORM_COMBOS, ball_mean
from test_family import PROFILE, PROPERTY, spaces_and_functions

PSIS = (spaces.constant_psi(), spaces.radius_power_psi(0.25))


def _close(got: float, want: float) -> None:
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


def _ball(witness: dict) -> Ball:
    return Ball(witness["center"], witness["radius"])


def _replay_campanato(space, lam, f, psi) -> None:
    for tau, gamma in NORM_COMBOS:
        report = spaces.campanato_norm(space, lam, f, psi, tau, gamma)
        if report.oscillation_witness:
            ball = _ball(report.oscillation_witness)
            members = ball_members(space, ball)
            mean = ball_mean(space, f, ball)
            mass = float(np.sum(np.abs(f[members] - mean) * space.weights[members]))
            _close(mass / (psi(ball.center, ball.radius) * ball_measure(space, ball.scaled(tau))),
                   report.oscillation_sup)
        else:
            assert report.oscillation_sup == 0.0
        if report.regularity_witness:
            inner = _ball(report.regularity_witness["inner"])
            outer = _ball(report.regularity_witness["outer"])
            coeff = discrete_coefficient(space, lam, inner, outer, tau).value
            jump = abs(ball_mean(space, f, inner) - ball_mean(space, f, outer))
            _close(jump / (psi(inner.center, inner.radius) * coeff ** gamma), report.regularity_sup)
        else:
            assert report.regularity_sup == 0.0


def _replay_mean_jump(space, lam, f, psi) -> None:
    report = spaces.check_mean_jump_bounds(space, lam, f, psi)
    comparable = report.details["comparable"]
    if not report.worst_witness:
        assert comparable == 0.0
        return
    b1, b2 = _ball(report.worst_witness["b1"]), _ball(report.worst_witness["b2"])
    assert b2.radius == space.dist[b1.center, b2.center]
    jump = abs(ball_mean(space, f, b1) - ball_mean(space, f, b2))
    _close(jump / (psi(b1.center, b1.radius) * report.details["norm"]), comparable)


def _replay_doubling(space, lam, profile) -> None:
    report = geometry.check_doubling_coefficient_bound(space, lam, profile, 6.0)
    ball, i = _ball(report.worst_witness), report.worst_witness["doubling_exponent"]
    assert geometry.smallest_doubling_ball(space, profile, ball, 6.0).radius == 6.0 ** i * ball.radius
    _close(discrete_coefficient(space, lam, ball, Ball(ball.center, 6.0 ** i * ball.radius), 6.0).value,
           report.value)
    report = geometry.validate_weak_doubling(space, lam, profile, 2.0)
    ball = _ball(report.worst_witness)
    _close(geometry.smallest_doubling_ball(space, profile, ball, 2.0).radius,
           2.0 ** report.value * ball.radius)


def _replay(space, lam, profile, functions) -> None:
    for f in functions:
        f = np.asarray(f, dtype=float)
        for psi in PSIS:
            _replay_campanato(space, lam, f, psi)
            _replay_mean_jump(space, lam, f, psi)
    _replay_doubling(space, lam, profile)


@pytest.mark.parametrize("generator", [{"kind": "grid", "d": 1, "n": 64},
                                       {"kind": "grid", "d": 2, "n": 9}])
def test_grid_witnesses_replay_their_values(generator):
    space = lab.generate_space(generator)
    lam = nl.fit_power_lambda(space, 1.0)
    _replay(space, lam, nl.make_profile(space, lam), lab.generate_functions(space, "random_bounded", 3, 7))


@PROPERTY
@given(spaces_and_functions())
def test_small_space_witnesses_replay_their_values(case):
    space, f = case
    _replay(space, nl.fit_power_lambda(space, 1.0), PROFILE, [f])
