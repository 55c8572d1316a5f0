"""The shared norm-band and mean-jump pass against the loops it replaced."""
from __future__ import annotations

import math

import numpy as np

from nhslab import lab, mmspace, spaces

ROWS = ["equivalence_bands", "mean_jump_bounds", "p_oscillation_bands"]


def battery_loop_oracle(space, lam, psi, fs, seed):
    """The band, p-oscillation and mean-jump loop of ``constant_battery``
    before the shared pass, verbatim."""
    jump = {"k2": 0.0, "k6": 0.0, "iterated": 0.0, "comparable": 0.0}
    band_tau = [math.inf, -math.inf]
    band_gamma = [math.inf, -math.inf]
    p_osc = {2.0: [math.inf, -math.inf], 4.0: [math.inf, -math.inf]}

    for f in fs:
        n21, n22, n61, n62 = (r.norm for r in spaces.campanato_norm_multi(
            space, lam, f, psi, spaces.NORM_COMBOS, seed=seed))
        if n21 > 1e-13:
            band_tau = [min(band_tau[0], n21 / n61), max(band_tau[1], n21 / n61)]
            band_gamma = [min(band_gamma[0], n21 / n22), max(band_gamma[1], n21 / n22)]
            for pp in p_osc:
                ratio = spaces.p_oscillation_norm(space, f, psi, pp, 2.0) / n21
                p_osc[pp] = [min(p_osc[pp][0], ratio), max(p_osc[pp][1], ratio)]
            d = spaces.check_mean_jump_bounds(space, lam, f, psi, seed=seed, norm=n21).details
            jump["k2"] = max(jump["k2"], d["per_k"]["2.0"])
            jump["k6"] = max(jump["k6"], d["per_k"]["6.0"])
            jump["iterated"] = max(jump["iterated"], d["iterated"])
            jump["comparable"] = max(jump["comparable"], d["comparable"])
    return jump, band_tau, band_gamma, p_osc


def mean_jump_row_oracle(space, lam, psi, fs, pair_budget, seed):
    """The loop of the ``mean_jump_bounds`` row before the shared pass: the
    first report of largest value wins."""
    worst = 0.0
    details = {}
    for f in fs:
        rep = spaces.check_mean_jump_bounds(space, lam, f, psi,
                                            pair_budget=pair_budget, seed=seed)
        if rep.value > worst:
            worst = rep.value
            details = rep.details
    return worst, details


def test_function_constants_equal_the_battery_loop():
    space = lab.generate_space({"kind": "grid", "d": 1, "n": 64})
    lam = mmspace.fit_power_lambda(space, lab.PINNED_KAPPA)
    psi = spaces.constant_psi()
    # a constant function is skipped by both gates
    fs = lab.generate_functions(space, "random_bounded", 20, 7) + [np.full(space.n, 3.25)]
    got = spaces.function_constants(space, lam, psi, fs, 2000, 7)
    jump, band_tau, band_gamma, p_osc = battery_loop_oracle(space, lam, psi, fs, 7)
    assert got["mean_jump_max"] == jump
    assert got["p_oscillation"] == {"p2": p_osc[2.0], "p4": p_osc[4.0]}
    equivalence = spaces.equivalence_experiment(space, lam, psi, fs, 2000, 7)
    assert equivalence == got["equivalence"]
    bands = equivalence.details["bands"]
    assert bands["tau2_gamma1_vs_tau6_gamma1"] == band_tau
    assert bands["tau2_gamma1_vs_tau2_gamma2"] == band_gamma
    assert equivalence.details["functions_used"] == 20
    assert equivalence.details["functions_skipped"] == 1
    worst, details = mean_jump_row_oracle(space, lam, psi, fs, 2000, 7)
    assert (got["mean_jump"].value, got["mean_jump"].details) == (worst, details)


def test_the_shared_pass_runs_once_per_experiment(monkeypatch):
    cfg = {"generator": {"kind": "grid", "d": 2, "n": 9}, "seed": 7,
           "checks": ROWS + ["sharp_maximal_estimate"]}
    multi = spaces.campanato_norm_multi
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return multi(*args, **kwargs)

    monkeypatch.setattr(spaces, "campanato_norm_multi", counted)
    full = lab.run_experiments(lab.ExperimentConfig.from_dict(cfg))
    # one call per function of the shared pass; the commutator symbol is the
    # first of them, so its norm comes from the report memo
    assert len(calls) == 5
    assert [row.check for row in full.rows] == cfg["checks"]
    assert all(row.status == "pass" for row in full.rows)
    for row in full.rows[:3]:
        alone = lab.run_experiments(lab.ExperimentConfig.from_dict({**cfg, "checks": [row.check]}))
        assert alone.rows == [row]


def test_equivalence_experiment_reads_only_the_four_norms(monkeypatch):
    space = lab.generate_space({"kind": "grid", "d": 1, "n": 64})
    lam = mmspace.fit_power_lambda(space, lab.PINNED_KAPPA)
    psi = spaces.constant_psi()
    fs = lab.generate_functions(space, "random_bounded", 6, 7) + [np.full(space.n, 3.25)]
    calls = []

    def counting(name):
        inner = getattr(spaces, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return counted

    for name in ("p_oscillation_norm", "check_mean_jump_bounds"):
        monkeypatch.setattr(spaces, name, counting(name))
    report = spaces.equivalence_experiment(space, lam, psi, fs, 2000, 7)
    assert calls == []
    assert report == spaces.function_constants(space, lam, psi, fs, 2000, 7)["equivalence"]
    assert "p_oscillation_norm" in calls and "check_mean_jump_bounds" in calls
