"""The per-space function slot and the Campanato report memo: a warm space
answers as a cold one, and repeated per-function work is gone."""
from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import nhslab as nl
from nhslab import geometry, lab, mmspace, operators, spaces


def _small_space():
    """A 6-point cloud with uneven weights: B**2 <= EXHAUSTIVE_PAIR_LIMIT, so
    its suprema read point-index sums and every nested pair."""
    rng = np.random.default_rng(5)
    return nl.build_space(points=rng.uniform(0.0, 1.0, (6, 1)), weights=rng.uniform(0.5, 2.0, 6))


SPACES = {
    "grid1d_64": lambda: lab.generate_space({"kind": "grid", "d": 1, "n": 64}),
    "grid2d_9": lambda: lab.generate_space({"kind": "grid", "d": 2, "n": 9}),
    "small": _small_space,
}


def _fresh(space):
    """The same space with every cache cold."""
    return mmspace.PointCloudSpace(space.dist, space.weights, space.coords)


def _calls(lam, profile, kernel, psi, b):
    """Every reader of the slot and the memo, as (name, call(space, f))."""
    calls = [(f"campanato_{t:g}_{g:g}", lambda s, f, t=t, g=g: spaces.campanato_norm(
        s, lam, f, psi, t, g, pair_budget=300, seed=7)) for t, g in spaces.NORM_COMBOS]
    calls += [
        ("sharp", lambda s, f: operators.sharp_maximal(s, lam, profile, f, pair_budget=300, seed=7)),
        ("p_osc_2", lambda s, f: spaces.p_oscillation_norm(s, f, psi, 2.0, 2.0, with_witness=True)),
        ("p_osc_4", lambda s, f: spaces.p_oscillation_norm(s, f, psi, 4.0, 2.0, with_witness=True)),
        ("mean_jump", lambda s, f: spaces.check_mean_jump_bounds(s, lam, f, psi, pair_budget=300,
                                                                seed=7)),
        ("sharp_estimate", lambda s, f: operators.check_sharp_maximal_estimate(
            s, lam, profile, kernel, psi, b, f, pair_budget=300, seed=7)),
    ]
    return calls


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.parametrize("name", sorted(SPACES))
def test_a_warm_space_answers_as_a_cold_one(name):
    space = SPACES[name]()
    lam = nl.fit_power_lambda(space, lab.PINNED_KAPPA)
    profile = nl.make_profile(space, lam)
    kernel = operators.make_kernel(space, lam)
    psi = spaces.constant_psi()
    rng = np.random.default_rng(11)
    fs = [rng.uniform(-1.0, 1.0, space.n) for _ in range(3)]
    calls = _calls(lam, profile, kernel, psi, fs[0])
    assert geometry.pairs_are_exhaustive(space) == (name == "small")

    # every call on every function, twice, in an order that switches functions often
    steps = [(c, k) for c in range(len(calls)) for k in range(len(fs))] * 2
    for i in rng.permutation(len(steps)):
        c, k = steps[i]
        label, call = calls[c]
        assert _same(call(space, fs[k]), call(_fresh(space), fs[k])), (label, k)
    # the multi call fills the memo that the single calls then read
    multi = spaces.campanato_norm_multi(space, lam, fs[1], psi, spaces.NORM_COMBOS,
                                        pair_budget=300, seed=7)
    for (label, call), report in zip(calls, multi):
        assert report == call(_fresh(space), fs[1]) == call(space, fs[1]), label

    # an f changed in place reads fresh tables and a fresh report
    f = fs[2].copy()
    campanato, sharp = calls[0][1], calls[4][1]
    before = campanato(space, f)
    sharp(space, f)
    f *= -2.0
    assert campanato(space, f) == campanato(_fresh(space), f)
    assert campanato(space, f).norm == 2.0 * before.norm
    assert _same(sharp(space, f), sharp(_fresh(space), f))

    # a caller's edits of a returned report's witnesses reach no later report
    for report in multi + [before]:
        report.oscillation_witness.clear()
        for ball in report.regularity_witness.values():
            ball["radius"] = -1.0
    assert campanato(space, fs[1]) == campanato(_fresh(space), fs[1])
    assert campanato(space, fs[2]) == campanato(_fresh(space), fs[2])

    # the slot's arrays are read-only
    tables = spaces.function_tables(space, fs[0])
    for arr in (tables.f, tables.means, tables.mean_table, tables.oscillation(),
                tables.oscillation(2.0), tables.measures(2.0), tables.measures(6.0)):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0.0


def test_campanato_then_sharp_runs_the_oscillation_sums_once(monkeypatch, grid64):
    space, lam = grid64
    space = _fresh(space)
    assert not geometry.pairs_are_exhaustive(space)
    profile = nl.make_profile(space, lam)
    calls = []
    sums = spaces.oscillation_sums

    def counted(*args, **kwargs):
        calls.append(args[2:] + tuple(kwargs.values()))
        return sums(*args, **kwargs)

    monkeypatch.setattr(spaces, "oscillation_sums", counted)
    f = np.sin(7.0 * np.arange(space.n))
    spaces.campanato_norm(space, lam, f, spaces.constant_psi())
    operators.sharp_maximal(space, lam, profile, f)
    assert len(calls) == 1
    # a second function replaces the slot
    operators.sharp_maximal(space, lam, profile, f + 1e-3 * np.arange(space.n))
    assert len(calls) == 2


def test_a_dropped_normalizer_is_freed_without_a_collection(grid16):
    space, lam = grid16
    space = _fresh(space)
    f = np.cos(3.0 * np.arange(space.n))
    enabled = gc.isenabled()
    gc.disable()
    try:
        psi = spaces.radius_power_psi(0.25)
        spaces.campanato_norm(space, lam, f, psi)
        spaces.p_oscillation_norm(space, f, psi, 2.0, 2.0)
        spaces.check_mean_jump_bounds(space, lam, f, psi)
        assert len(space.store(lam, psi)) == 1
        ref = weakref.ref(psi)
        del psi
        assert ref() is None
        assert len(space.store(lam).owned) == 0
    finally:
        if enabled:
            gc.enable()


def test_one_moment_pass_fills_the_p2_and_p4_tables(monkeypatch, grid64):
    space, _ = grid64
    space = _fresh(space)
    calls = []
    moments = spaces._moment_sums

    def counted(*args):
        calls.append(args)
        return moments(*args)

    monkeypatch.setattr(spaces, "_moment_sums", counted)
    f = np.sin(7.0 * np.arange(space.n))
    tables = spaces.function_tables(space, f)
    shared = {p: tables.oscillation(p) for p in (2.0, 4.0)}
    assert len(calls) == 1
    family = space.balls()
    for p, table in shared.items():
        assert np.all(table == spaces.oscillation_sums(space, f, p)[family.center, family.counts() - 1])
        assert tables.oscillation(p) is table


def test_each_marcinkiewicz_integral_is_evaluated_once(monkeypatch, grid64):
    space, lam = grid64
    space = _fresh(space)
    profile = nl.make_profile(space, lam)
    kernel = operators.make_kernel(space, lam)
    calls = []
    integral = operators._integral_rows

    def counted(space, kernel, f, rows, params, b):
        calls.append((rows.size, b is not None))
        return integral(space, kernel, f, rows, params, b)

    def fresh(f, b=None, params=operators.OperatorParams()):
        return integral(space, kernel, np.asarray(f, dtype=float), np.arange(space.n), params, b)

    monkeypatch.setattr(operators, "_integral_rows", counted)
    rng = np.random.default_rng(3)
    f, b, b2 = (rng.uniform(-1.0, 1.0, space.n) for _ in range(3))
    # the battery's order: the ratios, then the sharp estimate and the domination check
    mf = operators.marcinkiewicz(space, kernel, f)
    cf = operators.marcinkiewicz_commutator(space, kernel, b, f)
    operators.check_sharp_maximal_estimate(space, lam, profile, kernel, spaces.constant_psi(), b, f)
    operators.check_pointwise_domination(space, lam, kernel, f)
    assert calls == [(space.n, False), (space.n, True)]
    assert np.array_equal(mf, fresh(f)) and np.array_equal(cf, fresh(f, b))
    # b separates the commutator entries, and (l, rho, s) every entry
    assert np.array_equal(operators.marcinkiewicz_commutator(space, kernel, b2, f), fresh(f, b2))
    params = operators.OperatorParams(s=3.0)
    assert np.array_equal(operators.marcinkiewicz(space, kernel, f, None, params), fresh(f, None, params))
    assert len(calls) == 4
    # an f changed in place reads fresh values
    f[::2] *= -2.0
    got = operators.marcinkiewicz(space, kernel, f)
    assert len(calls) == 5 and np.array_equal(got, fresh(f))
    # x= calls bypass the memo
    assert [operators.marcinkiewicz(space, kernel, f, x) for x in (0, 5, 5)] == [got[0], got[5], got[5]]
    assert calls[5:] == [(1, False)] * 3
    # a returned array is the caller's own
    got[:] = 0.0
    assert np.array_equal(operators.marcinkiewicz(space, kernel, f), fresh(f))
    assert len(calls) == 8
    # five entries of n values; their keys hold f five times and b twice
    assert mmspace.cache_bytes(space)["marcinkiewicz"] == (5 + 7) * space.n * 8


def test_each_per_function_kernel_works_in_a_few_family_arrays():
    # the peak one call adds over a warm space, in float64 arrays of the family size B:
    # no table of depth x B, no level table per call, no n x n pass in one piece
    space = lab.generate_space({"kind": "grid", "d": 1, "n": 256})
    lam = nl.fit_power_lambda(space, lab.PINNED_KAPPA)
    profile, kernel, psi = nl.make_profile(space, lam), operators.make_kernel(space, lam), spaces.constant_psi()
    f, g, b = np.random.default_rng(1).uniform(-1.0, 1.0, (3, space.n))
    calls = {
        "sharp_maximal": lambda f: operators.sharp_maximal(space, lam, profile, f),
        "campanato_norm_multi": lambda f: spaces.campanato_norm_multi(space, lam, f, psi, spaces.NORM_COMBOS),
        "check_mean_jump_bounds": lambda f: spaces.check_mean_jump_bounds(space, lam, f, psi, norm=0.5),
        "marcinkiewicz_commutator": lambda f: operators.marcinkiewicz_commutator(space, kernel, b, f),
    }
    unit = 8 * len(space.balls())
    tracemalloc.start()  # before the warm-up, so that the frees of f's tables count
    try:
        for call in calls.values():  # every space-level cache, warm
            call(f)
        rises = {}
        for name, call in calls.items():
            spaces.function_tables(space, f).means  # the slot holds f, as after a call on f
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call(g)
            rises[name] = (tracemalloc.get_traced_memory()[1] - before) / unit
    finally:
        tracemalloc.stop()
    assert max(rises.values()) <= 7.0, rises


def test_the_mean_jump_pairs_are_drawn_once_per_budget_and_seed(monkeypatch, grid64):
    space, lam = grid64
    space = _fresh(space)
    psi = spaces.constant_psi()
    calls = []
    replay = spaces.replay_draws
    monkeypatch.setattr(spaces, "replay_draws", lambda *args: calls.append(args[:2]) or replay(*args))
    fs = [np.sin(k * np.arange(space.n)) for k in (1.0, 2.0, 3.0)]
    reports = [spaces.check_mean_jump_bounds(space, lam, f, psi, pair_budget=300, seed=7) for f in fs]
    spaces.check_mean_jump_bounds(space, lam, fs[0], psi, pair_budget=300, seed=8)
    assert calls == [(7, 300), (8, 300)]
    for f, report in zip(fs, reports):
        assert report == spaces.check_mean_jump_bounds(_fresh(space), lam, f, psi, pair_budget=300, seed=7)
