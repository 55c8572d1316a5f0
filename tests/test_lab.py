from __future__ import annotations

import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nhslab as nl
from nhslab import cli, errors, geometry, lab, mmspace, operators, spaces
from nhslab.errors import SpecError


# ------------------------------------------------------------------------------
# space generators
# ------------------------------------------------------------------------------
def test_grid_two_points():
    space = lab.generate_space({"kind": "grid", "d": 1, "n": 2})
    assert space.n == 2
    assert space.dist[0, 1] == pytest.approx(1.0)
    assert np.allclose(space.weights, 0.5)


def test_grid_power_weights_formula():
    n = 64
    space = lab.generate_space({"kind": "grid", "d": 1, "n": n,
                                "weights": {"power": 2.0}})
    raw = (np.abs(space.coords[:, 0]) + 1.0 / n) ** 2.0
    assert np.allclose(space.weights, raw / raw.sum(), rtol=1e-12)


def test_grid_random_weights_bounds():
    space = lab.generate_space({"kind": "grid", "d": 1, "n": 32,
                                "weights": {"random": 5}})
    assert np.all(space.weights >= 1e-3)
    assert np.all(space.weights <= 1.0)
    again = lab.generate_space({"kind": "grid", "d": 1, "n": 32,
                                "weights": {"random": 5}})
    assert np.array_equal(space.weights, again.weights)


def test_grid_two_dimensional():
    space = lab.generate_space({"kind": "grid", "d": 2, "n": 4})
    assert space.n == 16
    assert space.diameter == pytest.approx(math.sqrt(2.0))
    assert space.total_measure == pytest.approx(1.0)


def test_atoms_generator():
    space = lab.generate_space({"kind": "atoms",
                                "distances": [[0.0, 2.0], [2.0, 0.0]],
                                "weights": [1.0, 3.0]})
    assert space.diameter == 2.0


def test_generator_errors():
    with pytest.raises(SpecError):
        lab.generate_space({"kind": "mystery"})
    with pytest.raises(SpecError):
        lab.generate_space({"kind": "grid", "weights": "unknown-kind"})
    with pytest.raises(SpecError, match="'weights'"):
        lab.generate_space({"kind": "atoms", "points": [[0.0], [1.0]]})


# ------------------------------------------------------------------------------
# function generators
# ------------------------------------------------------------------------------
@pytest.mark.parametrize("family", ["indicator", {"kind": "random_bounded"}])
def test_function_families_are_named_by_string(grid16, family):
    # every program path draws random fields by name; nothing else is a family
    with pytest.raises(SpecError, match="unknown function family"):
        lab.generate_functions(grid16[0], family, 2, 4)


def test_mean_zero_projection(grid16):
    space, _ = grid16
    fs = lab.generate_functions(space, "mean_zero_random", 5, 3)
    for f in fs:
        assert abs(float(np.sum(f * space.weights))) <= 1e-14


def test_same_seed_same_functions(grid16):
    space, _ = grid16
    a = lab.generate_functions(space, "random_bounded", 3, 11)
    b = lab.generate_functions(space, "random_bounded", 3, 11)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa, fb)


def test_jn_row_measures_functions_of_unit_context_norm(monkeypatch, grid16):
    # the row divides each function by its norm at the context's pairs budget
    # and seed; the function generator itself normalizes nothing.  On these
    # random weights the first function's norm at the library default (2000
    # pairs, seed 0) is 16% above its norm at (300, 3)
    generator = {"kind": "grid", "d": 2, "n": 9, "weights": {"random": 1}}
    ctx = lab._Context.build(generator, nl.OperatorParams(), 3, {"pairs": 300})
    measured, jn = [], spaces.jn_distribution
    monkeypatch.setattr(spaces, "jn_distribution", lambda space, f, *a: measured.append(f) or jn(space, f, *a))
    lab._check_jn_envelope(ctx)
    assert len(measured) == ctx.budget("jn_functions")
    for f in measured:
        norm = nl.campanato_norm(ctx.space, ctx.lam, f, ctx.psi, pair_budget=300, seed=3).norm
        assert norm == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(SpecError, match="unknown function family 'psi_adapted'"):
        lab.generate_functions(grid16[0], "psi_adapted", 2, 4)


def test_each_context_draws_one_nested_pair_sample(monkeypatch):
    # every sampled supremum of a context reads its (pairs budget, seed), here
    # the default (500, 7), and no Campanato report is computed twice
    monkeypatch.delenv(lab.SEED_ENV_VAR, raising=False)
    samples, reports = [], collections.Counter()
    sample, multi = geometry.sampled_nested_pairs, spaces.campanato_norm_multi

    def spy_sample(space, budget, seed):
        samples.append((budget, seed))
        return sample(space, budget, seed)

    def spy_multi(space, lam, f, psi, combos, *, pair_budget, seed):
        reports.update((np.asarray(f).tobytes(), tau, gamma, pair_budget, seed) for tau, gamma in combos)
        return multi(space, lam, f, psi, combos, pair_budget=pair_budget, seed=seed)

    monkeypatch.setattr(geometry, "sampled_nested_pairs", spy_sample)
    monkeypatch.setattr(spaces, "campanato_norm_multi", spy_multi)
    report = lab.run_experiments(lab.ExperimentConfig.from_dict({"generator": {"kind": "grid", "d": 2, "n": 9},
                                                                 "seed": 7}))
    assert report.exit_code == 0
    assert set(samples) == {(500, 7)} and max(reports.values()) == 1
    samples.clear()
    reports.clear()
    lab.jn_envelope_experiment({"kind": "grid", "d": 1, "n": 16}, {"kind": "grid", "d": 1, "n": 32}, count=5)
    assert set(samples) == {(500, 7)} and max(reports.values()) == 1


def test_refinement_consistency_of_fields():
    # the same (seed, index) samples one continuous function at both scales
    coarse = lab.generate_space({"kind": "grid", "d": 1, "n": 9})
    fine = lab.generate_space({"kind": "grid", "d": 1, "n": 17})
    f_c = lab.generate_functions(coarse, "random_bounded", 1, 21)[0]
    f_f = lab.generate_functions(fine, "random_bounded", 1, 21)[0]
    assert np.allclose(f_c, f_f[::2], rtol=1e-12)


# ------------------------------------------------------------------------------
# experiment runner
# ------------------------------------------------------------------------------
def test_empty_checklist_runs_clean():
    cfg = lab.ExperimentConfig.from_dict({
        "generator": {"kind": "two_point"}, "checks": []})
    report = lab.run_experiments(cfg)
    assert report.rows == []
    assert report.exit_code == 0


def test_unknown_check_rejected():
    with pytest.raises(SpecError):
        lab.ExperimentConfig.from_dict({"generator": {"kind": "two_point"},
                                        "checks": ["nope"]})


def test_oversized_generator_rejected():
    with pytest.raises(SpecError):
        lab.ExperimentConfig.from_dict({"generator": {"kind": "grid", "d": 1, "n": 1000},
                                        "checks": []})


@pytest.mark.parametrize("key", ["points", "distances"])
def test_atoms_generator_is_capped_by_its_points(key):
    # the cap counts an atoms spec's points (or distance rows), not 2
    def config(n):
        return {"generator": {"kind": "atoms", key: [[0.0]] * n, "weights": [1.0] * n},
                "checks": []}

    with pytest.raises(SpecError):
        lab.ExperimentConfig.from_dict(config(513))
    assert lab.ExperimentConfig.from_dict(config(512)).max_n == 512


def test_grid_generator_is_capped_at_its_default_size():
    # generate_space builds 64 points per axis when "n" is absent: 4096 here
    with pytest.raises(SpecError):
        lab.ExperimentConfig.from_dict({"generator": {"kind": "grid", "d": 2}, "checks": []})


def test_identity_checks_pass_on_small_grid():
    cfg = lab.ExperimentConfig.from_dict({
        "generator": {"kind": "grid", "d": 1, "n": 8},
        "checks": ["identity_suite", "hand_fixtures"], "seed": 3})
    report = lab.run_experiments(cfg)
    assert report.exit_code == 0
    assert [r.check for r in report.rows] == ["identity_suite", "hand_fixtures"]


def test_each_check_appears_once():
    checks = ["upper_doubling", "psi_regularity", "geometric_doubling"]
    cfg = lab.ExperimentConfig.from_dict({
        "generator": {"kind": "grid", "d": 1, "n": 8}, "checks": checks})
    report = lab.run_experiments(cfg)
    assert [r.check for r in report.rows] == checks


def test_seed_env_override(monkeypatch):
    cfg = lab.ExperimentConfig.from_dict({
        "generator": {"kind": "grid", "d": 1, "n": 8}, "checks": [], "seed": 1})
    monkeypatch.setenv(lab.SEED_ENV_VAR, "99")
    report = lab.run_experiments(cfg)
    assert report.config["seed"] == 99
    monkeypatch.setenv(lab.SEED_ENV_VAR, "not-an-int")
    with pytest.raises(SpecError):
        lab.run_experiments(cfg)


# ------------------------------------------------------------------------------
# report emission
# ------------------------------------------------------------------------------
def test_empty_report_csv_header_only():
    report = lab.ExperimentReport(rows=[], config={}, runtime_seconds=0.0)
    text = lab.emit_report(report, "csv")
    assert text == "check,n,generator,value,lower,upper,witness,pass\n"


def test_single_row_csv():
    row = lab.Row(check="a", n=2, generator="g", value=0.5, status="pass")
    report = lab.ExperimentReport(rows=[row], config={}, runtime_seconds=0.0)
    lines = lab.emit_report(report, "csv").splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("a,2,g,0.5")


def test_json_round_trip_bit_exact(tmp_path):
    rows = [lab.Row(check="c", n=3, generator="g", value=1.0 / 3.0,
                    lower=math.pi, upper=2.0 ** -52, witness={"v": 0.1})]
    report = lab.ExperimentReport(rows=rows, config={"x": 1}, runtime_seconds=0.0)
    path = tmp_path / "r.json"
    text = lab.emit_report(report, "json", str(path))
    assert text.endswith("\n") and not text.endswith("\n\n")
    parsed = json.loads(path.read_text())
    row = parsed["rows"][0]
    assert row["value"] == 1.0 / 3.0
    assert row["lower"] == math.pi
    assert row["upper"] == 2.0 ** -52
    assert row["witness"]["v"] == 0.1


def test_csv_file_ends_with_single_newline(tmp_path):
    report = lab.ExperimentReport(rows=[], config={}, runtime_seconds=0.0)
    path = tmp_path / "r.csv"
    lab.emit_report(report, "csv", str(path))
    data = path.read_bytes()
    assert data.endswith(b"\n") and not data.endswith(b"\n\n")


def test_run_is_deterministic():
    cfg = {"generator": {"kind": "grid", "d": 1, "n": 16},
           "checks": ["coefficient_inequalities", "mean_jump_bounds",
                      "equivalence_bands"],
           "seed": 13, "budgets": {"triples": 300, "functions": 2, "pairs": 200}}
    r1 = lab.run_experiments(lab.ExperimentConfig.from_dict(cfg))
    r2 = lab.run_experiments(lab.ExperimentConfig.from_dict(cfg))
    t1 = lab.emit_report(r1, "csv")
    t2 = lab.emit_report(r2, "csv")
    assert t1 == t2


def test_chain_search_effort_in_witness_and_check_seconds_in_json_only():
    cfg = {"generator": {"kind": "grid", "d": 2, "n": 9},
           "checks": ["coefficient_chain_bound", "weak_doubling_index"], "seed": 7}
    report = lab.run_experiments(lab.ExperimentConfig.from_dict(cfg))
    witness = report.rows[0].witness
    # no chain qualifies on the 9x9 grid, so the pass is vacuous and every
    # center was searched
    assert report.rows[0].value == 0.0 and witness["qualifying"] == 0
    assert witness["centers_searched"] == 81 and witness["links_evaluated"] > 0
    seconds = report.to_json()["check_seconds"]
    assert list(seconds) == cfg["checks"] and all(v >= 0.0 for v in seconds.values())
    again = lab.run_experiments(lab.ExperimentConfig.from_dict(cfg))
    assert lab.emit_report(report, "csv") == lab.emit_report(again, "csv")
    assert "check_seconds" not in lab.emit_report(report, "csv")


def test_a_check_that_raises_names_its_type_and_keeps_its_traceback_in_json():
    def fails(ctx):
        raise ZeroDivisionError("no mass")

    cfg = {"generator": {"kind": "grid", "d": 1, "n": 8},
           "checks": ["weak_doubling_index", "upper_doubling"], "seed": 7}
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(lab.CHECKS, "weak_doubling_index", fails)
        report = lab.run_experiments(lab.ExperimentConfig.from_dict(cfg))
        again = lab.run_experiments(lab.ExperimentConfig.from_dict(cfg))
    failed, passed = report.rows
    assert failed.status == "fail" and report.exit_code == 1 and passed.status == "pass"
    assert failed.witness == {"error": "ZeroDivisionError('no mass')", "type": "ZeroDivisionError"}
    tracebacks = report.to_json()["tracebacks"]
    assert list(tracebacks) == ["weak_doubling_index"]
    assert tracebacks["weak_doubling_index"].startswith("Traceback")
    assert 'raise ZeroDivisionError("no mass")' in tracebacks["weak_doubling_index"]
    csv_text = lab.emit_report(report, "csv")
    assert csv_text == lab.emit_report(again, "csv") and "Traceback" not in csv_text


#: Each library-backed row: the module and function whose report it is, and
#: for the rows of the shared constants pass, the report's key in its result.
LIBRARY_ROWS = {
    "upper_doubling": (mmspace, "validate_upper_doubling", None),
    "lambda_comparability": (mmspace, "validate_lambda_comparability", None),
    "weak_reverse_doubling": (mmspace, "validate_weak_reverse_doubling", None),
    "coefficient_inequalities": (geometry, "check_coefficient_inequalities", None),
    "coefficient_chain_bound": (geometry, "check_coefficient_chain_bound", None),
    "doubling_coefficient_bound": (geometry, "check_doubling_coefficient_bound", None),
    "weak_doubling_index": (geometry, "validate_weak_doubling", None),
    "psi_regularity": (spaces, "validate_psi", None),
    "phi_decrease": (spaces, "validate_phi_gdec", None),
    "mean_jump_bounds": (spaces, "function_constants", "mean_jump"),
    "equivalence_bands": (spaces, "function_constants", "equivalence"),
}


@pytest.mark.parametrize("check", sorted(LIBRARY_ROWS))
def test_a_library_row_fails_exactly_when_its_report_fails(tmp_path, capsys, monkeypatch, check):
    # the row's verdict is its report's: a report with passed=False makes the
    # row "fail" and the run exit 1, whatever the report's value
    module, name, key = LIBRARY_ROWS[check]
    real = getattr(module, name)

    def failing(*args, **kwargs):
        out = real(*args, **kwargs)
        if key is None:
            return dataclasses.replace(out, passed=False)
        return {**out, key: dataclasses.replace(out[key], passed=False)}

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"generator": {"kind": "grid", "d": 1, "n": 8}, "checks": [check],
                                    "budgets": {"functions": 2}}))
    assert cli.main(["experiment", str(cfg_path)]) == 0
    assert [r["status"] for r in json.loads(capsys.readouterr().out)["rows"]] == ["pass"]
    monkeypatch.setattr(module, name, failing)
    assert cli.main(["experiment", str(cfg_path)]) == 1
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["check"] == check and row["status"] == "fail" and "error" not in row["witness"]


@pytest.mark.parametrize("generator", [
    {"kind": "two_point"},
    {"kind": "grid", "d": 1, "n": 2},
    {"kind": "grid", "d": 1, "n": 3},
    {"kind": "grid", "d": 2, "n": 2},
    {"kind": "atoms", "distances": [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]],
     "weights": [1, 2, 1, 3]},
], ids=["two_point", "grid1d_2", "grid1d_3", "grid2d_2", "ultrametric4"])
def test_degenerate_generators_fail_only_by_name(tmp_path, capsys, generator):
    # every check runs on the smallest spaces; a check that raises there
    # names an error of the package, and no run ends in an internal error
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"generator": generator}))
    assert cli.main(["experiment", str(cfg_path)]) in (0, 1)
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert sorted(r["check"] for r in rows) == sorted(lab.CHECKS)
    for row in rows:
        if "error" in row["witness"]:
            assert row["status"] == "fail"
            assert issubclass(getattr(errors, row["witness"]["type"], Exception), errors.NhsLabError), row


@pytest.mark.parametrize("generator, qualifying", [
    ({"kind": "grid", "d": 2, "n": 9}, 0),
    ({"kind": "grid", "d": 1, "n": 64}, 50),
])
def test_chain_row_says_when_its_pass_is_vacuous(generator, qualifying):
    cfg = {"generator": generator, "checks": ["coefficient_chain_bound"], "seed": 7}
    row = lab.run_experiments(lab.ExperimentConfig.from_dict(cfg)).rows[0]
    assert row.status == "pass" and row.witness["qualifying"] == qualifying
    assert row.witness["vacuous"] is (qualifying == 0)


# ------------------------------------------------------------------------------
# cross-refinement experiments
# ------------------------------------------------------------------------------
BATTERY_PATH = Path(__file__).parent / "data" / "battery_grid1d_32.json"


def test_battery_and_envelope_experiment_match_the_stored_numbers():
    # constant_battery(grid(d=1, n=32), 4, 7, kappa=0.8) and the envelope
    # experiment 16 -> 32 with 5 functions at seed 7, within 1e-9 relative to
    # max(|a|, |b|, 1): BLAS kernels can differ in the last bit across hosts
    def grid(n):
        return {"kind": "grid", "d": 1, "n": n}

    got = {"battery": lab.constant_battery(grid(32), 4, 7, kappa=0.8),
           "jn_envelope": lab.jn_envelope_experiment(grid(16), grid(32), count=5, seed=7)}
    want = json.loads(BATTERY_PATH.read_text())
    for part, stored in want.items():
        assert list(got[part]) == list(stored), part
        for key, value in stored.items():
            a, b = np.atleast_1d(got[part][key]), np.atleast_1d(value)
            scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
            assert a.shape == b.shape and np.all(np.abs(a - b) <= 1e-9 * scale), (part, key, a, b)


# ------------------------------------------------------------------------------
# command-line interface
# ------------------------------------------------------------------------------
def _write_two_point(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "points": [[0.0], [1.0]], "weights": [1.0, 1.0],
        "metadata": {"lambda": {"kappa": 1.0}}}))
    return str(path)


def test_cli_validate(tmp_path, capsys):
    code = cli.main(["validate", _write_two_point(tmp_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {r["check"] for r in out} >= {"upper_doubling", "lambda_comparability"}
    # N0 is a measured count, asserted nowhere, as in the experiment row
    assert [r["pass"] for r in out if r["check"] == "geometric_doubling"] == [None]


def test_cli_validate_failure_exit_code(tmp_path, capsys):
    # a constant dominating function has no reverse doubling: exit code 1
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "points": [[0.0], [1.0]], "weights": [1.0, 1.0],
        "metadata": {"lambda": {"kappa": 0.0}}}))
    code = cli.main(["validate", str(path)])
    capsys.readouterr()
    assert code == 1


def test_cli_function_length_mismatch(tmp_path, capsys):
    space_path = _write_two_point(tmp_path)
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps({"values": [0.0, 1.0, 2.0]}))
    assert cli.main(["norms", space_path, str(f_path)]) == 2


@pytest.mark.parametrize("content, err", [
    ('{"values": [NaN, 1, 2]}', "function value 0 must be a finite number, got nan"),
    ("5", "function file must be a JSON object with a 'values' array"),
    ('{"values": [[1, 2], [3, 4], [5, 6]]}', "function value 0 must be a finite number, got [1, 2]"),
    ('{"values": ["a", 1, 2]}', "function value 0 must be a finite number, got 'a'"),
], ids=["nan", "number", "nested", "string"])
def test_cli_malformed_function_is_a_config_error(tmp_path, capsys, content, err):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps({"points": [[0.0], [1.0], [3.0]], "weights": [1.0, 1.0, 1.0]}))
    f_path = tmp_path / "f.json"
    f_path.write_text(content)
    assert cli.main(["norms", str(space_path), str(f_path)]) == 2
    assert capsys.readouterr().err == f"config error: {err}\n"


@pytest.mark.parametrize("kappa", ["steep", True, None])
def test_cli_malformed_kappa_is_a_config_error(tmp_path, capsys, kappa):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "points": [[0.0], [1.0]], "weights": [1.0, 1.0],
        "metadata": {"lambda": {"kappa": kappa}}}))
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: lambda kappa")


@pytest.mark.parametrize("kappa", [-1, math.nan, math.inf])
def test_cli_negative_kappa_is_a_config_error(tmp_path, capsys, kappa):
    # exit code 1 is kept for a failing check, not for a bad exponent in the file
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "points": [[0.0], [1.0]], "weights": [1.0, 1.0],
        "metadata": {"lambda": {"kappa": kappa}}}))
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: lambda kappa")


@pytest.mark.parametrize("space, code, err", [
    ({"points": [[0.0], [1.0], [3.0]]}, 2, "config error: atoms generator needs"),
    ([[0.0], [1.0]], 2, "config error: space file must be a JSON object"),
    ({"points": [[0.0], [1.0]], "weights": [1.0, math.inf]}, 1, "check error: weight of point 1"),
    ({"distances": [[0.0, math.nan], [math.nan, 0.0]], "weights": [1.0, 1.0]}, 1,
     "check error: distance d(0,1)"),
    ({"points": [[0.0], [1.0]], "weights": [1.0, 1.0], "metadata": "x"}, 2,
     "config error: space metadata must be an object"),
    ({"points": [["a"], [1.0]], "weights": [1.0, 1.0]}, 1,
     "check error: points must be a rectangular array of numbers"),
    ({"points": [[0, 1], [1]], "weights": [1.0, 1.0]}, 1,
     "check error: points must be a rectangular array of numbers"),
])
def test_cli_malformed_space_file(tmp_path, capsys, space, code, err):
    # a missing key is a config error; a non-finite number fails the build by name
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    assert cli.main(["validate", str(path)]) == code
    assert capsys.readouterr().err.startswith(err)


@pytest.mark.parametrize("tau", ["1.0", "0.5", "-3", "nan", "inf"])
def test_cli_tau_at_most_one_is_a_config_error(tmp_path, capsys, tau):
    space_path = _write_two_point(tmp_path)
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps({"values": [0.0, 1.0]}))
    assert cli.main(["coeff", space_path, f"--tau={tau}"]) == 2
    assert "tau must exceed 1" in capsys.readouterr().err
    assert cli.main(["norms", space_path, str(f_path), f"--tau={tau}"]) == 2
    assert "tau must exceed 1" in capsys.readouterr().err
    assert cli.main(["coeff", space_path, "--tau=1.5", "--chains=2"]) == 0
    assert cli.main(["norms", space_path, str(f_path), "--tau=1.5"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command, flag, err", [
    ("validate", "--a-grid=0.5", "dilation factor must exceed 1"),
    ("validate", "--a-grid=inf", "dilation factor must exceed 1"),
    ("norms", "--gamma=0.5", "gamma must be at least 1"),
    ("norms", "--gamma=nan", "gamma must be at least 1"),
    ("norms", "--gamma=inf", "gamma must be at least 1"),
])
def test_cli_numeric_flag_out_of_range_is_a_config_error(tmp_path, capsys, command, flag, err):
    # a flag outside its range or not finite exits 2 at parsing, before any
    # check runs; exit 1 is kept for a check that fails
    space_path = _write_two_point(tmp_path)
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps({"values": [0.0, 1.0]}))
    files = [space_path, str(f_path)] if command == "norms" else [space_path]
    assert cli.main([command, *files, flag]) == 2
    assert f"argument {flag.split('=')[0]}: {err} and be finite" in capsys.readouterr().err


@pytest.mark.parametrize("chains", ["-1", "-3", "two"])
def test_cli_negative_chain_count_is_a_config_error(tmp_path, capsys, chains):
    space_path = _write_two_point(tmp_path)
    assert cli.main(["coeff", space_path, f"--chains={chains}"]) == 2
    assert "--chains" in capsys.readouterr().err
    assert cli.main(["coeff", space_path, "--chains=0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["value"] for r in out if r["check"] == "coefficient_chain_bound"] == [0.0]


@pytest.mark.parametrize("budget", ["-1", "two"])
def test_cli_negative_coeff_budget_is_a_config_error(tmp_path, capsys, budget):
    space_path = _write_two_point(tmp_path)
    assert cli.main(["coeff", space_path, f"--budget={budget}", "--chains=0"]) == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "two"])
def test_cli_negative_coeff_seed_is_a_config_error(tmp_path, capsys, seed):
    # a seed below 0 stops at parsing, not in the pair sampler's draws
    space_path = _write_two_point(tmp_path)
    assert cli.main(["coeff", space_path, f"--seed={seed}", "--chains=0"]) == 2
    assert "argument --seed: " in capsys.readouterr().err


def test_cli_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    # exit code 1 stays reserved for failing checks
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_validate", broken)
    assert cli.main(["validate", _write_two_point(tmp_path)]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_cli_norms_and_operators(tmp_path, capsys):
    space_path = _write_two_point(tmp_path)
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps({"values": [0.0, 1.0]}))
    assert cli.main(["norms", space_path, str(f_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["campanato"]["norm"] == pytest.approx(0.5, rel=1e-9)
    assert cli.main(["operators", space_path, str(f_path), "--b", str(f_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["domination"]["pass"] is True


def test_cli_experiment_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "generator": {"kind": "grid", "d": 1, "n": 8},
        "checks": ["hand_fixtures"], "seed": 3,
        "output_path": str(tmp_path / "out.json")}))
    assert cli.main(["experiment", str(cfg_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "out.json").exists()
    assert (tmp_path / "out.csv").exists()

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"checks": []}))
    assert cli.main(["experiment", str(bad_cfg)]) == 2
    assert cli.main(["experiment", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("generator", ["grid", ["grid"], 64, None])
def test_cli_experiment_generator_not_an_object_is_a_config_error(tmp_path, capsys, generator):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"generator": generator}))
    assert cli.main(["experiment", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: experiment config needs a 'generator' object")


@pytest.mark.parametrize("budgets", [{"pairs": "abc"}, {"triples": -3}, {"pairs": True},
                                     {"chains": 2.0}, {"pair": 10}, [["pairs", 10]], "pairs"])
def test_cli_experiment_malformed_budgets_are_a_config_error(tmp_path, capsys, budgets):
    cfg = {"generator": {"kind": "grid", "d": 1, "n": 8}, "checks": ["phi_decrease"], "budgets": budgets}
    with pytest.raises(nl.SpecError, match="budgets"):
        lab.ExperimentConfig.from_dict(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: budgets")
    zeros = dict.fromkeys(lab.BUDGETS, 0)
    assert lab.ExperimentConfig.from_dict({**cfg, "budgets": zeros}).budgets == zeros


@pytest.mark.parametrize("change, env_seed", [
    ({"seed": "abc"}, None),
    ({"seed": 2.7}, None),
    ({"seed": -1}, None),
    ({"seed": True}, None),
    ({"max_n": "x"}, None),
    ({"max_n": 600.5}, None),
    ({"generator": {"kind": "grid", "d": 1, "n": "eight"}}, None),
    ({"generator": {"kind": "grid", "d": 1.5, "n": 8}}, None),
    ({"generator": {"kind": "grid", "d": 1, "n": 8, "weights": {"power": "x"}}}, None),
    ({"generator": {"kind": "grid", "d": 1, "n": 8, "weights": {"random": -1}}}, None),
    ({"generator": {"kind": "grid", "d": 1, "n": 8, "weights": {"random": 2.5}}}, None),
    ({"psi": {"family": "radius_power", "exponent": "x"}}, None),
    ({"psi": {"family": "lambda_power", "alpha": True}}, None),
    ({"phi": {"family": "power", "a": True, "delta": 0.5}}, None),
    ({"phi": {"family": "constant", "delta": math.nan}}, None),
    ({"params": {"delta": 0.5}}, None),
    ({"params": {"p": 0.5}}, None),
    ({"params": {"tau": 2}}, None),
    ({"params": {"q": 1.5}}, None),
    ({}, "-1"),
    ({"checks": 5}, None),
    ({"checks": None}, None),
    ({"checks": [{}]}, None),
    ({"psi": "constant"}, None),
    ({"phi": ["power"]}, None),
    ({"output_path": 5}, None),
    ({"output_path": ["out"]}, None),
])
def test_cli_experiment_malformed_numbers_are_config_errors(tmp_path, capsys, monkeypatch, change, env_seed):
    # a number that is not an integer (or, for the weight, psi and phi
    # fields, a finite number) in range exits 2; none runs truncated.
    # OperatorParams has no delta (phi's delta is set in "phi").  So do
    # checks that are not a list of names, psi or phi that is not an object,
    # and an output path that is not a string
    cfg = {"generator": {"kind": "grid", "d": 1, "n": 8}, "checks": ["coefficient_inequalities"],
           "seed": 7, "budgets": {"triples": 50}, **change}
    if env_seed is None:
        monkeypatch.delenv(lab.SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(lab.SEED_ENV_VAR, env_seed)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_two_dimensional_grid_experiment_runs():
    cfg = lab.ExperimentConfig.from_dict({
        "generator": {"kind": "grid", "d": 2, "n": 4},
        "checks": ["upper_doubling", "identity_suite", "coefficient_inequalities"],
        "seed": 5, "budgets": {"triples": 200}})
    report = lab.run_experiments(cfg)
    assert report.exit_code == 0


def test_decreasing_dominating_function_reported_non_monotone(two_point):
    space, _ = two_point
    lam = nl.DominatingFunction(lambda c, r: 1.0 / r, c_lambda=2.0)
    report = nl.validate_weak_reverse_doubling(lam, space, 1.0, (2.0,))
    assert not report.passed
    assert report.worst_witness.get("non_monotone") is True


def test_cli_experiment_csv_format(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "generator": {"kind": "two_point"}, "checks": ["hand_fixtures"]}))
    assert cli.main(["experiment", str(cfg_path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "check,n,generator,value,lower,upper,witness,pass"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", ["out", "out.json"])
def test_cli_experiment_stdout_is_the_written_report(tmp_path, capsys, monkeypatch, fmt, name):
    # with --output, each format is encoded once: stdout is the text of its file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "generator": {"kind": "grid", "d": 1, "n": 8}, "checks": ["hand_fixtures", "upper_doubling"]}))
    encoded, emit = [], lab.emit_report
    monkeypatch.setattr(lab, "emit_report", lambda report, f, path=None: encoded.append(f) or emit(report, f, path))
    assert cli.main(["experiment", str(cfg_path), "--output", str(tmp_path / name), "--format", fmt]) == 0
    assert capsys.readouterr().out == (tmp_path / f"out.{fmt}").read_text(encoding="utf-8")
    assert sorted(encoded) == ["csv", "json"]
    assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["rows"]


def test_cli_coeff_with_chain_file(tmp_path, capsys):
    space_path = _write_two_point(tmp_path)
    chains_path = tmp_path / "chains.json"
    chains_path.write_text(json.dumps([
        [0, 1.0, [0, 1]],
        {"center": 1, "base_radius": 0.5, "exponents": [0, 2, 4]},
    ]))
    code = cli.main(["coeff", space_path, "--chains-file", str(chains_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    chain_rows = [r for r in out if r["check"] == "coefficient_chain_bound"]
    assert len(chain_rows) == 1


@pytest.mark.parametrize("chains", [[[0, 0.5]], [{"center": 0}], 5])
def test_cli_malformed_chain_file_is_a_config_error(tmp_path, capsys, chains):
    space_path = _write_two_point(tmp_path)
    chains_path = tmp_path / "chains.json"
    chains_path.write_text(json.dumps(chains))
    assert cli.main(["coeff", space_path, "--chains-file", str(chains_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: chain file must be a list")


@pytest.mark.parametrize("chains", [[[5, 0.5, [0, 1]]], [[1, 1.0, [0, 1]], [-1, 0.5, [0, 1, 2]]]],
                         ids=["past_the_last_point", "negative"])
def test_cli_chain_center_outside_the_space_is_a_config_error(tmp_path, capsys, chains):
    # a center past the last point would index out of range, and a negative
    # one would wrap to a point from the end; both stop at the input gate
    space_path = _write_two_point(tmp_path)
    chains_path = tmp_path / "chains.json"
    chains_path.write_text(json.dumps(chains))
    assert cli.main(["coeff", space_path, "--chains-file", str(chains_path)]) == 2
    i, bad = len(chains) - 1, chains[-1]
    assert capsys.readouterr().err == (
        f"config error: chain {i} {bad!r} has center {bad[0]}, outside the points 0..1\n")


@pytest.mark.parametrize("chain, err", [
    ([0.7, 1.0, [0, 1]], "center must be an integer, got 0.7"),
    ([True, 1.0, [0, 1]], "center must be an integer, got True"),
    ([0, 1.0, [0, 1.5]], "exponent must be an integer, got 1.5"),
    ([0, True, [0, 1]], "base radius must be a finite number, got True"),
], ids=["float_center", "bool_center", "float_exponent", "bool_radius"])
def test_cli_chain_entry_of_another_type_is_a_config_error(tmp_path, capsys, chain, err):
    # int() and float() would truncate or convert each of these and run
    space_path = _write_two_point(tmp_path)
    chains_path = tmp_path / "chains.json"
    chains_path.write_text(json.dumps([[1, 0.5, [0, 2]], chain]))
    assert cli.main(["coeff", space_path, "--chains-file", str(chains_path)]) == 2
    assert capsys.readouterr().err == f"config error: chain 1 {chain!r} {err}\n"


def test_the_maximal_morrey_row_reads_every_report(tmp_path, capsys, monkeypatch):
    # one failing function among the row's 2 * embedding_functions fails it
    real, calls = operators.check_maximal_morrey_pointwise, []

    def first_fails(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return dataclasses.replace(out, passed=False) if len(calls) == 1 else out

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"generator": {"kind": "grid", "d": 1, "n": 8},
                                    "checks": ["maximal_morrey_pointwise"]}))
    assert cli.main(["experiment", str(cfg_path)]) == 0
    assert [r["status"] for r in json.loads(capsys.readouterr().out)["rows"]] == ["pass"]
    monkeypatch.setattr(operators, "check_maximal_morrey_pointwise", first_fails)
    assert cli.main(["experiment", str(cfg_path)]) == 1
    assert [r["status"] for r in json.loads(capsys.readouterr().out)["rows"]] == ["fail"]
    assert len(calls) == 2 * lab.BUDGETS["embedding_functions"]


def test_cli_module_entry_point(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "generator": {"kind": "two_point"}, "checks": ["hand_fixtures"]}))
    proc = subprocess.run([sys.executable, "-m", "nhslab", "experiment", str(cfg_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "hand_fixtures" in proc.stdout
