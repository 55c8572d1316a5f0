from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import nhslab as nl
from nhslab import cli, lab
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


# ------------------------------------------------------------------------------
# function generators
# ------------------------------------------------------------------------------
def test_indicator_family(grid16):
    space, _ = grid16
    fs = lab.generate_functions(space, {"kind": "indicator", "center": 0.5,
                                        "radius": 0.2}, 1)
    center = int(np.argmin(np.abs(space.coords[:, 0] - 0.5)))
    mask = space.dist[center] <= 0.2
    assert np.array_equal(fs[0], mask.astype(float))


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


def test_psi_adapted_unit_norm(grid16, psi_const):
    space, lam = grid16
    fs = lab.generate_functions(space, "psi_adapted", 2, 4, lam=lam, psi=psi_const)
    for f in fs:
        assert nl.campanato_norm(space, lam, f, psi_const).norm == pytest.approx(1.0, rel=1e-9)


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


@pytest.mark.parametrize("kappa", ["steep", True, None])
def test_cli_malformed_kappa_is_a_config_error(tmp_path, capsys, kappa):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "points": [[0.0], [1.0]], "weights": [1.0, 1.0],
        "metadata": {"lambda": {"kappa": kappa}}}))
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: lambda kappa")


@pytest.mark.parametrize("tau", ["1.0", "0.5", "-3", "nan"])
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


def test_cli_module_entry_point(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "generator": {"kind": "two_point"}, "checks": ["hand_fixtures"]}))
    proc = subprocess.run([sys.executable, "-m", "nhslab", "experiment", str(cfg_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "hand_fixtures" in proc.stdout
