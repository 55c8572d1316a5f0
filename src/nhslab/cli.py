"""Command-line interface.

Subcommands:
  validate    space checks (metric, domination, comparability, dilation)
  coeff       coefficient suite on a space
  norms       Morrey / oscillation-regularity norms of a function
  operators   integral and maximal operator values, plus the domination check
  experiment  run a configured experiment and emit JSON/CSV reports

Exit codes: 0 all checks passed, 1 an exact check failed, 2 configuration
error, 3 internal error (any other exception, reported as one line on
stderr).  The NHS_LAB_SEED environment variable overrides configured seeds.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import geometry, lab, mmspace, operators, spaces
from .errors import NhsLabError, SpecError
from .operators import OperatorParams
from .report import CheckReport


def _tau(text: str) -> float:
    """A dilation step: a number above 1."""
    value = float(text)
    if not value > 1.0:
        raise argparse.ArgumentTypeError(f"tau must exceed 1, got {value!r}")
    return value


def load_space(path: str):
    """Space JSON: {"points": [[...]...] | "distances": [[...]], "weights": [...],
    "metadata": {...}}; metadata may carry {"lambda": {"kappa": ...}}."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if "points" in raw:
        space = mmspace.build_space(points=raw["points"], weights=raw["weights"])
    elif "distances" in raw:
        space = mmspace.build_space(distances=raw["distances"], weights=raw["weights"])
    else:
        raise SpecError("space file needs 'points' or 'distances'")
    meta = raw.get("metadata", {})
    kappa = meta.get("lambda", {}).get("kappa", "auto")
    if kappa != "auto" and (isinstance(kappa, bool) or not isinstance(kappa, (int, float))):
        raise SpecError(f"lambda kappa must be \"auto\" or a number, got {kappa!r}")
    lam = mmspace.fit_power_lambda(space, kappa)
    return space, lam


def load_function(path: str, space=None) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if "values" not in raw:
        raise SpecError("function file needs a 'values' array")
    values = np.asarray(raw["values"], dtype=float)
    if space is not None and values.shape != (space.n,):
        raise SpecError(f"function has {values.shape[0]} values but the space has {space.n} points")
    return values


def _emit(reports: list) -> int:
    payload = [r.to_json() if isinstance(r, CheckReport) else r for r in reports]
    print(json.dumps(payload, indent=2, default=lab._json_default))
    failed = any(isinstance(r, CheckReport) and r.passed is False for r in reports)
    return 1 if failed else 0


def _cmd_validate(args) -> int:
    space, lam = load_space(args.space)
    reports = [
        mmspace.validate_upper_doubling(space, lam),
        mmspace.validate_lambda_comparability(space, lam),
        mmspace.validate_weak_reverse_doubling(lam, space, args.sigma, tuple(args.a_grid)),
    ]
    profile = mmspace.make_profile(space, lam)
    reports.append(CheckReport(check="geometric_doubling", passed=True,
                               value=float(profile.N0),
                               details={"nu": profile.nu, "beta6": profile.beta(6.0)}))
    return _emit(reports)


def _cmd_coeff(args) -> int:
    space, lam = load_space(args.space)
    profile = mmspace.make_profile(space, lam)
    reports = [
        geometry.check_coefficient_inequalities(space, lam, (args.tau, 6.0),
                                                args.budget, args.seed),
        geometry.check_doubling_coefficient_bound(space, lam, profile, 6.0),
        geometry.validate_weak_doubling(space, lam, profile, args.tau),
    ]
    if args.chains_file is not None:
        chains = lab.load_chains(args.chains_file)
    else:
        chains = lab.generate_chains(space, lam, args.tau, args.chains, args.seed)
    reports.append(geometry.check_coefficient_chain_bound(space, lam, args.tau, chains))
    return _emit(reports)


def _cmd_norms(args) -> int:
    space, lam = load_space(args.space)
    f = load_function(args.function, space)
    psi = lab.make_psi({"family": args.psi}, lam)
    phi = lab.make_phi(None)
    rep = spaces.campanato_norm(space, lam, f, psi, args.tau, args.gamma)
    payload = {
        "campanato": {
            "norm": rep.norm,
            "oscillation_sup": rep.oscillation_sup,
            "regularity_sup": rep.regularity_sup,
            "oscillation_witness": rep.oscillation_witness,
            "regularity_witness": rep.regularity_witness,
        },
        "morrey_p2": spaces.morrey_norm(space, f, 2.0, phi, 2.0),
        "p_oscillation_p2": spaces.p_oscillation_norm(space, f, psi, 2.0, args.tau),
    }
    print(json.dumps(payload, indent=2, default=lab._json_default))
    return 0


def _cmd_operators(args) -> int:
    space, lam = load_space(args.space)
    f = load_function(args.function, space)
    params = OperatorParams()
    kernel = operators.make_kernel(space, lam)
    profile = mmspace.make_profile(space, lam)
    marc = operators.marcinkiewicz(space, kernel, f, None, params)
    pot = operators.t_lambda(space, lam, np.abs(f))
    dom = operators.check_pointwise_domination(space, lam, kernel, f, params)
    payload = {
        "marcinkiewicz_max": float(np.max(marc)),
        "potential_max": float(np.max(pot)),
        "maximal_p5_max": float(np.max(operators.maximal_p_tau(space, f, params.p, 5.0))),
        "sharp_maximal_max": float(np.max(operators.sharp_maximal(space, lam, profile, f))),
        "domination": dom.to_json(),
    }
    if args.b is not None:
        b = load_function(args.b, space)
        comm = operators.marcinkiewicz_commutator(space, kernel, b, f, None, params)
        payload["commutator_max"] = float(np.max(comm))
    print(json.dumps(payload, indent=2, default=lab._json_default))
    return 1 if dom.passed is False else 0


def _cmd_experiment(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    config = lab.ExperimentConfig.from_dict(raw)
    report = lab.run_experiments(config)
    out = args.output or config.output_path
    if out:
        lab.emit_report(report, "json", out if out.endswith(".json") else out + ".json")
        lab.emit_report(report, "csv", out[: -5] + ".csv" if out.endswith(".json") else out + ".csv")
    print(lab.emit_report(report, args.format), end="")
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nhslab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="space and dominating-function checks")
    p.add_argument("space")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--a-grid", type=float, nargs="+", default=[2.0])
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("coeff", help="coefficient inequality suite")
    p.add_argument("space")
    p.add_argument("--tau", type=_tau, default=2.0)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--chains", type=int, default=25,
                   help="number of qualifying chains to generate")
    p.add_argument("--chains-file", default=None,
                   help="JSON chain specifications instead of generated chains")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=_cmd_coeff)

    p = sub.add_parser("norms", help="norms of a discrete function")
    p.add_argument("space")
    p.add_argument("function")
    p.add_argument("--psi", default="constant")
    p.add_argument("--tau", type=_tau, default=2.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.set_defaults(fn=_cmd_norms)

    p = sub.add_parser("operators", help="operator values and domination check")
    p.add_argument("space")
    p.add_argument("function")
    p.add_argument("--b", default=None, help="commutator symbol function file")
    p.set_defaults(fn=_cmd_operators)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("config")
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (SpecError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NhsLabError as exc:
        print(f"check error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
