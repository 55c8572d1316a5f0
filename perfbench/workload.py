"""One benchmark workload in one fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
        --tmp DIR [--trace] [--setup-only] [--spawned-at T]
    python3 perfbench/workload.py --workload NAME --write-reference

The process imports ``nhslab`` from ``src/`` of the checkout, builds the
workload's inputs from the seed (the set-up), then repeats the workload's
unit of work, each time on the same inputs and cold library caches, until the
next unit would end after ``--seconds``; at least one unit runs.  After each
unit it checks the outputs: every operation must return, every exact check
must pass and every reported constant must be finite; at the reference seed
the results must also match the stored reference within 1e-9 (relative to
max(|a|, |b|, 1), the rule of the repository's golden-report test).

Timings are CPU seconds (user plus system) of this single-threaded process,
so time the shared host takes the processor away does not count; wall
seconds are recorded beside them.  The last stdout line is a JSON object with
the set-up seconds (CPU from process start; wall counted from
``--spawned-at``, the parent's wall clock when it started this process), the
seconds of every unit and of every space, the peak RSS, the operation counts
and, with ``--trace``, the per-layer values of every unit.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"

#: The seed at which outputs are compared with stored reference values; it is
#: the default seed of the golden experiment configuration.
REFERENCE_SEED = 7
REL_TOL = 1e-9

#: Functions per battery unit.  Geometric doubling and the nested-pair sample
#: are paid once per unit, the per-function kernels once per function.
BATTERY_COUNT = 6
BATTERY_GENERATOR = {"kind": "grid", "d": 1, "n": 256}

RANDOM_SPACES = 40
RANDOM_N = (6, 96)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


class Ops:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


class Stopwatch:
    """Wall and CPU seconds since it was made; ``read()`` returns both."""

    def __init__(self):
        self.wall, self.cpu = time.perf_counter(), time.process_time()

    def read(self) -> tuple:
        return time.perf_counter() - self.wall, time.process_time() - self.cpu


def finite(*values) -> bool:
    return all(v is None or math.isfinite(v) for v in values)


# ------------------------------------------------------------------------------
# Experiment workloads: the CLI path on a grid configuration
# ------------------------------------------------------------------------------
class Experiment:
    """``nhslab.cli.main(["experiment", cfg, "--output", out])`` in-process."""

    def __init__(self, generator: dict, reference_path: Path):
        self.generator = generator
        self.reference_path = reference_path

    def config(self, seed: int) -> dict:
        from nhslab import lab

        return {"generator": self.generator, "seed": seed, "checks": sorted(lab.CHECKS)}

    def setup(self, seed: int, tmp: Path):
        cfg_path = tmp / "config.json"
        cfg_path.write_text(json.dumps(self.config(seed)))
        reference = None
        if seed == REFERENCE_SEED:
            reference = {r["check"]: r for r in json.loads(self.reference_path.read_text())["rows"]}
        return {"cfg": str(cfg_path), "out": str(tmp / "report"), "reference": reference}

    def unit(self, state, ops: Ops) -> list:
        from nhslab import cli

        watch = Stopwatch()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["experiment", state["cfg"], "--output", state["out"]])
        except Exception as exc:  # counted as a failed operation
            ops.check(False, f"cli.main raised {type(exc).__name__}: {exc}")
            return [watch.read()]
        spent = watch.read()
        ops.check(code == 0, f"cli exit code {code}")
        try:
            rows = self.rows(state["out"] + ".json")
        except (OSError, ValueError) as exc:
            ops.check(False, f"report unreadable: {exc}")
            return [spent]
        reference = state["reference"]
        if reference is not None:
            ops.check(set(rows) == set(reference), "checks differ from the reference")
        for name, row in rows.items():
            ok = row["status"] == "pass" and finite(row["value"], row["lower"], row["upper"])
            ref = None if reference is None else reference.get(name)
            if ref is not None:
                ok = ok and row["status"] == ref["status"]
                for key in ("value", "lower", "upper"):
                    a, b = row[key], ref[key]
                    ok = ok and (a == b if a is None or b is None else close(a, b))
            ops.check(ok, f"check {name}: {row['status']} value={row['value']!r}")
        return [spent]

    @staticmethod
    def rows(path: str) -> dict:
        with open(path, encoding="utf-8") as fh:
            return {r["check"]: r for r in json.load(fh)["rows"]}

    def reference(self, seed: int) -> dict:
        from nhslab import lab

        config = lab.ExperimentConfig.from_dict(self.config(seed))
        report = lab.run_experiments(config).to_json()
        return {"seed": seed, "rows": [{k: r[k] for k in ("check", "status", "value", "lower", "upper")}
                                       for r in report["rows"]]}


# ------------------------------------------------------------------------------
# Constant battery: the refinement-stability path
# ------------------------------------------------------------------------------
class Battery:
    """``lab.constant_battery(grid(d=1, n=256), BATTERY_COUNT, seed, kappa=0.8)``."""

    def setup(self, seed: int, tmp: Path):
        import nhslab  # noqa: F401  (set-up includes the import)

        reference = None
        if seed == REFERENCE_SEED:
            reference = json.loads((REFERENCE_DIR / "battery_grid1d_256.json").read_text())["constants"]
        return {"seed": seed, "reference": reference}

    def run(self, seed: int) -> dict:
        from nhslab import lab

        return lab.constant_battery(dict(BATTERY_GENERATOR), BATTERY_COUNT, seed, kappa=0.8)

    def unit(self, state, ops: Ops) -> list:
        watch = Stopwatch()
        try:
            out = self.run(state["seed"])
        except Exception as exc:  # counted as a failed operation
            ops.check(False, f"constant_battery raised {type(exc).__name__}: {exc}")
            return [watch.read()]
        spent = watch.read()
        reference = state["reference"]
        if reference is not None:
            ops.check(set(out) == set(reference), "constants differ from the reference")
        for key, value in out.items():
            ok = value is not None and math.isfinite(value)
            if ok and reference is not None and key in reference:
                ok = close(value, reference[key])
            ops.check(ok, f"constant {key} = {value!r}")
        return [spent]

    def reference(self, seed: int) -> dict:
        return {"seed": seed, "count": BATTERY_COUNT, "constants": self.run(seed)}


# ------------------------------------------------------------------------------
# Random spaces: many small spaces with cold caches
# ------------------------------------------------------------------------------
class RandomSpaces:
    """Build and analyse RANDOM_SPACES fresh seeded spaces.

    The sizes n are spread evenly over RANDOM_N and are the same for every
    seed: time per space jumps where a space falls under the exhaustive
    enumeration limit, so sizes drawn per seed would make the per-space
    percentiles depend on the seed.  Spaces 3, 7, 11, ... are shortest-path
    metrics of random connected graphs with integer edge lengths (many tied
    distances); the others are uniform points in [0, 1]^d, d cycling through
    1, 2, 3 (distinct distances).
    """

    def inputs(self, seed: int) -> list:
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        lo, hi = RANDOM_N
        specs = []
        for k in range(RANDOM_SPACES):
            rng = np.random.default_rng([seed, k])
            n = lo + k * (hi - lo) // (RANDOM_SPACES - 1)
            weights = np.exp(rng.uniform(math.log(1e-3), 0.0, size=n))
            f = rng.uniform(-1.0, 1.0, size=n)
            if k % 4 == 3:
                # random spanning tree plus n extra edges, lengths 1..4
                src = list(range(1, n)) + list(rng.integers(0, n, size=n))
                dst = [int(rng.integers(0, i)) for i in range(1, n)] + list(rng.integers(0, n, size=n))
                length = rng.integers(1, 5, size=len(src)).astype(float)
                keep = [i for i in range(len(src)) if src[i] != dst[i]]
                graph = csr_matrix((length[keep], ([src[i] for i in keep], [dst[i] for i in keep])),
                                   shape=(n, n))
                dist = shortest_path(graph, directed=False)
                specs.append({"kind": "graph", "distances": dist, "weights": weights, "f": f})
            else:
                d = k % 4 + 1
                specs.append({"kind": f"points{d}", "points": rng.random((n, d)),
                              "weights": weights, "f": f})
        return specs

    def setup(self, seed: int, tmp: Path):
        import nhslab  # noqa: F401  (set-up includes the import)

        reference = None
        if seed == REFERENCE_SEED:
            reference = json.loads((REFERENCE_DIR / "random_spaces.json").read_text())["spaces"]
        return {"specs": self.inputs(seed), "reference": reference}

    @staticmethod
    def analyse(spec: dict) -> dict:
        """The per-space pipeline; returns the values it computed."""
        import numpy as np
        from nhslab import mmspace, operators, spaces

        f = spec["f"]
        if "points" in spec:
            space = mmspace.build_space(points=spec["points"], weights=spec["weights"])
        else:
            space = mmspace.build_space(distances=spec["distances"], weights=spec["weights"])
        lam = mmspace.fit_power_lambda(space)
        upper = mmspace.validate_upper_doubling(space, lam)
        profile = mmspace.make_profile(space, lam)
        kernel = operators.make_kernel(space, lam)
        camp = spaces.campanato_norm(space, lam, f, spaces.constant_psi())
        sharp = operators.sharp_maximal(space, lam, profile, f)
        marc = operators.marcinkiewicz(space, kernel, f)
        dom = operators.check_pointwise_domination(space, lam, kernel, f)

        def summary(a):
            return [float(np.max(a)), float(np.min(a)), float(np.sum(a))]

        return {
            "passed": {"upper_doubling": upper.passed, "pointwise_domination": dom.passed},
            "values": {
                "space": [space.n, space.diameter, space.total_measure],
                "lambda": [lam.c_lambda, lam(0, space.diameter)],
                "upper_doubling": [upper.value],
                "profile": [profile.N0],
                "kernel": [kernel.c_size, float(np.sum(kernel.matrix))],
                "campanato": [camp.norm, camp.oscillation_sup, camp.regularity_sup],
                "sharp_maximal": summary(sharp),
                "marcinkiewicz": summary(marc),
                "pointwise_domination": [dom.value],
            },
        }

    def unit(self, state, ops: Ops) -> list:
        times = []
        reference = state["reference"]
        for k, spec in enumerate(state["specs"]):
            watch = Stopwatch()
            try:
                out = self.analyse(spec)
            except Exception as exc:  # counted as a failed operation
                times.append(watch.read())
                ops.check(False, f"space {k} ({spec['kind']}) raised {type(exc).__name__}: {exc}")
                continue
            times.append(watch.read())
            ops.check(True, "")
            for name, passed in out["passed"].items():
                ops.check(passed is True, f"space {k}: {name} failed")
            for name, values in out["values"].items():
                ok = finite(*values)
                if reference is not None:
                    ok = ok and all(close(a, b) for a, b in zip(values, reference[k][name]))
                ops.check(ok, f"space {k}: {name} = {values!r}")
        return times

    def reference(self, seed: int) -> dict:
        return {"seed": seed, "spaces": [self.analyse(spec)["values"] for spec in self.inputs(seed)]}


#: Each workload's ``unit`` returns one ``Stopwatch.read()`` pair per space.
WORKLOADS = {
    "experiment_grid2d_81": Experiment({"kind": "grid", "d": 2, "n": 9},
                                       REFERENCE_DIR / "experiment_grid2d_81.json"),
    "battery_grid1d_256": Battery(),
    "random_spaces": RandomSpaces(),
}


# ------------------------------------------------------------------------------
# Process entry point
# ------------------------------------------------------------------------------
def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--tmp", help="scratch directory for experiment files")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this workload's reference outputs at the reference seed")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    if args.write_reference:
        data = workload.reference(REFERENCE_SEED)
        name = f"{args.workload}.json"
        REFERENCE_DIR.mkdir(exist_ok=True)
        (REFERENCE_DIR / name).write_text(json.dumps(data, indent=1) + "\n")
        return 0

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    state = workload.setup(args.seed, tmp)
    setup_wall_s = time.time() - spawned_at
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    ops = Ops()
    unit_s, unit_wall_s, space_s, layers = [], [], [], []
    start = time.perf_counter()
    while True:
        timed = workload.unit(state, ops)
        space_s.extend(cpu for _, cpu in timed)
        unit_s.append(sum(cpu for _, cpu in timed))
        unit_wall_s.append(sum(wall for wall, _ in timed))
        if tracer is not None:
            layers.append(tracer.end_run())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(unit_wall_s) > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(ROOT / ".perfbench_out" / f"spans-{args.workload}.npz")

    print(json.dumps({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "unit_s": unit_s,
        "unit_wall_s": unit_wall_s,
        "space_s": space_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "messages": ops.messages,
        "layers": layers,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
