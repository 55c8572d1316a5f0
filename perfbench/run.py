"""Benchmark of the nhslab pipeline: three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``nhslab`` is imported from its ``src/``.
Every workload runs in fresh processes, one at a time, with one BLAS thread
and ``NHS_LAB_SEED`` unset (see ``workload.py`` for the workloads).

Timings are CPU seconds of the single-threaded workload process, so time the
shared host takes the processor away does not count.  How fast the host runs
a process changes from one unit of work to the next, so ``--trace 0`` spreads
the S seconds over up to MAX_PROCESSES fresh measuring processes of one unit
each, started one after another while the units measured so far and one more
fit in S, and pads with processes that only set up until there are SETUPS
set-ups.  It reports the end-to-end metrics: ``setup_s`` (median over the
set-ups), ``run_cpu_s`` (median seconds of one unit of work), ``peak_rss_mb``
(highest of the measuring processes), ``space_p50_cpu_s`` and
``space_p75_cpu_s`` (per space; a unit of the experiment and battery
workloads handles one space).

``--trace 1`` runs the wrapping self-test, then one untraced and one traced
process for S/2 seconds each, and reports per-layer values for one unit of
work: ``<layer>.<function>.calls`` and ``.self_s`` (medians over the traced
units), the derived values of ``layertrace.Tracer.end_run`` and
``trace_overhead_s`` (traced minus untraced ``run_cpu_s``).

Operations that raise, fail an exact check or miss the output check count in
``failed``; the last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("experiment_grid2d_81", "battery_grid1d_256", "random_spaces")
MAX_PROCESSES = 8
SETUPS = 5
#: Every child process ends, or is killed, this many seconds after the start.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NHS_LAB_SEED", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(script: str, args: list, deadline: float) -> dict:
    """Run a benchmark script in a fresh interpreter; return its last JSON line."""
    cmd = [sys.executable, str(BENCH_DIR / script)] + [str(a) for a in args]
    if script == "workload.py":
        cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0), text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} {args} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def measure(workload: str, seed: int, seconds: float, tmp: Path, deadline: float):
    common = ["--workload", workload, "--seed", seed]
    runs, measured = [], 0.0
    while len(runs) < MAX_PROCESSES:
        # --seconds 0: the process runs exactly one unit
        run = run_child("workload.py", common + ["--seconds", 0, "--tmp", tmp / f"m{len(runs)}"],
                        deadline)
        runs.append(run)
        measured += run["unit_wall_s"][0]
        if measured + run["unit_wall_s"][0] > seconds:
            break
    setups = runs + [run_child("workload.py", common + ["--setup-only", "--tmp", tmp / f"s{i}"],
                               deadline) for i in range(SETUPS - len(runs))]
    unit_s = [u for run in runs for u in run["unit_s"]]
    space_s = [u for run in runs for u in run["space_s"]]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "run_cpu_s": (statistics.median(unit_s), "s"),
        "peak_rss_mb": (max(run["peak_rss_mb"] for run in runs), "MB"),
        "space_p50_cpu_s": (statistics.median(space_s), "s"),
        "space_p75_cpu_s": (percentile(space_s, 75), "s"),
    }
    info = {"setup_samples": [s["setup_s"] for s in setups],
            "setup_wall_samples": [s["setup_wall_s"] for s in setups],
            "unit_s": [run["unit_s"] for run in runs],
            "unit_wall_s": [run["unit_wall_s"] for run in runs],
            "spaces": len(space_s), "environment": runs[0]["environment"]}
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    messages = [m for run in runs for m in run["messages"]][:20]
    return metrics, attempted, failed, messages, info


def measure_layers(workload: str, seed: int, seconds: float, tmp: Path, deadline: float):
    common = ["--workload", workload, "--seed", seed, "--seconds", seconds / 2.0]
    selftest = run_child("selftest.py", [], deadline)
    plain = run_child("workload.py", common + ["--tmp", tmp / "u"], deadline)
    traced = run_child("workload.py", common + ["--trace", "--tmp", tmp / "t"], deadline)
    layers = traced["layers"]
    calls = [{k: v for k, v in unit.items() if k.endswith(".calls")} for unit in layers]
    repeat_ok = all(c == calls[0] for c in calls)
    metrics = {}
    for key in layers[0]:
        unit = "count" if key.endswith(".calls") or key == "mmspace.candidate_balls" else \
            "s" if key.endswith("_s") else "ratio"
        metrics[key] = (statistics.median(u[key] for u in layers), unit)
    overhead = statistics.median(traced["unit_s"]) - statistics.median(plain["unit_s"])
    metrics["trace_overhead_s"] = (overhead, "s")
    attempted = plain["attempted"] + traced["attempted"] + 2
    failed = plain["failed"] + traced["failed"] + (not selftest["ok"]) + (not repeat_ok)
    messages = plain["messages"] + traced["messages"] + selftest["messages"]
    if not repeat_ok:
        messages.append("calls counts differ between traced units")
    info = {"untraced_unit_s": plain["unit_s"], "traced_unit_s": traced["unit_s"],
            "environment": traced["environment"]}
    return metrics, attempted, failed, messages, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nhslab" / "__init__.py").is_file():
        print(f"no nhslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + DEADLINE_S
    tmp = ROOT / ".perfbench_tmp" / f"r{os.getpid()}"
    try:
        step = measure_layers if args.trace else measure
        metrics, attempted, failed, messages, info = step(args.workload, args.seed,
                                                          args.seconds, tmp, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                git_sha=git_sha(), messages=messages)
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
