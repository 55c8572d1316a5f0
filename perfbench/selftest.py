"""Self-test of the layer tracer.

    python3 perfbench/selftest.py

Runs a small pipeline (an experiment with every check, a constant battery and
the random-spaces analysis, on spaces of 5 to 16 points, below and above the
exhaustive-enumeration limit) once unwrapped and twice traced.  It passes when all three runs give bit-identical outputs, the
two traced runs give identical ``calls`` counts, and no ``nhslab`` module
attribute still holds an unwrapped target after installation.  The last
stdout line is ``{"ok": ..., "messages": [...]}``.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from layertrace import Tracer  # noqa: E402
from workload import RandomSpaces  # noqa: E402


def canonical(obj):
    """A JSON-able form that distinguishes every bit of every float."""
    if isinstance(obj, np.ndarray):
        return [str(obj.dtype), list(obj.shape), obj.tobytes().hex()]
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


def pipeline() -> str:
    from nhslab import lab

    config = lab.ExperimentConfig.from_dict(
        {"generator": {"kind": "grid", "d": 1, "n": 5}, "seed": 3, "checks": sorted(lab.CHECKS)})
    report = lab.emit_report(lab.run_experiments(config), "csv")
    battery = lab.constant_battery({"kind": "grid", "d": 1, "n": 5}, 1, 3, kappa=0.8)
    rng = np.random.default_rng(5)
    specs = [
        {"points": rng.random((6, 2)), "weights": rng.uniform(1e-3, 1.0, 6),
         "f": rng.uniform(-1.0, 1.0, 6)},
        {"distances": np.abs(np.subtract.outer(np.arange(16.0), np.arange(16.0))) ** 0.5,
         "weights": rng.uniform(1e-3, 1.0, 16), "f": rng.uniform(-1.0, 1.0, 16)},
    ]
    analysed = [RandomSpaces.analyse(spec) for spec in specs]
    return json.dumps(canonical([report, battery, analysed]))


def unwrapped_left(tracer: Tracer) -> list:
    """Module attributes that still hold an original after installation."""
    originals = {id(orig) for _, _, orig in tracer._patches}
    left = []
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "nhslab" or name.startswith("nhslab.")):
            left += [f"{name}.{k}" for k, v in vars(mod).items() if id(v) in originals]
    return left


def main() -> int:
    messages = []
    plain = pipeline()
    tracer = Tracer()
    tracer.install()
    try:
        left = unwrapped_left(tracer)
        if left:
            messages.append(f"unwrapped after install: {left}")
        first = pipeline()
        first_layers = tracer.end_run()
        second = pipeline()
        second_layers = tracer.end_run()
    finally:
        tracer.uninstall()
    if not (plain == first == second):
        messages.append("traced outputs differ from the untraced outputs")
    counts = [{k: v for k, v in layers.items() if k.endswith(".calls")}
              for layers in (first_layers, second_layers)]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        messages.append(f"calls counts differ between traced runs: {diff}")
    never = sorted(k for k, v in counts[0].items() if v == 0)
    print(json.dumps({"ok": not messages, "messages": messages, "never_called": never}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
