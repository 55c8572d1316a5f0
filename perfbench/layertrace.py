"""Span tracer that wraps the public functions of the nhslab layers.

Each wrapped call records a span (name, start, end, parent span, run id) in
compact in-memory arrays, and adds to per-function call counts and self time
(the span's duration minus the time covered by wrapped calls made inside it).
Spans are written out only when the traced run ends.

A function is patched on every ``nhslab`` module attribute bound to the same
object, so call sites that imported it with ``from .geometry import ...`` are
traced as well as ``geometry.discrete_coefficient(...)``.  Methods are
patched on their class.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: (module, attribute path) of every traced function.  ``CoefficientTables``
#: construction is traced as ``geometry.CoefficientTables.build``.
TARGETS = {
    "mmspace": [
        "build_space", "fit_power_lambda", "make_profile", "estimate_geometric_doubling",
        "validate_upper_doubling", "validate_lambda_comparability",
        "validate_weak_reverse_doubling", "PointCloudSpace.candidate_radii",
        "PointCloudSpace.prefix_of", "PointCloudSpace.pair_table",
    ],
    "geometry": [
        "discrete_coefficient", "coefficient_tables", "CoefficientTables.__init__",
        "CoefficientTables.pair_scale_indices", "sampled_nested_pairs", "doubling_flags",
        "doubling_indices", "smallest_doubling_ball", "check_coefficient_inequalities",
        "check_coefficient_chain_bound", "check_doubling_coefficient_bound",
    ],
    "spaces": [
        "oscillation_sums", "morrey_norm", "campanato_norm_multi", "p_oscillation_norm",
        "validate_phi_gdec", "validate_psi", "jn_distribution", "check_mean_jump_bounds",
        "equivalence_experiment", "ball_mean",
    ],
    "operators": [
        "make_kernel", "t_lambda", "marcinkiewicz", "marcinkiewicz_commutator",
        "maximal_p_tau", "maximal_psi_p_tau", "doubling_maximal", "sharp_maximal",
        "check_pointwise_domination", "check_sharp_maximal_estimate",
        "check_maximal_morrey_pointwise",
    ],
    "lab": [
        "generate_space", "generate_functions", "generate_chains", "run_experiments",
        "constant_battery", "emit_report",
    ],
    "cli": ["main"],
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__init__', '.build')}"


SPAN_NAMES = [span_name(m, a) for m, attrs in TARGETS.items() for a in attrs]


class Tracer:
    """Wraps the targets on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.run_id = 0
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self._stack: list = []  # [span index, start, child seconds]
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")
        self._span_run = array("i")
        self._patches: list = []  # (owner, attribute, original)
        self._spaces: list = []
        self._samples: dict = {}
        self._budget_of = None
        self._candidate_radii = None

    # -- patching --------------------------------------------------------------
    def install(self) -> None:
        for module_name in TARGETS:
            importlib.import_module(f"nhslab.{module_name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "nhslab" or name.startswith("nhslab."))]
        idx = 0
        for module_name, attrs in TARGETS.items():
            module = sys.modules[f"nhslab.{module_name}"]
            for attr in attrs:
                owner, leaf = module, attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[leaf]
                wrapper = self._wrap(original, idx)
                if owner is module:
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patches.append((mod, key, original))
                                setattr(mod, key, wrapper)
                else:
                    self._patches.append((owner, leaf, original))
                    setattr(owner, leaf, wrapper)
                idx += 1
        geometry = importlib.import_module("nhslab.geometry")
        mmspace = importlib.import_module("nhslab.mmspace")
        self._budget_of = inspect.signature(geometry.sampled_nested_pairs.__wrapped__)
        self._candidate_radii = mmspace.PointCloudSpace.candidate_radii.__wrapped__

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, fn, idx: int):
        name = self.names[idx]
        on_return = {
            "mmspace.build_space": self._saw_space,
            "geometry.sampled_nested_pairs": self._saw_sample,
        }.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            span = len(self._span_name)
            self._span_name.append(idx)
            self._span_parent.append(parent)
            self._span_run.append(self.run_id)
            frame = [span, clock(), 0.0]
            self._span_start.append(frame[1])
            self._span_end.append(0.0)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self._span_end[span] = end
                self.calls[idx] += 1
                self.self_s[idx] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    # -- derived counters ------------------------------------------------------
    def _saw_space(self, args, kwargs, space) -> None:
        self._spaces.append(space)

    def _saw_sample(self, args, kwargs, sample) -> None:
        budget = self._budget_of.bind(*args, **kwargs).arguments["budget"]
        self._samples.setdefault(id(sample), (sample, int(budget)))

    # -- per-run results -------------------------------------------------------
    def end_run(self) -> dict:
        """Per-layer values of the run just finished; resets the counters."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        tables = self.calls[self.names.index("geometry.coefficient_tables")]
        builds = self.calls[self.names.index("geometry.CoefficientTables.build")]
        out["geometry.coefficient_tables.hit_ratio"] = 1.0 - builds / tables if tables else 0.0
        requested = sum(budget for _, budget in self._samples.values())
        accepted = sum(len(sample) for sample, _ in self._samples.values())
        out["geometry.sampled_nested_pairs.accept_ratio"] = \
            accepted / requested if requested else 0.0
        out["mmspace.candidate_balls"] = sum(
            self._candidate_radii(space, c).size for space in self._spaces for c in range(space.n))
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self._spaces.clear()
        self._samples.clear()
        self.run_id += 1
        return out

    def write_spans(self, path: Path) -> None:
        """Write every recorded span to an ``.npz`` file: ``name`` indexes
        ``names``, ``parent`` is a span index (-1 for none), ``run`` the run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(self.names),
                 name=np.frombuffer(self._span_name, dtype=np.int32),
                 start=np.frombuffer(self._span_start, dtype=np.float64),
                 end=np.frombuffer(self._span_end, dtype=np.float64),
                 parent=np.frombuffer(self._span_parent, dtype=np.int32),
                 run=np.frombuffer(self._span_run, dtype=np.int32))
