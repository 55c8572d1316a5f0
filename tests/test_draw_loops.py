"""No scalar draw loop in the numerical modules.

A ``Generator`` method call (``rng.choice``, ``rng.integers``, ...) inside the
body of a ``for`` or ``while`` loop, or inside a comprehension, draws one
value per Python iteration.  Sampled suprema replay their draws from one raw
block instead (``geometry.replay_draws``), so such a call in ``geometry``,
``spaces``, ``operators`` or ``mmspace`` fails this test.  The scan is
syntactic: it matches the method names of ``numpy.random.Generator`` on any
receiver but the ``np`` and ``numpy`` modules themselves, whose ``np.power``
and the like are ufuncs.

The sampled suprema are pinned too: every function of ``src/nhslab`` that
calls ``replay_draws``, ``sampled_nested_pairs`` or ``pair_source`` is
listed in ``SAMPLED_SUPREMA``, so a new sampled supremum fails here until it
is listed, and retiring one shrinks the list.
"""
from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("geometry.py", "spaces.py", "operators.py", "mmspace.py")
GENERATOR_METHODS = {name for name in dir(np.random.Generator)
                     if not name.startswith("_") and callable(getattr(np.random.Generator, name))}
#: The callers of each sample source, by top-level function or method name.
SAMPLED_SUPREMA = {
    "replay_draws": {"sampled_nested_pairs", "check_coefficient_inequalities",
                     "check_mean_jump_bounds"},
    "sampled_nested_pairs": {"pair_source"},
    "pair_source": {"campanato_norm_multi", "sharp_maximal", "validate_phi_gdec"},
}


def _loop_parts(node):
    """The parts of a loop that run once per iteration."""
    if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
        return node.body + node.orelse
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return [node.elt] + [cond for gen in node.generators for cond in gen.ifs]
    if isinstance(node, ast.DictComp):
        return [node.key, node.value] + [cond for gen in node.generators for cond in gen.ifs]
    return []


def draws_in_loops(source: str) -> list:
    """``(line, method)`` of every Generator method call inside a loop body."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        for part in _loop_parts(loop):
            for node in ast.walk(part):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in GENERATOR_METHODS
                        and not (isinstance(node.func.value, ast.Name)
                                 and node.func.value.id in ("np", "numpy"))):
                    found.add((node.lineno, node.func.attr))
    return sorted(found)


def test_no_generator_call_inside_a_loop():
    found = {name: draws_in_loops((ROOT / "src" / "nhslab" / name).read_text(encoding="utf-8"))
             for name in MODULES}
    assert found == {name: [] for name in MODULES}


def test_the_scan_sees_draw_loops():
    # an empty scan would pass the guard vacuously
    assert {"choice", "integers", "permutation", "uniform"} <= GENERATOR_METHODS
    source = (
        "rng = np.random.default_rng(0)\n"
        "for _ in range(9):\n"
        "    c1, c2 = rng.choice(9, size=2, replace=False)\n"
        "    i = np.random.default_rng(1).integers(3)\n"
        "while True:\n"
        "    x = np.power(2.0, 3)\n"
        "picks = [rng.integers(4) for _ in range(9)]\n"
        "for c in rng.permutation(9):\n"
        "    pass\n"
    )
    assert draws_in_loops(source) == [(3, "choice"), (4, "integers"), (7, "integers")]


def callers(source: str, names) -> dict:
    """Per name, the top-level functions and methods whose bodies call it,
    nested functions included; a function's call of itself is not counted."""
    found: dict = {name: set() for name in names}
    tree = ast.parse(source)
    defs = [n for node in tree.body
            for n in ([node] if not isinstance(node, ast.ClassDef) else node.body)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for fn in defs:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in found and callee != fn.name:
                    found[callee].add(fn.name)
    return found


def test_the_sampled_suprema_are_pinned():
    found: dict = {name: set() for name in SAMPLED_SUPREMA}
    for path in sorted((ROOT / "src" / "nhslab").glob("*.py")):
        for name, fns in callers(path.read_text(encoding="utf-8"), SAMPLED_SUPREMA).items():
            found[name] |= fns
    assert found == SAMPLED_SUPREMA
