"""Every module-level name in ``src/nhslab`` is used somewhere.

A function, class or constant defined at the top of a module of
``src/nhslab`` and used nowhere in ``src/``, ``tests/`` or ``perfbench/`` is
dead code.  The scan is syntactic.  A use is a loaded name, an attribute, an
imported name, or a string equal to the name (tracers and ``getattr`` reach
functions by name); a definition or a mention in a docstring is not a use.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def module_names() -> set:
    """The names bound at the top level of every module in ``src/nhslab``,
    dunder names aside."""
    names = set()
    for path in sorted((ROOT / "src" / "nhslab").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("__")}


def used_names() -> set:
    used = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    return used


def test_every_module_level_name_is_used():
    assert sorted(module_names() - used_names()) == []


def test_the_scan_sees_the_library():
    # an empty scan would pass the audit vacuously
    names = module_names()
    assert {"campanato_norm_multi", "NORM_COMBOS", "CampanatoNormReport", "CHECKS"} <= names
    assert "campanato_norm_multi" in used_names()
