"""Every parameter with a default in ``src/nhslab`` is set by some call.

A default that no call in ``src/``, ``tests/`` or ``perfbench/`` overrides is
an option with one value in use: the value belongs in the function body.  The
scan is syntactic.  A call reaches a function by its name (``f(...)`` or
``obj.f(...)``, the class name for ``__init__``), and it sets a parameter when
it names it or passes enough positional arguments to reach it; ``*args`` and
``**kwargs`` reach every parameter.  Functions that share a name share their
calls.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (function, parameter) pairs kept with a default whatever the calls do.
ALLOWED = {
    # the evaluation point: every operator returns all points when x is None
    ("sharp_maximal", "x"),
    ("doubling_maximal", "x"),
    # a space built from distances has no coordinates
    ("PointCloudSpace", "coords"),
    # the console script calls main() and argparse reads sys.argv
    ("main", "argv"),
}

#: ``function(parameter)`` of each default that tests set and no call in
#: ``src/`` or ``perfbench/`` does, with the reason it stays a parameter.
TEST_ONLY = {
    "jn_envelope_experiment(count)": "the acceptance driver's function count",
    "jn_envelope_experiment(seed)": "the acceptance driver's seed",
    "stability_experiment(count)": "the acceptance driver's function count",
    "stability_experiment(seed)": "the acceptance driver's seed",
    "make_kernel(theta)": "the paper's kernel modulus; the programs use theta(t) = t",
    "morrey_norm(with_witness)": "the maximizing ball, for observability",
    "p_oscillation_norm(with_witness)": "the maximizing ball, for observability",
    "check_mean_jump_bounds(norm)": "a known norm spares the Campanato pass in the tests",
    "equivalence_experiment(pair_budget)": "the library entry point's sample size",
    "equivalence_experiment(seed)": "the library entry point's sample seed",
}


def defaulted_parameters():
    """``(function, parameter, position)`` of every defaulted parameter in
    ``src/nhslab``; ``position`` counts positional arguments at the call site
    (after ``self``) and is None for keyword-only parameters."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                first = len(positional) - len(args.defaults)
                name = owner if child.name == "__init__" else child.name
                for i, arg in enumerate(positional[first:], start=first):
                    found.append((name, arg.arg, i - bound))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((name, arg.arg, None))
                visit(child, None)

    for path in sorted((ROOT / "src" / "nhslab").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def call_sites(tops=("src", "tests", "perfbench")):
    """``{function name: [(positional count or None for *args, keywords)]}``
    over every call in the directories ``tops`` (by default ``src/``,
    ``tests/`` and ``perfbench/``); a keyword set holding None stands for
    ``**kwargs``."""
    sites: dict = {}
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                sites.setdefault(name, []).append(
                    (None if starred else len(node.args), {k.arg for k in node.keywords}))
    return sites


def unset_parameters(sites):
    unset = []
    for name, param, position in defaulted_parameters():
        if (name, param) in ALLOWED:
            continue
        if not any(param in keywords or None in keywords
                   or (position is not None and (count is None or count > position))
                   for count, keywords in sites.get(name, [])):
            unset.append(f"{name}({param})")
    return unset


def test_every_defaulted_parameter_has_a_caller():
    assert unset_parameters(call_sites()) == []


def test_every_test_only_parameter_is_named():
    # a default that only tests set is a knob the programs never turn: it is
    # listed here with its reason, or its value belongs in the function body
    assert set(unset_parameters(call_sites(("src", "perfbench")))) == set(TEST_ONLY)


def test_the_scan_sees_the_library():
    # an empty scan would pass the audit vacuously
    params = defaulted_parameters()
    assert ("campanato_norm", "pair_budget", None) in params
    assert ("sharp_maximal", "x", 4) in params
    assert len(call_sites()["build_space"]) > 10
