"""One cache mechanism: every per-space table is a ``mmspace.memo`` entry of a
store, read-only once built, and only ``mmspace`` touches a store's private
attributes.

The private-access scan is syntactic, in the style of ``test_draw_loops``: an
attribute whose name starts with one underscore, read or written on any
receiver but ``self`` or a module the file imports (``lab._json_default`` is a
module-level name, not an object's), fails it in every module of
``src/nhslab`` except ``mmspace.py``.
"""
from __future__ import annotations

import ast
import gc
import json
from pathlib import Path

import numpy as np
import pytest

from nhslab import geometry, lab, mmspace, spaces

ROOT = Path(__file__).resolve().parents[1]


def _module_aliases(tree: ast.Module) -> set:
    """The names a module binds to imported modules."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            names.update(a.asname or a.name for a in node.names)
    return names


def private_accesses(source: str) -> list:
    """``(line, attribute)`` of every private attribute read or written on a
    receiver other than ``self`` or an imported module."""
    tree = ast.parse(source)
    exempt = _module_aliases(tree) | {"self"}
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in exempt)):
            found.add((node.lineno, node.attr))
    return sorted(found)


def test_only_mmspace_touches_private_store_attributes():
    found = {path.name: private_accesses(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "nhslab").glob("*.py")) if path.name != "mmspace.py"}
    assert found == {name: [] for name in found}
    assert {"geometry.py", "spaces.py", "lab.py", "operators.py"} <= set(found)


def test_the_scan_sees_private_accesses():
    # an empty scan would pass the guard vacuously
    source = (
        "from . import lab\n"
        "import numpy as np\n"
        "def f(space, family, tables):\n"
        "    per_lam = space._coeff_cache.setdefault(1, {})\n"
        "    family._counts[2.0] = tables._arrays\n"
        "    self._family = lab._json_default\n"
        "    return np._NoValue, space.__class__, self._store\n"
    )
    assert private_accesses(source) == [(4, "_coeff_cache"), (5, "_arrays"), (5, "_counts")]


def test_memo_builds_once_and_freezes_the_arrays_it_holds():
    store, calls = {}, []

    def build():
        calls.append(1)
        return np.arange(3.0), (np.zeros(2), 5)

    value = mmspace.memo(store, "k", build)
    assert mmspace.memo(store, "k", build) is value and len(calls) == 1
    # a tuple's own arrays freeze; a nested tuple is not walked
    assert not value[0].flags.writeable and value[1][0].flags.writeable
    table = mmspace.memo(store, "t", lambda: np.ones(4))
    pairs = mmspace.memo(store, "p", lambda: (np.ones(2), np.zeros(2)))
    assert not table.flags.writeable and not any(a.flags.writeable for a in pairs)


@pytest.fixture()
def cold64():
    """grid(d=1, n=64) with every cache cold: its family is sampled, not exhaustive."""
    space = lab.generate_space({"kind": "grid", "d": 1, "n": 64})
    assert not geometry.pairs_are_exhaustive(space)
    return space, mmspace.fit_power_lambda(space)


def test_every_cached_table_is_read_only(cold64):
    space, lam = cold64
    psi = spaces.radius_power_psi(0.25)
    family = space.balls()
    ladder = family.ladder(2.0)
    sample = geometry.sampled_nested_pairs(space, 2000, 7)
    tables = spaces.function_tables(space, np.sin(np.arange(space.n)))
    arrays = {
        "order": space.order, "sorted_dist": space.sorted_dist,
        "prefix_weight": space.prefix_weight, "fn_table": space.fn_table(psi),
        "pair_table": space.pair_table(lam),
        "cumulative": geometry.coefficient_tables(space, lam, 2.0).cumulative,
        "scales": ladder.scales, "ladder_counts": ladder.counts, "sat": ladder.sat,
        "ladder_order": ladder.order, "ladder_rank": ladder.rank, "ladder_offsets": ladder.offsets,
        "counts": family.counts(2.0), "measures": family.measures(2.0),
        "window_offsets": family.windows(6.0)[1], "windows": family.windows(6.0)[2],
        "b1": sample.b1, "b2": sample.b2, "means": tables.means,
        "radius": family.radius, "offsets": family.offsets,
    }
    assert len(sample) > 0
    for name, arr in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0
        assert not arr.flags.writeable, name


def test_cache_bytes_walks_every_store_and_frees_a_dropped_owner(cold64):
    space, lam = cold64
    family = space.balls()
    family.ladder(2.0)
    family.windows(6.0)
    geometry.coefficient_tables(space, lam, 2.0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        psi = spaces.radius_power_psi(0.25)
        spaces.campanato_norm(space, lam, np.cos(np.arange(space.n)), psi)
        sizes = mmspace.cache_bytes(space)
        assert sizes["fn_table"] == family.radius.nbytes
        # the level tables, with the ladder's order, rank, offsets and saturation indices
        assert sizes["balls.ladder"] == sum(a.nbytes for t in (2.0, 6.0) for a in family.ladder(t)[1:])
        assert sizes["balls.windows"] == sum(a.nbytes for a in family.windows(6.0)[1:])
        assert sizes["coefficients"] == geometry.coefficient_tables(space, lam, 2.0).cumulative.nbytes
        assert sizes["order"] == space.order.nbytes
        assert sizes["function.tables.means"] == family.radius.nbytes
        # a report holds no arrays: its objects' sys.getsizeof, one more per entry
        one = sizes["campanato"]
        spaces.campanato_norm(space, lam, np.sin(np.arange(space.n)), psi)
        assert 0 < one < mmspace.cache_bytes(space)["campanato"] < 3 * one
        del psi
        after = mmspace.cache_bytes(space)
        assert "fn_table" not in after and "campanato" not in after
    finally:
        if enabled:
            gc.enable()


def test_cache_bytes_are_in_the_json_report_only():
    cfg = {"generator": {"kind": "grid", "d": 1, "n": 12},
           "checks": ["upper_doubling", "psi_regularity"], "seed": 7}
    report = lab.run_experiments(lab.ExperimentConfig.from_dict(cfg))
    sizes = json.loads(lab.emit_report(report, "json"))["cache_bytes"]
    assert sizes["balls"] > 0 and sizes["fn_table"] > 0
    assert all(isinstance(v, int) and v >= 0 for v in sizes.values())
    assert "cache_bytes" not in lab.emit_report(report, "csv")
