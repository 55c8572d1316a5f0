"""The integer tables of the candidate-ball family are stored in the narrowest
unsigned dtype that holds them, and hold the same values as int64 oracles.

Member counts (at most n) and in-segment counts (at most the longest segment)
share the one dtype holding both bounds, centers take the one holding n - 1 and
a ladder's saturation indices the one holding their maximum plus one, so that
``sat + 1`` cannot wrap.  The spaces sit on both sides of each switch from one
byte to two: spaces whose longest segment has 255 and 256 balls (found from
their families, as no 1-D grid has 256), and grids with n - 1 = 255 and 256.
On the first two, the windows of ``sharp_maximal``, built
from in-segment counts, cover their runs as a per-ball int64 search finds them.
A radial function that does arithmetic on its center sees an intp array, so a
narrow family center cannot wrap or raise.
"""
from __future__ import annotations

import numpy as np
import pytest

import nhslab as nl
from nhslab import geometry, lab
from test_family import member_counts


def _grid(n: int):
    return lab.generate_space({"kind": "grid", "d": 1, "n": n})


def _longest_segment(space) -> int:
    return int(np.diff(space.balls().offsets).max())


def _space_with_longest_segment(longest: int):
    """The first space, by size, whose longest segment has ``longest`` balls:
    1-D grids (about 3n / 2 balls a segment) and seeded 1-D point clouds
    (2n - 2 at distinct distances)."""
    for n in range(2, 2 * longest):
        for space in (_grid(n), nl.build_space(np.random.default_rng(n).uniform(0.0, 1.0, (n, 1)), np.ones(n))):
            if _longest_segment(space) == longest:
                return space
    raise AssertionError(f"no space with a longest segment of {longest}")


def _narrowest(table: np.ndarray, bound: int) -> bool:
    return table.dtype == np.min_scalar_type(bound)  # unsigned, as the bound is not negative


def _holds_the_counts(table: np.ndarray, space) -> bool:
    return _narrowest(table, max(space.n, _longest_segment(space)))


def _counts_oracle(space, scale: float) -> np.ndarray:
    family = space.balls()
    return np.concatenate([member_counts(space, c, scale * family.radius[family.segment(c)]).astype(np.int64)
                           for c in range(space.n)])


SPACES = {
    "longest segment 255": lambda: _space_with_longest_segment(255),
    "longest segment 256": lambda: _space_with_longest_segment(256),
    "n - 1 = 255": lambda: _grid(256),
    "n - 1 = 256": lambda: _grid(257),
}


@pytest.fixture(scope="module", params=sorted(SPACES))
def space(request):
    return SPACES[request.param]()


def test_the_spaces_sit_on_both_sides_of_each_switch():
    assert [_longest_segment(SPACES[f"longest segment {m}"]()) for m in (255, 256)] == [255, 256]
    assert [SPACES[f"n - 1 = {m}"]().n - 1 for m in (255, 256)] == [255, 256]


def test_centers_are_narrow_and_equal_the_segment_oracle(space):
    family = space.balls()
    want = np.repeat(np.arange(space.n, dtype=np.int64), np.diff(family.offsets))
    assert np.array_equal(family.center, want)
    assert _narrowest(family.center, int(want.max()))
    assert family.flat.dtype == np.int64 and np.array_equal(family.flat, want * (space.n + 1))


@pytest.mark.parametrize("scale", [1.0, 2.0, 5.0, 6.0])
def test_member_counts_are_narrow_and_equal_the_per_center_oracle(space, scale):
    got, want = space.balls().counts(scale), _counts_oracle(space, scale)
    assert np.array_equal(got, want)
    assert _holds_the_counts(got, space) and want.max() == space.n


def test_in_segment_counts_hold_the_longest_segment(space):
    family = space.balls()
    sizes = np.diff(family.offsets)
    # a ball's own radius counts its place in its segment plus one
    want = np.arange(len(family)) - np.repeat(family.offsets[:-1], sizes) + 1
    got = family.counts_of(family.radius, in_segment=True)
    assert np.array_equal(got, want)
    assert _holds_the_counts(got, space)


@pytest.mark.parametrize("longest", [255, 256])
def test_windows_cover_the_runs_of_a_per_segment_search(longest):
    family = _space_with_longest_segment(longest).balls()
    ladder, (depth, offsets, idx) = family.ladder(6.0), family.windows(6.0)
    scales = ladder.scales[ladder.k_floor:ladder.k_floor + offsets.shape[1] - 1]  # scale indices 0..top
    runs = {}  # (b, N): the balls of b's segment of pair scale index N, when there are any
    for c in range(family.n):
        s = family.segment(c)
        radii = family.radius[s]
        ends = s.start + np.searchsorted(radii, radii[:, None] * scales, "right").astype(np.int64)
        for i, n_idx in zip(*np.nonzero(np.diff(ends, axis=1) > 0)):
            runs[s.start + int(i), int(n_idx) + 1] = int(ends[i, n_idx]), int(ends[i, n_idx + 1])
    got = {}
    for k in range(depth):
        for n_idx in range(1, scales.size):
            for b, c0, c1 in idx[:, offsets[k, n_idx]:offsets[k, n_idx + 1]].T.tolist():
                got[b, n_idx] = c0, c1 + (1 << k)
                assert (1 << k) <= c1 + (1 << k) - c0 < (2 << k)
    assert got == runs and max(hi - lo for lo, hi in runs.values()) > 1


@pytest.mark.parametrize("tau", [2.0, 6.0])
def test_ladder_levels_and_saturation_are_narrow_and_equal_their_oracles(space, tau):
    family = space.balls()
    ladder = family.ladder(tau)
    sat = geometry.scale_index_array(tau, family.radius, space.diameter)
    assert np.array_equal(ladder.sat, sat)
    assert _narrowest(ladder.sat, int(sat.max()) + 1)
    for j, scale in enumerate(ladder.scales):
        want = _counts_oracle(space, scale)[ladder.order[:np.diff(ladder.offsets)[j]]]
        assert np.array_equal(ladder.level(ladder.counts, j), want)
    assert _holds_the_counts(ladder.counts, space) and ladder.counts.max() == space.n


def test_a_radial_function_computes_on_an_intp_center():
    space = _grid(256)
    family = space.balls()
    assert family.center.dtype == np.uint8
    lam = nl.DominatingFunction(lambda c, r: (space.n - c) * (1.0 + r), c_lambda=2.0)
    want = (space.n - family.center.astype(np.int64)) * (1.0 + family.radius)
    assert space.fn_table(lam).tobytes() == want.tobytes()
    assert lam(255, 0.5) == (space.n - 255) * 1.5
