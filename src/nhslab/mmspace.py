"""Finite metric measure spaces and their dominating functions.

A :class:`PointCloudSpace` is a finite set of atoms with pairwise distances
and positive weights.  :func:`build_space` is the one gate for outside input:
it takes finite numbers only, trusts coordinates to give a metric (the
Euclidean one), and checks a distance matrix on every triple.

Everything downstream (coefficients, norms, operators) enumerates *candidate
balls*: for each center, the closed balls whose radii are the distances of
that center and their halves (``RADIUS_MULTIPLIERS``).  On an atomic space
ball membership only changes at those distances, so the family is finite and
canonical, up to one merge: a radius is kept when it exceeds the last kept
radius of its center by the factor 1 + ``RADIUS_DEDUP_TOL``.

The family is built once per space as a flat :class:`BallFamily`: ball ``b``
is ``B(center[b], radius[b])``, the balls of one center are contiguous with
ascending radii, and the members of a ball are the first ``counts()[b]``
points of its center's distance order.  Every supremum over balls is a
gather over this family followed by one argmax; suprema over nested ball
pairs read theirs from ``geometry.pair_source``.  Per dilation step tau
the family caches one :class:`Ladder`, the member counts of every tau**k * B,
and the power-of-two ``windows`` that cover each ball's concentric outer
balls of one scale index.  ``flat`` turns a per-ball read ``table[center, q]`` of
a center-by-prefix table into one 1-D ``take``.

Every cache is a store entry read through :func:`memo`, which builds it on
its first read and makes the arrays it holds read-only.
``PointCloudSpace.store(*owners)`` is the space's store, or the one under the
radial functions ``owners`` (lambda, psi, phi) held weakly, so a dropped
normalizer frees its entries.  The family and a function's tables keep their
own ``store``; :func:`cache_bytes` sums the array bytes of each kind.

Functions of a center and a radius (the dominating function here, the
normalizers psi and phi in :mod:`nhslab.spaces`) share one protocol,
:class:`Radial`: a single callable ``fn(center, radius)`` written once with
NumPy operations, like the kernel modulus ``theta``.  ``table`` calls it on
an integer center array and a radius array broadcast to one shape, so a flat
family table, a center-by-radius grid and a scalar call all run the same
ufunc loops and agree bit for bit.

A :class:`DominatingFunction` is a positive function of (center, radius),
nondecreasing in the radius, that dominates ball measures and at most doubles
when the radius halves.  ``fit_power_lambda`` produces one automatically;
the validators measure how well any candidate satisfies the requirements and
return their findings without touching their inputs.
"""
from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateRadii,
    DimensionMismatch,
    InvalidParams,
    MetricViolation,
    NonPositiveWeight,
)
from .report import CheckReport

#: Relative slack of the validators' comparisons (suprema of ratios amplify
#: rounding, so exact comparisons allow this cushion).
DEFAULT_REL_TOL = 1e-9

#: Relative slack of ``build_space``'s metric checks, for coordinate rounding.
METRIC_REL_TOL = 1e-12

#: Relative tolerance used when deduplicating candidate radii.
RADIUS_DEDUP_TOL = 1e-12

#: The radius rule of the candidate family: each center's distances and their
#: halves.  Half radii are needed by the doubling inequality and by the lowest
#: dyadic term of the discrete coefficient.
RADIUS_MULTIPLIERS = (0.5, 1.0)

#: Radius assigned to a center with no positive distances (singleton space).
FALLBACK_RADIUS = 1.0


def _arrays(value) -> tuple:
    """The arrays a cached value holds: itself, a tuple's items or an object's public fields."""
    parts = (value,) if isinstance(value, np.ndarray) else value if isinstance(value, tuple) \
        else [v for k, v in getattr(value, "__dict__", {}).items() if not k.startswith("_")]
    return tuple(a for a in parts if isinstance(a, np.ndarray))


def memo(store: dict, key, build: Callable):
    """``store[key]``, built by ``build()`` on its first read; the arrays it holds turn read-only."""
    value = store.get(key)
    if value is None:
        value = store[key] = build()
        for a in _arrays(value):
            a.setflags(write=False)
    return value


class _Store(dict):
    """A cache dict with child stores, ``owned``, keyed weakly on their owners."""
    def __init__(self):
        super().__init__()
        self.owned = weakref.WeakKeyDictionary()


def _object_bytes(value) -> int:
    """``sys.getsizeof`` of a value, its fields and its dict, list or tuple items, recursively."""
    parts = [vars(value)] if hasattr(value, "__dict__") else [*value.keys(), *value.values()] \
        if isinstance(value, dict) else value if isinstance(value, (list, tuple)) else ()
    return sys.getsizeof(value) + sum(map(_object_bytes, parts))


def cache_bytes(space: "PointCloudSpace") -> dict:
    """Bytes held per cache kind (an entry's key or its first item) in the space's store, its
    owners' stores and, as ``kind.inner``, cached objects' stores: each array's, or a view's base's
    (a broadcast table holds one scalar), or for an entry with neither its objects' ``sys.getsizeof``;
    and the bytes objects of its key, such as a function's.  A buffer counts once, in the first kind."""
    out: dict = {}
    seen: set = set()

    def held(obj) -> int:
        if isinstance(obj, tuple):
            return sum(map(held, obj))
        buf = obj.base if isinstance(getattr(obj, "base", None), (np.ndarray, bytes)) else obj
        if not isinstance(buf, (np.ndarray, bytes)) or id(buf) in seen:
            return 0
        seen.add(id(buf))
        return len(buf) if isinstance(buf, bytes) else buf.nbytes

    def walk(store: dict, prefix: str) -> None:
        for key, value in store.items():
            kind = prefix + (key if isinstance(key, str) else key[0])
            sub = value if isinstance(value, dict) else getattr(value, "store", None)
            size = held(_arrays(value)) if _arrays(value) or sub is not None else _object_bytes(value)
            out[kind] = out.get(kind, 0) + held(key) + size
            walk(sub or {}, kind + ".")
        for child in getattr(store, "owned", {}).values():
            walk(child, prefix)
    walk(space.store(), "")
    return out


def _dedup_rows(rows: np.ndarray) -> tuple:
    """The candidate radii of every ascending row, flattened: returns the kept
    values and their row indices.  A positive value is kept when it exceeds the
    last kept value of its row by the factor 1 + ``RADIUS_DEDUP_TOL``; a row
    without positive entries yields ``FALLBACK_RADIUS``.

    A value past its predecessor's step is kept whatever came before, so only
    runs of near-ties stay open; each round decides the first open value of
    every run against its row's last kept value.
    """
    distinct = rows > 0.0
    distinct[:, 1:] &= rows[:, 1:] != rows[:, :-1]
    distinct[:, 0] |= ~distinct.any(axis=1)
    row, col = np.nonzero(distinct)
    vals = rows[row, col]
    vals[vals <= 0.0] = FALLBACK_RADIUS
    keep = np.ones(vals.size, dtype=bool)
    keep[1:] = (row[1:] != row[:-1]) | (vals[1:] > vals[:-1] * (1.0 + RADIUS_DEDUP_TOL))
    open_ = ~keep
    while open_.any():
        head = np.flatnonzero(open_ & ~np.roll(open_, 1))
        last = np.maximum.accumulate(np.where(keep, np.arange(vals.size), 0))
        keep[head] = vals[head] > vals[last[head - 1]] * (1.0 + RADIUS_DEDUP_TOL)
        open_[head] = False
    return vals[keep], row[keep]


def floor_log(tau: float) -> int:
    """floor(log_tau(2)) with a 1e-12 nudge so representable integer logs
    (tau = 2 gives exactly 1) are not misclassified downward."""
    return int(math.floor(math.log(2.0) / math.log(tau) + 1e-12))


def scale_index_array(tau: float, inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Vectorized smallest N >= 0 with tau**N * inner >= outer.

    ``inner`` and ``outer`` broadcast against each other; the float estimate
    is corrected exactly afterwards.
    """
    inner = np.asarray(inner, dtype=float)
    outer = np.asarray(outer, dtype=float)
    ratio = np.maximum(outer / inner, 1.0)
    n = np.ceil(np.log(ratio) / math.log(tau) - 1e-12).astype(np.int64)
    n = np.maximum(n, 0)
    # exact adjustment of the float estimate; one step each way suffices
    for _ in range(2):
        n = n + (tau ** n * inner < outer)
        back = (n > 0) & (tau ** np.maximum(n - 1, 0) * inner >= outer)
        n = n - back
    return n


class Ladder(NamedTuple):
    """Member counts of tau**k * B for every ball B of a family: level j is at
    ``scales[j]`` = tau**k, k = j - k_floor, up to K_b = max(sat[b] + 1, the scale
    index of 6 * B); tau**sat[b] * radius[b] first reaches the diameter.  With
    the balls by K_b descending in ``order`` (``rank`` its inverse), a level table
    such as ``counts`` holds level j's prefix of ``order`` at ``offsets[j]:offsets[j + 1]``."""

    k_floor: int
    scales: np.ndarray
    order: np.ndarray
    rank: np.ndarray
    offsets: np.ndarray
    counts: np.ndarray
    sat: np.ndarray

    def level(self, table: np.ndarray, j: int) -> np.ndarray:
        """Level j of a level table, in ``order``."""
        return table[self.offsets[j]:self.offsets[j + 1]]

    def index(self, ball, j) -> np.ndarray:
        """Positions of (ball, level j) in a level table; IndexError past K_b."""
        if np.any(self.rank[ball] >= np.diff(self.offsets)[j]):
            raise IndexError("ladder level past a ball's last")
        return self.offsets[j] + self.rank[ball]


class BallFamily:
    """The candidate balls of a space, flattened center by center.

    Ball ``b`` is ``B(center[b], radius[b])``; the balls of center ``c`` are
    ``offsets[c]:offsets[c + 1]``, in ascending radius order.  Member counts
    at rescaled radii come from the one per-center ``searchsorted`` in
    :meth:`counts_of`; ``store`` caches them and the measures for the few
    scales that several suprema share (the radius itself, the enlargements 2,
    5, 6), and the :meth:`ladder` of every power of one dilation step tau.
    """

    def __init__(self, space: "PointCloudSpace"):
        scaled = np.sort(np.concatenate([m * space.sorted_dist for m in RADIUS_MULTIPLIERS],
                                        axis=1), axis=1)
        self.radius, self.center = _dedup_rows(scaled)
        self.radius.setflags(write=False)
        self.n = space.n
        self.offsets = np.concatenate([[0], np.cumsum(np.bincount(self.center, minlength=space.n))])
        self._segments = [slice(a, b) for a, b in zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())]
        self.flat = self.center.astype(np.int64) * (space.n + 1)  # row starts in an n x (n + 1) table
        self.flat.setflags(write=False)
        self._diameter = space.diameter
        self._sorted_dist = space.sorted_dist
        self._prefix_weight = space.prefix_weight
        self.store: dict = {}

    def __len__(self) -> int:
        return int(self.radius.size)

    def segment(self, center: int) -> slice:
        return self._segments[center]

    def ball(self, b: int) -> dict:
        """Ball ``b`` as a ``{"center", "radius"}`` witness."""
        return {"center": int(self.center[b]), "radius": float(self.radius[b])}

    def counts_of(self, radii: np.ndarray, in_segment: bool = False) -> np.ndarray:
        """Member counts of the closed balls B(center[b], radii[b, ...]), or with
        ``in_segment`` the number of radii of b's segment at most radii[b, ...]."""
        out = np.empty(radii.shape, dtype=np.int32)
        for s, row in zip(self._segments, self._sorted_dist):
            out[s] = (self.radius[s] if in_segment else row).searchsorted(radii[s], side="right")
        return out

    def counts(self, scale: float = 1.0) -> np.ndarray:
        """Member counts of the balls enlarged by ``scale`` (cached)."""
        return memo(self.store, ("counts", scale), lambda: self.counts_of(scale * self.radius))

    def at(self, table: np.ndarray, q: np.ndarray) -> np.ndarray:
        """``table[center[b], q[b]]`` for every ball b of an n x (n + 1) table
        such as ``prefix_weight``, as one flat ``take``."""
        return table.ravel().take(self.flat + q)

    def measures(self, scale: float = 1.0) -> np.ndarray:
        """Measures of the balls enlarged by ``scale`` (cached)."""
        return memo(self.store, ("measures", scale),
                    lambda: self.at(self._prefix_weight, self.counts(scale)))

    def ladder(self, tau: float) -> Ladder:
        """The :class:`Ladder` at dilation step tau (cached).  Its levels hold every
        scale read: the Campanato and mean-jump ladders stop at sat[b] + 1; pair,
        triple, run and doubling indices are at most sat[b], as outer radii are
        at most the diameter; ``check_coefficient_inequalities`` reads 6 * B."""
        tau = float(tau)
        if not tau > 1.0:
            raise InvalidParams(f"tau must exceed 1, got {tau!r}")
        def build():
            k_floor = floor_log(tau)
            sat = scale_index_array(tau, self.radius, self._diameter).astype(np.int32)
            last = np.maximum(sat + 1, scale_index_array(tau, self.radius, 6.0 * self.radius)) + k_floor
            order = np.argsort(-last, kind="stable").astype(np.int32)
            offsets = np.concatenate([[0], np.cumsum(np.cumsum(np.bincount(last)[::-1])[::-1])])
            scales = tau ** np.arange(-k_floor, int(last.max()) - k_floor + 1)
            counts = np.empty(offsets[-1], dtype=np.int32)
            for j, (scale, size) in enumerate(zip(scales, np.diff(offsets))):
                counts[offsets[j]:offsets[j] + size] = self.counts_of(self.radius * scale)[order[:size]]
            return Ladder(k_floor, scales, order, np.argsort(order).astype(np.int32), offsets, counts, sat)
        return memo(self.store, ("ladder", tau), build)

    def windows(self, tau: float) -> tuple:
        """``(depth, offsets, idx)`` for range maxima over concentric runs (cached): run N
        of ball b is the balls j >= b of its segment of pair scale index N, empty past sat[b];
        run 0 is b itself.  Each non-empty run N >= 1 is an int32 column of ``idx``: b and
        the starts of two windows of 2**k balls that cover the run, k = floor(log2 of its
        length) < depth, at ``offsets[k, N]:offsets[k, N + 1]``."""
        tau = float(tau)
        def build():
            ladder, parts = self.ladder(tau), [np.empty((4, 0), dtype=np.int32)]
            start, hi = self.offsets[self.center].astype(np.int32), np.arange(len(self), dtype=np.int32) + 1
            top = scale_index_array(tau, self.radius, self.radius[self.offsets[1:] - 1][self.center]).max()
            for j in range(ladder.k_floor + 1, ladder.k_floor + top + 1):  # scale index N = j - k_floor
                lo, hi = hi, start + self.counts_of(self.radius * ladder.scales[j], in_segment=True)
                level = ladder.order[:ladder.offsets[j + 1] - ladder.offsets[j]]
                b = level[hi[level] > lo[level]]
                k = np.frexp(hi[b] - lo[b])[1] - 1
                parts.append(np.stack([k * (top + 1) + j, b, lo[b], hi[b] - (1 << k)], dtype=np.int32))
            cols = np.hstack(parts)
            del parts
            depth = int(np.diff(self.offsets).max()).bit_length()  # 2**depth > every run
            keys = np.arange(depth)[:, None] * (top + 1) + np.arange(top + 2) + ladder.k_floor
            return depth, np.searchsorted(np.sort(cols[0]), keys), cols[1:, cols[0].argsort(kind="stable")]
        return memo(self.store, ("windows", tau), build)

    def later_max(self, values: np.ndarray) -> np.ndarray:
        """Per ball, the largest of ``values`` over the later balls of its segment, or -inf."""
        out = np.full(values.shape, -math.inf)
        for c in range(self.n):
            s = self.segment(c)
            out[s][:-1] = np.maximum.accumulate(values[s][:0:-1])[::-1]
        return out

    def sup(self, values: np.ndarray) -> tuple:
        """Largest of ``values`` (one per ball) floored at 0, with the first
        ball attaining it as witness."""
        j = int(np.argmax(values))
        if not values[j] > 0.0:
            return 0.0, {}
        return float(values[j]), self.ball(j)


class PointCloudSpace:
    """Finite metric measure space on weighted atoms.

    Instances are immutable after construction; the lookup tables of
    :meth:`store` are pure caches.
    """

    def __init__(self, dist: np.ndarray, weights: np.ndarray, coords: Optional[np.ndarray] = None):
        self.dist = np.ascontiguousarray(dist, dtype=float)
        self.weights = np.ascontiguousarray(weights, dtype=float)
        self.coords = None if coords is None else np.ascontiguousarray(coords, dtype=float)
        self.n = int(self.weights.shape[0])
        self.diameter = float(self.dist.max()) if self.n else 0.0
        self.total_measure = float(self.weights.sum())
        self.dist.setflags(write=False)
        self.weights.setflags(write=False)
        self._store = _Store()

    def store(self, *owners) -> dict:
        """The space's cache dict, or the one under ``owners`` (radial functions) held weakly."""
        node = self._store
        for owner in owners:
            node = memo(node.owned, owner, _Store)
        return node

    # -- sorted-distance machinery --------------------------------------------
    @property
    def order(self) -> np.ndarray:
        """Per-center point indices sorted by distance (stable ties)."""
        return memo(self._store, "order", lambda: np.argsort(self.dist, axis=1, kind="stable"))

    @property
    def sorted_dist(self) -> np.ndarray:
        return memo(self._store, "sorted_dist",
                    lambda: np.take_along_axis(self.dist, self.order, axis=1))

    @property
    def prefix_weight(self) -> np.ndarray:
        """``prefix_weight[c, q]`` is the weight of the q closest points to c."""
        return memo(self._store, "prefix_weight", lambda: np.hstack(
            [np.zeros((self.n, 1)), np.cumsum(self.weights[self.order], axis=1)]))

    def prefix_of(self, values: np.ndarray) -> np.ndarray:
        """Prefix sums of an arbitrary field in per-center distance order."""
        cum = np.cumsum(np.asarray(values, dtype=float)[self.order], axis=1)
        return np.hstack([np.zeros((self.n, 1)), cum])

    def prefix_mean(self, values: np.ndarray) -> np.ndarray:
        """``out[c, q]`` is the weighted mean of ``values`` over the q closest
        points to c; column 0 holds the 0 / 0 that no ball reads."""
        with np.errstate(invalid="ignore"):
            return self.prefix_of(values * self.weights) / self.prefix_weight

    def counts(self, center: int, radii) -> np.ndarray:
        """Number of members of the closed balls B(center, r) for each r."""
        return np.searchsorted(self.sorted_dist[center], radii, side="right")

    # -- candidate radius grid -------------------------------------------------
    def candidate_radii(self, center: int) -> np.ndarray:
        """The ascending candidate radii of ``center``: a read-only view of its
        segment of the family."""
        family = self.balls()
        return family.radius[family.segment(center)]

    def balls(self) -> BallFamily:
        """The flat candidate-ball family (cached)."""
        return memo(self._store, "balls", lambda: BallFamily(self))

    def radius_union(self) -> np.ndarray:
        """Sorted union of every center's candidate radii."""
        return _dedup_rows(np.sort(self.balls().radius)[None, :])[0]

    def fn_table(self, obj: "Radial") -> np.ndarray:
        """``obj`` on every ball of the candidate family (cached under ``obj``)."""
        family = self.balls()
        return memo(self.store(obj), "fn_table", lambda: obj.table(family.center, family.radius))

    def pair_table(self, lam: "DominatingFunction") -> np.ndarray:
        """Matrix of lam(x, d(x, y)); entries with d == 0 hold a placeholder 1."""
        def build():
            zero = self.dist <= 0.0
            return np.where(zero, 1.0, lam.table(np.arange(self.n)[:, None],
                                                 np.where(zero, 1.0, self.dist)))
        return memo(self.store(lam), "pair_table", build)

    def __repr__(self) -> str:
        return f"PointCloudSpace(n={self.n}, diameter={self.diameter:.6g}, measure={self.total_measure:.6g})"


# ------------------------------------------------------------------------------
# Construction and metric validation
# ------------------------------------------------------------------------------
def _euclidean_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def build_space(
    points=None,
    weights=None,
    *,
    distances=None,
) -> PointCloudSpace:
    """Build and validate a finite metric measure space.

    Exactly one of ``points`` (coordinates) or ``distances`` (a full square
    matrix) must be given, with one positive finite weight per point, and
    every distance must be finite (NaN or inf coordinates, or an overflowing
    Euclidean distance, raise :class:`MetricViolation`).  Coordinates give the
    Euclidean matrix, a metric by construction up to rounding far inside
    ``METRIC_REL_TOL``, which is not checked again.  A distance matrix must be
    nonnegative, with a zero diagonal and symmetric up to ``METRIC_REL_TOL``
    times max(its largest entry, 1); it is symmetrised, and
    :func:`_check_triangle` checks every triple.
    """
    if (points is None) == (distances is None):
        raise DimensionMismatch("provide exactly one of points= or distances=")
    if weights is None:
        raise DimensionMismatch("weights are required")
    w = np.asarray(weights, dtype=float).ravel()
    n = w.shape[0]
    if n < 1:
        raise DimensionMismatch("a space needs at least one point")
    bad = np.nonzero(~((w > 0.0) & (w < math.inf)))[0]
    if bad.size:
        raise NonPositiveWeight(f"weight of point {int(bad[0])} is {w[bad[0]]!r}; "
                                "weights must be positive and finite")

    coords = None
    if points is not None:
        coords = np.asarray(points, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.shape[0] != n:
            raise DimensionMismatch(f"{coords.shape[0]} points but {n} weights")
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite input fails below
            dist = _euclidean_matrix(coords)
    else:
        dist = np.asarray(distances, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise DimensionMismatch("distance matrix must be square")
        if dist.shape[0] != n:
            raise DimensionMismatch(f"{dist.shape[0]}x{dist.shape[0]} distances but {n} weights")
    if not np.isfinite(dist).all():
        i, j = np.argwhere(~np.isfinite(dist))[0]
        raise MetricViolation(f"distance d({i},{j}) = {dist[i, j]!r} is not finite")
    if coords is None:
        if np.any(dist < 0):
            i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
            raise MetricViolation(f"negative distance d({i},{j}) = {dist[i, j]!r}")
        slack = METRIC_REL_TOL * max(float(dist.max()), 1.0)
        if np.any(np.abs(np.diag(dist)) > slack):
            i = int(np.argmax(np.abs(np.diag(dist))))
            raise MetricViolation(f"nonzero diagonal entry d({i},{i}) = {dist[i, i]!r}")
        asym = np.abs(dist - dist.T)
        if np.any(asym > slack):
            i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
            raise MetricViolation(f"asymmetry at ({i},{j}): {dist[i, j]!r} vs {dist[j, i]!r}")
        dist = 0.5 * (dist + dist.T)
        np.fill_diagonal(dist, 0.0)
        _check_triangle(dist)
    return PointCloudSpace(dist, w, coords)


def _check_triangle(dist: np.ndarray) -> None:
    """Check d(i, j) <= d(i, k) + d(k, j) on every triple of a finite symmetric
    matrix, with a slack of ``METRIC_REL_TOL * max(d(i, j), 1)``.

    One step per middle point k writes the excess of every pair (i, j) into
    one n x n buffer: O(n**3) time, O(n**2) memory.  The step's d(i, k) + d(k, j)
    is the product of the (n x 2) factor (d(i, k), 1) and the (2 x n) factor
    (1, d(k, j)): both terms are exact and their sum rounds once, so it equals
    the broadcast add, bit for bit.  The first k with a positive excess raises
    :class:`MetricViolation`, naming the pair of its largest excess (the first
    in row order on ties).
    """
    n = dist.shape[0]
    slack = METRIC_REL_TOL * np.maximum(dist, 1.0)
    viol = np.empty_like(dist)
    left, right = np.ones((n, 2)), np.ones((2, n))
    for k in range(n):
        left[:, 0], right[1] = dist[:, k], dist[k]
        np.matmul(left, right, out=viol)
        np.subtract(dist, viol, out=viol)
        np.subtract(viol, slack, out=viol)
        if viol.max() > 0:
            i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
            raise MetricViolation(
                f"triangle inequality fails on ({i},{k},{j}): "
                f"d({i},{j})={dist[i, j]!r} > d({i},{k})+d({k},{j})={dist[i, k] + dist[k, j]!r}"
            )


# ------------------------------------------------------------------------------
# Geometric doubling estimate
# ------------------------------------------------------------------------------
#: Float64 elements per block of cover rows in the doubling count (256 KB).
_COVER_BLOCK = 1 << 15


def estimate_geometric_doubling(space: PointCloudSpace) -> int:
    """Upper bound the geometric doubling count of the space.

    Every candidate ball B(c, r) is covered greedily by balls of radius r/2
    centered at its members (farthest-point traversal from c, ties going to
    the lowest point index); a greedy cover is a valid cover, so its largest
    size is a valid, possibly non-tight, doubling count.

    The balls of every center run together in blocks of ``_COVER_BLOCK // n``
    rows, one 256 KB buffer: row i holds each member's distance to the cover
    of ball i (-inf off the ball), and each step adds every row's farthest
    point.  Steps only lower a row, so a row with no member beyond its r/2 is
    finished and dropped; the block's largest cover is the number of steps
    until no row is left, in O(rows n steps) time.

    Only rows that can raise the count run: balls of one center with equal
    member counts have the same members and the same traversal, which a
    larger r/2 only stops sooner, so each run of counts keeps its smallest
    radius; and a ball of at most ``best`` members, the largest cover of the
    blocks before, needs at most ``best``.
    """
    family = space.balls()
    counts = family.counts()
    rises = np.ones(counts.size, dtype=bool)
    rises[1:] = (counts[1:] != counts[:-1]) | (family.center[1:] != family.center[:-1])
    rows = np.flatnonzero(rises & (counts > 1))
    step, best = max(1, _COVER_BLOCK // space.n), 1
    for b0 in range(0, rows.size, step):
        b = rows[b0:b0 + step]
        b = b[counts[b] > best]
        r, mind = family.radius[b], space.dist[family.center[b]]
        mind[mind > r[:, None]] = -np.inf
        half, count = r / 2.0, 1
        while True:
            far = np.argmax(mind, axis=1)
            live = mind[np.arange(half.size), far] > half
            if not live.any():
                break
            if not live.all():
                mind, half, far = mind[live], half[live], far[live]
            count += 1
            np.minimum(mind, space.dist[far], out=mind)
        best = max(best, count)
    return best


# ------------------------------------------------------------------------------
# Radial functions and dominating functions
# ------------------------------------------------------------------------------
@dataclass(eq=False)
class Radial:
    """A function of (center point, radius), written once as a broadcasting
    callable ``fn(center, radius)``.

    ``fn`` receives an integer center array and a float radius array of one
    shape and returns values of that shape (or anything broadcasting to it,
    such as a constant).  Write it with NumPy operations only, as
    ``lambda c, r: a[c] * r ** k[c]``.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def table(self, center, radii) -> np.ndarray:
        """``fn`` at the broadcast of ``center`` and ``radii``."""
        center, radii = np.asarray(center), np.asarray(radii, dtype=float)
        if center.ndim == 0:
            # a 0-d center would turn a center-dependent exponent k[c] into a
            # scalar, for which NumPy's power takes other loops (2, 0.5, -1)
            center = np.full(radii.shape, center)
        elif center.shape != radii.shape:
            center, radii = np.broadcast_arrays(center, radii)
        vals = np.asarray(self.fn(center, radii), dtype=float)
        return vals if vals.shape == radii.shape else np.broadcast_to(vals, radii.shape)

    def __call__(self, center: int, radius: float) -> float:
        # through a 1-element table: Python-float arithmetic takes libm's pow,
        # which differs from NumPy's array loop in the last bit
        return float(self.table([center], [radius])[0])


@dataclass(eq=False)
class DominatingFunction(Radial):
    """Positive function of (center point, radius > 0) with declared doubling
    constant ``c_lambda`` (the factor allowed when the radius halves)."""

    c_lambda: float
    description: str = ""

    def __post_init__(self):
        if not self.c_lambda >= 1.0:
            raise DimensionMismatch(f"c_lambda must be >= 1, got {self.c_lambda!r}")

    @property
    def nu(self) -> float:
        """Dyadic growth exponent log2(c_lambda)."""
        return math.log2(self.c_lambda)


def fit_power_lambda(space: PointCloudSpace, kappa="auto") -> DominatingFunction:
    """Fit a center-independent power law C0 * r**kappa dominating all
    candidate ball measures, with equality at the tightest ball.

    With ``kappa="auto"`` the exponent is the least-squares slope of
    log-measure against log-radius over all candidate balls (clamped at 0 so
    the result is nondecreasing).
    """
    family = space.balls()
    mus = family.measures()
    if kappa == "auto":
        lr = np.log(family.radius)
        if np.ptp(lr) <= RADIUS_DEDUP_TOL:
            raise DegenerateRadii("automatic exponent fit needs at least two distinct radii")
        slope = float(np.polyfit(lr, np.log(mus), 1)[0])
        kappa_val = max(slope, 0.0)
    else:
        kappa_val = float(kappa)
        if kappa_val < 0:
            raise DegenerateRadii(f"kappa must be nonnegative, got {kappa_val!r}")
    with np.errstate(divide="ignore", over="ignore"):  # radius ** kappa may underflow to 0
        c0 = float(np.max(mus / family.radius ** kappa_val))
    if not math.isfinite(c0):
        raise DegenerateRadii(f"radius ** kappa leaves the float range at kappa={kappa_val!r}")
    return DominatingFunction(
        lambda _c, r: c0 * r ** kappa_val,
        c_lambda=2.0 ** kappa_val,
        description=f"power(kappa={kappa_val:.12g}, c0={c0:.12g})",
    )


def _least_factor(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The least C >= 0 with num <= C * den, elementwise: num / den, with 0
    where both sides are 0 or both infinite (a lambda that underflows or
    overflows on both sides satisfies the inequality for every C)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    return np.where((num == den) & ((num == 0.0) | np.isinf(num)), 0.0, ratio)


def validate_upper_doubling(space: PointCloudSpace, lam: DominatingFunction) -> CheckReport:
    """Check measure domination, the half-radius inequality and radius
    monotonicity on every candidate ball.

    The witness is the failing kind whose worst ball comes last in center
    order; within one center the kinds rank domination, half-radius,
    monotonicity.  Monotonicity compares consecutive radii of one center.
    """
    family = space.balls()
    vals = space.fn_table(lam)
    mus = family.measures()
    dom = _least_factor(mus, vals)
    half = _least_factor(vals, lam.table(family.center, family.radius / 2.0))
    mono = np.where(family.center[1:] == family.center[:-1], _least_factor(vals[:-1], vals[1:]), -math.inf)
    worst_dom = float(dom.max())
    worst_half = float(half.max())
    slack = 1.0 + DEFAULT_REL_TOL
    bounds = (slack, lam.c_lambda * slack, slack)
    failing = []
    for kind, (ratio, bound) in enumerate(zip((dom, half, mono), bounds)):
        if ratio.size and ratio.max() > bound:
            j = int(np.argmax(ratio))
            failing.append((int(family.center[j]), kind, j))
    witness: dict = {}
    if failing:
        _, kind, j = max(failing)
        if kind == 0:
            witness = {"kind": "domination", **family.ball(j),
                       "mu": float(mus[j]), "lambda": float(vals[j])}
        elif kind == 1:
            witness = {"kind": "half_radius", **family.ball(j),
                       "ratio": float(half[j]), "c_lambda": lam.c_lambda}
        else:
            witness = {"kind": "monotonicity", **family.ball(j),
                       "next_radius": float(family.radius[j + 1])}
    return CheckReport(
        check="upper_doubling",
        passed=not failing,
        value=max(worst_dom, worst_half / lam.c_lambda),
        worst_witness=witness,
        details={
            "worst_domination_ratio": worst_dom,
            "worst_half_radius_ratio": worst_half,
            "required_c_lambda": max(1.0, worst_half),
            "declared_c_lambda": lam.c_lambda,
        },
    )


def comparability_ratio(space: PointCloudSpace, obj) -> tuple:
    """Largest obj(x, r) / obj(y, r) over ordered pairs x != y with
    d(x, y) <= r, for r in the radius union, floored at 1.

    Returns the ratio and the first (x, y, radius) attaining it, or an empty
    witness when no pair exceeds 1.
    """
    worst = 1.0
    witness: dict = {}
    if space.n < 2:
        return worst, witness
    radii = space.radius_union()
    table = obj.table(np.arange(space.n)[:, None], radii)
    for k, r in enumerate(radii):
        admissible = space.dist <= r
        np.fill_diagonal(admissible, False)
        if not admissible.any():
            continue
        col = table[:, k]
        ratio = np.where(admissible, col[:, None] / col[None, :], 0.0)
        j = int(np.argmax(ratio))
        x, y = np.unravel_index(j, ratio.shape)
        if ratio[x, y] > worst:
            worst = float(ratio[x, y])
            witness = {"x": int(x), "y": int(y), "radius": float(r)}
    return worst, witness


def validate_lambda_comparability(space: PointCloudSpace, lam: DominatingFunction) -> CheckReport:
    """Check lam(x, r) <= c_lambda * lam(y, r) over ordered pairs with
    d(x, y) <= r, for every candidate radius r in the global grid."""
    worst, witness = comparability_ratio(space, lam)
    if witness:
        witness["ratio"] = worst
    return CheckReport(
        check="lambda_comparability",
        passed=worst <= lam.c_lambda * (1.0 + DEFAULT_REL_TOL),
        value=worst,
        worst_witness=witness,
        details={"c_lambda": lam.c_lambda},
    )


def validate_weak_reverse_doubling(lam: DominatingFunction, space: PointCloudSpace,
                                   sigma: float, a_grid: Sequence[float]) -> CheckReport:
    """Measure the dilation constants C_(a) = min lam(x, a*r)/lam(x, r) and
    check that the series of C_(a^j)**(-sigma) converges numerically.

    For each a the admissible radii satisfy r < 2*diam/a.  Measured constants
    are used for the dilations reachable on the grid; beyond that the series
    is continued with the geometric majorant C_(a)**j, and the truncation is
    chosen so the remaining geometric tail is below 1e-6, within 10,000 terms.
    """
    if sigma <= 0:
        raise DegenerateRadii(f"sigma must be positive, got {sigma!r}")
    diam = space.diameter if space.diameter > 0 else FALLBACK_RADIUS
    family = space.balls()
    base = space.fn_table(lam)
    rows = []
    all_converged = True
    monotone = True
    for a in a_grid:
        if not a > 1.0:
            raise DegenerateRadii(f"dilation factors must exceed 1, got {a!r}")

        def measure(factor: float) -> Optional[float]:
            keep = family.radius < 2.0 * diam / factor
            if not keep.any():
                return None
            # dropped balls are evaluated at their own radius and ignored
            radii = family.radius.copy()
            radii[keep] = factor * radii[keep]
            return float((lam.table(family.center, radii) / base)[keep].min())

        c_a = measure(a)
        if c_a is None:
            rows.append({"a": a, "c_a": None, "partial_sum": None,
                         "converged": None, "measured_terms": 0})
            continue
        if c_a < 1.0 - DEFAULT_REL_TOL:
            monotone = False
        if c_a <= 1.0 + RADIUS_DEDUP_TOL:
            rows.append({"a": a, "c_a": c_a, "partial_sum": math.inf,
                         "converged": False, "measured_terms": 1})
            all_converged = False
            continue
        ratio = c_a ** (-sigma)
        # truncation with geometric tail ratio**(J+1)/(1-ratio) < 1e-6
        j_cut = int(math.ceil(math.log(1e-6 * (1.0 - ratio) / ratio) / math.log(ratio)))
        j_cut = max(1, min(j_cut, 10000))
        partial = 0.0
        measured = 0
        for j in range(1, j_cut + 1):
            c_aj = measure(a ** j)
            if c_aj is not None:
                measured += 1
                partial += c_aj ** (-sigma)
            else:
                partial += c_a ** (-sigma * j)
        rows.append({"a": a, "c_a": c_a, "partial_sum": partial,
                     "converged": True, "measured_terms": measured})
    ok = all_converged and monotone
    value = min((r["c_a"] for r in rows if r["c_a"] is not None), default=None)
    return CheckReport(
        check="weak_reverse_doubling",
        passed=ok,
        value=value,
        worst_witness={} if ok else {"non_monotone": not monotone},
        details={"sigma": sigma, "rows": rows},
    )


# ------------------------------------------------------------------------------
# Geometry profile
# ------------------------------------------------------------------------------
@dataclass(eq=False)
class GeometryProfile:
    """Doubling data of a space: covering count N0 and dominating-function
    growth exponent nu, from which the doubling thresholds derive."""

    N0: int
    nu: float

    def __post_init__(self):
        if self.N0 < 1:
            raise DimensionMismatch(f"N0 must be >= 1, got {self.N0!r}")

    @property
    def n0(self) -> float:
        return math.log2(self.N0)

    def beta(self, alpha: float) -> float:
        """Doubling threshold for dilation factor alpha."""
        return alpha ** max(self.n0, self.nu) + 30.0 ** self.n0 + 30.0 ** self.nu


def make_profile(space: PointCloudSpace, lam: DominatingFunction) -> GeometryProfile:
    return GeometryProfile(N0=estimate_geometric_doubling(space), nu=lam.nu)
