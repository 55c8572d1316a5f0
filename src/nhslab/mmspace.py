"""Finite metric measure spaces and their dominating functions.

A :class:`PointCloudSpace` is a finite set of atoms with pairwise distances
and positive weights.  Everything downstream (coefficients, norms, operators)
enumerates *candidate balls*: for each center, the closed balls whose radii
are the distances of that center and their halves (``RADIUS_MULTIPLIERS``).
On an atomic space ball membership only changes at those distances, so the
family is finite and canonical (up to the merging of radii within a relative
1e-12).

The family is built once per space as a flat :class:`BallFamily`: ball ``b``
is ``B(center[b], radius[b])``, the balls of one center are contiguous with
ascending radii, and the members of a ball are the first ``counts()[b]``
points of its center's distance order.  Every supremum over balls is a
gather over this family followed by one argmax; exhaustive suprema over
nested ball pairs enumerate ``geometry.nested_pairs``.  Per dilation step tau
it caches one :class:`Ladder`, the member counts of every tau**k * B from one
``counts_of``, which the coefficient tables, the concentric Campanato and
mean-jump ladders and the doubling indices read, and the run ends
(``run_ends``) that group each ball's concentric outer balls by scale index.

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

#: ``build_space`` checks the triangle inequality on every triple of a space
#: with at most this many points, and above it on ``TRIANGLE_SAMPLE_FACTOR *
#: n**2`` random triples (generator seed 0).
TRIANGLE_EXHAUSTIVE_LIMIT = 2048
TRIANGLE_SAMPLE_FACTOR = 10


def _dedup_sorted(values: np.ndarray) -> np.ndarray:
    """Collapse entries of an ascending array within ``RADIUS_DEDUP_TOL``:
    keep a value when it exceeds the last kept one by that relative step."""
    out = [float(values[0])]
    for v in values[1:]:
        if v > out[-1] * (1.0 + RADIUS_DEDUP_TOL):
            out.append(float(v))
    return np.asarray(out, dtype=float)


def _dedup_rows(rows: np.ndarray) -> tuple:
    """:func:`_dedup_sorted` of the positive entries of every ascending row
    (``FALLBACK_RADIUS`` for a row without any), flattened: returns the kept
    values and their row indices.

    On the distinct positive values of a row, keeping v[i] when it exceeds
    v[i-1] * (1 + ``RADIUS_DEDUP_TOL``) is the chained rule unless two values
    in a row are dropped; only such rows (and empty ones) take the loop.
    """
    distinct = rows > 0.0
    distinct[:, 1:] &= rows[:, 1:] != rows[:, :-1]
    row, col = np.nonzero(distinct)
    vals = rows[row, col]
    keep = np.ones(vals.size, dtype=bool)
    keep[1:] = (row[1:] != row[:-1]) | (vals[1:] > vals[:-1] * (1.0 + RADIUS_DEDUP_TOL))
    redo = np.bincount(row, minlength=rows.shape[0]) == 0
    redo[row[1:][~keep[1:] & ~keep[:-1]]] = True
    if not redo.any():
        return vals[keep], row[keep]
    again = np.flatnonzero(redo)
    fixed = [_dedup_sorted(v) if v.size else np.asarray([FALLBACK_RADIUS])
             for v in (vals[row == i] for i in again)]
    keep &= ~redo[row]
    row = np.concatenate([row[keep], np.repeat(again, [f.size for f in fixed])])
    order = np.argsort(row, kind="stable")
    return np.concatenate([vals[keep], *fixed])[order], row[order]


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
    """Member counts of tau**k * B for every ball B of a family: column
    ``k + k_floor`` of ``counts`` is at the scale ``scales[k + k_floor]``, the
    power tau**k, for k = -k_floor .. K.  ``sat[b]`` is the saturation index,
    the smallest k with tau**k * radius[b] at least the diameter."""

    k_floor: int
    scales: np.ndarray
    counts: np.ndarray
    sat: np.ndarray


class BallFamily:
    """The candidate balls of a space, flattened center by center.

    Ball ``b`` is ``B(center[b], radius[b])``; the balls of center ``c`` are
    ``offsets[c]:offsets[c + 1]``, in ascending radius order.  Member counts
    at rescaled radii come from the one per-center ``searchsorted`` in
    :meth:`counts_of`; :meth:`counts` caches them for the few scales that
    several suprema share (the radius itself, the enlargements 2, 5, 6), and
    :meth:`ladder` for every power of one dilation step tau.
    """

    def __init__(self, space: "PointCloudSpace"):
        scaled = np.sort(np.concatenate([m * space.sorted_dist for m in RADIUS_MULTIPLIERS],
                                        axis=1), axis=1)
        self.radius, self.center = _dedup_rows(scaled)
        self.radius.setflags(write=False)
        self.n = space.n
        self.offsets = np.concatenate([[0], np.cumsum(np.bincount(self.center, minlength=space.n))])
        self._diameter = space.diameter
        self._sorted_dist = space.sorted_dist
        self._prefix_weight = space.prefix_weight
        self._counts: dict = {}
        self._ladders: dict = {}
        self._run_ends: dict = {}

    def __len__(self) -> int:
        return int(self.radius.size)

    def segment(self, center: int) -> slice:
        return slice(int(self.offsets[center]), int(self.offsets[center + 1]))

    def ball(self, b: int) -> dict:
        """Ball ``b`` as a ``{"center", "radius"}`` witness."""
        return {"center": int(self.center[b]), "radius": float(self.radius[b])}

    def counts_of(self, radii: np.ndarray) -> np.ndarray:
        """Member counts of the closed balls B(center[b], radii[b, ...])."""
        out = np.empty(radii.shape, dtype=np.int32)
        for c in range(self.n):
            s = self.segment(c)
            out[s] = np.searchsorted(self._sorted_dist[c], radii[s], side="right")
        return out

    def counts(self, scale: float = 1.0) -> np.ndarray:
        """Member counts of the balls enlarged by ``scale`` (cached)."""
        cached = self._counts.get(scale)
        if cached is None:
            cached = self._counts[scale] = self.counts_of(scale * self.radius)
            cached.setflags(write=False)
        return cached

    def measures(self, scale: float = 1.0) -> np.ndarray:
        """Measures of the balls enlarged by ``scale``."""
        return self._prefix_weight[self.center, self.counts(scale)]

    def ladder(self, tau: float) -> Ladder:
        """The ladder of every ball at dilation step tau (cached).  K is 4 past
        the scale index from the smallest radius to the larger of the largest
        radius and the diameter, so the ladder holds every saturation depth
        and the outer scale of every nested pair, and at least the scale index
        of every 6-fold enlargement, the largest bounded enlargement that
        ``check_coefficient_inequalities`` records."""
        tau = float(tau)
        if not tau > 1.0:
            raise InvalidParams(f"tau must exceed 1, got {tau!r}")
        if tau not in self._ladders:
            top = int(scale_index_array(tau, self.radius.min(),
                                        max(float(self.radius.max()), self._diameter))) + 4
            top = max(top, int(scale_index_array(tau, self.radius, 6.0 * self.radius).max()))
            k_floor = floor_log(tau)
            scales = tau ** np.arange(-k_floor, top + 1)
            counts = self.counts_of(self.radius[:, None] * scales)
            counts.setflags(write=False)
            self._ladders[tau] = Ladder(k_floor, scales, counts,
                                        scale_index_array(tau, self.radius, self._diameter))
        return self._ladders[tau]

    def run_ends(self, tau: float) -> np.ndarray:
        """``ends[b, N]`` is one past the last ball of b's segment with radius
        at most the ladder's tau**N * radius[b] (cached), so the balls j >= b
        of pair scale index N are ``ends[b, N - 1]:ends[b, N]`` (from b for
        N = 0).  Columns stop at the largest concentric pair's index."""
        tau = float(tau)
        if tau not in self._run_ends:
            ladder = self.ladder(tau)
            reach = self.radius[:, None] * ladder.scales[ladder.k_floor:]
            ends = np.empty(reach.shape, dtype=np.int32)
            for c in range(self.n):
                s = self.segment(c)
                ends[s] = s.start + np.searchsorted(self.radius[s], reach[s], side="right")
            np.maximum.accumulate(ends, axis=1, out=ends)
            # columns past the last nonempty run hold no pair
            grows = np.flatnonzero(np.any(ends[:, 1:] > ends[:, :-1], axis=0))
            ends = ends[:, : grows[-1] + 2 if grows.size else 1]
            ends.setflags(write=False)
            self._run_ends[tau] = ends
        return self._run_ends[tau]

    def sup(self, values: np.ndarray) -> tuple:
        """Largest of ``values`` (one per ball) floored at 0, with the first
        ball attaining it as witness."""
        j = int(np.argmax(values))
        if not values[j] > 0.0:
            return 0.0, {}
        return float(values[j]), self.ball(j)


class PointCloudSpace:
    """Finite metric measure space on weighted atoms.

    Instances are immutable after construction and safe to share across
    workers; the lazily built lookup tables are pure caches.
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
        self._order: Optional[np.ndarray] = None
        self._sorted_dist: Optional[np.ndarray] = None
        self._prefix_weight: Optional[np.ndarray] = None
        self._family: Optional[BallFamily] = None
        self._radius_union: Optional[np.ndarray] = None
        self._fn_tables: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._lam_matrices: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._coeff_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._pair_samples: dict = {}

    # -- sorted-distance machinery --------------------------------------------
    @property
    def order(self) -> np.ndarray:
        """Per-center point indices sorted by distance (stable ties)."""
        if self._order is None:
            self._order = np.argsort(self.dist, axis=1, kind="stable")
        return self._order

    @property
    def sorted_dist(self) -> np.ndarray:
        if self._sorted_dist is None:
            self._sorted_dist = np.take_along_axis(self.dist, self.order, axis=1)
        return self._sorted_dist

    @property
    def prefix_weight(self) -> np.ndarray:
        """``prefix_weight[c, q]`` is the weight of the q closest points to c."""
        if self._prefix_weight is None:
            cum = np.cumsum(self.weights[self.order], axis=1)
            self._prefix_weight = np.hstack([np.zeros((self.n, 1)), cum])
        return self._prefix_weight

    def prefix_of(self, values: np.ndarray) -> np.ndarray:
        """Prefix sums of an arbitrary field in per-center distance order."""
        cum = np.cumsum(np.asarray(values, dtype=float)[self.order], axis=1)
        return np.hstack([np.zeros((self.n, 1)), cum])

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
        if self._family is None:
            self._family = BallFamily(self)
        return self._family

    def radius_union(self) -> np.ndarray:
        """Sorted union of every center's candidate radii."""
        if self._radius_union is None:
            self._radius_union = _dedup_rows(np.sort(self.balls().radius)[None, :])[0]
            self._radius_union.setflags(write=False)
        return self._radius_union

    def fn_table(self, obj: "Radial") -> np.ndarray:
        """``obj`` on every ball of the candidate family, cached by object
        identity."""
        table = self._fn_tables.get(obj)
        if table is None:
            family = self.balls()
            table = self._fn_tables[obj] = obj.table(family.center, family.radius)
        return table

    def pair_table(self, lam: "DominatingFunction") -> np.ndarray:
        """Matrix of lam(x, d(x, y)); entries with d == 0 hold a placeholder 1."""
        cached = self._lam_matrices.get(lam)
        if cached is None:
            zero = self.dist <= 0.0
            cached = np.where(zero, 1.0, lam.table(np.arange(self.n)[:, None],
                                                   np.where(zero, 1.0, self.dist)))
            cached.setflags(write=False)
            self._lam_matrices[lam] = cached
        return cached

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

    Exactly one of ``points`` (coordinates; Euclidean metric) or ``distances``
    (a full square matrix) must be given.  The metric axioms are verified
    exhaustively up to ``TRIANGLE_EXHAUSTIVE_LIMIT`` points and on
    ``TRIANGLE_SAMPLE_FACTOR * n**2`` random triples above that, with a
    relative slack of ``METRIC_REL_TOL`` for coordinate rounding.
    """
    if (points is None) == (distances is None):
        raise DimensionMismatch("provide exactly one of points= or distances=")
    if weights is None:
        raise DimensionMismatch("weights are required")
    w = np.asarray(weights, dtype=float).ravel()
    n = w.shape[0]
    if n < 1:
        raise DimensionMismatch("a space needs at least one point")
    bad = np.nonzero(~(w > 0.0))[0]
    if bad.size:
        raise NonPositiveWeight(f"weight of point {int(bad[0])} is {w[bad[0]]!r}; weights must be positive")

    coords = None
    if points is not None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[0] != n:
            raise DimensionMismatch(f"{pts.shape[0]} points but {n} weights")
        coords = pts
        dist = _euclidean_matrix(pts)
    else:
        dist = np.asarray(distances, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise DimensionMismatch("distance matrix must be square")
        if dist.shape[0] != n:
            raise DimensionMismatch(f"{dist.shape[0]}x{dist.shape[0]} distances but {n} weights")
        scale = float(np.abs(dist).max()) if dist.size else 0.0
        if np.any(dist < 0):
            i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
            raise MetricViolation(f"negative distance d({i},{j}) = {dist[i, j]!r}")
        slack = METRIC_REL_TOL * max(scale, 1.0)
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
    n = dist.shape[0]
    if n <= 2:
        return
    if n <= TRIANGLE_EXHAUSTIVE_LIMIT:
        slack = METRIC_REL_TOL * np.maximum(dist, 1.0)
        for k in range(n):
            bound = dist[:, k : k + 1] + dist[k : k + 1, :]
            viol = dist - bound - slack
            if np.any(viol > 0):
                i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
                raise MetricViolation(
                    f"triangle inequality fails on ({i},{k},{j}): "
                    f"d({i},{j})={dist[i, j]!r} > d({i},{k})+d({k},{j})={bound[i, j]!r}"
                )
        return
    rng = np.random.default_rng(0)
    triples = rng.integers(0, n, size=(TRIANGLE_SAMPLE_FACTOR * n * n, 3))
    i, k, j = triples[:, 0], triples[:, 1], triples[:, 2]
    lhs = dist[i, j]
    rhs = dist[i, k] + dist[k, j]
    viol = lhs - rhs - METRIC_REL_TOL * np.maximum(lhs, 1.0)
    if np.any(viol > 0):
        t = int(np.argmax(viol))
        raise MetricViolation(
            f"triangle inequality fails on sampled triple ({i[t]},{k[t]},{j[t]}): "
            f"{lhs[t]!r} > {rhs[t]!r}"
        )


# ------------------------------------------------------------------------------
# Geometric doubling estimate
# ------------------------------------------------------------------------------
def estimate_geometric_doubling(space: PointCloudSpace) -> int:
    """Upper bound the geometric doubling count of the space.

    Every candidate ball B(c, r) is covered greedily by balls of radius r/2
    centered at its members (farthest-point traversal from c, ties going to
    the lowest point index); a greedy cover is a valid cover, so its largest
    size is a valid, possibly non-tight, doubling count.  One batched greedy
    runs per center over all R of its candidate radii, in O(R n N0) time and
    one R x n buffer: row i holds each member's distance to the cover of
    B(c, r_i) (-inf off the ball) and every step adds each row's farthest
    point.  Steps only lower a covered row, so the center's largest cover is
    the number of steps until no row has a member beyond its r_i/2.

    Only rows that can raise the count run: balls of one center with equal
    member counts have the same members and the same traversal, which a
    larger r/2 only stops sooner, so each run of counts keeps its smallest
    radius; and a ball of at most ``best`` members needs at most ``best``.
    """
    family = space.balls()
    counts = family.counts()
    best = 1
    for c in range(space.n):
        s = family.segment(c)
        k = counts[s]
        rises = np.ones(k.size, dtype=bool)
        rises[1:] = k[1:] != k[:-1]
        r = family.radius[s][rises & (k > best)]
        if not r.size:
            continue
        row = space.dist[c]
        mind = np.where(row <= r[:, None], row, -np.inf)
        half, rows = r / 2.0, np.arange(r.size)
        count = 1
        while True:
            far = np.argmax(mind, axis=1)
            if not np.any(mind[rows, far] > half):
                break
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
    dom = mus / vals
    half = vals / lam.table(family.center, family.radius / 2.0)
    mono = np.where(family.center[1:] == family.center[:-1], vals[:-1] / vals[1:], -math.inf)
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
