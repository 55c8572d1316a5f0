"""Space and function generators, experiment orchestration, report emission.

Functions are generated as samples of fixed continuous random fields (seeded
trigonometric polynomials evaluated at the point coordinates), so the same
(seed, index) pair produces discretizations of one underlying function at
every refinement level.  That is what makes cross-refinement constant
stability a meaningful experiment rather than a comparison of unrelated
random vectors.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field, asdict
from typing import Callable, Optional

import numpy as np

from . import geometry, mmspace, operators, spaces
from .errors import SpecError
from .geometry import Ball
from .mmspace import DominatingFunction, GeometryProfile, PointCloudSpace
from .operators import KernelSpec, OperatorParams
from .spaces import GrowthFunctionPhi, RegularityFunctionPsi

ARTIFACT_VERSION = "0.1.0"

DEFAULT_MAX_N = 512

SEED_ENV_VAR = "NHS_LAB_SEED"

#: The sample sizes an experiment config's ``budgets`` may set, and their defaults.
BUDGETS = {"pairs": 500, "triples": 2000, "functions": 5, "chains": 50,
           "domination_functions": 10, "jn_functions": 5, "sharp_functions": 3,
           "embedding_functions": 3}


# ------------------------------------------------------------------------------
# Canonical fixtures and space generators
# ------------------------------------------------------------------------------
def two_point_space() -> PointCloudSpace:
    """The canonical two-atom fixture: unit distance, unit weights."""
    return mmspace.build_space(points=[[0.0], [1.0]], weights=[1.0, 1.0])


def two_point_lambda() -> DominatingFunction:
    """The dominating function 2*max(r, 1) used with the two-atom fixture."""
    return DominatingFunction(lambda c, r: 2.0 * np.maximum(r, 1.0), c_lambda=2.0,
                              description="2*max(r,1)")


def _grid_points(d: int, n: int) -> np.ndarray:
    if n == 1:
        axes = [np.zeros(1)]
    else:
        axes = [np.linspace(0.0, 1.0, n) for _ in range(d)]
    mesh = np.meshgrid(*([axes[0]] * d), indexing="ij") if d > 1 else [axes[0]]
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts


def generate_space(spec: dict) -> PointCloudSpace:
    """Build a space from a generator description.

    Kinds: ``grid`` (uniform lattice on the unit cube, ``n`` points per axis,
    with lebesgue / power / random weights), ``two_point`` (the canonical
    fixture) and ``atoms`` (explicit points or distances plus weights).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecError(f"generator spec must be a dict with a 'kind', got {spec!r}")
    kind = spec["kind"]
    if kind == "two_point":
        return two_point_space()
    if kind == "atoms":
        if "points" in spec:
            return mmspace.build_space(points=spec["points"], weights=spec["weights"])
        if "distances" in spec:
            return mmspace.build_space(distances=spec["distances"], weights=spec["weights"])
        raise SpecError("atoms generator needs 'points' or 'distances'")
    if kind != "grid":
        raise SpecError(f"unknown generator kind {kind!r}")
    d = int(spec.get("d", 1))
    n = int(spec.get("n", 64))
    if d < 1 or n < 1:
        raise SpecError(f"grid dimensions must be positive, got d={d}, n={n}")
    pts = _grid_points(d, n)
    total = pts.shape[0]
    wspec = spec.get("weights", "lebesgue")
    if wspec == "lebesgue":
        weights = np.full(total, float(n) ** (-d))
    elif isinstance(wspec, dict) and "power" in wspec:
        a = float(wspec["power"])
        raw = (np.linalg.norm(pts, axis=1) + 1.0 / n) ** a
        weights = raw / raw.sum()
    elif isinstance(wspec, dict) and "random" in wspec:
        rng = np.random.default_rng(int(wspec["random"]))
        weights = np.exp(rng.uniform(math.log(1e-3), 0.0, size=total))
    else:
        raise SpecError(f"unknown weight spec {wspec!r}")
    return mmspace.build_space(points=pts, weights=weights)


def generator_name(spec: dict) -> str:
    kind = spec.get("kind", "?")
    if kind == "grid":
        w = spec.get("weights", "lebesgue")
        wname = w if isinstance(w, str) else "_".join(f"{k}{v:g}" for k, v in w.items())
        return f"grid(d={spec.get('d', 1)},n={spec.get('n', 64)},{wname})"
    return str(kind)


# ------------------------------------------------------------------------------
# Function generators (refinement-consistent random fields)
# ------------------------------------------------------------------------------
def _random_field(seed: int, index: int) -> Callable:
    """A random trigonometric polynomial along a random direction: 8 modes
    with coefficients decaying as k**-1.5."""
    rng = np.random.default_rng([int(seed), int(index)])
    a0 = float(rng.normal())
    ks = np.arange(1, 9, dtype=float)
    a = rng.normal(size=8) / ks ** 1.5
    b = rng.normal(size=8) / ks ** 1.5
    direction = rng.normal(size=8)

    def evaluate(coords: np.ndarray) -> np.ndarray:
        d = coords.shape[1]
        u = direction[:d]
        u = u / max(np.linalg.norm(u), 1e-12)
        t = coords @ u
        phase = 2.0 * math.pi * np.outer(t, ks)
        return a0 + np.cos(phase) @ a + np.sin(phase) @ b

    return evaluate


def generate_functions(space: PointCloudSpace, family, count: int, seed: int = 0,
                       *, lam: Optional[DominatingFunction] = None,
                       psi: Optional[RegularityFunctionPsi] = None) -> list:
    """Generate ``count`` functions from a named family, deterministically in
    the seed.

    Families: ``random_bounded`` (random trigonometric fields),
    ``mean_zero_random`` (the same, projected to exact weighted mean zero),
    ``psi_adapted`` (normalized to unit oscillation-regularity norm at tau =
    2), and ``indicator`` (ball indicators; the dict form fixes the ball,
    radii cycle over a deterministic ladder for count > 1).
    """
    name = family["kind"] if isinstance(family, dict) else str(family)
    out = []
    if name == "indicator":
        center_spec = family.get("center", 0.5) if isinstance(family, dict) else 0.5
        base_radius = float(family.get("radius", 0.25)) if isinstance(family, dict) else 0.25
        center = _resolve_center(space, center_spec)
        for i in range(count):
            radius = base_radius * (1.0 + 0.5 * (i % 4))
            mask = space.dist[center] <= radius
            out.append(mask.astype(float))
        return out
    if name not in ("random_bounded", "mean_zero_random", "psi_adapted"):
        raise SpecError(f"unknown function family {family!r}")
    for i in range(count):
        if space.coords is not None:
            f = _random_field(seed, i)(space.coords)
        else:
            rng = np.random.default_rng([int(seed), i])
            f = rng.uniform(-1.0, 1.0, size=space.n)
        if name == "mean_zero_random":
            f = f - float(np.sum(f * space.weights) / space.total_measure)
        elif name == "psi_adapted":
            if lam is None or psi is None:
                raise SpecError("psi_adapted functions need lam= and psi=")
            norm = spaces.campanato_norm(space, lam, f, psi).norm
            if norm <= 1e-13:
                continue
            f = f / norm
        out.append(f)
    return out


def _resolve_center(space: PointCloudSpace, center_spec) -> int:
    if isinstance(center_spec, int):
        return center_spec
    if space.coords is None:
        raise SpecError("coordinate ball centers need a coordinate-backed space")
    target = np.full(space.coords.shape[1], float(center_spec)) \
        if np.isscalar(center_spec) else np.asarray(center_spec, dtype=float)
    return int(np.argmin(np.linalg.norm(space.coords - target[None, :], axis=1)))


def lp_norm(space: PointCloudSpace, f: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(np.asarray(f)) ** p * space.weights) ** (1.0 / p))


# ------------------------------------------------------------------------------
# Chain generation
# ------------------------------------------------------------------------------
def load_chains(path: str) -> list:
    """Chain file: a JSON list of [center, base_radius, [exponents...]] triples
    (or objects with those keys)."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    chains = []
    for item in raw:
        if isinstance(item, dict):
            chains.append((int(item["center"]), float(item["base_radius"]),
                           [int(e) for e in item["exponents"]]))
        else:
            center, base, exps = item
            chains.append((int(center), float(base), [int(e) for e in exps]))
    return chains


class ChainList(list):
    """The ``(center, base_radius, exponents)`` chains of
    :func:`generate_chains`, a plain list that also records how far the search
    went: ``centers_searched`` and ``links_evaluated``."""

    def __init__(self):
        super().__init__()
        self.centers_searched = 0
        self.links_evaluated = 0


def generate_chains(space: PointCloudSpace, lam: DominatingFunction, tau: float,
                    count: int, seed: int = 0) -> ChainList:
    """Produce concentric dyadic chains whose every link coefficient exceeds
    the chain threshold; iterates deterministically until ``count`` qualify.

    Centers come in a seeded random order.  Each base radius (the lowest
    quarter of the center's candidate radii) and gap g = 3, 4 or 5 give links
    from tau**(i*g) to tau**((i+1)*g) times the base, of outer scale index g;
    one :func:`geometry.concentric_coefficients` call evaluates every link of
    a center, then the (base, length 3 or 4, gap) chains are read in that
    order.
    """
    chains = ChainList()
    if count <= 0:
        return chains
    threshold = 3.0 + geometry.floor_log(tau)
    rng = np.random.default_rng(seed)
    lengths, gaps = (3, 4), (3, 4, 5)
    depth = max(lengths) - 1
    spans = [(i * gap, (i + 1) * gap) for gap in gaps for i in range(depth)]
    for c in rng.permutation(space.n).tolist():
        radii = space.candidate_radii(c)
        bases = radii[: max(1, radii.size // 4)].tolist()
        r_in = [tau ** lo * base for base in bases for lo, _ in spans]
        coeff = geometry.concentric_coefficients(space, lam, c, r_in,
                                                 [hi - lo for _ in bases for lo, hi in spans], tau)
        above = (coeff.values > threshold).reshape(len(bases), len(gaps), depth)
        chains.centers_searched += 1
        chains.links_evaluated += len(r_in)
        for b, base in enumerate(bases):
            for length in lengths:
                for g, gap in enumerate(gaps):
                    if above[b, g, :length - 1].all():
                        chains.append((c, base, [i * gap for i in range(length)]))
                        if len(chains) >= count:
                            return chains
    return chains


# ------------------------------------------------------------------------------
# Experiment configuration
# ------------------------------------------------------------------------------
def make_psi(config: Optional[dict], lam: DominatingFunction) -> RegularityFunctionPsi:
    config = config or {"family": "constant"}
    fam = config.get("family", "constant")
    if fam == "constant":
        return spaces.constant_psi()
    if fam == "lambda_power":
        return spaces.lambda_power_psi(lam, float(config.get("alpha", 0.5)))
    if fam == "radius_power":
        return spaces.radius_power_psi(float(config.get("exponent", 0.25)))
    raise SpecError(f"unknown psi family {fam!r}")


def make_phi(config: Optional[dict]) -> GrowthFunctionPhi:
    config = config or {"family": "power", "a": 1.0, "delta": 0.5}
    fam = config.get("family", "power")
    delta = float(config.get("delta", 0.5))
    if fam == "power":
        return spaces.power_phi(float(config.get("a", 1.0)), delta)
    if fam == "shifted_power":
        return spaces.shifted_power_phi(float(config.get("a", 1.0)), delta)
    if fam == "constant":
        return spaces.constant_phi(delta)
    raise SpecError(f"unknown phi family {fam!r}")


@dataclass
class ExperimentConfig:
    """Parsed experiment description."""

    generator: dict
    checks: list
    seed: int = 7
    params: OperatorParams = field(default_factory=OperatorParams)
    psi: Optional[dict] = None
    phi: Optional[dict] = None
    budgets: dict = field(default_factory=dict)
    output_path: Optional[str] = None
    max_n: int = DEFAULT_MAX_N

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise SpecError("experiment config must be a JSON object")
        if not isinstance(raw.get("generator"), dict):
            raise SpecError(f"experiment config needs a 'generator' object, got {raw.get('generator')!r}")
        checks = raw.get("checks", sorted(CHECKS))
        unknown = [c for c in checks if c not in CHECKS]
        if unknown:
            raise SpecError(f"unknown checks: {unknown}")
        params_raw = raw.get("params", {})
        try:
            params = OperatorParams(**params_raw)
        except TypeError as exc:
            raise SpecError(f"bad operator params: {exc}") from exc
        budgets = raw.get("budgets", {})
        if not isinstance(budgets, dict) or any(
                k not in BUDGETS or type(v) is not int or v < 0 for k, v in budgets.items()):
            raise SpecError(f"budgets must map names in {sorted(BUDGETS)} to integers >= 0, got {budgets!r}")
        cfg = ExperimentConfig(
            generator=raw["generator"],
            checks=list(checks),
            seed=int(raw.get("seed", 7)),
            params=params,
            psi=raw.get("psi"),
            phi=raw.get("phi"),
            budgets=dict(budgets),
            output_path=raw.get("output_path"),
            max_n=int(raw.get("max_n", DEFAULT_MAX_N)),
        )
        spec, n = cfg.generator, 2
        if spec.get("kind") == "grid":
            n = int(spec.get("n", 64)) ** int(spec.get("d", 1))
        elif spec.get("kind") == "atoms":  # its points, or the rows of its distances
            rows = spec.get("points", spec.get("distances"))
            n = len(rows) if hasattr(rows, "__len__") else 0
        if n > cfg.max_n:
            raise SpecError(f"generator produces {n} points, above the cap {cfg.max_n}")
        return cfg


@dataclass
class Row:
    check: str
    n: int
    generator: str
    value: Optional[float]
    lower: Optional[float] = None
    upper: Optional[float] = None
    witness: dict = field(default_factory=dict)
    status: str = "pass"


@dataclass
class ExperimentReport:
    rows: list
    config: dict
    runtime_seconds: float
    version: str = ARTIFACT_VERSION
    #: JSON only, the CSV stays bit-identical: per check, CPU seconds and the
    #: traceback if it raised; per cache kind, the bytes held after the checks
    check_seconds: dict = field(default_factory=dict)
    tracebacks: dict = field(default_factory=dict)
    cache_bytes: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 1 if any(r.status == "fail" for r in self.rows) else 0

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "runtime_seconds": self.runtime_seconds,
            "config": self.config,
            "rows": [asdict(r) for r in self.rows],
            "check_seconds": self.check_seconds,
            "tracebacks": self.tracebacks,
            "cache_bytes": self.cache_bytes,
        }


# ------------------------------------------------------------------------------
# Experiment context and individual checks
# ------------------------------------------------------------------------------
@dataclass
class _Context:
    space: PointCloudSpace
    lam: DominatingFunction
    profile: GeometryProfile
    psi: RegularityFunctionPsi
    phi: GrowthFunctionPhi
    kernel: KernelSpec
    params: OperatorParams
    seed: int
    gen_name: str
    budgets: dict

    def budget(self, key: str) -> int:
        return int(self.budgets.get(key, BUDGETS[key]))

    def functions(self, count: int, family: str = "random_bounded"):
        return generate_functions(self.space, family, count, self.seed,
                                  lam=self.lam, psi=self.psi)

    @functools.cached_property
    def constants(self) -> dict:
        """The pass of the norm-band and mean-jump rows, paid by the first to run."""
        return spaces.function_constants(self.space, self.lam, self.psi,
                                         self.functions(self.budget("functions")),
                                         self.budget("pairs"), self.seed)


def _row(ctx: _Context, check: str, value, status: str, lower=None, upper=None, witness=None) -> Row:
    return Row(check=check, n=ctx.space.n, generator=ctx.gen_name,
               value=None if value is None else float(value),
               lower=lower, upper=upper, witness=witness or {}, status=status)


def _status(report) -> str:
    if report.passed is None:
        return "pass"
    return "pass" if report.passed else "fail"


def _check_upper_doubling(ctx: _Context) -> Row:
    rep = mmspace.validate_upper_doubling(ctx.space, ctx.lam)
    return _row(ctx, "upper_doubling", rep.value, _status(rep), witness=rep.worst_witness)


def _check_lambda_comparability(ctx: _Context) -> Row:
    rep = mmspace.validate_lambda_comparability(ctx.space, ctx.lam)
    return _row(ctx, "lambda_comparability", rep.value, _status(rep), witness=rep.worst_witness)


def _check_weak_reverse_doubling(ctx: _Context) -> Row:
    rep = mmspace.validate_weak_reverse_doubling(
        ctx.lam, ctx.space, ctx.params.sigma, a_grid=(2.0, 4.0))
    return _row(ctx, "weak_reverse_doubling", rep.value, _status(rep),
                witness={"rows": rep.details["rows"]})


def _check_geometric_doubling(ctx: _Context) -> Row:
    return _row(ctx, "geometric_doubling", float(ctx.profile.N0), "pass",
                witness={"beta6": ctx.profile.beta(6.0), "nu": ctx.profile.nu})


def _check_coefficient_inequalities(ctx: _Context) -> Row:
    rep = geometry.check_coefficient_inequalities(
        ctx.space, ctx.lam, (2.0, 6.0), ctx.budget("triples"), ctx.seed)
    d = rep.details
    return _row(ctx, "coefficient_inequalities", rep.value, _status(rep),
                lower=d["cross_step_ratio_min"], upper=d["cross_step_ratio_max"],
                witness=d)


def _check_chain_bound(ctx: _Context) -> Row:
    chains = generate_chains(ctx.space, ctx.lam, 2.0, ctx.budget("chains"), ctx.seed)
    rep = geometry.check_coefficient_chain_bound(ctx.space, ctx.lam, 2.0, chains)
    return _row(ctx, "coefficient_chain_bound", rep.value, _status(rep),
                witness={**rep.details, "centers_searched": chains.centers_searched,
                         "links_evaluated": chains.links_evaluated})


def _check_doubling_coefficient(ctx: _Context) -> Row:
    rep = geometry.check_doubling_coefficient_bound(ctx.space, ctx.lam, ctx.profile, 6.0)
    return _row(ctx, "doubling_coefficient_bound", rep.value, "pass", witness=rep.worst_witness)


def _check_weak_doubling_index(ctx: _Context) -> Row:
    rep = geometry.validate_weak_doubling(ctx.space, ctx.lam, ctx.profile, 2.0)
    return _row(ctx, "weak_doubling_index", rep.value, "pass", witness=rep.worst_witness)


def _check_psi(ctx: _Context) -> Row:
    rep = spaces.validate_psi(ctx.space, ctx.psi)
    return _row(ctx, "psi_regularity", rep.value, _status(rep), witness=rep.worst_witness)


def _check_phi(ctx: _Context) -> Row:
    rep = spaces.validate_phi_gdec(ctx.space, ctx.phi, etas=(2.0, ctx.params.eta),
                                   pair_budget=ctx.budget("pairs"), seed=ctx.seed)
    return _row(ctx, "phi_decrease", rep.value, _status(rep), witness=rep.details)


def _check_identity_suite(ctx: _Context) -> Row:
    space, lam, psi = ctx.space, ctx.lam, ctx.psi
    params = ctx.params
    devs = []
    const = np.full(space.n, 3.25)
    devs.append(spaces.campanato_norm(space, lam, const, psi).norm)
    devs.append(float(np.max(operators.sharp_maximal(space, lam, ctx.profile, const))))
    f = ctx.functions(1)[0]
    g = ctx.functions(1, "mean_zero_random")[0]
    c, d = 2.5, -1.25
    base = spaces.campanato_norm(space, lam, f, psi).norm
    aff = spaces.campanato_norm(space, lam, c * f + d, psi).norm
    devs.append(abs(aff - abs(c) * base) / max(abs(c) * base, 1e-30))
    m_base = spaces.morrey_norm(space, f, params.p, ctx.phi, params.eta)
    m_scaled = spaces.morrey_norm(space, c * f, params.p, ctx.phi, params.eta)
    devs.append(abs(m_scaled - abs(c) * m_base) / max(abs(c) * m_base, 1e-30))
    tri = spaces.morrey_norm(space, f + g, params.p, ctx.phi, params.eta)
    devs.append(max(0.0, tri - m_base - spaces.morrey_norm(space, g, params.p, ctx.phi, params.eta)))
    comm = operators.marcinkiewicz_commutator(space, ctx.kernel, const, f, None, params)
    devs.append(float(np.max(np.abs(comm))))
    mc = operators.marcinkiewicz(space, ctx.kernel, c * f, None, params)
    m1 = operators.marcinkiewicz(space, ctx.kernel, f, None, params)
    devs.append(float(np.max(np.abs(mc - abs(c) * m1))) / max(float(np.max(m1)), 1e-30))
    ident = spaces.constant_psi()
    mp = operators.maximal_p_tau(space, f, params.p, 5.0)
    mpsi = operators.maximal_psi_p_tau(space, ident, f, params.p, 5.0)
    devs.append(float(np.max(np.abs(mp - mpsi))))
    worst = float(max(devs))
    return _row(ctx, "identity_suite", worst, "pass" if worst <= 1e-12 else "fail",
                witness={"deviations": devs})


def _check_hand_fixtures(ctx: _Context) -> Row:
    space = two_point_space()
    lam = two_point_lambda()
    coeff = geometry.discrete_coefficient(space, lam, Ball(0, 1.0), Ball(0, 4.0), 2.0).value
    kernel = operators.make_kernel(space, lam, l=0.0)
    params = OperatorParams(l=0.0, rho=1.0, s=2.0)
    f = np.array([0.0, 1.0])
    marc = operators.marcinkiewicz(space, kernel, f, 0, params)
    pot = operators.t_lambda(space, lam, f, 0)
    rhs = (2.0) ** (-0.5) * kernel.c_size * pot
    devs = [
        abs(coeff - 3.25) / 3.25,
        abs(marc - 1.0 / (2.0 * math.sqrt(2.0))) / (1.0 / (2.0 * math.sqrt(2.0))),
        abs(pot - 0.5) / 0.5,
        abs(marc - rhs) / rhs,
    ]
    worst = float(max(devs))
    return _row(ctx, "hand_fixtures", worst, "pass" if worst <= 1e-12 else "fail",
                witness={"coefficient": coeff, "marcinkiewicz": marc, "potential": pot})


def _check_pointwise_domination(ctx: _Context) -> Row:
    worst = -math.inf
    status = "pass"
    for f in ctx.functions(ctx.budget("domination_functions")):
        rep = operators.check_pointwise_domination(ctx.space, ctx.lam, ctx.kernel, f, ctx.params)
        worst = max(worst, rep.value)
        if not rep.passed:
            status = "fail"
    return _row(ctx, "pointwise_domination", worst, status)


def _check_jn_envelope(ctx: _Context) -> Row:
    count = ctx.budget("jn_functions")
    fs = generate_functions(ctx.space, "psi_adapted", count, ctx.seed,
                            lam=ctx.lam, psi=ctx.psi)
    center = _resolve_center(ctx.space, 0.5) if ctx.space.coords is not None else 0
    ball = Ball(center, max(0.25, ctx.space.diameter / 4.0))
    dominated = 0
    total = 0
    rates = []
    for f in fs:
        rep = spaces.jn_distribution(ctx.space, f, ctx.psi, ball, 2.0)
        dominated += _envelope_hits(rep.rate, rep)
        total += rep.t_values.size
        rates.append(rep.rate)
    frac = dominated / max(total, 1)
    return _row(ctx, "jn_envelope", frac, "pass",
                witness={"rates": rates, "points": total})


def _check_mean_jumps(ctx: _Context) -> Row:
    rep = ctx.constants["mean_jump"]
    return _row(ctx, "mean_jump_bounds", rep.value, "pass", witness=rep.details)


def _check_equivalence(ctx: _Context) -> Row:
    rep = ctx.constants["equivalence"]
    lower, upper = next(iter(rep.details["bands"].values()), (None, None))
    return _row(ctx, "equivalence_bands", rep.value, "pass",
                lower=lower, upper=upper, witness=rep.details)


def _check_p_oscillation_bands(ctx: _Context) -> Row:
    bands = ctx.constants["p_oscillation"]
    return _row(ctx, "p_oscillation_bands", bands["p2"][1], "pass",
                lower=bands["p2"][0], upper=bands["p2"][1], witness=bands)


def _check_operator_norm_ratios(ctx: _Context) -> Row:
    fs = ctx.functions(ctx.budget("functions"))
    mz = ctx.functions(ctx.budget("functions"), "mean_zero_random")
    b = ctx.functions(1)[0]
    ratios = operator_norm_ratios(ctx.space, ctx.lam, ctx.profile, ctx.psi, ctx.phi,
                                  ctx.kernel, ctx.params, fs, mz, b,
                                  seed=ctx.seed, pair_budget=ctx.budget("pairs"))
    return _row(ctx, "operator_norm_ratios", ratios["marcinkiewicz_morrey_ratio"],
                "pass", witness=ratios)


def _sharp_ratio(space, lam, profile, kernel, psi, b, fs, params, pair_budget, seed) -> float:
    """The largest sharp-maximal commutator ratio against the symbol b over fs, floored at 0."""
    return max([0.0] + [operators.check_sharp_maximal_estimate(
        space, lam, profile, kernel, psi, b, f, params, pair_budget=pair_budget, seed=seed).value
        for f in fs])


def _embedding_reports(space, phi, fs, params) -> tuple:
    """``c10``, the largest ratio (or 0) and per f the maximal-Morrey estimate
    under psi = phi**(1/q - 1/p) of f / ||f|| at eta = tau (None if <= 1e-13)."""
    psi = spaces.phi_compatible_psi(phi, params.p, params.q)
    c10 = operators.maximal_embedding_constant(space, psi, phi, params.p, params.q)
    norms = [spaces.morrey_norm(space, f, params.p, phi, eta=params.tau) for f in fs]
    reports = [operators.check_maximal_morrey_pointwise(space, psi, phi, np.asarray(f) / norm,
                                                        params, c10=c10) if norm > 1e-13 else None
               for f, norm in zip(fs, norms)]
    return c10, max([0.0] + [r.value for r in reports if r is not None]), reports


def _check_sharp_estimate(ctx: _Context) -> Row:
    return _row(ctx, "sharp_maximal_estimate", _sharp_ratio(
        ctx.space, ctx.lam, ctx.profile, ctx.kernel, ctx.psi, ctx.functions(1)[0],
        ctx.functions(ctx.budget("sharp_functions")), ctx.params, ctx.budget("pairs"),
        ctx.seed), "pass")


def _check_maximal_embedding(ctx: _Context) -> Row:
    fs = ctx.functions(2 * ctx.budget("embedding_functions"))
    c10, cal, reports = _embedding_reports(ctx.space, ctx.phi, fs, ctx.params)
    # the first half calibrates; only the second half is checked
    failed = any(r is not None and not r.passed for r in reports[len(fs) // 2:])
    return _row(ctx, "maximal_morrey_pointwise", cal, "fail" if failed else "pass", witness={"c10": c10})


def operator_norm_ratios(space, lam, profile, psi, phi, kernel, params,
                         fs, mean_zero_fs, b, *, seed=0, pair_budget=2000) -> dict:
    """Suprema over a function family of the operator norm ratios used in the
    refinement-stability experiments.

    The Morrey ratios skip functions of Morrey norm at most 1e-13, the Lp
    ratios functions of Lp norm at most 1e-13.
    """
    p, q, eta = params.p, params.q, params.eta
    pot = 0.0
    marc = 0.0
    comm = 0.0
    maximal = 0.0
    doubling = 0.0
    b_norm = spaces.campanato_norm(space, lam, b, psi, pair_budget=pair_budget,
                                   seed=seed).norm
    for f in fs:
        mn = spaces.morrey_norm(space, f, p, phi, eta)
        if mn > 1e-13:
            tl = operators.t_lambda(space, lam, np.abs(f))
            pot = max(pot, spaces.morrey_norm(space, tl, p, phi, eta) / mn)
            mf = operators.marcinkiewicz(space, kernel, f, None, params)
            marc = max(marc, spaces.morrey_norm(space, mf, p, phi, eta) / mn)
            cf = operators.marcinkiewicz_commutator(space, kernel, b, f, None, params)
            comm = max(comm, spaces.morrey_norm(space, cf, q, phi, eta) / (b_norm * mn))
        lpn = lp_norm(space, f, p)
        if lpn > 1e-13:
            maximal = max(maximal, lp_norm(space, operators.maximal_p_tau(space, f, p, 5.0), p) / lpn)
            doubling = max(doubling, lp_norm(space, operators.doubling_maximal(space, profile, f), p) / lpn)
    sharp_control = 0.0
    for f in mean_zero_fs:
        sharp = operators.sharp_maximal(space, lam, profile, f,
                                        pair_budget=pair_budget, seed=seed)
        den = lp_norm(space, sharp, p)
        num = lp_norm(space, operators.doubling_maximal(space, profile, f), p)
        if den > 1e-13:
            sharp_control = max(sharp_control, num / den)
    return {
        "potential_morrey_ratio": pot,
        "marcinkiewicz_morrey_ratio": marc,
        "commutator_morrey_ratio": comm,
        "maximal_lp_ratio": maximal,
        "doubling_maximal_lp_ratio": doubling,
        "sharp_control_ratio": sharp_control,
        "b_norm": b_norm,
    }


CHECKS: dict = {
    "upper_doubling": _check_upper_doubling,
    "lambda_comparability": _check_lambda_comparability,
    "weak_reverse_doubling": _check_weak_reverse_doubling,
    "geometric_doubling": _check_geometric_doubling,
    "coefficient_inequalities": _check_coefficient_inequalities,
    "coefficient_chain_bound": _check_chain_bound,
    "doubling_coefficient_bound": _check_doubling_coefficient,
    "weak_doubling_index": _check_weak_doubling_index,
    "psi_regularity": _check_psi,
    "phi_decrease": _check_phi,
    "identity_suite": _check_identity_suite,
    "hand_fixtures": _check_hand_fixtures,
    "pointwise_domination": _check_pointwise_domination,
    "jn_envelope": _check_jn_envelope,
    "mean_jump_bounds": _check_mean_jumps,
    "equivalence_bands": _check_equivalence,
    "p_oscillation_bands": _check_p_oscillation_bands,
    "operator_norm_ratios": _check_operator_norm_ratios,
    "sharp_maximal_estimate": _check_sharp_estimate,
    "maximal_morrey_pointwise": _check_maximal_embedding,
}


def run_experiments(config: ExperimentConfig) -> ExperimentReport:
    """Execute the configured checks in declared order on a freshly generated
    space; the seed can be overridden with the NHS_LAB_SEED variable."""
    start = time.perf_counter()
    seed = config.seed
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise SpecError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc
    space = generate_space(config.generator)
    lam = mmspace.fit_power_lambda(space)
    profile = mmspace.make_profile(space, lam)
    psi = make_psi(config.psi, lam)
    phi = make_phi(config.phi)
    kernel = operators.make_kernel(space, lam, l=config.params.l)
    ctx = _Context(space=space, lam=lam, profile=profile, psi=psi, phi=phi,
                   kernel=kernel, params=config.params, seed=seed,
                   gen_name=generator_name(config.generator), budgets=config.budgets)
    rows = []
    check_seconds: dict = {}
    tracebacks: dict = {}
    for name in config.checks:
        cpu = time.process_time()
        try:
            rows.append(CHECKS[name](ctx))
        except Exception as exc:  # surfaced as a failed row, not a crash
            rows.append(_row(ctx, name, None, "fail",
                             witness={"error": repr(exc), "type": type(exc).__name__}))
            tracebacks[name] = traceback.format_exc()
        check_seconds[name] = check_seconds.get(name, 0.0) + time.process_time() - cpu
    elapsed = time.perf_counter() - start
    cfg_echo = {
        "generator": config.generator,
        "checks": config.checks,
        "seed": seed,
        "params": asdict(config.params),
        "psi": config.psi,
        "phi": config.phi,
        "budgets": config.budgets,
    }
    return ExperimentReport(rows=rows, config=cfg_echo, runtime_seconds=elapsed,
                            check_seconds=check_seconds, tracebacks=tracebacks,
                            cache_bytes=mmspace.cache_bytes(space))


# ------------------------------------------------------------------------------
# Report emission
# ------------------------------------------------------------------------------
CSV_COLUMNS = ["check", "n", "generator", "value", "lower", "upper", "witness", "pass"]


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def emit_report(report: ExperimentReport, fmt: str = "json",
                path: Optional[str] = None) -> str:
    """Serialize a report to JSON or CSV; returns the text and optionally
    writes it (files end with a single newline)."""
    if fmt == "json":
        text = json.dumps(report.to_json(), indent=2, default=_json_default) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in report.rows:
            writer.writerow([
                r.check, r.n, r.generator,
                "" if r.value is None else repr(float(r.value)),
                "" if r.lower is None else repr(float(r.lower)),
                "" if r.upper is None else repr(float(r.upper)),
                json.dumps(r.witness, default=_json_default, sort_keys=True),
                r.status,
            ])
        text = buf.getvalue()
    else:
        raise SpecError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


# ------------------------------------------------------------------------------
# Cross-refinement experiments
# ------------------------------------------------------------------------------
#: The power-law exponent that the cross-refinement experiments pin at every
#: refinement level (only the tight constant is refitted per space).
PINNED_KAPPA = 0.8


def _envelope_hits(rate: float, rep: spaces.JNReport) -> int:
    """How many levels of ``rep`` lie under 2 * exp(-rate * t) * mu(tau B) * (1 + 1e-12)."""
    envelope = 2.0 * np.exp(-rate * rep.t_values) * rep.mu_tau_ball
    return int(np.sum(rep.distribution <= envelope * (1.0 + 1e-12)))


def jn_envelope_experiment(generator_small: dict, generator_large: dict,
                           count: int = 20, seed: int = 7) -> dict:
    """Fit exponential envelope rates on the coarse space and measure how often
    the envelope dominates the re-measured distribution on the fine space, on
    the ball B(middle of the cube, 0.25) enlarged by tau = 2."""
    results = {"functions": 0, "dominated": 0, "total": 0}
    spc_small = generate_space(generator_small)
    spc_large = generate_space(generator_large)
    for spc in (spc_small, spc_large):
        if spc.coords is None:
            raise SpecError("the envelope experiment needs coordinate-backed spaces")
    lam_s = mmspace.fit_power_lambda(spc_small, PINNED_KAPPA)
    lam_l = mmspace.fit_power_lambda(spc_large, PINNED_KAPPA)
    psi = spaces.constant_psi()
    fs_small = generate_functions(spc_small, "psi_adapted", count, seed, lam=lam_s, psi=psi)
    fs_large = generate_functions(spc_large, "psi_adapted", count, seed, lam=lam_l, psi=psi)
    ball_small = Ball(_resolve_center(spc_small, 0.5), 0.25)
    ball_large = Ball(_resolve_center(spc_large, 0.5), 0.25)
    rates = []
    for f_s, f_l in zip(fs_small, fs_large):
        rep_s = spaces.jn_distribution(spc_small, f_s, psi, ball_small, 2.0)
        rep_l = spaces.jn_distribution(spc_large, f_l, psi, ball_large, 2.0)
        results["dominated"] += _envelope_hits(rep_s.rate, rep_l)
        results["total"] += int(rep_l.t_values.size)
        results["functions"] += 1
        rates.append(rep_s.rate)
    results["fraction"] = results["dominated"] / max(results["total"], 1)
    results["rates"] = rates
    return results


def constant_battery(generator: dict, count: int = 100, seed: int = 7,
                     kappa: float = PINNED_KAPPA) -> dict:
    """All refinement-stability constants for one generator, as a flat dict.

    :func:`operator_norm_ratios` and :func:`spaces.function_constants` give
    the operator ratios, norm bands and mean jumps, and the sharp and
    embedding ratios come from the function loops of those rows.  All use the
    default ``OperatorParams``, 5000 coefficient triples and 2000 sampled
    pairs.  The dominating-function exponent is pinned (only its tight
    constant is refitted per space) so that every refinement level runs the
    same power-law family; with a per-scale exponent fit the potential
    operator's constants inherit the drift of the exponent itself.
    """
    params = OperatorParams()
    space = generate_space(generator)
    lam = mmspace.fit_power_lambda(space, kappa)
    profile = mmspace.make_profile(space, lam)
    psi = spaces.constant_psi()
    phi = make_phi(None)
    kernel = operators.make_kernel(space, lam, l=params.l)

    out: dict = {}
    rep = geometry.check_coefficient_inequalities(space, lam, (2.0, 6.0), 5000, seed)
    out["coeff_difference"] = rep.details["difference_constant"]
    out["coeff_cross_ratio_max"] = rep.details["cross_step_ratio_max"]
    out["coeff_cross_ratio_min"] = rep.details["cross_step_ratio_min"]
    out["doubling_coeff_max"] = geometry.check_doubling_coefficient_bound(
        space, lam, profile, 6.0).value

    fs = generate_functions(space, "random_bounded", count, seed)
    mz = generate_functions(space, "mean_zero_random", count, seed)
    b = generate_functions(space, "random_bounded", 1, seed + 104729)[0]
    ratios = operator_norm_ratios(space, lam, profile, psi, phi, kernel, params, fs, mz, b, seed=seed)
    del ratios["b_norm"]  # an input of the ratios, not a constant of the battery

    constants = spaces.function_constants(space, lam, psi, fs, 2000, seed)
    out.update({f"mean_jump_{key}": value for key, value in constants["mean_jump_max"].items()})
    bands = constants["equivalence"].details["bands"]
    for name, key in (("tau", "tau2_gamma1_vs_tau6_gamma1"), ("gamma", "tau2_gamma1_vs_tau2_gamma2")):
        out[f"norm_band_{name}_min"], out[f"norm_band_{name}_max"] = bands.get(key, (math.inf, -math.inf))
    for name, band in constants["p_oscillation"].items():
        out[f"p_osc_band_{name}_min"], out[f"p_osc_band_{name}_max"] = band
    out["sharp_commutator_ratio"] = _sharp_ratio(space, lam, profile, kernel, psi, b, fs, params, 2000, seed)
    out["maximal_embedding_ratio"] = _embedding_reports(space, phi, fs, params)[1]
    out.update(ratios)
    return out


def stability_experiment(generator_small: dict, generator_large: dict,
                         count: int = 100, seed: int = 7) -> dict:
    """Constants at two refinement levels plus their max/min drift ratio."""
    small = constant_battery(generator_small, count, seed)
    large = constant_battery(generator_large, count, seed)
    out = {}
    for key in small:
        a, bval = small[key], large[key]
        if a is None or bval is None:
            ratio = math.inf
        elif min(a, bval) <= 0:
            ratio = math.inf if max(a, bval) > 0 else 1.0
        else:
            ratio = max(a, bval) / min(a, bval)
        out[key] = {"small": a, "large": bval, "drift": ratio}
    return out
