"""Space and function generators, experiment orchestration, report emission.

Functions are generated as samples of fixed continuous random fields (seeded
trigonometric polynomials evaluated at the point coordinates), so the same
(seed, index) pair produces discretizations of one underlying function at
every refinement level.  That is what makes cross-refinement constant
stability a meaningful experiment rather than a comparison of unrelated
random vectors.
"""
from __future__ import annotations

import contextlib
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
from .errors import InvalidParams, SpecError
from .geometry import Ball
from .mmspace import DominatingFunction, GeometryProfile, PointCloudSpace
from .operators import KernelSpec, OperatorParams
from .report import CheckReport
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
    axis = np.zeros(1) if n == 1 else np.linspace(0.0, 1.0, n)
    return np.stack([m.ravel() for m in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)


def _number(value, name: str, low: float = -math.inf, integer: bool = False):
    """``value`` if it is a finite number of at least ``low``, and an integer
    when ``integer`` is set (otherwise it is returned as a float); anything
    else, bools included, raises :class:`SpecError`."""
    if (isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
            and low <= value < math.inf):
        return value if integer else float(value)
    bound = "" if low == -math.inf else f" >= {low:g}"
    raise SpecError(f"{name} must be {'an integer' if integer else 'a finite number'}{bound}, got {value!r}")


def _grid_size(spec: dict) -> tuple:
    """A grid generator's dimension ``d`` and points per axis ``n`` (1 and 64 when absent)."""
    return (_number(spec.get("d", 1), "grid d", 1, integer=True),
            _number(spec.get("n", 64), "grid n", 1, integer=True))


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
        key = next((k for k in ("points", "distances") if k in spec), None)
        if key is None or "weights" not in spec:
            raise SpecError("atoms generator needs 'points' or 'distances', and 'weights'")
        return mmspace.build_space(weights=spec["weights"], **{key: spec[key]})
    if kind != "grid":
        raise SpecError(f"unknown generator kind {kind!r}")
    d, n = _grid_size(spec)
    pts = _grid_points(d, n)
    total = pts.shape[0]
    wspec = spec.get("weights", "lebesgue")
    if wspec == "lebesgue":
        weights = np.full(total, float(n) ** (-d))
    elif isinstance(wspec, dict) and "power" in wspec:
        raw = (np.linalg.norm(pts, axis=1) + 1.0 / n) ** _number(wspec["power"], "grid weights power")
        weights = raw / raw.sum()
    elif isinstance(wspec, dict) and "random" in wspec:
        rng = np.random.default_rng(_number(wspec["random"], "grid weights random", 0, integer=True))
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


def generate_functions(space: PointCloudSpace, family: str, count: int, seed: int = 0) -> list:
    """Generate ``count`` functions from a named family, deterministically in
    the seed.

    Families: ``random_bounded`` (random trigonometric fields) and
    ``mean_zero_random`` (the same, projected to exact weighted mean zero).
    No family is normalized by a norm: a sampled supremum belongs to the
    caller's pair budget and seed (see :meth:`_Context.campanato`).
    """
    if family not in ("random_bounded", "mean_zero_random"):
        raise SpecError(f"unknown function family {family!r}")
    out = []
    for i in range(count):
        if space.coords is not None:
            f = _random_field(seed, i)(space.coords)
        else:
            rng = np.random.default_rng([int(seed), i])
            f = rng.uniform(-1.0, 1.0, size=space.n)
        if family == "mean_zero_random":
            f = f - float(np.sum(f * space.weights) / space.total_measure)
        out.append(f)
    return out


def lp_norm(space: PointCloudSpace, f: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(np.asarray(f)) ** p * space.weights) ** (1.0 / p))


# ------------------------------------------------------------------------------
# Chain generation
# ------------------------------------------------------------------------------
def load_chains(path: str, n: int) -> list:
    """Chain file: a JSON list of [center, base_radius, [exponents...]] triples
    (or objects with those keys), each center a point index below ``n``."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    chains = []
    try:
        for i, item in enumerate(raw):
            if isinstance(item, dict):
                item = item["center"], item["base_radius"], item["exponents"]
            center, base, exps = item
            name = f"chain {i} {raw[i]!r}"
            if not 0 <= _number(center, f"{name} center", integer=True) < n:
                raise SpecError(f"{name} has center {center!r}, outside the points 0..{n - 1}")
            chains.append((center, _number(base, f"{name} base radius"),
                           [_number(e, f"{name} exponent", integer=True) for e in exps]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError("chain file must be a list of [center, base_radius, [exponents...]] "
                        f"or objects with those keys ({type(exc).__name__}: {exc})") from exc
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
    order from one boolean array.
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
        # qualifies[b, k, g]: the first lengths[k] - 1 links of (base b, gap g) all qualify
        qualifies = np.logical_and.accumulate(above, axis=2)[:, :, [length - 2 for length in lengths]]
        for b, k, g in np.argwhere(qualifies.transpose(0, 2, 1)).tolist():
            chains.append((c, bases[b], [i * gaps[g] for i in range(lengths[k])]))
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
        return spaces.lambda_power_psi(lam, _number(config.get("alpha", 0.5), "psi alpha"))
    if fam == "radius_power":
        return spaces.radius_power_psi(_number(config.get("exponent", 0.25), "psi exponent"))
    raise SpecError(f"unknown psi family {fam!r}")


def make_phi(config: Optional[dict]) -> GrowthFunctionPhi:
    config = config or {"family": "power", "a": 1.0, "delta": 0.5}
    fam = config.get("family", "power")
    delta = _number(config.get("delta", 0.5), "phi delta")
    if fam == "power":
        return spaces.power_phi(_number(config.get("a", 1.0), "phi a"), delta)
    if fam == "shifted_power":
        return spaces.shifted_power_phi(_number(config.get("a", 1.0), "phi a"), delta)
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
        if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
            raise SpecError(f"checks must be a list of check names, got {checks!r}")
        unknown = [c for c in checks if c not in CHECKS]
        if unknown:
            raise SpecError(f"unknown checks: {unknown}")
        params_raw = raw.get("params", {})
        try:
            params = OperatorParams(**params_raw)
        except (TypeError, InvalidParams) as exc:
            raise SpecError(f"bad operator params: {exc}") from exc
        for key in ("psi", "phi"):
            if not isinstance(raw.get(key, {}), (dict, type(None))):
                raise SpecError(f"{key} must be an object, got {raw[key]!r}")
        if not isinstance(raw.get("output_path"), (str, type(None))):
            raise SpecError(f"output_path must be a string, got {raw['output_path']!r}")
        budgets = raw.get("budgets", {})
        if not isinstance(budgets, dict) or any(
                k not in BUDGETS or type(v) is not int or v < 0 for k, v in budgets.items()):
            raise SpecError(f"budgets must map names in {sorted(BUDGETS)} to integers >= 0, got {budgets!r}")
        cfg = ExperimentConfig(
            generator=raw["generator"],
            checks=list(checks),
            seed=_number(raw.get("seed", 7), "seed", 0, integer=True),
            params=params,
            psi=raw.get("psi"),
            phi=raw.get("phi"),
            budgets=dict(budgets),
            output_path=raw.get("output_path"),
            max_n=_number(raw.get("max_n", DEFAULT_MAX_N), "max_n", 1, integer=True),
        )
        spec, n = cfg.generator, 2
        if spec.get("kind") == "grid":
            d, n = _grid_size(spec)
            n = n ** d
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
    """What the experiment rows, :func:`constant_battery` and
    :func:`jn_envelope_experiment` read of one generated space; the profile,
    the kernel and the shared constants pass are built on first read."""

    space: PointCloudSpace
    lam: DominatingFunction
    psi: RegularityFunctionPsi
    phi: GrowthFunctionPhi
    params: OperatorParams
    seed: int
    gen_name: str
    budgets: dict

    @classmethod
    def build(cls, generator: dict, params: OperatorParams, seed: int, budgets: dict,
              psi: Optional[dict] = None, phi: Optional[dict] = None, kappa="auto") -> "_Context":
        """Generate the space, fit lambda with exponent ``kappa``, and make psi and phi from their configs."""
        space = generate_space(generator)
        lam = mmspace.fit_power_lambda(space, kappa)
        return cls(space, lam, make_psi(psi, lam), make_phi(phi), params, seed,
                   generator_name(generator), budgets)

    @functools.cached_property
    def profile(self) -> GeometryProfile:
        return mmspace.make_profile(self.space, self.lam)

    @functools.cached_property
    def kernel(self) -> KernelSpec:
        return operators.make_kernel(self.space, self.lam, l=self.params.l)

    def budget(self, key: str) -> int:
        return int(self.budgets.get(key, BUDGETS[key]))

    def functions(self, count: int, family: str = "random_bounded"):
        return generate_functions(self.space, family, count, self.seed)

    def campanato(self, f) -> float:
        """The tau = 2, gamma = 1 Campanato norm of f under psi, the pairs budget and the seed."""
        return spaces.campanato_norm(self.space, self.lam, f, self.psi,
                                     pair_budget=self.budget("pairs"), seed=self.seed).norm

    @functools.cached_property
    def constants(self) -> dict:
        """The pass of the norm-band and mean-jump rows, paid by the first to run."""
        return spaces.function_constants(self.space, self.lam, self.psi,
                                         self.functions(self.budget("functions")),
                                         self.budget("pairs"), self.seed)


def _row(ctx: _Context, report: CheckReport, lower=None, upper=None, witness=None) -> Row:
    """The experiment row of a check's report: "fail" exactly when the report
    failed (``passed is False``); its witness unless the caller passes another."""
    return Row(check=report.check, n=ctx.space.n, generator=ctx.gen_name,
               value=None if report.value is None else float(report.value),
               lower=lower, upper=upper, witness=report.worst_witness if witness is None else witness,
               status="fail" if report.passed is False else "pass")


def _check_weak_reverse_doubling(ctx: _Context) -> Row:
    rep = mmspace.validate_weak_reverse_doubling(ctx.lam, ctx.space, ctx.params.sigma, (2.0, 4.0))
    return _row(ctx, rep, witness={"rows": rep.details["rows"]})


def _check_geometric_doubling(ctx: _Context) -> Row:
    return _row(ctx, CheckReport("geometric_doubling", None, float(ctx.profile.N0),
                                 {"beta6": ctx.profile.beta(6.0), "nu": ctx.profile.nu}))


def _check_coefficient_inequalities(ctx: _Context) -> Row:
    rep = geometry.check_coefficient_inequalities(
        ctx.space, ctx.lam, (2.0, 6.0), ctx.budget("triples"), ctx.seed)
    d = rep.details
    return _row(ctx, rep, d["cross_step_ratio_min"], d["cross_step_ratio_max"], witness=d)


def _check_chain_bound(ctx: _Context) -> Row:
    chains = generate_chains(ctx.space, ctx.lam, 2.0, ctx.budget("chains"), ctx.seed)
    rep = geometry.check_coefficient_chain_bound(ctx.space, ctx.lam, 2.0, chains)
    return _row(ctx, rep, witness={**rep.details, "centers_searched": chains.centers_searched,
                                   "links_evaluated": chains.links_evaluated})


def _check_phi(ctx: _Context) -> Row:
    rep = spaces.validate_phi_gdec(ctx.space, ctx.phi, etas=(2.0, ctx.params.eta),
                                   pair_budget=ctx.budget("pairs"), seed=ctx.seed)
    return _row(ctx, rep, witness=rep.details)


def _check_identity_suite(ctx: _Context) -> Row:
    space, params = ctx.space, ctx.params
    devs = []
    const = np.full(space.n, 3.25)
    devs.append(ctx.campanato(const))
    devs.append(float(np.max(operators.sharp_maximal(space, ctx.lam, ctx.profile, const,
                                                     pair_budget=ctx.budget("pairs"), seed=ctx.seed))))
    f = ctx.functions(1)[0]
    g = ctx.functions(1, "mean_zero_random")[0]
    c, d = 2.5, -1.25
    base = ctx.campanato(f)
    aff = ctx.campanato(c * f + d)
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
    return _row(ctx, CheckReport("identity_suite", worst <= 1e-12, worst, {"deviations": devs}))


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
    return _row(ctx, CheckReport("hand_fixtures", worst <= 1e-12, worst,
                                 {"coefficient": coeff, "marcinkiewicz": marc, "potential": pot}))


def _check_pointwise_domination(ctx: _Context) -> Row:
    reports = [operators.check_pointwise_domination(ctx.space, ctx.lam, ctx.kernel, f, ctx.params)
               for f in ctx.functions(ctx.budget("domination_functions"))]
    return _row(ctx, CheckReport("pointwise_domination", all(r.passed for r in reports),
                                 max([-math.inf] + [r.value for r in reports])))


def _jn_envelope(fit: _Context, test: _Context, count: int, radius: float) -> dict:
    """Exponential envelope rates fitted on ``fit`` against the distributions
    re-measured on ``test``, for the first ``count`` functions divided by their
    :meth:`_Context.campanato` norm (those of norm at most 1e-13 skipped) on
    B(middle of the cube, radius) enlarged by tau = 2: how many levels lie
    under 2 * exp(-rate * t) * mu(tau B) * (1 + 1e-12), of how many."""
    def distributions(ctx):
        coords = ctx.space.coords
        ball = Ball(0 if coords is None else int(np.argmin(np.linalg.norm(coords - 0.5, axis=1))), radius)
        fs = ctx.functions(count)
        return [spaces.jn_distribution(ctx.space, f / norm, ctx.psi, ball, 2.0)
                for f, norm in zip(fs, map(ctx.campanato, fs)) if norm > 1e-13]

    fitted = distributions(fit)
    matched = list(zip(fitted, fitted if test is fit else distributions(test)))
    dominated = sum(int(np.sum(t.distribution <= 2.0 * np.exp(-f.rate * t.t_values)
                               * t.mu_tau_ball * (1.0 + 1e-12))) for f, t in matched)
    total = sum(int(t.t_values.size) for _, t in matched)
    return {"functions": len(matched), "dominated": dominated, "total": total,
            "fraction": dominated / max(total, 1), "rates": [f.rate for f, _ in matched]}


def _check_jn_envelope(ctx: _Context) -> Row:
    res = _jn_envelope(ctx, ctx, ctx.budget("jn_functions"), max(0.25, ctx.space.diameter / 4.0))
    return _row(ctx, CheckReport("jn_envelope", None, res["fraction"],
                                 {"rates": res["rates"], "points": res["total"]}))


def _check_mean_jumps(ctx: _Context) -> Row:
    rep = ctx.constants["mean_jump"]
    return _row(ctx, rep, witness=rep.details)


def _check_equivalence(ctx: _Context) -> Row:
    rep = ctx.constants["equivalence"]
    lower, upper = next(iter(rep.details["bands"].values()), (None, None))
    return _row(ctx, rep, lower, upper, witness=rep.details)


def _check_p_oscillation_bands(ctx: _Context) -> Row:
    bands = ctx.constants["p_oscillation"]
    return _row(ctx, CheckReport("p_oscillation_bands", None, bands["p2"][1], bands), *bands["p2"])


def _check_operator_norm_ratios(ctx: _Context) -> Row:
    fs = ctx.functions(ctx.budget("functions"))
    mz = ctx.functions(ctx.budget("functions"), "mean_zero_random")
    ratios = operator_norm_ratios(ctx, fs, mz, ctx.functions(1)[0])
    return _row(ctx, CheckReport("operator_norm_ratios", None,
                                 ratios["marcinkiewicz_morrey_ratio"], ratios))


def _sharp_ratio(ctx: _Context, b, fs) -> float:
    """The largest sharp-maximal commutator ratio against the symbol b over fs, floored at 0."""
    return max([0.0] + [operators.check_sharp_maximal_estimate(
        ctx.space, ctx.lam, ctx.profile, ctx.kernel, ctx.psi, b, f, ctx.params,
        pair_budget=ctx.budget("pairs"), seed=ctx.seed).value for f in fs])


def _embedding_reports(ctx: _Context, fs) -> tuple:
    """``c10``, the largest ratio (or 0) and per f the maximal-Morrey estimate
    under psi = phi**(1/q - 1/p) of f / ||f|| at eta = tau (None if <= 1e-13)."""
    space, phi, params = ctx.space, ctx.phi, ctx.params
    psi = spaces.phi_compatible_psi(phi, params.p, params.q)
    c10 = operators.maximal_embedding_constant(space, psi, phi, params.p, params.q)
    norms = [spaces.morrey_norm(space, f, params.p, phi, eta=params.tau) for f in fs]
    reports = [operators.check_maximal_morrey_pointwise(space, psi, phi, np.asarray(f) / norm,
                                                        params, c10=c10) if norm > 1e-13 else None
               for f, norm in zip(fs, norms)]
    return c10, max([0.0] + [r.value for r in reports if r is not None]), reports


def _check_sharp_estimate(ctx: _Context) -> Row:
    return _row(ctx, CheckReport("sharp_maximal_estimate", None, _sharp_ratio(
        ctx, ctx.functions(1)[0], ctx.functions(ctx.budget("sharp_functions")))))


def _check_maximal_embedding(ctx: _Context) -> Row:
    fs = ctx.functions(2 * ctx.budget("embedding_functions"))
    c10, cal, reports = _embedding_reports(ctx, fs)
    passed = all(r is None or r.passed for r in reports)
    return _row(ctx, CheckReport("maximal_morrey_pointwise", passed, cal, {"c10": c10}))


def operator_norm_ratios(ctx: _Context, fs, mean_zero_fs, b) -> dict:
    """Suprema over a function family of the operator norm ratios used in the
    refinement-stability experiments, under the context's pairs budget and seed.

    The Morrey ratios skip functions of Morrey norm at most 1e-13, the Lp
    ratios functions of Lp norm at most 1e-13.
    """
    space, lam, profile, kernel = ctx.space, ctx.lam, ctx.profile, ctx.kernel
    phi, params, pair_budget, seed = ctx.phi, ctx.params, ctx.budget("pairs"), ctx.seed
    p, q, eta = params.p, params.q, params.eta
    pot = 0.0
    marc = 0.0
    comm = 0.0
    maximal = 0.0
    doubling = 0.0
    b_norm = ctx.campanato(b)
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


#: Each check's experiment row, ``_row`` of the check's report.
CHECKS: dict = {
    "upper_doubling": lambda ctx: _row(ctx, mmspace.validate_upper_doubling(ctx.space, ctx.lam)),
    "lambda_comparability": lambda ctx: _row(ctx, mmspace.validate_lambda_comparability(ctx.space, ctx.lam)),
    "weak_reverse_doubling": _check_weak_reverse_doubling,
    "geometric_doubling": _check_geometric_doubling,
    "coefficient_inequalities": _check_coefficient_inequalities,
    "coefficient_chain_bound": _check_chain_bound,
    "doubling_coefficient_bound": lambda ctx: _row(ctx, geometry.check_doubling_coefficient_bound(
        ctx.space, ctx.lam, ctx.profile, 6.0)),
    "weak_doubling_index": lambda ctx: _row(ctx, geometry.validate_weak_doubling(
        ctx.space, ctx.lam, ctx.profile, 2.0)),
    "psi_regularity": lambda ctx: _row(ctx, spaces.validate_psi(ctx.space, ctx.psi)),
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
    seed = os.environ.get(SEED_ENV_VAR, config.seed)
    with contextlib.suppress(ValueError):  # _number names text that is not an integer
        seed = int(seed)
    seed = _number(seed, SEED_ENV_VAR, 0, integer=True)
    ctx = _Context.build(config.generator, config.params, seed, config.budgets, config.psi, config.phi)
    rows = []
    check_seconds: dict = {}
    tracebacks: dict = {}
    for name in config.checks:
        cpu = time.process_time()
        try:
            rows.append(CHECKS[name](ctx))
        except Exception as exc:  # surfaced as a failed row, not a crash
            rows.append(_row(ctx, CheckReport(name, False, worst_witness={"error": repr(exc),
                                                                          "type": type(exc).__name__})))
            tracebacks[name] = traceback.format_exc()
        check_seconds[name] = check_seconds.get(name, 0.0) + time.process_time() - cpu
    elapsed = time.perf_counter() - start
    cfg_echo = {"generator": config.generator, "checks": config.checks, "seed": ctx.seed,
                "params": asdict(config.params), "psi": config.psi, "phi": config.phi,
                "budgets": config.budgets}
    return ExperimentReport(rows=rows, config=cfg_echo, runtime_seconds=elapsed,
                            check_seconds=check_seconds, tracebacks=tracebacks,
                            cache_bytes=mmspace.cache_bytes(ctx.space))


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


def jn_envelope_experiment(generator_small: dict, generator_large: dict,
                           count: int = 20, seed: int = 7) -> dict:
    """Fit exponential envelope rates on the coarse space and measure how often
    the envelope dominates the re-measured distribution on the fine space, on
    the ball B(middle of the cube, 0.25) enlarged by tau = 2, under constant psi."""
    small, large = (_Context.build(generator, OperatorParams(), seed, {}, kappa=PINNED_KAPPA)
                    for generator in (generator_small, generator_large))
    if small.space.coords is None or large.space.coords is None:
        raise SpecError("the envelope experiment needs coordinate-backed spaces")
    return _jn_envelope(small, large, count, 0.25)


def constant_battery(generator: dict, count: int = 100, seed: int = 7,
                     kappa: float = PINNED_KAPPA) -> dict:
    """All refinement-stability constants for one generator, as a flat dict.

    :func:`operator_norm_ratios` and :func:`spaces.function_constants` give
    the operator ratios, norm bands and mean jumps, and the sharp and
    embedding ratios come from the function loops of those rows.  All read
    one :class:`_Context` with the default ``OperatorParams``, constant psi,
    5000 coefficient triples and 2000 sampled pairs, and the coefficient rows
    and the constants pass are the experiment's own.  The dominating-function
    exponent is pinned (only its tight constant is refitted per space) so that
    every refinement level runs the same power-law family; with a per-scale
    exponent fit the potential operator's constants inherit the drift of the
    exponent itself.
    """
    ctx = _Context.build(generator, OperatorParams(), seed,
                         {"triples": 5000, "pairs": 2000, "functions": count}, kappa=kappa)
    d = geometry.check_coefficient_inequalities(
        ctx.space, ctx.lam, (2.0, 6.0), ctx.budget("triples"), ctx.seed).details
    out = {"coeff_difference": d["difference_constant"],
           "coeff_cross_ratio_max": d["cross_step_ratio_max"],
           "coeff_cross_ratio_min": d["cross_step_ratio_min"],
           "doubling_coeff_max": geometry.check_doubling_coefficient_bound(
               ctx.space, ctx.lam, ctx.profile, 6.0).value}

    fs = ctx.functions(count)
    b = generate_functions(ctx.space, "random_bounded", 1, seed + 104729)[0]  # the battery's own symbol
    ratios = operator_norm_ratios(ctx, fs, ctx.functions(count, "mean_zero_random"), b)
    del ratios["b_norm"]  # an input of the ratios, not a constant of the battery

    constants = ctx.constants
    out.update({f"mean_jump_{key}": value for key, value in constants["mean_jump_max"].items()})
    bands = constants["equivalence"].details["bands"]
    for name, key in (("tau", "tau2_gamma1_vs_tau6_gamma1"), ("gamma", "tau2_gamma1_vs_tau2_gamma2")):
        out[f"norm_band_{name}_min"], out[f"norm_band_{name}_max"] = bands.get(key, (math.inf, -math.inf))
    for name, band in constants["p_oscillation"].items():
        out[f"p_osc_band_{name}_min"], out[f"p_osc_band_{name}_max"] = band
    out["sharp_commutator_ratio"] = _sharp_ratio(ctx, b, fs)
    out["maximal_embedding_ratio"] = _embedding_reports(ctx, fs)[1]
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
