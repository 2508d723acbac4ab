"""One-command property harness: every testable inequality at desk scale.

Each registered check draws seeded inputs and returns a worst-case margin
with its details; the registry gives it its name, statement, default
sample count and tolerance.  One runner turns that into the check's
record, so margins follow one convention: pass == (worst_margin <=
tolerance), and a violated inequality or an out-of-range slope shows up as
a positive margin.  A check whose solve fails (``ConvergenceError`` or
``DomainError``) gets a FAIL record with margin +inf and the error text in
its details, and the suite carries on with the other checks.

Exactly-discrete inequalities (rearrangement pairing, the pairwise
comparison identity, homogeneity) run at 1e-12; statements with
discretization error (symmetrization energy decrease, scaling laws) run at
5% together with a refinement-trend assertion.

Checks run one after another in registration order, whatever worker count
the config asks for; every check derives its random stream from (seed,
registration index), so the emitted bytes are identical for any worker
count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np
import numpy.random

from . import eigen as eig
from . import energy as en
from . import rearrange as rr
from .capacity import capacity_ball_scaling, hardy_norm_estimate
from .descent import is_whole
from .errors import ConfigError, ConvergenceError, DomainError
from .grid import (Ball, FracParams, GaussianBump, GridFunction, Indicator,
                   PowerLaw, build_grid, build_kernel_table, sample)
from .io import result_json_bytes
from .runtime import ordered_map

# the failures a check may meet on valid input; any other exception is a bug
_SOLVE_ERRORS = (ConvergenceError, DomainError)


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 42
    dim: int = 1
    cells_per_dim: int = 64
    half_width: float = 1.0
    ext_radius: float = 4.0
    s: float = 0.4
    p: float = 2.0
    samples: dict = field(default_factory=dict)      # per-check overrides
    tolerances: dict = field(default_factory=dict)   # per-check overrides
    threads: int | None = None


@dataclass(frozen=True)
class CheckRecord:
    name: str
    statement: str
    samples: int
    worst_margin: float
    tolerance: float
    passed: bool
    details: dict


@dataclass(frozen=True)
class PropertyReport:
    seed: int
    grid_spec: dict
    records: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "grid": self.grid_spec,
            "all_passed": self.all_passed,
            "checks": [asdict(r) for r in self.records],
        }

    def to_json_bytes(self) -> bytes:
        return result_json_bytes(self.to_payload())

    def to_text(self) -> str:
        lines = [f"{'check':<28}{'samples':>8}  {'worst margin':>14}  "
                 f"{'tolerance':>10}  result"]
        for r in self.records:
            flag = "pass" if r.passed else "FAIL"
            lines.append(f"{r.name:<28}{r.samples:>8}  {r.worst_margin:>14.3e}  "
                         f"{r.tolerance:>10.1e}  {flag}")
        lines.append("overall: " + ("pass" if self.all_passed else "FAIL"))
        return "\n".join(lines)


class _Context:
    """Lazy, memoized shared inputs; every entry is a pure function of the
    config.  A build that fails with a solve error is memoized too, and
    raised again to every reader."""

    def __init__(self, config: VerifyConfig):
        self.config = config
        # every eigen solve of the suite
        self.eigen_opts = eig.EigenOptions(tol=1e-8, seed=config.seed)
        self._memo: dict = {}

    def get(self, key: str, builder: Callable):
        if key not in self._memo:
            try:
                self._memo[key] = (builder(), None)
            except _SOLVE_ERRORS as err:
                self._memo[key] = (None, err)
        value, err = self._memo[key]
        if err is not None:
            raise err
        return value

    def base_kt(self):
        def build():
            g = build_grid(self.config.dim, self.config.half_width,
                           self.config.cells_per_dim)
            fp = FracParams(self.config.s, self.config.p)
            return build_kernel_table(g, fp, self.config.ext_radius)
        return self.get("base_kt", build)

    def eigen_results(self, tag: str):
        def build():
            kt = self.base_kt()
            g = kt.grid
            if tag == "flat":
                w = GridFunction(g, np.ones(g.n_cells))
            else:
                L = g.half_width
                w1 = sample(g, GaussianBump(sigma=0.35 * L))
                w2 = sample(g, Indicator(Ball((0.45 * L,) + (0.0,) * (g.dim - 1),
                                              0.25 * L), amplitude=0.2))
                w = GridFunction(g, w1.values - w2.values)
            return w, eig.eigen_sequence(w, kt, 2, self.eigen_opts)
        return self.get(f"eigen_{tag}", build)


def _smooth_bump_field(grid, rng) -> np.ndarray:
    """A sum of 1-4 Gaussian bumps.  Each bump's centre, width and amplitude
    come from one draw of uniforms mapped as lo + (hi - lo) x, which is
    what ``Generator.uniform`` computes, in the order of its serial calls."""
    L = grid.half_width
    count = int(rng.integers(1, 5))
    lo = np.array([-0.6 * L] * grid.dim + [0.08 * L, 0.2])
    hi = np.array([0.6 * L] * grid.dim + [0.3 * L, 1.0])
    draws = lo + (hi - lo) * rng.random((count, grid.dim + 2))
    vals = np.zeros(grid.n_cells)
    for *center, width, amp in draws.tolist():
        d2 = ((grid.centers - center) ** 2).sum(axis=1)
        vals += amp * np.exp(-d2 / (2.0 * width**2))
    return vals


def _rough_field(grid, rng) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=grid.n_cells)


# ---------------------------------------------------------------------------
# individual checks: check(ctx, n, rng) -> (margin, details)
# ---------------------------------------------------------------------------

def _chk_homogeneity(ctx, n, rng):
    kt = ctx.base_kt()
    g = kt.grid
    p = kt.params.p
    worst = 0.0
    for _ in range(n):
        u = GridFunction(g, _smooth_bump_field(g, rng) + 0.2 * _rough_field(g, rng))
        # t = +-2^k scales every operand exactly, so the defect is the
        # inequality's own and not the roundoff of t u_i - t u_j, which |d|^p
        # multiplies by p where u_i is close to u_j
        t = 2.0 ** int(rng.integers(-3, 4)) * float(rng.choice([-1.0, 1.0]))
        base = en.seminorm_p(u, kt).value
        scaled = en.seminorm_p(GridFunction(g, t * u.values), kt).value
        worst = max(worst, abs(scaled - abs(t) ** p * base) / max(base, 1e-300))
    return worst, {}


def _chk_hardy_littlewood(ctx, n, rng):
    kt = ctx.base_kt()
    g = kt.grid
    m = g.cell_measure
    worst = -math.inf
    for _ in range(n):
        f = np.abs(_rough_field(g, rng))
        h = np.abs(_smooth_bump_field(g, rng))
        lhs = float((f * h).sum() * m)
        fs = np.sort(f)[::-1]
        hs = np.sort(h)[::-1]
        rhs = float((fs * hs).sum() * m)
        worst = max(worst, (lhs - rhs) / max(abs(rhs), 1e-300))
    return worst, {}


# samples per stacked comparison pass; 500-sample stacks raise the suite's
# peak RSS by 0.5 MB
_PICONE_CHUNK = 32


def _chk_picone(ctx, n, rng):
    kt = ctx.base_kt()
    g = kt.grid
    p = float(rng.uniform(1.2, 3.5))
    us, vs, cs = np.empty((n, g.n_cells)), np.empty((n, g.n_cells)), np.empty(n)
    for k in range(n):
        us[k] = np.abs(_smooth_bump_field(g, rng))
        vs[k] = np.abs(_smooth_bump_field(g, rng)) + 0.05
        cs[k] = rng.uniform(0.2, 5.0)
    worst = -math.inf
    equality_worst = 0.0
    for a in range(0, n, _PICONE_CHUNK):
        u, v, c = us[a:a + _PICONE_CHUNK], vs[a:a + _PICONE_CHUNK], cs[a:a + _PICONE_CHUNK]
        worst = max(worst, -float(eig._picone_minima(u, v, p).min()))
        defects = np.abs(eig._picone_minima(c[:, None] * v, v, p).min(axis=1))
        for row, c_row, defect in zip(v, c.tolist(), defects.tolist()):
            # on u = c v both parts of a pair's term are c^p |v_i - v_j|^p, up
            # to (c ptp(v))^p: the defect left by their cancellation is
            # measured against that scale, as roundoff in them is
            scale = max((c_row * float(np.ptp(row))) ** p, 1e-300)
            equality_worst = max(equality_worst, defect / scale)
    return max(worst, equality_worst), {
        "worst_negative": worst, "worst_relative_equality_defect": equality_worst, "p": p}


def _chk_gateaux_fd(ctx, n, rng):
    cfg = ctx.config
    g = build_grid(cfg.dim, cfg.half_width, max(16, cfg.cells_per_dim // 4))
    kt = build_kernel_table(g, FracParams(0.3, 3.0), cfg.ext_radius)
    steps = np.array([1e-2, 1e-3, 1e-4])
    worst = 0.0
    slopes = []
    for _ in range(n):
        u = GridFunction(g, _smooth_bump_field(g, rng) + 0.3 * _rough_field(g, rng))
        v = GridFunction(g, _smooth_bump_field(g, rng) + 0.3 * _rough_field(g, rng))
        ga = en.gateaux(u, v, kt)
        errs = []
        for t in steps:
            ep = en.seminorm_p(GridFunction(g, u.values + t * v.values), kt).value
            em = en.seminorm_p(GridFunction(g, u.values - t * v.values), kt).value
            errs.append(abs((ep - em) / (2 * t * kt.params.p) - ga))
        slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
        slopes.append(slope)
        worst = max(worst, abs(slope - 2.0))
    return worst, {"slopes_minmax": [min(slopes), max(slopes)]}


def _chk_polya_szego(ctx, n, rng):
    cfg = ctx.config

    def margin_on(dim, cells, count):
        g = build_grid(dim, cfg.half_width, cells)
        kt = build_kernel_table(g, FracParams(cfg.s, cfg.p), cfg.ext_radius)
        worst = -math.inf
        for _ in range(count):
            u = GridFunction(g, np.abs(_smooth_bump_field(g, rng)))
            base = en.seminorm_p(u, kt).value
            sym = en.seminorm_p(rr.schwarz_symmetrization(u), kt).value
            worst = max(worst, (sym - base) / max(base, 1e-300))
        return worst

    # on the line the alternating layout decreases the energy exactly; the
    # discretization error of the radial layout shows up in dim 2
    line = margin_on(1, max(64, cfg.cells_per_dim), n)
    coarse = margin_on(2, 16, max(4, n // 4))
    fine = margin_on(2, 32, max(4, n // 4))
    trend_ok = fine <= max(coarse, 0.0) + 0.005
    # a margin that grows under refinement fails at any tolerance
    worst = max(line, coarse) if trend_ok else math.inf
    return worst, {"line_margin": line, "plane_margin": coarse,
                   "plane_refined_margin": fine, "trend_ok": trend_ok}


def _chk_capacity_scaling(ctx, n, rng):
    fits = {}
    worst = 0.0
    for dim, s, cells in ((1, 0.4, 32), (2, 0.5, 10)):
        fp = FracParams(s, 2.0)
        radii = [0.25, 0.5, 1.0, 2.0][: 4 if dim == 1 else 3]
        fit = capacity_ball_scaling(radii, fp, dim, cells_per_dim=cells)
        expected = dim - s * 2.0
        fits[f"dim{dim}"] = {"slope": fit.slope, "expected": expected}
        worst = max(worst, abs(fit.slope - expected))
    return worst, fits


def _chk_ds_scaling(ctx, n, rng):
    cfg = ctx.config
    g1 = build_grid(1, 1.0, max(32, cfg.cells_per_dim // 2))
    fp = FracParams(cfg.s, cfg.p)
    kt1 = build_kernel_table(g1, fp, 4.0)
    worst = 0.0
    for _ in range(n):
        vals = _smooth_bump_field(g1, rng)
        base = en.nonlocal_gradient(GridFunction(g1, vals), kt1).values ** kt1.params.p
        for r in (2.0, 4.0):
            g2 = build_grid(1, r * 1.0, g1.cells_per_dim)
            kt2 = build_kernel_table(g2, fp, r * 4.0)
            dil = en.nonlocal_gradient(GridFunction(g2, vals), kt2).values ** kt1.params.p
            rel = np.max(np.abs(dil - base * r ** (-fp.sp)) / np.maximum(base, 1e-300))
            worst = max(worst, float(rel))
    return worst, {}


def _chk_ds_decay(ctx, n, rng):
    cfg = ctx.config
    g = build_grid(1, 4.0, 128)
    fp = FracParams(cfg.s, cfg.p)
    kt = build_kernel_table(g, fp, 16.0)
    radii = g.radii()
    inside = radii < 1.0
    vals = np.zeros(g.n_cells)
    vals[inside] = np.exp(1.0 - 1.0 / (1.0 - radii[inside] ** 2))
    dens = en.nonlocal_gradient(GridFunction(g, vals), kt).values ** fp.p
    envelope = np.minimum(1.0, radii ** (-(g.dim + fp.sp)))
    ratio = dens / envelope
    c_inner = float(ratio[radii <= 2.0].max())
    return float(ratio.max() / c_inner - 1.0), {"fitted_constant": c_inner}


def _chk_eigen_oracle_first(ctx, n, rng):
    kt = ctx.base_kt()
    w, seq = ctx.eigen_results("flat")
    oracle = eig.oracle_levels(w, kt)[0]
    return abs(seq[0].lam / oracle - 1.0), {"lam": seq[0].lam, "oracle": oracle}


def _chk_eigen_oracle_levels(ctx, n, rng):
    kt = ctx.base_kt()
    w, _ = ctx.eigen_results("flat")
    seq = eig.eigen_sequence(w, kt, 4, ctx.eigen_opts)
    oracle = eig.oracle_levels(w, kt)[:4]
    margin = max(abs(r.lam / lam - 1.0) for r, lam in zip(seq, oracle))
    return margin, {"lams": [r.lam for r in seq], "oracle": oracle}


def _over_eigen_tags(ctx, measure):
    """Worst margin of ``measure(levels) -> (margin, detail)`` on the flat and signed levels."""
    worst, details = -math.inf, {}
    for tag in ("flat", "signed"):
        margin, details[tag] = measure(ctx.eigen_results(tag)[1])
        worst = max(worst, margin)
    return worst, details


def _chk_eigen_positivity(ctx, n, rng):
    def measure(seq):
        u = seq[0].u.values
        margin = -float(u.min()) / float(np.abs(u).max())
        return margin, {"min_over_max": -margin}

    worst, details = _over_eigen_tags(ctx, measure)
    # a minimum of exactly zero is no strict sign, even at tolerance 0
    return (math.inf if worst == 0.0 else worst), details


def _chk_eigen_sign_change(ctx, n, rng):
    def measure(seq):
        tagged = eig.sign_structure(seq[1].u)
        return (0.0 if tagged == "sign_changing" else 1.0), tagged

    return _over_eigen_tags(ctx, measure)


def _chk_eigen_gap(ctx, n, rng):
    def measure(seq):
        gap = seq[1].lam - seq[0].lam
        return 1e-6 - gap, gap

    return _over_eigen_tags(ctx, measure)


def _chk_eigen_simplicity(ctx, n, rng):
    kt = ctx.base_kt()
    w, _ = ctx.eigen_results("flat")
    rep = eig.simplicity_probe(w, kt, restarts=n, opts=ctx.eigen_opts)
    margin = max(rep.lambda_spread / 1e-6, rep.function_spread / 1e-4,
                 -rep.rayleigh_lower_gap / 1e-6)
    return margin, {"lambda_spread": rep.lambda_spread,
                    "function_spread": rep.function_spread,
                    "midpoint_energy_gap": rep.midpoint_energy_gap}


def _chk_best_constant(ctx, n, rng):
    kt = ctx.base_kt()
    g = kt.grid
    w = sample(g, PowerLaw(alpha=kt.params.sp))
    lam1 = eig.first_eigenpair(w, kt, ctx.eigen_opts).lam
    worst = -math.inf
    for _ in range(n):
        u = GridFunction(g, _smooth_bump_field(g, rng) + 0.2 * _rough_field(g, rng))
        mass = en.weighted_mass(u, w, kt)
        worst = max(worst, mass * lam1 / en.seminorm_p(u, kt).value - 1.0)
    return worst, {"lam1": lam1}


def _chk_hardy_ratio(ctx, n, rng):
    kt = ctx.base_kt()
    g = kt.grid
    w = sample(g, PowerLaw(alpha=kt.params.sp))
    norm_est = hardy_norm_estimate(w, kt).value
    worst = -math.inf
    for _ in range(n):
        u = GridFunction(g, _smooth_bump_field(g, rng) + 0.2 * _rough_field(g, rng))
        ratio = en.weighted_mass(u, w, kt) / (norm_est * en.seminorm_p(u, kt).value)
        worst = max(worst, ratio)
    return worst, {"norm_estimate": norm_est}


def _chk_lorentz_embedding(ctx, n, rng):
    kt = ctx.base_kt()
    g = kt.grid
    sp = kt.params.sp
    weights = [sample(g, PowerLaw(alpha=sp)),
               sample(g, GaussianBump(sigma=0.3 * g.half_width))][:n]
    for _ in range(n - len(weights)):
        weights.append(GridFunction(g, np.abs(_smooth_bump_field(g, rng))))
    worst = -math.inf
    ratios = []
    for w in weights:
        lz = rr.lorentz_norm(w, g.dim / sp, np.inf)
        if lz <= 0:
            continue
        ratios.append(hardy_norm_estimate(w, kt).value / lz)
        worst = max(worst, ratios[-1])
    return worst, {"ratios_minmax": [min(ratios), max(ratios)]}


def _chk_q_scale_invariance(ctx, n, rng):
    kt = ctx.base_kt()
    w, seq = ctx.eigen_results("flat")
    base_start = eig.default_start(w, kt)
    lam0 = seq[0].lam  # the first level is the solve from base_start
    worst = 0.0
    for _ in range(n):
        t = float(rng.uniform(0.05, 20.0))
        lam = eig.first_eigenpair(w, kt, ctx.eigen_opts, start=t * base_start).lam
        worst = max(worst, abs(lam / lam0 - 1.0))
    return worst, {"lam": lam0}


# (name, check, default samples, default tolerance, statement)
_REGISTRY = (
    ("homogeneity", _chk_homogeneity, 200, 1e-12, "E(t u) = |t|^p E(u)"),
    ("hardy_littlewood", _chk_hardy_littlewood, 500, 1e-12,
     "sum f g <= integral of the sorted product (Hardy-Littlewood pairing)"),
    ("picone", _chk_picone, 500, 1e-12,
     "pairwise comparison term K(u, v) >= 0 with equality on u = c v"),
    ("gateaux_fd", _chk_gateaux_fd, 20, 0.1,
     "directional derivative vs central differences: log-log slope 2"),
    ("polya_szego", _chk_polya_szego, 40, 0.05,
     "symmetric decreasing rearrangement does not increase the energy "
     "(up to discretization), improving under refinement"),
    ("capacity_scaling", _chk_capacity_scaling, 1, 0.05,
     "capacity of balls scales like radius^(dim - s p)"),
    ("ds_scaling", _chk_ds_scaling, 5, 0.01,
     "|D u_r|^p of the r-dilated field equals r^(-s p) |D u|^p"),
    ("ds_decay", _chk_ds_decay, 1, 1e-9,
     "|D u|^p of a compactly supported bump sits under "
     "C min{1, |x|^-(dim+s p)} with C fitted on |x| <= 2"),
    ("eigen_oracle_first", _chk_eigen_oracle_first, 1, 1e-6,
     "descent eigenvalue matches the dense generalized solver (p = 2)"),
    ("eigen_oracle_levels", _chk_eigen_oracle_levels, 1, 1e-4,
     "first deflated levels match the dense spectrum (p = 2)"),
    ("eigen_positivity", _chk_eigen_positivity, 1, 0.0,
     "the ground state has one strict sign after normalization"),
    ("eigen_sign_change", _chk_eigen_sign_change, 1, 0.0,
     "every level above the ground state changes sign"),
    ("eigen_gap", _chk_eigen_gap, 1, 0.0,
     "the first spectral gap is strictly positive"),
    ("eigen_simplicity", _chk_eigen_simplicity, 10, 1.0,
     "independent restarts land on one eigenvalue and one ray; energy of "
     "p-th power midpoints stays above the ground level"),
    ("best_constant", _chk_best_constant, 200, 1e-8,
     "weighted p-mass <= (1/lam1) energy for every test field "
     "(the inverse ground level is the best constant)"),
    ("hardy_ratio", _chk_hardy_ratio, 100, 10.0,
     "weighted mass / (norm estimate * energy) stays bounded: the "
     "capacitary norm controls the weighted inequality"),
    ("lorentz_embedding", _chk_lorentz_embedding, 12, 5.0,
     "the weak-Lorentz norm with first index dim/(s p) dominates the "
     "capacitary norm estimate up to a bounded constant"),
    ("q_scale_invariance", _chk_q_scale_invariance, 5, 1e-10,
     "the converged eigenvalue ignores the scale of the initial iterate"),
)

CHECK_NAMES = tuple(name for name, *_ in _REGISTRY)


def _validated(config: VerifyConfig | None) -> VerifyConfig:
    """The config (the default one for None), or a ConfigError when the
    seed is not a whole number >= 0, the thread count is neither None nor a
    whole number >= 1, an override names no registered check, a sample
    count is not a whole number >= 1 or a tolerance is not finite and >= 0."""
    config = config or VerifyConfig()
    if not is_whole(config.seed) or config.seed < 0:
        raise ConfigError(f"seed must be a whole number at least 0, got {config.seed!r}")
    if config.threads is not None and (not is_whole(config.threads) or config.threads < 1):
        raise ConfigError(f"threads must be null or a whole number at least 1, "
                          f"got {config.threads!r}")
    unknown = sorted((set(config.samples) | set(config.tolerances)) - set(CHECK_NAMES))
    if unknown:
        raise ConfigError(f"overrides name unknown checks {unknown}; "
                          f"known: {', '.join(CHECK_NAMES)}")
    for name, count in config.samples.items():
        if not is_whole(count) or count < 1:
            raise ConfigError(f"check {name!r} needs a whole number of samples, at least 1")
    for name, tol in config.tolerances.items():
        if not 0 <= float(tol) < math.inf:
            raise ConfigError(f"check {name!r}: tolerance {tol} is not finite and >= 0")
    return config


def run_check(name: str, config: VerifyConfig | None = None) -> CheckRecord:
    """Run a single named check; every check is independently runnable."""
    ctx = _Context(_validated(config))
    for idx, row in enumerate(_REGISTRY):
        if row[0] == name:
            return _run_one(ctx, idx, *row)
    raise ConfigError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")


def _run_one(ctx, idx, name, check, samples, tolerance, statement) -> CheckRecord:
    """The one place a record is built; a failed solve becomes a FAIL record."""
    cfg = ctx.config
    n = int(cfg.samples.get(name, samples))
    tol = float(cfg.tolerances.get(name, tolerance))
    rng = np.random.default_rng([cfg.seed, idx])
    try:
        margin, details = check(ctx, n, rng)
    except _SOLVE_ERRORS as err:
        margin, details = math.inf, {"error": f"{type(err).__name__}: {err}"}
    return CheckRecord(name, statement, n, margin, tol, margin <= tol, details)


def run_suite(config: VerifyConfig | None = None) -> PropertyReport:
    """Run every registered check and assemble the report.

    Identical (config, seed) pairs produce byte-identical reports for any
    worker count: random streams are keyed by registration index and the
    records are merged in registration order.
    """
    config = _validated(config)
    FracParams(config.s, config.p).validate_for_dim(config.dim)
    ctx = _Context(config)
    # solve the shared eigen results before the first check, so that no
    # check's time includes them; a failed solve is kept and fails each
    # check that reads it
    for tag in ("flat", "signed"):
        try:
            ctx.eigen_results(tag)
        except _SOLVE_ERRORS:
            pass

    def run(item):
        idx, row = item
        return _run_one(ctx, idx, *row)

    records = ordered_map(run, list(enumerate(_REGISTRY)), config.threads or 1)
    grid_spec = {key: getattr(config, key)
                 for key in ("dim", "cells_per_dim", "half_width", "ext_radius", "s", "p")}
    return PropertyReport(seed=config.seed, grid_spec=grid_spec,
                          records=tuple(records))
