"""Variational capacity, Maz'ya-type weight norms, and concentration profiles.

The capacity of a cell set F is the minimum of the nonlocal p-energy over
fields equal to 1 on F, confined to [0, 1] elsewhere, and (for relative
capacities) pinned to 0 outside a prescribed subdomain.  The problem is
convex, so spectral projected-gradient descent (``descent.spectral_descent``,
with the box clip as its projection) reaches the value to solver tolerance
from any start.

The weight norm

    sup over compact F of  (integral of |w| over F) / capacity(F)

is estimated from below by sweeping a finite candidate family: balls on a
(center, radius) lattice plus super-level sets of |w| on a quantile ladder.
Level sets are the natural extremizers of the truncation argument behind
the capacitary characterization; balls cover localized behavior.  The sweep
is a LOWER bound on the true supremum.

Concentration profiles track the estimated norm of w restricted to
shrinking balls around a point (or to the complements of growing balls),
the computable stand-ins for the local and at-infinity concentration
functions whose joint vanishing signals that the weighted p-mass is a
compact perturbation of the energy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .descent import spectral_descent
from .energy import raw_energy
from .errors import ConvergenceError, DomainError
from .grid import (Ball, FracParams, Grid, GridFunction, KernelTable,
                   build_grid, build_kernel_table)
from .runtime import ordered_map, thread_count


@dataclass(frozen=True)
class CellSet:
    """A subset of grid cells given by a boolean membership mask."""

    grid: Grid
    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != (self.grid.n_cells,):
            raise DomainError("mask length does not match the cell count")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    @property
    def measure(self) -> float:
        return self.size * self.grid.cell_measure

    @staticmethod
    def from_region(grid: Grid, region) -> "CellSet":
        return CellSet(grid, region.contains(grid.centers))

    @staticmethod
    def ball(grid: Grid, center, radius: float) -> "CellSet":
        return CellSet.from_region(grid, Ball(tuple(np.atleast_1d(center)), radius))

    @staticmethod
    def from_indices(grid: Grid, indices) -> "CellSet":
        mask = np.zeros(grid.n_cells, dtype=bool)
        mask[np.asarray(indices, dtype=int)] = True
        return CellSet(grid, mask)

    @staticmethod
    def empty(grid: Grid) -> "CellSet":
        return CellSet(grid, np.zeros(grid.n_cells, dtype=bool))


@dataclass(frozen=True)
class CapacityOptions:
    tol_factor: float = 1e-8       # stop when ||u - proj(u - dE)|| <= tol_factor * max(1, E)
    max_iter: int = 20000


@dataclass(frozen=True)
class CapacityResult:
    value: float
    minimizer: GridFunction
    iterations: int
    grad_norm: float
    degenerate: bool = False


def capacity(F: CellSet, kt: KernelTable, opts: CapacityOptions | None = None,
             domain: CellSet | None = None,
             start: np.ndarray | None = None) -> CapacityResult:
    """Minimize the p-energy over {u = 1 on F, 0 <= u <= 1, u = 0 off domain}.

    An empty F yields the degenerate zero result (flagged) rather than an
    error.  Non-convergence raises ConvergenceError carrying the last
    iterate.
    """
    opts = opts or CapacityOptions()
    grid = kt.grid
    if F.grid.n_cells != grid.n_cells:
        raise DomainError("cell set does not live on the kernel table's grid")
    if F.size == 0:
        warnings.warn("capacity target is empty; returning the degenerate zero result")
        zero = GridFunction(grid, np.zeros(grid.n_cells))
        return CapacityResult(0.0, zero, 0, 0.0, degenerate=True)

    fixed_one = F.mask
    fixed_zero = np.zeros(grid.n_cells, dtype=bool)
    if domain is not None:
        fixed_zero = ~domain.mask
        if np.any(fixed_one & fixed_zero):
            raise DomainError("capacity target must lie inside the relative domain")

    def project(vals: np.ndarray) -> np.ndarray:
        out = np.clip(vals, 0.0, 1.0)
        out[fixed_one] = 1.0
        out[fixed_zero] = 0.0
        return out

    p = kt.params.p
    grad_norm = np.inf

    # each trial's pair pass also yields its Gateaux vector, handed on as the
    # descent's aux, so the direction at an accepted point needs no pass
    def direction(u, energy, gvec):
        nonlocal grad_norm
        grad = p * gvec
        grad_norm = float(np.linalg.norm(u - project(u - grad)))
        return grad, grad_norm <= opts.tol_factor * max(1.0, energy)

    def trial(u, grad, t):
        cand = project(u - t * grad)
        energy, gvec = raw_energy(cand, kt, with_gateaux=True)
        return cand, energy, float(grad @ (cand - u)), gvec

    u = project(np.zeros(grid.n_cells) if start is None else np.asarray(start, float).copy())
    energy, gvec = raw_energy(u, kt, with_gateaux=True)
    u, energy, _gvec, status, its = spectral_descent(u, energy, gvec, direction, trial,
                                                     opts.max_iter)
    result = CapacityResult(energy, GridFunction(grid, u), its, grad_norm)
    if status == "converged":
        return result
    target = f"target {opts.tol_factor * max(1.0, energy):.3e}"
    if status == "stalled":
        message = (f"capacity solve stagnated at projected-gradient norm "
                   f"{grad_norm:.3e} ({target})")
    else:
        message = (f"capacity solve: no convergence within {opts.max_iter} iterations "
                   f"(projected-gradient norm {grad_norm:.3e}, {target})")
    raise ConvergenceError(message, result=result)


@dataclass(frozen=True)
class BallScalingFit:
    slope: float
    radii: tuple
    values: tuple


def ball_table_builder(fp: FracParams, dim: int, cells_per_dim: int = 32,
                       box_factor: float = 2.0, ext_factor: float = 2.0):
    """Builder mapping a ball radius to a proportionally scaled kernel table."""

    def build(radius: float) -> KernelTable:
        half_width = box_factor * radius
        grid = build_grid(dim, half_width, cells_per_dim)
        return build_kernel_table(grid, fp, ext_factor * 2.0 * half_width)

    return build


def capacity_ball_scaling(radii, kt_builder, fp: FracParams,
                          opts: CapacityOptions | None = None) -> BallScalingFit:
    """Capacity of origin-centered balls versus radius, as a log-log slope.

    Each radius gets its own proportionally scaled grid from ``kt_builder``,
    so the fitted slope isolates the homogeneity of the energy.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 3:
        raise DomainError("the scaling fit needs at least 3 radii")
    values = []
    for r in radii:
        kt = kt_builder(r)
        if kt.params != fp:
            raise DomainError("builder produced a table with different (s, p)")
        if 2.0 * r / kt.grid.spacing < 4.0 - 1e-9:
            raise DomainError(f"ball of radius {r} is under-resolved (< 4 cells across)")
        F = CellSet.ball(kt.grid, np.zeros(kt.grid.dim), r)
        values.append(capacity(F, kt, opts).value)
    slope = float(np.polyfit(np.log(radii), np.log(values), 1)[0])
    return BallScalingFit(slope=slope, radii=tuple(radii), values=tuple(values))


# ---------------------------------------------------------------------------
# Weight-norm estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateFamily:
    """Finite family for the norm sweep: lattice balls + super-level sets."""

    ball_radii: tuple = ()
    center_stride: int = 8         # lattice stride, in cells, for ball centers
    n_quantiles: int = 8

    @staticmethod
    def default(grid: Grid) -> "CandidateFamily":
        L = grid.half_width
        radii = tuple(L / 2**k for k in range(0, 4) if L / 2**k >= 1.5 * grid.spacing)
        stride = max(1, grid.cells_per_dim // 4)
        return CandidateFamily(ball_radii=radii or (L,), center_stride=stride)


def _family_candidates(w: GridFunction, family: CandidateFamily) -> list:
    """(label, CellSet) candidates, deterministically ordered and deduplicated."""
    grid = w.grid
    out = []
    seen = set()

    def push(label: str, cs: CellSet):
        if cs.size == 0:
            return
        key = cs.mask.tobytes()
        if key in seen:
            return
        seen.add(key)
        out.append((label, cs))

    axis_idx = np.arange(0, grid.cells_per_dim, family.center_stride)
    axis = -grid.half_width + (axis_idx + 0.5) * grid.spacing
    if grid.dim == 1:
        centers = [(x,) for x in axis]
    else:
        centers = [(x, y) for x in axis for y in axis]
    for ci, c in enumerate(centers):
        for ri, r in enumerate(family.ball_radii):
            push(f"ball[c{ci},r{ri}]", CellSet.ball(grid, c, r))

    absw = np.abs(w.values)
    positive = absw[absw > 0]
    if positive.size and family.n_quantiles > 0:
        qs = np.linspace(0.05, 0.95, family.n_quantiles)
        for qi, q in enumerate(qs):
            t = float(np.quantile(positive, q))
            push(f"level[q{qi}]", CellSet(grid, absw > t))
        push("support", CellSet(grid, absw > 0))
    return out


def _candidate_capacities(candidates, kt: KernelTable,
                          opts: CapacityOptions | None,
                          cache: dict | None,
                          workers: int | None) -> list:
    """Capacity per candidate set; the cache is keyed by the membership mask,
    so repeated sets across sweeps are solved once."""
    cache = cache if cache is not None else {}
    todo = []
    for label, cs in candidates:
        if cs.mask.tobytes() not in cache:
            todo.append((label, cs))

    def solve(item):
        label, cs = item
        try:
            return capacity(cs, kt, opts).value
        except ConvergenceError as err:
            warnings.warn(f"candidate {label} skipped: {err}")
            return None

    for (label, cs), value in zip(todo, ordered_map(solve, todo, thread_count(workers))):
        cache[cs.mask.tobytes()] = value
    return [cache[cs.mask.tobytes()] for _label, cs in candidates]


@dataclass(frozen=True)
class HardyNormResult:
    value: float
    argmax: CellSet
    sweep: tuple  # (label, ratio) per candidate, in family order


def _best_ratio(absw: np.ndarray, m: float, candidates, caps) -> HardyNormResult:
    best_val = 0.0
    best_set = candidates[0][1]
    clean = []
    for (label, cs), cap in zip(candidates, caps):
        if cap is None or cap <= 0:
            if cap is not None:
                warnings.warn(f"candidate {label} skipped: zero capacity")
            continue
        ratio = float(absw[cs.mask].sum() * m) / cap
        clean.append((label, ratio))
        if ratio > best_val:
            best_val, best_set = ratio, cs
    if not clean:
        raise DomainError("every candidate in the family was skipped")
    return HardyNormResult(best_val, best_set, tuple(clean))


def hardy_norm_estimate(w: GridFunction, kt: KernelTable,
                        family: CandidateFamily | None = None,
                        opts: CapacityOptions | None = None,
                        workers: int | None = None,
                        cap_cache: dict | None = None) -> HardyNormResult:
    """Lower bound for the capacitary weight norm by a finite-family sweep."""
    family = family or CandidateFamily.default(w.grid)
    candidates = _family_candidates(w, family)
    if not candidates:
        if not np.any(w.values):
            return HardyNormResult(0.0, CellSet.empty(w.grid), ())
        raise DomainError("candidate family is empty")
    caps = _candidate_capacities(candidates, kt, opts, cap_cache, workers)
    return _best_ratio(np.abs(w.values), w.grid.cell_measure, candidates, caps)


# ---------------------------------------------------------------------------
# Concentration diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationProfile:
    radii: tuple
    norm_estimates: tuple
    extrapolated_limit: float


def _restrict(w: GridFunction, mask: np.ndarray) -> GridFunction:
    vals = np.where(mask, w.values, 0.0)
    return GridFunction(w.grid, vals)


def _profile(w: GridFunction, masks, kt: KernelTable,
             family: CandidateFamily | None, opts: CapacityOptions | None,
             cap_cache: dict | None) -> list[float]:
    """Norm estimates for a nested sequence of restrictions of w.

    All restrictions share one candidate family (the union of the families
    each restriction would generate on its own).  Sharing makes the profile
    exactly monotone in the restriction and lets one capacity solve serve
    every radius.
    """
    family = family or CandidateFamily.default(w.grid)
    restricted = [_restrict(w, mask) for mask in masks]
    candidates = []
    seen = set()
    for wr in restricted:
        for label, cs in _family_candidates(wr, family):
            key = cs.mask.tobytes()
            if key not in seen:
                seen.add(key)
                candidates.append((label, cs))
    m = w.grid.cell_measure
    estimates = []
    caps = _candidate_capacities(candidates, kt, opts, cap_cache, None) if candidates else []
    for wr in restricted:
        if not candidates or not np.any(wr.values):
            estimates.append(0.0)
            continue
        estimates.append(_best_ratio(np.abs(wr.values), m, candidates, caps).value)
    return estimates


def concentration_at(w: GridFunction, x, radii, kt: KernelTable,
                     family: CandidateFamily | None = None,
                     opts: CapacityOptions | None = None,
                     cap_cache: dict | None = None) -> ConcentrationProfile:
    """Estimated weight norm of w restricted to shrinking balls around x.

    The reported limit is the value at the smallest radius, the tightest
    computable bound; the whole (monotone) profile is kept for inspection.
    """
    radii = [float(r) for r in radii]
    if len(radii) == 0 or np.any(np.diff(radii) >= 0):
        raise DomainError("radii must be strictly decreasing")
    pt = np.asarray(x, dtype=float)
    d2 = ((w.grid.centers - pt) ** 2).sum(axis=1)
    masks = []
    for r in radii:
        mask = d2 <= r**2
        if not np.any(mask):
            raise DomainError(f"ball of radius {r} around {tuple(pt)} contains no cells")
        masks.append(mask)
    estimates = _profile(w, masks, kt, family, opts, cap_cache)
    return ConcentrationProfile(tuple(radii), tuple(estimates), estimates[-1])


def concentration_at_infinity(w: GridFunction, radii, kt: KernelTable,
                              family: CandidateFamily | None = None,
                              opts: CapacityOptions | None = None,
                              cap_cache: dict | None = None) -> ConcentrationProfile:
    """Estimated weight norm of w outside growing origin-centered balls."""
    radii = [float(r) for r in radii]
    if len(radii) == 0 or np.any(np.diff(radii) <= 0):
        raise DomainError("radii must be strictly increasing")
    r2 = (w.grid.centers**2).sum(axis=1)
    masks = [r2 > r**2 for r in radii]
    estimates = _profile(w, masks, kt, family, opts, cap_cache)
    return ConcentrationProfile(tuple(radii), tuple(estimates), estimates[-1])


@dataclass(frozen=True)
class CompactnessTolerances:
    """Threshold below which the concentration limits count as vanishing.

    The default is relative to the weight's own norm estimate: at cell
    width h the profile of a genuinely compact-class weight is still of
    size O(h^sp), so the cutoff scales with the weight rather than sitting
    at an absolute value a coarse grid could never reach.
    """

    absolute: float | None = None
    relative: float | None = 0.5


@dataclass(frozen=True)
class CompactnessVerdict:
    compact_indicating: bool
    c_star: float
    c_infinity: float
    tolerance: float
    points: tuple
    profiles: tuple  # ConcentrationProfile per point
    infinity_profile: ConcentrationProfile
    weight_norm: float


def _candidate_points(w: GridFunction, special_points, max_maxima: int = 8) -> list:
    grid = w.grid
    pts = []
    L = grid.half_width
    lattice = [-L / 2, 0.0, L / 2]
    if grid.dim == 1:
        pts.extend((x,) for x in lattice)
    else:
        pts.extend((x, y) for x in lattice for y in lattice)
    pts.extend(tuple(np.atleast_1d(p)) for p in special_points)

    absw = np.abs(w.values)
    n = grid.cells_per_dim
    if grid.dim == 1:
        padded = np.pad(absw, 1, constant_values=-np.inf)
        is_max = (absw >= padded[:-2]) & (absw >= padded[2:])
    else:
        a = absw.reshape(n, n)
        padded = np.pad(a, 1, constant_values=-np.inf)
        is_max = ((a >= padded[:-2, 1:-1]) & (a >= padded[2:, 1:-1])
                  & (a >= padded[1:-1, :-2]) & (a >= padded[1:-1, 2:])).ravel()
    maxima = np.flatnonzero(is_max)
    order = np.lexsort((maxima, -absw[maxima]))
    for idx in maxima[order][:max_maxima]:
        pts.append(tuple(grid.centers[idx]))

    unique = []
    for p in pts:
        if not any(np.allclose(p, q, atol=0.5 * grid.spacing) for q in unique):
            unique.append(p)
    return unique


def compactness_diagnostic(w: GridFunction, kt: KernelTable,
                           tolerances: CompactnessTolerances | None = None,
                           special_points=(),
                           family: CandidateFamily | None = None,
                           opts: CapacityOptions | None = None,
                           radii=None, radii_inf=None) -> CompactnessVerdict:
    """Joint local/at-infinity concentration check.

    Verdict is compact-indicating iff both the worst local limit over the
    candidate points and the at-infinity limit fall below the tolerance.
    Candidate points combine a coarse lattice, the strongest local maxima
    of |w|, and any caller-supplied singular points.
    """
    tolerances = tolerances or CompactnessTolerances()
    grid = w.grid
    L, h = grid.half_width, grid.spacing
    if radii is None:
        radii = [L / 2**k for k in range(1, 7) if L / 2**k >= h] or [L / 2]
    if radii_inf is None:
        radii_inf = [L / 2, 5 * L / 8, 3 * L / 4, 7 * L / 8]

    cap_cache: dict = {}
    weight_norm = hardy_norm_estimate(w, kt, family, opts, cap_cache=cap_cache).value
    tol = 0.0
    if tolerances.absolute is not None:
        tol = tolerances.absolute
    if tolerances.relative is not None:
        tol = max(tol, tolerances.relative * weight_norm)

    points = _candidate_points(w, special_points)
    profiles = [concentration_at(w, p, radii, kt, family, opts, cap_cache=cap_cache)
                for p in points]
    c_star = max((pr.extrapolated_limit for pr in profiles), default=0.0)
    inf_profile = concentration_at_infinity(w, radii_inf, kt, family, opts,
                                            cap_cache=cap_cache)
    c_inf = inf_profile.extrapolated_limit
    return CompactnessVerdict(
        compact_indicating=bool(c_star <= tol and c_inf <= tol),
        c_star=c_star,
        c_infinity=c_inf,
        tolerance=tol,
        points=tuple(points),
        profiles=tuple(profiles),
        infinity_profile=inf_profile,
        weight_norm=weight_norm,
    )
