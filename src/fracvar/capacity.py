"""Variational capacity, Maz'ya-type weight norms, and concentration profiles.

The capacity of a cell set F is the minimum of the nonlocal p-energy over
fields equal to 1 on F, confined to [0, 1] elsewhere, and (for relative
capacities) pinned to 0 outside a prescribed subdomain.  The problem is
convex, and it is solved on one of two paths.

The energy is a Dirichlet form: the unit contraction u -> min(max(u, 0), 1)
moves no pair of values further apart and shrinks every |u_i|, so it never
raises the energy, and the minimizer with u = 1 on F (and 0 off the
subdomain) already lies in [0, 1].  The box constraint is inactive.  At
p = 2 the energy is the quadratic form u^T A u, and the capacity is the
symmetric positive-definite system A_ff u_f = -A_fF 1 on the free cells
(those outside F and inside the subdomain).  Conjugate gradients solve it
on the table's ``P2Operator`` (``_linear_solve``): A and T. Chan's
circulant preconditioner are FFT products on the whole grid, restricted to
the free cells, and CG takes 5-14 steps on every grid tried.  The clipped
solution then gets one fused energy-and-gradient pass and the stop test; a
point that fails the test is handed on to the descent below as its start.

At every other p, spectral projected-gradient descent
(``descent.spectral_descent``, with the box clip as its projection) reaches
the value to solver tolerance from any start.

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
compact perturbation of the energy.  ``compactness_diagnostic`` runs the
weight-norm sweep and every profile against one capacity cache keyed by
the candidate's cell mask, so a cell set shared by several sweeps is solved
once.  The sweeps run serially.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.ma  # np.quantile loads it on first use, through np.unique

from .descent import spectral_descent
from .energy import raw_energy
from .errors import ConvergenceError, DomainError
from .grid import (Ball, FracParams, Grid, GridFunction, KernelTable,
                   build_grid, build_kernel_table)


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
    error, and a ``start`` that is not M finite values a DomainError before
    any solve.  Non-convergence raises ConvergenceError carrying the last iterate.
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

    u = project(np.zeros(grid.n_cells) if start is None else GridFunction(grid, start).values)
    its = 0
    if p == 2.0:
        free = ~(fixed_one | fixed_zero)
        u[free], its = _linear_solve(u, kt, free, opts)
        u = project(u)
    energy, gvec = raw_energy(u, kt, with_gateaux=True)
    # at p = 2 this passes for the CG solution, and no descent step is taken
    if direction(u, energy, gvec)[1]:
        return CapacityResult(energy, GridFunction(grid, u), its, grad_norm)
    u, energy, _gvec, status, more = spectral_descent(u, energy, gvec, direction, trial,
                                                      opts.max_iter - its)
    its += more
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


def _linear_solve(u: np.ndarray, kt: KernelTable, free: np.ndarray,
                  opts: CapacityOptions) -> tuple[np.ndarray, int]:
    """Preconditioned CG for A_ff u_f = -A_fF 1 at p = 2, from u's free values.

    Returns the free cells' values and the CG step count, at most
    ``opts.max_iter``.  CG stops once the residual is below half
    ``tol_factor``: the gradient of E on the free cells is twice the
    residual, so the stop test's target tol_factor * max(1, E) is then met
    wherever the clip leaves the point unchanged.
    """
    op = kt.p2_operator
    full = np.zeros(u.size)  # its fixed cells stay zero

    def on_free(full_map, x):
        # R_f full_map R_f^T x on the free cells; SPD for A and for P, as A and P are
        full[free] = x
        return full_map(full)[free]

    x = u[free]
    r = -op.apply(np.where(free, 0.0, u))[free] - on_free(op.apply, x)
    rho, direction, steps = None, None, 0
    while np.linalg.norm(r) > 0.5 * opts.tol_factor and steps < opts.max_iter:
        z = on_free(op.precondition, r)
        rho, rho_prev = r @ z, rho
        direction = z if direction is None else z + (rho / rho_prev) * direction
        q = on_free(op.apply, direction)
        alpha = rho / (direction @ q)
        x += alpha * direction
        r -= alpha * q
        steps += 1
    return x, steps


@dataclass(frozen=True)
class BallScalingFit:
    slope: float
    radii: tuple
    values: tuple


def ball_table_builder(fp: FracParams, dim: int, cells_per_dim: int = 32):
    """Builder mapping a ball radius to a proportionally scaled kernel table:
    the box half-width is twice the radius and the exterior radius twice the
    box width."""

    def build(radius: float) -> KernelTable:
        half_width = 2.0 * radius
        grid = build_grid(dim, half_width, cells_per_dim)
        return build_kernel_table(grid, fp, 4.0 * half_width)

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

    def __post_init__(self):
        radii = self.ball_radii
        if not all(isinstance(r, numbers.Real) and np.isfinite(r) and r > 0 for r in radii):
            raise DomainError(f"ball radii must be finite positive numbers, got {radii}")
        if self.center_stride < 1 or self.n_quantiles < 0:
            raise DomainError("the family needs center_stride >= 1 and n_quantiles >= 0")
        object.__setattr__(self, "ball_radii", tuple(float(r) for r in radii))

    @staticmethod
    def default(grid: Grid) -> "CandidateFamily":
        L = grid.half_width
        radii = tuple(L / 2**k for k in range(0, 4) if L / 2**k >= 1.5 * grid.spacing)
        stride = max(1, grid.cells_per_dim // 4)
        return CandidateFamily(ball_radii=radii or (L,), center_stride=stride)


def _family_candidates(grid: Grid, weights, family: CandidateFamily | None) -> list:
    """(label, CellSet) candidates for every |w| array in ``weights``.

    The lattice balls come first, then each weight's super-level sets in
    turn; a cell set already in the list is dropped, so the order is
    deterministic and every set appears once.
    """
    family = family or CandidateFamily.default(grid)
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

    for absw in weights:
        positive = absw[absw > 0]
        if positive.size and family.n_quantiles > 0:
            qs = np.linspace(0.05, 0.95, family.n_quantiles)
            for qi, q in enumerate(qs):
                t = float(np.quantile(positive, q))
                push(f"level[q{qi}]", CellSet(grid, absw > t))
            push("support", CellSet(grid, absw > 0))
    return out


def _candidate_capacities(candidates, kt: KernelTable,
                          opts: CapacityOptions | None, cache: dict) -> list:
    """Capacity per candidate set; the cache is keyed by the membership mask,
    so a set shared by several sweeps is solved once."""
    caps = []
    for label, cs in candidates:
        key = cs.mask.tobytes()
        if key not in cache:
            try:
                cache[key] = capacity(cs, kt, opts).value
            except ConvergenceError as err:
                warnings.warn(f"candidate {label} skipped: {err}")
                cache[key] = None
        caps.append(cache[key])
    return caps


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


def _hardy(w: GridFunction, kt: KernelTable, family: CandidateFamily | None,
           opts: CapacityOptions | None, cache: dict) -> HardyNormResult:
    absw = np.abs(w.values)
    candidates = _family_candidates(w.grid, [absw], family)
    if not candidates:
        if not np.any(absw):
            return HardyNormResult(0.0, CellSet.empty(w.grid), ())
        raise DomainError("candidate family is empty")
    caps = _candidate_capacities(candidates, kt, opts, cache)
    return _best_ratio(absw, w.grid.cell_measure, candidates, caps)


def hardy_norm_estimate(w: GridFunction, kt: KernelTable,
                        family: CandidateFamily | None = None,
                        opts: CapacityOptions | None = None) -> HardyNormResult:
    """Lower bound for the capacitary weight norm by a finite-family sweep."""
    return _hardy(w, kt, family, opts, {})


# ---------------------------------------------------------------------------
# Concentration diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationProfile:
    radii: tuple
    norm_estimates: tuple
    extrapolated_limit: float


def _profile(w: GridFunction, radii, masks, kt: KernelTable,
             family: CandidateFamily | None, opts: CapacityOptions | None,
             cache: dict) -> ConcentrationProfile:
    """Norm estimates for a nested sequence of restrictions of w.

    All restrictions share one candidate family (the union of the families
    each restriction would generate on its own).  Sharing makes the profile
    exactly monotone in the restriction and lets one capacity solve serve
    every radius.  The limit is the value at the last radius.
    """
    restricted = [np.abs(np.where(mask, w.values, 0.0)) for mask in masks]
    candidates = _family_candidates(w.grid, restricted, family)
    caps = _candidate_capacities(candidates, kt, opts, cache)
    m = w.grid.cell_measure
    estimates = [_best_ratio(absw, m, candidates, caps).value
                 if candidates and np.any(absw) else 0.0 for absw in restricted]
    return ConcentrationProfile(tuple(radii), tuple(estimates), estimates[-1])


def _ball_masks(grid: Grid, x, radii) -> tuple[list, list]:
    """Radii, checked strictly decreasing, and the balls around x as masks."""
    radii = [float(r) for r in radii]
    if len(radii) == 0 or np.any(np.diff(radii) >= 0):
        raise DomainError("radii must be strictly decreasing")
    pt = np.asarray(x, dtype=float)
    d2 = ((grid.centers - pt) ** 2).sum(axis=1)
    masks = []
    for r in radii:
        mask = d2 <= r**2
        if not np.any(mask):
            raise DomainError(f"ball of radius {r} around {tuple(pt)} contains no cells")
        masks.append(mask)
    return radii, masks


def _exterior_masks(grid: Grid, radii) -> tuple[list, list]:
    """Radii, checked strictly increasing, and the complements of the
    origin-centered balls as masks."""
    radii = [float(r) for r in radii]
    if len(radii) == 0 or np.any(np.diff(radii) <= 0):
        raise DomainError("radii must be strictly increasing")
    r2 = (grid.centers**2).sum(axis=1)
    return radii, [r2 > r**2 for r in radii]


def concentration_at(w: GridFunction, x, radii, kt: KernelTable,
                     family: CandidateFamily | None = None,
                     opts: CapacityOptions | None = None) -> ConcentrationProfile:
    """Estimated weight norm of w restricted to shrinking balls around x.

    The reported limit is the value at the smallest radius, the tightest
    computable bound; the whole (monotone) profile is kept for inspection.
    """
    radii, masks = _ball_masks(w.grid, x, radii)
    return _profile(w, radii, masks, kt, family, opts, {})


def concentration_at_infinity(w: GridFunction, radii, kt: KernelTable,
                              family: CandidateFamily | None = None,
                              opts: CapacityOptions | None = None) -> ConcentrationProfile:
    """Estimated weight norm of w outside growing origin-centered balls."""
    radii, masks = _exterior_masks(w.grid, radii)
    return _profile(w, radii, masks, kt, family, opts, {})


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


def _candidate_points(w: GridFunction, max_maxima: int = 8) -> list:
    grid = w.grid
    pts = []
    L = grid.half_width
    lattice = [-L / 2, 0.0, L / 2]
    if grid.dim == 1:
        pts.extend((x,) for x in lattice)
    else:
        pts.extend((x, y) for x in lattice for y in lattice)

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
                           family: CandidateFamily | None = None,
                           opts: CapacityOptions | None = None) -> CompactnessVerdict:
    """Joint local/at-infinity concentration check.

    Verdict is compact-indicating iff both the worst local limit over the
    candidate points and the at-infinity limit fall below the tolerance,
    half the weight's own norm estimate.  The cutoff is relative because at
    cell width h the profile of a genuinely compact-class weight is still of
    size O(h^sp), which an absolute cutoff on a coarse grid could never
    reach.  Candidate points combine a coarse lattice and the strongest
    local maxima of |w|.  The local radii halve from L/2 down to the cell
    width; the radii at infinity run from L/2 to 7L/8.
    """
    grid = w.grid
    L, h = grid.half_width, grid.spacing
    radii = [L / 2**k for k in range(1, 7) if L / 2**k >= h] or [L / 2]
    outer_radii = [L / 2, 5 * L / 8, 3 * L / 4, 7 * L / 8]

    cache: dict = {}
    weight_norm = _hardy(w, kt, family, opts, cache).value
    tol = 0.5 * weight_norm
    points = _candidate_points(w)
    profiles = [_profile(w, *_ball_masks(grid, x, radii), kt, family, opts, cache)
                for x in points]
    c_star = max((pr.extrapolated_limit for pr in profiles), default=0.0)
    inf_profile = _profile(w, *_exterior_masks(grid, outer_radii), kt, family, opts, cache)
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
