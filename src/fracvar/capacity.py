"""Variational capacity, Maz'ya-type weight norms, and concentration profiles.

The capacity of a cell set F is the minimum of the nonlocal p-energy over
fields equal to 1 on F and confined to [0, 1] elsewhere (and zero outside
the box).  The problem is convex, and every solve is one spectral
projected-gradient descent (``descent.spectral_descent``, with the box clip
as its projection), from conjugate gradients' solution at p = 2 and from
the indicator of F elsewhere.  Its Armijo test is nonmonotone: a trial's
energy is measured against the largest of the last 10 accepted energies,
so the energy may rise for a step or two.  Each trial costs one pair pass
(``energy.raw_energy``), which also yields the Gateaux vector of the next
direction; its boundary terms share one power of |u|.

The energy is a Dirichlet form: the unit contraction u -> min(max(u, 0), 1)
moves no pair of values further apart and shrinks every |u_i|, so it never
raises the energy, and the minimizer with u = 1 on F already lies in
[0, 1].  The box constraint is inactive.  At p = 2 the energy is the
quadratic form u^T A u, and the capacity is the symmetric positive-definite
system A_ff u_f = -A_fF 1 on the free cells (those outside F).  Conjugate
gradients solve it from u_f = 0 on the table's ``P2Operator``
(``_solve_on_free``, the one CG of every p >= 2 solve): A and T. Chan's
circulant preconditioner are products on the whole grid, by FFT or, up to
181 cells, by gathered matrices, restricted to the free cells, and CG
takes 5-14 steps on every grid tried.  The clipped
solution then gets one fused energy-and-gradient pass and starts the
descent, whose first stop test it passes without a step when CG has
converged; CG stops one step short of the iteration budget, so that test
runs within it.

For p >= 2 the energy is C^2, and at p > 2 the descent's directions are
inexact Newton steps (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal.
19, 1982), each tried first at its full length.  The Hessian on the free
cells is 2p(p-1) m^2 (diag(W 1) - W) + 2p(p-1) m diag(|u|^(p-2) rho), with
W = |u_i - u_j|^(p-2) K formed once per step in one M x M buffer, read
against ``kernel_rows`` with no copy of K, and Jacobi-preconditioned CG
(``_solve_on_free``) solves it to the forcing term min(1/2, sqrt(|g|)) |g|.
The p = 3 plane n = 12 capacities of the concentration diagnostic take 5-8
Newton steps of 1.8 CG products on average.  A Newton step whose projected
path does not descend, at the full step and near zero, gives way to the
gradient and its BB step, as all do where W would not fit in memory.  Below
p = 2 the energy is not C^2, and every step is a gradient step.

The weight norm

    sup over compact F of  (integral of |w| over F) / capacity(F)

is estimated from below by sweeping a finite candidate family, derived
from the grid alone (``_family_candidates``; L is the box's half-width, h
the cell width, n the cells per axis): balls of radius L/2^k, k = 0..3, at
least 1.5 h, centred on every max(1, n // 4)-th cell of each axis, plus the
super-level sets of |w| at 8 quantiles and its support.  Level sets are
the natural extremizers of the truncation argument behind the capacitary
characterization; balls cover localized behavior.  The sweep is a LOWER
bound on the true supremum.

Concentration profiles track the estimated norm of w restricted to
shrinking balls around a point (or to the complements of growing balls),
the computable stand-ins for the local and at-infinity concentration
functions whose joint vanishing signals that the weighted p-mass is a
compact perturbation of the energy.  Their radii, when not given, follow
one rule (``_default_radii``): L/2^k, k = 1..6, at least h, around a point,
and L/2 to 7L/8 at infinity.  ``compactness_diagnostic`` runs the
weight-norm sweep and every profile against one capacity cache keyed by
the candidate's orbit under the box's symmetries (reflections, and on the
plane the transpose), each solved once on its least image, so a cell set
shared by several sweeps, or an image of one, costs one solve.  The sweeps
run serially.
"""

from __future__ import annotations

import contextlib
import itertools
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.ma  # np.quantile loads it on first use, through np.unique

from .descent import spectral_descent, whole_at_least
from .energy import raw_energy
from .errors import ConvergenceError, DomainError
from .grid import (Ball, FracParams, Grid, GridFunction, KernelTable, _check_fits,
                   build_grid, build_kernel_table, same_grid)


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
    def empty(grid: Grid) -> "CellSet":
        return CellSet(grid, np.zeros(grid.n_cells, dtype=bool))


@dataclass(frozen=True)
class CapacityOptions:
    tol_factor: float = 1e-8       # stop when ||u - proj(u - dE)|| <= tol_factor * max(1, E)
    max_iter: int = 20000

    def __post_init__(self):
        if not (np.isfinite(self.tol_factor) and self.tol_factor > 0):
            raise DomainError(f"tol_factor must be finite and positive, got {self.tol_factor}")
        object.__setattr__(self, "max_iter", whole_at_least(self.max_iter, 1, "max_iter"))


@dataclass(frozen=True)
class CapacityResult:
    value: float
    minimizer: GridFunction
    # CG steps at p = 2, plus the descent's accepted steps, Newton or
    # gradient (and its failed one when it stalls)
    iterations: int
    grad_norm: float
    degenerate: bool = False


def capacity(F: CellSet, kt: KernelTable,
             opts: CapacityOptions | None = None) -> CapacityResult:
    """Minimize the p-energy over {u = 1 on F, 0 <= u <= 1}.

    An empty F yields the degenerate zero result (flagged) rather than an
    error; an F on another grid than the table's, a DomainError before any
    solve.  Non-convergence raises ConvergenceError carrying the last iterate.
    """
    opts = opts or CapacityOptions()
    grid = kt.grid
    same_grid(F, kt)
    if F.size == 0:
        warnings.warn("capacity target is empty; returning the degenerate zero result")
        zero = GridFunction(grid, np.zeros(grid.n_cells))
        return CapacityResult(0.0, zero, 0, 0.0, degenerate=True)

    # per-cell bounds: [1, 1] on F, [0, 1] elsewhere
    lower = F.mask.astype(float)

    def project(vals: np.ndarray) -> np.ndarray:
        # np.clip's bits, at about half its per-call cost at small M
        return np.minimum(np.maximum(vals, lower), 1.0)

    p, cells = kt.params.p, grid.n_cells
    grad_norm, grad = np.inf, None  # grad: the gradient where the direction was taken
    w = None  # _hessian's W, formed anew at each step, where it fits in memory
    if p > 2.0:
        with contextlib.suppress(DomainError):
            _check_fits(8 * cells**2, f"a Hessian of {cells} cells")
            w = np.empty((cells, cells))
    free = ~F.mask

    # each trial's pair pass also yields its Gateaux vector, handed on as the
    # descent's aux, so the direction at an accepted point needs no pass
    def direction(u, energy, gvec):
        nonlocal grad, grad_norm
        grad = p * gvec
        grad_norm = float(np.linalg.norm(u - project(u - grad)))
        if grad_norm <= opts.tol_factor * max(1.0, energy):
            return grad, True, None
        if w is not None:
            # s solves H s = -g on the free cells to the forcing term
            # min(1/2, sqrt(|g|)) |g|, by Jacobi-preconditioned CG
            diagonal, product = _hessian(u, kt, w)
            r = -grad[free]
            size = float(np.linalg.norm(r))
            inverse = 1.0 / diagonal
            s, _steps = _solve_on_free(product, lambda v: inverse * v, r, free,
                                       min(0.5, np.sqrt(size)) * size, r.size)
            # project(u + t s) must descend at t = 1, the first trial, and as t -> 0,
            # where the halvings end and it runs along s on the cells that move
            step = project(u + s) - u
            if grad @ step < 0.0 and grad @ np.where(step != 0.0, s, 0.0) < 0.0:
                return -s, False, 1.0
        return grad, False, None

    # a trial that ascends is rejected; a projected gradient step never does
    def trial(u, d, t):
        cand = project(u - t * d)
        decrease = float(grad @ (cand - u))
        if decrease > 0.0:
            return None
        energy, gvec = raw_energy(cand, kt)
        return cand, energy, decrease, gvec

    u, its = lower, 0  # the indicator of F
    if p == 2.0:
        # A_ff u_f = -A_fF 1 to half tol_factor, as the gradient on the free cells
        # is twice the residual, and one step short of the budget for the stop test
        op = kt.p2_operator
        s, its = _solve_on_free(op.apply, op.precondition, -op.apply(lower)[free], free,
                                0.5 * opts.tol_factor, opts.max_iter - 1)
        u = project(lower + s)
    energy, gvec = raw_energy(u, kt)
    # a converged CG solution passes the descent's first stop test, and no
    # step is taken
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


def _cg(apply, precondition, r: np.ndarray, target: float, cap: int) -> tuple[np.ndarray, int]:
    """Preconditioned CG for A x = r from x = 0: stops once the residual is
    at most ``target``, after ``cap`` steps, or at a direction without
    positive curvature.  Returns x and the step count; r becomes the
    residual."""
    x = np.zeros(r.size)
    rho, direction, steps = None, None, 0
    while np.linalg.norm(r) > target and steps < cap:
        z = precondition(r)
        rho, rho_prev = r @ z, rho
        direction = z if direction is None else z + (rho / rho_prev) * direction
        q = apply(direction)
        curvature = direction @ q
        if curvature <= 0.0:
            break
        alpha = rho / curvature
        x += alpha * direction
        r -= alpha * q
        steps += 1
    return x, steps


def _solve_on_free(apply, precondition, r: np.ndarray, free: np.ndarray, target: float,
                   cap: int) -> tuple[np.ndarray, int]:
    """``_cg`` for R_f A R_f^T x = r on the free cells, with A and the
    preconditioner given as maps of whole fields: each reads one field whose
    fixed cells stay zero, so both restrictions are symmetric positive
    definite where the maps are.  Returns that field holding x, and the CG
    step count."""
    full = np.zeros(free.size)

    def on_free(full_map):
        def restricted(x: np.ndarray) -> np.ndarray:
            full[free] = x
            return full_map(full)[free]

        return restricted

    x, steps = _cg(on_free(apply), on_free(precondition), r, target, cap)
    full[free] = x
    return full, steps


def _hessian(u: np.ndarray, kt: KernelTable, w: np.ndarray) -> tuple[np.ndarray, object]:
    """The Hessian of E at u, at p > 2, as its diagonal and the map v -> H v.

    With W = |u_i - u_j|^(p-2) K, formed in the (M, M) buffer ``w`` by
    viewing it in ``kernel_rows``' shape, the Hessian is
    2p(p-1) m^2 (diag(W 1) - W) + 2p(p-1) m diag(|u|^(p-2) rho), so a
    product is one matrix-vector product.
    """
    p, m = kt.params.p, kt.cell_measure
    scale = 2.0 * p * (p - 1.0)
    w[...] = u[:, None]  # then subtracting in place beats np.subtract.outer
    w -= u
    np.abs(w, out=w)
    if p != 3.0:  # |d|^1 is |d|
        w **= p - 2.0
    rows = kt.kernel_rows
    w.reshape(rows.shape)[...] *= rows
    diagonal = scale * (m * m * (w @ np.ones(u.size))
                        + m * np.abs(u) ** (p - 2.0) * kt.exterior_mass)

    def product(v: np.ndarray) -> np.ndarray:
        return diagonal * v - (scale * m * m) * (w @ v)

    return diagonal, product


@dataclass(frozen=True)
class BallScalingFit:
    slope: float
    radii: tuple
    values: tuple


def capacity_ball_scaling(radii, fp: FracParams, dim: int,
                          cells_per_dim: int = 32) -> BallScalingFit:
    """Capacity of origin-centered balls versus radius, as a log-log slope.

    Each radius r gets its own grid of ``cells_per_dim`` cells per axis on
    the box of half-width 2r, with exterior radius 8r, so the ball spans
    cells_per_dim / 2 cells at every radius and the fitted slope isolates
    the homogeneity of the energy.  Fewer than 4 cells across are refused.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 3:
        raise DomainError("the scaling fit needs at least 3 radii")
    if cells_per_dim < 8:
        raise DomainError(f"cells_per_dim {cells_per_dim} puts fewer than 4 cells "
                          "across each ball")
    values = []
    for r in radii:
        kt = build_kernel_table(build_grid(dim, 2.0 * r, cells_per_dim), fp, 8.0 * r)
        F = CellSet.ball(kt.grid, np.zeros(dim), r)
        values.append(capacity(F, kt).value)
    slope = float(np.polyfit(np.log(radii), np.log(values), 1)[0])
    return BallScalingFit(slope=slope, radii=tuple(radii), values=tuple(values))


# ---------------------------------------------------------------------------
# Weight-norm estimation
# ---------------------------------------------------------------------------

def _family_candidates(grid: Grid, weights) -> list:
    """(label, CellSet) candidates for every |w| array in ``weights``.

    The balls come first: radii L/2^k for k = 0..3 that are at least 1.5 h
    (L alone when none is), around the centre of every max(1, n // 4)-th
    cell of each axis.  Then come each weight's super-level sets at 8
    quantiles from 0.05 to 0.95 and its support, weight by weight.  A cell
    set already in the list is dropped, so the order is deterministic and
    every set appears once.
    """
    L, h, n = grid.half_width, grid.spacing, grid.cells_per_dim
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

    radii = [L / 2**k for k in range(4) if L / 2**k >= 1.5 * h] or [L]
    axis = -L + (np.arange(0, n, max(1, n // 4)) + 0.5) * h
    for ci, c in enumerate(itertools.product(axis, repeat=grid.dim)):
        for ri, r in enumerate(radii):
            push(f"ball[c{ci},r{ri}]", CellSet.ball(grid, c, r))

    for absw in weights:
        positive = absw[absw > 0]
        if positive.size:
            for qi, t in enumerate(np.quantile(positive, np.linspace(0.05, 0.95, 8))):
                push(f"level[q{qi}]", CellSet(grid, absw > t))
            push("support", CellSet(grid, absw > 0))
    return out


def _orbit_key(cs: CellSet) -> bytes:
    """The least ``tobytes()`` over the images of the mask under the box's
    symmetries: the reflection on the line; on the plane the reflection of
    either axis, both, and each of those composed with the transpose.

    The stencil and the exterior mass are invariant under each, so every
    image of a set has the set's capacity.
    """
    a = cs.mask.reshape((cs.grid.cells_per_dim,) * cs.grid.dim)
    if cs.grid.dim == 1:
        images = (a, a[::-1])
    else:
        images = [im for t in (a, a.T) for im in (t, t[::-1], t[:, ::-1], t[::-1, ::-1])]
    return min(im.tobytes() for im in images)


def _candidate_capacities(candidates, kt: KernelTable,
                          opts: CapacityOptions | None, cache: dict) -> list:
    """Capacity per candidate set.  The cache is keyed by the set's orbit
    (``_orbit_key``), and a miss solves the orbit's least image, so a set
    shared by several sweeps, or the reflection or transpose of one already
    solved, costs no solve, and its value does not depend on the order the
    sweeps meet the orbit in."""
    caps = []
    for label, cs in candidates:
        key = _orbit_key(cs)
        if key not in cache:
            least = CellSet(cs.grid, np.frombuffer(key, dtype=bool))
            try:
                cache[key] = capacity(least, kt, opts).value
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
    skipped: tuple = ()  # labels of the candidates without a ratio, in family order


def _best_ratio(absw: np.ndarray, m: float, candidates, caps) -> HardyNormResult:
    best_val = 0.0
    best_set = candidates[0][1]
    clean = []
    skipped = []
    for (label, cs), cap in zip(candidates, caps):
        if cap is None or cap <= 0:
            if cap is not None:
                warnings.warn(f"candidate {label} skipped: zero capacity")
            skipped.append(label)
            continue
        ratio = float(absw[cs.mask].sum() * m) / cap
        clean.append((label, ratio))
        if ratio > best_val:
            best_val, best_set = ratio, cs
    if not clean:
        raise DomainError("every candidate in the family was skipped")
    return HardyNormResult(best_val, best_set, tuple(clean), tuple(skipped))


def _sweep(w: GridFunction, masks, kt: KernelTable, opts: CapacityOptions | None,
           cache: dict) -> list:
    """A norm estimate of w restricted to each mask (``True`` keeps all of w).

    All restrictions share one candidate family (the union of the families
    each would generate on its own), so the estimates are exactly monotone
    in nested restrictions and one capacity solve serves every restriction;
    ``cache`` maps a candidate's orbit to its capacity across sweeps.  A
    vanishing restriction gets the zero result, and when all vanish no
    capacity is solved.
    """
    restricted = [np.abs(np.where(mask, w.values, 0.0)) for mask in masks]
    zero = HardyNormResult(0.0, CellSet.empty(w.grid), ())
    if not any(np.any(absw) for absw in restricted):
        return [zero] * len(restricted)
    candidates = _family_candidates(w.grid, restricted)
    caps = _candidate_capacities(candidates, kt, opts, cache)
    m = w.grid.cell_measure
    return [_best_ratio(absw, m, candidates, caps) if np.any(absw) else zero
            for absw in restricted]


def hardy_norm_estimate(w: GridFunction, kt: KernelTable,
                        opts: CapacityOptions | None = None) -> HardyNormResult:
    """Lower bound for the capacitary weight norm by a finite-family sweep."""
    same_grid(w, kt)
    return _sweep(w, [True], kt, opts, {})[0]


# ---------------------------------------------------------------------------
# Concentration diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationProfile:
    radii: tuple
    norm_estimates: tuple
    extrapolated_limit: float


def _profile(w: GridFunction, radii, masks, kt: KernelTable,
             opts: CapacityOptions | None, cache: dict) -> ConcentrationProfile:
    """Norm estimates for a nested sequence of restrictions of w; the limit
    is the value at the last radius."""
    estimates = tuple(res.value for res in _sweep(w, masks, kt, opts, cache))
    return ConcentrationProfile(tuple(radii), estimates, estimates[-1])


def _default_radii(grid: Grid) -> tuple[list, list]:
    """The profiles' radii when none are given: around a point, L/2^k for
    k = 1..6 that are at least the cell width h (L/2 alone when none is,
    below 4 cells per axis), so that each ball around a point of the box
    holds a cell; at infinity, L/2, 5L/8, 3L/4 and 7L/8."""
    L, h = grid.half_width, grid.spacing
    local = [L / 2**k for k in range(1, 7) if L / 2**k >= h] or [L / 2]
    return local, [L / 2, 5 * L / 8, 3 * L / 4, 7 * L / 8]


def _ball_masks(grid: Grid, x, radii) -> tuple[list, list]:
    """Radii, checked finite, >= 0 and strictly decreasing, and the balls around x as masks."""
    radii = [float(r) for r in radii]
    if not (radii and all(0 <= r < np.inf for r in radii) and np.all(np.diff(radii) < 0)):
        raise DomainError(f"radii must be finite, non-negative and strictly decreasing: {radii}")
    center = tuple(float(c) for c in np.atleast_1d(x))
    masks = []
    for r in radii:
        mask = Ball(center, r).contains(grid.centers)
        if not np.any(mask):
            raise DomainError(f"ball of radius {r} around {center} contains no cells")
        masks.append(mask)
    return radii, masks


def _exterior_masks(grid: Grid, radii) -> tuple[list, list]:
    """Radii, checked finite, non-negative and strictly increasing, and the
    complements of the origin-centered balls as masks."""
    radii = [float(r) for r in radii]
    if not (radii and all(0 <= r < np.inf for r in radii) and np.all(np.diff(radii) > 0)):
        raise DomainError(f"radii must be finite, non-negative and strictly increasing: {radii}")
    r2 = (grid.centers**2).sum(axis=1)
    return radii, [r2 > r**2 for r in radii]


def concentration_at(w: GridFunction, x, radii, kt: KernelTable,
                     opts: CapacityOptions | None = None) -> ConcentrationProfile:
    """Estimated weight norm of w restricted to shrinking balls around x.

    The reported limit is the value at the smallest radius, the tightest
    computable bound; the whole (monotone) profile is kept for inspection.
    """
    same_grid(w, kt)
    radii, masks = _ball_masks(w.grid, x, radii)
    return _profile(w, radii, masks, kt, opts, {})


def concentration_at_infinity(w: GridFunction, radii, kt: KernelTable,
                              opts: CapacityOptions | None = None) -> ConcentrationProfile:
    """Estimated weight norm of w outside growing origin-centered balls."""
    same_grid(w, kt)
    radii, masks = _exterior_masks(w.grid, radii)
    return _profile(w, radii, masks, kt, opts, {})


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


_MAX_MAXIMA = 8  # strongest local maxima of |w| among the candidate points


def _candidate_points(w: GridFunction) -> list:
    grid = w.grid
    L = grid.half_width
    pts = list(itertools.product([-L / 2, 0.0, L / 2], repeat=grid.dim))

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
    for idx in maxima[order][:_MAX_MAXIMA]:
        pts.append(tuple(grid.centers[idx]))

    unique = []
    for p in pts:
        if not any(np.allclose(p, q, atol=0.5 * grid.spacing) for q in unique):
            unique.append(p)
    return unique


def compactness_diagnostic(w: GridFunction, kt: KernelTable,
                           opts: CapacityOptions | None = None) -> CompactnessVerdict:
    """Joint local/at-infinity concentration check.

    Verdict is compact-indicating iff both the worst local limit over the
    candidate points and the at-infinity limit fall below the tolerance,
    half the weight's own norm estimate.  The cutoff is relative because at
    cell width h the profile of a genuinely compact-class weight is still of
    size O(h^sp), which an absolute cutoff on a coarse grid could never
    reach.  Candidate points combine a coarse lattice and the strongest
    local maxima of |w|.  The profiles run over ``_default_radii``.
    """
    same_grid(w, kt)
    grid = w.grid
    radii, outer_radii = _default_radii(grid)

    cache: dict = {}
    weight_norm = _sweep(w, [True], kt, opts, cache)[0].value
    tol = 0.5 * weight_norm
    points = _candidate_points(w)
    profiles = [_profile(w, *_ball_masks(grid, x, radii), kt, opts, cache)
                for x in points]
    c_star = max((pr.extrapolated_limit for pr in profiles), default=0.0)
    inf_profile = _profile(w, *_exterior_masks(grid, outer_radii), kt, opts, cache)
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
