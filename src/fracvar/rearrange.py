"""Distribution functions, rearrangements, and Lorentz (quasi-)norms.

Because all cells share one measure, the decreasing rearrangement of a grid
function is just its absolute values sorted in non-increasing order, placed
on a uniform partition of (0, total measure].  Ties sort by cell index so
every operation here is deterministic.

Lorentz integrals are evaluated in closed form per constancy interval
(power-function antiderivatives), never by quadrature.  For q = infinity
the supremum of t^(1/p) f*(t) over a constancy interval sits at the right
endpoint, since t^(1/p) increases; the sup is therefore a maximum over
right endpoints.  A finite q scales every interval's integral by that
maximum to the power q, so no power overflows and a huge q tends to the
q = infinity value.  p = infinity admits only q = infinity, because
L^(inf, q) holds only 0 for finite q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .grid import GridFunction


@dataclass(frozen=True)
class StepFunction:
    """Right-open step function on (0, t_K]: level k on [t_{k-1}, t_k)."""

    breakpoints: np.ndarray  # K+1 values, 0 = t_0 < t_1 < ... < t_K
    levels: np.ndarray       # K values

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        lv = np.asarray(self.levels, dtype=float)
        if bp.ndim != 1 or lv.ndim != 1 or bp.shape[0] != lv.shape[0] + 1:
            raise DomainError("breakpoints must have exactly one more entry than levels")
        if bp[0] != 0.0 or np.any(np.diff(bp) <= 0):
            raise DomainError("breakpoints must start at 0 and increase strictly")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(lv))):
            raise DomainError("step function data must be finite")
        bp = bp.copy()
        lv = lv.copy()
        bp.setflags(write=False)
        lv.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)


def distribution_function(f: GridFunction, levels: Sequence[float]) -> np.ndarray:
    """measure{|f| > s} for each requested level s >= 0."""
    lv = np.asarray(levels, dtype=float)
    if np.any(lv < 0):
        raise DomainError("distribution levels must be non-negative")
    absf = np.abs(f.values)
    counts = (absf[None, :] > lv[:, None]).sum(axis=1)
    return counts * f.grid.cell_measure


def decreasing_rearrangement(f: GridFunction) -> StepFunction:
    """|f| sorted non-increasing on the uniform partition of (0, total]."""
    order = np.argsort(-np.abs(f.values), kind="stable")
    levels = np.abs(f.values)[order]
    m = f.grid.cell_measure
    breakpoints = np.arange(f.grid.n_cells + 1) * m
    return StepFunction(breakpoints, levels)


def maximal_function(fstar: StepFunction) -> StepFunction:
    """Running average (1/t) integral_0^t f*, sampled at the breakpoints.

    The integral of a step function is exact; the result is represented on
    the same partition with level k equal to the average over (0, t_k].
    """
    lv = fstar.levels
    if np.any(np.diff(lv) > 0):
        raise DomainError("maximal function requires a non-increasing input")
    cumulative = np.cumsum(lv * fstar.widths())
    averages = cumulative / fstar.breakpoints[1:]
    return StepFunction(fstar.breakpoints, averages)


def schwarz_symmetrization(f: GridFunction) -> GridFunction:
    """Radially decreasing rearrangement of |f| along the cell ordering.

    Cells are ordered by distance from the origin (ties by index) and
    receive the sorted-descending absolute values in that order.
    """
    radial_order = np.argsort(f.grid.radii(), kind="stable")
    sorted_vals = np.sort(np.abs(f.values))[::-1]
    out = np.empty_like(sorted_vals)
    out[radial_order] = sorted_vals
    return GridFunction(f.grid, out)


def _lorentz_from_step(step: StepFunction, p: float, q: float) -> float:
    if not p >= 1:
        raise DomainError(f"Lorentz first index must be >= 1, got {p}")
    if not q >= 1:
        raise DomainError(f"Lorentz second index must be >= 1 or infinity, got {q}")
    if p == np.inf and q != np.inf:
        raise DomainError(f"Lorentz space L^(inf, {q}) holds only 0; q must be infinity")
    t_right = step.breakpoints[1:]
    peaks = step.levels * t_right ** (1.0 / p)
    top = float(np.max(peaks, initial=0.0))
    if q == np.inf or top == 0.0:
        return top
    t_left = step.breakpoints[:-1]
    # integral over [t_{k-1}, t_k) of [t^(1/p - 1/q) * level]^q dt, closed form,
    # = peak^q (p/q) (1 - (t_{k-1}/t_k)^(q/p)); scaled by top^q, no power overflows
    weights = (p / q) * (1.0 - (t_left / t_right) ** (q / p))
    return top * float(np.sum((peaks / top) ** q * weights) ** (1.0 / q))


def lorentz_quasi_norm(f: GridFunction, p: float, q) -> float:
    """Quasi-norm built from f*; q may be a float >= 1 or infinity."""
    return _lorentz_from_step(decreasing_rearrangement(f), p, q)


def lorentz_norm(f: GridFunction, p: float, q) -> float:
    """Norm built from the maximal function f** in place of f*."""
    return _lorentz_from_step(maximal_function(decreasing_rearrangement(f)), p, q)
