"""Uniform tensor grids, weight sampling, and singular-kernel tables.

Functions live on a box [-L, L]^dim (dim 1 or 2) split into n^dim equal
cells and are treated as identically zero outside the box.  A field is
piecewise constant with one value per cell, collocated at cell centers.

The kernel table precomputes the pairwise interaction
``K[i, j] = |x_i - x_j|^(-(dim + s*p))`` between cell centers together
with the per-cell exterior mass ``rho[i] = integral over box^c of
|x_i - y|^(-(dim + s*p)) dy``, which accounts for the zero extension.
Both read one stencil of distinct values ``T[|a|, |b|] = (h sqrt(a^2 +
b^2))^(-(dim + s*p))`` over integer cell offsets: ``K`` is gathered from it
(Toeplitz on the line, BTTB on the plane), and the exterior mass gathers it
over a ring of cells (same spacing, out to ``ext_radius``, kept as lattice
coordinates) and adds the closed-form radial tail

    integral_{|z| > R} |z|^(-(dim + s*p)) dz = sigma_{dim-1} * R^(-s*p) / (s*p)

at ``R = ext_radius - |x_i|`` (sigma_0 = 2, sigma_1 = 2*pi).  Ring sums are
computed for half the line or an octant of the plane and mirrored, so cells
related by a reflection or a transpose have bitwise-equal masses.

All types are immutable after construction; value arrays are marked
read-only.  Sums use numpy's fixed-order pairwise reduction, so results
are reproducible run to run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError

SPHERE_SURFACE = {1: 2.0, 2: 2.0 * math.pi}


@dataclass(frozen=True)
class FracParams:
    """Differentiability order s in (0, 1) and integrability exponent p > 1."""

    s: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"s must lie in (0, 1), got s={self.s}")
        if not self.p > 1.0:
            raise DomainError(f"p must exceed 1, got p={self.p}")

    @property
    def sp(self) -> float:
        return self.s * self.p

    def validate_for_dim(self, dim: int) -> None:
        # The standing constraint is s*p < dim; equality is admitted so the
        # borderline case s=0.5, p=2 remains usable on the line.
        if self.sp > dim:
            raise DomainError(
                f"s*p = {self.sp} exceeds the dimension {dim}; "
                "the kernel exponent is out of range"
            )


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [-half_width, half_width]^dim."""

    dim: int
    half_width: float
    cells_per_dim: int
    spacing: float
    cell_measure: float
    centers: np.ndarray  # (n_cells, dim)

    @property
    def n_cells(self) -> int:
        return self.centers.shape[0]

    @property
    def total_measure(self) -> float:
        return self.n_cells * self.cell_measure

    def radii(self) -> np.ndarray:
        """Euclidean distance of each cell center from the origin."""
        return np.sqrt((self.centers**2).sum(axis=1))


def _axis_centers(half_width: float, n: int) -> np.ndarray:
    # (k - (n-1)/2) * h equals -L + (k + 1/2) h but is exactly sign-symmetric
    h = 2.0 * half_width / n
    return (np.arange(n) - (n - 1) / 2.0) * h


def build_grid(dim: int, half_width: float, cells_per_dim: int) -> Grid:
    """Construct the uniform grid; centers at -L + (k + 1/2) h per axis.

    2-d cells are enumerated row-major: index i*n + j addresses center
    (x_i, y_j).
    """
    if dim not in (1, 2):
        raise DomainError(f"dim must be 1 or 2, got {dim}")
    if cells_per_dim < 2:
        raise DomainError(f"cells_per_dim must be >= 2, got {cells_per_dim}")
    if not half_width > 0:
        raise DomainError(f"half_width must be positive, got {half_width}")
    axis = _axis_centers(half_width, cells_per_dim)
    if dim == 1:
        centers = axis.reshape(-1, 1)
    else:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        centers = np.column_stack([xx.ravel(), yy.ravel()])
    centers.setflags(write=False)
    h = 2.0 * half_width / cells_per_dim
    return Grid(
        dim=dim,
        half_width=float(half_width),
        cells_per_dim=int(cells_per_dim),
        spacing=h,
        cell_measure=h**dim,
        centers=centers,
    )


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant real field: one value per grid cell."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise DomainError(
                f"value vector has shape {vals.shape}, expected ({self.grid.n_cells},)"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid function contains non-finite values")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)


def same_grid(a: GridFunction, b: GridFunction) -> None:
    if a.grid is not b.grid and (
        a.grid.dim != b.grid.dim
        or a.grid.cells_per_dim != b.grid.cells_per_dim
        or a.grid.half_width != b.grid.half_width
    ):
        raise DomainError("grid functions live on different grids")


# ---------------------------------------------------------------------------
# Weight specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        return ((pts - c) ** 2).sum(axis=1) <= self.radius**2


@dataclass(frozen=True)
class HalfSpace:
    """Points with coordinate[axis] > threshold (side='right') or < (side='left')."""

    axis: int = 0
    threshold: float = 0.0
    side: str = "right"

    def contains(self, pts: np.ndarray) -> np.ndarray:
        if self.side == "right":
            return pts[:, self.axis] > self.threshold
        return pts[:, self.axis] < self.threshold


Region = Union[Ball, HalfSpace]


@dataclass(frozen=True)
class PowerLaw:
    """w(x) = amplitude * |x|^(-alpha), alpha >= 0.

    A cell whose center coincides with the origin is evaluated at a point
    offset by h/4 along each axis, which sidesteps the singularity.
    """

    alpha: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.alpha < 0:
            raise DomainError("power-law exponent must be >= 0")


@dataclass(frozen=True)
class GaussianBump:
    """w(x) = amplitude * exp(-|x - center|^2 / (2 sigma^2))."""

    sigma: float
    center: tuple = ()
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise DomainError("gaussian width must be positive")


@dataclass(frozen=True)
class Indicator:
    region: Region
    amplitude: float = 1.0


@dataclass(frozen=True)
class Difference:
    """w = w1 - w2 where both parts sample to non-negative fields."""

    w1: "WeightSpec"
    w2: "WeightSpec"


@dataclass(frozen=True)
class FromFile:
    path: str


WeightSpec = Union[PowerLaw, GaussianBump, Indicator, Difference, FromFile]


def _sample_spec(grid: Grid, spec) -> np.ndarray:
    pts = grid.centers
    if isinstance(spec, PowerLaw):
        eval_pts = pts
        if spec.alpha > 0:
            r = np.sqrt((pts**2).sum(axis=1))
            near_origin = r < 0.25 * grid.spacing
            if np.any(near_origin):
                eval_pts = pts.copy()
                eval_pts[near_origin] += 0.25 * grid.spacing
        r = np.sqrt((eval_pts**2).sum(axis=1))
        return spec.amplitude * np.power(r, -spec.alpha)
    if isinstance(spec, GaussianBump):
        c = np.zeros(grid.dim) if not spec.center else np.asarray(spec.center, dtype=float)
        d2 = ((pts - c) ** 2).sum(axis=1)
        return spec.amplitude * np.exp(-d2 / (2.0 * spec.sigma**2))
    if isinstance(spec, Indicator):
        return spec.amplitude * spec.region.contains(pts).astype(float)
    if isinstance(spec, Difference):
        v1 = _sample_spec(grid, spec.w1)
        v2 = _sample_spec(grid, spec.w2)
        if np.any(v1 < 0) or np.any(v2 < 0):
            raise DomainError("difference parts must sample to non-negative fields")
        return v1 - v2
    if isinstance(spec, FromFile):
        from .io import read_grid_function

        return read_grid_function(grid, spec.path).values
    if callable(spec):
        vals = np.array([float(spec(*xy)) for xy in pts])
        return vals
    raise DomainError(f"unrecognized weight specification {spec!r}")


def sample(grid: Grid, spec) -> GridFunction:
    """Collocate a weight spec or analytic callable at the cell centers."""
    vals = _sample_spec(grid, spec)
    if not np.all(np.isfinite(vals)):
        raise DomainError("sampled field contains NaN or infinity")
    return GridFunction(grid, vals)


# ---------------------------------------------------------------------------
# Kernel table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelTable:
    """Pairwise singular kernel plus exterior-interaction mass for a grid."""

    grid: Grid
    params: FracParams
    ext_radius: float
    pair_kernel: np.ndarray    # (M, M), zero diagonal
    exterior_mass: np.ndarray  # (M,)

    @property
    def cell_measure(self) -> float:
        return self.grid.cell_measure


# Row chunks of the exterior-ring gather hold about this many bytes of
# temporaries, 16 per cell-to-ring pair (the flat stencil index plus one axis
# offset or the gathered value); a chunk this small stays in cache.
_RING_BYTES = 1024 * 1024
_PAIR_BYTES = 16


def _ring_layers(grid: Grid, ext_radius: float) -> int:
    """Number of cell layers the exterior ring adds on each side of the box."""
    return int(math.ceil((ext_radius - grid.half_width) / grid.spacing - 1e-12))


def _ring_sums(stencil: np.ndarray, n: int, layers: int, cells: np.ndarray) -> np.ndarray:
    """sum_r T[|c - r|] over the ring cells r for each lattice cell c, a row of ``cells``.

    Box cells sit at 0..n-1 along each axis and the ring's ``layers`` cells
    beyond them are kept as integer lattice coordinates.
    """
    dim = cells.shape[1]
    axis = np.arange(-layers, n + layers)
    ring = np.stack(np.meshgrid(*[axis] * dim, indexing="ij")).reshape(dim, -1)
    ring = ring[:, ~np.all((ring >= 0) & (ring < n), axis=0)]
    rows = max(1, _RING_BYTES // (_PAIR_BYTES * ring.shape[1]))
    out = np.empty(cells.shape[0])
    for a in range(0, cells.shape[0], rows):
        # the flat stencil index, built in place axis by axis
        chunk = cells[a:a + rows]
        idx = np.zeros((chunk.shape[0], ring.shape[1]), dtype=np.intp)
        for coord, c in zip(ring, chunk.T):
            d = coord - c[:, None]
            idx *= stencil.shape[0]
            idx += np.abs(d, out=d)
            del d
        vals = stencil.ravel().take(idx)
        # each row is summed in ascending order, small far-ring terms first,
        # so a sum depends neither on the ring's enumeration nor on the chunking
        vals.sort(axis=1)
        out[a:a + rows] = vals.sum(axis=1)
        del idx, vals  # so the next chunk's arrays do not coexist with these
    return out


def tail_mass(dim: int, sp: float, radius):
    """Closed-form integral of |z|^(-(dim+sp)) over {|z| > radius}.

    ``radius`` may be a number or an array of radii; the result has its shape.
    """
    r = np.asarray(radius, dtype=float)
    if np.any(r <= 0):
        raise DomainError(f"tail radius must be positive, got {r.min()}")
    out = SPHERE_SURFACE[dim] * r ** (-sp) / sp
    return float(out) if out.ndim == 0 else out


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_fits(need: int, what: str) -> None:
    """Raise ``DomainError`` when ``need`` bytes exceed physical memory."""
    have = _physical_memory()
    if need > have:
        raise DomainError(
            f"{what} needs about {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )


def _build_bytes(grid: Grid, layers: int) -> int:
    """Peak bytes of a build: the dense kernel, the stencil, the ring's
    integer coordinates and one gather chunk."""
    side = grid.cells_per_dim + 2 * layers
    ring_cells = side**grid.dim - grid.n_cells
    chunk = max(_RING_BYTES, _PAIR_BYTES * ring_cells)
    return 8 * (grid.n_cells**2 + side**grid.dim + grid.dim * ring_cells) + chunk


def build_kernel_table(grid: Grid, fp: FracParams, ext_radius: float) -> KernelTable:
    """Assemble the pairwise kernel and exterior mass for (grid, s, p).

    ``ext_radius`` must be at least twice the box half-width; the ring
    quadrature runs out to it (rounded up to whole cells) and the analytic
    tail covers the remainder.
    """
    fp.validate_for_dim(grid.dim)
    if ext_radius < 2.0 * grid.half_width:
        raise DomainError(
            f"ext_radius {ext_radius} must be at least twice the half-width "
            f"{grid.half_width}"
        )
    n, dim = grid.cells_per_dim, grid.dim
    layers = _ring_layers(grid, ext_radius)
    _check_fits(_build_bytes(grid, layers), f"a kernel table for {grid.n_cells} cells")
    # the stencil holds the only powers taken; offset 0 gives the zero diagonal
    sq = np.arange(n + 2 * layers) ** 2
    stencil = grid.spacing * np.sqrt((sq if dim == 1 else sq[:, None] + sq).astype(float))
    stencil.flat[0] = np.inf
    stencil **= -(dim + fp.sp)
    # per-axis offsets |i - j| as a strided view of |1-n..n-1|, broadcast on
    # the plane, so that the output is the only M x M array
    off = np.lib.stride_tricks.sliding_window_view(np.abs(np.arange(1 - n, n)), n)[::-1]
    if dim == 2:
        off = (off[:, None, :, None], off[None, :, None, :])
    kern = stencil[off].reshape(grid.n_cells, grid.n_cells)
    kern.setflags(write=False)

    # one ring sum per symmetry class: the cell with folded, sorted lattice
    # coordinates stands for all its reflections and transposes
    lattice = np.indices((n,) * dim).reshape(dim, -1).T
    folded = np.sort(np.minimum(lattice, n - 1 - lattice), axis=1)
    cells, owner = np.unique(folded, axis=0, return_inverse=True)
    ring_sum = _ring_sums(stencil, n, layers, cells)[owner] * grid.cell_measure
    outer = grid.half_width + layers * grid.spacing
    rho = ring_sum + tail_mass(grid.dim, fp.sp, outer - grid.radii())
    rho.setflags(write=False)
    return KernelTable(
        grid=grid,
        params=fp,
        ext_radius=float(outer),
        pair_kernel=kern,
        exterior_mass=rho,
    )
