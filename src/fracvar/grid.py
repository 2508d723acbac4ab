"""Uniform tensor grids, weight sampling, and singular-kernel tables.

Functions live on a box [-L, L]^dim (dim 1 or 2) split into n^dim equal
cells and are treated as identically zero outside the box.  A field is
piecewise constant with one value per cell, collocated at cell centers.

The kernel table holds the pairwise interaction
``K[i, j] = |x_i - x_j|^(-(dim + s*p))`` between cell centers together
with the per-cell exterior mass ``rho[i] = integral over box^c of
|x_i - y|^(-(dim + s*p)) dy``, which accounts for the zero extension.
Both read one stencil of distinct values ``T[|a|, |b|] = (h sqrt(a^2 +
b^2))^(-(dim + s*p))`` over integer cell offsets, which the table keeps.
K is Toeplitz on the line and BTTB on the plane, so the table stores no
other kernel array: each kernel row is a run of a row source gathered
from T on the first read of ``KernelTable.kernel_rows``, the p = 2 energy
matrix multiplies through a circulant embedding of T
(``KernelTable.p2_operator``, which owns it), and the exterior mass sums
T over a ring of cells (same spacing, out to ``ext_radius``) plus the
radial tail

    integral_{|z| > R} |z|^(-(dim + s*p)) dz = sigma_{dim-1} * R^(-s*p) / (s*p)

at ``R = ext_radius - |x_i|`` (sigma_0 = 2, sigma_1 = 2*pi).  One byte
budget, ``_BLOCK_BYTES``, sets the row blocks (``_row_blocks``) of the
energy module's pair pass and of the stacked Picone pass, whether
``kernel_rows`` is copied contiguous and whether the p = 2 operator
multiplies by gathered matrices.  The
ring sums take no FFT: the ring is two strips on the line and four on the
plane, and a strip's sum is a difference of suffix sums of the stencil's
row prefix sums (``_ring_sums``), O((n + layers)^dim) work in long double.  With an
80-bit long double the sums equal the correctly rounded ones at every cell
checked (in float64, as on Windows and macOS arm64, they are within about
2.4e-15 relative).  Each cell reads its symmetry class's sum, so cells
related by a reflection or a transpose have bitwise-equal masses.  Plane
n = 128 builds in about 6 ms, n = 512 in 0.09 s at 99 MB peak RSS and
n = 1024 in 0.4 s at 283 MB.

All types are immutable after construction; value arrays are marked
read-only.  Sums use numpy's fixed-order pairwise reduction, so results
are reproducible run to run.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .descent import is_whole, whole_at_least
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
    if not is_whole(dim) or dim not in (1, 2):
        raise DomainError(f"dim must be 1 or 2, got {dim!r}")
    dim, cells_per_dim = int(dim), whole_at_least(cells_per_dim, 2, "cells_per_dim")
    if not half_width > 0:
        raise DomainError(f"half_width must be positive, got {half_width}")
    h = 2.0 * half_width / cells_per_dim
    if not 0.0 < h < math.inf:
        raise DomainError(f"half_width {half_width} over {cells_per_dim} cells gives "
                          f"the spacing {h}; it must be positive and finite")
    # the centres and, on the plane, the meshgrid's two temporaries
    _check_fits(8 * dim**2 * cells_per_dim**dim, f"a grid of {cells_per_dim**dim} cells")
    axis = _axis_centers(half_width, cells_per_dim)
    if dim == 1:
        centers = axis.reshape(-1, 1)
    else:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        centers = np.column_stack([xx.ravel(), yy.ravel()])
    centers.setflags(write=False)
    return Grid(
        dim=dim,
        half_width=float(half_width),
        cells_per_dim=cells_per_dim,
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


def same_grid(a, b) -> None:
    """Raise ``DomainError`` unless a and b (anything with a ``.grid``: a
    grid function, a cell set or a kernel table) live on the same grid."""
    if a.grid is not b.grid and (
        a.grid.dim != b.grid.dim
        or a.grid.cells_per_dim != b.grid.cells_per_dim
        or a.grid.half_width != b.grid.half_width
    ):
        raise DomainError("the inputs live on different grids")


# ---------------------------------------------------------------------------
# Weight specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        if c.shape != pts.shape[1:]:
            raise DomainError(f"ball center {self.center} has {c.size} coordinates, "
                              f"the points have {pts.shape[1]}")
        return ((pts - c) ** 2).sum(axis=1) <= self.radius**2


@dataclass(frozen=True)
class HalfSpace:
    """Points with coordinate[axis] > threshold (side='right') or < (side='left')."""

    axis: int = 0
    threshold: float = 0.0
    side: str = "right"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise DomainError(f"half-space side must be 'left' or 'right', got {self.side!r}")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        if not 0 <= self.axis < pts.shape[1]:
            raise DomainError(f"half-space axis {self.axis} is outside the points' "
                              f"{pts.shape[1]} axes")
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
    """w(x) = amplitude * exp(-|x - center|^2 / (2 sigma^2)); center () is 0."""

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
        if c.shape != (grid.dim,):
            raise DomainError(f"gaussian center {spec.center} has {c.size} coordinates, "
                              f"the grid has {grid.dim}")
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
    raise DomainError(f"unrecognized weight specification {spec!r}")


def sample(grid: Grid, spec) -> GridFunction:
    """Collocate a weight spec at the cell centers."""
    vals = _sample_spec(grid, spec)
    if not np.all(np.isfinite(vals)):
        raise DomainError("sampled field contains NaN or infinity")
    return GridFunction(grid, vals)


# ---------------------------------------------------------------------------
# Kernel table
# ---------------------------------------------------------------------------

# One (rows x M) float64 block temporary of the energy module's pair pass
# stays near this size, and the block's working set in cache.
_BLOCK_BYTES = 256 * 1024


def _row_blocks(size: int, run: int, stack: int = 1) -> list:
    """Row blocks [a, b) of at most max(1, _BLOCK_BYTES // (8 stack size))
    rows, for a stack of ``stack`` fields: whole runs of ``run`` rows, or
    rows of one run, never straddling two."""
    height = max(1, _BLOCK_BYTES // (8 * stack * size))
    if height >= run:
        height -= height % run
        return [(a, min(a + height, size)) for a in range(0, size, height)]
    return [(a, min(a + height, r + run)) for r in range(0, size, run)
            for a in range(r, r + run, height)]


@dataclass(frozen=True)
class KernelTable:
    """Pairwise singular kernel plus exterior-interaction mass for a grid."""

    grid: Grid
    params: FracParams
    ext_radius: float
    exterior_mass: np.ndarray  # (M,)
    stencil: np.ndarray        # T[|a|, |b|] for offsets 0 .. n + layers - 1 per axis

    @property
    def cell_measure(self) -> float:
        return self.grid.cell_measure

    @functools.cached_property
    def kernel_rows(self) -> np.ndarray:
        """Read-only kernel rows K[l n + q, c] = kernel_rows[l, q, c], views of
        a row source gathered from the stencil on the first read, (2n - 1,) on
        the line (row i starts at n - 1 - i) and (n, 2n - 1, n) on the plane
        (row (i1, i2) at i2 (2n - 1) n + (n - 1 - i1) n): (1, n, n) and (n, n, M).
        They are copied contiguous when one pair-pass block (``_BLOCK_BYTES``)
        holds them.  The energy module's pair pass, the capacity solve's Newton
        Hessian (which views its (M, M) buffer in their shape) and
        ``dense_kernel`` read them; the read is refused when the source would
        not fit in memory."""
        n, dim, cells = self.grid.cells_per_dim, self.grid.dim, self.grid.n_cells
        _check_fits(8 * (2 * n - 1) * n ** (2 * dim - 2), f"the kernel rows of {cells} cells")
        # C[i2, k, j2] = T[|k - (n - 1)|, |i2 - j2|] on the plane, T[|k - (n - 1)|] on the line
        off = np.abs(np.arange(1 - n, n))
        windows = np.lib.stride_tricks.sliding_window_view
        if dim == 1:
            rows = windows(self.stencil[off], n)[None, ::-1]
        else:
            inner = np.abs(np.arange(n)[:, None, None] - np.arange(n))
            rows = windows(self.stencil[off[:, None], inner].reshape(n, -1), cells, axis=1)
            rows = rows[:, ::-n].transpose(1, 0, 2)
        if 8 * cells**2 <= _BLOCK_BYTES:
            rows = np.ascontiguousarray(rows)
            rows.setflags(write=False)
        return rows

    def dense_kernel(self) -> np.ndarray:
        """A new, writable (M, M) copy of the kernel, zero on the diagonal."""
        return np.array(self.kernel_rows).reshape(self.grid.n_cells, self.grid.n_cells)

    @functools.cached_property
    def pair_buffers(self) -> tuple:
        """The energy module's pair-pass row blocks (``_row_blocks``), and its
        buffers d and F, each the size of the largest (first) block: every
        pass fills views of them instead of allocating, so two passes on one
        table must never overlap (fracvar is serial)."""
        cells = self.grid.n_cells
        blocks = _row_blocks(cells, self.grid.cells_per_dim)
        height = blocks[0][1]
        return blocks, np.empty(height * cells), np.empty(height * cells)

    @functools.cached_property
    def p2_operator(self):
        """The p = 2 energy matrix and its preconditioner as circulant
        products (``energy.P2Operator``), built on first use and kept with
        the table."""
        from .energy import P2Operator  # energy imports this module

        return P2Operator(self)


def _ring_layers(grid: Grid, ext_radius: float) -> int:
    """Number of cell layers the exterior ring adds on each side of the box."""
    return int(math.ceil((ext_radius - grid.half_width) / grid.spacing - 1e-12))


def _ring_sums(stencil: np.ndarray, n: int, layers: int) -> np.ndarray:
    """sum_r T[|c - r|] over the ring cells r for every box cell c, shape (n,)*dim.

    The ring is one strip of ``layers`` cells beyond each face of the box;
    on the plane the strips across the first axis span the extended box's
    full height, corners included.  Across its strip, a cell's offset runs
    from near = c + 1 (or n - c) to near + layers - 1, and along the other
    axis over a signed range -a .. b.  With Q[i, k] the suffix sums over
    i' >= i of the row prefix sums T[i', 0] / 2 + sum_{1 <= j <= k} T[i', j]
    (the halved T[i', 0] makes the signed range Q[., a] + Q[., b]), a strip
    sums to the differences Q[near, k] - Q[near + layers, k] at k = a and b:
    a far tail taken from a larger near sum, all terms non-negative.  T is
    symmetric, so the strips across the second axis read Q transposed.  The
    cumulative sums run in long double: with the 80-bit format the sums
    equal the correctly rounded ones at every cell checked, where float64 is
    off by up to 1.8e-15 relative on a line of 768 cells."""
    table = np.zeros((n + layers + 1,) + stencil.shape[1:], np.longdouble)  # Q; 0 past the end
    rows = table[:-1]
    rows[...] = stencil
    if stencil.ndim == 2:
        rows[:, 0] /= 2
        np.cumsum(rows, axis=1, out=rows)
    np.cumsum(rows[::-1], axis=0, out=rows[::-1])
    near, far = table[1:n + 1], table[layers + 1:layers + n + 1]

    def strips(d):
        # d[i, j] is the strip at near = i + 1 and k = j (+ e); near = n - c
        # and k = n - 1 - c (+ e) read d flipped
        for axis in range(d.ndim):
            d = d + np.flip(d, axis)
        return d

    if stencil.ndim == 1:
        return strips(near - far).astype(float)
    across = [strips(near[:, e:e + n] - far[:, e:e + n]) for e in (layers, 0)]
    return (across[0] + across[1].T).astype(float)


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
    """Peak bytes of a build: the stencil, the ring sums' table of (n +
    layers + 1) (n + layers)^(dim-1) long doubles, four long doubles per
    cell for the strip sums and eight float64 vectors per cell."""
    n, dim = grid.cells_per_dim, grid.dim
    wide = np.dtype(np.longdouble).itemsize
    side = n + layers
    return 8 * side**dim + wide * (side + 1) * side ** (dim - 1) + (4 * wide + 64) * grid.n_cells


def build_kernel_table(grid: Grid, fp: FracParams, ext_radius: float) -> KernelTable:
    """Assemble the kernel's stencil and exterior mass for (grid, s, p).

    ``ext_radius`` must be at least twice the box half-width; the ring
    quadrature runs out to it (rounded up to whole cells) and the analytic
    tail covers the remainder.
    """
    fp.validate_for_dim(grid.dim)
    if not (ext_radius >= 2.0 * grid.half_width
            and math.isfinite((ext_radius - grid.half_width) / grid.spacing)):
        raise DomainError(
            f"ext_radius {ext_radius} must be finite and at least twice the "
            f"half-width {grid.half_width}"
        )
    n, dim = grid.cells_per_dim, grid.dim
    layers = _ring_layers(grid, ext_radius)
    _check_fits(_build_bytes(grid, layers), f"a kernel table for {grid.n_cells} cells")
    # the stencil holds the only powers taken, out to the farthest ring cell;
    # offset 0 gives the zero diagonal
    sq = np.arange(n + layers) ** 2
    stencil = grid.spacing * np.sqrt((sq if dim == 1 else sq[:, None] + sq).astype(float))
    stencil.flat[0] = np.inf
    stencil **= -(dim + fp.sp)
    stencil.setflags(write=False)

    # the strip sums leave transposed cells ulps apart, so every cell reads
    # the sum of its class's representative: folded coordinates
    # min(l, n-1-l) per axis, in ascending order on the plane
    fold = np.ix_(*[np.minimum(np.arange(n), np.arange(n)[::-1])] * dim)
    if dim == 2:
        fold = (np.minimum(*fold), np.maximum(*fold))
    outer = grid.half_width + layers * grid.spacing
    # rho exists before the ring sums' table, so no array that outlives it is
    # placed above it on the heap and its pages are returned on release
    rho = tail_mass(grid.dim, fp.sp, outer - grid.radii())
    rho += _ring_sums(stencil, n, layers)[fold].ravel() * grid.cell_measure
    rho.setflags(write=False)
    return KernelTable(
        grid=grid,
        params=fp,
        ext_radius=float(outer),
        exterior_mass=rho,
        stencil=stencil,
    )
