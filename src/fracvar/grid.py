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
K is Toeplitz on the line and BTTB on the plane, so no M x M array is
stored: each kernel row is a run of a row source gathered from T
(``KernelTable.kernel_rows``), the p = 2 energy matrix multiplies by FFT
over T (``KernelTable.p2_operator``), and the exterior mass sums T over a
ring of cells (same spacing, out to ``ext_radius``) plus the radial tail

    integral_{|z| > R} |z|^(-(dim + s*p)) dz = sigma_{dim-1} * R^(-s*p) / (s*p)

at ``R = ext_radius - |x_i|`` (sigma_0 = 2, sigma_1 = 2*pi).  Both FFT uses
of the stencil go through one circulant embedding (``_stencil_symbol``,
``_circulant``); the ring sums of all cells are one convolution of the
ring's indicator with it, in long double: within 1e-15 relative of exact
with an 80-bit long double (in float64, as on Windows and macOS arm64, off
by up to 9e-13 at plane n = 64).  Each cell reads its symmetry class's sum,
so cells related by a reflection or a transpose have bitwise-equal masses.
Plane n = 64 builds in about 0.06 s, n = 128 in 0.3-0.4 s (2 cores).

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
import numpy.fft

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

# One (rows x M) float64 block temporary of the energy module's pair pass
# stays near this size, and the block's working set in cache.
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class KernelTable:
    """Pairwise singular kernel plus exterior-interaction mass for a grid."""

    grid: Grid
    params: FracParams
    ext_radius: float
    exterior_mass: np.ndarray  # (M,)
    stencil: np.ndarray        # T[|a|, |b|] for offsets 0 .. n + layers - 1 per axis
    row_source: np.ndarray     # kernel rows as runs: (2n - 1,) line, (n, 2n - 1, n) plane

    @property
    def cell_measure(self) -> float:
        return self.grid.cell_measure

    @functools.cached_property
    def kernel_rows(self) -> np.ndarray:
        """Read-only kernel rows K[l n + q, c] = kernel_rows[l, q, c], views of
        ``row_source``: (1, n, n) on the line (row i starts at n - 1 - i), (n, n, M)
        on the plane (row (i1, i2) at i2 (2n - 1) n + (n - 1 - i1) n), copied
        contiguous when one pair-pass block (``_BLOCK_BYTES``) holds them.  Only
        the energy module's pair pass and ``dense_kernel`` read them."""
        n, cells = self.grid.cells_per_dim, self.grid.n_cells
        windows = np.lib.stride_tricks.sliding_window_view
        if self.grid.dim == 1:
            rows = windows(self.row_source, n)[None, ::-1]
        else:
            rows = windows(self.row_source.reshape(n, -1), cells, axis=1)
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
        """Three float64 arrays, d, |d| and q, the size of the energy module's
        largest pair-pass block: every pass fills views of them instead of
        allocating, so a table runs one pass at a time (``ordered_map`` is serial)."""
        from .energy import _row_blocks  # energy imports this module
        cells = self.grid.n_cells
        _top, height = _row_blocks(cells, self.grid.cells_per_dim)[0]
        return tuple(np.empty(height * cells) for _ in range(3))

    @functools.cached_property
    def p2_operator(self):
        """The p = 2 energy matrix as FFT products (``energy.P2Operator``),
        built on first use and kept with the table."""
        from .energy import P2Operator  # energy imports this module

        return P2Operator(self)


def _ring_layers(grid: Grid, ext_radius: float) -> int:
    """Number of cell layers the exterior ring adds on each side of the box."""
    return int(math.ceil((ext_radius - grid.half_width) / grid.spacing - 1e-12))


def _fft_period(reach: int) -> int:
    """A power of two at least 2 reach + 1, the signed stencil's length."""
    return 1 << (2 * reach).bit_length()


def _stencil_symbol(stencil: np.ndarray, reach: int, dtype, origin: int = 0) -> np.ndarray:
    """Spectrum of the circulant embedding that holds T[|k|] at index
    (origin + k) mod the period for the signed offsets |k| <= reach of each
    axis, and zero elsewhere.  Its product with x at cell c + origin is
    sum_j T[|c - j|] x_j, with no wrapped term, when every cell j of x lies
    within reach of c.  Rows that are zero transform to zero, so the last
    axis is transformed on the 2 reach + 1 others only."""
    dim, period = stencil.ndim, _fft_period(reach)
    signed = np.arange(-reach, reach + 1)
    rows = (origin + signed) % period
    spec = np.zeros((2 * reach + 1,) * (dim - 1) + (period,), dtype)
    spec[..., rows] = stencil.astype(dtype)[np.ix_(*[np.abs(signed)] * dim)]
    spec = np.fft.rfft(spec)
    for axis in range(dim - 1):
        full = np.zeros(spec.shape[:axis] + (period,) + spec.shape[axis + 1:], spec.dtype)
        full[(slice(None),) * axis + (rows,)] = spec
        spec = np.fft.fft(full, axis=axis)
    return spec


def _circulant(x: np.ndarray, symbol: np.ndarray, window: tuple) -> np.ndarray:
    """``window`` of the circulant with spectrum ``symbol`` applied to x
    zero-padded to the period; x's axes beyond the symbol's hold a block."""
    axes = tuple(range(symbol.ndim))
    shape = (2 * (symbol.shape[-1] - 1),) * symbol.ndim
    spec = np.fft.rfftn(x, shape, axes)
    spec *= symbol.reshape(symbol.shape + (1,) * (x.ndim - symbol.ndim))
    return np.fft.irfftn(spec, shape, axes)[window]


def _ring_sums(stencil: np.ndarray, n: int, layers: int) -> np.ndarray:
    """sum_r T[|c - r|] over the ring cells r for every box cell c, shape (n,)*dim:
    the ring's indicator on the extended box convolved with the stencil, in
    long double, offset 0 at index reach (at index 0, the even embedding's
    roundoff moves exterior masses by up to 2 ulps on lines of 256 cells and more)."""
    reach = n + layers - 1  # the farthest ring cell from a box cell
    ring = np.pad(np.zeros((n,) * stencil.ndim, np.longdouble), layers, constant_values=1.0)
    symbol = _stencil_symbol(stencil, reach, np.longdouble, origin=reach)
    box = slice(layers + reach, layers + reach + n)
    return _circulant(ring, symbol, (box,) * stencil.ndim).astype(float)


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
    """Peak bytes of a build: the stencil, the larger of the ring sums' FFT
    buffers (at most six long-double arrays of the period's size) and the
    kernel's row source, which never coexist, and eight float64 vectors per
    cell (4.5 are used at plane n = 192)."""
    n, dim = grid.cells_per_dim, grid.dim
    fft = 6 * 16 * _fft_period(n + layers - 1) ** dim
    source = 8 * (2 * n - 1) * n ** (2 * dim - 2)
    return 8 * (n + layers) ** dim + max(source, fft) + 8 * 8 * grid.n_cells


def build_kernel_table(grid: Grid, fp: FracParams, ext_radius: float) -> KernelTable:
    """Assemble the kernel's row source and exterior mass for (grid, s, p).

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
    # the stencil holds the only powers taken, out to the farthest ring cell;
    # offset 0 gives the zero diagonal
    sq = np.arange(n + layers) ** 2
    stencil = grid.spacing * np.sqrt((sq if dim == 1 else sq[:, None] + sq).astype(float))
    stencil.flat[0] = np.inf
    stencil **= -(dim + fp.sp)
    stencil.setflags(write=False)

    # the FFT leaves reflected cells ulps apart, so every cell reads the sum
    # of its class's representative: folded coordinates min(l, n-1-l) per
    # axis, in ascending order on the plane
    fold = np.ix_(*[np.minimum(np.arange(n), np.arange(n)[::-1])] * dim)
    if dim == 2:
        fold = (np.minimum(*fold), np.maximum(*fold))
    outer = grid.half_width + layers * grid.spacing
    # rho exists before the FFT buffers, so no array that outlives them is
    # placed above them on the heap and their pages are returned on release
    rho = tail_mass(grid.dim, fp.sp, outer - grid.radii())
    rho += _ring_sums(stencil, n, layers)[fold].ravel() * grid.cell_measure
    rho.setflags(write=False)

    # C[i2, k, j2] = T[|k - (n - 1)|, |i2 - j2|] on the plane, T[|k - (n - 1)|] on the line
    off = np.abs(np.arange(1 - n, n))
    inner = None if dim == 1 else np.abs(np.arange(n)[:, None, None] - np.arange(n))
    source = stencil[off] if dim == 1 else stencil[off[:, None], inner]
    source.setflags(write=False)
    return KernelTable(
        grid=grid,
        params=fp,
        ext_radius=float(outer),
        exterior_mass=rho,
        stencil=stencil,
        row_source=source,
    )
