"""Nonlocal energy of a grid function and its first-order machinery.

For a piecewise-constant field u on the grid, the p-energy is the discrete
double integral over ordered pairs of cells plus the interaction with the
zero exterior:

    E(u) = sum_{i != j} |u_i - u_j|^p K[i,j] m^2  +  2 sum_i |u_i|^p rho_i m

with m the cell measure.  The within-cell contribution vanishes for
piecewise-constant u, which is why the kernel diagonal is zero.  The factor
2 on the boundary part counts both orders (x inside, y outside).

Everything else here is a derivative of E:

* ``nonlocal_gradient``     the field |Du|(x_i) with |Du|^p(x_i)
                            = sum_j |u_i-u_j|^p K[i,j] m + |u_i|^p rho_i,
                            so that sum_i |Du|^p(x_i) m + sum_i |u_i|^p rho_i m
                            reproduces E(u) exactly, a sum of non-negative
                            terms; ``energy_and_nonlocal_gradient`` returns
                            that E(u) with the field;
* ``gateaux``               the bilinear-in-v form (1/p) d/dt E(u + t v)|_0.

All pair sums come from one private pass, ``_pair_sums``, that visits each
unordered pair once and forms no M x M temporary.  It walks row blocks
[a, b) against the columns [a, M), whole runs of n rows of
``KernelTable.kernel_rows`` or rows of one run, at most
max(1, 256 KiB // (8 M)) rows high (grids of up to 181 cells fit in one),
kept on the table with two buffers (``grid._row_blocks``,
``KernelTable.pair_buffers``).  Its "flux" kind forms F = phi(d) K of
d = u_i - u_j and returns F's row sums and the pair energy, the dot of F
with d, whose terms |d|^p K are all non-negative; taken instead as u . g(u)
by Euler's identity, the energy would cancel on a field far from zero.
``raw_energy`` (the energy and the Gateaux vector, which is all
``gateaux_vector`` reads) makes this one pass.  Its "energy" kind, for
``seminorm_p``, forms no row or column sums and returns the same energy bit
for bit, in 70-80 % of the flux pass's time (line n = 64 and 768, plane
n = 16 to 36; 2-core x86-64, one BLAS thread).  Its "density" kind sums
F d per cell for ``nonlocal_gradient``; the gradient command reads E(u)
from that same pass and makes no flux pass.  phi(d)
takes at most one power: it is d at p = 2, |d|^(p-2) d above and
copysign(|d|^(p-1), d) below.
``raw_energy``'s two boundary terms, |u|^p rho and phi(u) rho, likewise
share the one power |u|^(p-1).  ``gateaux(u, v)`` is v . gateaux_vector(u).

At p = 2 the energy is a quadratic form u^T A u.  ``P2Operator``, the one
operator of the p = 2 solves, applies A and a circulant preconditioner
through its own circulant embedding of the kernel table's stencil: by FFT,
or, where an (M, M) matrix fits one pair-pass block (M <= 181), by the two
circulants' box blocks gathered once from their first columns, one matrix
product each; ``stiffness_matrix`` is its dense reference.  The kernel
rows are read by the pair pass, the capacity solve's Newton Hessian, and
``KernelTable.dense_kernel``, which serves only the dense oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.fft

from .errors import DomainError
from .grid import _BLOCK_BYTES, GridFunction, KernelTable, _check_fits, same_grid


@dataclass(frozen=True)
class SeminormValue:
    value: float
    interior_part: float
    boundary_part: float


def _phi(t: np.ndarray, p: float) -> np.ndarray:
    """|t|^(p-2) t with the continuous extension 0 at t = 0 (valid for p > 1)."""
    return np.sign(t) * np.abs(t) ** (p - 1.0)


def _pair_sums(vals: np.ndarray, kt: KernelTable, kind: str):
    """One pass over the unordered pairs i <= j of F = phi(u_i - u_j) K[i,j].

    ``kind`` "flux" returns (the sum over ordered pairs of
    |u_i - u_j|^p K[i,j], the row sums sum_j F[i,j]); "energy" returns that
    sum alone, bit for bit, and forms no row sums; "density" returns the
    row sums sum_j |u_i - u_j|^p K[i,j].  The row blocks are
    ``_row_blocks``'s, kept in ``KernelTable.pair_buffers`` with the buffers
    that d and F view: one pass at a time.

    Row block [a, b) meets columns [a, M).  On the square [a, b) x [a, b)
    both orders of every pair are present; each pair to its right appears
    once and stands for its mirror too, which negates the odd F and keeps
    the even F d.  So the energy takes twice the block less the square, and
    the right part's column sums are subtracted from (flux) or added to
    (density) the rows [b, M).
    """
    if kind not in ("flux", "energy", "density"):
        raise ValueError(f"unknown pair-sum kind {kind!r}")
    p = kt.params.p
    kern = kt.kernel_rows
    run, size = kern.shape[1:]
    with_energy, with_rows = kind != "density", kind != "energy"
    mirror = -1.0 if with_energy else 1.0  # F is odd in d, F d even
    energy = 0.0
    rows = np.zeros(size) if with_rows else None
    blocks, *buffers = kt.pair_buffers
    for a, b in blocks:
        flat_d, flat_f = (buf[:(b - a) * (size - a)] for buf in buffers)
        d, f = flat_d.reshape(b - a, size - a), flat_f.reshape(b - a, size - a)
        # d = u_i - u_j; filling, then subtracting in place, runs faster
        # than numpy's two-way broadcast subtraction
        d[:] = vals[a:b, None]
        d -= vals[a:]
        # kernel rows [a, b) x [a, M) as (runs, rows, M - a), a view that may
        # not reshape, so the buffers take its shape; f is made F = phi(d) K
        block = kern[a // run:(b - 1) // run + 1, a % run:(b - 1) % run + 1, a:]
        if p == 2.0:
            np.multiply(d.reshape(block.shape), block, out=f.reshape(block.shape))
        else:
            np.abs(d, out=f)
            if p > 2.0:  # |d|^(p-2) is finite, and a product beats copysign
                if p != 3.0:  # x**1.0 is x, but numpy still takes the power
                    f **= p - 2.0
                f *= d
            else:
                f **= p - 1.0
                np.copysign(f, d, out=f)
            f.reshape(block.shape)[...] *= block
        if with_energy:
            pairs = float(flat_f @ flat_d)
            # twice the block, less the square that already holds both orders
            square = pairs if b == size else np.einsum("ij,ij->", f[:, :b - a], d[:, :b - a])
            energy += 2.0 * pairs - float(square)
        else:
            f *= d  # F d = |d|^p K
        if with_rows:
            rows[a:b] += f.sum(axis=1)
            if b < size:
                rows[b:] += mirror * f[:, b - a:].sum(axis=0)
    if not with_rows:
        return energy
    return (energy, rows) if with_energy else rows


def _energy_parts(kt: KernelTable, pairs: float, size_p: np.ndarray) -> tuple[float, float]:
    """Interior and boundary parts of E(u), given the pair sum of _pair_sums
    and |u|^p."""
    m = kt.cell_measure
    interior = float(pairs * m * m)
    boundary = float(2.0 * (size_p * kt.exterior_mass).sum() * m)
    return interior, boundary


def raw_energy(vals: np.ndarray, kt: KernelTable) -> tuple[float, np.ndarray]:
    """(E(u), gateaux(u, e_i) for every i) on a bare value array, both from
    one pair pass; no validation, used by inner solver loops.

    Both boundary terms take one power, as the pass does: |u|^p is
    |u|^(p-1) |u| and phi(u) is copysign(|u|^(p-1), u).  At p = 2 the power
    is |u| exactly, and |u| |u| and copysign(|u|, u) are |u|^2 and phi(u)
    bit for bit.
    """
    pairs, flux = _pair_sums(vals, kt, "flux")
    m = kt.cell_measure
    size = np.abs(vals)
    power = size ** (kt.params.p - 1.0)
    interior, boundary = _energy_parts(kt, pairs, power * size)
    return interior + boundary, (2.0 * flux * m * m
                                 + 2.0 * np.copysign(power, vals) * kt.exterior_mass * m)


def seminorm_p(u: GridFunction, kt: KernelTable) -> SeminormValue:
    """Evaluate E(u), split into interior and boundary parts."""
    same_grid(u, kt)
    vals = u.values
    interior, boundary = _energy_parts(kt, _pair_sums(vals, kt, "energy"),
                                       np.abs(vals) ** kt.params.p)
    return SeminormValue(value=interior + boundary,
                         interior_part=interior,
                         boundary_part=boundary)


def energy_and_nonlocal_gradient(u: GridFunction,
                                 kt: KernelTable) -> tuple[float, GridFunction]:
    """(E(u), the field |Du|) from one density pass: E(u) is the cell sum of
    |Du|^p m plus the other half of the boundary part, sum_i |u_i|^p rho_i m."""
    same_grid(u, kt)
    p = kt.params.p
    m = kt.cell_measure
    vals = u.values
    outside = np.abs(vals) ** p * kt.exterior_mass
    dens = _pair_sums(vals, kt, "density") * m + outside
    return float((dens.sum() + outside.sum()) * m), GridFunction(u.grid, dens ** (1.0 / p))


def nonlocal_gradient(u: GridFunction, kt: KernelTable) -> GridFunction:
    """The field |Du|(x_i), the p-th root of the per-cell energy density."""
    return energy_and_nonlocal_gradient(u, kt)[1]


def gateaux_vector(u: GridFunction, kt: KernelTable) -> np.ndarray:
    """gateaux(u, e_i) for every basis direction at once.

    Component i equals 2 sum_j phi(u_i - u_j) K[i,j] m^2 + 2 phi(u_i) rho_i m,
    where phi(t) = |t|^(p-2) t.
    """
    same_grid(u, kt)
    return raw_energy(u.values, kt)[1]


def gateaux(u: GridFunction, v: GridFunction, kt: KernelTable) -> float:
    """(1/p) d/dt E(u + t v) at t = 0.

    The pair term sum_{i,j} phi(u_i - u_j) (v_i - v_j) K[i,j] folds to
    2 sum_i v_i sum_j phi(u_i - u_j) K[i,j] because phi(u_i - u_j) K[i,j] is
    antisymmetric, so the form is v . gateaux_vector(u).
    """
    same_grid(u, v)
    return float(v.values @ gateaux_vector(u, kt))


def raw_weighted_mass(vals: np.ndarray, wvals: np.ndarray, p: float, m: float) -> float:
    """W(u) = sum_i w_i |u_i|^p m on bare value arrays; no validation."""
    return float((wvals * np.abs(vals) ** p).sum() * m)


def weighted_mass(u: GridFunction, w: GridFunction, kt: KernelTable) -> float:
    """W(u) = sum_i w_i |u_i|^p m."""
    same_grid(u, kt)
    same_grid(u, w)
    return raw_weighted_mass(u.values, w.values, kt.params.p, kt.cell_measure)


class P2Operator:
    """The p = 2 energy matrix A = 2 m^2 (diag(r) - K) + 2 m diag(rho).

    K depends only on the cell offset, so it is Toeplitz on the line and
    BTTB on the plane.  Its stencil over the signed offsets 1-n .. n-1 of
    each axis, in an even circulant of power-of-two period, multiplies a
    zero-padded field exactly.  ``symbol`` is that circulant's spectrum,
    which also gives the row sums r = K 1 on A's diagonal.

    ``precondition`` applies the inverse of the same embedding of
    c I - 2 m^2 K to the zero-padded field and keeps the box cells, after
    T. Chan's circulant preconditioners (SIAM J. Sci. Stat. Comput. 9,
    1988).  c is the median of A's diagonal, which is within a few percent
    of constant on every grid tried, so A is nearly Toeplitz.  The
    circulant's spectrum ``preconditioner_symbol`` must be positive (a
    ``DomainError`` otherwise), so the preconditioner is symmetric positive
    definite.

    Both circulants multiply by FFT, except where an (M, M) float64 matrix
    fits one pair-pass block (``grid._BLOCK_BYTES``, M <= 181): there each
    is gathered once from its first column, at the cell offsets
    (i - j) mod period (the preconditioner's then averaged with its
    transpose), and a product is one matrix product, 1.2 us
    against 15 us for the FFT round trip at line n = 64 (2-core x86-64,
    one BLAS thread).  The FFT wins by line n = 768 (35 us against 189 us).

    Build it through ``KernelTable.p2_operator``, which keeps one per table.
    """

    def __init__(self, kt: KernelTable):
        if kt.params.p != 2.0:
            raise DomainError("the p = 2 energy matrix exists only for p = 2")
        n, dim, cells = kt.grid.cells_per_dim, kt.grid.dim, kt.grid.n_cells
        self.shape, self._window = (n,) * dim, (slice(0, n),) * dim
        # offsets beyond n - 1 pair no two box cells; offset 0 at index 0
        # makes the embedding even in every axis, so its spectrum is real
        period = 1 << (2 * n - 2).bit_length()
        # the embedding, its spectrum and three real symbols
        _check_fits(5 * 8 * period**dim, f"the p = 2 operator of {cells} cells")
        self._period, self._axes = (period,) * dim, tuple(range(dim))
        signed = np.arange(1 - n, n)
        embedding = np.zeros(self._period)
        embedding[np.ix_(*[signed % period] * dim)] = kt.stencil[np.ix_(*[np.abs(signed)] * dim)]
        self.symbol = np.ascontiguousarray(np.fft.rfftn(embedding).real)
        dense = 8 * cells**2 <= _BLOCK_BYTES
        self._kernel = self._gathered(embedding) if dense else None
        self._scale = 2.0 * kt.cell_measure**2
        self.diagonal = (self._scale * self.kernel_product(np.ones(cells))
                         + 2.0 * kt.cell_measure * kt.exterior_mass)
        self.preconditioner_symbol = float(np.median(self.diagonal)) - self._scale * self.symbol
        if not self.preconditioner_symbol.min() > 0.0:
            raise DomainError("the preconditioner is not positive")
        self._inverse_symbol = 1.0 / self.preconditioner_symbol
        self._inverse = None
        if dense:
            # the inverse FFT leaves the column even only to roundoff; the mean
            # with the transpose is exactly symmetric, as CG and LOBPCG take it
            inverse = self._gathered(np.fft.irfftn(self._inverse_symbol, self._period, self._axes))
            self._inverse = 0.5 * (inverse + inverse.T)

    def _gathered(self, column: np.ndarray) -> np.ndarray:
        """The (M, M) box block of the circulant with first column ``column``:
        its entry at the cell offsets (i - j) mod period."""
        n, dim = self.shape[0], len(self.shape)
        lag = (np.arange(n)[:, None] - np.arange(n)) % self._period[0]
        index = (lag,) if dim == 1 else (lag[:, None, :, None], lag[None, :, None, :])
        return column[index].reshape(n**dim, n**dim)

    def _product(self, x: np.ndarray, symbol: np.ndarray, matrix) -> np.ndarray:
        """The circulant of spectrum ``symbol`` times x, (M,) or (M, k),
        zero-padded; by its gathered ``matrix`` when there is one."""
        if matrix is not None:
            return matrix @ x
        spec = np.fft.rfftn(x.reshape(self.shape + x.shape[1:]), self._period, self._axes)
        spec *= symbol.reshape(symbol.shape + (1,) * (x.ndim - 1))
        return np.fft.irfftn(spec, self._period, self._axes)[self._window].reshape(x.shape)

    def kernel_product(self, x: np.ndarray) -> np.ndarray:
        """K x for a field (M,) or a block of fields (M, k)."""
        return self._product(x, self.symbol, self._kernel)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for a field (M,) or a block of fields (M, k)."""
        diag = self.diagonal.reshape(self.diagonal.shape + (1,) * (x.ndim - 1))
        return diag * x - self._scale * self.kernel_product(x)

    def precondition(self, x: np.ndarray) -> np.ndarray:
        """The circulant approximation of A^-1 applied to x, (M,) or (M, k)."""
        return self._product(x, self._inverse_symbol, self._inverse)


def stiffness_matrix(kt: KernelTable) -> np.ndarray:
    """Dense symmetric matrix A with u^T A u = E(u) when p = 2.

    Refused before any allocation when it would not fit in physical
    memory; each dense oracle (``eigen._factor``) first checks all it holds.
    """
    if kt.params.p != 2.0:
        raise DomainError("the quadratic stiffness matrix exists only for p = 2")
    cells = kt.grid.n_cells
    _check_fits(8 * cells**2, f"a stiffness matrix of {cells} cells")
    m = kt.cell_measure
    a = kt.dense_kernel()
    # the diagonal from this copy's own row sums keeps the oracle independent of the FFT path
    diagonal = 2.0 * m * m * a.sum(axis=1) + 2.0 * m * kt.exterior_mass
    a *= -2.0 * m * m
    a[np.diag_indices(cells)] = diagonal
    return a
