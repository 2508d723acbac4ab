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
                            reproduces E(u) exactly;
* ``gateaux``               the bilinear-in-v form (1/p) d/dt E(u + t v)|_0;
* ``frac_p_laplacian_apply``the weak residual density gateaux(u, e_i)/m;
* ``rayleigh_quotient``     E(u) divided by the weighted p-mass.

All pair sums come from one private pass, ``_pair_sums``, that visits each
unordered pair once and forms no M x M temporary.  It walks row blocks
[a, b) against the columns [a, M); the block height is at most
max(1, 256 KiB // (8 M)) rows, so one block, in buffers kept on the table,
stays near 256 KiB whatever the grid; grids of up to 181 cells fit in one.  A
block covers whole runs of n rows of ``KernelTable.kernel_rows``, or rows of one run.
Its kinds are the pair energy, the per-cell densities of
``nonlocal_gradient``, the flux behind the Gateaux vector, and energy and
flux together ("both"), which ``raw_energy(..., with_gateaux=True)``
returns for the capacity solve's trials.  ``gateaux(u, v)`` is
v . gateaux_vector(u).

Each pair takes a single power, q = |u_i - u_j|^(p-1); the energy term
|d|^p is q |d| and the flux phi(d) is copysign(q, d).  At p = 2 none is
taken (q = d), so the p = 2 sums are those of d*d and d.

At p = 2 the energy is a quadratic form u^T A u.  ``P2Operator``, the one
operator of the p = 2 solves, applies A and a circulant preconditioner by
FFT through the grid module's circulant embedding of the kernel table's
stencil; ``stiffness_matrix`` is its dense reference.  Only the pair pass
and ``KernelTable.dense_kernel`` read the kernel rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import (_BLOCK_BYTES, GridFunction, KernelTable, _check_fits, _circulant,
                   _stencil_symbol, same_grid)


@dataclass(frozen=True)
class SeminormValue:
    value: float
    interior_part: float
    boundary_part: float


def _check(u: GridFunction, kt: KernelTable) -> None:
    if u.grid.n_cells != kt.grid.n_cells or u.grid.dim != kt.grid.dim:
        raise DomainError("grid function does not live on the kernel table's grid")
    if u.grid.half_width != kt.grid.half_width:
        raise DomainError("grid function does not live on the kernel table's grid")


def _phi(t: np.ndarray, p: float) -> np.ndarray:
    """|t|^(p-2) t with the continuous extension 0 at t = 0 (valid for p > 1)."""
    return np.sign(t) * np.abs(t) ** (p - 1.0)


def _row_blocks(size: int, run: int) -> list:
    """Row blocks [a, b) of at most max(1, _BLOCK_BYTES // (8 size)) rows:
    whole runs of ``run`` rows, or rows of one run, never straddling two."""
    height = max(1, _BLOCK_BYTES // (8 * size))
    if height >= run:
        height -= height % run
        return [(a, min(a + height, size)) for a in range(0, size, height)]
    return [(a, min(a + height, r + run)) for r in range(0, size, run)
            for a in range(r, r + run, height)]


def _pair_sums(vals: np.ndarray, kt: KernelTable, kind: str):
    """One pass over the unordered pairs i <= j of g(u_i - u_j) K[i,j].

    ``kind`` selects the output:

    * ``"energy"``   the sum over ordered pairs of |u_i - u_j|^p K[i,j];
    * ``"density"``  its row sums, sum_j |u_i - u_j|^p K[i,j] for each i;
    * ``"flux"``     the row sums sum_j phi(u_i - u_j) K[i,j];
    * ``"both"``     the pair (energy, flux), from the same blocks.

    Each pair takes one power, q = |d|^(p-1) of d = u_i - u_j, and the
    rest is derived from it: |d|^p = q |d| and phi(d) = copysign(q, d).
    At p = 2 no power is taken: |d|^p is d*d and phi(d) is d itself.
    d, |d| and q are views of ``KernelTable.pair_buffers``: one pass at a time.

    Row block [a, b) meets columns [a, M).  On the square [a, b) x [a, b)
    both orders of every pair are present; each pair to its right appears
    once and stands for its mirror too, which equals it for the even
    |t|^p and is its negative for the odd phi(t).  So the right part is
    counted twice in the energy, and its column sums are added to
    (density) or subtracted from (flux) the rows [b, M).  A grid that fits
    in one block gives the same sums, bit for bit, as a dense M x M sum.
    """
    p = kt.params.p
    kern = kt.kernel_rows
    run, size = kern.shape[1:]
    even = kind != "flux"
    odd = kind in ("flux", "both")
    total = 0.0
    rows = np.zeros(size)
    for a, b in _row_blocks(size, run):
        d, mag, q = (buf[:(b - a) * (size - a)].reshape(b - a, size - a)
                     for buf in kt.pair_buffers)
        # d = u_i - u_j; filling, then subtracting in place, runs faster
        # than numpy's two-way broadcast subtraction
        d[:] = vals[a:b, None]
        d -= vals[a:]
        if p == 2.0:
            q = d
            if even:
                power = np.square(d, out=mag if odd else d)
        else:
            mag = np.abs(d, out=mag if odd else d)
            np.power(mag, p - 1.0, out=q)
            if even:
                power = np.multiply(q, mag, out=mag)
            if odd:
                np.copysign(q, d, out=q)
        # kernel rows [a, b) x [a, M) as (runs, rows, M - a); [...] *= is in place
        block = kern[a // run:(b - 1) // run + 1, a % run:(b - 1) % run + 1, a:]
        if even:
            power.reshape(block.shape)[...] *= block
            if kind == "density":
                rows[a:b] += power.sum(axis=1)
                rows[b:] += power[:, b - a:].sum(axis=0)
            else:
                # twice the block, less the square that already holds both orders
                total += 2.0 * power.sum() - power[:, :b - a].sum()
        if odd:
            # q is now phi(d)
            q.reshape(block.shape)[...] *= block
            rows[a:b] += q.sum(axis=1)
            rows[b:] -= q[:, b - a:].sum(axis=0)
    if kind == "energy":
        return total
    return (total, rows) if kind == "both" else rows


def _energy_parts(vals: np.ndarray, kt: KernelTable, pairs: float) -> tuple[float, float]:
    """Interior and boundary parts of E(u), given the pair sum of _pair_sums."""
    p = kt.params.p
    m = kt.cell_measure
    interior = float(pairs * m * m)
    boundary = float(2.0 * (np.abs(vals) ** p * kt.exterior_mass).sum() * m)
    return interior, boundary


def _gateaux_from_flux(vals: np.ndarray, kt: KernelTable, flux: np.ndarray) -> np.ndarray:
    p = kt.params.p
    m = kt.cell_measure
    return 2.0 * flux * m * m + 2.0 * _phi(vals, p) * kt.exterior_mass * m


def raw_energy(vals: np.ndarray, kt: KernelTable, with_gateaux: bool = False):
    """E(u) on a bare value array; no validation, used by inner solver loops.

    With ``with_gateaux`` it returns (E(u), raw_gateaux_vector(u)), both
    from one pair pass.
    """
    if not with_gateaux:
        interior, boundary = _energy_parts(vals, kt, _pair_sums(vals, kt, "energy"))
        return interior + boundary
    pairs, flux = _pair_sums(vals, kt, "both")
    interior, boundary = _energy_parts(vals, kt, pairs)
    return interior + boundary, _gateaux_from_flux(vals, kt, flux)


def raw_gateaux_vector(vals: np.ndarray, kt: KernelTable) -> np.ndarray:
    """gateaux(u, e_i) on a bare value array; equals (1/p) grad E(u)."""
    return _gateaux_from_flux(vals, kt, _pair_sums(vals, kt, "flux"))


def seminorm_p(u: GridFunction, kt: KernelTable) -> SeminormValue:
    """Evaluate E(u), split into interior and boundary parts."""
    _check(u, kt)
    interior, boundary = _energy_parts(u.values, kt, _pair_sums(u.values, kt, "energy"))
    return SeminormValue(value=interior + boundary,
                         interior_part=interior,
                         boundary_part=boundary)


def nonlocal_gradient(u: GridFunction, kt: KernelTable) -> GridFunction:
    """The field |Du|(x_i), the p-th root of the per-cell energy density."""
    _check(u, kt)
    p = kt.params.p
    vals = u.values
    dens = _pair_sums(vals, kt, "density") * kt.cell_measure
    dens = dens + np.abs(vals) ** p * kt.exterior_mass
    return GridFunction(u.grid, dens ** (1.0 / p))


def gateaux_vector(u: GridFunction, kt: KernelTable) -> np.ndarray:
    """gateaux(u, e_i) for every basis direction at once.

    Component i equals 2 sum_j phi(u_i - u_j) K[i,j] m^2 + 2 phi(u_i) rho_i m,
    where phi(t) = |t|^(p-2) t.
    """
    _check(u, kt)
    return raw_gateaux_vector(u.values, kt)


def gateaux(u: GridFunction, v: GridFunction, kt: KernelTable) -> float:
    """(1/p) d/dt E(u + t v) at t = 0.

    The pair term sum_{i,j} phi(u_i - u_j) (v_i - v_j) K[i,j] folds to
    2 sum_i v_i sum_j phi(u_i - u_j) K[i,j] because phi(u_i - u_j) K[i,j] is
    antisymmetric, so the form is v . gateaux_vector(u).
    """
    _check(u, kt)
    same_grid(u, v)
    return float(v.values @ raw_gateaux_vector(u.values, kt))


def frac_p_laplacian_apply(u: GridFunction, kt: KernelTable) -> GridFunction:
    """Weak residual density: gateaux(u, e_i) divided by the cell measure."""
    return GridFunction(u.grid, gateaux_vector(u, kt) / kt.cell_measure)


def raw_weighted_mass(vals: np.ndarray, wvals: np.ndarray, p: float, m: float) -> float:
    """W(u) = sum_i w_i |u_i|^p m on bare value arrays; no validation."""
    return float((wvals * np.abs(vals) ** p).sum() * m)


def weighted_mass(u: GridFunction, w: GridFunction, kt: KernelTable) -> float:
    """W(u) = sum_i w_i |u_i|^p m."""
    _check(u, kt)
    same_grid(u, w)
    return raw_weighted_mass(u.values, w.values, kt.params.p, kt.cell_measure)


def rayleigh_quotient(u: GridFunction, w: GridFunction, kt: KernelTable) -> float:
    """E(u) / W(u); defined only where the weighted mass is positive."""
    wu = weighted_mass(u, w, kt)
    if wu <= 0.0:
        raise DomainError(f"weighted p-mass is {wu}; the quotient requires W(u) > 0")
    return seminorm_p(u, kt).value / wu


# Peak float64 M x M arrays of the dense p = 2 oracle, while eigh runs: L^-1,
# C, eigh's copy of C, its eigenvectors and its 2 M^2 workspace.
_ORACLE_SQUARES = 6


class P2Operator:
    """The p = 2 energy matrix A = 2 m^2 (diag(r) - K) + 2 m diag(rho) by FFT.

    K depends only on the cell offset, so it is Toeplitz on the line and
    BTTB on the plane.  Its stencil over the signed offsets 1-n .. n-1 of
    each axis, in the grid module's even circulant embedding, multiplies a
    zero-padded field exactly.  ``symbol`` is that circulant's spectrum,
    which also gives the row sums r = K 1 on A's diagonal.

    ``precondition`` applies the inverse of the same embedding of
    c I - 2 m^2 K to the zero-padded field and keeps the box cells, after
    T. Chan's circulant preconditioners (SIAM J. Sci. Stat. Comput. 9,
    1988).  c is the median of A's diagonal, which is within a few percent
    of constant on every grid tried, so A is nearly Toeplitz.  The
    circulant's spectrum ``preconditioner_symbol`` is positive (asserted),
    so the preconditioner is symmetric positive definite.

    Build it through ``KernelTable.p2_operator``, which keeps one per table.
    """

    def __init__(self, kt: KernelTable):
        if kt.params.p != 2.0:
            raise DomainError("the p = 2 energy matrix exists only for p = 2")
        n, dim = kt.grid.cells_per_dim, kt.grid.dim
        self.shape, self._window = (n,) * dim, (slice(0, n),) * dim
        # offsets beyond n - 1 pair no two box cells; offset 0 at index 0
        # makes the embedding even in every axis, so its spectrum is real
        self.symbol = np.ascontiguousarray(_stencil_symbol(kt.stencil, n - 1, float).real)
        self._scale = 2.0 * kt.cell_measure**2
        self.diagonal = (self._scale * self.kernel_product(np.ones(kt.grid.n_cells))
                         + 2.0 * kt.cell_measure * kt.exterior_mass)
        # np.median's arithmetic, without its import of numpy.ma
        middle = np.sort(self.diagonal)[[(kt.grid.n_cells - 1) // 2, kt.grid.n_cells // 2]]
        self.preconditioner_symbol = float(middle.mean()) - self._scale * self.symbol
        assert self.preconditioner_symbol.min() > 0.0, "the preconditioner is not positive"
        self._inverse_symbol = 1.0 / self.preconditioner_symbol

    def _product(self, x: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        box = x.reshape(self.shape + x.shape[1:])
        return _circulant(box, symbol, self._window).reshape(x.shape)

    def kernel_product(self, x: np.ndarray) -> np.ndarray:
        """K x for a field (M,) or a block of fields (M, k)."""
        return self._product(x, self.symbol)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for a field (M,) or a block of fields (M, k)."""
        diag = self.diagonal.reshape(self.diagonal.shape + (1,) * (x.ndim - 1))
        return diag * x - self._scale * self.kernel_product(x)

    def precondition(self, x: np.ndarray) -> np.ndarray:
        """The circulant approximation of A^-1 applied to x, (M,) or (M, k)."""
        return self._product(x, self._inverse_symbol)


def stiffness_matrix(kt: KernelTable) -> np.ndarray:
    """Dense symmetric matrix A with u^T A u = E(u) when p = 2.

    Refused before any allocation when the dense oracle built on it would
    not fit in physical memory.
    """
    if kt.params.p != 2.0:
        raise DomainError("the quadratic stiffness matrix exists only for p = 2")
    cells = kt.grid.n_cells
    _check_fits(8 * _ORACLE_SQUARES * cells**2, f"a dense oracle for {cells} cells")
    m = kt.cell_measure
    a = kt.dense_kernel()
    # the diagonal from this copy's own row sums keeps the oracle independent of the FFT path
    diagonal = 2.0 * m * m * a.sum(axis=1) + 2.0 * m * kt.exterior_mass
    a *= -2.0 * m * m
    a[np.diag_indices(cells)] = diagonal
    return a
