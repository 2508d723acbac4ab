"""Weighted nonlocal eigenproblem: energy descent on the mass constraint.

The first eigenvalue is the minimum of the energy E(u) over the constraint
set { W(u) = sum_i w_i |u_i|^p m = 1 } with a signed weight w = w1 - w2
(w1, w2 >= 0), one ``GridFunction`` as in the capacity layer.  A weight
with no positive cell admits no unit-mass field, and each solver and oracle
refuses it before any solve (``_check_weight``).  The solver is the
spectral descent shared with the capacity solve (``descent.spectral_descent``)
along the tangent residual

    g_i = gateaux(u, e_i) - lam * w_i |u_i|^(p-2) u_i * m,   lam = E(u):

each trial steps u <- u - eta g and rescales it so W(u) = 1 exactly (the
constraint is p-homogeneous, so radial rescaling is exact and cheap), and
eta is halved until the weighted mass stays positive and the nonmonotone
Armijo test on the energy holds, against the largest of the last 10
accepted energies.  Note g is tangent to the constraint at u, since
<g, u> = E(u) - lam = 0.

Higher eigenvalues come from deflation: previously found eigenfunctions
u_k enter through the pairing pi_k(u) = sum_i w_i |u_k,i|^(p-2) u_k,i u_i m
(the natural dual pairing from the Euler-Lagrange right side).  The pairing
is linear in u for every p, so the deflated set { pi_k(u) = 0 for every
earlier level k } is a linear subspace: the start and the tangent residual
are projected onto it orthogonally, and every iterate stays in it exactly
(up to roundoff), since the unit-mass rescaling is radial.  For p = 2 this
reproduces the dense generalized eigensolver's spectrum; for general p the
levels are critical levels of the energy on the deflated constraint set,
not proven min-max levels.

Every start is built on S = {w > 0} (``_on_positive_part``): restricted to
S, projected there onto the deflated subspace and zero off S, so its
weighted mass is positive by construction and it is never redrawn.

At p = 2 the problem is the symmetric pencil A u = lam M u, with A the
energy matrix (positive definite) and M = diag(w m).  Each level is first
computed by LOBPCG (``_lobpcg``) for the largest mu = 1/lam of M x = mu A x,
with A applied through a circulant embedding and preconditioned by a
circulant (``energy.P2Operator``); LOBPCG's block holds the earlier levels and the
start.  Its iterate is projected, rescaled to unit mass and put to the
descent's own residual test; the descent above continues from it only if
the test fails, within the same iteration budget.  On the line at n = 768
with a signed weight, two levels take 31 steps in all, where the descent
alone took 208.

A dense p = 2 cross-check solves M v = mu A v with the assembled stiffness
matrix and diagonal weight matrix, restricted to directions of positive
weighted mass; it takes no FFT product, so it checks the LOBPCG path
independently.  Both oracles factor A = L L^T in place, block column by
block column (``_factor``), and apply L^-1 and L^-T by block substitution
(``_solve``).  ``oracle_levels`` returns the first few eigenvalues alone,
by Rayleigh-Ritz on a block Krylov space of C = L^-1 M L^-T, which it
never forms; ``linear_oracle`` (for the tests) forms C and returns every
eigenpair by ``numpy.linalg.eigh``.  On the line at n = 768 with a signed
weight, two levels take 18 ms against 74 ms for the full ``eigvalsh``
they replace (one BLAS thread), and A's factor is the only M x M array.

The pairwise comparison term of the discrete Picone inequality
(``picone_gap``), whose sign makes the first eigenfunction simple and of
one sign, is symmetric in the pair bit for bit.  ``_picone_minima`` forms
it once per unordered pair, in row blocks against the columns to their
right, for a stack of k field pairs at once: the verify suite's ``picone``
check passes its samples 32 at a time, ``picone_gap`` one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import numpy.random

from .descent import is_whole, spectral_descent, whole_at_least
from .energy import _phi, raw_energy, raw_weighted_mass, stiffness_matrix
from .errors import ConvergenceError, DomainError
from .grid import GridFunction, KernelTable, _check_fits, _row_blocks, same_grid


@dataclass(frozen=True)
class EigenOptions:
    tol: float = 1e-6              # relative weak residual
    max_iter: int = 50000
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise DomainError(f"tol must be finite and positive, got tol={self.tol}")
        object.__setattr__(self, "max_iter", whole_at_least(self.max_iter, 1, "max_iter"))
        object.__setattr__(self, "seed", whole_at_least(self.seed, 0, "seed"))


@dataclass(frozen=True)
class EigenResult:
    lam: float
    u: GridFunction
    residual: float
    iterations: int
    constraint_gap: float


def _check_weight(w: GridFunction, kt: KernelTable) -> None:
    """DomainError unless w lies on the table's grid and is positive in some
    cell: with w <= 0 everywhere no field has positive weighted mass."""
    same_grid(w, kt)
    if not np.any(w.values > 0):
        raise DomainError("the weight w must be positive in some cell")


def _projector(w: GridFunction, kt: KernelTable, previous, cells=slice(None)):
    """Orthogonal projection onto { v : b_k . v = 0 }, b_k = w phi(u_k) m,
    for the previous levels u_k, of fields on ``cells`` (all by default);
    the identity when there are none."""
    if not previous:
        return lambda v: v
    p, m = kt.params.p, kt.cell_measure
    q = np.linalg.qr(np.column_stack([w.values * _phi(res.u.values, p) * m
                                      for res in previous])[cells])[0]
    return lambda v: v - q @ (q.T @ v)


def _on_positive_part(w: GridFunction, kt: KernelTable, v: np.ndarray, previous=()) -> np.ndarray:
    """v on S = {w > 0}, projected there onto the subspace paired to zero
    with the ``previous`` levels, and zero off S: nonzero, it has positive
    weighted mass.  DomainError when S has no more cells than ``previous``
    or the result vanishes."""
    positive = w.values > 0
    if positive.sum() <= len(previous):
        raise DomainError(f"w > 0 on {positive.sum()} cells: no start of positive weighted "
                          f"mass is paired to zero with {len(previous)} earlier levels")
    out = np.zeros(kt.grid.n_cells)
    out[positive] = _projector(w, kt, previous, positive)(v[positive])
    if not np.any(out):
        raise DomainError("the start vanishes on {w > 0}")
    return out


def default_start(w: GridFunction, kt: KernelTable) -> np.ndarray:
    """A bump of width L/4 at the peak of w, zero off {w > 0}; it is 1 at the
    peak, so its weighted mass is at least max(w) m."""
    grid = kt.grid
    x0 = grid.centers[int(np.argmax(w.values))]
    d2 = ((grid.centers - x0) ** 2).sum(axis=1)
    return _on_positive_part(w, kt, np.exp(-d2 / (2.0 * (grid.half_width / 4) ** 2)))


def seeded_start(w: GridFunction, kt: KernelTable, rng: np.random.Generator) -> np.ndarray:
    """The default start plus Gaussian noise of 0.75 times its peak, zero off {w > 0}."""
    base = default_start(w, kt)
    noise = rng.standard_normal(kt.grid.n_cells)
    return _on_positive_part(w, kt, base + 0.75 * noise * float(np.max(np.abs(base))))


def _descend(w: GridFunction, kt: KernelTable, u0: np.ndarray, opts: EigenOptions,
             previous=()) -> EigenResult:
    """Spectral descent of the energy on unit mass, within the subspace
    paired to zero with the ``previous`` levels; at p = 2 it starts from
    LOBPCG's iterate (``_lobpcg``), and takes no step if that already passes
    the residual test.

    Returns the level, flipped so that its values sum to a non-negative
    number; raises ConvergenceError on stagnation or iteration exhaustion,
    carrying the last iterate as it stands.
    """
    p = kt.params.p
    m = kt.cell_measure
    wvals = w.values
    project = _projector(w, kt, previous)
    residual = np.inf

    # grad, the descent's aux, comes from the pair pass of the point's trial
    def direction(u, energy, grad):
        nonlocal residual
        residual_vec = project(grad - energy * wvals * _phi(u, p) * m)
        residual = float(np.max(np.abs(residual_vec))) / max(energy, 1e-300)
        return residual_vec, residual <= opts.tol, None

    def rescaled(v):
        """v rescaled to unit mass, with its energy and Gateaux vector, or
        None at non-positive mass."""
        mass = raw_weighted_mass(v, wvals, p, m)
        if mass <= 0:
            return None
        v = v / mass ** (1.0 / p)
        return (v, *raw_energy(v, kt))

    def trial(u, residual_vec, eta):
        if (point := rescaled(u - eta * residual_vec)) is None:
            return None
        cand, energy, grad = point
        return cand, energy, -eta * float(residual_vec @ residual_vec), grad

    def unit(v):
        """v projected and rescaled to unit mass, with its energy and Gateaux vector."""
        if (point := rescaled(project(v))) is None:
            raise DomainError("weighted p-mass is non-positive; iterate left the cone")
        return point

    u, energy, grad = unit(np.asarray(u0, dtype=float))
    its = 0
    # LOBPCG's basis [X, W, P] must fit in the M cells
    if p == 2.0 and kt.grid.n_cells >= 3 * (len(previous) + 1):
        x, its = _lobpcg(w, kt, u, energy, opts, previous)
        u, energy, grad = unit(x)
    u, energy, _grad, status, more = spectral_descent(u, energy, grad, direction, trial,
                                                      opts.max_iter - its)
    its += more
    if status == "converged":
        return _result_from(-u if u.sum() < 0 else u, energy, residual, its, w, kt)
    if status == "stalled":
        message = f"descent stagnated at residual {residual:.3e} (target {opts.tol:.1e})"
    else:
        message = (f"no convergence within {opts.max_iter} iterations "
                   f"(residual {residual:.3e}, target {opts.tol:.1e})")
    raise ConvergenceError(message, result=_result_from(u, energy, residual, its, w, kt))


_LOBPCG_STEPS = 500


def _a_orthonormal(basis: np.ndarray, a_basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """basis and A basis recombined so that basis^T A basis = I by SVQB, twice
    (Duersch, Shao, Yang & Gu, SIAM J. Sci. Comput. 40, 2018): the eigh of
    the Gram matrix scaled by diag(G)^-1/2, less its directions below 1e-12."""
    for _ in range(2):
        gram = basis.T @ a_basis
        scale = np.maximum(np.diag(gram), np.finfo(float).tiny) ** -0.5
        theta, vecs = np.linalg.eigh(scale[:, None] * gram * scale)
        keep = theta > 1e-12 * theta[-1]
        mix = scale[:, None] * vecs[:, keep] / np.sqrt(theta[keep])
        basis, a_basis = basis @ mix, a_basis @ mix
    return basis, a_basis


def _lobpcg(w: GridFunction, kt: KernelTable, u: np.ndarray, lam0: float, opts: EigenOptions,
            previous) -> tuple[np.ndarray, int]:
    """LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) for the largest
    mu = 1/lam of M x = mu A x at p = 2, with M = diag(w m).

    A enters by its circulant product and circulant preconditioner
    (``KernelTable.p2_operator``).  The block X holds the ``previous``
    levels and u (not written), and the level sought is the smallest of its
    k Ritz values: as constraints, levels that are eigenvectors only to the
    solve's tolerance would hold the residual above the target below.
    Each step takes the top k Ritz pairs in the basis [X, W, P], made
    A-orthonormal by ``_a_orthonormal``, with W the preconditioned residual
    and P the new block's part A-orthogonal to the old.  A is applied to
    the whole basis: products carried by recurrence lose A-orthogonality
    within a few steps, and the Ritz values then exceed the largest mu.

    X^T A X = I, so the descent's residual max|A u - lam M u| / lam of
    u = x / sqrt(mu) is sqrt(lam) max|M x - mu A x|.  No level of the block
    exceeds the start's level lam0, so stopping every column at the 2-norm
    opts.tol / sqrt(lam0) meets opts.tol.  Below its roundoff floor that
    never happens: at most ``_LOBPCG_STEPS`` steps are taken, 8 times the
    most any benchmark level took (63), so the descent has budget left.

    Returns the level's column and the number of preconditioned steps, at
    most ``opts.max_iter - 2``, so the caller's residual test runs at least
    once within the budget.
    """
    op = kt.p2_operator
    wm = (w.values * kt.cell_measure)[:, None]
    k = len(previous) + 1
    cap = min(opts.max_iter - 2, _LOBPCG_STEPS)
    basis = np.column_stack([r.u.values for r in previous] + [u])
    directions, steps = [], 0
    while True:
        basis, a_basis = _a_orthonormal(basis, op.apply(basis))
        mus, vecs = np.linalg.eigh(basis.T @ (wm * basis))
        mus, vecs = mus[:-k - 1:-1], vecs[:, :-k - 1:-1]  # the top k, descending
        new = basis @ vecs
        if steps:
            directions = [new - x @ (a_x.T @ new)]
        x, a_x = new, a_basis @ vecs
        residual = wm * x - a_x * mus
        if steps >= cap or np.linalg.norm(residual, axis=0).max() <= opts.tol / lam0**0.5:
            return x[:, -1], steps
        steps += 1
        basis = np.hstack([x, op.precondition(residual)] + directions)


def _result_from(u, lam, residual, iterations, w, kt) -> EigenResult:
    gap = abs(raw_weighted_mass(u, w.values, kt.params.p, kt.cell_measure) - 1.0)
    return EigenResult(lam=lam, u=GridFunction(kt.grid, u), residual=residual,
                       iterations=iterations, constraint_gap=gap)


def first_eigenpair(w: GridFunction, kt: KernelTable, opts: EigenOptions | None = None,
                    start: np.ndarray | None = None) -> EigenResult:
    """Minimize the energy over the unit-mass constraint set.

    The output is sign-normalized to be non-negative; a converged first
    eigenfunction has one sign, so only a global flip is ever applied.
    Pass ``-w`` for the negative spectrum: the returned level mu is then
    the eigenvalue -mu of the original problem.  A weight on another grid
    than the table's or with no positive cell, or a bad ``start``, raises
    DomainError.
    """
    opts = opts or EigenOptions()
    _check_weight(w, kt)
    u0 = default_start(w, kt) if start is None else GridFunction(kt.grid, start).values
    res = _descend(w, kt, u0, opts)
    if sign_structure(res.u) == "sign_changing":
        warnings.warn("first eigenfunction changes sign beyond tolerance; "
                      "the iterate may be a higher critical point")
    return res


_FACTOR_BLOCK = 128   # columns per block of the dense oracle's Cholesky factor
_BASIS_BLOCKS = 16    # Krylov basis of ``oracle_levels``, in start blocks
_RITZ_TOL = 1e-13     # Ritz residual over the largest |Ritz value|
_PRODUCTS_PER_CELL = 10  # products by C, per cell, before the Krylov solve gives up


def _factor(w: GridFunction, kt: KernelTable, extra: int) -> tuple[np.ndarray, list]:
    """A = L L^T for the dense oracle, with L written over the one dense copy
    of A (``stiffness_matrix``; its upper triangle zeroed), and the inverse
    of each diagonal block of L.  Refused before any allocation when A and
    the caller's ``extra`` bytes would not fit in physical memory.

    Left-looking by block columns of ``_FACTOR_BLOCK``: a block column
    takes the products of the factored columns left of it, its diagonal
    block is factored by ``numpy.linalg.cholesky`` and the panel below it
    is multiplied by that block's inverse transposed, so every temporary
    is one block column.
    """
    if kt.params.p != 2.0:
        raise DomainError("the dense oracle applies only to p = 2")
    _check_weight(w, kt)
    cells = kt.grid.n_cells
    _check_fits(8 * cells**2 + extra, f"a dense oracle for {cells} cells")
    low = stiffness_matrix(kt)
    inverses = []
    for a in range(0, cells, _FACTOR_BLOCK):
        b = a + _FACTOR_BLOCK
        low[a:, a:b] -= low[a:, :a] @ low[a:b, :a].T
        diagonal = np.linalg.cholesky(low[a:b, a:b])
        inverses.append(np.linalg.inv(diagonal))
        low[a:b, a:b] = diagonal
        low[b:, a:b] = low[b:, a:b] @ inverses[-1].T
        low[:a, a:b] = 0.0
    return low, inverses


def _solve(factor, rhs: np.ndarray, transposed: bool) -> np.ndarray:
    """L^-1 rhs, or L^-T rhs when ``transposed``, for the factor of
    ``_factor`` and rhs (M,) or (M, k), by block forward or back
    substitution; rhs is overwritten with the result and returned."""
    low, inverses = factor
    blocks = list(enumerate(inverses))
    for k, inverse in reversed(blocks) if transposed else blocks:
        a, b = k * _FACTOR_BLOCK, (k + 1) * _FACTOR_BLOCK
        if transposed:
            rhs[a:b] -= low[b:, a:b].T @ rhs[b:]
            rhs[a:b] = inverse.T @ rhs[a:b]
        else:
            rhs[a:b] -= low[a:b, :a] @ rhs[:a]
            rhs[a:b] = inverse @ rhs[a:b]
    return rhs


def oracle_levels(w: GridFunction, kt: KernelTable, count: int) -> list[float]:
    """The first ``count`` of ``linear_oracle``'s eigenvalues, ascending,
    with no M x M array but A's factor.

    They are the largest mu of C = L^-1 M L^-T, M = diag(w m), A = L L^T,
    found by Rayleigh-Ritz on a block Krylov space of C (Parlett, The
    Symmetric Eigenvalue Problem, SIAM 1998, ch. 11 and 13); C is applied
    by two substitutions (``_solve``) and never formed.  C is congruent to
    M, so by Sylvester's law of inertia it has exactly #{w > 0} positive
    mu, and ``count`` is clamped to that number.

    The start block holds count + 2 columns of a fixed-seed Gaussian, so
    two calls give the same levels and a double level is found in full.
    Each new block is orthogonalized against the basis twice, and the
    Rayleigh-Ritz matrix H = Q^T C Q takes the new block's columns alone.
    The image C Q_j of every earlier block lies in the basis, so a Ritz
    pair (theta, Q s) has the residual |R s_k|, with s_k the rows of s on
    the newest block and Q_k+1 R the part of C Q_k outside the basis.  The
    basis holds ``_BASIS_BLOCKS`` blocks; when it is full it restarts from
    the top half of its Ritz vectors, whose H is diagonal (thick restart).
    The solve stops when every wanted Ritz value is positive with a
    residual at most ``_RITZ_TOL`` times the largest |theta|, or when the
    basis spans all M cells (the Ritz values are then the eigenvalues of
    C), and raises ConvergenceError after ``_PRODUCTS_PER_CELL`` M
    products.
    """
    count = min(whole_at_least(count, 1, "the requested number of levels"),
                int(np.count_nonzero(w.values > 0)))
    cells = kt.grid.n_cells
    width = min(count + 2, cells)
    size = min(cells, _BASIS_BLOCKS * width)
    # the basis, the restart's Ritz vectors, H and eigh's copy, workspace and vectors
    factor = _factor(w, kt, 8 * (2 * cells * size + 5 * size**2))
    wm = (w.values * kt.cell_measure)[:, None]
    basis, rr = np.empty((cells, size)), np.empty((size, size))
    basis[:, :width] = np.linalg.qr(np.random.default_rng(0).standard_normal((cells, width)))[0]
    start, end, products = 0, width, 0
    while True:
        product = _solve(factor, basis[:, start:end].copy(), True)
        product *= wm
        product = _solve(factor, product, False)
        products += end - start
        coef = basis[:, :end].T @ product
        rr[:end, start:end] = coef
        rr[start:end, :start] = coef[:start].T
        thetas, vecs = np.linalg.eigh(rr[:end, :end])
        wanted = thetas[:-count - 1:-1]
        if end == cells:
            return (1.0 / wanted).tolist()
        # the part of C Q_k outside the basis, Q_k+1 R, orthogonalized twice
        product -= basis[:, :end] @ coef
        product, tri = np.linalg.qr(product)
        product -= basis[:, :end] @ (basis[:, :end].T @ product)
        product, step = np.linalg.qr(product)
        tri = step @ tri
        residual = np.linalg.norm(tri @ vecs[start:end, :-count - 1:-1], axis=0).max()
        if wanted[-1] > 0 and residual <= _RITZ_TOL * np.abs(thetas).max():
            return (1.0 / wanted).tolist()
        if products >= _PRODUCTS_PER_CELL * cells:
            raise ConvergenceError(f"the dense oracle's Krylov solve stopped at residual "
                                   f"{residual:.3e} after {products} products")
        if size < cells and end + width > size:
            keep = size // 2
            basis[:, :keep] = basis[:, :end] @ vecs[:, -keep:]
            rr[:keep, :keep] = np.diag(thetas[-keep:])
            end = keep
        start, end = end, min(end + width, cells)
        basis[:, start:end] = product[:, :end - start]


def linear_oracle(w: GridFunction, kt: KernelTable) -> list[tuple[float, GridFunction]]:
    """Dense p = 2 cross-check via the generalized symmetric pencil.

    Solves M v = mu A v, with the energy matrix A = L L^T (``_factor``) and
    M = diag(w m), as C y = mu y, C = L^-1 M L^-T and v = L^-T y; L^-1 is
    ``_solve`` on the identity and C goes to ``numpy.linalg.eigh``.  The
    #{w > 0} positive mu (Sylvester's law of inertia) carry positive
    weighted mass and map to eigenvalues lam = 1/mu, returned sorted
    ascending with eigenfunctions of unit weighted mass.  Callers that
    read only eigenvalues take ``oracle_levels``.
    """
    cells = kt.grid.n_cells
    # while eigh runs: L^-1, C, eigh's copy of C, its 2 M^2 workspace and vectors
    factor = _factor(w, kt, 8 * 5 * cells**2)
    inv = _solve(factor, np.eye(cells), False)
    del factor
    wm = w.values * kt.cell_measure
    mus, vecs = np.linalg.eigh(inv @ (wm[:, None] * inv.T))
    first = cells - int(np.count_nonzero(wm > 0))
    mus, vecs = mus[first:], inv.T @ vecs[:, first:]
    vecs /= np.sqrt(mus)  # unit weighted mass
    vecs *= np.where(vecs.sum(axis=0) < 0, -1.0, 1.0)
    return [(float(1.0 / mu), GridFunction(kt.grid, u))
            for mu, u in zip(mus[::-1], vecs.T[::-1])]


def deflated_start(w: GridFunction, kt: KernelTable, previous, level: int,
                   rng: np.random.Generator) -> np.ndarray:
    """The default start times the Chebyshev polynomial of degree level - 1
    in the first coordinate, plus Gaussian noise of 0.3, restricted to
    {w > 0} and projected there onto the subspace paired to zero with the
    previous levels (exact for every p: the pairing is linear in u)."""
    grid = kt.grid
    base = default_start(w, kt)
    t = np.clip(grid.centers[:, 0] / grid.half_width, -1.0, 1.0)
    pattern = np.cos((level - 1) * np.arccos(t))
    v = base * pattern + 0.3 * rng.standard_normal(grid.n_cells)
    return _on_positive_part(w, kt, v, previous)


def eigen_sequence(w: GridFunction, kt: KernelTable, k: int,
                   opts: EigenOptions | None = None) -> list[EigenResult]:
    """First k deflated levels, sorted non-decreasing in the eigenvalue."""
    k = whole_at_least(k, 1, "the requested number of levels")
    opts = opts or EigenOptions()
    rng = np.random.default_rng(opts.seed)
    results = [first_eigenpair(w, kt, opts)]
    for level in range(2, k + 1):
        start = deflated_start(w, kt, results, level, rng)
        results.append(_descend(w, kt, start, opts, previous=results))
    tail = sorted(results[1:], key=lambda r: r.lam)
    return [results[0]] + tail


def residual_check(lam: float, u: GridFunction, w: GridFunction, kt: KernelTable) -> float:
    """Worst weak-form defect over basis directions, relative to the energy."""
    same_grid(u, kt)
    _check_weight(w, kt)
    if not np.any(u.values):
        raise DomainError("residual check requires a nonzero function")
    p, m = kt.params.p, kt.cell_measure
    energy, gate = raw_energy(u.values, kt)
    rhs = lam * w.values * _phi(u.values, p) * m
    return float(np.max(np.abs(gate - rhs))) / energy


@dataclass(frozen=True)
class PiconeResult:
    per_cell_min: GridFunction
    min_value: float


def _picone_minima(us: np.ndarray, vs: np.ndarray, p: float) -> np.ndarray:
    """Per-cell minima over partners of the pairwise comparison term of
    ``picone_gap``, for k pairs of fields at once: stacks (k, M) in, (k, M)
    out.  A finite p > 1, u >= 0 and v >= 1e-8 in every cell, or a
    ``DomainError``.

    The term is symmetric in (i, j) bit for bit: |u_i - u_j| is even, and
    copysign(|v_i - v_j|^(p-1), v_i - v_j) and r_i - r_j (r = u^p / v^(p-1))
    are odd, so their product is even.  So only the pairs i <= j are formed,
    in row blocks [a, b) x [a, M), [a, b) from ``grid._row_blocks(M, M, k)``:
    a block's row minima fold into the rows [a, b), and the column minima of
    its part right of the square [a, b) x [a, b), which holds both orders of
    its pairs, into the columns [b, M).  A minimum takes no rounding, so the
    result equals the minimum over all ordered pairs.
    """
    if not (np.isfinite(p) and p > 1):
        raise DomainError(f"the comparison term requires a finite p > 1, got p={p}")
    if np.any(us < 0):
        raise DomainError("the comparison term requires u >= 0")
    if np.any(vs < 1e-8):
        raise DomainError("the comparison term requires v >= 1e-08 cellwise")
    k, cells = us.shape
    # u^p / v^(p-1) computed as u (u/v)^(p-1): exact on the ray u = v
    ratio = us * (us / vs) ** (p - 1.0)
    per_cell = np.full((k, cells), np.inf)
    for a, b in _row_blocks(cells, cells, k):
        # two block temporaries, updated in place: phi(v_i - v_j) is
        # copysign(|v_i - v_j|^(p-1), v_i - v_j), as in ``_phi``
        d = vs[:, a:b, None] - vs[:, None, a:]
        cross = np.abs(d)
        cross **= p - 1.0
        np.copysign(cross, d, out=cross)
        np.subtract(ratio[:, a:b, None], ratio[:, None, a:], out=d)
        cross *= d
        np.subtract(us[:, a:b, None], us[:, None, a:], out=d)
        np.abs(d, out=d)
        d **= p
        d -= cross
        np.minimum(per_cell[:, a:b], d.min(axis=2), out=per_cell[:, a:b])
        if b < cells:
            np.minimum(per_cell[:, b:], d[:, :, b - a:].min(axis=1), out=per_cell[:, b:])
    return per_cell


def picone_gap(u: GridFunction, v: GridFunction, p: float) -> PiconeResult:
    """Pairwise comparison term

        K(i, j) = |u_i - u_j|^p
                  - |v_i - v_j|^(p-2) (v_i - v_j) (u_i^p / v_i^(p-1)
                                                   - u_j^p / v_j^(p-1)),

    non-negative over all pairs for u >= 0, v > 0, vanishing exactly on the
    ray u = c v; v below 1e-8 in any cell is refused.  Returns the per-cell
    minimum over partners and the global minimum (the diagonal contributes
    zeros).  The term is formed once per unordered pair, in row blocks
    (``_picone_minima``), so no M x M array is ever allocated.
    """
    same_grid(u, v)
    per_cell = _picone_minima(u.values[None], v.values[None], p)[0]
    return PiconeResult(GridFunction(u.grid, per_cell), float(per_cell.min()))


def sign_structure(u: GridFunction) -> str:
    """Classify as nonnegative / nonpositive / sign_changing at threshold
    1e-8 max|u|.  The zero function classifies as nonnegative."""
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0:
        warnings.warn("sign classification of the zero function is degenerate")
        return "nonnegative"
    thr = 1e-8 * peak
    has_pos = bool(np.any(u.values > thr))
    has_neg = bool(np.any(u.values < -thr))
    if has_pos and has_neg:
        return "sign_changing"
    return "nonpositive" if has_neg else "nonnegative"


@dataclass(frozen=True)
class SimplicityReport:
    lambdas: tuple
    lambda_spread: float
    function_spread: float
    midpoint_energy_gap: float      # J((phi1^p+phi2^p)/2)^(1/p) vs mean energy
    rayleigh_lower_gap: float       # J(Phi) - lam1 * W(Phi), >= 0 up to solver noise
    results: tuple


def simplicity_probe(w: GridFunction, kt: KernelTable, restarts: int,
                     opts: EigenOptions | None = None) -> SimplicityReport:
    """First-level solves from independent seeded starts.

    Reports the worst pairwise eigenvalue difference, the worst pairwise
    sup-distance of the sign/scale-normalized eigenfunctions, and the hidden
    convexity of the energy along p-th-power midpoints of the minimizers.
    """
    if not is_whole(restarts) or restarts < 2:
        raise DomainError("the probe needs at least 2 restarts")
    _check_weight(w, kt)
    opts = opts or EigenOptions()
    p, m = kt.params.p, kt.cell_measure
    results = []
    for j in range(int(restarts)):
        rng = np.random.default_rng(opts.seed + j)
        start = seeded_start(w, kt, rng)
        results.append(first_eigenpair(w, kt, opts, start=start))
    lams = np.array([r.lam for r in results])
    lam_spread = float(lams.max() - lams.min())
    fun_spread = 0.0
    for a in range(len(results)):
        for b in range(a + 1, len(results)):
            d = float(np.max(np.abs(results[a].u.values - results[b].u.values)))
            fun_spread = max(fun_spread, d)

    phi1 = np.abs(results[0].u.values)
    phi2 = np.abs(results[1].u.values)
    midpoint = ((phi1**p + phi2**p) / 2.0) ** (1.0 / p)
    j_mid = raw_energy(midpoint, kt)[0]
    mean_energy = 0.5 * (raw_energy(phi1, kt)[0] + raw_energy(phi2, kt)[0])
    w_mid = raw_weighted_mass(midpoint, w.values, p, m)
    lam1 = float(lams.min())
    return SimplicityReport(
        lambdas=tuple(float(x) for x in lams),
        lambda_spread=lam_spread,
        function_spread=fun_spread,
        midpoint_energy_gap=float(j_mid - mean_energy),
        rayleigh_lower_gap=float(j_mid - lam1 * w_mid),
        results=tuple(results),
    )
