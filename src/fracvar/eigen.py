"""Weighted nonlocal eigenproblem: energy descent on the mass constraint.

The first eigenvalue is the minimum of the energy E(u) over the constraint
set { W(u) = sum_i w_i |u_i|^p m = 1 } with a sign-changing weight
w = w1 - w2 (w1, w2 >= 0, w1 not identically zero).  The solver is the
spectral descent shared with the capacity solve (``descent.spectral_descent``)
along the tangent residual

    g_i = gateaux(u, e_i) - lam * w_i |u_i|^(p-2) u_i * m,   lam = E(u):

each trial steps u <- u - eta g and rescales it so W(u) = 1 exactly (the
constraint is p-homogeneous, so radial rescaling is exact and cheap), and
eta is halved until the weighted mass stays positive and the Armijo test
on the energy holds.  Note g is tangent to the constraint at u, since
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

At p = 2 the problem is the symmetric pencil A u = lam M u, with A the
energy matrix (positive definite) and M = diag(w m).  Each level is first
computed by LOBPCG (``_lobpcg``) for the largest mu = 1/lam of M x = mu A x,
with A applied by FFT and preconditioned by a circulant
(``energy.P2Operator``); LOBPCG's block holds the earlier levels and the
start.  Its iterate is projected, rescaled to unit mass and put to the
descent's own residual test; the descent above continues from it only if
the test fails, within the same iteration budget.  On the line at n = 768
with a signed weight, two levels take 31 steps in all, where the descent
alone took 208.

A dense p = 2 cross-check (``linear_oracle``) solves M v = mu A v with the
assembled stiffness matrix and diagonal weight matrix, by Cholesky and a
symmetric eigensolve, restricted to directions of positive weighted mass;
it takes no FFT product, so it checks the LOBPCG path independently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import numpy.random

from .descent import spectral_descent
from .energy import (_phi, _row_blocks, raw_energy, raw_gateaux_vector,
                     raw_weighted_mass, stiffness_matrix)
from .errors import ConvergenceError, DomainError
from .grid import GridFunction, KernelTable, same_grid


@dataclass(frozen=True)
class Weight:
    """Sign-changing weight w = w1 - w2 with non-negative parts."""

    w1: GridFunction
    w2: GridFunction

    def __post_init__(self):
        same_grid(self.w1, self.w2)
        if np.any(self.w1.values < 0) or np.any(self.w2.values < 0):
            raise DomainError("weight parts must be non-negative cellwise")
        if not np.any(self.w1.values > 0):
            raise DomainError("w1 must not vanish identically")

    @property
    def combined(self) -> GridFunction:
        return GridFunction(self.w1.grid, self.w1.values - self.w2.values)

    @staticmethod
    def from_function(w: GridFunction) -> "Weight":
        pos = np.maximum(w.values, 0.0)
        neg = np.maximum(-w.values, 0.0)
        return Weight(GridFunction(w.grid, pos), GridFunction(w.grid, neg))

    @staticmethod
    def constant(grid, value: float = 1.0) -> "Weight":
        if value <= 0:
            raise DomainError("constant weight must be positive")
        ones = GridFunction(grid, np.full(grid.n_cells, value))
        zero = GridFunction(grid, np.zeros(grid.n_cells))
        return Weight(ones, zero)

    def swapped(self) -> "Weight":
        """The weight -w, with the roles of the parts exchanged.

        Minimizing the quotient against -w produces the negative spectrum
        of the original problem (an eigenvalue mu of the swapped weight is
        the eigenvalue -mu of w); it requires w2 not identically zero.
        """
        return Weight(self.w2, self.w1)


@dataclass(frozen=True)
class EigenOptions:
    tol: float = 1e-6              # relative weak residual
    max_iter: int = 50000
    seed: int = 0


@dataclass(frozen=True)
class EigenResult:
    lam: float
    u: GridFunction
    residual: float
    iterations: int
    constraint_gap: float


def default_start(wt: Weight, kt: KernelTable) -> np.ndarray:
    """A bump at the peak of w1, narrowed until the weighted mass is positive."""
    grid = kt.grid
    p, m = kt.params.p, kt.cell_measure
    wvals = wt.combined.values
    x0 = grid.centers[int(np.argmax(wt.w1.values))]
    widths = [grid.half_width / 4, grid.half_width / 8, grid.half_width / 16,
              2 * grid.spacing, grid.spacing]
    for sigma in widths:
        d2 = ((grid.centers - x0) ** 2).sum(axis=1)
        vals = np.exp(-d2 / (2.0 * sigma**2))
        if raw_weighted_mass(vals, wvals, p, m) > 0:
            return vals
    i = int(np.argmax(wvals))
    if wvals[i] > 0:
        vals = np.zeros(grid.n_cells)
        vals[i] = 1.0
        return vals
    raise DomainError("no candidate with positive weighted mass; "
                      "the constraint set is empty on this grid")


def seeded_start(wt: Weight, kt: KernelTable, rng: np.random.Generator) -> np.ndarray:
    base = default_start(wt, kt)
    noise = rng.standard_normal(kt.grid.n_cells)
    wvals = wt.combined.values
    p, m = kt.params.p, kt.cell_measure
    amp = 0.75
    for _ in range(40):
        cand = base + amp * noise * float(np.max(np.abs(base)))
        if raw_weighted_mass(cand, wvals, p, m) > 0:
            return cand
        amp *= 0.5
    return base


def _projector(wt: Weight, kt: KernelTable, previous, cells=slice(None)):
    """Orthogonal projection onto { v : b_k . v = 0 }, b_k = w phi(u_k) m,
    for the previous levels u_k, of fields on ``cells`` (all by default);
    the identity when there are none."""
    if not previous:
        return lambda v: v
    p, m = kt.params.p, kt.cell_measure
    wvals = wt.combined.values
    q = np.linalg.qr(np.column_stack([wvals * _phi(res.u.values, p) * m
                                      for res in previous])[cells])[0]
    return lambda v: v - q @ (q.T @ v)


def _descend(wt: Weight, kt: KernelTable, u0: np.ndarray, opts: EigenOptions,
             previous=()) -> tuple[np.ndarray, float, float, int]:
    """Spectral descent of the energy on unit mass, within the subspace
    paired to zero with the ``previous`` levels; at p = 2 it starts from
    LOBPCG's iterate (``_lobpcg``), and takes no step if that already passes
    the residual test.

    Returns (u, lam, residual, iterations); raises ConvergenceError on
    stagnation or iteration exhaustion, carrying the last iterate.
    """
    p = kt.params.p
    m = kt.cell_measure
    wvals = wt.combined.values
    project = _projector(wt, kt, previous)
    residual = np.inf

    def direction(u, energy, _aux):
        nonlocal residual
        grad = raw_gateaux_vector(u, kt)
        residual_vec = project(grad - energy * wvals * _phi(u, p) * m)
        residual = float(np.max(np.abs(residual_vec))) / max(energy, 1e-300)
        return residual_vec, residual <= opts.tol

    def trial(u, residual_vec, eta):
        cand = u - eta * residual_vec
        mass = raw_weighted_mass(cand, wvals, p, m)
        if mass <= 0:
            return None
        cand = cand / mass ** (1.0 / p)
        energy = raw_energy(cand, kt)
        return cand, energy, -eta * float(residual_vec @ residual_vec), energy

    def unit(v):
        """v projected and rescaled to unit mass, with its energy."""
        v = project(v)
        mass = raw_weighted_mass(v, wvals, p, m)
        if mass <= 0.0:
            raise DomainError("weighted p-mass is non-positive; iterate left the cone")
        v = v / mass ** (1.0 / p)
        return v, raw_energy(v, kt)

    u, energy = unit(np.asarray(u0, dtype=float))
    its = 0
    # LOBPCG's basis [X, W, P] must fit in the M cells
    if p == 2.0 and kt.grid.n_cells >= 3 * (len(previous) + 1):
        x, its = _lobpcg(wt, kt, u, energy, opts, previous)
        u, energy = unit(x)
    u, energy, _aux, status, more = spectral_descent(u, energy, energy, direction, trial,
                                                     opts.max_iter - its)
    its += more
    if status == "converged":
        return u, energy, residual, its
    if status == "stalled":
        message = f"descent stagnated at residual {residual:.3e} (target {opts.tol:.1e})"
    else:
        message = (f"no convergence within {opts.max_iter} iterations "
                   f"(residual {residual:.3e}, target {opts.tol:.1e})")
    raise ConvergenceError(message, result=_result_from(u, energy, residual, its, wt, kt))


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


def _lobpcg(wt: Weight, kt: KernelTable, u: np.ndarray, lam0: float, opts: EigenOptions,
            previous) -> tuple[np.ndarray, int]:
    """LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) for the largest
    mu = 1/lam of M x = mu A x at p = 2, with M = diag(w m).

    A enters by its FFT product and circulant preconditioner
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
    wm = (wt.combined.values * kt.cell_measure)[:, None]
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


def _result_from(u, lam, residual, iterations, wt, kt) -> EigenResult:
    gap = abs(raw_weighted_mass(u, wt.combined.values, kt.params.p, kt.cell_measure) - 1.0)
    return EigenResult(lam=lam, u=GridFunction(kt.grid, u), residual=residual,
                       iterations=iterations, constraint_gap=gap)


def first_eigenpair(wt: Weight, kt: KernelTable, opts: EigenOptions | None = None,
                    start: np.ndarray | None = None) -> EigenResult:
    """Minimize the energy over the unit-mass constraint set.

    The output is sign-normalized to be non-negative; a converged first
    eigenfunction has one sign, so only a global flip is ever applied.
    Pass ``wt.swapped()`` for the negative spectrum: the returned level mu
    is then the eigenvalue -mu of the original problem; a bad ``start`` raises DomainError.
    """
    opts = opts or EigenOptions()
    u0 = default_start(wt, kt) if start is None else GridFunction(kt.grid, start).values
    u, lam, residual, its = _descend(wt, kt, u0, opts)
    if u.sum() < 0:
        u = -u
    res = _result_from(u, lam, residual, its, wt, kt)
    if sign_structure(res.u) == "sign_changing":
        warnings.warn("first eigenfunction changes sign beyond tolerance; "
                      "the iterate may be a higher critical point")
    return res


def _triangular_times(tri: np.ndarray, x: np.ndarray, lower: bool, out=None) -> np.ndarray:
    """tri @ x for a lower (or upper) triangular tri, by halves, skipping
    its zero quarter: half the flops of the dense product."""
    size, half = tri.shape[0], tri.shape[0] // 2
    out = np.empty(x.shape) if out is None else out
    if size < 128:
        return np.matmul(tri, x, out=out)
    _triangular_times(tri[:half, :half], x[:half], lower, out[:half])
    _triangular_times(tri[half:, half:], x[half:], lower, out[half:])
    if lower:
        out[half:] += tri[half:, :half] @ x[:half]
    else:
        out[:half] += tri[:half, half:] @ x[half:]
    return out


def _lower_inverse(low: np.ndarray, inv=None) -> np.ndarray:
    """L^-1 of a lower-triangular L, by halves: the inverse of
    [[L11, 0], [L21, L22]] is [[L11^-1, 0], [-L22^-1 L21 L11^-1, L22^-1]]."""
    size, half = low.shape[0], low.shape[0] // 2
    inv = np.zeros_like(low) if inv is None else inv
    if size < 64:
        inv[...] = np.linalg.inv(low)
        return inv
    _lower_inverse(low[:half, :half], inv[:half, :half])
    _lower_inverse(low[half:, half:], inv[half:, half:])
    _triangular_times(inv[half:, half:], -low[half:, :half] @ inv[:half, :half], lower=True,
                      out=inv[half:, :half])
    return inv


def linear_oracle(wt: Weight, kt: KernelTable) -> list[tuple[float, GridFunction]]:
    """Dense p = 2 cross-check via the generalized symmetric pencil.

    Solves M v = mu A v, with the energy matrix A = L L^T (Cholesky) and
    M = diag(w m), as C y = mu y, C = L^-1 M L^-T and v = L^-T y; directions
    with mu > 0 carry positive weighted mass and map to eigenvalues lam = 1/mu,
    returned sorted ascending with eigenfunctions of unit weighted mass.
    """
    if kt.params.p != 2.0:
        raise DomainError("the dense oracle applies only to p = 2")
    # every M x M temporary is dropped as soon as it is used (_ORACLE_SQUARES)
    inv = _lower_inverse(np.linalg.cholesky(stiffness_matrix(kt)))
    wm = (wt.combined.values * kt.cell_measure)[:, None]
    mus, vecs = np.linalg.eigh(_triangular_times(inv, wm * inv.T, lower=True))
    cutoff = 1e-12 * max(1.0, float(np.max(np.abs(mus))))
    first = int(np.searchsorted(mus, cutoff, side="right"))
    mus, vecs = mus[first:], _triangular_times(inv.T, vecs[:, first:], lower=False)
    vecs /= np.sqrt(mus)  # unit weighted mass
    vecs *= np.where(vecs.sum(axis=0) < 0, -1.0, 1.0)
    return [(float(1.0 / mu), GridFunction(kt.grid, u))
            for mu, u in zip(mus[::-1], vecs.T[::-1])]


def deflated_start(wt: Weight, kt: KernelTable, previous, level: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Oscillatory seed projected onto the subspace paired to zero with the
    previous levels (exact for every p: the pairing is linear in u),
    redrawn until its weighted mass is positive.  After 60 draws, one
    Gaussian draw on S = {w > 0}, projected there and zero off S, whose
    mass is positive whenever it is nonzero."""
    grid = kt.grid
    p, m = kt.params.p, kt.cell_measure
    wvals = wt.combined.values
    project = _projector(wt, kt, previous)
    base = default_start(wt, kt)
    t = np.clip(grid.centers[:, 0] / grid.half_width, -1.0, 1.0)
    pattern = np.cos((level - 1) * np.arccos(t))
    for _ in range(60):
        cand = project(base * pattern + 0.3 * rng.standard_normal(grid.n_cells))
        if raw_weighted_mass(cand, wvals, p, m) > 0:
            return cand
        pattern = rng.standard_normal(grid.n_cells)
    positive = wvals > 0
    if positive.sum() <= len(previous):
        raise DomainError("could not seed a deflated start with positive mass")
    cand = np.zeros(grid.n_cells)
    cand[positive] = _projector(wt, kt, previous, positive)(rng.standard_normal(positive.sum()))
    return cand


def eigen_sequence(wt: Weight, kt: KernelTable, k: int,
                   opts: EigenOptions | None = None) -> list[EigenResult]:
    """First k deflated levels, sorted non-decreasing in the eigenvalue."""
    if k < 1:
        raise DomainError("the requested number of levels must be >= 1")
    opts = opts or EigenOptions()
    rng = np.random.default_rng(opts.seed)
    results = [first_eigenpair(wt, kt, opts)]
    for level in range(2, k + 1):
        start = deflated_start(wt, kt, results, level, rng)
        u, lam, residual, its = _descend(wt, kt, start, opts, previous=results)
        if u.sum() < 0:
            u = -u
        results.append(_result_from(u, lam, residual, its, wt, kt))
    tail = sorted(results[1:], key=lambda r: r.lam)
    return [results[0]] + tail


def residual_check(lam: float, u: GridFunction, wt: Weight, kt: KernelTable) -> float:
    """Worst weak-form defect over basis directions, relative to the energy."""
    if not np.any(u.values):
        raise DomainError("residual check requires a nonzero function")
    p, m = kt.params.p, kt.cell_measure
    energy, gate = raw_energy(u.values, kt, with_gateaux=True)
    rhs = lam * wt.combined.values * _phi(u.values, p) * m
    return float(np.max(np.abs(gate - rhs))) / energy


@dataclass(frozen=True)
class PiconeResult:
    per_cell_min: GridFunction
    min_value: float


def picone_gap(u: GridFunction, v: GridFunction, p: float,
               eps: float = 1e-8) -> PiconeResult:
    """Pairwise comparison term

        K(i, j) = |u_i - u_j|^p
                  - |v_i - v_j|^(p-2) (v_i - v_j) (u_i^p / v_i^(p-1)
                                                   - u_j^p / v_j^(p-1)),

    non-negative over all pairs for u >= 0, v > 0, vanishing exactly on the
    ray u = c v.  Returns the per-cell minimum over partners and the global
    minimum (the diagonal contributes zeros).  The term is formed in row
    blocks of ``energy._row_blocks``, so no M x M array is ever allocated.
    """
    same_grid(u, v)
    if np.any(u.values < 0):
        raise DomainError("the comparison term requires u >= 0")
    if np.any(v.values < eps):
        raise DomainError(f"the comparison term requires v >= {eps} cellwise")
    cells = u.grid.n_cells
    uv = u.values
    vv = v.values
    # u^p / v^(p-1) computed as u (u/v)^(p-1): exact on the ray u = v
    ratio = uv * (uv / vv) ** (p - 1.0)
    per_cell = np.empty(cells)
    for a, b in _row_blocks(cells, cells):
        # two block temporaries, updated in place: phi(v_i - v_j) is
        # copysign(|v_i - v_j|^(p-1), v_i - v_j), as in ``_phi``
        d = vv[a:b, None] - vv
        cross = np.abs(d)
        cross **= p - 1.0
        np.copysign(cross, d, out=cross)
        np.subtract(ratio[a:b, None], ratio, out=d)
        cross *= d
        np.subtract(uv[a:b, None], uv, out=d)
        np.abs(d, out=d)
        d **= p
        d -= cross
        per_cell[a:b] = d.min(axis=1)
    return PiconeResult(GridFunction(u.grid, per_cell), float(per_cell.min()))


def sign_structure(u: GridFunction, tol: float = 1e-8) -> str:
    """Classify as nonnegative / nonpositive / sign_changing at threshold
    tol * max|u|.  The zero function classifies as nonnegative."""
    peak = float(np.max(np.abs(u.values)))
    if peak == 0.0:
        warnings.warn("sign classification of the zero function is degenerate")
        return "nonnegative"
    thr = tol * peak
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


def simplicity_probe(wt: Weight, kt: KernelTable, restarts: int,
                     opts: EigenOptions | None = None) -> SimplicityReport:
    """First-level solves from independent seeded starts.

    Reports the worst pairwise eigenvalue difference, the worst pairwise
    sup-distance of the sign/scale-normalized eigenfunctions, and the hidden
    convexity of the energy along p-th-power midpoints of the minimizers.
    """
    if restarts < 2:
        raise DomainError("the probe needs at least 2 restarts")
    opts = opts or EigenOptions()
    p, m = kt.params.p, kt.cell_measure
    wvals = wt.combined.values
    results = []
    for j in range(restarts):
        rng = np.random.default_rng(opts.seed + j)
        start = seeded_start(wt, kt, rng)
        results.append(first_eigenpair(wt, kt, opts, start=start))
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
    j_mid = raw_energy(midpoint, kt)
    mean_energy = 0.5 * (raw_energy(phi1, kt) + raw_energy(phi2, kt))
    w_mid = raw_weighted_mass(midpoint, wvals, p, m)
    lam1 = float(lams.min())
    return SimplicityReport(
        lambdas=tuple(float(x) for x in lams),
        lambda_spread=lam_spread,
        function_spread=fun_spread,
        midpoint_energy_gap=float(j_mid - mean_energy),
        rayleigh_lower_gap=float(j_mid - lam1 * w_mid),
        results=tuple(results),
    )
