import importlib
import itertools
import threading
import tracemalloc

import numpy as np
import pytest

import fracvar as fv
import fracvar.energy as energy_mod
from fracvar.energy import raw_energy, stiffness_matrix
from fracvar.errors import ConvergenceError, DomainError

# the package attribute ``fracvar.capacity`` is the function, not the module
capacity_mod = importlib.import_module("fracvar.capacity")


def cells(grid, indices):
    mask = np.zeros(grid.n_cells, dtype=bool)
    mask[indices] = True
    return fv.CellSet(grid, mask)


def qp_capacity_oracle(mask, kt):
    """Dense p = 2 oracle: solve the KKT system on the free cells, clamp,
    and verify feasibility."""
    a = stiffness_matrix(kt)
    fixed = mask
    free = ~fixed
    rhs = -a[np.ix_(free, fixed)] @ np.ones(fixed.sum())
    uf = np.linalg.solve(a[np.ix_(free, free)], rhs)
    assert uf.min() > -1e-12 and uf.max() < 1 + 1e-12, "clamp would activate"
    u = np.zeros(mask.size)
    u[fixed] = 1.0
    u[free] = np.clip(uf, 0.0, 1.0)
    return float(u @ a @ u), u


def count_passes(monkeypatch):
    """Count the pair passes, descents and descent trials of capacity solves;
    a separate gradient pass fails the test."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the capacity solve made a separate gradient pass")

    monkeypatch.setattr(energy_mod, "gateaux_vector", forbidden)
    monkeypatch.setattr(capacity_mod, "gateaux_vector", forbidden, raising=False)
    counts = {"pairs": 0, "descents": 0, "trials": 0}
    pair_sums = energy_mod._pair_sums

    def counted_pair_sums(*args):
        counts["pairs"] += 1
        return pair_sums(*args)

    descend = capacity_mod.spectral_descent

    def counted_descent(x, f, aux, direction, trial, max_iter):
        def counted_trial(*args):
            counts["trials"] += 1
            return trial(*args)
        counts["descents"] += 1
        return descend(x, f, aux, direction, counted_trial, max_iter)

    monkeypatch.setattr(energy_mod, "_pair_sums", counted_pair_sums)
    monkeypatch.setattr(capacity_mod, "spectral_descent", counted_descent)
    return counts


class TestCapacity:
    def test_empty_target_degenerate(self, line_kt, line_grid):
        with pytest.warns(UserWarning):
            res = fv.capacity(fv.CellSet.empty(line_grid), line_kt)
        assert res.value == 0.0
        assert res.degenerate
        assert np.all(res.minimizer.values == 0.0)

    def test_single_cell_matches_qp_oracle(self, line_kt, line_grid):
        target = cells(line_grid, [line_grid.n_cells // 2])
        res = fv.capacity(target, line_kt)
        oracle_value, oracle_u = qp_capacity_oracle(target.mask, line_kt)
        assert res.value == pytest.approx(oracle_value, rel=1e-6)
        assert np.max(np.abs(res.minimizer.values - oracle_u)) < 1e-5
        assert np.all(res.minimizer.values[target.mask] == 1.0)
        assert res.minimizer.values.min() >= 0.0
        assert res.minimizer.values.max() <= 1.0

    def test_interval_matches_qp_oracle(self, line_kt, line_grid):
        target = fv.CellSet.ball(line_grid, (0.1,), 0.3)
        res = fv.capacity(target, line_kt)
        oracle_value, _ = qp_capacity_oracle(target.mask, line_kt)
        assert res.value == pytest.approx(oracle_value, rel=1e-6)

    def test_monotone_in_the_target(self, line_kt, line_grid, rng):
        for _ in range(5):
            idx = rng.choice(line_grid.n_cells, size=6, replace=False)
            small = cells(line_grid, idx[:3])
            large = cells(line_grid, idx)
            assert (fv.capacity(small, line_kt).value
                    <= fv.capacity(large, line_kt).value * (1 + 1e-9))

    def test_one_pair_pass_per_trial(self, monkeypatch):
        # each trial's pass also gives the gradient at the point it accepts;
        # at p < 2 the descent makes every step
        g = fv.build_grid(1, 1.0, 16)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 1.5), 4.0)
        counts = count_passes(monkeypatch)
        res = fv.capacity(fv.CellSet.ball(g, (0.0,), 0.2), kt)
        assert res.iterations > 1
        assert counts["trials"] >= res.iterations
        assert counts["pairs"] == counts["trials"] + 1

    def test_converged_p2_solve_makes_one_pair_pass(self, monkeypatch, line_kt, line_grid):
        # conjugate gradients reach the minimizer; the one pair pass verifies
        # it in the descent's first stop test, and no trial is made
        counts = count_passes(monkeypatch)
        res = fv.capacity(fv.CellSet.ball(line_grid, (0.0,), 0.2), line_kt)
        assert res.iterations > 1
        assert counts == {"pairs": 1, "descents": 1, "trials": 0}

    def test_p3_plane_ball_pair_pass_bound(self, monkeypatch):
        # 9 pair passes measured: the start and the 8 trials of 7 Newton
        # steps (one halved once) in the one descent, after which the stop
        # test passes
        g = fv.build_grid(2, 1.0, 12)
        kt = fv.build_kernel_table(g, fv.FracParams(0.3, 3.0), 4.0)
        counts = count_passes(monkeypatch)
        res = fv.capacity(fv.CellSet.ball(g, (0.0, 0.0), 0.3), kt)
        assert res.grad_norm <= fv.CapacityOptions().tol_factor * max(1.0, res.value)
        assert counts["descents"] == 1 and counts["trials"] == 8
        assert res.iterations == 7
        assert counts["pairs"] <= 9

    def test_p15_line_ball_stagnates_before_the_budget(self):
        # at p < 2 this ball stops short of the tolerance at the roundoff
        # floor (at step 180) and says so, instead of running out its budget
        g = fv.build_grid(1, 1.0, 64)
        kt = fv.build_kernel_table(g, fv.FracParams(0.5, 1.5), 4.0)
        with pytest.raises(ConvergenceError, match="stagnated") as err:
            fv.capacity(fv.CellSet.ball(g, (0.0,), 0.3), kt)
        assert err.value.result.iterations < fv.CapacityOptions().max_iter

    def test_subadditive_on_disjoint_union(self, line_kt, line_grid):
        left = fv.CellSet.ball(line_grid, (-0.6,), 0.15)
        right = fv.CellSet.ball(line_grid, (0.6,), 0.15)
        union = fv.CellSet(line_grid, left.mask | right.mask)
        cl = fv.capacity(left, line_kt).value
        cr = fv.capacity(right, line_kt).value
        cu = fv.capacity(union, line_kt).value
        assert cu <= (cl + cr) * (1 + 1e-9)

    def test_budget_exhaustion_is_reported_as_such(self):
        g = fv.build_grid(1, 1.0, 16)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        target = fv.CellSet.ball(g, (0.0,), 0.3)
        # a positive target that no solve reaches (zero is refused)
        opts = fv.CapacityOptions(tol_factor=1e-300, max_iter=5)
        with pytest.raises(ConvergenceError, match="no convergence within 5 iterations") as err:
            fv.capacity(target, kt, opts)
        assert err.value.result.iterations == 5


class TestOptions:
    @pytest.mark.parametrize("kwargs", [
        {"tol_factor": float("nan")}, {"tol_factor": 0.0}, {"tol_factor": -1e-8},
        {"tol_factor": float("inf")}, {"max_iter": 0}, {"max_iter": -3},
        {"max_iter": 2.5}, {"max_iter": float("nan")}, {"max_iter": float("inf")},
        {"max_iter": True}, {"max_iter": "5"},
    ], ids=["tol_factor=nan", "tol_factor=0", "tol_factor=-1e-8", "tol_factor=inf",
            "max_iter=0", "max_iter=-3", "max_iter=2.5", "max_iter=nan", "max_iter=inf",
            "max_iter=True", "max_iter='5'"])
    def test_bad_values_refused(self, kwargs):
        with pytest.raises(DomainError):
            fv.CapacityOptions(**kwargs)

    @pytest.mark.parametrize("max_iter", [3.0, np.int64(3), np.float64(3.0)])
    def test_whole_budget_is_an_int(self, max_iter):
        opts = fv.CapacityOptions(max_iter=max_iter)
        assert opts.max_iter == 3 and type(opts.max_iter) is int


def lbfgsb_capacity(target, kt):
    """Reference capacity by scipy's L-BFGS-B on the free cells, with the
    [0, 1] bounds, from u = 1/2."""
    optimize = pytest.importorskip("scipy.optimize")
    p = kt.params.p
    free = ~target.mask
    u = target.mask.astype(float)

    def fun(x):
        u[free] = x
        energy, gvec = raw_energy(u, kt)
        return energy, p * gvec[free]

    res = optimize.minimize(fun, np.full(int(free.sum()), 0.5), jac=True,
                            method="L-BFGS-B", bounds=[(0.0, 1.0)] * int(free.sum()),
                            options={"ftol": 1e-15, "gtol": 1e-11, "maxiter": 20000})
    u[free] = res.x
    return float(res.fun), u


class TestNewtonPath:
    """At p > 2 the descent's directions are Newton-CG steps."""

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 6)])
    def test_hessian_product_matches_finite_differences(self, dim, n, p, rng):
        # H v against the central difference of the gradient p * gvec along
        # v, at distinct values: below p = 3 the Hessian is not Lipschitz
        # where two values meet
        g = fv.build_grid(dim, 1.0, n)
        kt = fv.build_kernel_table(g, fv.FracParams(0.2, p), 4.0)
        u = rng.permutation(np.linspace(0.05, 0.95, g.n_cells))
        v = rng.standard_normal(g.n_cells)
        diagonal, product = capacity_mod._hessian(u, kt, np.empty((g.n_cells,) * 2))
        eps = 1e-6
        fd = p * (raw_energy(u + eps * v, kt)[1] - raw_energy(u - eps * v, kt)[1]) / (2 * eps)
        np.testing.assert_allclose(product(v), fd, rtol=1e-6, atol=1e-7 * np.abs(fd).max())
        e = np.zeros(g.n_cells)
        e[1] = 1.0
        assert product(e)[1] == pytest.approx(diagonal[1], rel=1e-14)

    @pytest.mark.parametrize("s, p", [(0.3, 2.5), (0.2, 4.0)])
    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 8)])
    @pytest.mark.parametrize("kind", ["ball", "level"])
    def test_matches_lbfgsb(self, dim, n, s, p, kind):
        g = fv.build_grid(dim, 1.0, n)
        kt = fv.build_kernel_table(g, fv.FracParams(s, p), 4.0)
        if kind == "ball":
            target = fv.CellSet.ball(g, np.full(dim, 0.1), 0.4)
        else:
            absw = 1.0 / np.maximum(g.radii(), 1e-3)
            target = fv.CellSet(g, absw > np.quantile(absw, 0.75))
        res = fv.capacity(target, kt)
        value, u = lbfgsb_capacity(target, kt)
        # both stop at gradient norms near 1e-8, so the values agree to
        # second order; measured within 2.5e-16 and 6e-9 in the field
        assert res.value == pytest.approx(value, rel=1e-12)
        assert np.max(np.abs(res.minimizer.values - u)) < 1e-7

    @pytest.mark.parametrize("dim, n, p", [(2, 16, 3.0), (2, 24, 3.0), (2, 16, 2.5)])
    def test_hessian_holds_one_square_of_memory(self, dim, n, p):
        # above 181 cells the kernel rows are strided, and W is formed against
        # them in the one (M, M) buffer: no dense copy of K is made
        g = fv.build_grid(dim, 1.0, n)
        kt = fv.build_kernel_table(g, fv.FracParams(0.3, p), 4.0)
        assert not kt.kernel_rows.flags.c_contiguous
        raw_energy(np.zeros(g.n_cells), kt)  # the rows and the pair-pass buffers
        target = fv.CellSet.ball(g, (0.0, 0.0), 0.3)
        tracemalloc.start()
        try:
            res = fv.capacity(target, kt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.iterations > 1
        assert peak < 1.5 * 8 * g.n_cells**2

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_hessian_matches_the_dense_kernel_bitwise(self, p, rng):
        g = fv.build_grid(2, 1.0, 16)
        kt = fv.build_kernel_table(g, fv.FracParams(0.3, p), 4.0)
        u = rng.uniform(0.0, 1.0, g.n_cells)
        v = rng.standard_normal(g.n_cells)
        w = np.empty((g.n_cells,) * 2)
        diagonal, product = capacity_mod._hessian(u, kt, w)
        dense = np.abs(np.subtract.outer(u, u)) ** (p - 2.0) * kt.dense_kernel()
        assert np.array_equal(w, dense)
        m, scale = kt.cell_measure, 2.0 * p * (p - 1.0)
        expected = scale * (m * m * (dense @ np.ones(g.n_cells))
                            + m * np.abs(u) ** (p - 2.0) * kt.exterior_mass)
        assert np.array_equal(diagonal, expected)
        assert np.array_equal(product(v), expected * v - (scale * m * m) * (dense @ v))

    @staticmethod
    def refuse_hessian(m, cells):
        """Refuse, through ``capacity._check_fits``, every buffer of at least
        ``cells``^2 floats."""
        def refuse_squares(need, what):
            if need >= 8 * cells**2:
                raise DomainError(f"{what} refused")

        m.setattr(capacity_mod, "_check_fits", refuse_squares)

    def test_refused_hessian_leaves_the_solve_to_the_descent(self, monkeypatch):
        g = fv.build_grid(2, 1.0, 8)
        kt = fv.build_kernel_table(g, fv.FracParams(0.3, 3.0), 4.0)
        target = fv.CellSet.ball(g, (0.0, 0.0), 0.4)
        newton = fv.capacity(target, kt)
        self.refuse_hessian(monkeypatch, g.n_cells)
        counts = count_passes(monkeypatch)
        res = fv.capacity(target, kt)
        # every step is the descent's: no Newton trial made a pass
        assert counts["trials"] >= res.iterations > 1
        assert counts["pairs"] == counts["trials"] + 1
        assert res.grad_norm <= fv.CapacityOptions().tol_factor * max(1.0, res.value)
        assert res.value == pytest.approx(newton.value, rel=1e-12)

    @classmethod
    def ball_and_refused_value(cls, monkeypatch):
        """A p = 3 ball on plane n = 8, and its capacity with the Hessian
        refused, by gradient steps alone."""
        g = fv.build_grid(2, 1.0, 8)
        kt = fv.build_kernel_table(g, fv.FracParams(0.3, 3.0), 4.0)
        target = fv.CellSet.ball(g, (0.0, 0.0), 0.4)
        with monkeypatch.context() as m:
            cls.refuse_hessian(m, g.n_cells)
            return kt, target, fv.capacity(target, kt).value

    def test_ascending_newton_step_is_replaced_by_the_gradient(self, monkeypatch):
        kt, target, refused = self.ball_and_refused_value(monkeypatch)

        def ascending(_apply, _precondition, r, free, _target, _cap):
            s = np.zeros(free.size)
            s[free] = -r  # +g on the free cells: every projected trial ascends
            return s, 0

        monkeypatch.setattr(capacity_mod, "_solve_on_free", ascending)
        counts = count_passes(monkeypatch)
        res = fv.capacity(target, kt)
        assert res.grad_norm <= fv.CapacityOptions().tol_factor * max(1.0, res.value)
        assert res.value == pytest.approx(refused, rel=1e-12)
        assert counts["pairs"] == counts["trials"] + 1

    def test_newton_step_ascending_near_zero_is_replaced_by_the_gradient(self, monkeypatch):
        # the Newton step with one free cell's entry set to -1e6, where that
        # cell can move down and the step still descends at t = 1: the cell
        # clips at once, so the path ascends for small t but not at t = 1
        kt, target, refused = self.ball_and_refused_value(monkeypatch)
        lower = target.mask.astype(float)
        solve_on_free, hessian = capacity_mod._solve_on_free, capacity_mod._hessian
        at, crafted = [], []

        def recording_hessian(u, *args):
            at.append(u)
            return hessian(u, *args)

        def clipping_solve(apply, precondition, r, free, *args):
            # the gradient is -r on the free cells; CG leaves r its residual
            grad = np.zeros(free.size)
            grad[free] = -r
            s, steps = solve_on_free(apply, precondition, r, free, *args)
            u = at[-1]
            movable = np.flatnonzero(free & (u > 0.0) & (grad < 0.0))
            for j in movable[np.argsort(-grad[movable] * u[movable])]:
                v = s.copy()
                v[j] = -1e6
                at_one = grad @ (np.clip(u + v, lower, 1.0) - u)
                if at_one < 0.0:
                    # the entries that move as t -> 0 give the path's slope there
                    blocked = ((v < 0.0) & (u <= lower)) | ((v > 0.0) & (u >= 1.0))
                    crafted.append((at_one, grad @ np.where(blocked, 0.0, v)))
                    return v, steps
            return s, steps

        monkeypatch.setattr(capacity_mod, "_hessian", recording_hessian)
        monkeypatch.setattr(capacity_mod, "_solve_on_free", clipping_solve)
        res = fv.capacity(target, kt)
        assert crafted and all(at_one < 0.0 < near_zero for at_one, near_zero in crafted)
        assert res.grad_norm <= fv.CapacityOptions().tol_factor * max(1.0, res.value)
        assert res.value == pytest.approx(refused, rel=1e-12)

    def test_newton_steps_count_toward_the_budget(self, monkeypatch, line_kt_p3, line_grid):
        # three Newton steps, the whole budget, in the one descent
        target = fv.CellSet.ball(line_grid, (0.0,), 0.2)
        counts = count_passes(monkeypatch)
        with pytest.raises(ConvergenceError, match="no convergence within 3 iterations") as err:
            fv.capacity(target, line_kt_p3, fv.CapacityOptions(max_iter=3))
        assert err.value.result.iterations == 3
        assert counts["descents"] == 1 and counts["trials"] >= 1


class TestLinearPath:
    """At p = 2 the capacity is one linear solve on the free cells."""

    @staticmethod
    def check_against_oracle(res, target, kt):
        oracle_value, oracle_u = qp_capacity_oracle(target.mask, kt)
        assert res.value == pytest.approx(oracle_value, rel=1e-12)
        # the stop test bounds the gradient by tol_factor (1e-8), so the field
        # error by that over A_ff's least eigenvalue (about 1 on these grids);
        # the value's error is second order
        assert np.max(np.abs(res.minimizer.values - oracle_u)) < 1e-8
        assert np.all(res.minimizer.values[target.mask] == 1.0)
        assert res.minimizer.values.min() >= 0.0
        assert res.minimizer.values.max() <= 1.0

    @pytest.mark.parametrize("kt_name", ["line_kt", "plane_kt"])
    def test_ball_matches_qp_oracle(self, request, kt_name):
        kt = request.getfixturevalue(kt_name)
        target = fv.CellSet.ball(kt.grid, np.full(kt.grid.dim, 0.1), 0.3)
        self.check_against_oracle(fv.capacity(target, kt), target, kt)

    @pytest.mark.parametrize("kt_name", ["line_kt", "plane_kt"])
    def test_one_operator_product_per_cg_step_and_one_more(self, monkeypatch, request,
                                                           kt_name):
        # the right-hand side takes one product; the zero start takes none
        kt = request.getfixturevalue(kt_name)
        products = []
        apply = energy_mod.P2Operator.apply

        def counted_apply(op, x):
            products.append(x.shape)
            return apply(op, x)

        monkeypatch.setattr(energy_mod.P2Operator, "apply", counted_apply)
        res = fv.capacity(fv.CellSet.ball(kt.grid, np.zeros(kt.grid.dim), 0.3), kt)
        assert res.iterations > 1
        assert len(products) == res.iterations + 1

    @pytest.mark.parametrize("dim, n", [(1, 1024), (2, 64)])
    def test_preconditioned_cg_takes_few_steps(self, dim, n):
        # the circulant preconditioner holds CG to 5-14 steps on every grid
        # tried; the unpreconditioned product needed 83 (line) and 30 (plane)
        g = fv.build_grid(dim, 1.0, n)
        kt = fv.build_kernel_table(g, fv.FracParams(0.5, 2.0), 4.0)
        res = fv.capacity(fv.CellSet.ball(g, np.zeros(dim), 0.3), kt)
        assert res.iterations <= 15

    @pytest.mark.parametrize("kt_name", ["line_kt", "plane_kt"])
    def test_poor_cg_iterate_finished_by_descent(self, monkeypatch, request, kt_name):
        kt = request.getfixturevalue(kt_name)
        target = fv.CellSet.ball(kt.grid, np.zeros(kt.grid.dim), 0.2)

        def poor_cg(_apply, _precondition, _r, free, _target, _cap):
            # three CG steps that end at a poor iterate
            return np.where(free, 0.5, 0.0), 3

        monkeypatch.setattr(capacity_mod, "_solve_on_free", poor_cg)
        counts = count_passes(monkeypatch)
        opts = fv.CapacityOptions()
        res = fv.capacity(target, kt, opts)
        assert counts["descents"] == 1 and counts["trials"] > 0
        assert res.iterations > 3
        assert res.grad_norm <= opts.tol_factor * max(1.0, res.value)
        oracle_value, _ = qp_capacity_oracle(target.mask, kt)
        assert res.value == pytest.approx(oracle_value, rel=1e-6)

        tiny = fv.CapacityOptions(max_iter=4)
        with pytest.raises(ConvergenceError, match="no convergence within 4 iterations") as err:
            fv.capacity(target, kt, tiny)
        assert err.value.result.iterations == 4


class TestBallScaling:
    def test_line_slope(self):
        fp = fv.FracParams(0.4, 2.0)
        fit = fv.capacity_ball_scaling([0.25, 0.5, 1.0, 2.0], fp, 1, cells_per_dim=32)
        assert fit.slope == pytest.approx(1 - 0.8, abs=0.05)

    def test_plane_slope(self):
        fp = fv.FracParams(0.5, 2.0)
        fit = fv.capacity_ball_scaling([0.5, 1.0, 2.0], fp, 2, cells_per_dim=10)
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_doubling_ratio(self):
        fp = fv.FracParams(0.4, 2.0)
        fit = fv.capacity_ball_scaling([0.5, 1.0, 2.0], fp, 1, cells_per_dim=32)
        assert fit.values[1] / fit.values[0] == pytest.approx(2 ** 0.2, rel=1e-3)

    def test_needs_three_radii(self):
        fp = fv.FracParams(0.4, 2.0)
        with pytest.raises(DomainError):
            fv.capacity_ball_scaling([0.5, 1.0], fp, 1)

    def test_under_resolved_ball_rejected(self):
        fp = fv.FracParams(0.4, 2.0)
        with pytest.raises(DomainError, match="fewer than 4 cells"):
            fv.capacity_ball_scaling([0.5, 1.0, 2.0], fp, 1, cells_per_dim=6)  # 3 across


class TestGridCheck:
    """Inputs from another grid than the table's are refused before any
    solve, also when they have as many cells."""

    STRANGERS = [(2, 1.0, 8), (1, 2.0, 64)]

    @pytest.fixture(scope="class")
    def line64(self):
        return fv.build_kernel_table(fv.build_grid(1, 1.0, 64), fv.FracParams(0.4, 2.0), 4.0)

    @pytest.mark.parametrize("spec", STRANGERS)
    def test_capacity(self, line64, spec):
        other = fv.build_grid(*spec)
        with pytest.raises(DomainError, match="different grids"):
            fv.capacity(cells(other, [27, 28]), line64)

    @pytest.mark.parametrize("spec", STRANGERS)
    @pytest.mark.parametrize("sweep", [
        lambda w, kt: fv.hardy_norm_estimate(w, kt),
        lambda w, kt: fv.concentration_at(w, np.zeros(w.grid.dim), [0.5, 0.25], kt),
        lambda w, kt: fv.concentration_at_infinity(w, [0.25, 0.5], kt),
        fv.compactness_diagnostic,
    ], ids=["hardy", "at_point", "at_infinity", "diagnostic"])
    def test_sweeps(self, line64, spec, sweep):
        w = fv.sample(fv.build_grid(*spec), fv.PowerLaw(alpha=0.8))
        with pytest.raises(DomainError, match="different grids"):
            sweep(w, line64)


def no_capacity(monkeypatch):
    def solve(*_args, **_kwargs):
        raise AssertionError("a capacity was solved")

    monkeypatch.setattr(capacity_mod, "capacity", solve)


EMPTY_FAMILY_SWEEPS = {
    "hardy": lambda w, kt, family: fv.hardy_norm_estimate(w, kt, family),
    "at_point": lambda w, kt, family: fv.concentration_at(w, (0.0,), [0.5, 0.25], kt, family),
    "at_infinity": lambda w, kt, family: fv.concentration_at_infinity(w, [0.25, 0.5], kt,
                                                                      family),
}


class TestHardyNorm:
    def test_zero_weight(self, monkeypatch, line_kt, line_grid):
        no_capacity(monkeypatch)
        w = fv.GridFunction(line_grid, np.zeros(line_grid.n_cells))
        res = fv.hardy_norm_estimate(w, line_kt)
        assert res.value == 0.0
        assert res.argmax.size == 0
        assert res.sweep == ()

    @pytest.mark.parametrize("sweep", EMPTY_FAMILY_SWEEPS.values(), ids=EMPTY_FAMILY_SWEEPS)
    def test_empty_family_refused(self, monkeypatch, line_kt, line_grid, sweep):
        no_capacity(monkeypatch)
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.8))
        empty = fv.CandidateFamily(ball_radii=(), n_quantiles=0)
        with pytest.raises(DomainError, match="candidate family is empty"):
            sweep(w, line_kt, empty)

    # a fractional stride once put ball centres between cells, and True read as 1
    @pytest.mark.parametrize("kwargs", [{"center_stride": 2.5}, {"center_stride": True},
                                        {"center_stride": 0}, {"n_quantiles": 2.5},
                                        {"n_quantiles": False}, {"n_quantiles": -1},
                                        {"n_quantiles": float("nan")},
                                        {"center_stride": float("inf")}])
    def test_family_refuses_non_whole_counts(self, kwargs):
        with pytest.raises(DomainError, match="whole number"):
            fv.CandidateFamily(ball_radii=(0.5,), **kwargs)

    def test_family_stores_whole_floats_as_ints(self):
        family = fv.CandidateFamily(ball_radii=(0.5,), center_stride=2.0, n_quantiles=3.0)
        assert (family.center_stride, family.n_quantiles) == (2, 3)
        assert type(family.center_stride) is int and type(family.n_quantiles) is int

    def test_positively_homogeneous(self, line_kt, line_grid):
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.8))
        base = fv.hardy_norm_estimate(w, line_kt)
        doubled = fv.hardy_norm_estimate(
            fv.GridFunction(line_grid, 2 * w.values), line_kt)
        assert doubled.value == base.value * 2

    def test_ball_indicator_argmax_contains_the_ball(self, line_kt, line_grid):
        w = fv.sample(line_grid, fv.Indicator(fv.Ball((0.0,), 0.25)))
        res = fv.hardy_norm_estimate(w, line_kt)
        support = w.values > 0
        # exhaustive sweep: shrinking below the support cannot improve
        assert np.all(res.argmax.mask[support])

    def test_estimate_positive_for_hardy_weight(self, line_kt, line_grid):
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.8))
        assert fv.hardy_norm_estimate(w, line_kt).value > 0

    def test_skipped_candidates_are_listed(self, monkeypatch, line_kt, line_grid):
        solve = capacity_mod.capacity

        def fails_on_odd_sizes(F, kt, opts=None):
            if F.size % 2:
                raise ConvergenceError("no convergence (forced)")
            return solve(F, kt, opts)

        monkeypatch.setattr(capacity_mod, "capacity", fails_on_odd_sizes)
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.8))
        with pytest.warns(UserWarning) as caught:
            res = fv.hardy_norm_estimate(w, line_kt)
        warned = [str(x.message).split()[1] for x in caught
                  if " skipped: " in str(x.message)]
        assert res.skipped and res.skipped == tuple(warned)
        assert {label for label, _ratio in res.sweep}.isdisjoint(res.skipped)
        monkeypatch.undo()
        assert fv.hardy_norm_estimate(w, line_kt).skipped == ()


class TestConcentration:
    def test_profile_monotone_and_positive_at_singularity(self, line_kt, line_grid):
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.8))
        prof = fv.concentration_at(w, (0.0,), [0.5, 0.25, 0.125], line_kt)
        assert all(np.diff(prof.norm_estimates) <= 1e-12)
        assert prof.extrapolated_limit > 0.1 * fv.hardy_norm_estimate(
            w, line_kt).value

    def test_zero_weight_profile(self, line_kt, line_grid):
        w = fv.GridFunction(line_grid, np.zeros(line_grid.n_cells))
        prof = fv.concentration_at(w, (0.0,), [0.5, 0.25], line_kt)
        assert prof.norm_estimates == (0.0, 0.0)

    @pytest.mark.parametrize("point", [(0.5,), (0.5, 0.5, 0.0)])
    def test_point_of_wrong_dimension_refused(self, monkeypatch, plane_kt, plane_grid, point):
        no_capacity(monkeypatch)
        w = fv.sample(plane_grid, fv.PowerLaw(alpha=0.8))
        with pytest.raises(DomainError, match="coordinates"):
            fv.concentration_at(w, point, [0.5, 0.25], plane_kt)
        with pytest.raises(DomainError, match="coordinates"):
            fv.CellSet.ball(plane_grid, point, 0.3)

    def test_unresolvable_radius_rejected(self, line_kt, line_grid):
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.0))
        with pytest.raises(DomainError):
            fv.concentration_at(w, (0.0,), [0.5, 1e-4], line_kt)

    def test_radii_must_decrease(self, line_kt, line_grid):
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.0))
        with pytest.raises(DomainError):
            fv.concentration_at(w, (0.0,), [0.25, 0.5], line_kt)

    @pytest.mark.parametrize("radii", [[0.25, np.nan], [0.25, np.inf], [-0.5, 0.25]],
                             ids=["nan", "inf", "negative_first"])
    def test_bad_radius_at_infinity_refused(self, monkeypatch, line_kt, line_grid, radii):
        # a negative first radius is increasing, but r2 > r**2 makes it no
        # ball, and the masks would not nest
        no_capacity(monkeypatch)
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.8))
        with pytest.raises(DomainError, match="finite, non-negative"):
            fv.concentration_at_infinity(w, radii, line_kt)

    @pytest.mark.parametrize("radii", [[0.5, np.nan], [np.inf, 0.5], [0.5, -0.25]],
                             ids=["nan", "inf", "negative_last"])
    def test_bad_radius_at_point_refused(self, monkeypatch, line_kt, line_grid, radii):
        no_capacity(monkeypatch)
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.8))
        with pytest.raises(DomainError, match="finite, non-negative"):
            fv.concentration_at(w, (0.0,), radii, line_kt)

    def test_infinity_profile_vanishes_beyond_support(self, line_kt, line_grid):
        w = fv.sample(line_grid, fv.Indicator(fv.Ball((0.0,), 0.3)))
        prof = fv.concentration_at_infinity(w, [0.25, 0.5, 0.75], line_kt)
        assert prof.norm_estimates[-1] == 0.0
        assert prof.extrapolated_limit == 0.0

    def test_heavy_tail_stays_positive(self, line_kt, line_grid):
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.8))
        prof = fv.concentration_at_infinity(w, [0.25, 0.5, 0.75], line_kt)
        assert prof.norm_estimates[-1] > 0

    def test_compact_weight_limit_shrinks_under_refinement(self):
        # the resolvable limit tracks the smallest ball the grid supports
        limits = []
        for n in (32, 64, 128):
            g = fv.build_grid(1, 1.0, n)
            kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
            gauss = fv.sample(g, fv.GaussianBump(sigma=0.3))
            cut = fv.sample(g, fv.Indicator(fv.Ball((0.0,), 0.6)))
            w = fv.GridFunction(g, gauss.values * cut.values)
            radii = [0.5, 0.25, 0.125]
            if 2 * g.spacing < 0.125:
                radii.append(2 * g.spacing)
            limits.append(fv.concentration_at(
                w, (0.0,), radii, kt).extrapolated_limit)
        assert limits[0] > limits[1] > limits[2]


class TestCompactnessDiagnostic:
    def test_compact_continuous_weight_indicating(self, line_kt, line_grid):
        gauss = fv.sample(line_grid, fv.GaussianBump(sigma=0.3))
        cut = fv.sample(line_grid, fv.Indicator(fv.Ball((0.0,), 0.6)))
        w = fv.GridFunction(line_grid, gauss.values * cut.values)
        verdict = fv.compactness_diagnostic(w, line_kt)
        assert verdict.compact_indicating
        assert verdict.c_star <= verdict.tolerance

    def test_hardy_weight_not_indicating(self, line_kt, line_grid):
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.8))
        verdict = fv.compactness_diagnostic(w, line_kt)
        assert not verdict.compact_indicating
        assert verdict.c_star > verdict.tolerance

    def test_zero_weight_trivially_indicating(self, line_kt, line_grid):
        w = fv.GridFunction(line_grid, np.zeros(line_grid.n_cells))
        verdict = fv.compactness_diagnostic(w, line_kt)
        assert verdict.compact_indicating
        assert verdict.c_star == 0.0


def box_images(grid, mask):
    """The images of a mask under the box's symmetry group, as flat masks:
    the identity and the reflection on the line, the 8 rotations and
    reflections of the square on the plane."""
    a = mask.reshape((grid.cells_per_dim,) * grid.dim)
    if grid.dim == 1:
        return [a, a[::-1]]
    return [np.rot90(t, k).ravel() for t in (a, a.T) for k in range(4)]


class TestOrbitKey:
    @pytest.mark.parametrize("dim, n", [(1, 7), (1, 8), (2, 5), (2, 6), (2, 12)])
    def test_every_image_gives_the_key_of_a_least_image(self, dim, n, rng):
        g = fv.build_grid(dim, 1.0, n)
        mask = rng.random(g.n_cells) < 0.4
        images = box_images(g, mask)
        keys = {capacity_mod._orbit_key(fv.CellSet(g, im.ravel())) for im in images}
        assert len(keys) == 1
        least = np.frombuffer(keys.pop(), dtype=bool)
        assert any(np.array_equal(least, im.ravel()) for im in images)
        assert least.tobytes() == min(im.tobytes() for im in images)

    @pytest.mark.parametrize("dim, n, k", [(1, 7, 3), (1, 8, 4), (2, 5, 2), (2, 6, 2)])
    def test_keys_part_masks_by_orbit(self, dim, n, k):
        # every mask of k cells: two share a key exactly when one is an
        # image of the other
        g = fv.build_grid(dim, 1.0, n)
        orbits = {}
        for idx in itertools.combinations(range(g.n_cells), k):
            mask = np.zeros(g.n_cells, dtype=bool)
            mask[list(idx)] = True
            key = capacity_mod._orbit_key(fv.CellSet(g, mask))
            orbits.setdefault(key, set()).add(mask.tobytes())
        for members in orbits.values():
            first = np.frombuffer(next(iter(members)), dtype=bool)
            assert members == {im.tobytes() for im in box_images(g, first)}

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_images_share_the_capacity(self, p):
        # the premise of the orbit cache: the stencil and the exterior mass
        # are invariant under the box's symmetries
        g = fv.build_grid(2, 1.0, 8)
        kt = fv.build_kernel_table(g, fv.FracParams(0.3, p), 4.0)
        mask = np.zeros((8, 8), dtype=bool)
        mask[1:3, 2:6] = True
        mask[4, 5] = True
        images = box_images(g, mask.ravel())
        assert len({im.tobytes() for im in images}) == 8
        caps = [fv.capacity(fv.CellSet(g, im), kt).value for im in images]
        assert max(caps) - min(caps) <= 1e-13 * max(caps)


class TestSweepRuntime:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_diagnostic_solves_each_candidate_set_once(self, dim, line_kt, line_grid,
                                                       monkeypatch):
        if dim == 1:
            kt, w = line_kt, fv.sample(line_grid, fv.PowerLaw(alpha=0.8))
        else:
            # an off-centre weight: its sweeps hold images of one another
            g = fv.build_grid(2, 1.0, 8)
            kt = fv.build_kernel_table(g, fv.FracParams(0.3, 3.0), 4.0)
            w = fv.GridFunction(g, 1.0 / np.linalg.norm(g.centers - (0.21, -0.08), axis=1))
        solved = []
        solve = capacity_mod.capacity
        candidates = set()
        orbits = set()
        candidate_capacities = capacity_mod._candidate_capacities

        def counting(F, kt, opts=None):
            solved.append(F.mask.tobytes())
            return solve(F, kt, opts)

        def recording(cands, *args):
            candidates.update(cs.mask.tobytes() for _, cs in cands)
            orbits.update(capacity_mod._orbit_key(cs) for _, cs in cands)
            return candidate_capacities(cands, *args)

        monkeypatch.setattr(capacity_mod, "capacity", counting)
        monkeypatch.setattr(capacity_mod, "_candidate_capacities", recording)
        verdict = fv.compactness_diagnostic(w, kt)
        shared = list(solved)
        # one solve per orbit, on its least image
        assert sorted(shared) == sorted(orbits)
        if dim == 2:
            assert len(orbits) < len(candidates)
        # the public functions each solve their whole family on their own,
        # and give the diagnostic's values bit for bit
        solved.clear()
        assert fv.hardy_norm_estimate(w, kt).value == verdict.weight_norm
        for x, prof in zip(verdict.points, verdict.profiles):
            assert fv.concentration_at(w, x, prof.radii, kt) == prof
        at_infinity = fv.concentration_at_infinity(w, verdict.infinity_profile.radii, kt)
        assert at_infinity == verdict.infinity_profile
        assert len(solved) > len(shared)
        assert shared == list(dict.fromkeys(solved))
        if dim == 2:
            n = w.grid.cells_per_dim
            transposed = fv.GridFunction(w.grid, w.values.reshape(n, n).T.ravel())
            # the capacities are shared bit for bit; each mass sums |w| in
            # cell order, which the transpose changes, so it may move an ulp
            assert fv.hardy_norm_estimate(transposed, kt).value == pytest.approx(
                verdict.weight_norm, rel=1e-15)

    def test_sweep_starts_no_thread(self, line_kt, line_grid, monkeypatch):
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.8))
        assert fv.hardy_norm_estimate(w, line_kt).value > 0
        assert started == []
