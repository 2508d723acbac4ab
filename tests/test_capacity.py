import importlib
import threading

import numpy as np
import pytest

import fracvar as fv
import fracvar.energy as energy_mod
from fracvar.energy import stiffness_matrix
from fracvar.errors import ConvergenceError, DomainError

# the package attribute ``fracvar.capacity`` is the function, not the module
capacity_mod = importlib.import_module("fracvar.capacity")


def qp_capacity_oracle(mask, kt, domain=None):
    """Dense p = 2 oracle: solve the KKT system on the free cells, clamp,
    and verify feasibility.  Cells outside ``domain`` (a mask) are 0."""
    a = stiffness_matrix(kt)
    fixed = mask
    free = ~fixed if domain is None else ~fixed & domain
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

    monkeypatch.setattr(energy_mod, "raw_gateaux_vector", forbidden)
    monkeypatch.setattr(capacity_mod, "raw_gateaux_vector", forbidden, raising=False)
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
        target = fv.CellSet.from_indices(line_grid, [line_grid.n_cells // 2])
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
            small = fv.CellSet.from_indices(line_grid, idx[:3])
            large = fv.CellSet.from_indices(line_grid, idx)
            assert (fv.capacity(small, line_kt).value
                    <= fv.capacity(large, line_kt).value * (1 + 1e-9))

    def test_start_independent_value(self, line_kt, line_grid, rng):
        target = fv.CellSet.ball(line_grid, (0.0,), 0.2)
        a = fv.capacity(target, line_kt, start=np.zeros(line_grid.n_cells))
        b = fv.capacity(target, line_kt,
                        start=rng.uniform(0, 1, line_grid.n_cells))
        assert a.value == pytest.approx(b.value, rel=1e-6)

    @pytest.mark.parametrize("bad", [np.zeros(5), np.full(32, np.nan)])
    def test_bad_start_refused_before_any_solve(self, monkeypatch, line_kt, line_grid, bad):
        def no_solve(*_args, **_kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(capacity_mod, "_linear_solve", no_solve)
        monkeypatch.setattr(capacity_mod, "raw_energy", no_solve)
        with pytest.raises(DomainError):
            fv.capacity(fv.CellSet.ball(line_grid, (0.0,), 0.2), line_kt, start=bad)

    @pytest.mark.parametrize("kt_name", ["line_kt_p3"])
    def test_one_pair_pass_per_trial(self, monkeypatch, request, line_grid, kt_name):
        # each trial's pass also gives the gradient at the point it accepts
        kt = request.getfixturevalue(kt_name)
        counts = count_passes(monkeypatch)
        res = fv.capacity(fv.CellSet.ball(line_grid, (0.0,), 0.2), kt)
        assert res.iterations > 1
        assert counts["trials"] >= res.iterations
        assert counts["pairs"] == counts["trials"] + 1

    def test_converged_p2_solve_makes_one_pair_pass(self, monkeypatch, line_kt, line_grid):
        # conjugate gradients reach the minimizer; the one pair pass verifies it
        counts = count_passes(monkeypatch)
        res = fv.capacity(fv.CellSet.ball(line_grid, (0.0,), 0.2), line_kt)
        assert res.iterations > 1
        assert counts == {"pairs": 1, "descents": 0, "trials": 0}

    def test_subadditive_on_disjoint_union(self, line_kt, line_grid):
        left = fv.CellSet.ball(line_grid, (-0.6,), 0.15)
        right = fv.CellSet.ball(line_grid, (0.6,), 0.15)
        union = fv.CellSet(line_grid, left.mask | right.mask)
        cl = fv.capacity(left, line_kt).value
        cr = fv.capacity(right, line_kt).value
        cu = fv.capacity(union, line_kt).value
        assert cu <= (cl + cr) * (1 + 1e-9)

    def test_relative_capacity_localization(self, line_kt, line_grid):
        # pinning the complement of B_2r to zero shrinks the admissible
        # class, so the relative value dominates; ratio stays bounded
        target_all = fv.CellSet.ball(line_grid, (0.0,), 0.4)
        ratios = []
        for r in (0.2, 0.3, 0.4):
            ball_r = fv.CellSet.ball(line_grid, (0.0,), r)
            target = fv.CellSet(line_grid, target_all.mask & ball_r.mask)
            dom = fv.CellSet.ball(line_grid, (0.0,), 2 * r)
            rel = fv.capacity(target, line_kt, domain=dom).value
            full = fv.capacity(target, line_kt).value
            assert rel >= full * (1 - 1e-9)
            ratios.append(rel / full)
        assert max(ratios) < 10.0

    def test_target_outside_domain_rejected(self, line_kt, line_grid):
        target = fv.CellSet.ball(line_grid, (0.6,), 0.1)
        domain = fv.CellSet.ball(line_grid, (0.0,), 0.3)
        with pytest.raises(DomainError):
            fv.capacity(target, line_kt, domain=domain)

    def test_budget_exhaustion_is_reported_as_such(self):
        g = fv.build_grid(1, 1.0, 16)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        target = fv.CellSet.ball(g, (0.0,), 0.3)
        opts = fv.CapacityOptions(tol_factor=0.0, max_iter=5)
        with pytest.raises(ConvergenceError, match="no convergence within 5 iterations") as err:
            fv.capacity(target, kt, opts)
        assert err.value.result.iterations == 5


class TestLinearPath:
    """At p = 2 the capacity is one linear solve on the free cells."""

    @staticmethod
    def check_against_oracle(res, target, kt, domain=None):
        oracle_value, oracle_u = qp_capacity_oracle(
            target.mask, kt, None if domain is None else domain.mask)
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
    def test_relative_capacity_matches_qp_oracle(self, request, kt_name):
        kt = request.getfixturevalue(kt_name)
        target = fv.CellSet.ball(kt.grid, np.zeros(kt.grid.dim), 0.3)
        domain = fv.CellSet.ball(kt.grid, np.zeros(kt.grid.dim), 0.6)
        res = fv.capacity(target, kt, domain=domain)
        self.check_against_oracle(res, target, kt, domain)
        assert np.all(res.minimizer.values[~domain.mask] == 0.0)

    @pytest.mark.parametrize("kt_name", ["line_kt", "plane_kt"])
    def test_random_start_matches_qp_oracle(self, request, kt_name, rng):
        kt = request.getfixturevalue(kt_name)
        target = fv.CellSet.ball(kt.grid, np.zeros(kt.grid.dim), 0.3)
        start = rng.uniform(-0.5, 1.5, kt.grid.n_cells)
        self.check_against_oracle(fv.capacity(target, kt, start=start), target, kt)

    @pytest.mark.parametrize("dim, n", [(1, 1024), (2, 64)])
    def test_preconditioned_cg_takes_few_steps(self, dim, n):
        # the circulant preconditioner holds CG to 5-14 steps on every grid
        # tried; the unpreconditioned product needed 83 (line) and 30 (plane)
        g = fv.build_grid(dim, 1.0, n)
        kt = fv.build_kernel_table(g, fv.FracParams(0.5, 2.0), 4.0)
        res = fv.capacity(fv.CellSet.ball(g, np.zeros(dim), 0.3), kt)
        assert res.iterations <= 15

    def test_poor_cg_iterate_finished_by_descent(self, monkeypatch, line_kt, line_grid):
        target = fv.CellSet.ball(line_grid, (0.0,), 0.2)

        def poor_cg(_u, _kt, free, _opts):
            # three CG steps that end at a poor iterate
            return np.full(free.sum(), 0.5), 3

        monkeypatch.setattr(capacity_mod, "_linear_solve", poor_cg)
        counts = count_passes(monkeypatch)
        opts = fv.CapacityOptions()
        res = fv.capacity(target, line_kt, opts)
        assert counts["descents"] == 1 and counts["trials"] > 0
        assert res.iterations > 3
        assert res.grad_norm <= opts.tol_factor * max(1.0, res.value)
        oracle_value, _ = qp_capacity_oracle(target.mask, line_kt)
        assert res.value == pytest.approx(oracle_value, rel=1e-6)

        tiny = fv.CapacityOptions(max_iter=4)
        with pytest.raises(ConvergenceError, match="no convergence within 4 iterations") as err:
            fv.capacity(target, line_kt, tiny)
        assert err.value.result.iterations == 4


class TestBallScaling:
    def test_line_slope(self):
        fp = fv.FracParams(0.4, 2.0)
        builder = fv.ball_table_builder(fp, 1, cells_per_dim=32)
        fit = fv.capacity_ball_scaling([0.25, 0.5, 1.0, 2.0], builder, fp)
        assert fit.slope == pytest.approx(1 - 0.8, abs=0.05)

    def test_plane_slope(self):
        fp = fv.FracParams(0.5, 2.0)
        builder = fv.ball_table_builder(fp, 2, cells_per_dim=10)
        fit = fv.capacity_ball_scaling([0.5, 1.0, 2.0], builder, fp)
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_doubling_ratio(self):
        fp = fv.FracParams(0.4, 2.0)
        builder = fv.ball_table_builder(fp, 1, cells_per_dim=32)
        fit = fv.capacity_ball_scaling([0.5, 1.0, 2.0], builder, fp)
        assert fit.values[1] / fit.values[0] == pytest.approx(2 ** 0.2, rel=1e-3)

    def test_needs_three_radii(self):
        fp = fv.FracParams(0.4, 2.0)
        builder = fv.ball_table_builder(fp, 1)
        with pytest.raises(DomainError):
            fv.capacity_ball_scaling([0.5, 1.0], builder, fp)

    def test_under_resolved_ball_rejected(self):
        fp = fv.FracParams(0.4, 2.0)

        def coarse(radius):
            grid = fv.build_grid(1, 8.0 * radius, 8)  # 2 cells across the ball
            return fv.build_kernel_table(grid, fp, 32.0 * radius)

        with pytest.raises(DomainError):
            fv.capacity_ball_scaling([0.5, 1.0, 2.0], coarse, fp)


class TestHardyNorm:
    def test_zero_weight(self, line_kt, line_grid):
        w = fv.GridFunction(line_grid, np.zeros(line_grid.n_cells))
        assert fv.hardy_norm_estimate(w, line_kt).value == 0.0

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

    def test_unresolvable_radius_rejected(self, line_kt, line_grid):
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.0))
        with pytest.raises(DomainError):
            fv.concentration_at(w, (0.0,), [0.5, 1e-4], line_kt)

    def test_radii_must_decrease(self, line_kt, line_grid):
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.0))
        with pytest.raises(DomainError):
            fv.concentration_at(w, (0.0,), [0.25, 0.5], line_kt)

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


class TestSweepRuntime:
    def test_diagnostic_solves_each_candidate_set_once(self, line_kt, line_grid,
                                                       monkeypatch):
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.8))
        solved = []
        solve = capacity_mod.capacity

        def counting(F, kt, opts=None):
            solved.append(F.mask.tobytes())
            return solve(F, kt, opts)

        monkeypatch.setattr(capacity_mod, "capacity", counting)
        verdict = fv.compactness_diagnostic(w, line_kt)
        shared = list(solved)
        # the public functions each solve their whole family on their own
        solved.clear()
        fv.hardy_norm_estimate(w, line_kt)
        for x, prof in zip(verdict.points, verdict.profiles):
            fv.concentration_at(w, x, prof.radii, line_kt)
        fv.concentration_at_infinity(w, verdict.infinity_profile.radii, line_kt)
        assert len(solved) > len(shared)
        assert shared == list(dict.fromkeys(solved))

    def test_sweep_starts_no_thread(self, line_kt, line_grid, monkeypatch):
        monkeypatch.setenv("FRACSPEC_THREADS", "4")
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.8))
        assert fv.hardy_norm_estimate(w, line_kt).value > 0
        assert started == []
