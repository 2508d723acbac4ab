import tracemalloc

import numpy as np
import pytest

import fracvar as fv
import fracvar.eigen as eigen_mod
import fracvar.energy as energy_mod
import fracvar.grid as grid_mod
from fracvar.eigen import default_start
from fracvar.energy import _phi, raw_energy, stiffness_matrix
from fracvar.errors import ConvergenceError, DomainError

from conftest import bump


@pytest.fixture(scope="module")
def flat_setup():
    g = fv.build_grid(1, 1.0, 32)
    kt = fv.build_kernel_table(g, fv.FracParams(0.5, 2.0), 4.0)
    return g, kt, fv.Weight.constant(g)


def signed_weight(g):
    w1 = fv.sample(g, fv.GaussianBump(sigma=0.35))
    w2 = fv.sample(g, fv.Indicator(fv.Ball((0.45,), 0.25), amplitude=0.2))
    return fv.Weight(w1, w2)


@pytest.fixture(scope="module")
def signed_setup():
    g = fv.build_grid(1, 1.0, 32)
    kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
    return g, kt, signed_weight(g)


class TestWeight:
    def test_rejects_negative_parts(self, line_grid):
        pos = fv.GridFunction(line_grid, np.ones(line_grid.n_cells))
        neg = fv.GridFunction(line_grid, -np.ones(line_grid.n_cells))
        with pytest.raises(DomainError):
            fv.Weight(neg, pos)

    def test_rejects_vanishing_positive_part(self, line_grid):
        zero = fv.GridFunction(line_grid, np.zeros(line_grid.n_cells))
        with pytest.raises(DomainError):
            fv.Weight(zero, zero)

    def test_split_from_function(self, line_grid, rng):
        w = fv.GridFunction(line_grid, rng.standard_normal(line_grid.n_cells))
        wt = fv.Weight.from_function(w)
        np.testing.assert_array_equal(wt.combined.values, w.values)
        assert np.all(wt.w1.values >= 0)
        assert np.all(wt.w2.values >= 0)


class TestFirstEigenpair:
    def test_matches_dense_oracle(self, flat_setup):
        _g, kt, wt = flat_setup
        res = fv.first_eigenpair(wt, kt)
        oracle = fv.linear_oracle(wt, kt)
        assert res.lam == pytest.approx(oracle[0][0], rel=1e-6)
        assert res.constraint_gap <= 1e-10

    def test_scale_invariant_under_start_scaling(self, flat_setup):
        _g, kt, wt = flat_setup
        start = default_start(wt, kt)
        a = fv.first_eigenpair(wt, kt, start=start)
        b = fv.first_eigenpair(wt, kt, start=2.0 * start)
        assert b.lam == pytest.approx(a.lam, rel=1e-10)

    def test_ground_state_strictly_positive(self, flat_setup, signed_setup):
        for _g, kt, wt in (flat_setup, signed_setup):
            res = fv.first_eigenpair(wt, kt)
            assert res.u.values.min() > 0.0

    def test_lambda_equals_energy_on_constraint(self, flat_setup):
        _g, kt, wt = flat_setup
        res = fv.first_eigenpair(wt, kt)
        assert res.lam == pytest.approx(raw_energy(res.u.values, kt), rel=1e-12)

    def test_empty_constraint_set_rejected(self, line_grid):
        kt = fv.build_kernel_table(line_grid, fv.FracParams(0.4, 2.0), 4.0)
        w1 = fv.GridFunction(line_grid, np.ones(line_grid.n_cells))
        w2 = fv.GridFunction(line_grid, 2 * np.ones(line_grid.n_cells))
        with pytest.raises(DomainError):
            fv.first_eigenpair(fv.Weight(w1, w2), kt)

    def test_rayleigh_quotient_of_minimizer_is_lambda(self, flat_setup):
        _g, kt, wt = flat_setup
        res = fv.first_eigenpair(wt, kt)
        q = fv.rayleigh_quotient(res.u, wt.combined, kt)
        assert q == pytest.approx(res.lam, rel=1e-10)

    def test_identical_starts_give_identical_results(self, flat_setup):
        _g, kt, wt = flat_setup
        start = default_start(wt, kt)
        a = fv.first_eigenpair(wt, kt, start=start)
        b = fv.first_eigenpair(wt, kt, start=start.copy())
        assert a.lam == b.lam
        np.testing.assert_array_equal(a.u.values, b.u.values)


class TestLinearOracle:
    def test_stiffness_symmetric_positive(self, flat_setup):
        _g, kt, _wt = flat_setup
        from fracvar.energy import stiffness_matrix
        a = stiffness_matrix(kt)
        assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))
        assert np.linalg.eigvalsh(a).min() > 0

    def test_never_builds_the_fft_operator(self, monkeypatch, line_grid):
        # the oracle cross-checks the FFT path, so it must not go through it
        def no_operator(_kt):
            raise AssertionError("the dense oracle built the FFT operator")

        monkeypatch.setattr(energy_mod, "P2Operator", no_operator)
        kt = fv.build_kernel_table(line_grid, fv.FracParams(0.4, 2.0), 4.0)
        assert fv.linear_oracle(fv.Weight.constant(line_grid), kt)
        assert "p2_operator" not in vars(kt)

    def test_requires_p_two(self, line_grid):
        kt = fv.build_kernel_table(line_grid, fv.FracParams(0.3, 3.0), 4.0)
        with pytest.raises(DomainError):
            fv.linear_oracle(fv.Weight.constant(line_grid), kt)

    def test_refuses_oracle_beyond_physical_memory(self, monkeypatch):
        # the oracle's 6 M^2 doubles (12 MiB at M = 512) against 4 MiB of
        # memory: refused before the first 2 MiB M x M array is allocated
        g = fv.build_grid(1, 1.0, 512)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        monkeypatch.setattr(grid_mod, "_physical_memory", lambda: 4 * 1024 * 1024)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="physical memory"):
                stiffness_matrix(kt)
            with pytest.raises(DomainError, match="physical memory"):
                fv.linear_oracle(fv.Weight.constant(g), kt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    def test_peak_memory_is_four_squares(self):
        # tracemalloc sees numpy arrays only: L^-1, C, its eigenvectors and
        # the triangular products' blocks; eigh's copy and workspace are not
        g = fv.build_grid(1, 1.0, 256)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        tracemalloc.start()
        try:
            fv.linear_oracle(fv.Weight.constant(g), kt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.1 * 8 * g.n_cells**2

    @pytest.mark.parametrize("n", [257, 300])
    def test_every_pair_solves_the_pencil(self, n):
        # grids large enough for several levels of the by-halves inverse and
        # triangular products, at odd and even splits
        g = fv.build_grid(1, 1.0, n)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        wt = cosine_weight(g)
        a = stiffness_matrix(kt)
        wm = wt.combined.values * kt.cell_measure
        pairs = fv.linear_oracle(wt, kt)
        assert len(pairs) == np.count_nonzero(wm > 0)
        for lam, u in pairs:
            defect = np.max(np.abs(a @ u.values - lam * wm * u.values))
            assert defect <= 1e-12 * lam * np.max(np.abs(wm * u.values))

    def test_sign_changing_weight_has_positive_principal_pair(self, signed_setup):
        _g, kt, wt = signed_setup
        pairs = fv.linear_oracle(wt, kt)
        lam1, u1 = pairs[0]
        assert lam1 > 0
        assert fv.sign_structure(u1) == "nonnegative"

    def test_normalizes_weighted_mass(self, flat_setup):
        _g, kt, wt = flat_setup
        from fracvar.energy import weighted_mass
        lam, u = fv.linear_oracle(wt, kt)[0]
        assert weighted_mass(u, wt.combined, kt) == pytest.approx(1.0, rel=1e-10)


class TestDeflation:
    def test_second_matches_oracle_and_changes_sign(self, flat_setup):
        _g, kt, wt = flat_setup
        first, second = fv.eigen_sequence(wt, kt, 2)
        oracle = fv.linear_oracle(wt, kt)
        assert second.lam == pytest.approx(oracle[1][0], rel=1e-4)
        assert fv.sign_structure(second.u) == "sign_changing"
        assert second.lam > first.lam + 1e-6

    def test_sequence_levels_match_oracle(self, flat_setup):
        _g, kt, wt = flat_setup
        seq = fv.eigen_sequence(wt, kt, 4)
        oracle = fv.linear_oracle(wt, kt)
        for res, (lam, _) in zip(seq, oracle):
            assert res.lam == pytest.approx(lam, rel=1e-4)
        lams = [r.lam for r in seq]
        assert lams == sorted(lams)

    @pytest.mark.parametrize("p, signed", [(2.0, False), (3.0, False), (3.0, True)])
    def test_levels_paired_to_zero_with_earlier_levels(self, flat_setup, p, signed):
        if p == 2.0:
            _g, kt, wt = flat_setup
        else:
            g = fv.build_grid(1, 1.0, 64)
            kt = fv.build_kernel_table(g, fv.FracParams(0.3, p), 4.0)
            wt = signed_weight(g) if signed else fv.Weight.constant(g)
        seq = fv.eigen_sequence(wt, kt, 4, fv.EigenOptions(tol=1e-8, seed=42))
        wm = wt.combined.values * kt.cell_measure
        for k in range(1, 4):
            for j in range(k):
                pairing = float((wm * _phi(seq[j].u.values, p) * seq[k].u.values).sum())
                assert abs(pairing) <= 1e-12, (j, k, pairing)
        lams = [r.lam for r in seq]
        assert lams == sorted(lams)
        assert all(fv.sign_structure(r.u) == "sign_changing" for r in seq[1:])
        if p == 2.0:
            oracle = [lam for lam, _ in fv.linear_oracle(wt, kt)[:4]]
            np.testing.assert_allclose(lams, oracle, rtol=1e-9)

    def test_single_level_equals_first(self, flat_setup):
        _g, kt, wt = flat_setup
        seq = fv.eigen_sequence(wt, kt, 1)
        direct = fv.first_eigenpair(wt, kt)
        assert seq[0].lam == direct.lam
        np.testing.assert_array_equal(seq[0].u.values, direct.u.values)

    def test_signed_weight_spectrum(self, signed_setup):
        _g, kt, wt = signed_setup
        seq = fv.eigen_sequence(wt, kt, 2)
        oracle = fv.linear_oracle(wt, kt)
        assert seq[0].lam == pytest.approx(oracle[0][0], rel=1e-6)
        assert seq[1].lam == pytest.approx(oracle[1][0], rel=1e-4)
        assert fv.sign_structure(seq[1].u) == "sign_changing"

    def test_swapped_weight_gives_the_negative_spectrum(self):
        g = fv.build_grid(1, 1.0, 32)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        w = fv.GridFunction(g, np.cos(2.5 * g.centers[:, 0]) + 0.2)
        swapped = fv.Weight.from_function(w).swapped()
        np.testing.assert_array_equal(swapped.combined.values, -w.values)
        res = fv.first_eigenpair(swapped, kt)
        assert res.lam == pytest.approx(fv.linear_oracle(swapped, kt)[0][0], rel=1e-6)

    def test_rejects_bad_level_count(self, flat_setup):
        _g, kt, wt = flat_setup
        with pytest.raises(DomainError):
            fv.eigen_sequence(wt, kt, 0)


def cosine_weight(g):
    """w = cos(2.5 x) along the first axis: positive in the middle, negative
    near both ends, so its swap has a positive part too."""
    return fv.Weight.from_function(fv.GridFunction(g, np.cos(2.5 * g.centers[:, 0])))


class TestLobpcgPath:
    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 8)])
    @pytest.mark.parametrize("kind", ["flat", "signed", "swapped"])
    def test_levels_match_oracle(self, dim, n, kind):
        g = fv.build_grid(dim, 1.0, n)
        kt = fv.build_kernel_table(g, fv.FracParams(0.45, 2.0), 4.0)
        wt = {"flat": fv.Weight.constant(g), "signed": cosine_weight(g),
              "swapped": cosine_weight(g).swapped()}[kind]
        opts = fv.EigenOptions(tol=1e-8, seed=3)
        seq = fv.eigen_sequence(wt, kt, 3, opts)
        oracle = fv.linear_oracle(wt, kt)
        for res, (lam, _u) in zip(seq, oracle):
            assert abs(res.lam / lam - 1.0) <= 1e-12
            assert fv.residual_check(res.lam, res.u, wt, kt) <= opts.tol
            assert res.constraint_gap <= 1e-12
            # far inside the 50000-step budget, which a stalled LOBPCG runs out
            assert res.iterations < 500

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    @pytest.mark.parametrize("kind", ["flat", "signed"])
    def test_levels_at_the_basis_boundary(self, n, kind):
        # LOBPCG runs level k only where its basis [X, W, P] of 3 k columns
        # fits in the n cells: level 3 from n = 9, where the basis is the
        # whole space; below that the descent solves level 3 alone
        g = fv.build_grid(1, 1.0, n)
        kt = fv.build_kernel_table(g, fv.FracParams(0.45, 2.0), 4.0)
        wt = fv.Weight.constant(g) if kind == "flat" else cosine_weight(g)
        seq = fv.eigen_sequence(wt, kt, 3, fv.EigenOptions(tol=1e-8, seed=3))
        for res, (lam, _u) in zip(seq, fv.linear_oracle(wt, kt)):
            assert abs(res.lam / lam - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_start_drawn_on_the_positive_part(self, seed):
        # no oscillatory draw has positive mass for this weight on the plane,
        # so the start of each deflated level is drawn on {w > 0}
        g = fv.build_grid(2, 1.0, 8)
        kt = fv.build_kernel_table(g, fv.FracParams(0.45, 2.0), 4.0)
        shifted = fv.GridFunction(g, np.cos(2.5 * g.centers[:, 0]) + 0.2)
        wt = fv.Weight.from_function(shifted).swapped()
        seq = fv.eigen_sequence(wt, kt, 3, fv.EigenOptions(tol=1e-9, seed=seed))
        for res, (lam, _u) in zip(seq, fv.linear_oracle(wt, kt)):
            assert res.lam == pytest.approx(lam, rel=1e-6)

    def test_start_is_not_mutated(self, signed_setup):
        _g, kt, wt = signed_setup
        start = default_start(wt, kt)
        before = start.copy()
        start.setflags(write=False)
        fv.first_eigenpair(wt, kt, start=start)
        np.testing.assert_array_equal(start, before)

    @pytest.mark.parametrize("bad", [np.ones(5), np.full(32, np.nan)])
    def test_bad_start_refused_before_any_solve(self, monkeypatch, flat_setup, bad):
        _g, kt, wt = flat_setup

        def no_solve(*_args, **_kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(eigen_mod, "_descend", no_solve)
        with pytest.raises(DomainError):
            fv.first_eigenpair(wt, kt, start=bad)

    def test_poor_iterate_finished_by_descent(self, monkeypatch, flat_setup):
        _g, kt, wt = flat_setup

        def poor_lobpcg(_wt, _kt, u, _lam0, _opts, _previous):
            # three preconditioned steps that leave the start unchanged
            return u, 3

        monkeypatch.setattr(eigen_mod, "_lobpcg", poor_lobpcg)
        opts = fv.EigenOptions(tol=1e-8)
        res = fv.first_eigenpair(wt, kt, opts)
        assert res.iterations > 3
        assert res.residual <= opts.tol
        assert res.lam == pytest.approx(fv.linear_oracle(wt, kt)[0][0], rel=1e-6)

        with pytest.raises(ConvergenceError,
                           match="no convergence within 5 iterations") as err:
            fv.first_eigenpair(wt, kt, fv.EigenOptions(tol=1e-8, max_iter=5))
        assert err.value.result.iterations == 5

    def test_capped_below_roundoff_floor(self):
        # LOBPCG runs every step it is given below its roundoff floor; capped,
        # it leaves the descent the rest of the budget to finish
        g = fv.build_grid(1, 1.0, 64)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        opts = fv.EigenOptions(tol=1e-16, max_iter=3000)
        res = fv.first_eigenpair(fv.Weight.constant(g), kt, opts)
        assert res.residual <= opts.tol
        assert res.iterations < opts.max_iter

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 3])
    def test_tiny_budget_raises(self, flat_setup, max_iter):
        _g, kt, wt = flat_setup
        with pytest.raises(ConvergenceError,
                           match=f"no convergence within {max_iter} iterations") as err:
            fv.first_eigenpair(wt, kt, fv.EigenOptions(tol=1e-8, max_iter=max_iter))
        assert err.value.result.iterations == max_iter


class TestResidualCheck:
    def test_converged_pair_below_tolerance(self, flat_setup):
        _g, kt, wt = flat_setup
        opts = fv.EigenOptions(tol=1e-8)
        res = fv.first_eigenpair(wt, kt, opts)
        assert fv.residual_check(res.lam, res.u, wt, kt) <= 1e-8

    def test_oracle_pair_near_machine_precision(self, flat_setup):
        _g, kt, wt = flat_setup
        lam, u = fv.linear_oracle(wt, kt)[0]
        assert fv.residual_check(lam, u, wt, kt) <= 1e-8

    def test_random_field_far_from_critical(self, flat_setup, rng):
        g, kt, wt = flat_setup
        u = fv.GridFunction(g, np.abs(rng.standard_normal(g.n_cells)) + 0.1)
        assert fv.residual_check(5.0, u, wt, kt) > 1e-3

    def test_zero_function_rejected(self, flat_setup):
        g, kt, wt = flat_setup
        zero = fv.GridFunction(g, np.zeros(g.n_cells))
        with pytest.raises(DomainError):
            fv.residual_check(1.0, zero, wt, kt)


class TestPicone:
    def test_equal_arguments_vanish(self, line_grid):
        v = bump(line_grid, width=0.4)
        v = fv.GridFunction(line_grid, v.values + 0.1)
        res = fv.picone_gap(v, v, 2.5)
        assert abs(res.min_value) <= 1e-12

    def test_constant_multiple_vanishes(self, line_grid):
        v = fv.GridFunction(line_grid, bump(line_grid, width=0.4).values + 0.1)
        u = fv.GridFunction(line_grid, 3.0 * v.values)
        for p in (1.5, 2.0, 3.0):
            res = fv.picone_gap(u, v, p)
            assert abs(res.min_value) <= 1e-12

    def test_two_cell_cross_pair(self):
        g = fv.build_grid(1, 1.0, 2)
        u = fv.GridFunction(g, np.array([1.0, 0.0]))
        v = fv.GridFunction(g, np.array([1.0, 1.0]))
        for p in (1.5, 2.0, 2.7):
            res = fv.picone_gap(u, v, p)
            assert res.min_value == pytest.approx(0.0, abs=1e-15)
            i, j = 0, 1
            k_cross = (abs(u.values[i] - u.values[j]) ** p
                       - 0.0)  # v has no increment, the cross term drops
            assert k_cross == 1.0

    def test_nonnegative_over_random_pairs(self, line_grid, rng):
        for _ in range(25):
            u = fv.GridFunction(line_grid,
                                np.abs(rng.standard_normal(line_grid.n_cells)))
            v = fv.GridFunction(
                line_grid, np.abs(rng.standard_normal(line_grid.n_cells)) + 0.05)
            p = float(rng.uniform(1.1, 4.0))
            assert fv.picone_gap(u, v, p).min_value >= -1e-12

    def test_blocked_term_fits_small_memory(self, monkeypatch, rng):
        # the dense term would take 6 M^2 doubles (12 MiB at M = 512); with
        # 4 MiB of memory the row blocks still compute every minimum exactly
        g = fv.build_grid(1, 1.0, 512)
        u = fv.GridFunction(g, np.abs(rng.standard_normal(g.n_cells)))
        v = fv.GridFunction(g, np.abs(rng.standard_normal(g.n_cells)) + 0.05)
        p = 2.7
        ratio = u.values * (u.values / v.values) ** (p - 1.0)
        dense = (np.abs(u.values[:, None] - u.values) ** p
                 - _phi(v.values[:, None] - v.values, p)
                 * (ratio[:, None] - ratio))
        monkeypatch.setattr(grid_mod, "_physical_memory", lambda: 4 * 1024 * 1024)
        tracemalloc.start()
        try:
            res = fv.picone_gap(u, v, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024
        assert np.array_equal(res.per_cell_min.values, dense.min(axis=1))
        assert res.min_value == float(dense.min())

    def test_rejects_invalid_arguments(self, line_grid):
        u = fv.GridFunction(line_grid, -np.ones(line_grid.n_cells))
        v = fv.GridFunction(line_grid, np.ones(line_grid.n_cells))
        with pytest.raises(DomainError):
            fv.picone_gap(u, v, 2.0)
        tiny = fv.GridFunction(line_grid, np.full(line_grid.n_cells, 1e-12))
        with pytest.raises(DomainError):
            fv.picone_gap(-u, tiny, 2.0)


class TestSignStructure:
    def test_classifications(self, line_grid):
        n = line_grid.n_cells
        assert fv.sign_structure(
            fv.GridFunction(line_grid, np.ones(n))) == "nonnegative"
        assert fv.sign_structure(
            fv.GridFunction(line_grid, -np.ones(n))) == "nonpositive"
        wave = np.sin(np.linspace(0, 2 * np.pi, n))
        assert fv.sign_structure(
            fv.GridFunction(line_grid, wave)) == "sign_changing"

    def test_zero_function_flagged(self, line_grid):
        zero = fv.GridFunction(line_grid, np.zeros(line_grid.n_cells))
        with pytest.warns(UserWarning):
            assert fv.sign_structure(zero) == "nonnegative"


class TestSimplicityProbe:
    def test_restarts_agree(self, flat_setup):
        _g, kt, wt = flat_setup
        rep = fv.simplicity_probe(wt, kt, restarts=6,
                                  opts=fv.EigenOptions(tol=1e-8))
        assert rep.lambda_spread <= 1e-6
        assert rep.function_spread <= 1e-4
        assert rep.rayleigh_lower_gap >= -1e-6
        assert rep.midpoint_energy_gap <= 1e-9

    def test_midpoint_convexity_random_positive_pairs(self, line_grid, rng):
        # energy of the p-th power midpoint never exceeds the mean energy
        kt = fv.build_kernel_table(line_grid, fv.FracParams(0.4, 2.0), 4.0)
        p = 2.0
        for _ in range(10):
            phi1 = np.abs(rng.standard_normal(line_grid.n_cells)) + 0.05
            phi2 = np.abs(rng.standard_normal(line_grid.n_cells)) + 0.05
            mid = ((phi1**p + phi2**p) / 2.0) ** (1.0 / p)
            j_mid = raw_energy(mid, kt)
            j_avg = 0.5 * (raw_energy(phi1, kt) + raw_energy(phi2, kt))
            assert j_mid <= j_avg * (1 + 1e-12)

    def test_requires_two_restarts(self, flat_setup):
        _g, kt, wt = flat_setup
        with pytest.raises(DomainError):
            fv.simplicity_probe(wt, kt, restarts=1)
