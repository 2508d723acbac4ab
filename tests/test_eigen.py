import tracemalloc

import numpy as np
import pytest

import fracvar as fv
import fracvar.eigen as eigen_mod
import fracvar.energy as energy_mod
import fracvar.grid as grid_mod
from fracvar.eigen import default_start, deflated_start, seeded_start
from fracvar.energy import _phi, raw_energy, raw_weighted_mass, stiffness_matrix
from fracvar.errors import ConvergenceError, DomainError

from conftest import bump


@pytest.fixture(scope="module")
def flat_setup():
    g = fv.build_grid(1, 1.0, 32)
    kt = fv.build_kernel_table(g, fv.FracParams(0.5, 2.0), 4.0)
    return g, kt, flat_weight(g)


def flat_weight(g):
    return fv.GridFunction(g, np.ones(g.n_cells))


def signed_weight(g):
    w1 = fv.sample(g, fv.GaussianBump(sigma=0.35))
    w2 = fv.sample(g, fv.Indicator(fv.Ball((0.45,), 0.25), amplitude=0.2))
    return fv.GridFunction(g, w1.values - w2.values)


@pytest.fixture(scope="module")
def signed_setup():
    g = fv.build_grid(1, 1.0, 32)
    kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
    return g, kt, signed_weight(g)


# every entry point that takes a weight, as solve(w, kt)
ENTRY_POINTS = pytest.mark.parametrize("solve", [
    fv.first_eigenpair,
    lambda w, kt: fv.first_eigenpair(w, kt, start=np.ones(kt.grid.n_cells)),
    lambda w, kt: fv.eigen_sequence(w, kt, 2),
    lambda w, kt: fv.simplicity_probe(w, kt, 2),
    fv.linear_oracle,
    fv.oracle_levels,
    lambda w, kt: fv.residual_check(1.0, bump(kt.grid), w, kt),
], ids=["first", "first_from_start", "sequence", "simplicity", "oracle", "oracle_levels",
        "residual"])


class TestGridCheck:
    """A weight or field from another grid than the table's is refused
    before any solve, also when it has as many cells."""

    @pytest.fixture(scope="class")
    def line64(self):
        return fv.build_kernel_table(fv.build_grid(1, 1.0, 64), fv.FracParams(0.4, 2.0), 4.0)

    @pytest.mark.parametrize("spec", [(1, 1.0, 32), (1, 2.0, 64), (2, 1.0, 8)])
    @ENTRY_POINTS
    def test_weight_on_another_grid(self, line64, spec, solve):
        with pytest.raises(DomainError, match="different grids"):
            solve(flat_weight(fv.build_grid(*spec)), line64)

    def test_residual_of_a_field_on_another_grid(self, line64):
        u = bump(fv.build_grid(1, 2.0, 64))
        with pytest.raises(DomainError, match="different grids"):
            fv.residual_check(1.0, u, flat_weight(line64.grid), line64)


class TestNoPositiveCell:
    """A weight with no positive cell admits no field of positive weighted
    mass: every solver and oracle refuses it before any solve."""

    @pytest.mark.parametrize("values", [0.0, -1.0], ids=["zero", "negative"])
    @ENTRY_POINTS
    def test_refused_before_any_solve(self, monkeypatch, line_kt, values, solve):
        def no_solve(*_args, **_kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(eigen_mod, "_descend", no_solve)
        monkeypatch.setattr(eigen_mod, "stiffness_matrix", no_solve)
        monkeypatch.setattr(eigen_mod, "raw_energy", no_solve)
        w = fv.GridFunction(line_kt.grid, np.full(line_kt.grid.n_cells, values))
        with pytest.raises(DomainError, match="positive in some cell"):
            solve(w, line_kt)


class TestFirstEigenpair:
    def test_matches_dense_oracle(self, flat_setup):
        _g, kt, w = flat_setup
        res = fv.first_eigenpair(w, kt)
        oracle = fv.linear_oracle(w, kt)
        assert res.lam == pytest.approx(oracle[0][0], rel=1e-6)
        assert res.constraint_gap <= 1e-10

    def test_scale_invariant_under_start_scaling(self, flat_setup):
        _g, kt, w = flat_setup
        start = default_start(w, kt)
        a = fv.first_eigenpair(w, kt, start=start)
        b = fv.first_eigenpair(w, kt, start=2.0 * start)
        assert b.lam == pytest.approx(a.lam, rel=1e-10)

    def test_ground_state_strictly_positive(self, flat_setup, signed_setup):
        for _g, kt, w in (flat_setup, signed_setup):
            res = fv.first_eigenpair(w, kt)
            assert res.u.values.min() > 0.0

    def test_lambda_equals_energy_on_constraint(self, flat_setup):
        _g, kt, w = flat_setup
        res = fv.first_eigenpair(w, kt)
        assert res.lam == pytest.approx(raw_energy(res.u.values, kt)[0], rel=1e-12)

    def test_one_pair_pass_per_trial(self, monkeypatch, line_kt_p3):
        # the start's pass and one per trial: an accepted trial's Gateaux
        # vector gives the next direction, so no step makes a second pass
        counts = {"pairs": 0, "trials": 0}
        pair_sums = energy_mod._pair_sums

        def counted_pair_sums(*args):
            counts["pairs"] += 1
            return pair_sums(*args)

        descend = eigen_mod.spectral_descent

        def counted_descent(x, f, aux, direction, trial, max_iter):
            def counted_trial(*args):
                counts["trials"] += 1
                return trial(*args)
            return descend(x, f, aux, direction, counted_trial, max_iter)

        monkeypatch.setattr(energy_mod, "_pair_sums", counted_pair_sums)
        monkeypatch.setattr(eigen_mod, "spectral_descent", counted_descent)
        res = fv.first_eigenpair(flat_weight(line_kt_p3.grid), line_kt_p3,
                                 fv.EigenOptions(tol=1e-8))
        assert res.iterations > 1 and counts["trials"] >= res.iterations
        assert counts["pairs"] == counts["trials"] + 1

    def test_rayleigh_quotient_of_minimizer_is_lambda(self, flat_setup):
        _g, kt, w = flat_setup
        res = fv.first_eigenpair(w, kt)
        q = fv.seminorm_p(res.u, kt).value / fv.weighted_mass(res.u, w, kt)
        assert q == pytest.approx(res.lam, rel=1e-10)

    def test_identical_starts_give_identical_results(self, flat_setup):
        _g, kt, w = flat_setup
        start = default_start(w, kt)
        a = fv.first_eigenpair(w, kt, start=start)
        b = fv.first_eigenpair(w, kt, start=start.copy())
        assert a.lam == b.lam
        np.testing.assert_array_equal(a.u.values, b.u.values)

    # lam is each pair's level as converged when the stall rule does not fire
    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="ROADMAP.md item 14: the stall rule stops these "
                              "descents far from convergence")
    @pytest.mark.parametrize("s, p, lam", [
        (0.2, 4.0, 0.4256152131207834),
        (0.2, 5.0, 0.12745742266439414),
        (0.15, 6.0, 0.15515613530616934),
    ], ids=["s=0.2,p=4", "s=0.2,p=5", "s=0.15,p=6"])
    def test_hardy_weight_converges_at_large_p(self, s, p, lam):
        g = fv.build_grid(1, 1.0, 64)
        kt = fv.build_kernel_table(g, fv.FracParams(s, p), 4.0)
        w = fv.sample(g, fv.PowerLaw(alpha=s * p))
        opts = fv.EigenOptions(tol=1e-8, seed=42)
        res = fv.first_eigenpair(w, kt, opts)
        assert res.residual <= opts.tol
        assert abs(res.lam / lam - 1.0) <= 1e-10


class TestStarts:
    @pytest.mark.parametrize("kind", ["signed", "signed_p3", "shifted_cosine"])
    def test_every_start_vanishes_off_the_positive_part(self, kind):
        if kind == "shifted_cosine":
            g = fv.build_grid(2, 1.0, 8)
            kt = fv.build_kernel_table(g, fv.FracParams(0.45, 2.0), 4.0)
            w = shifted_cosine_weight(g)
        else:
            g = fv.build_grid(1, 1.0, 32)
            p = 3.0 if kind == "signed_p3" else 2.0
            kt = fv.build_kernel_table(g, fv.FracParams(0.3, p), 4.0)
            w = signed_weight(g)
        p, m = kt.params.p, kt.cell_measure
        wv = w.values
        assert np.any(wv < 0)
        seq = fv.eigen_sequence(w, kt, 3, fv.EigenOptions(tol=1e-8, seed=3))
        for seed in (0, 1, 3):
            rng = np.random.default_rng(seed)
            starts = [default_start(w, kt), seeded_start(w, kt, rng)]
            starts += [deflated_start(w, kt, seq[:level - 1], level, rng)
                       for level in (2, 3)]
            for start in starts:
                assert np.all(start[wv <= 0] == 0.0)
                assert raw_weighted_mass(start, wv, p, m) > 0.0
            for level, start in ((2, starts[2]), (3, starts[3])):
                for res in seq[:level - 1]:
                    pairing = wv * _phi(res.u.values, p) * m
                    assert abs(pairing @ start) <= 1e-12 * np.abs(pairing).sum()

    def test_default_start_centred_at_the_peak_of_w(self):
        # w2 exceeds w1 at w1's peak, so w is negative there and peaks off
        # centre; a bump at w1's peak would still have positive mass
        g = fv.build_grid(1, 1.0, 32)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        spec = fv.Difference(fv.GaussianBump(sigma=0.5),
                             fv.GaussianBump(sigma=0.1, amplitude=1.5))
        w = fv.sample(g, spec)
        wv = w.values
        assert wv[np.argmax(fv.sample(g, spec.w1).values)] < 0
        start = default_start(w, kt)
        assert np.argmax(start) == np.argmax(wv)
        assert start[np.argmax(wv)] == 1.0
        assert np.all(start[wv <= 0] == 0.0)


class TestLinearOracle:
    def test_stiffness_symmetric_positive(self, flat_setup):
        _g, kt, _w = flat_setup
        from fracvar.energy import stiffness_matrix
        a = stiffness_matrix(kt)
        assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))
        assert np.linalg.eigvalsh(a).min() > 0

    @pytest.mark.parametrize("oracle", [fv.linear_oracle, fv.oracle_levels])
    def test_never_builds_the_fft_operator(self, monkeypatch, line_grid, oracle):
        # the oracle cross-checks the FFT path, so it must not go through it
        def no_operator(_kt):
            raise AssertionError("the dense oracle built the FFT operator")

        monkeypatch.setattr(energy_mod, "P2Operator", no_operator)
        kt = fv.build_kernel_table(line_grid, fv.FracParams(0.4, 2.0), 4.0)
        assert oracle(flat_weight(line_grid), kt)
        assert "p2_operator" not in vars(kt)

    @pytest.mark.parametrize("oracle", [fv.linear_oracle, fv.oracle_levels])
    def test_requires_p_two(self, line_grid, oracle):
        kt = fv.build_kernel_table(line_grid, fv.FracParams(0.3, 3.0), 4.0)
        with pytest.raises(DomainError):
            oracle(flat_weight(line_grid), kt)

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
                fv.linear_oracle(flat_weight(g), kt)
            with pytest.raises(DomainError, match="physical memory"):
                fv.oracle_levels(flat_weight(g), kt)
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
            fv.linear_oracle(flat_weight(g), kt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.1 * 8 * g.n_cells**2

    def test_levels_alone_peak_at_three_squares(self):
        # L^-1, M L^-T and C while C is formed; L^-1 is dropped before the
        # eigensolve, whose copy of C tracemalloc does not see
        g = fv.build_grid(1, 1.0, 256)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        tracemalloc.start()
        try:
            fv.oracle_levels(flat_weight(g), kt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * 8 * g.n_cells**2

    @pytest.mark.parametrize("kind", ["flat", "signed", "swapped"])
    @pytest.mark.parametrize("dim, n", [(1, 257), (1, 300), (2, 8)])
    def test_levels_match_the_pairs(self, dim, n, kind):
        # eigvalsh and eigh take different LAPACK paths, so the levels agree
        # to roundoff, not bit for bit
        g = fv.build_grid(dim, 1.0, n)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        w = flat_weight(g) if kind == "flat" else cosine_weight(g)
        w = -w if kind == "swapped" else w
        levels = np.array(fv.oracle_levels(w, kt))
        lams = np.array([lam for lam, _u in fv.linear_oracle(w, kt)])
        assert len(levels) == len(lams) > 4
        rel = np.abs(levels / lams - 1.0)
        assert rel[:4].max() <= 1e-13
        assert rel.max() <= 1e-12

    @pytest.mark.parametrize("n", [257, 300])
    def test_every_pair_solves_the_pencil(self, n):
        # grids large enough for several levels of the by-halves inverse and
        # triangular products, at odd and even splits
        g = fv.build_grid(1, 1.0, n)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        w = cosine_weight(g)
        a = stiffness_matrix(kt)
        wm = w.values * kt.cell_measure
        pairs = fv.linear_oracle(w, kt)
        assert len(pairs) == np.count_nonzero(wm > 0)
        for lam, u in pairs:
            defect = np.max(np.abs(a @ u.values - lam * wm * u.values))
            assert defect <= 1e-12 * lam * np.max(np.abs(wm * u.values))

    def test_sign_changing_weight_has_positive_principal_pair(self, signed_setup):
        _g, kt, w = signed_setup
        pairs = fv.linear_oracle(w, kt)
        lam1, u1 = pairs[0]
        assert lam1 > 0
        assert fv.sign_structure(u1) == "nonnegative"

    def test_normalizes_weighted_mass(self, flat_setup):
        _g, kt, w = flat_setup
        from fracvar.energy import weighted_mass
        lam, u = fv.linear_oracle(w, kt)[0]
        assert weighted_mass(u, w, kt) == pytest.approx(1.0, rel=1e-10)


class TestDeflation:
    def test_second_matches_oracle_and_changes_sign(self, flat_setup):
        _g, kt, w = flat_setup
        first, second = fv.eigen_sequence(w, kt, 2)
        oracle = fv.linear_oracle(w, kt)
        assert second.lam == pytest.approx(oracle[1][0], rel=1e-4)
        assert fv.sign_structure(second.u) == "sign_changing"
        assert second.lam > first.lam + 1e-6

    def test_sequence_levels_match_oracle(self, flat_setup):
        _g, kt, w = flat_setup
        seq = fv.eigen_sequence(w, kt, 4)
        oracle = fv.linear_oracle(w, kt)
        for res, (lam, _) in zip(seq, oracle):
            assert res.lam == pytest.approx(lam, rel=1e-4)
        lams = [r.lam for r in seq]
        assert lams == sorted(lams)

    @pytest.mark.parametrize("p, signed", [(2.0, False), (3.0, False), (3.0, True)])
    def test_levels_paired_to_zero_with_earlier_levels(self, flat_setup, p, signed):
        if p == 2.0:
            _g, kt, w = flat_setup
        else:
            g = fv.build_grid(1, 1.0, 64)
            kt = fv.build_kernel_table(g, fv.FracParams(0.3, p), 4.0)
            w = signed_weight(g) if signed else flat_weight(g)
        seq = fv.eigen_sequence(w, kt, 4, fv.EigenOptions(tol=1e-8, seed=42))
        wm = w.values * kt.cell_measure
        for k in range(1, 4):
            for j in range(k):
                pairing = float((wm * _phi(seq[j].u.values, p) * seq[k].u.values).sum())
                assert abs(pairing) <= 1e-12, (j, k, pairing)
        lams = [r.lam for r in seq]
        assert lams == sorted(lams)
        assert all(fv.sign_structure(r.u) == "sign_changing" for r in seq[1:])
        if p == 2.0:
            oracle = [lam for lam, _ in fv.linear_oracle(w, kt)[:4]]
            np.testing.assert_allclose(lams, oracle, rtol=1e-9)

    def test_single_level_equals_first(self, flat_setup):
        _g, kt, w = flat_setup
        seq = fv.eigen_sequence(w, kt, 1)
        direct = fv.first_eigenpair(w, kt)
        assert seq[0].lam == direct.lam
        np.testing.assert_array_equal(seq[0].u.values, direct.u.values)

    def test_signed_weight_spectrum(self, signed_setup):
        _g, kt, w = signed_setup
        seq = fv.eigen_sequence(w, kt, 2)
        oracle = fv.linear_oracle(w, kt)
        assert seq[0].lam == pytest.approx(oracle[0][0], rel=1e-6)
        assert seq[1].lam == pytest.approx(oracle[1][0], rel=1e-4)
        assert fv.sign_structure(seq[1].u) == "sign_changing"

    def test_swapped_weight_gives_the_negative_spectrum(self):
        g = fv.build_grid(1, 1.0, 32)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        w = fv.GridFunction(g, np.cos(2.5 * g.centers[:, 0]) + 0.2)
        res = fv.first_eigenpair(-w, kt)
        assert res.lam == pytest.approx(fv.linear_oracle(-w, kt)[0][0], rel=1e-6)

    def test_rejects_bad_level_count(self, flat_setup):
        _g, kt, w = flat_setup
        with pytest.raises(DomainError):
            fv.eigen_sequence(w, kt, 0)

    # 2.5 once raised numpy's TypeError, and True returned one level
    @pytest.mark.parametrize("k", [2.5, True, float("nan"), float("inf")])
    def test_rejects_non_whole_level_count(self, flat_setup, k):
        _g, kt, w = flat_setup
        with pytest.raises(DomainError, match="whole number"):
            fv.eigen_sequence(w, kt, k)

    @pytest.mark.parametrize("restarts", [2.5, True, float("nan"), float("inf")])
    def test_rejects_non_whole_restart_count(self, flat_setup, restarts):
        _g, kt, w = flat_setup
        with pytest.raises(DomainError, match="at least 2 restarts"):
            fv.simplicity_probe(w, kt, restarts)

    def test_whole_float_counts_read_as_ints(self, flat_setup):
        _g, kt, w = flat_setup
        assert len(fv.eigen_sequence(w, kt, 2.0)) == 2
        assert len(fv.simplicity_probe(w, kt, 2.0).results) == 2


def cosine_weight(g):
    """w = cos(2.5 x) along the first axis: positive in the middle, negative
    near both ends, so -w has a positive part too."""
    return fv.GridFunction(g, np.cos(2.5 * g.centers[:, 0]))


def shifted_cosine_weight(g):
    """w = -(cos(2.5 x) + 0.2): positive only on two strips at the box's
    edges, where an oscillatory draw over the whole box rarely has positive
    mass and a draw on {w > 0} always does."""
    return -fv.GridFunction(g, np.cos(2.5 * g.centers[:, 0]) + 0.2)


class TestLobpcgPath:
    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 8)])
    @pytest.mark.parametrize("kind", ["flat", "signed", "swapped"])
    def test_levels_match_oracle(self, dim, n, kind):
        g = fv.build_grid(dim, 1.0, n)
        kt = fv.build_kernel_table(g, fv.FracParams(0.45, 2.0), 4.0)
        w = {"flat": flat_weight(g), "signed": cosine_weight(g),
              "swapped": -cosine_weight(g)}[kind]
        opts = fv.EigenOptions(tol=1e-8, seed=3)
        seq = fv.eigen_sequence(w, kt, 3, opts)
        oracle = fv.linear_oracle(w, kt)
        for res, (lam, _u) in zip(seq, oracle):
            assert abs(res.lam / lam - 1.0) <= 1e-12
            assert fv.residual_check(res.lam, res.u, w, kt) <= opts.tol
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
        w = flat_weight(g) if kind == "flat" else cosine_weight(g)
        seq = fv.eigen_sequence(w, kt, 3, fv.EigenOptions(tol=1e-8, seed=3))
        for res, (lam, _u) in zip(seq, fv.linear_oracle(w, kt)):
            assert abs(res.lam / lam - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_start_drawn_on_the_positive_part(self, seed):
        g = fv.build_grid(2, 1.0, 8)
        kt = fv.build_kernel_table(g, fv.FracParams(0.45, 2.0), 4.0)
        w = shifted_cosine_weight(g)
        seq = fv.eigen_sequence(w, kt, 3, fv.EigenOptions(tol=1e-9, seed=seed))
        for res, (lam, _u) in zip(seq, fv.linear_oracle(w, kt)):
            assert res.lam == pytest.approx(lam, rel=1e-6)

    def test_start_is_not_mutated(self, signed_setup):
        _g, kt, w = signed_setup
        start = default_start(w, kt)
        before = start.copy()
        start.setflags(write=False)
        fv.first_eigenpair(w, kt, start=start)
        np.testing.assert_array_equal(start, before)

    @pytest.mark.parametrize("bad", [np.ones(5), np.full(32, np.nan)])
    def test_bad_start_refused_before_any_solve(self, monkeypatch, flat_setup, bad):
        _g, kt, w = flat_setup

        def no_solve(*_args, **_kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(eigen_mod, "_descend", no_solve)
        with pytest.raises(DomainError):
            fv.first_eigenpair(w, kt, start=bad)

    def test_poor_iterate_finished_by_descent(self, monkeypatch, flat_setup):
        _g, kt, w = flat_setup

        def poor_lobpcg(_w, _kt, u, _lam0, _opts, _previous):
            # three preconditioned steps that leave the start unchanged
            return u, 3

        monkeypatch.setattr(eigen_mod, "_lobpcg", poor_lobpcg)
        opts = fv.EigenOptions(tol=1e-8)
        res = fv.first_eigenpair(w, kt, opts)
        assert res.iterations > 3
        assert res.residual <= opts.tol
        assert res.lam == pytest.approx(fv.linear_oracle(w, kt)[0][0], rel=1e-6)

        with pytest.raises(ConvergenceError,
                           match="no convergence within 5 iterations") as err:
            fv.first_eigenpair(w, kt, fv.EigenOptions(tol=1e-8, max_iter=5))
        assert err.value.result.iterations == 5

    def test_capped_below_roundoff_floor(self):
        # LOBPCG runs every step it is given below its roundoff floor; capped,
        # it leaves the descent the rest of the budget.  Whether the descent
        # then reaches 1e-16 is decided by last-bit roundoff, so either it
        # converges or it stops as stagnated, never for want of steps
        g = fv.build_grid(1, 1.0, 64)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        opts = fv.EigenOptions(tol=1e-16, max_iter=3000)
        try:
            res = fv.first_eigenpair(flat_weight(g), kt, opts)
        except ConvergenceError as err:
            assert "stagnated" in str(err) and "no convergence within" not in str(err)
            res = err.result
        else:
            assert res.residual <= opts.tol
        assert res.iterations < opts.max_iter

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_tiny_budget_raises(self, flat_setup, max_iter):
        _g, kt, w = flat_setup
        with pytest.raises(ConvergenceError,
                           match=f"no convergence within {max_iter} iterations") as err:
            fv.first_eigenpair(w, kt, fv.EigenOptions(tol=1e-8, max_iter=max_iter))
        assert err.value.result.iterations == max_iter


class TestOptions:
    @pytest.mark.parametrize("kwargs", [
        {"tol": float("nan")}, {"tol": 0.0}, {"tol": -1e-6}, {"tol": float("inf")},
        {"max_iter": 0}, {"max_iter": -3}, {"max_iter": 2.5}, {"max_iter": float("nan")},
        {"max_iter": float("inf")}, {"max_iter": True},
        {"seed": -1}, {"seed": 2.5}, {"seed": float("inf")}, {"seed": True},
    ], ids=["tol=nan", "tol=0", "tol=-1e-6", "tol=inf", "max_iter=0", "max_iter=-3",
            "max_iter=2.5", "max_iter=nan", "max_iter=inf", "max_iter=True",
            "seed=-1", "seed=2.5", "seed=inf", "seed=True"])
    def test_bad_values_refused(self, kwargs):
        with pytest.raises(DomainError):
            fv.EigenOptions(**kwargs)

    def test_whole_budget_is_an_int(self):
        opts = fv.EigenOptions(max_iter=7.0)
        assert opts.max_iter == 7 and type(opts.max_iter) is int

    def test_whole_seed_is_an_int(self):
        opts = fv.EigenOptions(seed=np.float64(3.0))
        assert opts.seed == 3 and type(opts.seed) is int


class TestResidualCheck:
    def test_converged_pair_below_tolerance(self, flat_setup):
        _g, kt, w = flat_setup
        opts = fv.EigenOptions(tol=1e-8)
        res = fv.first_eigenpair(w, kt, opts)
        assert fv.residual_check(res.lam, res.u, w, kt) <= 1e-8

    def test_oracle_pair_near_machine_precision(self, flat_setup):
        _g, kt, w = flat_setup
        lam, u = fv.linear_oracle(w, kt)[0]
        assert fv.residual_check(lam, u, w, kt) <= 1e-8

    def test_random_field_far_from_critical(self, flat_setup, rng):
        g, kt, w = flat_setup
        u = fv.GridFunction(g, np.abs(rng.standard_normal(g.n_cells)) + 0.1)
        assert fv.residual_check(5.0, u, w, kt) > 1e-3

    def test_zero_function_rejected(self, flat_setup):
        g, kt, w = flat_setup
        zero = fv.GridFunction(g, np.zeros(g.n_cells))
        with pytest.raises(DomainError):
            fv.residual_check(1.0, zero, w, kt)


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

    @pytest.mark.parametrize("budget", [None, 20000])
    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("p", [1.5, 2.0, 2.7, 3.4])
    def test_stacked_minima_match_each_pair_and_dense_term(self, monkeypatch, rng,
                                                           p, k, budget):
        # the pass forms the pairs i <= j only, in blocks of
        # max(1, budget // (8 k M)) rows; budget 20000 at M = 64 gives 39
        # rows for k = 1 and 5 for k = 7, neither dividing M
        g = fv.build_grid(1, 1.0, 64)
        if budget is not None:
            monkeypatch.setattr(grid_mod, "_BLOCK_BYTES", budget)
        us = np.abs(rng.standard_normal((k, g.n_cells)))
        vs = np.abs(rng.standard_normal((k, g.n_cells))) + 0.05
        # u = 2 v in one sample puts the ray's exact zeros into the stack
        us[-1] = 2.0 * vs[-1]
        minima = eigen_mod._picone_minima(us, vs, p)
        assert minima.shape == (k, g.n_cells)
        for u, v, row in zip(us, vs, minima):
            res = fv.picone_gap(fv.GridFunction(g, u), fv.GridFunction(g, v), p)
            assert np.array_equal(row, res.per_cell_min.values)
            ratio = u * (u / v) ** (p - 1.0)
            dense = np.abs(u[:, None] - u) ** p - _phi(v[:, None] - v, p) * (ratio[:, None] - ratio)
            assert np.array_equal(row, dense.min(axis=1))

    def test_rejects_invalid_arguments(self, line_grid):
        u = fv.GridFunction(line_grid, -np.ones(line_grid.n_cells))
        v = fv.GridFunction(line_grid, np.ones(line_grid.n_cells))
        with pytest.raises(DomainError):
            fv.picone_gap(u, v, 2.0)
        tiny = fv.GridFunction(line_grid, np.full(line_grid.n_cells, 1e-12))
        with pytest.raises(DomainError):
            fv.picone_gap(-u, tiny, 2.0)

    # p = 1 once returned 0.0; the others warned, then blamed non-finite values
    @pytest.mark.parametrize("p", [1.0, 0.5, -1.0, float("inf"), float("nan")])
    def test_rejects_exponent_not_above_one(self, line_grid, p):
        v = fv.GridFunction(line_grid, bump(line_grid, width=0.4).values + 0.1)
        with pytest.raises(DomainError, match=f"finite p > 1, got p={p}"):
            fv.picone_gap(v, v, p)


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
        _g, kt, w = flat_setup
        rep = fv.simplicity_probe(w, kt, restarts=6,
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
            j_mid = raw_energy(mid, kt)[0]
            j_avg = 0.5 * (raw_energy(phi1, kt)[0] + raw_energy(phi2, kt)[0])
            assert j_mid <= j_avg * (1 + 1e-12)

    def test_requires_two_restarts(self, flat_setup):
        _g, kt, w = flat_setup
        with pytest.raises(DomainError):
            fv.simplicity_probe(w, kt, restarts=1)
