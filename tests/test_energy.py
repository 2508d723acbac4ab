import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fracvar as fv
import fracvar.energy as energy_mod
from fracvar.energy import stiffness_matrix
from fracvar.errors import DomainError

from conftest import bump


def brute_force_seminorm(u, kt):
    """Independent oracle: explicit double loop from the cell centers."""
    grid = u.grid
    p = kt.params.p
    m = grid.cell_measure
    exponent = grid.dim + kt.params.sp
    total = 0.0
    for i in range(grid.n_cells):
        for j in range(grid.n_cells):
            if i == j:
                continue
            dist = np.linalg.norm(grid.centers[i] - grid.centers[j])
            total += abs(u.values[i] - u.values[j]) ** p * dist ** -exponent * m * m
    boundary = 2.0 * sum(abs(v) ** p * r * m
                         for v, r in zip(u.values, kt.exterior_mass))
    return total, boundary


def brute_force_rows(u, v, kt):
    """Independent oracle for the per-cell sums, from the cell centers.

    Returns sum_j |u_i-u_j|^p K_ij and sum_j phi(u_i-u_j) K_ij for each i,
    and the unfolded pair term sum_{i,j} phi(u_i-u_j) (v_i-v_j) K_ij.
    """
    grid = u.grid
    p = kt.params.p
    exponent = grid.dim + kt.params.sp
    dens = np.zeros(grid.n_cells)
    flux = np.zeros(grid.n_cells)
    cross = 0.0
    for i in range(grid.n_cells):
        for j in range(grid.n_cells):
            if i == j:
                continue
            k = np.linalg.norm(grid.centers[i] - grid.centers[j]) ** -exponent
            d = u.values[i] - u.values[j]
            dens[i] += abs(d) ** p * k
            flux[i] += np.sign(d) * abs(d) ** (p - 1) * k
            cross += np.sign(d) * abs(d) ** (p - 1) * (v.values[i] - v.values[j]) * k
    return dens, flux, cross


class TestBlockedPass:
    """Tiny byte budgets force many row blocks: one row each (budget 1), or
    6 rows on the line and 3 on the plane, where blocks are cut at the end
    of each run of 8 rows (budget 1600).  On the plane, budget 12288 gives
    blocks of three whole runs, 24 rows, with a shorter last block."""

    @pytest.mark.parametrize("budget", [1, 1600])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("grid_name", ["line_grid", "plane_grid"])
    def test_multi_block_matches_brute_force(self, monkeypatch, request, rng,
                                             grid_name, p, budget):
        self.check_blocks(monkeypatch, request.getfixturevalue(grid_name), rng, p, budget)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_whole_run_blocks_match_brute_force(self, monkeypatch, plane_grid, rng, p):
        blocks = self.check_blocks(monkeypatch, plane_grid, rng, p, 12288)
        assert blocks == [(0, 24), (24, 48), (48, 64)]

    @pytest.mark.parametrize("budget", [1, 1600, 12288, 2**18])
    @pytest.mark.parametrize("size,run", [(32, 32), (64, 8), (1296, 36), (4096, 64)])
    def test_row_blocks_never_straddle_runs(self, monkeypatch, size, run, budget):
        monkeypatch.setattr(energy_mod, "_BLOCK_BYTES", budget)
        blocks = list(energy_mod._row_blocks(size, run))
        assert [a for a, _b in blocks] == [0] + [b for _a, b in blocks[:-1]]
        assert blocks[-1][1] == size
        height = max(1, budget // (8 * size))
        for a, b in blocks:
            assert 0 < b - a <= height
            # whole runs, or rows of one run
            assert (a % run == 0 and b % run == 0) or a // run == (b - 1) // run

    @staticmethod
    def check_blocks(monkeypatch, grid, rng, p, budget):
        kt = fv.build_kernel_table(grid, fv.FracParams(0.3, p), 4.0)
        assert max(1, budget // (8 * grid.n_cells)) < grid.n_cells
        monkeypatch.setattr(energy_mod, "_BLOCK_BYTES", budget)
        u = fv.GridFunction(grid, rng.standard_normal(grid.n_cells))
        v = fv.GridFunction(grid, rng.standard_normal(grid.n_cells))
        m = kt.cell_measure
        rho = kt.exterior_mass
        dens, flux, cross = brute_force_rows(u, v, kt)

        sn = fv.seminorm_p(u, kt)
        interior, boundary = brute_force_seminorm(u, kt)
        assert sn.interior_part == pytest.approx(interior, rel=1e-12)
        assert sn.boundary_part == pytest.approx(boundary, rel=1e-12)

        grad = (dens * m + np.abs(u.values) ** p * rho) ** (1.0 / p)
        np.testing.assert_allclose(fv.nonlocal_gradient(u, kt).values, grad,
                                   rtol=1e-12)

        phi_u = np.sign(u.values) * np.abs(u.values) ** (p - 1)
        gate = 2.0 * flux * m * m + 2.0 * phi_u * rho * m
        ours = fv.gateaux_vector(u, kt)
        np.testing.assert_allclose(ours, gate, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(gate)))

        form = fv.gateaux(u, v, kt)
        assert form == pytest.approx(v.values @ ours, rel=1e-13)
        unfolded = cross * m * m + 2.0 * (phi_u * v.values * rho).sum() * m
        assert form == pytest.approx(unfolded, rel=1e-12)
        return list(energy_mod._row_blocks(grid.n_cells, grid.cells_per_dim))


class TestFusedPass:
    """raw_energy(..., with_gateaux=True) takes the energy and the Gateaux
    vector from one pair pass, in one block or in several."""

    @pytest.mark.parametrize("budget", [None, 1600])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("grid_name", ["line_grid", "plane_grid"])
    def test_matches_separate_passes_and_brute_force(self, monkeypatch, request, rng,
                                                     grid_name, p, budget):
        grid = request.getfixturevalue(grid_name)
        kt = fv.build_kernel_table(grid, fv.FracParams(0.3, p), 4.0)
        if budget is None:
            assert energy_mod._BLOCK_BYTES // (8 * grid.n_cells) >= grid.n_cells
        else:
            monkeypatch.setattr(energy_mod, "_BLOCK_BYTES", budget)
        u = fv.GridFunction(grid, rng.standard_normal(grid.n_cells))
        energy, gate = energy_mod.raw_energy(u.values, kt, with_gateaux=True)
        assert energy == energy_mod.raw_energy(u.values, kt)
        assert np.array_equal(gate, energy_mod.raw_gateaux_vector(u.values, kt))

        interior, boundary = brute_force_seminorm(u, kt)
        assert energy == pytest.approx(interior + boundary, rel=1e-14)
        dens, _flux, _cross = brute_force_rows(u, u, kt)
        m = kt.cell_measure
        grad = (dens * m + np.abs(u.values) ** p * kt.exterior_mass) ** (1.0 / p)
        np.testing.assert_allclose(fv.nonlocal_gradient(u, kt).values, grad,
                                   rtol=1e-14)


    def test_warm_pass_allocates_no_block(self, rng):
        # every pass fills the table's pair_buffers, so after a first pass
        # none allocates a 144 x 144 block (block temporaries would be three)
        g = fv.build_grid(2, 1.0, 12)
        kt = fv.build_kernel_table(g, fv.FracParams(0.3, 3.0), 4.0)
        u = rng.standard_normal(g.n_cells)
        energy_mod.raw_energy(u, kt, with_gateaux=True)
        tracemalloc.start()
        try:
            energy_mod.raw_energy(u, kt, with_gateaux=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * g.n_cells**2


class TestSeminorm:
    def test_zero_function(self, line_kt, line_grid):
        u = fv.GridFunction(line_grid, np.zeros(line_grid.n_cells))
        assert fv.seminorm_p(u, line_kt).value == 0.0

    def test_two_cell_interior_brute_force(self):
        g = fv.build_grid(1, 1.0, 2)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        u = fv.GridFunction(g, np.array([1.0, 0.0]))
        sn = fv.seminorm_p(u, kt)
        interior, boundary = brute_force_seminorm(u, kt)
        assert interior == pytest.approx(2.0, abs=1e-15)
        assert sn.interior_part == pytest.approx(interior, rel=1e-14)
        assert sn.boundary_part == pytest.approx(boundary, rel=1e-14)
        assert sn.value == sn.interior_part + sn.boundary_part

    def test_matches_brute_force_on_random_field(self, line_kt, line_grid, rng):
        u = fv.GridFunction(line_grid, rng.standard_normal(line_grid.n_cells))
        sn = fv.seminorm_p(u, line_kt)
        interior, boundary = brute_force_seminorm(u, line_kt)
        assert sn.interior_part == pytest.approx(interior, rel=1e-12)
        assert sn.boundary_part == pytest.approx(boundary, rel=1e-12)

    @given(t=st.floats(min_value=-8.0, max_value=8.0).filter(lambda t: abs(t) > 1e-3))
    def test_p_homogeneity(self, line_kt_p3, t):
        g = line_kt_p3.grid
        u = bump(g, center=0.2, width=0.3)
        base = fv.seminorm_p(u, line_kt_p3).value
        scaled = fv.seminorm_p(fv.GridFunction(g, t * u.values), line_kt_p3).value
        assert scaled == pytest.approx(abs(t) ** 3 * base, rel=1e-12)

    def test_reflection_invariance(self, line_kt, line_grid, rng):
        u = rng.standard_normal(line_grid.n_cells)
        a = fv.seminorm_p(fv.GridFunction(line_grid, u), line_kt).value
        b = fv.seminorm_p(fv.GridFunction(line_grid, u[::-1]), line_kt).value
        assert a == pytest.approx(b, rel=1e-13)

    def test_grid_mismatch_rejected(self, line_kt):
        other = fv.build_grid(1, 1.0, 16)
        with pytest.raises(DomainError):
            fv.seminorm_p(fv.GridFunction(other, np.ones(16)), line_kt)

    def test_positive_definite_quadratic_form(self, line_kt, rng):
        a = stiffness_matrix(line_kt)
        assert np.max(np.abs(a - a.T)) <= 1e-12 * np.max(np.abs(a))
        eigs = np.linalg.eigvalsh(a)
        assert eigs.min() > 0
        u = rng.standard_normal(a.shape[0])
        gf = fv.GridFunction(line_kt.grid, u)
        assert u @ a @ u == pytest.approx(fv.seminorm_p(gf, line_kt).value,
                                          rel=1e-12)


class TestGateaux:
    def test_gateaux_of_u_with_u_is_energy(self, line_kt_p3, line_grid, rng):
        u = fv.GridFunction(line_grid, rng.standard_normal(line_grid.n_cells))
        assert fv.gateaux(u, u, line_kt_p3) == pytest.approx(
            fv.seminorm_p(u, line_kt_p3).value, rel=1e-12)

    def test_two_cell_cross_pair(self):
        g = fv.build_grid(1, 1.0, 2)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        u = fv.GridFunction(g, np.array([1.0, 0.0]))
        v = fv.GridFunction(g, np.array([0.0, 1.0]))
        # ordered pairs (0,1) and (1,0) each contribute phi(1) * (-1) * 1
        boundary = 2.0 * (np.sign(u.values) * np.abs(u.values)
                          * v.values * kt.exterior_mass).sum() * kt.cell_measure
        assert fv.gateaux(u, v, kt) - boundary == pytest.approx(-2.0, abs=1e-14)

    def test_central_difference_slope(self, line_kt_p3, line_grid, rng):
        p = line_kt_p3.params.p
        steps = np.array([1e-2, 1e-3, 1e-4])
        for _ in range(5):
            u = fv.GridFunction(line_grid, rng.standard_normal(line_grid.n_cells))
            v = fv.GridFunction(line_grid, rng.standard_normal(line_grid.n_cells))
            ga = fv.gateaux(u, v, line_kt_p3)
            errs = []
            for t in steps:
                ep = fv.seminorm_p(
                    fv.GridFunction(line_grid, u.values + t * v.values),
                    line_kt_p3).value
                em = fv.seminorm_p(
                    fv.GridFunction(line_grid, u.values - t * v.values),
                    line_kt_p3).value
                errs.append(abs((ep - em) / (2 * t * p) - ga))
            slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
            assert slope == pytest.approx(2.0, abs=0.1)

    def test_subquadratic_p_coincident_values(self, line_grid):
        # p < 2 with equal neighboring values: the integrand extends by 0
        kt = fv.build_kernel_table(line_grid, fv.FracParams(0.5, 1.5), 4.0)
        u = fv.GridFunction(line_grid, np.ones(line_grid.n_cells))
        v = fv.GridFunction(line_grid, np.arange(line_grid.n_cells, dtype=float))
        val = fv.gateaux(u, v, kt)
        assert np.isfinite(val)


class TestOperatorApply:
    def test_zero_maps_to_zero(self, line_kt, line_grid):
        u = fv.GridFunction(line_grid, np.zeros(line_grid.n_cells))
        assert np.all(fv.frac_p_laplacian_apply(u, line_kt).values == 0.0)

    def test_odd_map(self, line_kt_p3, line_grid, rng):
        u = fv.GridFunction(line_grid, rng.standard_normal(line_grid.n_cells))
        plus = fv.frac_p_laplacian_apply(u, line_kt_p3).values
        minus = fv.frac_p_laplacian_apply(-u, line_kt_p3).values
        np.testing.assert_allclose(minus, -plus, rtol=1e-12, atol=1e-14)

    def test_p2_equals_matrix_apply(self, line_kt, line_grid, rng):
        u = rng.standard_normal(line_grid.n_cells)
        a = stiffness_matrix(line_kt)
        dense = a @ u / line_kt.cell_measure
        ours = fv.frac_p_laplacian_apply(
            fv.GridFunction(line_grid, u), line_kt).values
        np.testing.assert_allclose(ours, dense, rtol=1e-12)


class TestNonlocalGradient:
    def test_zero_field(self, line_kt, line_grid):
        u = fv.GridFunction(line_grid, np.zeros(line_grid.n_cells))
        assert np.all(fv.nonlocal_gradient(u, line_kt).values == 0.0)

    def test_energy_identity(self, line_kt_p3, line_grid, rng):
        # sum |Du|^p m + sum |u|^p rho m reproduces the energy exactly
        u = fv.GridFunction(line_grid, rng.standard_normal(line_grid.n_cells))
        kt = line_kt_p3
        dens = fv.nonlocal_gradient(u, kt).values ** kt.params.p
        total = (dens * kt.cell_measure).sum() + (
            np.abs(u.values) ** kt.params.p * kt.exterior_mass
        ).sum() * kt.cell_measure
        assert total == pytest.approx(fv.seminorm_p(u, kt).value, rel=1e-12)

    def test_dilation_scaling(self, rng):
        # |D u_r|^p on the r-dilated grid equals r^(-s p) |D u|^p
        fp = fv.FracParams(0.4, 2.0)
        g1 = fv.build_grid(1, 1.0, 48)
        kt1 = fv.build_kernel_table(g1, fp, 4.0)
        vals = bump(g1, center=0.1, width=0.3).values
        base = fv.nonlocal_gradient(fv.GridFunction(g1, vals), kt1).values ** 2
        for r in (2.0, 3.0):
            g2 = fv.build_grid(1, r, 48)
            kt2 = fv.build_kernel_table(g2, fp, r * 4.0)
            dil = fv.nonlocal_gradient(fv.GridFunction(g2, vals), kt2).values ** 2
            np.testing.assert_allclose(dil, base * r ** -fp.sp, rtol=1e-10)

    def test_decay_envelope_for_compact_bump(self):
        fp = fv.FracParams(0.4, 2.0)
        g = fv.build_grid(1, 4.0, 96)
        kt = fv.build_kernel_table(g, fp, 16.0)
        radii = g.radii()
        vals = np.where(radii < 1.0, np.cos(np.pi * radii / 2.0) ** 2, 0.0)
        dens = fv.nonlocal_gradient(fv.GridFunction(g, vals), kt).values ** 2
        envelope = np.minimum(1.0, radii ** -(1 + fp.sp))
        ratio = dens / envelope
        fitted = ratio[radii <= 2.0].max()
        assert np.all(dens <= fitted * envelope * (1 + 1e-12))


class TestSymmetrizationEnergy:
    def test_rearranged_bumps_do_not_gain_energy(self, rng):
        # smooth non-negative bumps on the line, n >= 64: the radial
        # rearrangement never raises the energy by more than 5%
        import fracvar.rearrange as rr
        g = fv.build_grid(1, 1.0, 64)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        for _ in range(20):
            u = bump(g, center=float(rng.uniform(-0.5, 0.5)),
                     width=float(rng.uniform(0.1, 0.35)))
            base = fv.seminorm_p(u, kt).value
            sym = fv.seminorm_p(rr.schwarz_symmetrization(u), kt).value
            assert sym <= base * 1.05


class TestRayleighQuotient:
    def test_scale_invariance(self, line_kt, line_grid):
        w = fv.sample(line_grid, fv.PowerLaw(alpha=0.0))
        u = bump(line_grid, center=0.1)
        q1 = fv.rayleigh_quotient(u, w, line_kt)
        q3 = fv.rayleigh_quotient(fv.GridFunction(line_grid, 3 * u.values),
                                  w, line_kt)
        assert q3 == pytest.approx(q1, rel=1e-12)

    def test_negative_mass_rejected(self, line_kt, line_grid):
        w = fv.GridFunction(line_grid, -np.ones(line_grid.n_cells))
        u = bump(line_grid)
        with pytest.raises(DomainError):
            fv.rayleigh_quotient(u, w, line_kt)


class TestP2Operator:
    @pytest.mark.parametrize("dim, n", [(1, 7), (1, 8), (1, 64), (2, 5), (2, 6), (2, 24)])
    def test_fft_products_match_dense(self, dim, n, rng):
        g = fv.build_grid(dim, 1.0, n)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        op = kt.p2_operator
        a = stiffness_matrix(kt)
        for x in (rng.standard_normal(g.n_cells), rng.standard_normal((g.n_cells, 3))):
            for ours, dense in ((op.kernel_product(x), kt.dense_kernel() @ x),
                                (op.apply(x), a @ x)):
                assert ours.shape == x.shape
                assert np.max(np.abs(ours - dense)) <= 2e-15 * np.max(np.abs(dense))

    @pytest.mark.parametrize("dim, n, s", [(1, 2, 0.05), (1, 8, 0.5), (1, 256, 0.5),
                                           (2, 2, 0.05), (2, 6, 0.95), (2, 40, 0.95)])
    def test_preconditioner_positive_definite(self, dim, n, s):
        g = fv.build_grid(dim, 1.0, n)
        op = fv.build_kernel_table(g, fv.FracParams(s, 2.0), 2.0).p2_operator
        assert op.preconditioner_symbol.min() > 0.0
        if g.n_cells <= 64:
            dense = op.precondition(np.eye(g.n_cells))
            assert np.max(np.abs(dense - dense.T)) <= 1e-15 * np.max(np.abs(dense))
            assert np.linalg.eigvalsh(dense).min() > 0.0

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 12)])
    def test_reads_no_kernel_rows(self, dim, n):
        kt = fv.build_kernel_table(fv.build_grid(dim, 1.0, n), fv.FracParams(0.4, 2.0), 4.0)
        assert kt.p2_operator.diagonal.shape == (kt.grid.n_cells,)
        assert "kernel_rows" not in vars(kt)

    def test_built_once_and_only_at_p2(self, monkeypatch, line_grid, line_kt_p3):
        with pytest.raises(DomainError):
            energy_mod.P2Operator(line_kt_p3)
        built = []

        class Spy(energy_mod.P2Operator):
            def __init__(self, kt):
                built.append(kt.params.p)
                super().__init__(kt)

        monkeypatch.setattr(energy_mod, "P2Operator", Spy)
        wt = fv.Weight.constant(line_grid)
        ball = fv.CellSet.ball(line_grid, (0.0,), 0.3)
        kt3 = fv.build_kernel_table(line_grid, fv.FracParams(0.3, 3.0), 4.0)
        fv.seminorm_p(bump(line_grid), kt3)
        fv.capacity(ball, kt3)
        fv.eigen_sequence(wt, kt3, 2)
        assert built == []
        kt2 = fv.build_kernel_table(line_grid, fv.FracParams(0.4, 2.0), 4.0)
        fv.capacity(ball, kt2)
        fv.eigen_sequence(wt, kt2, 2)
        assert built == [2.0]
