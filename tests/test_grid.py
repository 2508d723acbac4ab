import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import fracvar as fv
import fracvar.grid as grid_mod
from fracvar.errors import DomainError


class TestBuildGrid:
    def test_two_cell_line(self):
        g = fv.build_grid(1, 1.0, 2)
        assert np.array_equal(g.centers.ravel(), [-0.5, 0.5])
        assert g.spacing == 1.0
        assert g.cell_measure == 1.0

    def test_two_by_two_square(self):
        g = fv.build_grid(2, 1.0, 2)
        assert g.n_cells == 4
        expected = {(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)}
        assert {tuple(c) for c in g.centers} == expected

    def test_eight_cell_line(self):
        g = fv.build_grid(1, 2.0, 8)
        assert g.spacing == 0.5
        assert g.centers[0, 0] == -1.75
        assert g.centers[-1, 0] == 1.75

    # an infinite half-width, or one whose spacing 2 L / n overflows (1e308)
    # or underflows (5e-324), has no cells to place
    @pytest.mark.parametrize("dim,L,n", [(3, 1.0, 4), (0, 1.0, 4),
                                         (1, 1.0, 1), (1, -1.0, 4), (1, 0.0, 4),
                                         (1, math.inf, 8), (2, math.inf, 4),
                                         (1, 1e308, 8), (2, 1e308, 4), (1, 5e-324, 4)])
    def test_rejects_bad_arguments(self, dim, L, n):
        with pytest.raises(DomainError):
            fv.build_grid(dim, L, n)

    # a fraction once gave 2.5 -> 2 cells per axis with 3 centres, the last
    # on the box edge; a bool read as 1
    @pytest.mark.parametrize("dim,n", [(1, 2.5), (1, True), (True, 4), (1.5, 4), (2, math.nan),
                                       (math.nan, 4), (1, math.inf), ("1", 4), (1, "4")])
    def test_rejects_non_whole_counts(self, dim, n):
        with pytest.raises(DomainError, match="whole number|dim must be"):
            fv.build_grid(dim, 1.0, n)

    def test_whole_floats_stored_as_ints(self):
        g = fv.build_grid(2.0, 1.0, 4.0)
        assert type(g.dim) is int and type(g.cells_per_dim) is int
        assert (g.dim, g.cells_per_dim, g.n_cells) == (2, 4, 16)

    def test_refuses_oversized_grid_before_allocating(self, monkeypatch):
        # plane n = 2048: the centres and the meshgrid temporaries, 32 bytes a
        # cell (128 MiB), against 4 MiB of memory
        monkeypatch.setattr(grid_mod, "_physical_memory", lambda: 4 * 1024 * 1024)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="physical memory"):
                fv.build_grid(2, 1.0, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    def test_centers_strictly_inside(self):
        for dim in (1, 2):
            g = fv.build_grid(dim, 1.5, 6)
            assert np.all(np.abs(g.centers) < g.half_width)


class TestFracParams:
    @pytest.mark.parametrize("s,p", [(0.0, 2.0), (1.0, 2.0), (-0.1, 2.0),
                                     (0.5, 1.0), (0.5, 0.5)])
    def test_rejects_out_of_range(self, s, p):
        with pytest.raises(DomainError):
            fv.FracParams(s, p)

    def test_product_above_dim_rejected(self):
        with pytest.raises(DomainError):
            fv.FracParams(0.8, 2.0).validate_for_dim(1)

    def test_borderline_product_accepted(self):
        # s p = 1 on the line stays usable
        fv.FracParams(0.5, 2.0).validate_for_dim(1)
        fv.FracParams(0.8, 2.0).validate_for_dim(2)


def brute_force_table(grid, fp, ext_radius):
    """Kernel and exterior mass one pair at a time, with float center differences.

    The ring is every cell of the grid extended (same spacing) out to
    ext_radius rounded up to whole cells, less the box; the tail is the
    closed-form radial integral beyond that radius.
    """
    dim, h, half, n = grid.dim, grid.spacing, grid.half_width, grid.cells_per_dim
    exponent = dim + fp.sp
    layers = math.ceil((ext_radius - half) / h - 1e-12)
    outer = half + layers * h
    axis = [(k - (n + 2 * layers - 1) / 2.0) * h for k in range(n + 2 * layers)]
    ring = [y for y in itertools.product(axis, repeat=dim) if max(map(abs, y)) > half]
    centers = [tuple(x) for x in grid.centers]
    kern = np.zeros((len(centers), len(centers)))
    rho = np.zeros(len(centers))
    for i, x in enumerate(centers):
        for j, y in enumerate(centers):
            if i != j:
                kern[i, j] = math.dist(x, y) ** -exponent
        ring_sum = math.fsum(math.dist(x, y) ** -exponent for y in ring)
        tail = (2.0 if dim == 1 else 2.0 * math.pi) * (outer - math.hypot(*x)) ** -fp.sp / fp.sp
        rho[i] = ring_sum * grid.cell_measure + tail
    return kern, rho


class TestKernelTable:
    @pytest.mark.parametrize("dim,n", [(1, 7), (1, 8), (2, 5), (2, 6)])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_stencil_build_matches_brute_force(self, dim, n, p):
        # odd n puts a row of cells on each mirror axis
        g = fv.build_grid(dim, 1.0, n)
        fp = fv.FracParams(0.3, p)
        kt = fv.build_kernel_table(g, fp, 3.0)
        kern, rho = brute_force_table(g, fp, 3.0)
        np.testing.assert_allclose(kt.dense_kernel(), kern, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(kt.exterior_mass, rho, rtol=1e-13, atol=0.0)

    def test_unit_distance_pair_value(self):
        # centers one unit apart, exponent 1 + 0.8
        g = fv.build_grid(1, 1.0, 2)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
        assert kt.dense_kernel()[0, 1] == pytest.approx(1.0, abs=0.0)
        assert kt.dense_kernel()[0, 0] == 0.0

    def test_symmetric_positive_off_diagonal(self, line_kt):
        k = line_kt.dense_kernel()
        assert np.array_equal(k, k.T)
        off = k[~np.eye(k.shape[0], dtype=bool)]
        assert np.all(off > 0)
        assert np.all(np.diag(k) == 0)

    def test_doubling_distances_scales_kernel(self):
        fp = fv.FracParams(0.4, 2.0)
        k1 = fv.build_kernel_table(fv.build_grid(1, 1.0, 8), fp, 4.0).dense_kernel()
        k2 = fv.build_kernel_table(fv.build_grid(1, 2.0, 8), fp, 8.0).dense_kernel()
        mask = ~np.eye(8, dtype=bool)
        np.testing.assert_allclose(k2[mask], k1[mask] * 2.0 ** -(1 + 0.8),
                                   rtol=1e-13)

    def test_tail_closed_form(self):
        # independent oracle: numerical quadrature of the tail integral
        oracle = 2 * quad(lambda z: z ** -1.8, 10.0, np.inf)[0]
        assert fv.tail_mass(1, 0.8, 10.0) == pytest.approx(oracle, rel=1e-10)
        assert fv.tail_mass(1, 0.8, 10.0) == pytest.approx(0.39622329811527834,
                                                           rel=1e-12)
        radii = np.array([10.0, 2.5])
        np.testing.assert_array_equal(fv.tail_mass(1, 0.8, radii),
                                      [fv.tail_mass(1, 0.8, r) for r in radii])
        with pytest.raises(DomainError):
            fv.tail_mass(2, 0.8, np.array([1.0, 0.0]))

    def test_exterior_mass_against_quadrature(self):
        # full oracle for rho: adaptive quadrature over the complement
        g = fv.build_grid(1, 1.0, 8)
        kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 80.0)
        for i in (2, 3, 5):
            x = g.centers[i, 0]
            exact = (quad(lambda y: abs(x - y) ** -1.8, -np.inf, -1.0)[0]
                     + quad(lambda y: abs(x - y) ** -1.8, 1.0, np.inf)[0])
            assert kt.exterior_mass[i] == pytest.approx(exact, rel=2e-2)

    def test_exterior_mass_reflection_invariant_bitwise(self, plane_kt):
        n = plane_kt.grid.cells_per_dim
        r = plane_kt.exterior_mass.reshape(n, n)
        assert np.array_equal(r, r[::-1, :])
        assert np.array_equal(r, r[:, ::-1])
        assert np.array_equal(r, r.T)
        # odd n puts cells on the mirror axes; the line has one reflection
        fp = fv.FracParams(0.3, 3.0)
        r = fv.build_kernel_table(fv.build_grid(2, 1.0, 9), fp, 4.0).exterior_mass
        r = r.reshape(9, 9)
        assert np.array_equal(r, r[::-1, :])
        assert np.array_equal(r, r[:, ::-1])
        assert np.array_equal(r, r.T)
        for n in (32, 33):
            r = fv.build_kernel_table(fv.build_grid(1, 1.0, n), fp, 4.0).exterior_mass
            assert np.array_equal(r, r[::-1])

    def test_stencil_transpose_invariant_bitwise(self, plane_kt):
        # with the exterior mass above, this makes every capacity invariant
        # under the box's reflections and transpose
        assert np.array_equal(plane_kt.stencil, plane_kt.stencil.T)
        kt = fv.build_kernel_table(fv.build_grid(2, 1.0, 9), fv.FracParams(0.3, 3.0), 4.0)
        assert np.array_equal(kt.stencil, kt.stencil.T)

    def test_exterior_mass_larger_near_boundary(self, line_kt):
        rho = line_kt.exterior_mass
        mid = len(rho) // 2
        assert rho[0] > rho[mid]
        assert rho[-1] > rho[mid]

    def test_ext_radius_refinement_bounded_by_tail(self):
        g = fv.build_grid(1, 1.0, 16)
        fp = fv.FracParams(0.4, 2.0)
        kt1 = fv.build_kernel_table(g, fp, 4.0)
        kt2 = fv.build_kernel_table(g, fp, 16.0)
        old_tails = np.array([fv.tail_mass(1, fp.sp, kt1.ext_radius - abs(x))
                              for x in g.centers[:, 0]])
        assert np.all(np.abs(kt2.exterior_mass - kt1.exterior_mass) <= old_tails)

    @pytest.mark.parametrize("dim, n", [(1, 64), (1, 768), (2, 24), (2, 40)])
    def test_ring_sums_match_exact_summation(self, dim, n):
        # the strip sums against math.fsum over the ring, at the centre, three
        # corners, an edge and an interior cell
        g = fv.build_grid(dim, 1.0, n)
        layers = grid_mod._ring_layers(g, 4.0)
        a = np.arange(n + layers)
        sp = 0.9 * 2.2 if dim == 2 else 0.9 * 1.1  # s = 0.9 and s*p near dim
        with np.errstate(divide="ignore"):
            stencil = (g.spacing * (a if dim == 1 else np.hypot(a[:, None], a))) ** -(dim + sp)
        stencil.flat[0] = 0.0
        sums = grid_mod._ring_sums(stencil, n, layers)
        axis = range(-layers, n + layers)
        ring = [r for r in itertools.product(axis, repeat=dim)
                if not all(0 <= i < n for i in r)]
        for c in ((n // 2 - 1, n // 2), (0, 0), (n - 1, n - 1), (n - 1, 0), (0, n // 2), (5, 9)):
            c = c[:dim]
            exact = math.fsum(stencil[tuple(abs(ci - ri) for ci, ri in zip(c, r))] for r in ring)
            assert abs(sums[c] - exact) <= 1e-15 * exact

    def test_rejects_grid_beyond_physical_memory(self, monkeypatch):
        # plane n=512 with the ring out to 32 half-widths: its stencil and
        # prefix-sum table need about 1.7 GB, against 1 GiB of memory, and are
        # refused before anything is allocated
        g = fv.build_grid(2, 1.0, 512)
        monkeypatch.setattr(grid_mod, "_physical_memory", lambda: 2**30)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="physical memory"):
                fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 32.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    @staticmethod
    def build_peak(n: int):
        g = fv.build_grid(2, 1.0, n)
        estimate = grid_mod._build_bytes(g, grid_mod._ring_layers(g, 4.0))
        tracemalloc.start()
        try:
            kt = fv.build_kernel_table(g, fv.FracParams(0.5, 3.0), 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return kt, peak, estimate

    @pytest.mark.parametrize("n", [24, 64])
    def test_build_peak_is_under_the_estimate_and_no_dense_kernel(self, n):
        # the table keeps the stencil and the exterior mass; the M x M kernel
        # alone would be 134 MB at n = 64
        kt, peak, estimate = self.build_peak(n)
        assert peak <= estimate
        assert peak < 8 * kt.grid.n_cells**2

    def test_plane_256_build_peak_stays_small(self):
        # the stencil, the prefix-sum table and a few per-cell arrays: 14 MiB,
        # where the long-double FFT that summed the ring peaked at 277 MiB
        kt, peak, estimate = self.build_peak(256)
        assert peak <= estimate
        assert peak < 32 * 2**20

    def test_build_takes_no_fft(self, monkeypatch):
        g = fv.build_grid(2, 1.0, 24)
        fp = fv.FracParams(0.4, 2.0)
        expected = fv.build_kernel_table(g, fp, 4.0).exterior_mass

        def refuse(*args, **kwargs):
            raise AssertionError("the kernel build called an FFT")

        monkeypatch.setattr(np.fft, "rfftn", refuse)
        monkeypatch.setattr(np.fft, "irfftn", refuse)
        kt = fv.build_kernel_table(g, fp, 4.0)
        assert np.array_equal(kt.exterior_mass, expected)
        with pytest.raises(AssertionError, match="FFT"):
            kt.p2_operator  # the patch reaches P2Operator's FFT calls

    def test_plane_192_builds_without_an_m_squared_field(self):
        kt, peak, estimate = self.build_peak(192)
        assert peak <= estimate
        for f in dataclasses.fields(kt):
            assert getattr(getattr(kt, f.name), "size", 0) < kt.grid.n_cells**2
        assert kt.kernel_rows.shape == (192, 192, 192**2)
        assert kt.kernel_rows[0, 0, 1] == kt.stencil[0, 1]
        assert kt.kernel_rows[191, 191, 0] == kt.stencil[191, 191]

    @pytest.mark.parametrize("dim,n", [(1, 7), (1, 200), (2, 5), (2, 14)])
    def test_kernel_rows_are_the_dense_kernel(self, dim, n):
        # contiguous below one pass block (M <= 181), strided views above
        kt = fv.build_kernel_table(fv.build_grid(dim, 1.0, n), fv.FracParams(0.4, 2.0), 4.0)
        rows = kt.kernel_rows
        assert rows.shape == ((1, n, n) if dim == 1 else (n, n, n * n))
        assert not rows.flags.writeable
        assert rows.flags.c_contiguous == (kt.grid.n_cells <= 181)
        offsets = np.abs(kt.grid.centers[:, None, :] - kt.grid.centers) / kt.grid.spacing
        expected = kt.stencil[tuple(np.rint(offsets).astype(int).transpose(2, 0, 1))]
        assert np.array_equal(kt.dense_kernel(), expected)
        assert np.array_equal(rows.reshape(kt.grid.n_cells, -1), expected)

    def test_fresh_table_holds_only_stencil_and_mass(self):
        kt = fv.build_kernel_table(fv.build_grid(2, 1.0, 24), fv.FracParams(0.5, 3.0), 4.0)
        held = [v for v in vars(kt).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in held) == kt.stencil.nbytes + kt.exterior_mass.nbytes

    def test_rows_read_refused_beyond_physical_memory(self, monkeypatch):
        # the row source, 8 * 23 * 12^2 bytes, is gathered on the first read
        kt = fv.build_kernel_table(fv.build_grid(2, 1.0, 12), fv.FracParams(0.5, 3.0), 4.0)
        monkeypatch.setattr(grid_mod, "_physical_memory", lambda: 8 * 1024)
        with pytest.raises(DomainError, match="physical memory"):
            kt.kernel_rows
        with pytest.raises(DomainError, match="physical memory"):
            fv.seminorm_p(fv.GridFunction(kt.grid, np.ones(kt.grid.n_cells)), kt)
        monkeypatch.undo()
        assert kt.kernel_rows.shape == (12, 12, 144)

    def test_plane_64_build_estimate_under_one_gib(self):
        g = fv.build_grid(2, 1.0, 64)
        assert grid_mod._build_bytes(g, grid_mod._ring_layers(g, 4.0)) < 2**30

    # 1e308 is finite, but its ring of (R - L) / h cells overflows
    @pytest.mark.parametrize("ext_radius", [1.5, math.nan, math.inf, 1e308])
    def test_rejects_bad_ext_radius(self, line_grid, plane_grid, ext_radius):
        for g in (line_grid, plane_grid):
            with pytest.raises(DomainError, match="at least twice the half-width"):
                fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), ext_radius)

    def test_rejects_sp_above_dim(self, line_grid):
        with pytest.raises(DomainError):
            fv.build_kernel_table(line_grid, fv.FracParams(0.6, 2.0), 4.0)


class TestHalfSpace:
    @pytest.mark.parametrize("axis", [-1, 1])
    def test_axis_outside_the_points_refused(self, line_grid, axis):
        with pytest.raises(DomainError, match="axis"):
            fv.HalfSpace(axis=axis).contains(line_grid.centers)

    def test_side_must_be_left_or_right(self):
        with pytest.raises(DomainError, match="side"):
            fv.HalfSpace(side="up")


class TestSample:
    def test_half_line_indicator(self):
        g = fv.build_grid(1, 1.0, 2)
        f = fv.sample(g, fv.Indicator(fv.HalfSpace(axis=0, threshold=0.0)))
        assert np.array_equal(f.values, [0.0, 1.0])

    def test_power_law_zero_exponent_is_one(self, line_grid):
        f = fv.sample(line_grid, fv.PowerLaw(alpha=0.0))
        assert np.array_equal(f.values, np.ones(line_grid.n_cells))

    def test_power_law_pointwise_value(self):
        g = fv.build_grid(1, 1.0, 2)  # centers at +-0.5
        f = fv.sample(g, fv.PowerLaw(alpha=0.8))
        assert f.values[1] == pytest.approx(2.0**0.8, rel=1e-14)
        assert f.values[1] == pytest.approx(1.7411011265922482, rel=1e-12)

    def test_power_law_origin_cell_staggered(self):
        g = fv.build_grid(1, 1.5, 3)  # middle cell centered exactly at 0
        f = fv.sample(g, fv.PowerLaw(alpha=0.8))
        assert np.isfinite(f.values[1])
        assert f.values[1] == pytest.approx((g.spacing / 4.0) ** -0.8, rel=1e-12)

    def test_gaussian_center_defaults_to_the_origin(self, plane_grid):
        origin = fv.sample(plane_grid, fv.GaussianBump(0.3, (0.0, 0.0)))
        assert np.array_equal(fv.sample(plane_grid, fv.GaussianBump(0.3)).values,
                              origin.values)

    @pytest.mark.parametrize("center", [(0.5,), (0.5, 0.5, 0.5)])
    def test_gaussian_center_of_wrong_dimension_refused(self, plane_grid, center):
        # a 1-coordinate centre used to broadcast to (0.5, 0.5), a 3-coordinate
        # one to fail inside numpy
        with pytest.raises(DomainError, match="gaussian center"):
            fv.sample(plane_grid, fv.GaussianBump(0.3, center))

    def test_difference_requires_nonnegative_parts(self, line_grid):
        spec = fv.Difference(fv.PowerLaw(alpha=0.0),
                             fv.GaussianBump(sigma=0.5, amplitude=0.5))
        f = fv.sample(line_grid, spec)
        assert f.values.max() > 0 > f.values.min() or np.all(f.values >= 0)

        negative = fv.GaussianBump(sigma=0.5, amplitude=-1.0)
        with pytest.raises(DomainError, match="non-negative"):
            fv.sample(line_grid, fv.Difference(fv.PowerLaw(alpha=0.0), negative))

    def test_nan_rejection(self, line_grid):
        with pytest.raises(DomainError, match="NaN"):
            fv.sample(line_grid, fv.PowerLaw(alpha=0.0, amplitude=math.nan))

    def test_from_file_size_mismatch(self, tmp_path, line_grid):
        import fracvar.io as fio
        small = fv.build_grid(1, 1.0, 4)
        path = tmp_path / "w.csv"
        fio.write_grid_function(fv.GridFunction(small, np.ones(4)), path)
        with pytest.raises(DomainError):
            fv.sample(line_grid, fv.FromFile(str(path)))


class TestGridFunction:
    def test_rejects_wrong_length(self, line_grid):
        with pytest.raises(DomainError):
            fv.GridFunction(line_grid, np.ones(7))

    def test_rejects_non_finite(self, line_grid):
        vals = np.ones(line_grid.n_cells)
        vals[3] = np.inf
        with pytest.raises(DomainError):
            fv.GridFunction(line_grid, vals)

    def test_values_read_only(self, line_grid):
        f = fv.GridFunction(line_grid, np.ones(line_grid.n_cells))
        with pytest.raises(ValueError):
            f.values[0] = 2.0
