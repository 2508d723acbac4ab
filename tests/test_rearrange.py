import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fracvar as fv
from fracvar.errors import DomainError

finite_vals = st.floats(min_value=-50, max_value=50, allow_nan=False)


def field_strategy(n=12):
    return arrays(np.float64, n, elements=finite_vals)


@pytest.fixture(scope="module")
def unit_grid():
    # 12 unit cells
    return fv.build_grid(1, 6.0, 12)


def step_distribution(sf, level):
    """Oracle: measure where a step function exceeds the level."""
    return float(sf.widths()[sf.levels > level].sum())


class TestDistributionFunction:
    def test_hand_counted(self):
        g = fv.build_grid(1, 1.5, 3)
        f = fv.GridFunction(g, np.array([3.0, 1.0, 2.0]))
        assert fv.distribution_function(f, [1.5]) == pytest.approx([2.0])

    def test_above_max_is_zero(self, unit_grid, rng):
        f = fv.GridFunction(unit_grid, rng.standard_normal(12))
        top = np.abs(f.values).max()
        assert fv.distribution_function(f, [top])[0] == 0.0

    def test_zero_level_gives_total_measure(self, unit_grid):
        f = fv.GridFunction(unit_grid, np.arange(1.0, 13.0))
        total = unit_grid.n_cells * unit_grid.cell_measure
        assert fv.distribution_function(f, [0.0])[0] == total

    def test_negative_level_rejected(self, unit_grid):
        f = fv.GridFunction(unit_grid, np.ones(12))
        with pytest.raises(DomainError):
            fv.distribution_function(f, [-0.5])


class TestDecreasingRearrangement:
    def test_sorts_absolute_values(self):
        g = fv.build_grid(1, 1.5, 3)
        f = fv.GridFunction(g, np.array([3.0, 1.0, 2.0]))
        sf = fv.decreasing_rearrangement(f)
        assert np.array_equal(sf.levels, [3.0, 2.0, 1.0])
        assert np.array_equal(sf.breakpoints, [0.0, 1.0, 2.0, 3.0])

    def test_identity_on_sorted_nonnegative(self, unit_grid):
        vals = np.linspace(5.0, 0.5, 12)
        sf = fv.decreasing_rearrangement(fv.GridFunction(unit_grid, vals))
        assert np.array_equal(sf.levels, vals)

    @given(vals=field_strategy())
    def test_sign_blind(self, unit_grid, vals):
        a = fv.decreasing_rearrangement(fv.GridFunction(unit_grid, vals))
        b = fv.decreasing_rearrangement(fv.GridFunction(unit_grid, -vals))
        assert np.array_equal(a.levels, b.levels)

    @given(vals=field_strategy())
    def test_equimeasurable(self, unit_grid, vals):
        f = fv.GridFunction(unit_grid, vals)
        sf = fv.decreasing_rearrangement(f)
        for level in np.abs(vals):
            assert step_distribution(sf, level) == pytest.approx(
                fv.distribution_function(f, [level])[0], abs=0.0)

    @given(vals=field_strategy())
    def test_monotone_in_the_data(self, unit_grid, vals):
        f = fv.decreasing_rearrangement(fv.GridFunction(unit_grid, vals))
        g = fv.decreasing_rearrangement(
            fv.GridFunction(unit_grid, 1.5 * np.abs(vals) + 0.25))
        assert np.all(g.levels >= f.levels)


class TestMaximalFunction:
    def test_running_average_example(self):
        g = fv.build_grid(1, 1.5, 3)
        sf = fv.decreasing_rearrangement(
            fv.GridFunction(g, np.array([3.0, 2.0, 1.0])))
        mx = fv.maximal_function(sf)
        assert np.array_equal(mx.levels, [3.0, 2.5, 2.0])

    def test_constant_fixed_point(self):
        sf = fv.StepFunction(np.array([0.0, 1.0, 2.0]), np.array([4.0, 4.0]))
        assert np.array_equal(fv.maximal_function(sf).levels, [4.0, 4.0])

    @given(vals=field_strategy())
    def test_dominates_the_rearrangement(self, unit_grid, vals):
        sf = fv.decreasing_rearrangement(fv.GridFunction(unit_grid, vals))
        mx = fv.maximal_function(sf)
        assert np.all(mx.levels >= sf.levels - 1e-15 * np.abs(sf.levels))

    def test_rejects_non_monotone(self):
        sf = fv.StepFunction(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            fv.maximal_function(sf)


class TestSchwarz:
    def test_two_cell_tie_rule(self):
        g = fv.build_grid(1, 1.0, 2)
        f = fv.GridFunction(g, np.array([0.0, 5.0]))
        assert np.array_equal(fv.schwarz_symmetrization(f).values, [5.0, 0.0])

    def test_fixed_point_when_already_radial(self):
        g = fv.build_grid(1, 2.0, 4)
        # radially non-increasing along the tie-broken cell ordering
        order = np.argsort(g.radii(), kind="stable")
        vals = np.empty(4)
        vals[order] = [4.0, 3.0, 2.0, 1.0]
        f = fv.GridFunction(g, vals)
        assert np.array_equal(fv.schwarz_symmetrization(f).values, vals)

    @given(vals=field_strategy())
    def test_preserves_sum_and_max(self, unit_grid, vals):
        f = fv.GridFunction(unit_grid, vals)
        s = fv.schwarz_symmetrization(f)
        assert s.values.sum() == pytest.approx(np.abs(vals).sum(), rel=1e-12)
        assert s.values.max() == np.abs(vals).max()

    @given(vals=field_strategy())
    def test_equimeasurable(self, unit_grid, vals):
        f = fv.GridFunction(unit_grid, vals)
        s = fv.schwarz_symmetrization(f)
        for level in [0.0, 0.5, np.abs(vals).max() / 2]:
            assert fv.distribution_function(s, [level])[0] == pytest.approx(
                fv.distribution_function(f, [level])[0], abs=0.0)


class TestHardyLittlewood:
    @given(f=field_strategy(), g=field_strategy())
    def test_pairing_bounded_by_sorted_pairing(self, unit_grid, f, g):
        fa, ga = np.abs(f), np.abs(g)
        m = unit_grid.cell_measure
        lhs = float((fa * ga).sum() * m)
        rhs = float((np.sort(fa)[::-1] * np.sort(ga)[::-1]).sum() * m)
        assert lhs <= rhs * (1 + 1e-12) + 1e-12


class TestLorentz:
    def test_indicator_sup_form(self, unit_grid):
        # unit-measure set: sup of t^(1/p) over t < 1 equals 1
        vals = np.zeros(12)
        vals[4] = 1.0
        f = fv.GridFunction(unit_grid, vals)
        for p in (1.5, 2.0, 4.0):
            assert fv.lorentz_quasi_norm(f, p, np.inf) == pytest.approx(1.0)

    def test_indicator_closed_form_finite_q(self, unit_grid):
        vals = np.zeros(12)
        vals[0] = 1.0
        f = fv.GridFunction(unit_grid, vals)
        # oracle: integral of t^(q/p - 1) over (0, 1) equals p/q
        for p, q in [(2.0, 3.0), (1.5, 1.0), (3.0, 2.0)]:
            assert fv.lorentz_quasi_norm(f, p, q) == pytest.approx(
                (p / q) ** (1 / q), rel=1e-12)

    def test_zero_function(self, unit_grid):
        f = fv.GridFunction(unit_grid, np.zeros(12))
        assert fv.lorentz_quasi_norm(f, 2.0, 2.0) == 0.0
        assert fv.lorentz_norm(f, 2.0, np.inf) == 0.0

    @given(vals=field_strategy())
    def test_norm_dominates_quasi_norm(self, unit_grid, vals):
        f = fv.GridFunction(unit_grid, vals)
        for q in (1.0, 2.0, np.inf):
            assert fv.lorentz_norm(f, 2.0, q) >= fv.lorentz_quasi_norm(
                f, 2.0, q) * (1 - 1e-12)

    @given(f=field_strategy(), g=field_strategy())
    def test_triangle_inequality(self, unit_grid, f, g):
        a = fv.GridFunction(unit_grid, f)
        b = fv.GridFunction(unit_grid, g)
        c = fv.GridFunction(unit_grid, f + g)
        for q in (1.0, 2.5, np.inf):
            lhs = fv.lorentz_norm(c, 2.0, q)
            rhs = fv.lorentz_norm(a, 2.0, q) + fv.lorentz_norm(b, 2.0, q)
            assert lhs <= rhs * (1 + 1e-12) + 1e-12

    @pytest.mark.parametrize("norm", [fv.lorentz_quasi_norm, fv.lorentz_norm])
    @pytest.mark.parametrize("p", [1.0, 2.0, 7.5])
    def test_huge_q_tends_to_the_sup(self, unit_grid, rng, norm, p):
        f = fv.GridFunction(unit_grid, rng.standard_normal(12) * 1e-3)
        sup = norm(f, p, np.inf)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert norm(f, p, 1e308) == pytest.approx(sup, rel=1e-12)
            assert norm(f, p, 1e6) == pytest.approx(sup, rel=1e-4)

    @given(vals=field_strategy())
    def test_sup_form_is_the_largest_peak(self, unit_grid, vals):
        # the q = infinity value, formed as max over right endpoints of t^(1/p) f*(t)
        f = fv.GridFunction(unit_grid, vals)
        for step, norm in [(fv.decreasing_rearrangement(f), fv.lorentz_quasi_norm),
                           (fv.maximal_function(fv.decreasing_rearrangement(f)),
                            fv.lorentz_norm)]:
            expected = float(np.max(step.levels * step.breakpoints[1:] ** (1.0 / 1.5),
                                    initial=0.0))
            assert norm(f, 1.5, np.inf) == expected

    def test_rejects_p_below_one(self, unit_grid):
        f = fv.GridFunction(unit_grid, np.ones(12))
        with pytest.raises(DomainError):
            fv.lorentz_quasi_norm(f, 0.5, 2.0)

    @pytest.mark.parametrize("p,q", [(np.nan, 2.0), (np.nan, np.inf),
                                     (2.0, np.nan), (2.0, 0.5),
                                     (np.inf, 2.0)])  # L^(inf, q) holds only 0
    @pytest.mark.parametrize("norm", [fv.lorentz_quasi_norm, fv.lorentz_norm])
    def test_rejects_nan_or_small_indices(self, unit_grid, norm, p, q):
        f = fv.GridFunction(unit_grid, np.ones(12))
        with pytest.raises(DomainError, match="Lorentz"):
            norm(f, p, q)


class TestPowerLawRearrangement:
    @pytest.mark.parametrize("dim,n,s,p", [(1, 256, 0.4, 2.0), (2, 24, 0.5, 2.0)])
    def test_matches_power_profile(self, dim, n, s, p):
        # sampling omega_N^(-sp/N) |x|^(-sp) rearranges to about t^(-sp/N)
        sp = s * p
        omega = {1: 2.0, 2: np.pi}[dim]
        g = fv.build_grid(dim, 1.0, n)
        w = fv.sample(g, fv.PowerLaw(alpha=sp, amplitude=omega ** (-sp / dim)))
        sf = fv.decreasing_rearrangement(w)
        t = sf.breakpoints[1:]
        k = len(t)
        inner = slice(int(0.1 * k), int(0.9 * k))
        predicted = t[inner] ** (-sp / dim)
        ratio = sf.levels[inner] / predicted
        assert np.all(np.abs(ratio - 1.0) < 0.05)
