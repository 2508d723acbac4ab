import math
import os
import threading

import numpy as np
import pytest

import fracvar.checks as chk
from fracvar.errors import ConfigError, ConvergenceError
from fracvar.grid import build_grid

# trimmed sample counts keep the suite fast while covering every check
FAST = dict(
    homogeneity=20, hardy_littlewood=50, picone=50, gateaux_fd=5,
    polya_szego=10, ds_scaling=2, best_constant=40, hardy_ratio=25,
    lorentz_embedding=6, q_scale_invariance=2, eigen_simplicity=3,
)


@pytest.fixture(scope="module")
def fast_report():
    return chk.run_suite(chk.VerifyConfig(seed=42, samples=dict(FAST)))


class TestRunSuite:
    def test_default_seed_passes_everything(self, fast_report):
        failing = [r.name for r in fast_report.records if not r.passed]
        assert not failing, f"failing checks: {failing}"

    def test_report_covers_registry(self, fast_report):
        assert tuple(r.name for r in fast_report.records) == chk.CHECK_NAMES

    def test_zero_sample_config_rejected(self):
        with pytest.raises(ConfigError):
            chk.run_suite(chk.VerifyConfig(seed=1, samples={"picone": 0}))

    @pytest.mark.parametrize("overrides", [
        {"seed": -1}, {"seed": 1.5}, {"seed": float("nan")},
        {"samples": {"picone": 2.5}}, {"samples": {"picone": True}},
    ], ids=["seed=-1", "seed=1.5", "seed=nan", "samples=2.5", "samples=True"])
    def test_non_whole_or_negative_config_rejected(self, overrides):
        with pytest.raises(ConfigError):
            chk.run_check("picone", chk.VerifyConfig(**overrides))

    def test_broken_tolerance_fails_symmetrization_check(self):
        # the discretization margin needs the default sample count to show;
        # with it, tolerance zero must turn the check red
        samples = {k: v for k, v in FAST.items() if k != "polya_szego"}
        cfg = chk.VerifyConfig(seed=42, samples=samples,
                               tolerances={"polya_szego": 0.0})
        report = chk.run_suite(cfg)
        rec = {r.name: r for r in report.records}["polya_szego"]
        assert not rec.passed
        assert rec.worst_margin > 0.0

    def test_byte_identical_across_thread_counts(self):
        cfg1 = chk.VerifyConfig(seed=7, samples=dict(FAST), threads=1)
        cfgN = chk.VerifyConfig(seed=7, samples=dict(FAST),
                                threads=max(2, os.cpu_count() or 2))
        assert chk.run_suite(cfg1).to_json_bytes() == \
            chk.run_suite(cfgN).to_json_bytes()

    def test_text_table_lists_every_check(self, fast_report):
        text = fast_report.to_text()
        for name in chk.CHECK_NAMES:
            assert name in text
        assert "overall: pass" in text


# at p = 3 the dense oracle does not apply; every other check passes,
# the deflated levels of both weights included
P3_FAILING = ("eigen_oracle_first", "eigen_oracle_levels")


@pytest.fixture(scope="module")
def p3_runs():
    """The suite at (s, p) = (0.3, 3) for two seeds."""
    return {seed: chk.run_suite(chk.VerifyConfig(seed=seed, s=0.3, p=3.0,
                                                 samples=dict(FAST)))
            for seed in (42, 123)}


class TestFailedSolves:
    @pytest.mark.parametrize("seed", [42, 123])
    def test_suite_completes_at_p3(self, p3_runs, seed):
        report = p3_runs[seed]
        assert tuple(r.name for r in report.records) == chk.CHECK_NAMES
        for rec in report.records:
            if rec.name in P3_FAILING:
                assert not rec.passed, rec.name
                assert rec.worst_margin == math.inf
                assert rec.details["error"].startswith(
                    "DomainError: the dense oracle applies only to p = 2")
            else:
                assert rec.passed, rec.name

    @pytest.mark.parametrize("seed", [42, 123])
    def test_failed_shared_solve_runs_once(self, monkeypatch, seed):
        # a failed shared build is memoized: solved once, a FAIL record in
        # every check that reads it
        signed_seeds = []
        solve = chk.eig.eigen_sequence

        def signed_fails(w, kt, k, opts=None):
            if np.any(w.values < 0):
                signed_seeds.append(opts.seed)
                raise ConvergenceError("stalled on purpose")
            return solve(w, kt, k, opts)

        monkeypatch.setattr(chk.eig, "eigen_sequence", signed_fails)
        report = chk.run_suite(chk.VerifyConfig(seed=seed, s=0.3, p=3.0,
                                                samples=dict(FAST)))
        assert signed_seeds == [seed]
        records = {r.name: r for r in report.records}
        for name in ("eigen_positivity", "eigen_sign_change", "eigen_gap"):
            assert not records[name].passed, name
            assert records[name].worst_margin == math.inf
            assert records[name].details == {
                "error": "ConvergenceError: stalled on purpose"}

    def test_raising_check_gives_fail_record(self, monkeypatch):
        def stalls(ctx, n, rng):
            raise ConvergenceError("stalled on purpose")

        monkeypatch.setattr(chk, "_REGISTRY",
                            (("stalls", stalls, 3, 0.5, "a statement"),))
        rec = chk.run_check("stalls", chk.VerifyConfig(seed=1))
        assert rec == chk.CheckRecord(
            "stalls", "a statement", 3, math.inf, 0.5, False,
            {"error": "ConvergenceError: stalled on purpose"})

    def test_single_restart_simplicity_fails(self):
        # the probe compares restarts, so one restart is a FAIL record
        rec = chk.run_check("eigen_simplicity",
                            chk.VerifyConfig(seed=42, samples={"eigen_simplicity": 1}))
        assert not rec.passed
        assert rec.samples == 1
        assert rec.details == {"error": "DomainError: the probe needs at least 2 restarts"}

    def test_other_exceptions_propagate(self, monkeypatch):
        def broken(ctx, n, rng):
            raise ZeroDivisionError("a bug")

        monkeypatch.setattr(chk, "_REGISTRY", (("broken", broken, 1, 0.0, "s"),))
        with pytest.raises(ZeroDivisionError):
            chk.run_check("broken")


def serial_bump_field(grid, rng):
    """The test fields as drawn by serial ``Generator.uniform`` calls."""
    L = grid.half_width
    vals = np.zeros(grid.n_cells)
    for _ in range(int(rng.integers(1, 5))):
        center = rng.uniform(-0.6 * L, 0.6 * L, size=grid.dim)
        width = rng.uniform(0.08 * L, 0.3 * L)
        amp = rng.uniform(0.2, 1.0)
        d2 = ((grid.centers - center) ** 2).sum(axis=1)
        vals += amp * np.exp(-d2 / (2.0 * width**2))
    return vals


class TestBumpField:
    @pytest.mark.parametrize("half_width", [1.0, 2.5])
    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
    def test_one_draw_matches_serial_uniform(self, dim, n, half_width):
        # one block of uniforms, mapped as lo + (hi - lo) x, is what the
        # serial calls draw: the same fields, and the stream left where
        # they leave it
        g = build_grid(dim, half_width, n)
        for seed in range(500):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(chk._smooth_bump_field(g, ours), serial_bump_field(g, ref))
            assert ours.bit_generator.state == ref.bit_generator.state


class TestHomogeneity:
    @pytest.mark.parametrize("seed", [42, 123])
    @pytest.mark.parametrize("s, p", [(0.2, 4.0), (0.2, 5.0), (0.4, 2.0)])
    def test_exact_scales_leave_no_roundoff(self, s, p, seed):
        # t = +-2^k scales every operand exactly; a uniform |t| left
        # 2.9e-12 at p = 4 and 3.8e-11 at p = 5 against the tolerance 1e-12
        rec = chk.run_check("homogeneity", chk.VerifyConfig(seed=seed, s=s, p=p))
        assert rec.passed
        assert rec.worst_margin <= 1e-20


class TestRunCheck:
    def test_single_check_runs_standalone(self):
        rec = chk.run_check("homogeneity",
                            chk.VerifyConfig(seed=3, samples={"homogeneity": 5}))
        assert rec.passed

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            chk.run_check("no_such_check")


BAD_OVERRIDES = {
    "zero_samples": {"samples": {"homogeneity": 0}},
    "unknown_sample_name": {"samples": {"homogenity": 5}},
    "unknown_tolerance_name": {"tolerances": {"homogenity": 1e-12}},
    "infinite_tolerance": {"tolerances": {"eigen_oracle_first": math.inf}},
    "nan_tolerance": {"tolerances": {"homogeneity": math.nan}},
    "negative_tolerance": {"tolerances": {"homogeneity": -1e-12}},
    "zero_threads": {"threads": 0},
    "negative_threads": {"threads": -3},
    "fractional_threads": {"threads": 2.5},
}


class TestOverrides:
    """Both entry points refuse overrides the registry cannot honour before
    any check runs."""

    @pytest.mark.parametrize("entry", ["run_check", "run_suite"])
    @pytest.mark.parametrize("overrides", BAD_OVERRIDES.values(), ids=BAD_OVERRIDES)
    def test_refused(self, monkeypatch, entry, overrides):
        def no_check(*_args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(chk, "_run_one", no_check)
        cfg = chk.VerifyConfig(s=0.3, p=3.0, **overrides)
        with pytest.raises(ConfigError):
            if entry == "run_check":
                chk.run_check("homogeneity", cfg)
            else:
                chk.run_suite(cfg)

    def test_infinite_tolerance_cannot_pass_a_failed_solve(self):
        # at p = 3 the dense oracle check is a FAIL record of margin +inf
        cfg = chk.VerifyConfig(s=0.3, p=3.0, tolerances={"eigen_oracle_first": math.inf})
        with pytest.raises(ConfigError, match="tolerance inf"):
            chk.run_check("eigen_oracle_first", cfg)
        rec = chk.run_check("eigen_oracle_first", chk.VerifyConfig(s=0.3, p=3.0))
        assert rec.worst_margin == math.inf and not rec.passed


class TestThreadCap:
    def test_map_runs_serially_in_input_order(self):
        from fracvar.runtime import ordered_map
        calls = []

        def square(x):
            calls.append((x, threading.get_ident()))
            return x * x

        assert ordered_map(square, [3, 1, 2], workers=4) == [9, 1, 4]
        me = threading.get_ident()
        assert calls == [(3, me), (1, me), (2, me)]
