import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fracvar as fv
import fracvar.eigen as eig
import fracvar.energy as energy_mod
import fracvar.grid as grid_mod
import fracvar.io as fio
from fracvar.cli import RunConfig, dispatch
from fracvar.errors import ConvergenceError, DomainError


class TestCsvRoundTrip:
    def test_grid_function_exact(self, tmp_path, line_grid, rng):
        vals = rng.standard_normal(line_grid.n_cells) * 10.0 ** rng.integers(
            -12, 12, line_grid.n_cells)
        f = fv.GridFunction(line_grid, vals)
        path = tmp_path / "f.csv"
        fio.write_grid_function(f, path)
        back = fio.read_grid_function(line_grid, path)
        assert np.array_equal(back.values, f.values)

    def test_plane_function_exact(self, tmp_path, plane_grid, rng):
        f = fv.GridFunction(plane_grid, rng.standard_normal(plane_grid.n_cells))
        path = tmp_path / "f2.csv"
        fio.write_grid_function(f, path)
        assert np.array_equal(fio.read_grid_function(plane_grid, path).values,
                              f.values)
        header = path.read_text().splitlines()[0]
        assert header == "x,y,value"

    def test_step_function_csv(self, tmp_path):
        sf = fv.StepFunction(np.array([0.0, 1.0, 2.5]), np.array([3.0, 1.0]))
        path = tmp_path / "sf.csv"
        fio.write_step_function(sf, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "breakpoint,level"
        assert len(rows) == 3

    def test_missing_file_rejected(self, line_grid):
        with pytest.raises(DomainError):
            fio.read_grid_function(line_grid, "/nonexistent/file.csv")

    @staticmethod
    def write_values(path, vals):
        path.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in vals))

    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 4)])
    def test_value_only_file(self, tmp_path, rng, dim, n):
        grid = fv.build_grid(dim, 1.0, n)
        vals = rng.standard_normal(grid.n_cells)
        path = tmp_path / "values.csv"
        self.write_values(path, vals)
        assert np.array_equal(fio.read_grid_function(grid, path).values, vals)
        cfg = RunConfig.load(write_config(
            tmp_path, grid={"dim": dim, "half_width": 1.0, "cells_per_dim": n},
            function={"kind": "from_file", "path": str(path)}))
        assert np.array_equal(cfg.function().values, vals)

    @pytest.mark.parametrize("rows", [1, 5, 9])
    def test_value_only_file_of_wrong_length(self, tmp_path, rows):
        path = tmp_path / "values.csv"
        self.write_values(path, np.arange(rows, dtype=float))
        with pytest.raises(DomainError, match=f"holds {rows} values, grid has 8 cells"):
            fio.read_grid_function(fv.build_grid(1, 1.0, 8), path)


class TestCsvBytes:
    @staticmethod
    def per_value_csv(header, columns):
        # the CSV formatted value by value
        rows = [",".join("%.17g" % float(v) for v in row) for row in zip(*columns)]
        return "".join(line + "\n" for line in [header, *rows]).encode()

    FINITE = [0.0, -0.0, 5e-324, -2.5e-310, np.finfo(float).tiny, np.finfo(float).max,
              -1.0 / 3.0]

    @staticmethod
    def wide_values(rng, size, specials):
        # magnitudes over 1e-300 .. 1e300, with the special values at random rows
        vals = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300.0, 300.0, size)
        vals[rng.choice(size, len(specials), replace=False)] = specials
        return vals

    @pytest.mark.parametrize("n", [4, 72])  # 72 x 72 cells span two write chunks
    def test_grid_function_bytes_and_round_trip(self, tmp_path, n):
        g = fv.build_grid(2, 1.0, n)
        vals = self.wide_values(np.random.default_rng(n), g.n_cells, self.FINITE)
        path = tmp_path / "f.csv"
        fio.write_grid_function(fv.GridFunction(g, vals), path)
        assert path.read_bytes() == self.per_value_csv("x,y,value", [*g.centers.T, vals])
        back = fio.read_grid_function(g, path).values
        assert np.array_equal(back, vals, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(vals))

    def test_series_with_non_finite_values(self, tmp_path):
        rng = np.random.default_rng(3)
        x, y = (self.wide_values(rng, 300, self.FINITE + [np.inf, -np.inf, np.nan])
                for _ in range(2))
        path = tmp_path / "s.csv"
        fio.write_series(x, y, path)
        assert path.read_bytes() == self.per_value_csv("x,y", [x, y])

    def test_series_of_integers_and_floats(self, tmp_path):
        x = [0, 1, -7, 2**53 + 1, 10**20, 3]
        y = [0.1, -0.0, 1e-310, float("nan"), 1e300, float("-inf")]
        path = tmp_path / "s.csv"
        fio.write_series(x, y, path)
        assert path.read_bytes() == self.per_value_csv("x,y", [x, y])

    def test_step_function_and_plot_csv(self, tmp_path):
        rng = np.random.default_rng(7)
        widths = 10.0 ** rng.uniform(-300.0, 300.0, 50)
        levels = rng.standard_normal(50) * 10.0 ** rng.uniform(-300.0, 300.0, 50)
        sf = fv.StepFunction(np.concatenate([[0.0], np.cumsum(np.sort(widths))]), levels)
        expected = self.per_value_csv("breakpoint,level", [sf.breakpoints[1:], sf.levels])
        fio.write_step_function(sf, tmp_path / "sf.csv")
        assert (tmp_path / "sf.csv").read_bytes() == expected
        fio.emit_plot(sf, tmp_path / "sf_plot.svg")
        assert (tmp_path / "sf_plot.csv").read_bytes() == expected

    def test_empty_series_writes_the_header(self, tmp_path):
        fio.write_series([], [], tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_bytes() == b"x,y\n"


class TestEmitPlot:
    def test_three_point_series(self, tmp_path):
        path = tmp_path / "series.svg"
        fio.emit_plot(([0.0, 1.0, 2.0], [1.0, 4.0, 2.0]), path)
        svg = path.read_text()
        assert svg.count(",") >= 3
        polyline = [ln for ln in svg.splitlines() if "polyline" in ln][0]
        pts = polyline.split('points="')[1].split('"')[0].split()
        assert len(pts) == 3
        assert (tmp_path / "series.csv").read_text().count("\n") == 4

    def test_heat_map_cell_count(self, tmp_path):
        g = fv.build_grid(2, 1.0, 16)
        f = fv.GridFunction(g, np.arange(256, dtype=float))
        path = tmp_path / "field.svg"
        fio.emit_plot(f, path)
        assert path.read_text().count("<rect") == 256 + 1  # cells + background

    @staticmethod
    def per_cell_heat_svg(field):
        # the heat map formatted cell by cell, with the colour map in scalars
        def color(t):
            stops = [(20, 40, 120), (245, 240, 180), (150, 20, 30)]
            if t <= 0.5:
                a, b, frac = stops[0], stops[1], 2 * t
            else:
                a, b, frac = stops[1], stops[2], 2 * t - 1
            return "#%02x%02x%02x" % tuple(int(round(ai + (bi - ai) * frac))
                                           for ai, bi in zip(a, b))

        n = field.grid.cells_per_dim
        vals = field.values.reshape(n, n)
        lo, hi = float(vals.min()), float(vals.max())
        span = hi - lo or 1.0
        cell = (min(fio._W, fio._H) - 2 * fio._PAD) / n
        parts = fio._svg_header()
        for i in range(n):
            for j in range(n):
                x = fio._PAD + i * cell
                y = fio._H - fio._PAD - (j + 1) * cell
                parts.append(f'<rect x="{x:.6g}" y="{y:.6g}" width="{cell:.6g}" '
                             f'height="{cell:.6g}" fill="{color((vals[i, j] - lo) / span)}"/>')
        parts.append(f'<text x="{fio._PAD}" y="{fio._H - fio._PAD + 20}" font-size="11">'
                     f'range [{lo:.6g}, {hi:.6g}]</text>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    @pytest.mark.parametrize("n, kind", [(36, "random"), (7, "random"), (5, "constant"),
                                         (9, "halves")])
    def test_heat_map_bytes_match_per_cell_formula(self, tmp_path, n, kind):
        g = fv.build_grid(2, 1.0, n)
        rng = np.random.default_rng(n)
        if kind == "random":
            vals = rng.standard_normal(g.n_cells)
        elif kind == "constant":  # span 0: every cell at t = 0
            vals = np.full(g.n_cells, 2.5)
        else:  # t = 0, 0.5 and 1 exactly, and halves of the colour steps
            vals = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 1.0 + 2.0**-7], g.n_cells)
            vals[:3] = [0.0, 1.0, 2.0]
        f = fv.GridFunction(g, vals)
        fio.emit_plot(f, tmp_path / "field.svg")
        assert (tmp_path / "field.svg").read_bytes() == self.per_cell_heat_svg(f).encode()

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            fio.emit_plot(([], []), tmp_path / "empty.svg")


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 42,
        "grid": {"dim": 1, "half_width": 1.0, "cells_per_dim": 32,
                 "ext_radius": 4.0},
        "frac": {"s": 0.5, "p": 2.0},
        "weight": {"kind": "power_law", "alpha": 0.0},
        "function": {"kind": "gaussian", "sigma": 0.3},
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# trimmed sample counts for the verify command
VERIFY_SAMPLES = {"homogeneity": 5, "hardy_littlewood": 10, "picone": 10,
                  "gateaux_fd": 2, "polya_szego": 4, "ds_scaling": 1,
                  "best_constant": 10, "hardy_ratio": 10,
                  "lorentz_embedding": 3, "q_scale_invariance": 1,
                  "eigen_simplicity": 2}


class TestDispatch:
    def test_unknown_command_exits_64(self, capsys):
        assert dispatch(["frobnicate"]) == 64
        assert "usage" in capsys.readouterr().err

    def test_no_command_exits_64(self, capsys):
        assert dispatch([]) == 64
        capsys.readouterr()

    def test_missing_config_flag_exits_64(self, capsys):
        assert dispatch(["seminorm"]) == 64
        capsys.readouterr()

    def test_malformed_config_exits_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert dispatch(["seminorm", "--config", str(bad)]) == 65
        capsys.readouterr()

    def test_missing_seed_exits_65(self, tmp_path, capsys):
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps({
            "grid": {"dim": 1, "half_width": 1.0, "cells_per_dim": 8},
            "frac": {"s": 0.4, "p": 2.0}}))
        assert dispatch(["seminorm", "--config", str(path)]) == 65
        capsys.readouterr()

    @pytest.mark.parametrize("command, overrides", [
        ("eigen", {"seed": "abc"}),
        ("eigen", {"solver": {"tol": "tight"}}),
        ("verify", {"verify": {"threads": "2"}}),
        ("seminorm", {"function": {"kind": "gaussian"}}),
        ("eigen", {"solver": "fast"}),
        ("hardy-norm", {"hardy": {"ball_radii": ["0.5"]}}),
        ("hardy-norm", {"hardy": {"center_stride": 0}}),
        ("hardy-norm", {"hardy": {"n_quantiles": -1}}),
        ("hardy-norm", {"hardy": {"center_stride": -2}}),
        ("capacity", {"capacity": {"region": {"kind": "halfspace", "side": "up"}}}),
        # flags were once read by truthiness: "false" ran the diagnostic, and
        # operator.index took true for 1 thread
        ("concentration", {"concentration": {"diagnostic": "false"}}),
        ("concentration", {"concentration": {"at_infinity": "false"}}),
        ("concentration", {"concentration": {"diagnostic": 0}}),
        ("verify", {"verify": {"threads": True}}),
        ("verify", {"verify": {"threads": 2.5}}),
        ("verify", {"verify": {"threads": 0}}),
        ("verify", {"verify": {"threads": -3}}),
    ])
    def test_malformed_value_exits_65(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert dispatch([command, "--config", cfg]) == 65
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_null_flags_read_as_false(self, tmp_path, capsys):
        # the point profile, neither the diagnostic nor the profile at infinity
        cfg = write_config(tmp_path, concentration={"diagnostic": None, "at_infinity": None})
        assert dispatch(["concentration", "--config", cfg]) == 0
        written = {name.split(".")[0] for name in os.listdir(tmp_path / "out")}
        assert written == {"concentration"}

    @pytest.mark.parametrize("command, solver", [
        ("capacity", {"capacity_tol_factor": float("nan")}),
        ("capacity", {"capacity_tol_factor": 0.0}),
        ("capacity", {"capacity_tol_factor": -1e-8}),
        ("capacity", {"max_iter": 0}),
        ("hardy-norm", {"max_iter": -3}),
        ("eigen", {"tol": float("nan")}),
        ("eigen", {"tol": 0.0}),
        ("eigen", {"tol": -1e-6}),
        ("eigen", {"max_iter": 0}),
        ("capacity", {"max_iter": float("inf")}),
        ("capacity", {"max_iter": float("nan")}),
        ("capacity", {"max_iter": 2.7}),
        ("capacity", {"max_iter": True}),
        ("eigen", {"max_iter": float("inf")}),
        ("eigen", {"max_iter": 2.7}),
        ("eigen", {"max_iter": True}),
    ])
    def test_bad_solver_value_exits_65(self, tmp_path, capsys, command, solver):
        cfg = write_config(tmp_path, solver=solver, capacity={
            "region": {"kind": "ball", "center": [0.0], "radius": 0.3}})
        assert dispatch([command, "--config", cfg]) == 65
        assert "config error: solver: malformed value" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides", [
        ("seminorm", {"seed": float("inf")}),
        ("seminorm", {"seed": 2.5}),
        ("seminorm", {"seed": True}),
        ("seminorm", {"grid": {"dim": float("inf"), "half_width": 1.0, "cells_per_dim": 8}}),
        ("seminorm", {"grid": {"dim": 1, "half_width": 1.0, "cells_per_dim": float("inf")}}),
        ("seminorm", {"grid": {"dim": 1, "half_width": 1.0, "cells_per_dim": 8.5}}),
        ("capacity", {"capacity": {"region": {"kind": "halfspace", "axis": float("inf")}}}),
        ("capacity", {"capacity": {"region": {"kind": "halfspace", "axis": True}}}),
        ("eigen", {"eigen": {"levels": float("inf")}}),
        ("eigen", {"eigen": {"levels": 1.5}}),
        ("hardy-norm", {"hardy": {"center_stride": float("inf")}}),
        ("hardy-norm", {"hardy": {"n_quantiles": 2.5}}),
        ("verify", {"verify": {"samples": {"homogeneity": float("inf")}}}),
        ("verify", {"verify": {"samples": {"homogeneity": 2.5}}}),
        ("verify", {"verify": {"samples": {"homogeneity": True}}}),
        ("verify", {"seed": -1}),
        ("eigen", {"seed": -1}),
    ])
    def test_non_whole_or_negative_integer_field_exits_65(self, tmp_path, capsys, command,
                                                          overrides):
        # JSON Infinity once ended in an OverflowError traceback, 2.5 and true
        # in a silent truncation, and a negative seed in numpy's ValueError
        cfg = write_config(tmp_path, **overrides)
        assert dispatch([command, "--config", cfg]) == 65
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_whole_float_reads_as_an_int(self, tmp_path):
        cfg = RunConfig.load(write_config(tmp_path, seed=7.0, grid={
            "dim": 1.0, "half_width": 1.0, "cells_per_dim": 16.0}))
        assert (cfg.seed, cfg.grid.dim, cfg.grid.cells_per_dim) == (7, 1, 16)
        assert type(cfg.seed) is int

    def test_overflowing_value_exits_65(self, tmp_path, capsys):
        # a JSON integer too large for a float
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1, "grid": {"dim": 1, "cells_per_dim": 8, '
                        '"half_width": 1' + "0" * 400 + '}, "frac": {"s": 0.4, "p": 2.0}}')
        assert dispatch(["seminorm", "--config", str(path)]) == 65
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("verify", [{"tolerances": {"homogeneity": float("inf")}},
                                        {"samples": {"homogenity": 5}}])
    def test_bad_verify_override_exits_65(self, tmp_path, capsys, verify):
        cfg = write_config(tmp_path, verify=verify)
        assert dispatch(["verify", "--config", cfg]) == 65
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_domain_error_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lorentz={"p": 0.5, "q": 2.0})
        assert dispatch(["lorentz", "--config", cfg]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("lorentz", [{"p": float("nan")}, {"q": float("nan")},
                                         {"p": 2.0, "q": float("nan")},
                                         {"p": float("inf"), "q": 2.0}])  # L^(inf, 2) is {0}
    def test_nan_lorentz_index_exits_1(self, tmp_path, capsys, lorentz):
        cfg = write_config(tmp_path, lorentz=lorentz)
        assert dispatch(["lorentz", "--config", cfg]) == 1
        assert "domain error: Lorentz" in capsys.readouterr().err
        assert not (tmp_path / "out" / "lorentz.json").exists()

    @pytest.mark.parametrize("grid, code", [
        ('"half_width": 1e400', 65),
        ('"half_width": 1e308', 65),
        ('"half_width": 1.0, "ext_radius": NaN', 1),
        ('"half_width": 1.0, "ext_radius": Infinity', 1),
        ('"half_width": 1.0, "ext_radius": 1e308', 1),
    ])
    def test_non_finite_geometry_exits_with_a_message(self, tmp_path, capsys, grid, code):
        # json reads 1e400 as inf; 1e308 overflows the spacing or the ring
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1, "grid": {"dim": 1, "cells_per_dim": 8, ' + grid
                        + '}, "frac": {"s": 0.4, "p": 2.0}, '
                        '"function": {"kind": "gaussian", "sigma": 0.3}}')
        assert dispatch(["seminorm", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == code
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oversized_grid_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(grid_mod, "_physical_memory", lambda: 4 * 1024 * 1024)
        cfg = write_config(tmp_path, grid={"dim": 2, "half_width": 1.0,
                                           "cells_per_dim": 2048})
        assert dispatch(["seminorm", "--config", cfg]) == 65
        assert "physical memory" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides", [
        ("hardy-norm", {"hardy": {"ball_radii": [], "n_quantiles": 0}}),
        ("concentration", {"hardy": {"ball_radii": [], "n_quantiles": 0}}),
        ("concentration", {"hardy": {"ball_radii": [], "n_quantiles": 0},
                           "concentration": {"at_infinity": True}}),
        ("concentration", {"grid": {"dim": 2, "half_width": 1.0, "cells_per_dim": 8},
                           "concentration": {"point": [0.125, 0.125, 0.0]}}),
        ("capacity", {"capacity": {"region": {"kind": "ball", "center": [0.0, 0.5],
                                              "radius": 0.3}}}),
        ("capacity", {"capacity": {"region": {"kind": "halfspace", "axis": 1}}}),
        ("seminorm", {"grid": {"dim": 2, "half_width": 1.0, "cells_per_dim": 8},
                      "function": {"kind": "gaussian", "sigma": 0.3,
                                   "center": [0.0, 0.0, 0.0]}}),
        ("concentration", {"concentration": {"at_infinity": True,
                                             "radii": [0.5, float("nan")]}}),
        ("concentration", {"concentration": {"at_infinity": True, "radii": [-0.5, 0.5]}}),
    ], ids=["hardy_empty_family", "point_empty_family", "infinity_empty_family",
            "point_of_3_coordinates", "ball_center_of_2", "halfspace_axis_1",
            "gaussian_center_of_3", "nan_radius_at_infinity",
            "negative_radius_at_infinity"])
    def test_bad_sweep_or_region_exits_1(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert dispatch([command, "--config", cfg]) == 1
        assert "domain error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, missing, message", [
        ("eigen", ["weight"], "config is missing 'weight'"),
        ("hardy-norm", ["weight"], "config is missing 'weight'"),
        ("concentration", ["weight"], "config is missing 'weight'"),
        ("seminorm", ["function", "weight"], "config has neither 'function' nor 'weight'"),
    ], ids=["eigen", "hardy-norm", "concentration", "seminorm"])
    def test_missing_weight_exits_65(self, tmp_path, capsys, command, missing, message):
        path = write_config(tmp_path)
        with open(path) as fh:
            cfg = json.load(fh)
        for key in missing:
            del cfg[key]
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert dispatch([command, "--config", path]) == 65
        assert f"config error: {message}\n" == capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_weight_positive_nowhere_exits_1(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(eig, "_descend", no_solve)
        cfg = write_config(tmp_path, weight={
            "kind": "difference", "w1": {"kind": "gaussian", "sigma": 0.5},
            "w2": {"kind": "gaussian", "sigma": 0.5, "amplitude": 2.0}})
        assert dispatch(["eigen", "--config", cfg, "--oracle"]) == 1
        assert "domain error: the weight w must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oracle_at_p3_refused_before_the_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("eigen_sequence ran before the p = 2 check")

        monkeypatch.setattr(eig, "eigen_sequence", no_solve)
        cfg = write_config(tmp_path, frac={"s": 0.3, "p": 3.0})
        assert dispatch(["eigen", "--config", cfg, "--oracle"]) == 1
        assert "--oracle requires p = 2" in capsys.readouterr().err

    def test_non_finite_file_value_exits_1(self, tmp_path, capsys):
        weight = tmp_path / "w.csv"
        rows = ["x,value"] + [f"{i},1.0" for i in range(31)] + ["31,nan"]
        weight.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, function={"kind": "from_file",
                                               "path": str(weight)})
        assert dispatch(["seminorm", "--config", cfg]) == 1
        assert "domain error" in capsys.readouterr().err

    def test_family_keeps_the_defaults_of_unset_keys(self, tmp_path):
        cfg = RunConfig.load(write_config(tmp_path, hardy={"n_quantiles": 3}))
        default = fv.CandidateFamily.default(cfg.grid)
        family = cfg.family()
        assert family.n_quantiles == 3
        assert family.ball_radii == default.ball_radii
        assert family.center_stride == default.center_stride

    def test_seminorm_writes_result(self, tmp_path):
        cfg = write_config(tmp_path)
        assert dispatch(["seminorm", "--config", cfg]) == 0
        payload = json.loads((tmp_path / "out" / "seminorm.json").read_text())
        assert payload["value"] == pytest.approx(
            payload["interior_part"] + payload["boundary_part"])

    def test_gradient_and_rearrange_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert dispatch(["gradient", "--config", cfg]) == 0
        assert dispatch(["rearrange", "--config", cfg]) == 0
        out = tmp_path / "out"
        for name in ("gradient.svg", "gradient.csv", "rearrangement.csv",
                     "maximal.csv", "symmetrized.csv"):
            assert (out / name).exists()

    def test_gradient_makes_one_pair_pass(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, grid={"dim": 2, "half_width": 1.0,
                                           "cells_per_dim": 8, "ext_radius": 4.0},
                           frac={"s": 0.5, "p": 3.0})
        loaded = RunConfig.load(cfg)
        expected = fv.seminorm_p(loaded.function(), loaded.kernel_table()).value
        passes = []
        pair_sums = energy_mod._pair_sums

        def counting(vals, kt, kind):
            passes.append(kind)
            return pair_sums(vals, kt, kind)

        monkeypatch.setattr(energy_mod, "_pair_sums", counting)
        assert dispatch(["gradient", "--config", cfg]) == 0
        assert passes == ["density"]
        payload = json.loads((tmp_path / "out" / "gradient.json").read_text())
        assert payload["energy"] == pytest.approx(expected, rel=1e-13)

    def test_capacity_command(self, tmp_path):
        cfg = write_config(tmp_path, capacity={
            "region": {"kind": "ball", "center": [0.0], "radius": 0.3}})
        assert dispatch(["capacity", "--config", cfg]) == 0
        payload = json.loads((tmp_path / "out" / "capacity.json").read_text())
        assert payload["value"] > 0
        assert not payload["degenerate"]

    def test_eigen_levels_and_oracle(self, tmp_path):
        cfg = write_config(tmp_path)
        assert dispatch(["eigen", "--config", cfg, "--levels", "2",
                         "--oracle"]) == 0
        out = tmp_path / "out"
        payload = json.loads((out / "eigen.json").read_text())
        assert payload["lambdas"][0] < payload["lambdas"][1]
        assert max(payload["oracle_rel_err"]) < 1e-4
        assert (out / "eigen_u1.csv").exists()
        assert (out / "eigen_u2.csv").exists()

    def test_eigen_levels_at_p3_with_signed_weight(self, tmp_path):
        cfg = write_config(
            tmp_path, frac={"s": 0.3, "p": 3.0}, solver={"tol": 1e-8},
            weight={"kind": "difference",
                    "w1": {"kind": "gaussian", "sigma": 0.35},
                    "w2": {"kind": "indicator", "amplitude": 0.2,
                           "region": {"kind": "ball", "center": [0.45],
                                      "radius": 0.25}}})
        assert dispatch(["eigen", "--config", cfg, "--levels", "2"]) == 0
        payload = json.loads((tmp_path / "out" / "eigen.json").read_text())
        assert payload["signs"] == ["nonnegative", "sign_changing"]
        assert max(payload["residuals"]) <= 1e-8

    def test_hardy_and_concentration_commands(self, tmp_path):
        cfg = write_config(
            tmp_path,
            frac={"s": 0.4, "p": 2.0},
            weight={"kind": "power_law", "alpha": 0.8},
            concentration={"point": [0.0], "radii": [0.5, 0.25]},
        )
        assert dispatch(["hardy-norm", "--config", cfg]) == 0
        assert dispatch(["concentration", "--config", cfg]) == 0
        out = tmp_path / "out"
        hardy = json.loads((out / "hardy_norm.json").read_text())
        assert hardy["estimate"] > 0
        assert hardy["skipped_candidates"] == 0
        prof = json.loads((out / "concentration.json").read_text())
        assert prof["extrapolated_limit"] > 0

    def test_hardy_norm_counts_skipped_candidates(self, tmp_path, monkeypatch):
        capacity_mod = importlib.import_module("fracvar.capacity")
        solve = capacity_mod.capacity

        def fails_on_odd_sizes(F, kt, opts=None):
            if F.size % 2:
                raise ConvergenceError("no convergence (forced)")
            return solve(F, kt, opts)

        monkeypatch.setattr(capacity_mod, "capacity", fails_on_odd_sizes)
        cfg = write_config(tmp_path, weight={"kind": "power_law", "alpha": 0.8})
        with pytest.warns(UserWarning, match="candidate .* skipped"):
            assert dispatch(["hardy-norm", "--config", cfg]) == 0
        hardy = json.loads((tmp_path / "out" / "hardy_norm.json").read_text())
        sweep = (tmp_path / "out" / "hardy_sweep.csv").read_text().splitlines()[1:]
        w = fv.sample(fv.build_grid(1, 1.0, 32), fv.PowerLaw(alpha=0.8))
        candidates = capacity_mod._family_candidates(w.grid, [np.abs(w.values)], None)
        assert hardy["skipped_candidates"] == len(candidates) - len(sweep) > 0

    def test_concentration_at_infinity_and_diagnostic(self, tmp_path):
        cfg = write_config(
            tmp_path,
            frac={"s": 0.4, "p": 2.0},
            weight={"kind": "indicator",
                    "region": {"kind": "ball", "center": [0.0], "radius": 0.3}},
            concentration={"at_infinity": True, "radii": [0.25, 0.5, 0.75]},
        )
        assert dispatch(["concentration", "--config", cfg]) == 0
        prof = json.loads(
            (tmp_path / "out" / "concentration_infinity.json").read_text())
        assert prof["extrapolated_limit"] == 0.0

        cfg2 = write_config(tmp_path,
                            frac={"s": 0.4, "p": 2.0},
                            weight={"kind": "gaussian", "sigma": 0.25},
                            concentration={"diagnostic": True})
        assert dispatch(["concentration", "--config", cfg2]) == 0
        verdict = json.loads((tmp_path / "out" / "compactness.json").read_text())
        assert "compact_indicating" in verdict

    def test_verify_command_writes_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, frac={"s": 0.4, "p": 2.0},
                           verify={"samples": VERIFY_SAMPLES})
        assert dispatch(["verify", "--config", cfg]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert report["all_passed"]
        assert (tmp_path / "out" / "verify_report.txt").exists()

    def test_verify_command_reports_failed_solves(self, tmp_path, capsys):
        # at p = 3 some eigen checks cannot pass; the suite still reports all
        cfg = write_config(tmp_path, frac={"s": 0.3, "p": 3.0},
                           verify={"samples": VERIFY_SAMPLES})
        assert dispatch(["verify", "--config", cfg]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert len(report["checks"]) == 18
        assert not report["all_passed"]
        failed = [c for c in report["checks"] if not c["passed"]]
        assert failed and all("error" in c["details"] for c in failed)

    def test_each_artifact_written_once(self, tmp_path, monkeypatch):
        written = []

        def recording(writer, arg):
            def wrapped(*args, **kwargs):
                written.append(os.fspath(args[arg]))
                return writer(*args, **kwargs)
            return wrapped

        for name, arg in (("write_grid_function", 1), ("write_step_function", 1),
                          ("write_series", 2), ("write_result_json", 1),
                          ("emit_plot", 1)):
            monkeypatch.setattr(fio, name, recording(getattr(fio, name), arg))
        cfg = write_config(
            tmp_path,
            capacity={"region": {"kind": "ball", "center": [0.0], "radius": 0.3}},
            concentration={"point": [0.0], "radii": [0.5, 0.25]},
        )
        assert dispatch(["capacity", "--config", cfg]) == 0
        assert dispatch(["eigen", "--config", cfg, "--levels", "2"]) == 0
        assert dispatch(["rearrange", "--config", cfg]) == 0
        assert dispatch(["concentration", "--config", cfg]) == 0
        repeated = sorted({p for p in written if written.count(p) > 1})
        assert not repeated, f"written more than once: {repeated}"
        header = (tmp_path / "out" / "concentration.csv").read_text().splitlines()[0]
        assert header == "x,y"


# runs fracvar.cli.dispatch on each argument list of argv[1] (JSON) with
# every import of scipy or a scipy submodule failing
WITHOUT_SCIPY = """
import json
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from fracvar.cli import dispatch

sys.exit(max(dispatch(argv) for argv in json.loads(sys.argv[1])))
"""


class TestWithoutScipy:
    def test_commands_run_with_scipy_blocked(self, tmp_path):
        line = {"dim": 1, "half_width": 1.0, "cells_per_dim": 48, "ext_radius": 4.0}
        plane = {"dim": 2, "half_width": 1.0, "cells_per_dim": 6, "ext_radius": 4.0}
        runs = [
            (["eigen", "--levels", "2", "--oracle"], {"grid": line}),
            (["hardy-norm"], {"weight": {"kind": "power_law", "alpha": 0.8}}),
            (["concentration"], {"grid": plane, "frac": {"s": 0.3, "p": 3.0},
                                 "weight": {"kind": "power_law", "alpha": 0.8},
                                 "concentration": {"point": [0.0, 0.0],
                                                   "radii": [0.5, 0.25]}}),
        ]
        argvs = []
        for k, (command, overrides) in enumerate(runs):
            run_dir = tmp_path / str(k)
            run_dir.mkdir()
            argvs.append(command + ["--config", write_config(run_dir, **overrides)])
        src = os.path.dirname(os.path.dirname(fv.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        for k, name in enumerate(["eigen.json", "hardy_norm.json", "concentration.json"]):
            assert (tmp_path / str(k) / "out" / name).exists()
