import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fracvar as fv
import fracvar.eigen as eig
import fracvar.io as fio
from fracvar.cli import RunConfig, dispatch
from fracvar.errors import DomainError


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
    ])
    def test_malformed_value_exits_65(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert dispatch([command, "--config", cfg]) == 65
        assert "config error" in capsys.readouterr().err

    def test_domain_error_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lorentz={"p": 0.5, "q": 2.0})
        assert dispatch(["lorentz", "--config", cfg]) == 1
        capsys.readouterr()

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
        prof = json.loads((out / "concentration.json").read_text())
        assert prof["extrapolated_limit"] > 0

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
