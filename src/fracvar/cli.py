"""Config-driven command-line front end.

Every subcommand reads one JSON config file (``--config``), runs, and
writes results under the output directory (``--out`` flag, else the
config's ``out_dir``, else the working directory).  The config carries the
seed and every numerical knob so a run is archivable and repeatable.

Exit codes: 0 success, 1 domain error, 2 convergence failure, 64 unknown
subcommand or bad usage, 65 malformed config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import checks as verify_mod
from . import eigen as eig
from . import energy as en
from . import io as fio
from . import rearrange as rr
from .capacity import (CapacityOptions, CellSet, _default_radii, compactness_diagnostic,
                       concentration_at, concentration_at_infinity, hardy_norm_estimate)
from .capacity import capacity as capacity_solve
from .descent import is_whole
from .errors import ConfigError, ConvergenceError, DomainError
from .grid import (Ball, Difference, FracParams, FromFile, GaussianBump,
                   Grid, GridFunction, HalfSpace, Indicator, KernelTable,
                   PowerLaw, build_grid, build_kernel_table, sample)

USAGE = """\
usage: fracvar <command> --config FILE [--out DIR] [command options]

commands:
  seminorm       energy of the configured function, split into parts
  gradient       nonlocal gradient field |D u|
  rearrange      decreasing rearrangement, running average, radial rearrangement
  lorentz        Lorentz quasi-norm and norm of the configured function
  capacity       capacity of the configured cell set
  hardy-norm     candidate-family estimate of the capacitary weight norm
  concentration  concentration profile at a point or at infinity
  eigen          weighted eigenpairs (--levels K, --oracle for the p=2 check)
  verify         run the property suite and write the report

The config file is JSON; see README for the schema.  The seed is required.
"""


# the top-level keys that some command reads
_SECTIONS = ("seed", "grid", "frac", "out_dir", "function", "weight", "solver", "capacity",
             "lorentz", "concentration", "eigen", "verify")


@contextmanager
def _reading(section: str):
    """Report a missing key or a malformed raw value in a config section as
    a ConfigError; wraps only the code that reads raw config values, so the
    program's own errors keep their traceback.  A ConfigError passes
    unchanged, so a message gets one section prefix however deep the read."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as err:
        raise ConfigError(f"{section}: missing required key {err}") from err
    except (AttributeError, OverflowError, TypeError, ValueError) as err:
        raise ConfigError(f"{section}: malformed value: {err}") from err


def _whole(value) -> int:
    """An integer field's value as an int: a whole number, never a bool, a
    string, NaN or an infinity (3.0 reads as 3)."""
    if not is_whole(value):
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def _refuse_unknown(section: str, spec: dict, known) -> None:
    """A ConfigError naming the keys of ``spec`` that are not in ``known``."""
    if not isinstance(spec, dict):
        raise ValueError(f"expected an object, got {spec!r}")
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ConfigError(f"{section}: unknown keys {unknown}; known: {', '.join(known)}")


def _flag(section: dict, key: str) -> bool:
    """A flag's value: JSON true or false, with an absent key or null false."""
    value = section.get(key)
    if value is not None and not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return bool(value)


@_reading("region")
def _region_from(d: dict):
    kind = d.get("kind")
    if kind == "ball":
        return Ball(tuple(float(c) for c in d["center"]), float(d["radius"]))
    if kind == "halfspace":
        return HalfSpace(_whole(d.get("axis", 0)), float(d.get("threshold", 0.0)),
                         str(d.get("side", "right")))
    raise ConfigError(f"region: unknown region kind {kind!r}")


@_reading("weight spec")
def weight_spec_from(d: dict):
    kind = d.get("kind")
    amp = float(d.get("amplitude", 1.0))
    if kind == "power_law":
        return PowerLaw(float(d.get("alpha", 0.0)), amp)
    if kind == "gaussian":
        center = tuple(float(c) for c in d.get("center", ()))
        return GaussianBump(float(d["sigma"]), center, amp)
    if kind == "indicator":
        return Indicator(_region_from(d["region"]), amp)
    if kind == "difference":
        return Difference(weight_spec_from(d["w1"]), weight_spec_from(d["w2"]))
    if kind == "from_file":
        return FromFile(str(d["path"]))
    raise ConfigError(f"weight spec: unknown weight kind {kind!r}")


@dataclass
class RunConfig:
    seed: int
    grid: Grid
    params: FracParams
    ext_radius: float
    out_dir: str
    raw: dict = field(repr=False, default_factory=dict)

    @staticmethod
    def load(path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path!r}: {err}") from err
        try:
            with _reading("config"):
                seed = _whole(raw["seed"])
                if seed < 0:
                    raise ValueError(f"seed must be at least 0, got {seed}")
                gspec = raw["grid"]
                fspec = raw["frac"]
                grid = build_grid(_whole(gspec["dim"]), float(gspec["half_width"]),
                                  _whole(gspec["cells_per_dim"]))
                params = FracParams(float(fspec["s"]), float(fspec["p"]))
                params.validate_for_dim(grid.dim)
                ext_radius = float(gspec.get("ext_radius", 4.0 * grid.half_width))
                out_dir = str(raw.get("out_dir", "."))
                _refuse_unknown("config", raw, _SECTIONS)
        except DomainError as err:
            raise ConfigError(f"config is inconsistent: {err}") from err
        return RunConfig(seed=seed, grid=grid, params=params,
                         ext_radius=ext_radius, out_dir=out_dir, raw=raw)

    def kernel_table(self) -> KernelTable:
        return build_kernel_table(self.grid, self.params, self.ext_radius)

    def function(self, key: str = "function") -> GridFunction:
        if key not in self.raw:
            raise ConfigError(f"config is missing {key!r}")
        return sample(self.grid, weight_spec_from(self.raw[key]))

    @_reading("solver")
    def capacity_options(self) -> CapacityOptions:
        s = self.raw.get("solver", {})
        return CapacityOptions(
            tol_factor=float(s.get("capacity_tol_factor", 1e-8)),
            max_iter=s.get("max_iter", 20000),  # a whole number, checked there
        )

    @_reading("solver")
    def eigen_options(self) -> eig.EigenOptions:
        s = self.raw.get("solver", {})
        return eig.EigenOptions(
            tol=float(s.get("tol", 1e-6)),
            max_iter=s.get("max_iter", 50000),  # a whole number, checked there
            seed=self.seed,
        )


def _out_path(cfg: RunConfig, out_flag, name: str) -> str:
    base = out_flag or cfg.out_dir
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_seminorm(cfg: RunConfig, out, args) -> int:
    kt = cfg.kernel_table()
    u = cfg.function()
    sn = en.seminorm_p(u, kt)
    fio.write_result_json({"value": sn.value, "interior_part": sn.interior_part,
                           "boundary_part": sn.boundary_part},
                          _out_path(cfg, out, "seminorm.json"))
    return 0


def _cmd_gradient(cfg: RunConfig, out, args) -> int:
    kt = cfg.kernel_table()
    u = cfg.function()
    energy, grad = en.energy_and_nonlocal_gradient(u, kt)
    fio.emit_plot(grad, _out_path(cfg, out, "gradient.svg"))
    fio.write_result_json({"sup": float(np.max(grad.values)), "energy": energy},
                          _out_path(cfg, out, "gradient.json"))
    return 0


def _cmd_rearrange(cfg: RunConfig, out, args) -> int:
    u = cfg.function()
    fstar = rr.decreasing_rearrangement(u)
    fio.write_step_function(rr.maximal_function(fstar),
                            _out_path(cfg, out, "maximal.csv"))
    fio.write_grid_function(rr.schwarz_symmetrization(u),
                            _out_path(cfg, out, "symmetrized.csv"))
    fio.emit_plot(fstar, _out_path(cfg, out, "rearrangement.svg"))
    return 0


def _cmd_lorentz(cfg: RunConfig, out, args) -> int:
    u = cfg.function()
    with _reading("lorentz"):
        spec = cfg.raw.get("lorentz", {})
        p = float(spec.get("p", cfg.grid.dim / cfg.params.sp))
        q_raw = spec.get("q", "inf")
        q = np.inf if q_raw in ("inf", None) else float(q_raw)
    fio.write_result_json({
        "p": p, "q": "inf" if q == np.inf else q,
        "quasi_norm": rr.lorentz_quasi_norm(u, p, q),
        "norm": rr.lorentz_norm(u, p, q),
    }, _out_path(cfg, out, "lorentz.json"))
    return 0


def _cmd_capacity(cfg: RunConfig, out, args) -> int:
    kt = cfg.kernel_table()
    spec = cfg.raw.get("capacity")
    if not spec or "region" not in spec:
        raise ConfigError("capacity requires a config entry capacity.region")
    target = CellSet.from_region(cfg.grid, _region_from(spec["region"]))
    res = capacity_solve(target, kt, cfg.capacity_options())
    fio.write_result_json({"value": res.value, "iterations": res.iterations,
                           "grad_norm": res.grad_norm,
                           "degenerate": res.degenerate},
                          _out_path(cfg, out, "capacity.json"))
    fio.emit_plot(res.minimizer, _out_path(cfg, out, "minimizer.svg"))
    return 0


def _cmd_hardy_norm(cfg: RunConfig, out, args) -> int:
    kt = cfg.kernel_table()
    w = cfg.function("weight")
    res = hardy_norm_estimate(w, kt, cfg.capacity_options())
    with open(_out_path(cfg, out, "hardy_sweep.csv"), "w") as fh:
        fh.write("candidate,ratio\n")
        for label, ratio in res.sweep:
            fh.write(f"{label},{ratio:.17g}\n")
    fio.write_result_json({"estimate": res.value,
                           "argmax_cells": int(res.argmax.size),
                           "skipped_candidates": len(res.skipped),
                           "lower_bound": True},
                          _out_path(cfg, out, "hardy_norm.json"))
    fio.write_grid_function(
        GridFunction(cfg.grid, res.argmax.mask.astype(float)),
        _out_path(cfg, out, "hardy_argmax.csv"))
    return 0


def _cmd_concentration(cfg: RunConfig, out, args) -> int:
    with _reading("concentration"):
        spec = cfg.raw.get("concentration", {})
        _refuse_unknown("concentration", spec, ("diagnostic", "at_infinity", "point", "radii"))
        diagnostic, at_infinity = _flag(spec, "diagnostic"), _flag(spec, "at_infinity")
        # the diagnostic reads no other key, and the profile at infinity no point
        unread = [key for key, given in (("at_infinity", diagnostic and at_infinity),
                                         ("point", (diagnostic or at_infinity) and "point" in spec),
                                         ("radii", diagnostic and "radii" in spec)) if given]
        if unread:
            mode = "diagnostic" if diagnostic else "at_infinity"
            raise ConfigError(f"concentration: keys {unread} are not read when {mode} is true")
        point = tuple(float(c) for c in spec.get("point", (0.0,) * cfg.grid.dim))
        local, outer = _default_radii(cfg.grid)
        radii = [float(r) for r in spec.get("radii", outer if at_infinity else local)]
    kt = cfg.kernel_table()
    w = cfg.function("weight")
    opts = cfg.capacity_options()
    if diagnostic:
        verdict = compactness_diagnostic(w, kt, opts=opts)
        fio.write_result_json({
            "compact_indicating": verdict.compact_indicating,
            "c_star": verdict.c_star,
            "c_infinity": verdict.c_infinity,
            "tolerance": verdict.tolerance,
            "weight_norm_estimate": verdict.weight_norm,
            "points": [list(p) for p in verdict.points],
        }, _out_path(cfg, out, "compactness.json"))
        return 0
    if at_infinity:
        prof = concentration_at_infinity(w, radii, kt, opts)
        name = "concentration_infinity"
    else:
        prof = concentration_at(w, point, radii, kt, opts)
        name = "concentration"
    fio.emit_plot((np.asarray(prof.radii), np.asarray(prof.norm_estimates)),
                  _out_path(cfg, out, name + ".svg"))
    fio.write_result_json({"radii": list(prof.radii),
                           "estimates": list(prof.norm_estimates),
                           "extrapolated_limit": prof.extrapolated_limit},
                          _out_path(cfg, out, name + ".json"))
    return 0


def _cmd_eigen(cfg: RunConfig, out, args) -> int:
    with _reading("eigen"):
        spec = cfg.raw.get("eigen", {})
        _refuse_unknown("eigen", spec, ("levels",))
        levels = args.levels if args.levels is not None else _whole(spec.get("levels", 1))
    kt = cfg.kernel_table()
    w = cfg.function("weight")
    opts = cfg.eigen_options()
    if args.oracle and kt.params.p != 2.0:
        raise DomainError("--oracle requires p = 2")
    seq = eig.eigen_sequence(w, kt, levels, opts)
    payload = {
        "lambdas": [r.lam for r in seq],
        "residuals": [r.residual for r in seq],
        "iterations": [r.iterations for r in seq],
        "constraint_gaps": [r.constraint_gap for r in seq],
        "signs": [eig.sign_structure(r.u) for r in seq],
    }
    if args.oracle:
        oracle = eig.oracle_levels(w, kt, levels)
        payload["oracle_lambdas"] = oracle
        payload["oracle_rel_err"] = [abs(r.lam / lam - 1.0) for r, lam in zip(seq, oracle)]
    fio.write_result_json(payload, _out_path(cfg, out, "eigen.json"))
    for idx, res in enumerate(seq, start=1):
        fio.emit_plot(res.u, _out_path(cfg, out, f"eigen_u{idx}.svg"))
    return 0


def _cmd_verify(cfg: RunConfig, out, args) -> int:
    with _reading("verify"):
        spec = cfg.raw.get("verify", {})
        _refuse_unknown("verify", spec, ("samples", "threads"))
        threads = spec.get("threads")
        vconfig = verify_mod.VerifyConfig(
            seed=cfg.seed,
            dim=cfg.grid.dim,
            cells_per_dim=cfg.grid.cells_per_dim,
            half_width=cfg.grid.half_width,
            ext_radius=cfg.ext_radius,
            s=cfg.params.s,
            p=cfg.params.p,
            samples={str(k): _whole(v) for k, v in spec.get("samples", {}).items()},
            threads=None if threads is None else _whole(threads),
        )
    report = verify_mod.run_suite(vconfig)
    with open(_out_path(cfg, out, "verify_report.json"), "wb") as fh:
        fh.write(report.to_json_bytes())
    with open(_out_path(cfg, out, "verify_report.txt"), "w") as fh:
        fh.write(report.to_text() + "\n")
    print(report.to_text())
    return 0


_COMMANDS = {
    "seminorm": _cmd_seminorm,
    "gradient": _cmd_gradient,
    "rearrange": _cmd_rearrange,
    "lorentz": _cmd_lorentz,
    "capacity": _cmd_capacity,
    "hardy-norm": _cmd_hardy_norm,
    "concentration": _cmd_concentration,
    "eigen": _cmd_eigen,
    "verify": _cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def dispatch(argv) -> int:
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE, file=sys.stderr)
        return 64
    command, rest = argv[0], argv[1:]
    handler = _COMMANDS.get(command)
    if handler is None:
        print(f"unknown command {command!r}\n\n{USAGE}", file=sys.stderr)
        return 64

    parser = _Parser(prog=f"fracvar {command}", add_help=False)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    if command == "eigen":
        parser.add_argument("--levels", type=int, default=None)
        parser.add_argument("--oracle", action="store_true")
    try:
        args = parser.parse_args(rest)
    except ConfigError as err:
        print(f"usage error: {err}\n\n{USAGE}", file=sys.stderr)
        return 64

    try:
        cfg = RunConfig.load(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 65
    try:
        return handler(cfg, args.out, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 65
    except DomainError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 1
    except ConvergenceError as err:
        print(f"convergence failure: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
