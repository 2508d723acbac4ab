"""The benchmark's workloads: inputs made from a seed, and output gates.

Every workload is one ``fracvar`` CLI invocation.  ``make_inputs`` writes
its JSON config (and, for ``plane_concentration``, the weight CSV) into a
work directory and returns the ``dispatch`` argument list; ``gate`` reads
the outputs back and turns every check into an operation that passed or
failed.

A run's seed gives each of its processes two inputs (``child_inputs``):

* a seed for the config's ``seed`` field, which drives the eigen starts of
  ``line_eigen`` and the random streams of ``verify_suite``;
* one of ``JITTER_LEVELS`` shifts of the weight's centre, at distinct
  angles and at distances from the origin of up to ``JITTER_RADIUS``
  cells (under half a cell).  The run's seed picks the first level and
  the processes step through the others, so a run of eight processes
  sees every shift once and runs differ only in the seeds they draw.
  The numeric references are recorded for every shift.

Seeds are never filtered: seed 123 makes the suite's ``gateaux_fd`` check
FAIL, and that shows as a failed operation.

This module imports only the standard library, so that the child's set-up
timer covers the whole import of ``fracvar`` and numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

JITTER_LEVELS = 8
JITTER_RADIUS = 0.4  # in cells

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


@dataclass(frozen=True)
class Workload:
    command: str
    dim: int
    cells: dict           # size name -> cells per axis
    s: float
    p: float
    process_s: dict       # size name -> seconds one process takes, spawn included


# process_s at the nominal sizes was measured on a 2-core x86-64 host
# (Python 3.11, numpy 2.4) and rounded up by 5-10 %; at 28 s,
# plane_concentration runs 8 processes, one per weight shift
WORKLOADS = {
    "line_eigen": Workload("eigen", 1, {"nominal": 768, "tiny": 48}, 0.4, 2.0,
                           {"nominal": 4.3, "tiny": 1.0}),
    "plane_concentration": Workload("concentration", 2, {"nominal": 12, "tiny": 6}, 0.3, 3.0,
                                    {"nominal": 3.4, "tiny": 1.0}),
    "plane_gradient": Workload("gradient", 2, {"nominal": 36, "tiny": 8}, 0.5, 3.0,
                               {"nominal": 2.45, "tiny": 1.0}),
    "verify_suite": Workload("verify", 1, {"nominal": 64, "tiny": 16}, 0.4, 2.0,
                             {"nominal": 2.7, "tiny": 1.0}),
}

# the suite's worker count, from its config; FRACSPEC_THREADS stays unset,
# because it would also give every nested candidate sweep a pool of its own
SUITE_THREADS = 2

EXPECTED_SIGNS = ["nonnegative", "sign_changing"]
ORACLE_TOL = 1e-6         # relative error of each eigen level against the dense oracle
ORACLE_REF_TOL = 1e-9     # dense oracle eigenvalues against the recorded ones
CONCENTRATION_TOL = 1e-6
GRADIENT_TOL = 1e-9


def process_count(name: str, size: str, seconds: float) -> int:
    """Processes in a run of ``seconds``: fixed by the arguments, never by
    how fast the host is, so that two runs with one seed run the same
    inputs and attempt the same operations."""
    return max(1, int(seconds / WORKLOADS[name].process_s[size]))


def child_inputs(seed: int, k: int) -> tuple[int, int]:
    """(seed, jitter level) of the k-th process of a run.

    Process 0 runs the run's own seed; the later ones run seeds derived
    from it.
    """
    digest = hashlib.sha256(str(int(seed)).encode()).digest()
    jitter = (digest[0] + k) % JITTER_LEVELS
    if k == 0:
        return int(seed), jitter
    digest = hashlib.sha256(f"{int(seed)}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2**31, jitter


def jitter_offset(level: int, dim: int, spacing: float) -> list[float]:
    # distinct radii, so that no two shifts are images under a grid symmetry
    angle = 2.0 * math.pi * (level + 0.5) / JITTER_LEVELS
    radius = JITTER_RADIUS * spacing * (level + 1) / JITTER_LEVELS
    return [radius * c for c in (math.cos(angle), math.sin(angle))[:dim]]


def _axis(n: int) -> list[float]:
    """Cell centres of one axis of [-1, 1], as the grid places them."""
    h = 2.0 / n
    return [(k - (n - 1) / 2.0) * h for k in range(n)]


def _write_power_law(path: str, n: int, center: list[float], alpha: float) -> None:
    """|x - center|^-alpha at the plane's cell centres, rows ordered i * n + j."""
    axis = _axis(n)
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for x in axis:
            for y in axis:
                r = math.hypot(x - center[0], y - center[1])
                fh.write(f"{x:.17g},{y:.17g},{r ** -alpha:.17g}\n")


def make_inputs(name: str, seed: int, jitter: int, size: str, workdir: str) -> list[str]:
    """Write the workload's inputs into ``workdir``; return the CLI arguments."""
    wl = WORKLOADS[name]
    n = wl.cells[size]
    shift = jitter_offset(jitter, wl.dim, 2.0 / n)
    out = os.path.join(workdir, "out")
    config = {
        "seed": int(seed),
        "grid": {"dim": wl.dim, "half_width": 1.0, "cells_per_dim": n},
        "frac": {"s": wl.s, "p": wl.p},
    }
    extra: list[str] = []
    if name == "line_eigen":
        config["weight"] = {
            "kind": "difference",
            "w1": {"kind": "gaussian", "sigma": 0.35, "center": shift},
            "w2": {"kind": "indicator", "amplitude": 0.2,
                   "region": {"kind": "ball", "center": [0.45], "radius": 0.25}},
        }
        config["solver"] = {"tol": 1e-8}
        extra = ["--levels", "2", "--oracle"]
    elif name == "plane_concentration":
        weight_csv = os.path.join(workdir, "weight.csv")
        _write_power_law(weight_csv, n, shift, alpha=1.0)
        config["weight"] = {"kind": "from_file", "path": weight_csv}
        config["concentration"] = {"diagnostic": True}
    elif name == "plane_gradient":
        config["function"] = {"kind": "gaussian", "sigma": 0.3, "center": shift}
    elif name == "verify_suite":
        config["verify"] = {"threads": SUITE_THREADS}
        if size == "tiny":
            config["verify"]["samples"] = {"homogeneity": 4, "hardy_littlewood": 4,
                                           "picone": 4, "gateaux_fd": 2,
                                           "polya_szego": 2, "best_constant": 4,
                                           "hardy_ratio": 4, "lorentz_embedding": 3,
                                           "eigen_simplicity": 2,
                                           "q_scale_invariance": 1, "ds_scaling": 1}
    else:
        raise KeyError(name)
    cfg_path = os.path.join(workdir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh, indent=1)
    return [wl.command, "--config", cfg_path, "--out", out, *extra]


def reference_key(name: str, jitter: int) -> str:
    """The gated outputs depend on the jitter, not on the seed; the suite's
    check list depends on neither."""
    return "all" if name == "verify_suite" else str(jitter)


def load_references() -> dict:
    """Recorded references; empty before the first recording, so every
    reference gate fails."""
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as fh:
        return json.load(fh)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def outputs(name: str, outdir: str) -> dict:
    """The values a workload's gates compare, read from its output files."""
    if name == "line_eigen":
        res = _read_json(os.path.join(outdir, "eigen.json"))
        return {"oracle_lambdas": res["oracle_lambdas"],
                "oracle_rel_err": res["oracle_rel_err"], "signs": res["signs"]}
    if name == "plane_concentration":
        res = _read_json(os.path.join(outdir, "compactness.json"))
        return {"compact_indicating": res["compact_indicating"],
                "c_star": res["c_star"], "c_infinity": res["c_infinity"],
                "weight_norm": res["weight_norm_estimate"]}
    if name == "plane_gradient":
        res = _read_json(os.path.join(outdir, "gradient.json"))
        with open(os.path.join(outdir, "gradient.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
        return {"energy": res["energy"], "sup": res["sup"], "csv_rows": rows}
    if name == "verify_suite":
        res = _read_json(os.path.join(outdir, "verify_report.json"))
        return {"checks": [[c["name"], c["passed"]] for c in res["checks"]]}
    raise KeyError(name)


def gate(name: str, size: str, outdir: str, ref: dict | None) -> list[tuple[str, bool, bool]]:
    """(operation, passed, is_reference_gate) for every checked output.

    A reference gate compares an output with a value this commit recorded;
    the other operations are failures the program itself reports (a FAIL
    record of the suite).  A missing reference fails its gate.
    """
    out = outputs(name, outdir)
    ops: list[tuple[str, bool, bool]] = []
    if name == "line_eigen":
        for level, (err, sign) in enumerate(zip(out["oracle_rel_err"], out["signs"]), 1):
            ok = err <= ORACLE_TOL and sign == EXPECTED_SIGNS[level - 1]
            ops.append((f"level{level}", ok, True))
        ops.append(("levels", len(out["signs"]) == len(EXPECTED_SIGNS), True))
        lams = ref["oracle_lambdas"] if ref else None
        ok = bool(lams) and len(lams) == len(out["oracle_lambdas"]) and all(
            _rel(a, b) <= ORACLE_REF_TOL for a, b in zip(out["oracle_lambdas"], lams))
        ops.append(("oracle_lambdas", ok, True))
    elif name == "plane_concentration":
        ops.append(("verdict", ref is not None
                    and out["compact_indicating"] == ref["compact_indicating"], True))
        for key in ("c_star", "c_infinity", "weight_norm"):
            ops.append((key, ref is not None
                        and _rel(out[key], ref[key]) <= CONCENTRATION_TOL, True))
    elif name == "plane_gradient":
        for key in ("energy", "sup"):
            ops.append((key, ref is not None and _rel(out[key], ref[key]) <= GRADIENT_TOL,
                        True))
        n = WORKLOADS[name].cells[size]
        ops.append(("csv_rows", out["csv_rows"] == n ** WORKLOADS[name].dim, True))
    elif name == "verify_suite":
        names = [c[0] for c in out["checks"]]
        ops.append(("records", ref is not None and names == ref["check_names"], True))
        for check, passed in out["checks"]:
            ops.append((f"check:{check}", bool(passed), False))
    return ops
