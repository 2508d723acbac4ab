"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Kept out of the repository's test suite (``testpaths`` is ``tests``), so
the suite's time does not grow.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tiny_metrics(fn) -> dict:
    """Per-layer metrics of one call of ``fn`` under the tracer."""
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.metrics(1.0, 0, 0)


def test_benchmark_json_matches_the_harness():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]
             + spec["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    traced = _tiny_metrics(lambda: None)
    assert set(traced) | {"trace.overhead_frac"} == {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    res = _result(_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", "0", "--size", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    # failed operations are the program's (a capacity candidate can stall
    # at this size), so only the reference gates must hold
    assert res["correct"] is True and 0 <= res["failed"] < res["attempted"]
    assert set(res["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert res["metrics"][name]["unit"] == unit
        assert res["metrics"][name]["value"] > 0


def test_a_seed_gives_the_same_operations_on_every_run():
    args = ("--workload", "plane_concentration", "--seed", "7", "--seconds", "2",
            "--trace", "0", "--size", "tiny")
    procs = [_bench(*args) for _ in range(2)]
    first, second = (_result(proc) for proc in procs)
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    count = workloads.process_count("plane_concentration", "tiny", 2)
    assert count == 2 and f"processes {count}" in procs[0].stdout


def test_traced_run_reports_every_layer_of_the_suite():
    proc = _bench("--workload", "verify_suite", "--seed", "7", "--seconds", "1",
                  "--trace", "1", "--size", "tiny")
    res = _result(proc)
    metrics = res["metrics"]
    assert set(metrics) == {m["name"] for m in _spec()["per_layer"]}
    assert "absent" not in proc.stdout
    assert metrics["runtime.workers"]["value"] == 2
    assert metrics["checks.serial_warmup_s"]["value"] > 0
    for name in workloads.load_references()["tiny"]["verify_suite"]["all"]["check_names"]:
        assert metrics[f"checks.{name}.s"]["value"] > 0
    for layer in ("grid", "energy", "rearrange", "capacity", "eigen", "checks", "runtime"):
        assert metrics[f"share.{layer}"]["value"] > 0
    assert "share of wall_s" in proc.stdout


def test_wrapping_reaches_every_binding_and_is_undone():
    import fracvar.capacity  # noqa: F401  (the attribute is the function)
    cap_mod = sys.modules["fracvar.capacity"]
    original = cap_mod.raw_energy
    tracer = Tracer()
    tracer.install()
    try:
        assert cap_mod.raw_energy is not original
        assert cap_mod.raw_energy is sys.modules["fracvar.energy"].raw_energy
        assert sys.modules["fracvar"].capacity is cap_mod.capacity
    finally:
        tracer.uninstall()
    assert cap_mod.raw_energy is original


def test_missing_function_is_reported_absent(monkeypatch):
    import numpy as np
    import fracvar as fv

    energy = sys.modules["fracvar.energy"]
    kt = fv.build_kernel_table(fv.build_grid(1, 1.0, 8), fv.FracParams(0.4, 2.0), 4.0)
    u = fv.GridFunction(kt.grid, np.linspace(0.0, 1.0, 8))
    for name in ("raw_energy", "seminorm_p"):
        monkeypatch.delattr(energy, name)
    metrics = _tiny_metrics(lambda: energy.nonlocal_gradient(u, kt))
    assert metrics["energy.eval.calls"] is None
    assert metrics["energy.grad.calls"] == 0
    assert metrics["share.energy"] > 0


def test_checkout_without_sources_fails_without_a_result():
    work = os.path.join(run.WORK_ROOT, "bare")
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(work, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work)
    try:
        proc = _bench("--workload", "line_eigen", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
