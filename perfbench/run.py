"""fracvar benchmark: one workload, run in fresh processes for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size nominal|tiny]

Run from the root of a checkout; the program is imported from ``src/``.
The loop is closed, with one client: each process runs the workload once
(see ``child.py``), and the next one starts when it has ended.  A run
starts ``workloads.process_count`` processes, as many as fit in
``--seconds`` at the workload's nominal time per process; the count
depends on the arguments only, so a seed always gives the same inputs and
the same operations, however fast the host is.  Process k gets its seed
and weight shift from ``workloads.child_inputs(N, k)``; process 0 uses N
itself.
Averaging over several seeds and shifts in one run keeps the run's
medians steady, because both change the solvers' iteration counts.

Each process gets BLAS pinned to one thread and ``FRACSPEC_THREADS``
unset (``verify_suite`` asks for its two workers in its config), and
writes its outputs to its own directory under ``perfbench/_work``,
removed at the end.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (median over the processes): ``wall_s``,
``setup_s`` and ``peak_rss_mb``.  Failed and attempted operations are its
``failed`` and ``attempted`` counts; their ratio, ``failed_ops_frac``, is
printed above it.  With ``--trace 1`` processes alternate untraced and
traced on the same seed, the JSON holds the per-layer metrics of the
traced ones (see ``tracer.py``) and ``trace.overhead_frac``, and the report
above it gives every layer's self time as a share of ``wall_s``.

Exit code 0 with a result, 2 for bad usage or a checkout without
``src/fracvar``, 1 if a process could not run the workload at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(HERE, "_work")
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever its processes do

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _load_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("FRACSPEC_THREADS", None)
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, size: str, seed: int, jitter: int, trace: int, work: str,
              timeout: float, import_only: bool = False) -> dict:
    """Run one process of the workload; return what it measured."""
    os.makedirs(work)
    result = os.path.join(work, "result.json")
    log = os.path.join(work, "stderr.txt")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--jitter", str(jitter), "--size", size,
           "--trace", str(trace),
           "--work", work, "--result", result]
    if import_only:
        cmd.append("--import-only")
    with open(log, "w") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                                  stdin=subprocess.DEVNULL, stdout=err, stderr=err,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"seed {seed}: no result within {timeout:.0f} s") from exc
    if proc.returncode != 0 or (not import_only and not os.path.exists(result)):
        with open(log) as fh:
            tail = fh.read()[-4000:]
        raise ChildFailed(f"seed {seed}: exit code {proc.returncode}\n{tail}")
    if import_only:
        return {}
    with open(log) as fh:
        crash = fh.read()
    if crash.strip():
        print(f"process stderr (seed {seed}):\n{crash[-2000:]}", file=sys.stderr)
    with open(result) as fh:
        return json.load(fh)


def _measure(args, tmp_dir: str) -> list:
    """Child results, in pairs (untraced, traced) when tracing."""
    modes = (0, 1) if args.trace else (0,)
    limit = time.perf_counter() + RUN_LIMIT_S
    run_child(args.workload, args.size, args.seed, 0, 0, os.path.join(tmp_dir, "warmup"),
              RUN_LIMIT_S, import_only=True)
    count = workloads.process_count(args.workload, args.size, args.seconds)
    units = []
    # a traced run spends its time on pairs of processes
    for k in range(max(1, count // len(modes))):
        seed, jitter = workloads.child_inputs(args.seed, k)
        units.append([run_child(args.workload, args.size, seed, jitter, mode,
                                os.path.join(tmp_dir, f"p{k}-t{mode}"),
                                max(1.0, limit - time.perf_counter()))
                      for mode in modes])
    return units


def _report_untraced(args, runs: list) -> dict:
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"processes {len(runs)}")
    print(f"{'seed':>12} {'jitter':>6} {'setup_s':>9} {'wall_s':>9} {'peak_rss_mb':>12} "
          f"{'ops':>6} {'failed':>6}")
    for r in runs:
        print(f"{r['seed']:>12} {r['jitter']:>6} {r['setup_s']:>9.4f} "
              f"{r['wall_s']:>9.4f} {r['peak_rss_mb']:>12.1f} {r['attempted']:>6} "
              f"{r['failed']:>6}  {' '.join(r['failed_ops'])}")
    metrics = {}
    for name, unit in END_TO_END.items():
        metrics[name] = {"value": statistics.median(r[name] for r in runs), "unit": unit}
        print(f"{name:<16} {metrics[name]['value']:.6g} {unit} (median of {len(runs)})")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"failed_ops_frac  {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    return metrics


def _report_traced(args, pairs: list) -> dict:
    units = _load_units()
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    wall = statistics.median(r["wall_s"] for r in plain)
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"traced processes {len(traced)}")
    print(f"untraced wall_s {wall:.6g} s, traced {wall_traced:.6g} s")
    print(f"{'layer':<10} {'self_s':>9} {'share of wall_s':>16} {'main thread':>12}")
    share_all = share_main = 0.0
    for layer in LAYERS:
        share = statistics.median(r["layers"][f"share.{layer}"] for r in traced)
        main = statistics.median(r["main_thread_shares"][layer] for r in traced)
        share_all += share
        share_main += main
        print(f"{layer:<10} {share * wall_traced:>9.4f} {share:>16.4f} {main:>12.4f}")
    print(f"{'sum':<10} {'':>9} {share_all:>16.4f} {share_main:>12.4f}  "
          "(main thread sums to 1; pool threads add their busy time)")
    metrics = {}
    absent = []
    for name, unit in units.items():
        if name == "trace.overhead_frac":
            value = wall_traced / wall - 1.0
        else:
            values = [r["layers"].get(name) for r in traced]
            if any(v is None for v in values):
                absent.append(name)
                values = [0.0]
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:.6g} {m['unit']}")
    if absent:
        print("absent (traced function no longer exists, reported as 0): " + ", ".join(absent))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("nominal", "tiny"), default="nominal")
    args = ap.parse_args(argv)
    # a terminated run still kills and waits for its process (subprocess.run does)
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "fracvar", "__init__.py")):
        print(f"no fracvar sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        units = _measure(args, tmp_dir)
    except ChildFailed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    runs = [r for unit in units for r in unit]
    if args.trace:
        metrics = _report_traced(args, units)
    else:
        metrics = _report_untraced(args, runs)
    summary = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
