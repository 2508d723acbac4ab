"""Run one workload once, in this fresh process, and write what it measured.

    python3 perfbench/child.py --workload NAME --seed N --jitter J \
        --size nominal|tiny --trace 0|1 --work DIR --result FILE

The set-up timer covers the import of ``fracvar`` (numpy and scipy
included) and the writing of the workload's inputs; the wall timer covers
the ``fracvar.cli.dispatch`` call, kernel-table build included.  With
``--import-only`` the process imports ``fracvar`` and exits, which fills
the bytecode and page caches before the first timed process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import sys
import time
import traceback
import warnings

import workloads
from tracer import Tracer, count_calls

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SKIP_WARNING = re.compile(r"candidate .* skipped")


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jitter", type=int, required=True)
    ap.add_argument("--size", default="nominal")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args()

    # the checkout's sources, never an installed copy
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import fracvar
    import fracvar.cli
    if not os.path.abspath(fracvar.__file__).startswith(SRC + os.sep):
        print(f"fracvar imported from {fracvar.__file__}, not {SRC}", file=sys.stderr)
        return 3
    if args.import_only:
        return 0
    argv = workloads.make_inputs(args.workload, args.seed, args.jitter, args.size,
                                 args.work)
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    solves, restore = count_calls("fracvar.capacity", "capacity")
    crashed = None
    sink = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(sink):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            # looked up now, so that the tracer's wrapper is the one called
            rc = sys.modules["fracvar.cli"].dispatch(argv)
        except Exception:  # the program failed; the run records it as a failed op
            crashed = traceback.format_exc()
            rc = None
        wall_s = time.perf_counter() - start
    restore()
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if crashed:
        print(crashed, file=sys.stderr)

    # every capacity solve is an operation; a candidate skipped with a warning failed
    skipped = sum(1 for w in caught if SKIP_WARNING.search(str(w.message)))
    ops = [("command", rc == 0, True)]
    if rc == 0:
        refs = workloads.load_references().get(args.size, {}).get(args.workload, {})
        ref = refs.get(workloads.reference_key(args.workload, args.jitter))
        try:
            ops += workloads.gate(args.workload, args.size, os.path.join(args.work, "out"),
                                  ref)
        except (OSError, KeyError, ValueError, TypeError) as err:
            ops.append((f"outputs unreadable: {err!r}", False, True))
    failed = [name for name, ok, _ in ops if not ok]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "jitter": args.jitter,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "exit_code": rc,
        "attempted": len(ops) + solves[0],
        "failed": len(failed) + skipped,
        "failed_ops": failed + ([f"capacity candidates skipped: {skipped}"] if skipped else []),
        "correct": all(ok for _name, ok, is_ref in ops if is_ref),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s, skipped,
                                          _dir_bytes(os.path.join(args.work, "out")))
        result["main_thread_shares"] = tracer.main_thread_shares(wall_s)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
