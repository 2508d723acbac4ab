"""Record the outputs the workloads' gates compare against.

    python3 perfbench/record_references.py

Runs every workload at both sizes once per jitter level (the gated outputs
depend on the seed only through the jitter) and writes
``perfbench/references.json``.
The references belong to the commit they were recorded from: record them
again only for a change that is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from run import WORK_ROOT, run_child
import workloads

KEEP = {
    "line_eigen": ("oracle_lambdas",),
    "plane_concentration": ("compact_indicating", "c_star", "c_infinity", "weight_norm"),
    "plane_gradient": ("energy", "sup"),
}


def record(size: str, tmp_dir: str) -> dict:
    refs = {}
    for name in workloads.WORKLOADS:
        keys = ["all"] if name == "verify_suite" else [
            str(level) for level in range(workloads.JITTER_LEVELS)]
        refs[name] = {}
        for key in keys:
            jitter = 0 if key == "all" else int(key)
            work = os.path.join(tmp_dir, f"{size}-{name}-{key}")
            run_child(name, size, 42, jitter, 0, work, timeout=600)
            out = workloads.outputs(name, os.path.join(work, "out"))
            if name == "verify_suite":
                refs[name][key] = {"check_names": [c[0] for c in out["checks"]]}
            else:
                refs[name][key] = {k: out[k] for k in KEEP[name]}
            print(size, name, key, refs[name][key], flush=True)
    return refs


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    os.makedirs(WORK_ROOT, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="references-", dir=WORK_ROOT)
    try:
        refs = {size: record(size, tmp_dir) for size in ("nominal", "tiny")}
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
