"""Run the full property suite and print the report.

Every registered check draws seeded inputs and reports its worst margin
against its tolerance.  The checks run serially, and the emitted report
is byte-identical for any ``threads`` value in its config.

Run:  python3 demos/property_suite.py
"""

import os

import fracvar.checks as chk

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

config = chk.VerifyConfig(seed=42)
report = chk.run_suite(config)
print(report.to_text())

path = os.path.join(OUT, "verify_report.json")
with open(path, "wb") as fh:
    fh.write(report.to_json_bytes())
print(f"\nfull report written to {path}")
