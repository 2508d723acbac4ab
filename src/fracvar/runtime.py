"""Worker-count control.

The environment variable FRACSPEC_THREADS caps the worker count requested
for embarrassingly parallel sweeps.  Every map runs serially, in input
order: a thread pool lost to one worker at every size measured, because
the checks hold the interpreter lock for most of their time.  The count is
kept as the API's statement of intent, and results are identical for any
value of it.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence


def thread_count(requested: int | None = None) -> int:
    cap = os.environ.get("FRACSPEC_THREADS")
    n = requested if requested is not None else 1
    if cap is not None:
        try:
            n = min(n, max(1, int(cap))) if requested is not None else max(1, int(cap))
        except ValueError:
            pass
    return max(1, n)


def ordered_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """Map preserving input order, serially for any ``workers``."""
    return [fn(x) for x in items]
