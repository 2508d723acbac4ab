"""The suite's map.

Every map runs serially, in input order: a thread pool lost to one worker
at every size measured, because the checks hold the interpreter lock for
most of their time.  ``workers`` is the worker count a caller asked for;
results are identical for any value of it.
"""

from __future__ import annotations

from typing import Callable, Sequence


def ordered_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """Map preserving input order, serially for any ``workers``."""
    return [fn(x) for x in items]
