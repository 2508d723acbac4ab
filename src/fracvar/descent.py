"""Spectral-gradient descent, the one optimizer of the capacity and eigen solves.

Barzilai-Borwein steps with the nonmonotone Armijo backtracking of Grippo,
Lampariello & Lucidi (SIAM J. Numer. Anal. 23, 1986): a trial is measured
against the largest of the last ``_WINDOW`` accepted values of f, not
against the current one, so a BB step that briefly raises f is kept.  This
is the spectral projected-gradient method of Birgin, Martinez & Raydan
(SIAM J. Optim. 10, 2000).  The caller's trial map projects or retracts
each step.
"""

from __future__ import annotations

import math
import numbers
from collections import deque

from .errors import DomainError

_WINDOW = 10  # accepted values of f that the Armijo test takes its reference from
# accepted steps in a row without a new minimum.  Most converging descents
# take <= 7, but not all: the first eigenpairs of the Hardy weight |x|^(-sp)
# on line n = 64 at (s, p) = (0.2, 4), (0.2, 5) and (0.15, 6) still oscillate
# when the rule fires, and stall at residuals 1.0e-7, 0.205 and 0.143 (tol 1e-8)
_FLAT_STEPS = 20
_FLAT_ULPS = 16  # a new minimum lies this many ulps of the old one below it


def is_whole(value) -> bool:
    """Whether value is a whole number; a bool, a string, NaN and the
    infinities are not."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value) and value == int(value))


def whole_at_least(value, least: int, name: str) -> int:
    """``value`` as an int, or a DomainError naming it unless whole and at
    least ``least``."""
    if not is_whole(value) or value < least:
        raise DomainError(f"{name} must be a whole number at least {least}, got {value!r}")
    return int(value)


def spectral_descent(x, f: float, aux, direction, trial, max_iter: int) -> tuple:
    """Descend from x, whose objective is f, along -d for (d, done, step) =
    direction(x, f, aux), until done.

    A ``step`` is the first trial step of a direction that brings its own,
    such as a Newton step's 1.  None marks d as the gradient, whose first
    trial is the BB step s's / s'y from the last pair of gradients, twice
    the last accepted step when s'y <= 0, and the last accepted step (1 at
    first) before the first pair, clipped to [1e-16, 1e8].  A direction
    with its own step makes no pair.
    ``trial(x, d, t)`` returns (cand, f_cand, decrease, aux), or None to
    reject the step t.  A trial is accepted when f_cand <= max(last
    ``_WINDOW`` accepted f) + 1e-4 * decrease, the start counting as
    accepted, halving t up to 70 times.

    Returns (x, f, aux, status, iterations) of the last accepted point, with
    status "converged", "stalled" or "exhausted"; ``iterations`` counts the
    accepted steps, plus the failed one when stalled.  It stalls when no
    trial passes, or at the roundoff floor: after ``_FLAT_STEPS`` accepted
    steps in a row, none of which lowers the least f so far by more than
    ``_FLAT_ULPS`` ulps of it.  Without the margin, p = 1.5 capacities that
    miss their tolerance keep finding minima an ulp lower and run out their
    whole budget.
    """
    step, prev, flat = 1.0, None, 0
    recent, best = deque([f], maxlen=_WINDOW), f
    for it in range(1, max_iter + 1):
        d, done, t = direction(x, f, aux)
        if done:
            return x, f, aux, "converged", it - 1
        if t is None:
            if prev is not None:
                s = x - prev[0]
                sy = float(s @ (d - prev[1]))
                step = float(s @ s) / sy if sy > 0 else min(step * 2.0, 1e8)
            step = t = min(max(step, 1e-16), 1e8)
            prev = (x, d)
        reference = max(recent)
        for _ in range(70):
            out = trial(x, d, t)
            if out is not None and out[1] <= reference + 1e-4 * out[2]:
                break
            t *= 0.5
        else:
            return x, f, aux, "stalled", it
        x, f, _decrease, aux = out
        recent.append(f)
        flat = 0 if f < best - _FLAT_ULPS * math.ulp(best) else flat + 1
        best = min(best, f)
        if flat == _FLAT_STEPS:
            return x, f, aux, "stalled", it
        step = t
    return x, f, aux, "exhausted", max_iter
