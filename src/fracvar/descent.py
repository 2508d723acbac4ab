"""Spectral-gradient descent, the one optimizer of the capacity and eigen solves.

Barzilai-Borwein steps with monotone Armijo backtracking, after the spectral
projected-gradient method of Birgin, Martinez & Raydan (SIAM J. Optim. 10,
2000).  The caller's trial map projects or retracts each step.
"""

from __future__ import annotations

import numpy as np

_FLAT_STEPS = 20  # accepted steps in a row leaving f unchanged; converging descents take <= 1


def spectral_descent(x, f: float, aux, direction, trial, max_iter: int) -> tuple:
    """Descend from x, whose objective is f, along -direction(x, f, aux)[0].

    ``direction`` returns (d, done); ``trial(x, d, t)`` returns (cand,
    f_cand, decrease, aux), or None to reject the step t.  A trial is
    accepted when f_cand <= f + 1e-4 * decrease, halving t up to 70 times
    from the BB step s's / s'y (1 at first; the last step doubled when
    s'y <= 0), clipped to [1e-16, 1e8].

    Returns (x, f, aux, status, iterations) of the last accepted point, with
    status "converged", "stalled" or "exhausted"; ``iterations`` counts the
    accepted steps, plus the failed one when stalled.  It stalls when no trial
    passes, or when ``_FLAT_STEPS`` steps in a row leave f unchanged (the roundoff floor).
    """
    step, prev, flat = 1.0, None, 0
    for it in range(1, max_iter + 1):
        d, done = direction(x, f, aux)
        if done:
            return x, f, aux, "converged", it - 1
        if prev is not None:
            s = x - prev[0]
            sy = float(s @ (d - prev[1]))
            step = float(s @ s) / sy if sy > 0 else min(step * 2.0, 1e8)
        step = min(max(step, 1e-16), 1e8)
        prev = (x, d)
        t = step
        for _ in range(70):
            out = trial(x, d, t)
            if out is not None and out[1] <= f + 1e-4 * out[2]:
                break
            t *= 0.5
        else:
            return x, f, aux, "stalled", it
        flat = flat + 1 if out[1] == f else 0
        x, f, _decrease, aux = out
        if flat == _FLAT_STEPS:
            return x, f, aux, "stalled", it
        step = t
    return x, f, aux, "exhausted", max_iter
