import numpy as np
import pytest

import fracvar.descent as descent_mod
from fracvar.descent import spectral_descent

# f(x) = x'Ax / 2 - b'x, strictly convex with its minimum at A^-1 b
A = np.diag([1.0, 3.0, 10.0])
B = np.array([1.0, -2.0, 0.5])
X0 = np.zeros(3)


def f(x):
    return 0.5 * float(x @ A @ x) - float(B @ x)


def direction(tol):
    def direction(x, _f, _aux):
        g = A @ x - B
        return g, float(np.linalg.norm(g)) <= tol, None
    return direction


def trial(x, g, t):
    cand = x - t * g
    return cand, f(cand), -t * float(g @ g), None


def test_converges_to_the_minimizer():
    x, fx, _aux, status, its = spectral_descent(X0, f(X0), None, direction(1e-6),
                                                trial, 1000)
    assert status == "converged"
    assert 0 < its < 1000
    np.testing.assert_allclose(x, np.linalg.solve(A, B), rtol=0, atol=1e-6)
    assert fx == f(x)


def test_exhausts_the_iteration_budget():
    _x, fx, _aux, status, its = spectral_descent(X0, f(X0), None, direction(0.0),
                                                 trial, 3)
    assert status == "exhausted"
    assert its == 3
    assert fx < f(X0)


def test_stalls_when_every_trial_is_rejected():
    calls = []

    def reject(x, g, t):
        calls.append(t)
        return None

    x, fx, aux, status, its = spectral_descent(X0, f(X0), "aux", direction(0.0),
                                               reject, 10)
    assert status == "stalled"
    assert its == 1
    assert x is X0 and fx == f(X0) and aux == "aux"
    assert calls == [0.5**k for k in range(70)]


def test_stalls_at_the_roundoff_floor():
    # f = x'Dx / 2 - b'x + 1e8 with D spanning four decades: near its minimum
    # f changes by less than its own rounding, so the gradient test at 1e-12
    # never passes, and the descent stops on f's floor long before the budget
    diag = np.logspace(0, 4, 40)
    b = np.linspace(-1.0, 1.0, 40)

    def floor_f(x):
        return 0.5 * float(x @ (diag * x)) - float(b @ x) + 1e8

    def floor_direction(x, _f, _aux):
        g = diag * x - b
        return g, float(np.linalg.norm(g)) <= 1e-12, None

    def floor_trial(x, g, t):
        cand = x - t * g
        return cand, floor_f(cand), -t * float(g @ g), None

    x0 = np.zeros(40)
    _x, fx, _aux, status, its = spectral_descent(x0, floor_f(x0), None, floor_direction,
                                                 floor_trial, 5000)
    assert status == "stalled"
    assert its < 5000
    assert fx - floor_f(b / diag) <= descent_mod._FLAT_ULPS * np.spacing(1e8)


def scripted(values, calls):
    """A trial map that steps x by -t d and returns the next scripted f, or
    the last one again; the decrease is 0, so the test is f_cand <= reference."""
    def trial(x, d, t):
        calls.append(t)
        return x - t * d, values[min(len(calls), len(values)) - 1], 0.0, None
    return trial


def constant_direction(x, _f, _aux):
    return np.ones_like(x), False, None


def test_accepts_a_rise_below_the_window_maximum():
    # 8 lies above the current f = 5 but below the start's 10, still in the
    # window, so the first trial of the second step is accepted
    calls = []
    x, fx, _aux, status, its = spectral_descent(np.zeros(1), 10.0, None, constant_direction,
                                                scripted([5.0, 8.0], calls), 2)
    assert (status, its, fx) == ("exhausted", 2, 8.0)
    assert calls == [1.0, 2.0]  # no halving; s'y = 0 doubles the step
    np.testing.assert_array_equal(x, [-3.0])


@pytest.mark.parametrize("steps_at_one, status", [(descent_mod._WINDOW - 1, "exhausted"),
                                                  (descent_mod._WINDOW, "stalled")])
def test_the_reference_is_the_maximum_of_the_last_accepted_values(steps_at_one, status):
    # after steps at f = 1, a trial at 5 passes while the start's 10 is among
    # the last _WINDOW accepted values, and every halving of it fails after
    calls = []
    values = [1.0] * steps_at_one + [5.0]
    _x, fx, _aux, got, its = spectral_descent(np.zeros(1), 10.0, None, constant_direction,
                                              scripted(values, calls), steps_at_one + 1)
    assert (got, its) == (status, steps_at_one + 1)
    assert fx == (5.0 if status == "exhausted" else 1.0)


@pytest.mark.parametrize("ulps, status", [(2, "stalled"), (32, "exhausted")])
def test_stalls_when_the_least_f_creeps_down_by_a_few_ulps(ulps, status):
    # every step lowers f: by 2 ulps it is the roundoff floor, and the descent
    # stalls after _FLAT_STEPS steps; by 32 ulps it is progress
    budget = 2 * descent_mod._FLAT_STEPS
    values = [1.5 - k * ulps * np.spacing(1.5) for k in range(1, budget + 1)]
    calls = []
    _x, fx, _aux, got, its = spectral_descent(np.zeros(1), 1.5, None, constant_direction,
                                              scripted(values, calls), budget)
    assert got == status
    assert its == (descent_mod._FLAT_STEPS if status == "stalled" else budget)
    assert fx == values[its - 1]


def test_a_direction_s_own_step_is_its_first_trial():
    # the own step 0.25 is the first trial of each iteration, halved when rejected
    calls = []

    def own_step(x, _f, _aux):
        return np.ones_like(x), False, 0.25

    def trial(x, d, t):
        calls.append(t)
        return None if len(calls) == 1 else (x - t * d, 0.0, 0.0, None)

    _x, fx, _aux, status, its = spectral_descent(np.zeros(1), 10.0, None, own_step,
                                                 trial, 2)
    assert (status, its, fx) == ("exhausted", 2, 0.0)
    assert calls == [0.25, 0.125, 0.25]


def test_a_gradient_keeps_the_bb_step_of_the_gradient_pairs():
    # iterations 1 and 3 return gradients, iteration 2 an own step along an
    # arbitrary v: the third BB step comes from the gradients at the points of
    # iterations 1 and 3, and v enters no pair
    v = np.array([1.0, -1.0, 2.0])
    points = []

    def mixed(x, _f, _aux):
        points.append(x)
        if len(points) == 2:
            return v, False, 0.25
        return A @ x - B, False, None

    calls = []
    spectral_descent(X0, f(X0), None, mixed, scripted([-1.0, -2.0, -3.0], calls), 3)
    s = points[2] - points[0]
    sy = float(s @ ((A @ points[2] - B) - (A @ points[0] - B)))
    assert calls == [1.0, 0.25, float(s @ s) / sy]
