import numpy as np

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
        return g, float(np.linalg.norm(g)) <= tol
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
    # below tolerance 1e-12 the gradient test never passes, and every step
    # leaves f unchanged; the descent stops after 20 such steps, not 1000
    _x, fx, _aux, status, its = spectral_descent(X0, f(X0), None, direction(1e-12),
                                                 trial, 1000)
    assert status == "stalled"
    assert its < 1000
    assert abs(fx - f(np.linalg.solve(A, B))) < 1e-14
