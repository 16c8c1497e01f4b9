import numpy as np
import pytest

from pilotwave.errors import StepFailure
from pilotwave.integrators import hermite, integrate_adaptive, rk45_step
from oracles import integrate_fixed
from oracles import rk4_fixed


def test_exact_on_constant_velocity():
    f = lambda t, y: np.array([1.0, -2.0])
    out = integrate_adaptive(f, 0.0, np.zeros(2), [0.0, 3.0, 7.0])
    assert np.allclose(out[-1], [7.0, -14.0], atol=1e-12)


def test_exponential_decay_accuracy():
    f = lambda t, y: -y
    out = integrate_adaptive(f, 0.0, np.array([1.0]), np.linspace(0, 5, 11),
                             rtol=1e-10, atol=1e-13)
    expect = np.exp(-np.linspace(0, 5, 11))
    assert np.max(np.abs(out[:, 0] - expect)) < 1e-9


def test_output_points_hit_exactly():
    f = lambda t, y: np.array([np.cos(t)])
    t_out = np.array([0.0, 0.37, 1.114, 2.0])
    out = integrate_adaptive(f, 0.0, np.zeros(1), t_out, rtol=1e-11, atol=1e-14)
    assert np.max(np.abs(out[:, 0] - np.sin(t_out))) < 1e-10


def test_fixed_step_order_is_five():
    # nonlinear scalar problem with a smooth solution
    f = lambda t, y: np.array([np.sin(t) * y[0] + 0.1 * y[0] ** 2])
    y0 = np.array([0.7])
    ref = rk4_fixed(f, 0.0, y0, 2.0, 40000)
    errs = []
    for steps in (40, 80):
        val = integrate_fixed(f, 0.0, y0, 2.0, steps)
        errs.append(abs(val[0] - ref[0]))
    slope = np.log2(errs[0] / errs[1])
    assert abs(slope - 5.0) <= 0.5


def test_rk45_step_error_estimate_scales():
    f = lambda t, y: np.array([y[0] * np.cos(t)])
    y0 = np.array([1.0])
    _, err1, _ = rk45_step(f, 0.0, y0, 0.1)
    _, err2, _ = rk45_step(f, 0.0, y0, 0.05)
    # local error estimate is O(h^5)
    ratio = abs(err1[0]) / abs(err2[0])
    assert 20 < ratio < 45


def test_step_failure_on_budget_exhaustion():
    f = lambda t, y: np.array([1.0 / (1.0 - t + 1e-16)])
    with pytest.raises(StepFailure):
        integrate_adaptive(f, 0.0, np.zeros(1), [0.0, 2.0], max_steps=50)


def _recording(f):
    """f plus the list of times it was evaluated at."""
    times = []

    def wrapped(t, y):
        times.append(t)
        return f(t, y)
    return wrapped, times


def test_trial_steps_stay_inside_output_span():
    f, times = _recording(lambda t, y: np.array([np.cos(3.0 * t) * y[0], -y[1]]))
    t0, t_out = 0.2, np.array([0.2, 0.57, 1.3, 2.0])
    integrate_adaptive(f, t0, np.array([1.0, 2.0]), t_out)
    assert max(times) <= t_out[-1]


def test_step_callback_gets_both_ends_of_each_accepted_step():
    f = lambda t, y: np.array([np.cos(3.0 * t) * y[0], -y[1]])
    exact = lambda t: np.array([np.exp(np.sin(3.0 * t) / 3.0), 2.0 * np.exp(-t)])
    steps = []
    t_out = np.array([0.0, 0.57, 1.3, 2.0])
    out = integrate_adaptive(f, 0.0, exact(0.0), t_out, rtol=1e-10, atol=1e-13,
                             step_callback=lambda *step: steps.append(step))
    assert steps[0][0] == 0.0 and steps[-1][3] == 2.0
    for (t0, y0, k0, t1, y1, k1), nxt in zip(steps, steps[1:] + [None]):
        assert np.allclose(k0, f(t0, y0), rtol=1e-14, atol=0.0)
        assert np.allclose(k1, f(t1, y1), rtol=1e-14, atol=0.0)
        if nxt is not None:
            assert nxt[0] == t1 and np.array_equal(nxt[1], y1)
        mid = hermite(t0, y0, k0, t1, y1, k1, [0.5 * (t0 + t1), t1])
        assert np.array_equal(mid[1], y1)
        assert np.max(np.abs(mid[0] - exact(0.5 * (t0 + t1)))) < 1e-5
    assert np.array_equal(out[1:], [s[4] for s in steps if s[3] in t_out])


def test_hermite_is_exact_on_cubics():
    p = lambda t: np.array([t**3 - 2.0 * t, 0.5 * t**2 + 1.0])
    dp = lambda t: np.array([3.0 * t**2 - 2.0, t])
    t0, t1 = 0.3, 1.1
    t = np.linspace(t0, t1, 9)
    got = hermite(t0, p(t0), dp(t0), t1, p(t1), dp(t1), t)
    assert np.allclose(got, np.array([p(v) for v in t]), rtol=0.0, atol=1e-14)


# Dormand & Prince (1980), one list per stage, as printed
_DP_A = [[], [1 / 5], [3 / 40, 9 / 40], [44 / 45, -56 / 15, 32 / 9],
         [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
         [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
         [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]]
_DP_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
_DP_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
_DP_B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]


def _per_stage_step(f, t, y, h):
    k = [f(t, y)]
    for a, c in zip(_DP_A[1:], _DP_C[1:]):
        k.append(f(t + c * h, y + h * sum(aj * kj for aj, kj in zip(a, k))))
    y5 = y + h * sum(b * kj for b, kj in zip(_DP_B5, k))
    err = h * sum((b5 - b4) * kj for b5, b4, kj in zip(_DP_B5, _DP_B4, k))
    return y5, err, k[-1], np.max(np.abs(k))


def test_stacked_tableau_matches_per_stage_loop():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m, b, c = rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal(size=3)
        f = lambda t, y: m @ y + b + c * t
        t, y, h = rng.uniform(-1, 1), rng.normal(size=3), rng.uniform(0.01, 0.5)
        y5, err, k7 = rk45_step(f, t, y, h)
        ref_y5, ref_err, ref_k7, kmax = _per_stage_step(f, t, y, h)
        assert np.all(np.abs(y5 - ref_y5) <= 1e-14 * np.maximum(1.0, np.abs(ref_y5)))
        assert np.all(np.abs(k7 - ref_k7) <= 1e-14 * np.maximum(1.0, np.abs(ref_k7)))
        assert np.all(np.abs(err - ref_err) <= 1e-14 * h * kmax)
