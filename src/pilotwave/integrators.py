"""Explicit embedded Runge-Kutta integration (Dormand-Prince 5(4)).

The fifth-order solution is propagated; the embedded fourth-order solution
provides the local error estimate for adaptive step control.  The tableau is
stored as matrices, so each stage input and both solutions are one product
with the stacked stage derivatives.  Output points are
hit exactly by clamping the step to each requested time, so no interpolation
error enters sampled trajectories; the first trial step is the whole output
span, clamped the same way.  ``hermite`` evaluates the cubic Hermite
interpolant of one accepted step, which needs no further RHS evaluation
because the derivatives at both ends are the step's k1 and its FSAL k7.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import StepFailure

# Butcher tableau, Dormand & Prince (1980): row i of _A feeds stage i
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = _B5 - _B4

ORDER = 5
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def rk45_step(f, t, y, h, k1=None):
    """One Dormand-Prince step: returns (y5, error_vector, k7).

    k7 equals f at the new point (FSAL), reusable as the next k1.
    """
    k = np.empty((7, y.size))
    k[0] = f(t, y) if k1 is None else k1
    for i in range(1, 7):
        k[i] = f(t + _C[i] * h, y + h * (_A[i, :i] @ k[:i]))
    return y + h * (_B5 @ k), h * (_E @ k), k[6].copy()


def hermite(t0, y0, k0, t1, y1, k1, t) -> np.ndarray:
    """Cubic Hermite interpolant of one step, at the times ``t`` (shape (n,)).

    It matches the states y0, y1 and the derivatives k0, k1 at both ends;
    the result has shape (n, D) and its row at ``t == t1`` is y1 exactly.
    """
    h = t1 - t0
    s = ((np.asarray(t, dtype=float) - t0) / h)[:, None]
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * y0 + s * (1.0 - s) ** 2 * h * k0
            + s**2 * (3.0 - 2.0 * s) * y1 + s**2 * (s - 1.0) * h * k1)


def integrate_adaptive(f, t0, y0, t_out, rtol=1e-9, atol=1e-12,
                       max_steps=1_000_000, step_callback=None, k1=None):
    """Adaptive integration returning the states at every time in t_out.

    ``t_out`` must be increasing and start at or after t0.  The first trial
    step is ``t_out[-1] - t0``, clamped to the first output time; a rejected
    trial shrinks like any other.  The controller is the standard PI-free
    elementary one: accept when the weighted RMS error is at most 1,
    grow/shrink by err^(-1/5) within [0.2, 5].
    ``step_callback(t0, y0, k1, t1, y1, k7)`` runs after every accepted step
    with its two ends and the derivatives there, for node detection on the
    step's ``hermite`` interpolant.  ``k1``, if given, stands for f(t0, y0).
    """
    t_out = np.asarray(t_out, dtype=float)
    y = np.asarray(y0, dtype=float)
    t = float(t0)
    out = np.empty((t_out.size, y.size))
    idx = 0
    if t_out.size and abs(t_out[0] - t) <= 1e-14:
        out[0] = y
        idx = 1
    h = t_out[-1] - t if t_out.size else 0.0
    k1 = np.asarray(f(t, y) if k1 is None else k1, dtype=float)
    n_steps = 0
    while idx < t_out.size:
        if n_steps >= max_steps:
            raise StepFailure(f"gave up after {max_steps} steps at t = {t:.6g}")
        h = min(h, t_out[-1] - t)
        target = t_out[idx]
        clamped = False
        if t + h >= target - 1e-14 * max(1.0, abs(target)):
            h = target - t
            clamped = True
        if h <= 0:
            raise StepFailure(f"step underflow at t = {t:.6g}")
        y_new, err, k7 = rk45_step(f, t, y, h, k1)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        # the RMS as np.mean forms it (a sum, then one division), without its wrapper
        sq = (err / scale) ** 2
        err_norm = math.sqrt(float(np.add.reduce(sq)) / sq.size)
        n_steps += 1
        if err_norm <= 1.0:
            t_new = target if clamped else t + h
            if step_callback is not None:
                step_callback(t, y, k1, t_new, y_new, k7)
            t, y, k1 = t_new, y_new, k7
            if clamped:
                out[idx] = y
                idx += 1
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** (-1.0 / ORDER)))
            h = h * factor
        else:
            h = h * max(_MIN_FACTOR, _SAFETY * err_norm ** (-1.0 / ORDER))
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepFailure(f"error control failed near t = {t:.6g}")
    return out
