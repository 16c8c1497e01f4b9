"""Central finite-difference stencils used as fallback derivative providers.

``jacobian`` and ``hessian`` take a plain step.  The default steps balance
truncation against double-precision round-off: H_FIRST = 1e-5 for first
derivatives, H_SECOND = 1e-4 for second derivatives.
"""
from __future__ import annotations

import numpy as np

H_FIRST = 1e-5
H_SECOND = 1e-4


def jacobian(f, x, h=H_FIRST):
    """Stack of coordinate partials of a scalar or array-valued function.

    Central two-point rule per axis; returns shape (D,) + f(x).shape with
    out[m] = d_m f.
    """
    x = np.asarray(x, dtype=float)
    parts = []
    for m in range(x.size):
        xp = np.array(x)
        xm = np.array(x)
        xp[m] += h
        xm[m] -= h
        parts.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h))
    return np.stack(parts, axis=0)


def derivative_or_fd(f, df, x):
    """df(x) when an analytic derivative df is supplied, else jacobian(f, x)."""
    return np.asarray(df(x), dtype=float) if df is not None else jacobian(f, x)


def hessian(f, x, h=H_SECOND):
    """Symmetric second-derivative matrix of a scalar function.

    The mixed-partial stencil is symmetric in the two directions by
    construction, so the returned matrix is exactly symmetric.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    f0 = f(x)
    out = np.empty((d, d), dtype=np.result_type(np.asarray(f0).dtype, float))
    for i in range(d):
        xp = np.array(x)
        xm = np.array(x)
        xp[i] += h
        xm[i] -= h
        out[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / h**2
    for i in range(d):
        for j in range(i + 1, d):
            xpp = np.array(x)
            xpm = np.array(x)
            xmp = np.array(x)
            xmm = np.array(x)
            xpp[[i, j]] += h
            xmm[[i, j]] -= h
            xpm[i] += h
            xpm[j] -= h
            xmp[i] -= h
            xmp[j] += h
            val = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * h**2)
            out[i, j] = val
            out[j, i] = val
    return out
