"""Central finite-difference stencils used as fallback derivative providers.

Like every closure of the package, ``jacobian`` and ``hessian`` take one
point (D,) or a batch (..., D).  They stack the shifted copies of the points
along a new axis and evaluate the function once on the whole stack; a value
that lacks the stack's leading axes is a constant and is broadcast over them.

The steps balance truncation against double-precision round-off: H_FIRST =
1e-5 for first derivatives (``jacobian`` takes another step on request),
H_SECOND = 1e-4 for second derivatives.
"""
from __future__ import annotations

import numpy as np

H_FIRST = 1e-5
H_SECOND = 1e-4


def _shifted(f, x, offsets):
    """f at x + each row of offsets, shape (..., len(offsets)) + f's value shape."""
    stack = x[..., None, :] + offsets
    values = np.asarray(f(stack))
    lead = stack.shape[:-1]
    if values.shape[:len(lead)] != lead:
        values = np.broadcast_to(values, lead + values.shape)
    return values


def jacobian(f, x, h=H_FIRST):
    """Stack of coordinate partials of a scalar or array-valued function.

    Central two-point rule per axis; at a point returns shape (D,) + f(x).shape
    with out[m] = d_m f, and for a batch (K, D) the same per row, (K, D, ...).
    """
    x = np.asarray(x, dtype=float)
    step = h * np.eye(x.shape[-1])
    plus, minus = np.split(_shifted(f, x, np.concatenate([step, -step])), 2, axis=x.ndim - 1)
    return (plus - minus) / (2.0 * h)


def derivative_or_fd(f, df, x):
    """df(x) when an analytic derivative df is supplied, else jacobian(f, x)."""
    return np.asarray(df(x), dtype=float) if df is not None else jacobian(f, x)


def hessian(f, x):
    """Symmetric second-derivative matrix of a scalar function, step H_SECOND.

    The mixed-partial stencil is symmetric in the two directions by
    construction, so the returned matrix is exactly symmetric.
    """
    h = H_SECOND
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    e = h * np.eye(d)
    i, j = np.triu_indices(d, 1)
    # rows: x, x +- h e_i, then the four corners x (+-) h e_i (+-) h e_j of each pair i < j
    offsets = np.concatenate([np.zeros((1, d)), e, -e,
                              e[i] + e[j], e[i] - e[j], e[j] - e[i], -e[i] - e[j]])
    f0, fp, fm, fpp, fpm, fmp, fmm = np.split(
        _shifted(f, x, offsets), np.cumsum([1, d, d] + [i.size] * 3), axis=-1)
    out = np.empty(x.shape[:-1] + (d, d), dtype=np.result_type(f0.dtype, float))
    out[..., range(d), range(d)] = (fp - 2.0 * f0 + fm) / h**2
    mixed = (fpp - fpm - fmp + fmm) / (4.0 * h**2)
    out[..., i, j] = mixed
    out[..., j, i] = mixed
    return out
