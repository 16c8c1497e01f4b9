"""Central finite-difference stencils, the derivative oracles of the tests.

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

from pilotwave.fields import PolarField

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


def polar_field(rho, S, *, drho=None, d2rho=None, dS=None, d2S=None) -> PolarField:
    """A PolarField of rho and S, each derivative not given filled by central differences."""
    return PolarField(
        rho=rho,
        S=S,
        drho=drho if drho is not None else (lambda x: jacobian(rho, x)),
        d2rho=d2rho if d2rho is not None else (lambda x: hessian(rho, x)),
        dS=dS if dS is not None else (lambda x: jacobian(S, x)),
        d2S=d2S if d2S is not None else (lambda x: hessian(S, x)),
    )
