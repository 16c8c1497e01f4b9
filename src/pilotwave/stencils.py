"""Central finite-difference stencils used as fallback derivative providers.

Default steps balance truncation against double-precision round-off:
1e-5 for first derivatives, 1e-4 for second derivatives.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

H_FIRST = 1e-5
H_SECOND = 1e-4


@dataclass(frozen=True)
class DerivativeStencil:
    """Symmetric central-difference rule of a given derivative order."""

    order: int
    step: float

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError(f"stencil order must be 1 or 2, got {self.order}")
        if not self.step > 0:
            raise ValueError("stencil step must be positive")


DEFAULT_FIRST = DerivativeStencil(order=1, step=H_FIRST)
DEFAULT_SECOND = DerivativeStencil(order=2, step=H_SECOND)


def partial_along(f, x, m, stencil=DEFAULT_FIRST):
    """d f / d x^m by the central two-point rule; f may be array valued."""
    h = stencil.step
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[m] += h
    xm[m] -= h
    return (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)


def jacobian(f, x, stencil=DEFAULT_FIRST):
    """Stack of coordinate partials of a scalar or array-valued function.

    Returns shape (D,) + f(x).shape with out[m] = d_m f.
    """
    x = np.asarray(x, dtype=float)
    parts = [partial_along(f, x, m, stencil) for m in range(x.size)]
    return np.stack(parts, axis=0)


def hessian(f, x, stencil=DEFAULT_SECOND):
    """Symmetric second-derivative matrix of a scalar function.

    The mixed-partial stencil is symmetric in the two directions by
    construction, so the returned matrix is exactly symmetric.
    """
    x = np.asarray(x, dtype=float)
    h = stencil.step
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
