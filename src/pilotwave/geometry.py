"""Lorentzian spacetime backgrounds: metric, gauge field, derivatives.

A background packages the covariant metric g_MN, the gauge covector A_M and
the particle parameters (mass, charge).  Everything is a pure function of
the coordinate point, so backgrounds are safe to share between workers.
Signature convention is mostly-plus (-, +, ..., +); units are hbar = c = 1.

``metric_data(bg, x)`` is the geometry bundle every residual reads:
g^{MN}, sqrt(-g) and their gradients, from one checked read of the metric.
``metric_inverse`` and ``volume_element`` give the single objects.

Each of them takes one point (D,) or a batch of points (K, D), and returns
one bundle per batch, not one per point: the closures are read one row at a
time and stacked, then every check and every product runs as one stacked
numpy call over the leading axis.  A check that fails names the first
failing point.  A single point is the K = 1 case of the same code and keeps
its shapes and Python scalar types.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SignatureViolation, SingularMetric
from .stencils import derivative_or_fd

Array = np.ndarray

SYMMETRY_TOL = 1e-12
DET_FLOOR = 1e-14
INVERSE_TOL = 1e-10


def check_point(x, dim: int | None = None) -> Array:
    """Validate a coordinate point and return it as a float array."""
    pt = np.asarray(x, dtype=float)
    if pt.ndim != 1:
        raise ValueError(f"point must be one-dimensional, got shape {pt.shape}")
    if pt.size < 2:
        raise ValueError("points live in spacetime: need at least 2 coordinates")
    if dim is not None and pt.size != dim:
        raise ValueError(f"point has dimension {pt.size}, expected {dim}")
    if not np.isfinite(pt).all():
        raise ValueError(f"non-finite coordinates at point {pt.tolist()}")
    return pt


def check_points(x, dim: int | None = None) -> Array:
    """Validate one point (D,) or a batch of points (K, D); a float array of the same shape."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2:
        return check_point(pts, dim)
    check_point(np.zeros(pts.shape[1]), dim)  # the dimension checks of one point
    bad = ~np.isfinite(pts).all(axis=1)
    raise_at_first(bad, bad, pts, ValueError, "non-finite coordinates")
    return pts


def raise_at_first(flags, values, pts, error, message: str) -> None:
    """Raise ``error`` for the first point of ``pts`` whose flag is set.

    ``flags`` and ``values`` hold one entry per point of ``pts`` (one point
    (D,) or a batch (K, D)); the message is ``message`` formatted with that
    point's value, followed by the point itself.
    """
    if flags is False or flags is np.False_:  # one point that passed: skip the search
        return
    hits = np.flatnonzero(flags)
    if hits.size:
        i = hits[0]
        point = np.reshape(pts, (-1, pts.shape[-1]))[i]
        raise error(f"{message.format(np.ravel(values)[i])} at point {point.tolist()}")


def per_row(fn, pts: Array, dtype=None):
    """fn at one point (D,), or at each row of a batch (K, D) stacked into one array.

    Closures keep their one-point contract; this is the one loop over the
    rows of a batch.  ``dtype`` converts the result when given.
    """
    out = fn(pts) if pts.ndim == 1 else np.array([fn(p) for p in pts])
    return out if dtype is None else np.asarray(out, dtype=dtype)


def point_value(values, pts: Array, kind=float):
    """``kind(values)`` for one point (D,), the array of values for a batch."""
    return kind(values) if pts.ndim == 1 else values


@dataclass(frozen=True)
class BackgroundRel:
    """D-dimensional Lorentzian background with particle parameters.

    ``metric(x)`` returns the covariant components g_MN and ``gauge(x)`` the
    covector A_M.  Analytic derivative closures are optional; when absent,
    central differences are used.  Index convention for the derivative
    arrays: axis 0 is the derivative direction, i.e. ``dmetric(x)[M] =
    d_M g`` and ``dgauge(x)[M, N] = d_M A_N``.  The closures take one point;
    the ``*_at`` methods take one point (D,) or a batch (K, D), reading the
    closures one row at a time and stacking the rows along a leading axis.
    """

    dim: int
    metric: Callable[[Array], Array]
    gauge: Callable[[Array], Array]
    mass: float = 1.0
    charge: float = 0.0
    dmetric: Callable[[Array], Array] | None = None
    dgauge: Callable[[Array], Array] | None = None

    @classmethod
    def minkowski(cls, dim: int = 4, mass: float = 1.0, charge: float = 0.0,
                  gauge: Callable[[Array], Array] | None = None,
                  dgauge: Callable[[Array], Array] | None = None) -> "BackgroundRel":
        eta = np.diag([-1.0] + [1.0] * (dim - 1))
        zero_dg = np.zeros((dim, dim, dim))
        if gauge is None:
            gauge = lambda x: np.zeros(dim)
            dgauge = lambda x: np.zeros((dim, dim))
        return cls(dim=dim, metric=lambda x: eta.copy(), gauge=gauge,
                   mass=mass, charge=charge,
                   dmetric=lambda x: zero_dg.copy(), dgauge=dgauge)

    @classmethod
    def constant(cls, g, A=None, mass: float = 1.0, charge: float = 0.0) -> "BackgroundRel":
        g = np.asarray(g, dtype=float)
        dim = g.shape[0]
        A = np.zeros(dim) if A is None else np.asarray(A, dtype=float)
        zero_dg = np.zeros((dim, dim, dim))
        zero_da = np.zeros((dim, dim))
        return cls(dim=dim, metric=lambda x: g.copy(), gauge=lambda x: A.copy(),
                   mass=mass, charge=charge,
                   dmetric=lambda x: zero_dg.copy(), dgauge=lambda x: zero_da.copy())

    def metric_at(self, x) -> Array:
        pts = check_points(x, self.dim)
        g = per_row(self.metric, pts, float)
        if g.shape != pts.shape[:-1] + (self.dim, self.dim):
            raise ValueError(f"metric has shape {g.shape}, expected "
                             f"{pts.shape[:-1] + (self.dim, self.dim)}")
        asym = np.max(np.abs(g - g.mT), axis=(-2, -1))
        raise_at_first(asym >= SYMMETRY_TOL, asym, pts, ValueError,
                       "metric is not symmetric (max |g - g^T| = {:.3e})")
        return g

    def gauge_at(self, x) -> Array:
        return per_row(self.gauge, check_points(x, self.dim), float)

    def metric_derivative_at(self, x) -> Array:
        """Full derivative stack, shape (..., D, D, D): out[..., M, :, :] = d_M g."""
        return per_row(lambda p: derivative_or_fd(self.metric, self.dmetric, p),
                       check_points(x, self.dim), float)

    def gauge_derivative_at(self, x) -> Array:
        return per_row(lambda p: derivative_or_fd(self.gauge, self.dgauge, p),
                       check_points(x, self.dim), float)


def _checked_inverse(g: Array, pts: Array) -> tuple[Array, Array]:
    """(g^{MN}, det g) at each point after the checks that ``metric_inverse`` documents."""
    det = np.linalg.det(g)
    raise_at_first(np.abs(det) < DET_FLOOR, np.abs(det), pts, SingularMetric,
                   f"|det g| = {{:.3e}} below {DET_FLOOR:.0e}")
    negative = np.sum(np.linalg.eigvalsh(g) < 0.0, axis=-1)
    raise_at_first(negative != 1, negative, pts, SignatureViolation,
                   "metric must have exactly one negative eigenvalue, has {}")
    ginv = np.linalg.inv(g)
    ginv = 0.5 * (ginv + ginv.mT)
    residual = np.max(np.abs(g @ ginv - np.eye(g.shape[-1])), axis=(-2, -1))
    raise_at_first(residual >= INVERSE_TOL, residual, pts, SingularMetric,
                   f"inverse residual {{:.3e}} exceeds {INVERSE_TOL:.0e}")
    return ginv, det


def metric_inverse(bg: BackgroundRel, x) -> Array:
    """Contravariant metric g^{MN} at one point (D, D) or at each point of a batch (K, D, D).

    Raises SingularMetric when |det g| is below the floor (or the inverse
    fails its own residual check) and SignatureViolation when the metric
    does not have exactly one negative eigenvalue, naming the first such point.
    """
    pts = check_points(x, bg.dim)
    return _checked_inverse(bg.metric_at(pts), pts)[0]


def _volume(det, pts: Array):
    raise_at_first(det >= 0.0, det, pts, SignatureViolation, "det g = {:.3e} is not negative")
    return point_value(np.sqrt(-det), pts)


def volume_element(bg: BackgroundRel, x):
    """sqrt(-det g), a float at one point and (K,) for a batch; requires det g < 0."""
    pts = check_points(x, bg.dim)
    return _volume(np.linalg.det(bg.metric_at(pts)), pts)


@dataclass(frozen=True)
class MetricData:
    """Lorentzian geometry at one point, or at each point of a batch along a
    leading axis, shared by every residual."""

    pt: Array     # the checked point (D,) or points (K, D)
    ginv: Array   # g^{MN}
    dginv: Array  # d_M g^{PQ} = -(g^{-1} d_M g g^{-1}), axis -3 = d_M
    vol: float | Array  # sqrt(-det g): a float at one point, (K,) for a batch
    dvol: Array   # d_M sqrt(-g) = (1/2) sqrt(-g) tr(g^{-1} d_M g)


def metric_data(bg: BackgroundRel, x) -> MetricData:
    """One checked read of the metric at x, (D,) or (K, D), inverted, with sqrt(-det g)."""
    pts = check_points(x, bg.dim)
    ginv, det = _checked_inverse(bg.metric_at(pts), pts)
    vol = _volume(det, pts)
    dg = bg.metric_derivative_at(pts)
    return MetricData(pt=pts, ginv=ginv,
                      dginv=-np.einsum("...pa,...mab,...bq->...mpq", ginv, dg, ginv),
                      vol=vol,
                      dvol=0.5 * np.asarray(vol)[..., None] * np.einsum("...ab,...mba->...m",
                                                                          ginv, dg))
