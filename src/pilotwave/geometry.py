"""Lorentzian spacetime backgrounds: metric, gauge field, derivatives.

A background packages the covariant metric g_MN, the gauge covector A_M and
the particle parameters (mass, charge).  Everything is a pure function of
the coordinate point, so a background keeps no state between reads.
Signature convention is mostly-plus (-, +, ..., +); units are hbar = c = 1.

``metric_data(bg, x)`` is the geometry bundle every residual reads: g_MN,
then g^{MN} and sqrt(-g) with their gradients, from one checked read of the
metric.  ``metric_inverse`` and ``volume_element`` give the single objects;
``metric_inverse`` also takes a bundle and returns its g^{MN}.  A
relativistic residual takes either the points or the bundle of those
points, so the checks of one grid share one bundle.

The metric's checks, its inverse, sqrt(-g) and their gradients run at the
shape the metric closure returns: a constant (D, D) metric is checked,
inverted and differentiated once per batch, and only the results are
broadcast to the points, as read-only views.

One batch contract runs through the package.  Every closure, here and in
``fields`` and ``nc_geometry``, takes one point (D,) or a batch (..., D) and
returns an array that broadcasts to (..., shape), so a constant closure may
return its bare constant; ``broadcast_read`` reads it at the points.  Every
function of this module takes one point (D,) or a batch (K, D), reads each
closure once for the whole batch and runs every check and every product as
one stacked numpy call over the leading axis.  A check that fails names the
first failing point.  A point is a batch without the leading axis: a scalar
comes back as a shape-() numpy value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteResult, SignatureViolation, SingularMetric

Array = np.ndarray

SYMMETRY_TOL = 1e-12
DET_FLOOR = 1e-14
INVERSE_TOL = 1e-10


def check_points(x, dim: int | None = None) -> Array:
    """Validate one point (D,) or a batch of points (K, D); a float array of the same shape."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim not in (1, 2):
        raise ValueError(f"points must have shape (D,) or (K, D), got {pts.shape}")
    if pts.shape[-1] < 2:
        raise ValueError("points live in spacetime: need at least 2 coordinates")
    if dim is not None and pts.shape[-1] != dim:
        raise ValueError(f"point has dimension {pts.shape[-1]}, expected {dim}")
    if not np.isfinite(pts).all():
        raise_at_first(~np.isfinite(pts).all(axis=-1), pts, ValueError, "non-finite coordinates")
    return pts


def check_point(x, dim: int | None = None) -> Array:
    """Validate a coordinate point and return it as a float array."""
    if np.ndim(x) != 1:
        raise ValueError(f"point must be one-dimensional, got shape {np.shape(x)}")
    return check_points(x, dim)


def raise_at_first(flags, pts, error, message: str, *values) -> None:
    """Raise ``error`` for the first point of ``pts`` whose flag is set.

    ``flags`` and each of ``values`` broadcast to one entry per point of
    ``pts`` (one point (D,) or a batch (K, D)), so a check made once for a
    constant names the first point; the message is ``message`` formatted
    with that point's entries of ``values``, followed by the point itself.
    """
    if np.count_nonzero(flags):  # the cheapest test of a clean batch
        lead = pts.shape[:-1]
        i = np.flatnonzero(np.broadcast_to(flags, lead))[0]
        point = np.reshape(pts, (-1, pts.shape[-1]))[i]
        found = (np.ravel(np.broadcast_to(v, lead))[i].item() for v in values)
        raise error(f"{message.format(*found)} at point {point.tolist()}")


def evaluate_named(where: str, fn, x):
    """fn(x) for a batch of points x (K, D) or their MetricData bundle.

    An ArithmeticError becomes a NonFiniteResult that names ``where`` and the
    first point at which fn, evaluated one row at a time, raises one too.
    The rows are evaluated only on this error path.
    """
    try:
        return fn(x)
    except ArithmeticError as exc:
        message = f"{where}: {type(exc).__name__}: {exc}"
        for row in (x.pt if isinstance(x, MetricData) else x):
            try:
                fn(row[None])
            except ArithmeticError:
                message += f" at point {row.tolist()}"
                break
        raise NonFiniteResult(message) from exc


def broadcast_read(fn, pts: Array, axes: int = 0, dtype=float) -> Array:
    """A closure's value at pts, (D,) or (K, D), as shape pts.shape[:-1] + (D,) * axes.

    A closure may return anything that broadcasts to that shape, such as its
    bare constant; the result may then be a read-only broadcast view.
    """
    pts = np.asarray(pts, dtype=float)
    out = np.asarray(fn(pts), dtype=dtype)
    shape = pts.shape[:-1] + pts.shape[-1:] * axes
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _spread(a: Array, pts: Array, axes: int = 0) -> Array:
    """a, (D,) * axes per point, as shape pts.shape[:-1] + (D,) * axes: a itself when
    it has that shape, else a read-only broadcast view, as ``broadcast_read`` returns
    (which repeats these two lines to spare its per-row callers a call)."""
    shape = pts.shape[:-1] + pts.shape[-1:] * axes
    return a if a.shape == shape else np.broadcast_to(a, shape)


@dataclass(frozen=True)
class BackgroundRel:
    """D-dimensional Lorentzian background with particle parameters.

    ``metric(x)`` returns the covariant components g_MN and ``gauge(x)`` the
    covector A_M.  Their derivative closures are required: each derivative
    has one source, the closure given, and none is taken by differences.
    Index convention for the derivative arrays: axis 0 is the derivative
    direction, i.e. ``dmetric(x)[M] = d_M g`` and ``dgauge(x)[M, N] =
    d_M A_N``, with the point axes leading.  The ``*_at`` methods read a
    closure once at one point (D,) or a batch (K, D).
    """

    dim: int
    metric: Callable[[Array], Array]
    gauge: Callable[[Array], Array]
    dmetric: Callable[[Array], Array]
    dgauge: Callable[[Array], Array]
    mass: float = 1.0
    charge: float = 0.0

    @classmethod
    def minkowski(cls, dim: int = 4, mass: float = 1.0, charge: float = 0.0) -> "BackgroundRel":
        return cls.constant(np.diag([-1.0] + [1.0] * (dim - 1)), mass=mass, charge=charge)

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

    def _metric(self, pts: Array) -> Array:
        """g_MN at points that are already checked, its shape and symmetry checked, at the
        shape the closure returns, which broadcasts to pts.shape[:-1] + (D, D)."""
        g = np.asarray(self.metric(pts), dtype=float)
        shape = pts.shape[:-1] + (self.dim, self.dim)
        if g.shape != shape and (g.ndim > len(shape) or g.shape[-2:] != shape[-2:] or any(
                n not in (1, m) for n, m in zip(g.shape, shape[len(shape) - g.ndim:]))):
            raise ValueError(f"metric has shape {g.shape}, expected {shape}")
        asym = np.abs(g - g.mT).max(axis=(-2, -1))
        raise_at_first(asym >= SYMMETRY_TOL, pts, ValueError,
                       "metric is not symmetric (max |g - g^T| = {:.3e})", asym)
        return g

    def gauge_at(self, x) -> Array:
        return broadcast_read(self.gauge, check_points(x, self.dim), 1)

    def metric_derivative_at(self, x) -> Array:
        """Full derivative stack out[..., M, :, :] = d_M g, at the shape the closure returns,
        broadcast only as far as the (D, D, D) of one point."""
        dg = np.asarray(self.dmetric(check_points(x, self.dim)), dtype=float)
        one = (self.dim,) * 3
        return dg if dg.shape[-3:] == one else np.broadcast_to(
            dg, np.broadcast_shapes(dg.shape, one))

    def gauge_derivative_at(self, x) -> Array:
        return broadcast_read(self.dgauge, check_points(x, self.dim), 2)


def _checked_inverse(g: Array, pts: Array) -> tuple[Array, Array]:
    """(g^{MN}, det g) at each point after the checks that ``metric_inverse`` documents."""
    det = np.linalg.det(g)
    raise_at_first(np.abs(det) < DET_FLOOR, pts, SingularMetric,
                   f"|det g| = {{:.3e}} below {DET_FLOOR:.0e}", np.abs(det))
    negative = (np.linalg.eigvalsh(g) < 0.0).sum(axis=-1)
    raise_at_first(negative != 1, pts, SignatureViolation,
                   "metric must have exactly one negative eigenvalue, has {}", negative)
    ginv = np.linalg.inv(g)
    ginv = 0.5 * (ginv + ginv.mT)
    residual = np.abs(g @ ginv - np.eye(g.shape[-1])).max(axis=(-2, -1))
    raise_at_first(residual >= INVERSE_TOL, pts, SingularMetric,
                   f"inverse residual {{:.3e}} exceeds {INVERSE_TOL:.0e}", residual)
    return ginv, det


@dataclass(frozen=True)
class MetricData:
    """Lorentzian geometry at one point, or at each point of a batch along a
    leading axis, shared by every residual.  Where the metric closure returns
    one value for the whole batch, every field but ``pt`` is a read-only
    broadcast view of that one value."""

    pt: Array     # the checked point (D,) or points (K, D)
    g: Array      # g_MN, its shape and symmetry checked
    ginv: Array   # g^{MN}
    dginv: Array  # d_M g^{PQ} = -(g^{-1} d_M g g^{-1}), axis -3 = d_M
    vol: Array    # sqrt(-det g)
    dvol: Array   # d_M sqrt(-g) = (1/2) sqrt(-g) tr(g^{-1} d_M g)


def metric_inverse(bg: BackgroundRel, x) -> Array:
    """Contravariant metric g^{MN} at one point (D, D) or at each point of a batch (K, D, D).

    x is the points or their MetricData bundle.  Given points, it reads the
    metric once and raises SingularMetric when |det g| is below the floor (or
    the inverse fails its own residual check) and SignatureViolation when the
    metric does not have exactly one negative eigenvalue, naming the first
    such point.  Given a bundle, it checks the dimension and returns the
    bundle's g^{MN}, which passed those checks when the bundle was built.
    """
    if isinstance(x, MetricData):
        check_points(x.pt, bg.dim)
        return x.ginv
    pts = check_points(x, bg.dim)
    return _spread(_checked_inverse(bg._metric(pts), pts)[0], pts, 2)


def _volume(det, pts: Array):
    raise_at_first(det >= 0.0, pts, SignatureViolation, "det g = {:.3e} is not negative", det)
    return np.sqrt(-det)


def volume_element(bg: BackgroundRel, x):
    """sqrt(-det g), shape () at one point and (K,) for a batch; requires det g < 0."""
    pts = check_points(x, bg.dim)
    return _spread(_volume(np.linalg.det(bg._metric(pts)), pts), pts)


def metric_data(bg: BackgroundRel, x) -> MetricData:
    """One checked read of the metric at x, (D,) or (K, D), inverted, with sqrt(-det g)."""
    pts = check_points(x, bg.dim)
    g = bg._metric(pts)
    ginv, det = _checked_inverse(g, pts)
    vol = _volume(det, pts)
    dg = bg.metric_derivative_at(pts)
    dginv = -(ginv[..., None, :, :] @ dg @ ginv[..., None, :, :])
    dvol = 0.5 * vol[..., None] * np.einsum("...ab,...mba->...m", ginv, dg)
    return MetricData(pt=pts, g=_spread(g, pts, 2), ginv=_spread(ginv, pts, 2),
                      dginv=_spread(dginv, pts, 3), vol=_spread(vol, pts),
                      dvol=_spread(dvol, pts, 1))
