"""Lorentzian spacetime backgrounds: metric, gauge field, derivatives.

A background packages the covariant metric g_MN, the gauge covector A_M and
the particle parameters (mass, charge).  Everything is a pure function of
the coordinate point, so a background keeps no state between reads.
Signature convention is mostly-plus (-, +, ..., +); units are hbar = c = 1.

``metric_data(bg, x)`` is the one reader of the metric: from one checked
read it builds the bundle every Lorentzian function reads, g_MN, g^{MN} and
sqrt(-g) at the shape the metric closure returns, which broadcasts to the
points, so a constant metric is checked and inverted once per batch.  The
bundle derives d_M g and the gradients at their first read, so a check that
needs none reads no d_M g.  ``metric_inverse`` is its g^{MN} at the points.
A 2x2 determinant, here and in ``nc_geometry``, is taken in closed form by
``_det``, with numpy's (LAPACK's) det where that is not finite; at D = 2 the
signature comes from det g and the trace, and ``eigvalsh`` runs at D >= 3.
Every Lorentzian function takes the points or their bundle (``_bundle``), so
the checks of one grid share one bundle.

One batch contract runs through the package.  Every closure, here and in
``fields`` and ``nc_geometry``, takes one point (D,) or a batch (..., D) and
returns an array that broadcasts to (..., shape), so a constant closure may
return its bare constant; ``broadcast_read`` reads it at the points.  Every
function of this module takes one point (D,) or a batch (K, D), reads each
closure once for the whole batch and runs every check and every product as
one stacked numpy call over the leading axis.  A check that fails names the
first failing point.  A point is a batch without the leading axis: a scalar
comes back as a shape-() numpy value, and ``check_points`` returns at once
for a finite point of the expected dimension, its coordinates checked as
Python floats.  ``BackgroundRel.constant`` copies its arrays once and
freezes them: its closures hand out the same read-only arrays on every read.
"""
from __future__ import annotations

import math
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
    # a finite point of the expected dimension (each row's case) returns at once; one
    # point's coordinates cost less checked as Python floats than by a numpy reduction
    if pts.ndim == 1 and len(pts) == dim >= 2 and all(map(math.isfinite, pts.tolist())):
        return pts
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
    return _shaped(fn(pts), pts.shape[:-1] + pts.shape[-1:] * axes, dtype)


def _shaped(value, shape: tuple, dtype=float) -> Array:
    """value as an array of shape, broadcast (read-only) where it has another shape."""
    out = np.asarray(value, dtype=dtype)
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _frozen(value) -> Array:
    """A read-only float copy of value, for a constant closure to hand out on every read."""
    out = np.array(value, dtype=float)
    out.flags.writeable = False
    return out


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
        """g and A at every point, with zero derivatives: each closure hands out one frozen
        copy, the same read-only array on every read, never the caller's array."""
        g = _frozen(g)
        dim = g.shape[0]
        A = _frozen(np.zeros(dim) if A is None else A)
        zero_dg = _frozen(np.zeros((dim, dim, dim)))
        zero_da = _frozen(np.zeros((dim, dim)))
        return cls(dim=dim, metric=lambda x: g, gauge=lambda x: A,
                   mass=mass, charge=charge,
                   dmetric=lambda x: zero_dg, dgauge=lambda x: zero_da)

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


def _det(a: Array) -> Array:
    """det a over the leading axes of a (..., n, n).  A 2x2 is taken in closed form,
    a00 a11 - a01 a10; where that is not finite, and at every other size, numpy's det
    (LAPACK's LU) gives the value, and its warning or error under the caller's
    ``np.errstate``."""
    if a.shape[-2:] == (2, 2):
        if a.ndim == 2:  # one matrix, as Python floats: an overflow gives inf, not an error
            (a00, a01), (a10, a11) = a.tolist()
            det = a00 * a11 - a01 * a10
            if math.isfinite(det):
                return np.float64(det)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
            if np.isfinite(det).all():
                return det
    return np.linalg.det(a)


def _checked_inverse(g: Array, pts: Array) -> tuple[Array, Array]:
    """(g^{MN}, det g) at each point after the checks that ``metric_data`` documents."""
    det = _det(g)
    raise_at_first(np.abs(det) < DET_FLOOR, pts, SingularMetric,
                   f"|det g| = {{:.3e}} below {DET_FLOOR:.0e}", np.abs(det))
    if g.shape[-1] == 2:
        # a symmetric 2x2 has one negative eigenvalue where det g < 0, else none or two,
        # as the sign of its trace says
        negative = (det < 0.0) + 2 * ((det > 0.0) & (g[..., 0, 0] + g[..., 1, 1] < 0.0))
    else:
        negative = (np.linalg.eigvalsh(g) < 0.0).sum(axis=-1)
    raise_at_first(negative != 1, pts, SignatureViolation,
                   "metric must have exactly one negative eigenvalue, has {}", negative)
    ginv = np.linalg.inv(g)
    ginv = 0.5 * (ginv + ginv.mT)
    residual = np.abs(g @ ginv - np.eye(g.shape[-1])).max(axis=(-2, -1))
    raise_at_first(residual >= INVERSE_TOL, pts, SingularMetric,
                   f"inverse residual {{:.3e}} exceeds {INVERSE_TOL:.0e}", residual)
    return ginv, det


class _derived:
    """An object derived from a bundle's stored fields: computed at its first read and
    kept on the bundle, whose later reads find it there without calling this again.
    Unlike ``functools.cached_property`` it takes no lock (Python 3.11)."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, bundle, owner=None):
        if bundle is None:
            return self
        value = bundle.__dict__[self.name] = self.fn(bundle)
        return value


@dataclass
class MetricData:
    """The checked metric at one point, or at each point of a batch along a leading axis,
    kept at the shape the metric closure returned, which broadcasts to the points.  The
    gradients are derived, from one read of d_M g, at their first read.  The fields are
    not reassigned; the class is not frozen, as ``nc_geometry.NCDerived`` is not: a
    frozen __init__ costs each row more."""

    bg: BackgroundRel  # the background read, whose dmetric the gradients read
    pt: Array          # the checked point (D,) or points (K, D)
    g: Array           # g_MN, its shape and symmetry checked
    ginv: Array        # g^{MN}
    vol: Array         # sqrt(-det g)

    @_derived
    def dg(self) -> Array:
        """d_M g_PQ, axis -3 = d_M, from one read of the background's dmetric."""
        return self.bg.metric_derivative_at(self.pt)

    @_derived
    def dginv(self) -> Array:
        """d_M g^{PQ} = -(g^{-1} d_M g g^{-1}), axis -3 = d_M."""
        ginv = self.ginv[..., None, :, :]
        return -(ginv @ self.dg @ ginv)

    @_derived
    def dvol(self) -> Array:
        """d_M sqrt(-g) = (1/2) sqrt(-g) tr(g^{-1} d_M g)."""
        return 0.5 * self.vol[..., None] * np.einsum("...ab,...mba->...m", self.ginv, self.dg)


def metric_data(bg: BackgroundRel, x) -> MetricData:
    """The bundle of x, (D,) or (K, D), from one read of the metric: SingularMetric when
    |det g| is below the floor or the inverse fails its residual check, SignatureViolation
    when g has not exactly one negative eigenvalue or det g >= 0, at the first such point."""
    pts = check_points(x, bg.dim)
    g = bg._metric(pts)
    ginv, det = _checked_inverse(g, pts)
    raise_at_first(det >= 0.0, pts, SignatureViolation, "det g = {:.3e} is not negative", det)
    return MetricData(bg, pts, g, ginv, np.sqrt(-det))


def _bundle(bg: BackgroundRel, x) -> MetricData:
    """x itself when it is a bundle of bg's dimension, else the bundle of the points x:
    the one reading of "points or their bundle" of every Lorentzian function."""
    if not isinstance(x, MetricData):
        return metric_data(bg, x)
    if x.pt.shape[-1] != bg.dim:
        raise ValueError(f"point has dimension {x.pt.shape[-1]}, expected {bg.dim}")
    return x


def metric_inverse(bg: BackgroundRel, x) -> Array:
    """g^{MN} at one point (D, D) or at each point of a batch (K, D, D), for the points x
    or their MetricData bundle x: the bundle's g^{MN} broadcast to its points, as a
    read-only view where the metric closure returned one value for the batch."""
    md = _bundle(bg, x)
    shape = md.pt.shape + md.pt.shape[-1:]
    return md.ginv if md.ginv.shape == shape else np.broadcast_to(md.ginv, shape)
