"""Lorentzian spacetime backgrounds: metric, gauge field, derivatives.

A background packages the covariant metric g_MN, the gauge covector A_M and
the particle parameters (mass, charge).  Everything is a pure function of
the coordinate point, so backgrounds are safe to share between workers.
Signature convention is mostly-plus (-, +, ..., +); units are hbar = c = 1.

``metric_data(bg, x)`` is the per-point geometry bundle every residual
reads: g^{MN}, sqrt(-g) and their gradients, from one checked read of the
metric.  ``metric_inverse`` and ``volume_element`` give the single objects.
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
        raise ValueError("point has non-finite coordinates")
    return pt


@dataclass(frozen=True)
class BackgroundRel:
    """D-dimensional Lorentzian background with particle parameters.

    ``metric(x)`` returns the covariant components g_MN and ``gauge(x)`` the
    covector A_M.  Analytic derivative closures are optional; when absent,
    central differences are used.  Index convention for the derivative
    arrays: axis 0 is the derivative direction, i.e. ``dmetric(x)[M] =
    d_M g`` and ``dgauge(x)[M, N] = d_M A_N``.
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
        pt = check_point(x, self.dim)
        g = np.asarray(self.metric(pt), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise ValueError(f"metric has shape {g.shape}, expected {(self.dim, self.dim)}")
        if np.max(np.abs(g - g.T)) >= SYMMETRY_TOL:
            raise ValueError("metric is not symmetric at the sampled point")
        return g

    def gauge_at(self, x) -> Array:
        pt = check_point(x, self.dim)
        return np.asarray(self.gauge(pt), dtype=float)

    def metric_derivative_at(self, x) -> Array:
        """Full derivative stack, shape (D, D, D): out[M] = d_M g."""
        return derivative_or_fd(self.metric, self.dmetric, check_point(x, self.dim))

    def gauge_derivative_at(self, x) -> Array:
        return derivative_or_fd(self.gauge, self.dgauge, check_point(x, self.dim))


def _checked_inverse(g: Array) -> tuple[Array, float]:
    """(g^{MN}, det g) after the checks that ``metric_inverse`` documents."""
    det = np.linalg.det(g)
    if abs(det) < DET_FLOOR:
        raise SingularMetric(f"|det g| = {abs(det):.3e} below {DET_FLOOR:.0e}")
    if int(np.sum(np.linalg.eigvalsh(g) < 0.0)) != 1:
        raise SignatureViolation("metric must have exactly one negative eigenvalue")
    ginv = np.linalg.inv(g)
    ginv = 0.5 * (ginv + ginv.T)
    residual = np.max(np.abs(g @ ginv - np.eye(g.shape[0])))
    if residual >= INVERSE_TOL:
        raise SingularMetric(f"inverse residual {residual:.3e} exceeds {INVERSE_TOL:.0e}")
    return ginv, det


def metric_inverse(bg: BackgroundRel, x) -> Array:
    """Contravariant metric g^{MN} at x.

    Raises SingularMetric when |det g| is below the floor (or the inverse
    fails its own residual check) and SignatureViolation when the metric
    does not have exactly one negative eigenvalue.
    """
    return _checked_inverse(bg.metric_at(x))[0]


def _volume(det: float) -> float:
    if det >= 0.0:
        raise SignatureViolation(f"det g = {det:.3e} is not negative")
    return float(np.sqrt(-det))


def volume_element(bg: BackgroundRel, x) -> float:
    """sqrt(-det g); requires det g < 0."""
    return _volume(np.linalg.det(bg.metric_at(x)))


@dataclass(frozen=True)
class MetricData:
    """Lorentzian geometry at one point, shared by every residual."""

    pt: Array     # the checked point
    ginv: Array   # g^{MN}
    dginv: Array  # d_M g^{PQ} = -(g^{-1} d_M g g^{-1}), axis 0 = d_M
    vol: float    # sqrt(-det g)
    dvol: Array   # d_M sqrt(-g) = (1/2) sqrt(-g) tr(g^{-1} d_M g)


def metric_data(bg: BackgroundRel, x) -> MetricData:
    """One checked read of the metric at x, inverted, with sqrt(-det g)."""
    pt = check_point(x, bg.dim)
    ginv, det = _checked_inverse(bg.metric_at(pt))
    vol = _volume(det)
    dg = bg.metric_derivative_at(pt)
    return MetricData(pt=pt, ginv=ginv,
                      dginv=-np.einsum("pa,mab,bq->mpq", ginv, dg, ginv),
                      vol=vol, dvol=0.5 * vol * np.einsum("ab,mba->m", ginv, dg))
