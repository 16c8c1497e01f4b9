"""Polar and complex wave fields with derivative access.

A PolarField is the pair (rho, S) of density and phase/action; a
ComplexField is psi itself.  Either representation can be viewed as the
other, with first and second derivatives propagated analytically, so a
field built from closed-form psi exposes closed-form (rho, S) derivatives
and vice versa.

Every closure keeps the batch contract of ``geometry``: it takes one point
(D,) or a batch (..., D) and returns the scalar as (...), the gradient as
(..., D) and the second derivatives as (..., D, D), or anything that
broadcasts to them.  ``polar_view`` and ``complex_view`` keep the
contract, so a residual reads each closure once for a whole batch.

Node handling: operations raise NodeEncountered as soon as the density is
at or below EPS_NODE, naming the first such point.  Trajectories never
cross nodes, and regularizing silently would only hide bugs.

``polar_view`` gives (rho, S) = (|psi|^2, arg psi) of a complex field, with
S in (-pi, pi]; ``np.unwrap`` continues such a phase along a sampled path.
Residuals depend on dS only, so branch choice never affects them.

A view records the field it views as its ``source``, which a ``dataclasses.replace``
copy lacks.  ``on_points`` readies the fields for one grid's checks: each closure
is read at most once there, and a view is rebuilt over its source's one read.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .errors import NodeEncountered
from .geometry import broadcast_read, raise_at_first

Array = np.ndarray

EPS_NODE = 1e-10
RHO_AT_NODE = f"rho = {{:.3e}} at node threshold {EPS_NODE:.0e}"
PSI_AT_NODE = "|psi|^2 = {:.3e} below node threshold"


def node_check(density, pts, message=RHO_AT_NODE):
    """``density``, unless it is at or below EPS_NODE at a point of pts: NodeEncountered."""
    raise_at_first(density <= EPS_NODE, pts, NodeEncountered, message, density)
    return density


def _outer(a, b):
    """a_M b_N at each point."""
    return a[..., :, None] * b[..., None, :]


@dataclass(frozen=True)
class PolarField:
    """Real field pair (rho, S) with first and second derivatives.

    At one point ``rho``/``S`` return a scalar, ``drho``/``dS`` shape (D,) and
    ``d2rho``/``d2S`` shape (D, D); a batch adds its leading axes.
    """

    rho: Callable[[Array], Array]
    S: Callable[[Array], Array]
    drho: Callable[[Array], Array]
    d2rho: Callable[[Array], Array]
    dS: Callable[[Array], Array]
    d2S: Callable[[Array], Array]
    source: ComplexField | None = field(default=None, init=False, compare=False, repr=False)

    def rho_checked(self, x) -> Array:
        pts = np.asarray(x, dtype=float)
        return node_check(broadcast_read(self.rho, pts), pts)


@dataclass(frozen=True)
class ComplexField:
    """Complex field psi with first and second derivatives."""

    psi: Callable[[Array], Array]
    dpsi: Callable[[Array], Array]
    d2psi: Callable[[Array], Array]
    source: PolarField | None = field(default=None, init=False, compare=False, repr=False)


def polar_view(cf: ComplexField) -> PolarField:
    """(rho, S) view of a complex field with analytic derivative closures.

        drho   = 2 Re(psi* dpsi)
        d2rho  = 2 Re(dpsi* (x) dpsi + psi* d2psi)
        dS     = Im(dpsi / psi)
        d2S    = Im(d2psi / psi - dpsi (x) dpsi / psi^2)
    """

    def _read(x, n, checked=True):
        """psi and its first n - 1 derivatives at x; psi is node-checked unless told not to."""
        x = np.asarray(x, dtype=float)
        psi, *rest = [broadcast_read(fn, x, axes, complex)
                      for axes, fn in enumerate((cf.psi, cf.dpsi, cf.d2psi)[:n])]
        if checked:
            node_check(np.abs(psi) ** 2, x, PSI_AT_NODE)
        return psi, *rest

    def rho(x):
        return np.abs(_read(x, 1, False)[0]) ** 2

    def S(x):
        return np.angle(_read(x, 1)[0])

    def drho(x):
        psi, dp = _read(x, 2, False)
        return 2.0 * np.real(np.conj(psi)[..., None] * dp)

    def d2rho(x):
        psi, dp, d2p = _read(x, 3, False)
        return 2.0 * np.real(_outer(np.conj(dp), dp) + np.conj(psi)[..., None, None] * d2p)

    def dS(x):
        psi, dp = _read(x, 2)
        return np.imag(dp / psi[..., None])

    def d2S(x):
        psi, dp, d2p = _read(x, 3)
        psi = psi[..., None, None]
        return np.imag(d2p / psi - _outer(dp, dp) / psi**2)

    view = PolarField(rho=rho, S=S, drho=drho, d2rho=d2rho, dS=dS, d2S=d2S)
    object.__setattr__(view, "source", cf)  # frozen, and not an __init__ argument
    return view


def complex_view(pf: PolarField) -> ComplexField:
    """psi view of a polar field with analytic derivative closures."""

    def psi(x):
        return np.sqrt(pf.rho_checked(x)) * np.exp(1j * broadcast_read(pf.S, x))

    def _log_derivative(x):
        # d log psi = drho/(2 rho) + i dS
        r = pf.rho_checked(x)[..., None]
        return broadcast_read(pf.drho, x, 1) / (2.0 * r) + 1j * broadcast_read(pf.dS, x, 1)

    def dpsi(x):
        return _log_derivative(x) * psi(x)[..., None]

    def d2psi(x):
        r = pf.rho_checked(x)[..., None, None]
        dr = broadcast_read(pf.drho, x, 1)
        ld = _log_derivative(x)
        # d(d log psi) = d2rho/(2 rho) - drho x drho/(2 rho^2) + i d2S
        dld = (broadcast_read(pf.d2rho, x, 2) / (2.0 * r) - _outer(dr, dr) / (2.0 * r**2)
               + 1j * broadcast_read(pf.d2S, x, 2))
        return (_outer(ld, ld) + dld) * psi(x)[..., None, None]

    view = ComplexField(psi=psi, dpsi=dpsi, d2psi=d2psi)
    object.__setattr__(view, "source", pf)
    return view


def _once(f, pts):
    """A copy of field f (None for None) whose closures, called at pts or an equal array,
    read themselves on the first such call only and keep that result read-only."""
    def once(fn):
        kept = []

        def read(x):
            if x is not pts and not np.array_equal(x, pts):
                return fn(x)  # other points: read, keep nothing
            if not kept:
                kept.append(np.asarray(fn(pts)).view())
                kept[0].flags.writeable = False
            return kept[0]
        return read
    return f and replace(f, **{c.name: once(getattr(f, c.name)) for c in fields(f) if c.init})


def on_points(polar: PolarField | None, psi: ComplexField | None, pts: Array):
    """(polar, psi) for the checks of one grid at pts (K, D): each closure is read
    at most once at pts, and a view of the other field is rebuilt over that read."""
    once_polar, once_psi = _once(polar, pts), _once(psi, pts)
    if getattr(polar, "source", None) is psi is not None:
        once_polar = polar_view(once_psi)
    elif getattr(psi, "source", None) is polar is not None:
        once_psi = complex_view(once_polar)
    return once_polar, once_psi
