"""Polar and complex wave fields with derivative access.

A PolarField is the pair (rho, S) of density and phase/action; a
ComplexField is psi itself.  Either representation can be viewed as the
other, with first and second derivatives propagated analytically, so a
field built from closed-form psi exposes closed-form (rho, S) derivatives
and vice versa.

Node handling: operations raise NodeEncountered as soon as the density is
at or below EPS_NODE.  Trajectories never cross nodes, and regularizing
silently would only hide bugs.

The phase returned by polar_decompose lies in (-pi, pi]; use unwrap_phase
for nearest-branch continuation along a sampled path.  Residuals depend on
dS only, so branch choice never affects them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NodeEncountered
from .stencils import hessian, jacobian

Array = np.ndarray

EPS_NODE = 1e-10


@dataclass(frozen=True)
class PolarField:
    """Real field pair (rho, S) with first and second derivatives.

    ``drho``/``dS`` return shape (D,), ``d2rho``/``d2S`` shape (D, D).
    """

    rho: Callable[[Array], float]
    S: Callable[[Array], float]
    drho: Callable[[Array], Array]
    d2rho: Callable[[Array], Array]
    dS: Callable[[Array], Array]
    d2S: Callable[[Array], Array]

    def rho_checked(self, x) -> float:
        r = float(self.rho(np.asarray(x, dtype=float)))
        if r <= EPS_NODE:
            raise NodeEncountered(f"rho = {r:.3e} at node threshold {EPS_NODE:.0e}")
        return r


@dataclass(frozen=True)
class ComplexField:
    """Complex field psi with first and second derivatives."""

    psi: Callable[[Array], complex]
    dpsi: Callable[[Array], Array]
    d2psi: Callable[[Array], Array]


def polar_field(rho, S, *, drho=None, d2rho=None, dS=None, d2S=None) -> PolarField:
    """Build a PolarField, filling missing derivatives with central FD."""
    return PolarField(
        rho=rho,
        S=S,
        drho=drho if drho is not None else (lambda x: jacobian(rho, x)),
        d2rho=d2rho if d2rho is not None else (lambda x: hessian(rho, x)),
        dS=dS if dS is not None else (lambda x: jacobian(S, x)),
        d2S=d2S if d2S is not None else (lambda x: hessian(S, x)),
    )


def complex_field(psi, *, dpsi=None, d2psi=None) -> ComplexField:
    """Build a ComplexField, filling missing derivatives with central FD."""
    return ComplexField(
        psi=psi,
        dpsi=dpsi if dpsi is not None else (lambda x: jacobian(psi, x)),
        d2psi=d2psi if d2psi is not None else (lambda x: hessian(psi, x)),
    )


def polar_compose(f: PolarField, x) -> complex:
    """psi = sqrt(rho) e^{iS} at x."""
    x = np.asarray(x, dtype=float)
    return complex(np.sqrt(f.rho_checked(x)) * np.exp(1j * f.S(x)))


def polar_decompose(f: ComplexField, x) -> tuple[float, float]:
    """(rho, S) = (|psi|^2, arg psi) with S in (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    psi = complex(f.psi(x))
    rho = abs(psi) ** 2
    if rho <= EPS_NODE:
        raise NodeEncountered(f"|psi|^2 = {rho:.3e} at node threshold {EPS_NODE:.0e}")
    return rho, float(np.angle(psi))


def unwrap_phase(values) -> Array:
    """Nearest-branch continuation of a phase sequence along a path."""
    vals = np.asarray(values, dtype=float)
    out = np.array(vals)
    for k in range(1, out.size):
        out[k] = vals[k] + 2.0 * np.pi * np.round((out[k - 1] - vals[k]) / (2.0 * np.pi))
    return out


def polar_view(cf: ComplexField) -> PolarField:
    """(rho, S) view of a complex field with analytic derivative closures.

        drho   = 2 Re(psi* dpsi)
        d2rho  = 2 Re(dpsi* (x) dpsi + psi* d2psi)
        dS     = Im(dpsi / psi)
        d2S    = Im(d2psi / psi - dpsi (x) dpsi / psi^2)
    """

    def _psi_checked(x):
        psi = complex(cf.psi(x))
        if abs(psi) ** 2 <= EPS_NODE:
            raise NodeEncountered(f"|psi|^2 = {abs(psi)**2:.3e} below node threshold")
        return psi

    def rho(x):
        return abs(complex(cf.psi(x))) ** 2

    def S(x):
        return float(np.angle(_psi_checked(x)))

    def drho(x):
        psi = complex(cf.psi(x))
        return 2.0 * np.real(np.conj(psi) * cf.dpsi(x))

    def d2rho(x):
        psi = complex(cf.psi(x))
        dp = cf.dpsi(x)
        return 2.0 * np.real(np.outer(np.conj(dp), dp) + np.conj(psi) * cf.d2psi(x))

    def dS(x):
        psi = _psi_checked(x)
        return np.imag(cf.dpsi(x) / psi)

    def d2S(x):
        psi = _psi_checked(x)
        dp = cf.dpsi(x)
        return np.imag(cf.d2psi(x) / psi - np.outer(dp, dp) / psi**2)

    return PolarField(rho=rho, S=S, drho=drho, d2rho=d2rho, dS=dS, d2S=d2S)


def complex_view(pf: PolarField) -> ComplexField:
    """psi view of a polar field with analytic derivative closures."""

    def psi(x):
        return complex(np.sqrt(pf.rho_checked(x)) * np.exp(1j * pf.S(x)))

    def _log_derivative(x):
        # d log psi = drho/(2 rho) + i dS
        r = pf.rho_checked(x)
        return pf.drho(x) / (2.0 * r) + 1j * pf.dS(x)

    def dpsi(x):
        return _log_derivative(x) * psi(x)

    def d2psi(x):
        r = pf.rho_checked(x)
        dr = pf.drho(x)
        ld = _log_derivative(x)
        # d(d log psi) = d2rho/(2 rho) - drho x drho/(2 rho^2) + i d2S
        dld = pf.d2rho(x) / (2.0 * r) - np.outer(dr, dr) / (2.0 * r**2) + 1j * pf.d2S(x)
        return (np.outer(ld, ld) + dld) * psi(x)

    return ComplexField(psi=psi, dpsi=dpsi, d2psi=d2psi)
