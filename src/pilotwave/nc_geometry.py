"""Newton-Cartan backgrounds and their null-lift to one dimension higher.

The frame data is a clock form tau_mu, a spatial vierbein e_mu^a
(a = 1 .. D-1), a mass gauge field M_mu, a reduced gauge field Abar_mu and
a scalar potential phi.  All derived objects (v^mu, inverse vierbein,
spatial metrics, hatted boost-invariant combinations, the potential Phi and
the volume element) follow from the frame by linear algebra:

    v^mu tau_mu = -1,   v^mu e_mu^a = 0,   tau_mu e^mu_a = 0,
    e^mu_a e_mu^b = delta_a^b.

The null lift assembles the (D+1)-dimensional Lorentzian metric

    gamma_{mu u} = tau_mu,  gamma_{mu nu} = hbar_{mu nu},  gamma_{uu} = 0

whose closed-form inverse has gamma^{uu} = 2 Phi, gamma^{u mu} = -vhat^mu
and gamma^{mu nu} = h^{mu nu}.  The extra null coordinate u is ordered last.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateFrame
from .geometry import check_point
from .stencils import derivative_or_fd

Array = np.ndarray

FRAME_DET_FLOOR = 1e-12


@dataclass(frozen=True)
class NCBackground:
    """Newton-Cartan background data with derivative providers.

    Callables take a D-dimensional point.  ``vierbein(x)`` has shape
    (D, D-1); column a is e_mu^a.  Derivative closures follow the axis-0
    convention of the rest of the package, e.g. ``dtau(x)[mu, nu] =
    d_mu tau_nu``; central differences are used when they are omitted.
    None of the data may depend on the null coordinate u by construction.
    """

    dim: int
    tau: Callable[[Array], Array]
    vierbein: Callable[[Array], Array]
    m_field: Callable[[Array], Array]
    gauge_bar: Callable[[Array], Array]
    phi: Callable[[Array], float]
    mass: float = 1.0
    charge: float = 0.0
    dtau: Callable[[Array], Array] | None = None
    dvierbein: Callable[[Array], Array] | None = None
    dm_field: Callable[[Array], Array] | None = None
    dgauge_bar: Callable[[Array], Array] | None = None
    dphi: Callable[[Array], Array] | None = None

    @classmethod
    def flat(cls, dim: int = 2, mass: float = 1.0) -> "NCBackground":
        """Absolute time plus Euclidean space: tau = dt, unit vierbein, no charge."""
        tau = np.zeros(dim)
        tau[0] = 1.0
        vier = np.zeros((dim, dim - 1))
        vier[1:, :] = np.eye(dim - 1)
        return cls.constant(tau, vier, mass=mass)

    @classmethod
    def constant(cls, tau, vierbein, m_field=None, gauge_bar=None, phi: float = 0.0,
                 mass: float = 1.0, charge: float = 0.0) -> "NCBackground":
        tau = np.asarray(tau, dtype=float)
        vier = np.asarray(vierbein, dtype=float)
        dim = tau.size
        mfield = np.zeros(dim) if m_field is None else np.asarray(m_field, dtype=float)
        abar = np.zeros(dim) if gauge_bar is None else np.asarray(gauge_bar, dtype=float)
        zcov = np.zeros((dim, dim))
        zvier = np.zeros((dim, dim, dim - 1))
        return cls(
            dim=dim,
            tau=lambda x: tau.copy(),
            vierbein=lambda x: vier.copy(),
            m_field=lambda x: mfield.copy(),
            gauge_bar=lambda x: abar.copy(),
            phi=lambda x: phi,
            mass=mass,
            charge=charge,
            dtau=lambda x: zcov.copy(),
            dvierbein=lambda x: zvier.copy(),
            dm_field=lambda x: zcov.copy(),
            dgauge_bar=lambda x: zcov.copy(),
            dphi=lambda x: np.zeros(dim),
        )

    def frame_at(self, x) -> Array:
        """D x D matrix with tau as column 0 and the vierbein as columns 1..D-1."""
        pt = check_point(x, self.dim)
        f = np.empty((self.dim, self.dim))
        f[:, 0] = np.asarray(self.tau(pt), dtype=float)
        f[:, 1:] = np.asarray(self.vierbein(pt), dtype=float)
        return f

    def reduced_gauge_at(self, x) -> Array:
        """Spacetime part of the lifted gauge field: A_mu = Abar_mu - phi M_mu."""
        pt = check_point(x, self.dim)
        return (np.asarray(self.gauge_bar(pt), dtype=float)
                - float(self.phi(pt)) * np.asarray(self.m_field(pt), dtype=float))

    def data_derivatives_at(self, x):
        """(dtau, dvierbein, dM, dAbar, dphi) with axis 0 the derivative index."""
        pt = check_point(x, self.dim)
        return tuple(derivative_or_fd(f, d, pt) for f, d in (
            (self.tau, self.dtau), (self.vierbein, self.dvierbein), (self.m_field, self.dm_field),
            (self.gauge_bar, self.dgauge_bar), (self.phi, self.dphi)))


@dataclass(frozen=True)
class NCDerived:
    """The frame at one point and every object derived from it."""

    frame: Array      # (tau, e): tau as column 0, the vierbein as columns 1..D-1
    finv: Array       # inverse frame: row 0 is -v, rows 1..D-1 are e^mu_a
    m: Array          # mass gauge field M_mu
    w: float          # effective mass m - q phi
    v: Array          # temporal vector v^mu
    e_inv: Array      # inverse vierbein e^mu_a, shape (D-1, D), row a
    h_up: Array       # h^{mu nu}
    h_down: Array     # h_{mu nu}
    hbar_down: Array  # h_{mu nu} - tau_mu M_nu - tau_nu M_mu
    v_hat: Array      # v^mu - h^{mu nu} M_nu
    e_hat: Array      # e_mu^a - M_nu e^nu_b delta^{ba} tau_mu, shape (D, D-1)
    Phi: float        # -v.M + (1/2) M h M
    vol: float        # det(tau, e)


@dataclass(frozen=True)
class NullLift:
    """Lifted (D+1)-metric with null coordinate u ordered last."""

    gamma: Array       # (D+1, D+1)
    gamma_inv: Array   # closed-form inverse
    gauge_lift: Array  # A_A = (Abar_mu - phi M_mu, phi)


def derive_nc(nc: NCBackground, x) -> NCDerived:
    """Solve the frame relations at x and build every derived object."""
    pt = check_point(x, nc.dim)
    frame = nc.frame_at(pt)
    det = np.linalg.det(frame)
    if abs(det) < FRAME_DET_FLOOR:
        raise DegenerateFrame(f"|det(tau, e)| = {abs(det):.3e} below {FRAME_DET_FLOOR:.0e}")
    finv = np.linalg.inv(frame)
    v = -finv[0, :]
    e_inv = finv[1:, :]
    vier = frame[:, 1:]
    tau = frame[:, 0]
    m = np.asarray(nc.m_field(pt), dtype=float)
    w = nc.mass - nc.charge * float(nc.phi(pt))
    h_up = e_inv.T @ e_inv
    h_down = vier @ vier.T
    hbar = h_down - np.outer(tau, m) - np.outer(m, tau)
    v_hat = v - h_up @ m
    m_frame = e_inv @ m
    e_hat = vier - np.outer(tau, m_frame)
    phi_pot = float(-v @ m + 0.5 * m @ h_up @ m)
    return NCDerived(frame=frame, finv=finv, m=m, w=w, v=v, e_inv=e_inv, h_up=h_up,
                     h_down=h_down, hbar_down=hbar, v_hat=v_hat, e_hat=e_hat, Phi=phi_pot,
                     vol=float(det))


def derive_nc_partials(nc: NCBackground, x):
    """Coordinate derivatives of the derived objects, axis 0 = d_mu.

    Uses d(F^{-1}) = -F^{-1} (dF) F^{-1} and d(det F) = det F tr(F^{-1} dF),
    so analytic frame derivatives propagate exactly.

    Returns a dict with keys v, e_inv, h_up, h_down, hbar_down, v_hat, Phi,
    vol, w (the effective mass m - q phi) and A (the reduced gauge field
    Abar - phi M).
    """
    pt = check_point(x, nc.dim)
    der = derive_nc(nc, pt)
    finv, m, e_inv = der.finv, der.m, der.e_inv
    tau, vier = der.frame[:, 0], der.frame[:, 1:]
    dtau, dvier, dm, dabar, dphi = nc.data_derivatives_at(pt)
    d = nc.dim

    dframe = np.empty((d, d, d))
    dframe[:, :, 0] = dtau
    dframe[:, :, 1:] = dvier
    dfinv = -np.einsum("ab,mbc,cd->mad", finv, dframe, finv)

    dv = -dfinv[:, 0, :]
    de_inv = dfinv[:, 1:, :]

    dh_up = (np.einsum("mac,ad->mcd", de_inv, e_inv)
             + np.einsum("ac,mad->mcd", e_inv, de_inv))
    dh_down = (np.einsum("mca,da->mcd", dvier, vier)
               + np.einsum("ca,mda->mcd", vier, dvier))
    dhbar = (dh_down
             - np.einsum("mc,d->mcd", dtau, m) - np.einsum("c,md->mcd", tau, dm)
             - np.einsum("mc,d->mcd", dm, tau) - np.einsum("c,md->mcd", m, dtau))
    dv_hat = dv - np.einsum("mcd,d->mc", dh_up, m) - np.einsum("cd,md->mc", der.h_up, dm)
    dPhi = (-np.einsum("mc,c->m", dv, m) - np.einsum("c,mc->m", der.v, dm)
            + np.einsum("c,cd,md->m", m, der.h_up, dm)
            + 0.5 * np.einsum("c,mcd,d->m", m, dh_up, m))
    dvol = der.vol * np.einsum("ab,mba->m", finv, dframe)
    dw = -nc.charge * dphi
    da = dabar - np.outer(dphi, m) - float(nc.phi(pt)) * dm
    return {"v": dv, "e_inv": de_inv, "h_up": dh_up, "h_down": dh_down,
            "hbar_down": dhbar, "v_hat": dv_hat, "Phi": dPhi, "vol": dvol, "w": dw, "A": da}


def null_lift(nc: NCBackground, x) -> NullLift:
    """Assemble the lifted metric, its closed-form inverse and the gauge lift."""
    pt = check_point(x, nc.dim)
    der = derive_nc(nc, pt)
    d = nc.dim
    tau = der.frame[:, 0]
    gamma = np.zeros((d + 1, d + 1))
    gamma[:d, :d] = der.hbar_down
    gamma[:d, d] = tau
    gamma[d, :d] = tau
    gamma_inv = np.zeros((d + 1, d + 1))
    gamma_inv[:d, :d] = der.h_up
    gamma_inv[:d, d] = -der.v_hat
    gamma_inv[d, :d] = -der.v_hat
    gamma_inv[d, d] = 2.0 * der.Phi
    gauge = np.empty(d + 1)
    gauge[:d] = nc.reduced_gauge_at(pt)
    gauge[d] = float(nc.phi(pt))
    residual = np.max(np.abs(gamma @ gamma_inv - np.eye(d + 1)))
    if residual >= 1e-10:
        raise DegenerateFrame(f"lift inverse residual {residual:.3e} exceeds 1e-10")
    return NullLift(gamma=gamma, gamma_inv=gamma_inv, gauge_lift=gauge)


def frame_identity_residuals(nc: NCBackground, x) -> dict[str, float]:
    """Max-norm defects of the defining frame relations at x."""
    pt = check_point(x, nc.dim)
    der = derive_nc(nc, pt)
    tau, vier = der.frame[:, 0], der.frame[:, 1:]
    dm1 = nc.dim - 1
    return {
        "v_dot_tau": abs(float(der.v @ tau) + 1.0),
        "v_dot_vierbein": float(np.max(np.abs(der.v @ vier))) if dm1 else 0.0,
        "tau_dot_einv": float(np.max(np.abs(der.e_inv @ tau))) if dm1 else 0.0,
        "einv_vierbein": float(np.max(np.abs(der.e_inv @ vier - np.eye(dm1)))),
        "hup_tau": float(np.max(np.abs(der.h_up @ tau))),
    }


def ehat_identity_residual(nc: NCBackground, x) -> float:
    """Defect of ehat.delta.ehat = hbar + 2 Phi tau tau at one point."""
    pt = check_point(x, nc.dim)
    der = derive_nc(nc, pt)
    tau = der.frame[:, 0]
    lhs = der.e_hat @ der.e_hat.T
    rhs = der.hbar_down + 2.0 * der.Phi * np.outer(tau, tau)
    return float(np.max(np.abs(lhs - rhs)))


def null_lift_residuals(nc: NCBackground, x) -> dict[str, float]:
    """Consistency defects of the lifted metric at x.

    product:     max |gamma gamma_inv - 1| for the closed-form inverse
    inverse_gap: max |gamma_inv - inv(gamma)| against numerical inversion
    volume_gap:  relative gap between sqrt(-det gamma) and |det(tau, e)|
    """
    lift = null_lift(nc, x)
    der = derive_nc(nc, x)
    dsize = nc.dim + 1
    product = float(np.max(np.abs(lift.gamma @ lift.gamma_inv - np.eye(dsize))))
    inverse_gap = float(np.max(np.abs(lift.gamma_inv - np.linalg.inv(lift.gamma))))
    det = np.linalg.det(lift.gamma)
    if det >= 0.0:
        raise DegenerateFrame(f"lifted metric determinant {det:.3e} is not negative")
    volume_gap = float(abs(np.sqrt(-det) - abs(der.vol)) / abs(der.vol))
    return {"product": product, "inverse_gap": inverse_gap, "volume_gap": volume_gap}


def random_frame_background(rng, dim: int, charge: float = 0.0) -> NCBackground:
    """Constant NC background of unit mass from a random well-conditioned oriented frame.

    Rejection-samples until cond(tau, e) <= 15 so that identity defects
    measure the algebra rather than the conditioning of the comparison
    inversion; orientation is flipped to det > 0.  M, Abar and phi are
    drawn at O(1/2).
    """
    while True:
        tau = rng.normal(size=dim)
        vier = rng.normal(size=(dim, dim - 1))
        frame = np.column_stack([tau, vier])
        if np.linalg.cond(frame) <= 15.0:
            break
    if np.linalg.det(frame) < 0:
        tau = -tau
    m_field = rng.normal(size=dim) * 0.5
    abar = rng.normal(size=dim) * 0.5
    phi = float(rng.normal()) * 0.5
    return NCBackground.constant(tau, vier, m_field=m_field, gauge_bar=abar,
                                 phi=phi, charge=charge)
