"""Newton-Cartan backgrounds and their null-lift to one dimension higher.

The frame data is a clock form tau_mu, a spatial vierbein e_mu^a
(a = 1 .. D-1), a mass gauge field M_mu, a reduced gauge field Abar_mu and
a scalar potential phi.  All derived objects (v^mu, inverse vierbein,
spatial metrics, hatted boost-invariant combinations, the potential Phi and
the volume element) follow from the frame solve (tau, e)^{-1} and M by
linear algebra:

    v^mu tau_mu = -1,   v^mu e_mu^a = 0,   tau_mu e^mu_a = 0,
    e^mu_a e_mu^b = delta_a^b.

The null lift assembles the (D+1)-dimensional Lorentzian metric

    gamma_{mu u} = tau_mu,  gamma_{mu nu} = hbar_{mu nu},  gamma_{uu} = 0

whose closed-form inverse has gamma^{uu} = 2 Phi, gamma^{u mu} = -vhat^mu
and gamma^{mu nu} = h^{mu nu}.  The extra null coordinate u is ordered last.

``derive_nc`` checks one point, reads tau, e, M and phi there once and
solves the frame; ``_nc_frames`` stacks those solves for a batch (K, D).
Either gives an ``NCDerived`` bundle of the points, the solve, M and phi,
whose derived objects are computed at their first read, once per bundle,
over leading axes.  ``derive_nc_partials``, the null lift and the identity
checks take one point (D,), a batch (K, D) or their bundle, through
``_nc_bundle``, and pass on what they were given: a call given points solves
the frames it always solved (twice in ``null_lift_residuals``), one given a
bundle none.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateFrame
from .geometry import broadcast_read, check_point, check_points, raise_at_first
from .stencils import derivative_or_fd

Array = np.ndarray

FRAME_DET_FLOOR = 1e-12


@dataclass(frozen=True)
class NCBackground:
    """Newton-Cartan background data with derivative providers.

    Callables keep the batch contract of ``geometry``: they take one point
    (D,) or a batch (..., D).  At one point ``vierbein(x)`` has shape
    (D, D-1); column a is e_mu^a.  Derivative closures follow the axis-0
    convention of the rest of the package, e.g. ``dtau(x)[mu, nu] =
    d_mu tau_nu``; central differences are used when they are omitted.
    ``reduced_gauge_at`` takes points or their ``NCDerived``, whose M and
    phi it uses; ``data_derivatives_at`` reads the derivatives once per batch.
    None of the data may depend on the null coordinate u by construction.
    """

    dim: int
    tau: Callable[[Array], Array]
    vierbein: Callable[[Array], Array]
    m_field: Callable[[Array], Array]
    gauge_bar: Callable[[Array], Array]
    phi: Callable[[Array], Array]
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

    def reduced_gauge_at(self, x) -> Array:
        """A_mu = Abar_mu - phi M_mu, the spacetime part of the lifted gauge field, at
        points x or at the points of an NCDerived bundle x, whose phi and M it takes."""
        if isinstance(x, NCDerived):
            pts, phi, m = x.pt, x.phi, x.m
        else:
            pts = check_points(x, self.dim)
            phi, m = broadcast_read(self.phi, pts), broadcast_read(self.m_field, pts, 1)
        return broadcast_read(self.gauge_bar, pts, 1) - phi[..., None] * m

    def data_derivatives_at(self, x):
        """(dtau, dvierbein, dM, dAbar, dphi) at one point (D,) or a batch (K, D): the
        batch axis first, then the derivative index, each closure read once."""
        pts = check_points(x, self.dim)
        d = self.dim
        return tuple(np.broadcast_to(derivative_or_fd(f, df, pts), pts.shape[:-1] + shape)
                     for f, df, shape in (
            (self.tau, self.dtau, (d, d)), (self.vierbein, self.dvierbein, (d, d, d - 1)),
            (self.m_field, self.dm_field, (d, d)), (self.gauge_bar, self.dgauge_bar, (d, d)),
            (self.phi, self.dphi, (d,))))


class _derived:
    """An object derived from the frame solve: computed at its first read and kept
    on the bundle, whose later reads find it there without calling this again.
    Unlike ``functools.cached_property`` it takes no lock (Python 3.11)."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, der, owner=None):
        if der is None:
            return self
        value = der.__dict__[self.name] = self.fn(der)
        return value


@dataclass
class NCDerived:
    """The frame solve at one point, or its rows stacked along leading axes.

    Stored are the checked points, the solve, M and phi; every other object
    is derived from them, a few products of ``finv`` and ``m`` written once
    over the leading axes, so it serves one point and a stacked batch alike.
    Each is computed at its first read and kept, once per bundle.  The fields
    are not reassigned; the class is not frozen because a frozen __init__
    costs each single-point row about 1 us more (7 fields).
    """

    pt: Array         # the checked point (D,) or points (..., D)
    frame: Array      # (tau, e): tau as column 0, the vierbein as columns 1..D-1
    finv: Array       # inverse frame: row 0 is -v, rows 1..D-1 are e^mu_a
    m: Array          # mass gauge field M_mu
    phi: Array        # scalar potential phi
    w: float | Array  # effective mass m - q phi
    vol: float | Array  # det(tau, e)

    @_derived
    def v(self) -> Array:
        """Temporal vector v^mu."""
        return -self.finv[..., 0, :]

    @_derived
    def e_inv(self) -> Array:
        """Inverse vierbein e^mu_a, shape (D-1, D), row a."""
        return self.finv[..., 1:, :]

    @_derived
    def h_up(self) -> Array:
        """h^{mu nu} = e^mu_a e^nu_a."""
        e_inv = self.finv[..., 1:, :]  # sliced as e_inv is: reading it costs a row a call
        return e_inv.mT @ e_inv

    @_derived
    def h_down(self) -> Array:
        """h_{mu nu} = e_mu^a e_nu^a."""
        vier = self.frame[..., 1:]
        return vier @ vier.mT

    @_derived
    def hbar_down(self) -> Array:
        """h_{mu nu} - tau_mu M_nu - tau_nu M_mu."""
        tau, m = self.frame[..., 0], self.m
        return (self.h_down - tau[..., :, None] * m[..., None, :]
                - m[..., :, None] * tau[..., None, :])

    @_derived
    def v_hat(self) -> Array:
        """v^mu - h^{mu nu} M_nu; v is negated from finv as ``v`` does, which spares a
        guidance row, which reads only v_hat and h_up, a call."""
        return -self.finv[..., 0, :] - np.matvec(self.h_up, self.m)

    @_derived
    def e_hat(self) -> Array:
        """e_mu^a - M_nu e^nu_b delta^{ba} tau_mu, shape (D, D-1)."""
        return (self.frame[..., 1:]
                - self.frame[..., :, :1] * np.matvec(self.e_inv, self.m)[..., None, :])

    @_derived
    def Phi(self) -> float | Array:
        """-v.M + (1/2) M h M."""
        return np.vecdot(0.5 * np.matvec(self.h_up, self.m) - self.v, self.m)


@dataclass(frozen=True)
class NullLift:
    """Lifted (D+1)-metric with null coordinate u ordered last, at one point or,
    from the rows ``_nc_frames`` stacks, with the leading axis of a batch."""

    gamma: Array       # (..., D+1, D+1)
    gamma_inv: Array   # closed-form inverse
    gauge_lift: Array  # A_A = (Abar_mu - phi M_mu, phi)


def derive_nc(nc: NCBackground, x) -> NCDerived:
    """Solve the frame relations at one point x: the checked point, the frame, its
    inverse, M, phi, w and the volume, from one read of tau, e, M and phi.  The
    derived objects are computed from the result when first read."""
    pt = check_point(x, nc.dim)
    frame = np.empty((nc.dim, nc.dim))
    frame[:, 0] = nc.tau(pt)
    frame[:, 1:] = nc.vierbein(pt)
    det = np.linalg.det(frame)
    if abs(det) < FRAME_DET_FLOOR:
        raise DegenerateFrame(f"|det(tau, e)| = {abs(det):.3e} below {FRAME_DET_FLOOR:.0e} "
                              f"at point {pt.tolist()}")
    phi = broadcast_read(nc.phi, pt)
    return NCDerived(pt=pt, frame=frame, finv=np.linalg.inv(frame),
                     m=broadcast_read(nc.m_field, pt, 1), phi=phi,
                     w=nc.mass - nc.charge * float(phi), vol=float(det))


def derive_nc_partials(nc: NCBackground, x):
    """Coordinate derivatives of the derived objects at one point (D,) or a batch
    (K, D): the batch axis first, then d_mu.

    x may be the points' ``NCDerived`` in their place; the data derivatives
    are read once for the batch, and the algebra below runs once over the
    leading axis.  Uses d(F^{-1}) = -F^{-1} (dF) F^{-1} and
    d(det F) = det F tr(F^{-1} dF), so analytic frame derivatives propagate
    exactly.

    Returns a dict with keys v, e_inv, h_up, h_down, hbar_down, v_hat, Phi,
    vol, w (the effective mass m - q phi) and A (the reduced gauge field
    Abar - phi M).
    """
    pt, der = _nc_bundle(nc, x)
    finv, m, e_inv = der.finv, der.m, der.e_inv
    tau, vier = der.frame[..., 0], der.frame[..., 1:]
    dtau, dvier, dm, dabar, dphi = nc.data_derivatives_at(pt)

    # every object without the derivative axis gains it, to broadcast over d_mu
    dframe = np.concatenate([dtau[..., None], dvier], axis=-1)
    finv_mu, m_mu = finv[..., None, :, :], m[..., None, :]
    dfinv = -(finv_mu @ dframe @ finv_mu)
    dv = -dfinv[..., 0, :]
    de_inv = dfinv[..., 1:, :]

    dh_up = de_inv.mT @ e_inv[..., None, :, :]
    dh_up = dh_up + dh_up.mT
    dh_down = dvier @ vier.mT[..., None, :, :]
    dh_down = dh_down + dh_down.mT
    dtau_m = dtau[..., None] * m[..., None, None, :]
    tau_dm = tau[..., None, :, None] * dm[..., None, :]
    dhbar = dh_down - dtau_m - tau_dm - tau_dm.mT - dtau_m.mT
    dv_hat = dv - np.matvec(dh_up, m_mu) - np.matvec(der.h_up[..., None, :, :], dm)
    dPhi = (-np.matvec(dv, m) - np.matvec(dm, der.v) + np.matvec(dm, np.vecmat(m, der.h_up))
            + 0.5 * np.vecdot(np.vecmat(m_mu, dh_up), m_mu))
    dvol = der.vol[..., None] * np.einsum("...ab,...mba->...m", finv, dframe)
    da = dabar - dphi[..., None] * m_mu - der.phi[..., None, None] * dm
    return {"v": dv, "e_inv": de_inv, "h_up": dh_up, "h_down": dh_down,
            "hbar_down": dhbar, "v_hat": dv_hat, "Phi": dPhi, "vol": dvol,
            "w": -nc.charge * dphi, "A": da}


def _nc_frames(nc: NCBackground, pt) -> NCDerived:
    """``derive_nc`` at each point of pt, (D,) or (K, D), stacked: the one loop over rows
    of the Newton-Cartan half.  Each row copies the five fields of its solve into stacks
    preallocated with pt's leading axes, so one row's solve is alive at a time (lists of
    every row's cost a 2,500-point check 2 MB); the points and phi are set once."""
    d, lead = nc.dim, pt.shape[:-1]
    frame, finv, m = np.empty(lead + (d, d)), np.empty(lead + (d, d)), np.empty(lead + (d,))
    w, vol = np.empty(lead), np.empty(lead)
    # row views of the stacks
    frames, finvs, ms = frame.reshape(-1, d, d), finv.reshape(-1, d, d), m.reshape(-1, d)
    ws, vols = w.reshape(-1), vol.reshape(-1)
    for i, row in enumerate(np.reshape(pt, (-1, d))):
        der = derive_nc(nc, row)
        frames[i], finvs[i], ms[i], ws[i], vols[i] = der.frame, der.finv, der.m, der.w, der.vol
    return NCDerived(pt=pt, frame=frame, finv=finv, m=m, phi=broadcast_read(nc.phi, pt),
                     w=w, vol=vol)


def _nc_bundle(nc: NCBackground, x) -> tuple[Array, NCDerived]:
    """The points and the frame bundle of x: x itself when it is an NCDerived of nc's
    dimension, else the checked points x and their ``_nc_frames``."""
    if isinstance(x, NCDerived):
        return check_points(x.pt, nc.dim), x
    pt = check_points(x, nc.dim)
    return pt, _nc_frames(nc, pt)


def _max_abs(a, axes=1):
    """max |a| over its trailing ``axes`` axes: one value per point."""
    return np.max(np.abs(a), axis=tuple(range(-axes, 0)))


def null_lift(nc: NCBackground, x) -> NullLift:
    """Assemble the lifted metric, its closed-form inverse and the gauge lift."""
    pt, der = _nc_bundle(nc, x)
    d = nc.dim
    tau = der.frame[..., 0]
    gamma = np.zeros(pt.shape[:-1] + (d + 1, d + 1))
    gamma[..., :d, :d] = der.hbar_down
    gamma[..., :d, d] = tau
    gamma[..., d, :d] = tau
    gamma_inv = np.zeros_like(gamma)
    gamma_inv[..., :d, :d] = der.h_up
    gamma_inv[..., :d, d] = -der.v_hat
    gamma_inv[..., d, :d] = -der.v_hat
    gamma_inv[..., d, d] = 2.0 * der.Phi
    gauge = np.concatenate([nc.reduced_gauge_at(der), der.phi[..., None]], axis=-1)
    residual = _max_abs(gamma @ gamma_inv - np.eye(d + 1), 2)
    raise_at_first(residual >= 1e-10, pt, DegenerateFrame,
                   "lift inverse residual {:.3e} exceeds 1e-10", residual)
    return NullLift(gamma=gamma, gamma_inv=gamma_inv, gauge_lift=gauge)


def frame_identity_residuals(nc: NCBackground, x) -> dict[str, Array]:
    """Max-norm defects of the defining frame relations at x."""
    _, der = _nc_bundle(nc, x)
    tau, vier = der.frame[..., 0], der.frame[..., 1:]
    return {
        "v_dot_tau": np.abs(np.vecdot(der.v, tau) + 1.0),
        "v_dot_vierbein": _max_abs(np.vecmat(der.v, vier)),
        "tau_dot_einv": _max_abs(np.matvec(der.e_inv, tau)),
        "einv_vierbein": _max_abs(der.e_inv @ vier - np.eye(nc.dim - 1), 2),
        "hup_tau": _max_abs(np.matvec(der.h_up, tau)),
    }


def ehat_identity_residual(nc: NCBackground, x) -> Array:
    """Defect of ehat.delta.ehat = hbar + 2 Phi tau tau at x."""
    _, der = _nc_bundle(nc, x)
    tau = der.frame[..., 0]
    lhs = der.e_hat @ der.e_hat.mT
    rhs = der.hbar_down + 2.0 * der.Phi[..., None, None] * (tau[..., :, None] * tau[..., None, :])
    return _max_abs(lhs - rhs, 2)


def null_lift_residuals(nc: NCBackground, x) -> dict[str, Array]:
    """Consistency defects of the lifted metric at x.

    product:     max |gamma gamma_inv - 1| for the closed-form inverse
    inverse_gap: max |gamma_inv - inv(gamma)| against numerical inversion,
                 divided by max(1, max |gamma_inv|), so that round-off at a
                 large potential (gamma^{uu} = 2 Phi) is not a defect
    volume_gap:  relative gap between sqrt(-det gamma) and |det(tau, e)|
    """
    lift = null_lift(nc, x)  # given points, it solves their frames as well
    pt, der = _nc_bundle(nc, x)
    product = _max_abs(lift.gamma @ lift.gamma_inv - np.eye(nc.dim + 1), 2)
    inverse_gap = (_max_abs(lift.gamma_inv - np.linalg.inv(lift.gamma), 2)
                   / np.maximum(1.0, _max_abs(lift.gamma_inv, 2)))
    det = np.linalg.det(lift.gamma)
    raise_at_first(det >= 0.0, pt, DegenerateFrame,
                   "lifted metric determinant {:.3e} is not negative", det)
    volume_gap = np.abs(np.sqrt(-det) - np.abs(der.vol)) / np.abs(der.vol)
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
