"""Guidance trajectories, particle Lagrangians and constraint monitoring.

Velocity laws through a fixed wave field (the field is never back-reacted):

    relativistic    u^M = g^{MN}(d_N S - q A_N) / m      (proper time,
                    u.g.u = -1 whenever classical HJ holds)
    Newton-Cartan   Xdot ~ w vhat^mu - h^{mu nu}(d_nu S - q A_nu),
                    normalized so tau_mu Xdot^mu = 1     (absolute time)

Lagrangians:

    L_Q = -sqrt(m^2 + Q) sqrt(-Xdot.g.Xdot) + q A.Xdot
    L_nc = w/(2 tau.Xdot) Xdot hbar Xdot + q A.Xdot  [+ Q tau.Xdot/(2w)]

Both carry the coefficients that survive a Legendre-transform round trip:
eliminating the constraint multiplier from the quantum Hamiltonian gives a
unit coefficient on the relativistic square root (so Q = 0 recovers
-m sqrt(-Xdot.g.Xdot)) and Q tau.Xdot/(2w) on the Newton-Cartan quantum
term (so finite-difference momenta reproduce dS on guidance trajectories).

A velocity row is one point, and it checks that point and reads each
closure it needs once: on Newton-Cartan data tau, e, M and phi through one
``derive_nc``, then Abar and dS, with h^{mu nu} formed once; on Lorentzian
data g (through the checks of ``metric_inverse``), then A and dS, with two
point checks.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateVelocity, ImaginaryMass, MassSingular,
                     NodeEncountered, NonFiniteResult, TachyonicInput)
from .field_equations import (hj_expression, momentum_covector, nc_hj_expression,
                              nc_momentum_covector, nc_quantum_potential,
                              quantum_potential_rel)
from .fields import EPS_NODE, PolarField
from .geometry import (BackgroundRel, _checked_inverse, broadcast_read, check_point,
                       check_points)
from .integrators import hermite, integrate_adaptive
from .nc_geometry import NCBackground, _nc_frames, derive_nc
from .report import ResidualReport, _csv, _json_floats, _json_list

Array = np.ndarray

MASS_FLOOR = 1e-12
MAX_STEP_FRAC = 1e-2   # largest node-guard sample gap, as a fraction of the lambda span


def guidance_velocity_rel(bg: BackgroundRel, f: PolarField, x) -> Array:
    """u^M = g^{MN}(d_N S - q A_N)/m; unit timelike on the mass shell."""
    if bg.mass <= MASS_FLOOR:
        raise MassSingular("relativistic guidance needs a positive mass")
    pt = check_point(x, bg.dim)
    ginv = _checked_inverse(bg._metric(pt), pt)[0]  # metric_inverse, without a second check
    return ginv @ momentum_covector(bg, f, pt) / bg.mass


def guidance_velocity_nc(nc: NCBackground, f: PolarField, x) -> Array:
    """NC guidance velocity normalized to absolute time, tau.Xdot = 1.

    Proportional to w vhat^mu - h^{mu nu} k_nu; the normalization factor is
    -1/w, so Xdot = -vhat + h k / w.  The point, the frame, M and phi come
    from one ``derive_nc``, and k from its bundle.
    """
    der = derive_nc(nc, x)
    w = der.w
    if abs(w) <= MASS_FLOOR:
        raise MassSingular(f"effective mass m - q phi = {w:.3e} vanishes")
    k = nc_momentum_covector(nc, f, der)
    return -der.v_hat + der.h_up @ k / w


@dataclass(frozen=True)
class GuidanceField:
    """A background plus a polar field with a velocity-law selector.

    The law follows the background kind; ``quantum`` picks whether sample
    constraint residuals include the quantum potential.
    """

    background: object
    field: PolarField
    quantum: bool = True

    @property
    def kind(self) -> str:
        if isinstance(self.background, BackgroundRel):
            return "relativistic"
        if isinstance(self.background, NCBackground):
            return "newton-cartan"
        raise TypeError(f"unsupported background {type(self.background)!r}")

    def velocity(self, x) -> Array:
        if self.kind == "relativistic":
            return guidance_velocity_rel(self.background, self.field, x)
        return guidance_velocity_nc(self.background, self.field, x)

    def constraint_residual(self, x, p=None) -> Array:
        """HJ expression of the kinetic covector p - qA at x, plus Q if quantum.

        x is one point (D,) or a batch (K, D), with momenta p of the same
        shape; they default to the field's phase gradient dS.  On
        Newton-Cartan data one frame solve per point serves A, the HJ
        expression and Q.  The Lorentzian branch keeps the ``metric_inverse``
        of ``hj_expression`` beside Q's ``metric_data``: on a worldline it is
        the only call ``EXERCISED`` in ``perfbench/run.py`` counts.
        """
        bg, f = self.background, self.field
        pt = check_points(x, bg.dim)
        p = broadcast_read(f.dS, pt, 1) if p is None else np.asarray(p, dtype=float)
        if self.kind == "relativistic":
            val = hj_expression(bg, pt, p - bg.charge * bg.gauge_at(pt))
            return val + quantum_potential_rel(bg, f, pt) if self.quantum else val
        der = _nc_frames(bg, pt)
        val = nc_hj_expression(bg, der, p - bg.charge * bg.reduced_gauge_at(der))
        return val + nc_quantum_potential(bg, f, der) if self.quantum else val

    @property
    def parametrization(self) -> str:
        return "proper_time" if self.kind == "relativistic" else "coordinate_time"


@dataclass(frozen=True)
class Trajectory:
    """Sampled worldline with recorded momenta and constraint defects."""

    parametrization: str
    lambdas: Array          # (K,), strictly increasing
    points: Array           # (K, D)
    momenta: Array          # (K, D), p_M = d_M S at each sample
    constraint: Array       # (K,)

    def __post_init__(self):
        if np.any(np.diff(self.lambdas) <= 0):
            raise ValueError("trajectory parameter must be strictly increasing")
        k = self.lambdas.size
        if self.points.shape[0] != k or self.momenta.shape != self.points.shape \
                or self.constraint.shape != (k,):
            raise ValueError("trajectory arrays disagree in shape")

    def __len__(self) -> int:
        return int(self.lambdas.size)

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    def to_csv(self) -> str:
        d = self.dim
        header = ["lambda"] + [f"X{i}" for i in range(d)] \
            + [f"p{i}" for i in range(d)] + ["constraint_residual"]
        return _csv(header, self.lambdas, self.points, self.momenta, self.constraint)

    def to_json(self) -> str:
        """The trajectory as json.dumps(..., sort_keys=True, indent=1) would write it."""
        arrays = {"X": self.points, "constraint_residual": self.constraint,
                  "lambda": self.lambdas, "p": self.momenta}
        body = "".join(f' "{key}": {_json_list(_json_floats(a, 1), 1)},\n'
                       for key, a in arrays.items())
        return "{\n" + body + f' "parametrization": {json.dumps(self.parametrization)}\n}}'


def integrate_trajectory(gf: GuidanceField, x0, lambda_span, steps: int = 101,
                         rtol: float = 1e-9, atol: float = 1e-12) -> Trajectory:
    """Integrate the guidance law from x0 over lambda_span.

    ``steps`` is the number of output samples (lambda values, uniformly
    spaced, endpoints included).  One adaptive Dormand-Prince call per
    output interval sub-steps between samples with relative/absolute
    tolerances as given; each call's first trial step is the whole interval,
    each interval after the first starts from the previous interval's final
    derivative (FSAL k7), and samples land exactly on the output values.
    The node guard runs after every accepted step: it reads the density once
    on the step's cubic Hermite interpolant, at the step end and at interior
    points at most MAX_STEP_FRAC * span apart, and bisects on the
    interpolant between the last sample above the node threshold and the
    first at or below it.  Raises NodeEncountered if the density falls to
    the node threshold, carrying the located lambda on ``lam`` and the
    samples before the node on ``partial`` when there are at least two,
    StepFailure if error control cannot proceed, and NonFiniteResult,
    naming the end of the last accepted step, for an ArithmeticError.
    """
    bg = gf.background
    x0 = check_point(x0, bg.dim)
    l0, lf = float(lambda_span[0]), float(lambda_span[1])
    if not lf > l0:
        raise ValueError("lambda span must be increasing")
    if steps < 2:
        raise ValueError("need at least 2 samples")
    gf.field.rho_checked(x0)

    def rhs(_lam, y):
        return gf.velocity(y)

    gap = MAX_STEP_FRAC * (lf - l0)
    reached = [l0, None]  # the end of the last accepted step and the derivative there

    def node_guard(*step):
        def below(lams):
            """Whether the density on the step's interpolant is at the node threshold at
            each of lams, read once for all of them."""
            return broadcast_read(gf.field.rho, hermite(*step, lams)) <= EPS_NODE

        t0, t1 = step[0], step[3]
        # n gaps of at most `gap`; the slack keeps round-off in the ratio from adding one
        lams = np.linspace(t0, t1, max(1, math.ceil((t1 - t0) / gap - 1e-9)) + 1)
        hits = np.flatnonzero(below(lams[1:]))
        if hits.size:
            lo, hi = lams[hits[0]], lams[hits[0] + 1]
            while hi - lo > 1e-12 * max(1.0, abs(hi)):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if below([mid])[0] else (mid, hi)
            raise NodeEncountered(f"density hit node threshold at lambda={hi:.9g}",
                                  lam=float(hi))
        reached[:] = t1, step[5]

    lambdas = np.linspace(l0, lf, steps)
    samples = [x0]
    try:
        for k in range(1, steps):
            out = integrate_adaptive(rhs, lambdas[k - 1], samples[-1], lambdas[k:k + 1],
                                     rtol, atol, step_callback=node_guard, k1=reached[1])
            samples.append(out[0])
    except NodeEncountered as exc:
        if len(samples) >= 2:
            done = len(samples)
            exc.partial = _assemble_trajectory(gf, lambdas[:done], np.array(samples))
        raise
    except ArithmeticError as exc:
        raise NonFiniteResult(f"{type(exc).__name__}: {exc} after lambda={reached[0]:.9g}") from exc
    return _assemble_trajectory(gf, lambdas, np.array(samples))


def _assemble_trajectory(gf: GuidanceField, lambdas, points) -> Trajectory:
    momenta = np.array(broadcast_read(gf.field.dS, points, 1))
    constraint = gf.constraint_residual(points, momenta)
    return Trajectory(parametrization=gf.parametrization, lambdas=lambdas,
                      points=points, momenta=momenta, constraint=constraint)


# ---------------------------------------------------------------------------
# Lagrangians and Legendre checks
# ---------------------------------------------------------------------------

def lagrangian_quantum_rel(bg: BackgroundRel, f: PolarField | None, x, xdot,
                           Q: float | None = None) -> float:
    """L_Q = -sqrt(m^2 + Q) sqrt(-Xdot.g.Xdot) + q A.Xdot.

    Q is evaluated from the field unless supplied directly.
    """
    pt = check_point(x, bg.dim)
    xdot = np.asarray(xdot, dtype=float)
    g = bg.metric_at(pt)
    speed2 = float(xdot @ g @ xdot)
    if speed2 >= 0.0:
        raise TachyonicInput(f"Xdot.g.Xdot = {speed2:.3e} is not timelike")
    if Q is None:
        Q = quantum_potential_rel(bg, f, pt)
    m2q = bg.mass**2 + Q
    if m2q <= 0.0:
        raise ImaginaryMass(f"m^2 + Q = {m2q:.3e} is not positive")
    return float(-np.sqrt(m2q) * np.sqrt(-speed2) + bg.charge * (bg.gauge_at(pt) @ xdot))


def momentum_quantum_rel(bg: BackgroundRel, f: PolarField | None, x, xdot,
                         Q: float | None = None) -> Array:
    """Conjugate momenta of L_Q: sqrt(m^2+Q) g Xdot / sqrt(-Xdot.g.Xdot) + qA."""
    pt = check_point(x, bg.dim)
    xdot = np.asarray(xdot, dtype=float)
    g = bg.metric_at(pt)
    speed2 = float(xdot @ g @ xdot)
    if speed2 >= 0.0:
        raise TachyonicInput("momenta need a timelike velocity")
    if Q is None:
        Q = quantum_potential_rel(bg, f, pt)
    m2q = bg.mass**2 + Q
    if m2q <= 0.0:
        raise ImaginaryMass(f"m^2 + Q = {m2q:.3e} is not positive")
    return np.sqrt(m2q) * (g @ xdot) / np.sqrt(-speed2) + bg.charge * bg.gauge_at(pt)


def lagrangian_nc(nc: NCBackground, f: PolarField | None, x, xdot,
                  quantum: bool = False, Q: float | None = None) -> float:
    """Newton-Cartan particle Lagrangian, classical or quantum.

    Classical: w/(2 tau.Xdot) Xdot hbar Xdot + q A.Xdot.  The quantum flag
    adds Q tau.Xdot / (2 w).  Inputs with tau.Xdot <= 0 are rejected: the
    absolute-time gauge does not extend to backward-in-time motion.
    """
    pt = check_point(x, nc.dim)
    xdot = np.asarray(xdot, dtype=float)
    der = derive_nc(nc, pt)
    tau, w = der.frame[:, 0], der.w
    tdot = float(tau @ xdot)
    if tdot <= MASS_FLOOR:
        raise DegenerateVelocity(f"tau.Xdot = {tdot:.3e} must be positive")
    if abs(w) <= MASS_FLOOR:
        raise MassSingular(f"effective mass m - q phi = {w:.3e} vanishes")
    a_red = nc.reduced_gauge_at(pt)
    val = w / (2.0 * tdot) * float(xdot @ der.hbar_down @ xdot) \
        + nc.charge * float(a_red @ xdot)
    if quantum:
        if Q is None:
            Q = nc_quantum_potential(nc, f, pt)
        val += Q * tdot / (2.0 * w)
    return float(val)


def momentum_nc_classical(nc: NCBackground, x, xdot) -> Array:
    """Conjugate momenta of the classical NC Lagrangian:

    p_mu = -w/(2 (tau.Xdot)^2) tau_mu (Xdot hbar Xdot)
           + w hbar_{mu nu} Xdot^nu / (tau.Xdot) + q A_mu.
    """
    pt = check_point(x, nc.dim)
    xdot = np.asarray(xdot, dtype=float)
    der = derive_nc(nc, pt)
    tau, w = der.frame[:, 0], der.w
    tdot = float(tau @ xdot)
    if tdot <= MASS_FLOOR:
        raise DegenerateVelocity(f"tau.Xdot = {tdot:.3e} must be positive")
    hbx = der.hbar_down @ xdot
    return (-w / (2.0 * tdot**2) * float(xdot @ hbx) * tau
            + w * hbx / tdot + nc.charge * nc.reduced_gauge_at(pt))


def hamiltonian_constraint_residual(traj: Trajectory, gf: GuidanceField) -> ResidualReport:
    """Constraint defect at every trajectory sample.

    Relativistic: (p - qA) g^{-1} (p - qA) + m^2 + Q;
    Newton-Cartan: 2 w vhat.(p - qA) - (p - qA) h (p - qA) - 2 Phi w^2 + Q,
    with p the recorded sample momenta (Q dropped when gf.quantum is off).
    """
    return ResidualReport.from_samples("hamiltonian-constraint", traj.points,
                                       gf.constraint_residual(traj.points, traj.momenta))
