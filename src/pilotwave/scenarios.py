"""Curated scenario library: backgrounds, closed-form fields, oracles.

Every scenario bundles a background, a wave field with analytic first and
second derivatives, closed-form oracle data where known, a default sampling
grid, trajectory seeds and a named check suite with tolerances.  The test
suite cross-checks every analytic derivative of every registry entry
against finite differences.
"""
from __future__ import annotations

import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import field_equations as feq
from .action_principles import BoundaryValueProblem, LagrangianSystem
from .errors import BadParameter, ConfigError, UnknownScenario
from .fields import ComplexField, PolarField, polar_view
from .geometry import BackgroundRel, MetricData, _frozen, evaluate_named
from .nc_geometry import NCBackground
from .report import GridSpec, ResidualReport

Array = np.ndarray


@dataclass(frozen=True)
class Check:
    """One named residual gate: max_abs <= tol ('max') or > tol ('min')."""

    name: str
    tolerance: float
    mode: str = "max"


@dataclass(frozen=True)
class Scenario:
    name: str
    params: dict
    background: object = None
    polar: PolarField | None = None
    psi: ComplexField | None = None
    system: LagrangianSystem | None = None
    bvp: BoundaryValueProblem | None = None
    oracle: dict = field(default_factory=dict)
    default_grid: GridSpec | None = None
    default_seeds: tuple = ()
    default_span: tuple = (0.0, 5.0)
    trajectory_tolerance: float = 1e-8
    checks: tuple = ()

    def run_check(self, name: str, points) -> ResidualReport:
        """The report of check ``name`` at points (K, D), or at the points of their
        MetricData bundle, which a relativistic residual then reads in place of its own.

        An ArithmeticError becomes a NonFiniteResult naming the report and the
        first failing point (``geometry.evaluate_named``).
        """
        try:
            fn_name, field_name = CHECK_EVALUATORS[name]
        except KeyError:
            raise UnknownScenario(f"no check named '{name}'")
        if not isinstance(points, MetricData):
            points = np.atleast_2d(np.asarray(points, dtype=float))
        # looked up at call time, so a rebound field_equations function is used
        residual = partial(getattr(feq, fn_name), self.background, getattr(self, field_name))
        values = evaluate_named(f"report '{name}'", residual, points)
        return ResidualReport.from_samples(
            name, points.pt if isinstance(points, MetricData) else points, values)


# check name -> (field_equations residual, scenario field it is evaluated on)
CHECK_EVALUATORS = {
    "classical-hj": ("classical_hj_residual_rel", "polar"),
    "quantum-hj": ("quantum_hj_residual_rel", "polar"),
    "continuity": ("continuity_residual_rel", "polar"),
    "quantum-potential": ("quantum_potential_rel", "polar"),
    "linear-wave": ("linear_kg_residual", "psi"),
    "classical-wave": ("classical_field_residual", "psi"),
    "nc-classical-hj": ("nc_classical_hj_residual", "polar"),
    "nc-quantum-hj": ("nc_quantum_hj_residual", "polar"),
    "nc-continuity": ("nc_continuity_residual", "polar"),
    "nc-schrodinger": ("nc_schrodinger_residual", "psi"),
}

# Gates a command applies on its own, on top of a scenario's checks, keyed by
# the name of the report each one gates.
COMMAND_GATES = {c.name: c for c in (
    # check and reduce on a Newton-Cartan scenario, at every grid point
    Check("frame-identities", 1e-10),
    Check("ehat-identity", 1e-9),
    # max |gamma gamma_inv - 1| and max |gamma_inv - inv(gamma)| / max(1, max |gamma_inv|)
    Check("null-lift-inverse", 1e-10),
    Check("null-lift-volume", 1e-10),
    # reduce with reduce.random_frames > 0
    Check("random-frame-identities", 1e-9),
    # hj-verify (and check on an hj-foundation scenario)
    Check("hj-endpoint-momentum", 5e-5),
    Check("hj-endpoint-energy", 5e-5),
    Check("hj-pde", 1e-4),
    # superposition-demo: the linear equation holds, the classical one fails
    Check("linear-wave", 1e-9),
    Check("classical-wave", 1e-2, mode="min"),
)}


# ---------------------------------------------------------------------------
# parameter plumbing
# ---------------------------------------------------------------------------

def is_finite_real(value) -> bool:
    """True for a finite real number that fits a float; a bool is not a number here."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _integer(least, most=math.inf):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and least <= v <= most


def _vector(value) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) > 0
            and all(map(is_finite_real, value)))


# kind -> (test, what a value of that kind is)
KINDS = {
    "number": (is_finite_real, "a finite number"),
    "positive": (lambda v: is_finite_real(v) and v > 0, "a positive finite number"),
    "count": (_integer(2), "an integer >= 2"),
    "index": (_integer(0), "an integer >= 0"),
    # random_frame_background rejection-samples; its acceptance falls fast with dim
    "frame-dim": (_integer(2, 10), "an integer from 2 to 10"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "vector": (_vector, "a non-empty list of finite numbers"),
    "span": (lambda v: _vector(v) and len(v) == 2 and v[1] > v[0],
             "an increasing pair of finite numbers"),
}


def check_value(field: str, value, kind, error=ConfigError):
    """Return ``value`` if it is of ``kind``, else raise ``error(field, ...)``.

    A kind is a name in KINDS, a one-element list ``[kind]`` for a non-empty
    list of such values, or a tuple of the allowed values.
    """
    if isinstance(kind, list):
        ok, want = isinstance(value, list) and len(value) > 0, "a non-empty list"
    elif isinstance(kind, tuple):
        ok, want = value in kind, "one of " + ", ".join(kind)
    else:
        test, want = KINDS[kind]
        ok = test(value)
    if not ok:
        raise error(field, f"{reprlib.repr(value)} is not {want}")
    if isinstance(kind, list):
        for item in value:
            check_value(field, item, kind[0], error)
    return value


def _resolve(params, defaults, positive=()):
    """The defaults with ``params`` applied; an override must be of its default's
    kind (null where the default is null) and positive if named in ``positive``."""
    params = dict(params or {})
    for key, value in params.items():
        field = f"scenario.params.{key}"
        default = defaults[check_value(field, key, tuple(defaults), BadParameter)]
        kind = ("positive" if key in positive else "string" if isinstance(default, str)
                else "number" if is_finite_real(default) else "vector")
        if value is not None or default is not None:
            check_value(field, value, kind, BadParameter)
    return {**defaults, **params}


def _require(cond, key, message):
    if not cond:
        raise BadParameter(f"scenario.params.{key}", message)


# ---------------------------------------------------------------------------
# relativistic scenarios
# ---------------------------------------------------------------------------

def _components(x, *entries):
    """The entries at each point of x: a vector of D, or a D x D matrix of D^2 row by row."""
    out = np.empty(x.shape[:-1] + (len(entries),))
    for i, entry in enumerate(entries):
        out[..., i] = entry
    return out if len(entries) == x.shape[-1] else out.reshape(x.shape + x.shape[-1:])


def _plane_wave_field(p_total: Array) -> PolarField:
    """rho = 1, S = p.x with constant covector p (derivatives exact); dS hands out one
    frozen copy of p."""
    p_total = _frozen(p_total)
    d = p_total.size
    return PolarField(
        rho=lambda x: 1.0,
        S=lambda x, pv=p_total: np.vecdot(x, pv),
        drho=lambda x: np.zeros(d),
        d2rho=lambda x: np.zeros((d, d)),
        dS=lambda x, pv=p_total: pv,
        d2S=lambda x: np.zeros((d, d)),
    )


def build_minkowski_plane_wave(params) -> Scenario:
    p = _resolve(params, {"m": 1.0, "k": (0.6, 0.0, 0.0), "q": 0.0, "a": None}, positive=("m",))
    m = float(p["m"])
    k = np.atleast_1d(np.asarray(p["k"], dtype=float))
    dim = k.size + 1
    energy = float(np.sqrt(m**2 + k @ k))
    p_cov = np.concatenate([[-energy], k])
    q = float(p["q"])
    eta = np.diag([-1.0] + [1.0] * (dim - 1))
    a = None if p["a"] is None else np.asarray(p["a"], dtype=float)
    _require(a is None or a.size == dim, "a", f"gauge covector needs {dim} components")
    bg = BackgroundRel.constant(eta, A=a, mass=m, charge=q)
    pf = _plane_wave_field(p_cov if a is None else p_cov + q * a)
    u = eta @ p_cov / m  # eta is its own inverse

    def trajectory(x0, tau):
        return np.asarray(x0, dtype=float) + u * tau

    bounds = [(0.0, 2.0)] + [(-1.0, 1.0)] * (dim - 1)
    samples = [4] + [3] * (dim - 1)
    return Scenario(
        name="minkowski-plane-wave", params=p,
        background=bg, polar=pf,
        psi=None if q else _superposition_psi(np.array([1.0]), [p_cov]),
        oracle={"E": energy, "u": u, "trajectory": trajectory},
        default_grid=GridSpec(tuple(bounds), tuple(samples)),
        default_seeds=(tuple(0.0 for _ in range(dim)),),
        default_span=(0.0, 10.0),
        trajectory_tolerance=1e-9,
        checks=(
            Check("classical-hj", 1e-9),
            Check("quantum-hj", 1e-9),
            Check("continuity", 1e-9),
            Check("quantum-potential", 1e-9),
        ) + ((Check("linear-wave", 1e-9),) if not q else ()),
    )


def _superposition_psi(amps, momenta) -> ComplexField:
    """psi = sum_n a_n exp(i p_n.x), summed over the mode axis at each point."""
    amps = np.asarray(amps, dtype=complex)
    momenta = np.asarray(momenta, dtype=float)          # (modes, D)

    def waves(x):
        return np.exp(1j * np.vecdot(np.asarray(x)[..., None, :], momenta))

    def psi(x):
        return np.sum(amps * waves(x), axis=-1)

    def dpsi(x):
        return np.sum((1j * amps)[:, None] * momenta * waves(x)[..., None], axis=-2)

    def d2psi(x):
        pp = momenta[:, :, None] * momenta[:, None, :]
        return np.sum(-amps[:, None, None] * pp * waves(x)[..., None, None], axis=-3)

    return ComplexField(psi=psi, dpsi=dpsi, d2psi=d2psi)


def build_minkowski_superposition(params) -> Scenario:
    p = _resolve(params, {"m": 1.0, "k1": (0.6, 0.0, 0.0), "k2": (-0.8, 0.0, 0.0),
                          "a1": 1.0, "a2": 0.7}, positive=("m",))
    m = float(p["m"])
    k1 = np.atleast_1d(np.asarray(p["k1"], dtype=float))
    k2 = np.atleast_1d(np.asarray(p["k2"], dtype=float))
    _require(k1.size == k2.size, "k2", "k1 and k2 need equal dimension")
    _require(float(np.max(np.abs(k1 - k2))) > 1e-12, "k2", "wave vectors must differ")
    dim = k1.size + 1
    amps = np.array([complex(p["a1"]), complex(p["a2"])])
    _require(abs(abs(amps[0]) - abs(amps[1])) > 1e-6, "a2",
             "amplitudes of equal modulus create nodes on the grid")
    p1 = np.concatenate([[-np.sqrt(m**2 + k1 @ k1)], k1])
    p2 = np.concatenate([[-np.sqrt(m**2 + k2 @ k2)], k2])
    psi = _superposition_psi(amps, [p1, p2])
    bg = BackgroundRel.minkowski(dim=dim, mass=m)
    bounds = [(0.0, 3.0), (0.0, 3.0)] + [(-0.5, 0.5)] * (dim - 2)
    samples = [6, 6] + [2] * (dim - 2)
    return Scenario(
        name="minkowski-superposition", params=p,
        background=bg, psi=psi, polar=polar_view(psi),
        oracle={"p1": p1, "p2": p2},
        default_grid=GridSpec(tuple(bounds), tuple(samples)),
        checks=(
            Check("linear-wave", 1e-9),
            Check("classical-wave", 1e-2, mode="min"),
            Check("quantum-hj", 1e-7),
            Check("continuity", 1e-7),
        ),
    )


def build_curved_diagonal(params) -> Scenario:
    """Conformally perturbed Minkowski strip, D = 2: g = (1 + a x) eta.

    The phase S = -E t + W(x) with W' = sqrt(E^2 - m^2 (1 + a x)) solves the
    classical HJ equation exactly; with constant density the quantum
    potential vanishes and guidance trajectories are geodesics.
    """
    p = _resolve(params, {"a": 0.05, "E": 1.2, "m": 1.0, "x_max": 3.0,
                          "rho_profile": "constant"}, positive=("a", "m", "x_max"))
    a, energy, m, x_max = (float(p[key]) for key in ("a", "E", "m", "x_max"))
    _require(p["rho_profile"] in ("constant", "conserved"), "rho_profile",
             "must be 'constant' or 'conserved'")
    margin = energy**2 - m**2 * (1.0 + a * x_max)
    _require(margin > 0.05, "E", f"too small: W'^2 margin {margin:.3f} <= 0.05 at x_max")
    _require(1.0 - a * x_max > 0.05, "a", "conformal factor must stay positive on the strip")
    eta = np.diag([-1.0, 1.0])

    def omega2(x):
        return 1.0 + a * x[..., 1]

    bg = BackgroundRel(
        dim=2,
        metric=lambda x: omega2(x)[..., None, None] * eta,
        gauge=lambda x: np.zeros(2),
        mass=m, charge=0.0,
        dmetric=lambda x: np.stack([np.zeros((2, 2)), a * eta]),
        dgauge=lambda x: np.zeros((2, 2)),
    )

    def wprime(x1):
        return np.sqrt(energy**2 - m**2 * (1.0 + a * x1))

    def w_val(x1):
        return -2.0 * (energy**2 - m**2 * (1.0 + a * x1)) ** 1.5 / (3.0 * m**2 * a)

    if p["rho_profile"] == "constant":
        # geodesic limit: Q = 0; the trajectory current is not conserved
        rho_fns = dict(rho=lambda x: 1.0,
                       drho=lambda x: np.zeros(2),
                       d2rho=lambda x: np.zeros((2, 2)))
        checks = (Check("classical-hj", 1e-8),
                  Check("quantum-hj", 1e-8),
                  Check("quantum-potential", 1e-10))
    else:
        # rho = 1/W': the static current (rho E, rho W') is divergence-free
        half_ma = 0.5 * m**2 * a
        rho_fns = dict(
            rho=lambda x: 1.0 / wprime(x[..., 1]),
            drho=lambda x: _components(x, 0.0, half_ma / wprime(x[..., 1]) ** 3),
            d2rho=lambda x: _components(x, 0.0, 0.0,
                                        0.0, 3.0 * half_ma**2 / wprime(x[..., 1]) ** 5))
        checks = (Check("classical-hj", 1e-8),
                  Check("continuity", 1e-8))

    pf = PolarField(
        S=lambda x: -energy * x[..., 0] + w_val(x[..., 1]),
        dS=lambda x: _components(x, -energy, wprime(x[..., 1])),
        d2S=lambda x: _components(x, 0.0, 0.0, 0.0, -m**2 * a / (2.0 * wprime(x[..., 1]))),
        **rho_fns,
    )

    def velocity(x):
        return _components(x, energy, wprime(x[..., 1])) / (omega2(x)[..., None] * m)

    return Scenario(
        name="curved-diagonal", params=p,
        background=bg, polar=pf,
        oracle={"u": velocity, "W_prime": wprime},
        default_grid=GridSpec(((0.0, 5.0), (-0.8 * x_max, 0.8 * x_max)), (6, 8)),
        default_seeds=((0.0, -1.0),),
        default_span=(0.0, 5.0),
        trajectory_tolerance=1e-8,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Newton-Cartan scenarios
# ---------------------------------------------------------------------------

def build_flat_nc_plane_wave(params) -> Scenario:
    """``nc-nontrivial-M`` at M = q = phi = 0: the free plane wave, E = k^2/(2m)."""
    p = _resolve(params, {"m": 1.0, "k": 0.7}, positive=("m",))
    m, k = float(p["m"]), float(p["k"])
    sc = build_nc_nontrivial_m({"m": m, "k": k, "M_t": 0.0})
    return replace(sc, name="flat-nc-plane-wave", params=p,
                   oracle={"E": sc.oracle["E"], "velocity": k / m})


def build_flat_nc_gaussian_packet(params) -> Scenario:
    """Spreading free Gaussian packet, exact solution of the flat wave pair.

        rho(t, x) = (2 pi s^2)^(-1/2) exp(-x^2 / (2 s^2))
        S(t, x)   = x^2 beta / (4 sigma0^2 (1 + beta^2)) - arctan(beta)/2

    with beta = t/(2 m sigma0^2) and s(t) = sigma0 sqrt(1 + beta^2).  The
    guidance trajectories have the closed form x(t) = x0 s(t)/sigma0, which
    the test suite validates by brute force before relying on it.
    """
    p = _resolve(params, {"m": 1.0, "sigma0": 1.0}, positive=("m", "sigma0"))
    m = float(p["m"])
    s0 = float(p["sigma0"])
    b = 1.0 / (2.0 * m * s0**2)
    c = 1.0 / (4.0 * s0**2)

    def _beta_u(t):
        beta = b * t
        return beta, 1.0 + beta**2

    def rho(x):
        t, xx = x[..., 0], x[..., 1]
        beta, u = _beta_u(t)
        return (2.0 * np.pi * s0**2 * u) ** -0.5 * np.exp(-xx**2 / (2.0 * s0**2 * u))

    def drho(x):
        t, xx = x[..., 0], x[..., 1]
        beta, u = _beta_u(t)
        r = rho(x)
        f_t = beta * b * (xx**2 / (s0**2 * u**2) - 1.0 / u)
        return _components(x, r * f_t, r * (-xx / (s0**2 * u)))

    def d2rho(x):
        t, xx = x[..., 0], x[..., 1]
        beta, u = _beta_u(t)
        r = rho(x)
        g_x = -xx / (s0**2 * u)
        f_t = beta * b * (xx**2 / (s0**2 * u**2) - 1.0 / u)
        df_t = (b**2 * (xx**2 / (s0**2 * u**2) - 1.0 / u)
                + 2.0 * beta**2 * b**2 * (1.0 / u**2 - 2.0 * xx**2 / (s0**2 * u**3)))
        rtt = r * (f_t**2 + df_t)
        rtx = r * g_x * f_t + r * (2.0 * beta * b * xx / (s0**2 * u**2))
        rxx = r * (g_x**2 - 1.0 / (s0**2 * u))
        return _components(x, rtt, rtx, rtx, rxx)

    def s_fun(x):
        t, xx = x[..., 0], x[..., 1]
        beta, u = _beta_u(t)
        return c * xx**2 * beta / u - 0.5 * np.arctan(beta)

    def ds_fun(x):
        t, xx = x[..., 0], x[..., 1]
        beta, u = _beta_u(t)
        st = c * xx**2 * b * (1.0 - beta**2) / u**2 - b / (2.0 * u)
        sx = 2.0 * c * xx * beta / u
        return _components(x, st, sx)

    def d2s_fun(x):
        t, xx = x[..., 0], x[..., 1]
        beta, u = _beta_u(t)
        stt = -c * xx**2 * 2.0 * beta * b**2 * (3.0 - beta**2) / u**3 + beta * b**2 / u**2
        stx = 2.0 * c * xx * b * (1.0 - beta**2) / u**2
        sxx = 2.0 * c * beta / u
        return _components(x, stt, stx, stx, sxx)

    pf = PolarField(rho=rho, S=s_fun, drho=drho, d2rho=d2rho, dS=ds_fun, d2S=d2s_fun)
    from .fields import complex_view
    nc = NCBackground.flat(dim=2, mass=m)

    def sigma(t):
        beta, u = _beta_u(t)
        return s0 * np.sqrt(u)

    def bohmian_trajectory(x0, t):
        return float(x0) * sigma(t) / s0

    return Scenario(
        name="flat-nc-gaussian-packet", params=p,
        background=nc, polar=pf, psi=complex_view(pf),
        oracle={"sigma": sigma, "bohmian_trajectory": bohmian_trajectory},
        default_grid=GridSpec(((0.0, 5.0), (-4.0, 4.0)), (50, 50)),
        default_seeds=((0.0, 0.25), (0.0, -0.25), (0.0, 0.5), (0.0, -0.5), (0.0, 1.0)),
        default_span=(0.0, 5.0),
        trajectory_tolerance=1e-5,
        checks=(
            Check("nc-quantum-hj", 1e-6),
            Check("nc-continuity", 1e-6),
            Check("nc-schrodinger", 1e-6),
        ),
    )


def build_nc_nontrivial_m(params) -> Scenario:
    """Flat clock and vierbein with constant M_mu and potential phi.

    Exercises Phi = M_t + M_x^2/2 and vhat = v - h M; the plane-wave phase
    is placed on shell through the closed-form dispersion relation
    E = q phi M_t + M_x kappa_x + kappa_x^2/(2 w) + w Phi with
    kappa_x = k + q phi M_x and w = m - q phi; w enters unsquared, so a
    mass near the float limit does not overflow the build.
    """
    p = _resolve(params, {"m": 1.0, "q": 0.0, "phi": 0.0, "M_t": 0.3, "M_x": 0.0,
                          "k": 0.7}, positive=("m",))
    m, q, phi, m_t, m_x, k = (float(p[key]) for key in ("m", "q", "phi", "M_t", "M_x", "k"))
    w = m - q * phi
    _require(abs(w) > 1e-10, "phi", "effective mass m - q phi vanishes")
    nc = NCBackground.constant(tau=[1.0, 0.0], vierbein=[[0.0], [1.0]],
                               m_field=[m_t, m_x], phi=phi, mass=m, charge=q)
    phi_pot = m_t + 0.5 * m_x**2
    kappa_x = k + q * phi * m_x
    energy = q * phi * m_t + m_x * kappa_x + kappa_x**2 / (2.0 * w) + w * phi_pot
    p_cov = np.array([-energy, k])
    pf = _plane_wave_field(p_cov)
    psi = _superposition_psi(np.array([1.0]), [p_cov])
    return Scenario(
        name="nc-nontrivial-M", params=p,
        background=nc, polar=pf, psi=psi,
        oracle={"E": energy, "Phi": phi_pot},
        default_grid=GridSpec(((0.0, 2.0), (-1.0, 1.0)), (5, 5)),
        default_seeds=((0.0, 0.0),),
        default_span=(0.0, 5.0),
        trajectory_tolerance=1e-9,
        checks=(
            Check("nc-classical-hj", 1e-9),
            Check("nc-quantum-hj", 1e-9),
            Check("nc-continuity", 1e-9),
            Check("nc-schrodinger", 1e-9),
        ),
    )


# ---------------------------------------------------------------------------
# action-extremization scenarios
# ---------------------------------------------------------------------------

def build_free_particle_hj(params) -> Scenario:
    p = _resolve(params, {"m": 1.0}, positive=("m",))
    m = float(p["m"])
    sys = LagrangianSystem(
        dim=1,
        lagrangian=lambda X, V, lam: 0.5 * m * (V * V).sum(axis=1),
        hamiltonian=lambda x, pp: float(np.sum(np.asarray(pp)**2) / (2.0 * m)),
    )

    def action(x0, t0, xf, tf):
        return m * (xf - x0) ** 2 / (2.0 * (tf - t0))

    def solution(x0, t0, xf, tf, lam):
        return x0 + (xf - x0) * (lam - t0) / (tf - t0)

    return Scenario(
        name="free-particle-hj", params=p,
        system=sys,
        bvp=BoundaryValueProblem(x0=[0.0], xf=[1.0], lambda0=0.0, lambdaf=1.0),
        oracle={"action": action, "solution": solution},
        default_grid=GridSpec(((0.6, 1.5), (0.8, 1.7)), (10, 10)),
    )


def build_harmonic_oscillator_hj(params) -> Scenario:
    p = _resolve(params, {"m": 1.0, "omega": 1.0}, positive=("m", "omega"))
    m = float(p["m"])
    omega = float(p["omega"])
    sys = LagrangianSystem(
        dim=1,
        lagrangian=lambda X, V, lam: 0.5 * m * (V * V).sum(axis=1)
        - 0.5 * m * omega**2 * (X * X).sum(axis=1),
        hamiltonian=lambda x, pp: float(np.sum(np.asarray(pp)**2) / (2.0 * m)
                                        + 0.5 * m * omega**2 * np.sum(np.asarray(x)**2)),
    )

    def action(x0, t0, xf, tf):
        wt = omega * (tf - t0)
        if abs(np.sin(wt)) < 1e-12:
            raise BadParameter("scenario.params.omega",
                               "conjugate point: omega (tf - t0) is a multiple of pi")
        return m * omega * ((x0**2 + xf**2) * np.cos(wt) - 2.0 * x0 * xf) / (2.0 * np.sin(wt))

    def solution(x0, t0, xf, tf, lam):
        wt = omega * (tf - t0)
        return (x0 * np.sin(omega * (tf - lam)) + xf * np.sin(omega * (lam - t0))) / np.sin(wt)

    return Scenario(
        name="harmonic-oscillator-hj", params=p,
        system=sys,
        bvp=BoundaryValueProblem(x0=[0.0], xf=[1.0], lambda0=0.0, lambdaf=1.5),
        oracle={"action": action, "solution": solution},
        default_grid=GridSpec(((0.2, 1.1), (0.8, 1.7)), (10, 10)),
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

REGISTRY = {
    "minkowski-plane-wave": build_minkowski_plane_wave,
    "minkowski-superposition": build_minkowski_superposition,
    "curved-diagonal": build_curved_diagonal,
    "flat-nc-plane-wave": build_flat_nc_plane_wave,
    "flat-nc-gaussian-packet": build_flat_nc_gaussian_packet,
    "nc-nontrivial-M": build_nc_nontrivial_m,
    "free-particle-hj": build_free_particle_hj,
    "harmonic-oscillator-hj": build_harmonic_oscillator_hj,
}


def build(name: str, params: dict | None = None) -> Scenario:
    """Construct a registry scenario by name with parameter overrides."""
    if name not in REGISTRY:
        raise UnknownScenario(f"unknown scenario '{name}' (known: {', '.join(sorted(REGISTRY))})")
    try:
        return REGISTRY[name](params)
    except ArithmeticError as exc:  # closed forms of overrides that under- or overflow
        raise BadParameter("scenario.params", f"out of floating-point range: {exc}")
