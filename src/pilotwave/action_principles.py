"""Action functionals, trajectory extremization and endpoint derivatives.

The action S = integral of L(X, Xdot, lambda) is extremized between fixed
endpoints by damped Newton iteration on collocated stationarity conditions:
on a uniform lambda grid with fourth-order differentiation stencils, the
residual at each interior node is

    R_i = dL/dX(X_i, V_i, lambda_i) - d/dlambda [dL/dXdot]_i,

with V = D X and the outer d/dlambda applied by the same stencils to the
nodal momenta p_i = dL/dXdot.  Newton drives max|R| below tolerance.

Endpoint derivatives of the extremal action are the content of the
Hamilton-Jacobi relations:

    dS/dX_f = p(lambda_f),      dS/dlambda_f = -H(lambda_f),

verified here by re-extremizing at displaced endpoints, with one Richardson
extrapolation step on the central differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoConvergence
from .report import ResidualReport

Array = np.ndarray

ARG_STEP = 1e-5          # FD step for dL/dX, dL/dXdot
JACOBIAN_STEP = 1e-6
# The residual noise floor is eps*|L|/ARG_STEP amplified by the stencil row
# sum ~ 1.5/dl; 1e-8 sits above it for unit-scale problems on spans >~ 0.5.
NEWTON_TOL = 1e-8
MAX_NEWTON_ITER = 60
_COLOR_STRIDE = 13       # exceeds the residual dependence bandwidth


@dataclass(frozen=True)
class LagrangianSystem:
    """Configuration-space Lagrangian with optional analytic cross-checks.

    ``lagrangian(X, V, lam)`` must be vectorized over nodes: X and V have
    shape (n, dim), lam shape (n,), and the result shape (n,).  The
    analytic ``hamiltonian(x, p)`` and ``momentum(x, v)`` closures are used
    only for verification, never by the solver.
    """

    dim: int
    lagrangian: Callable[[Array, Array, Array], Array]
    hamiltonian: Callable[[Array, Array], float] | None = None
    momentum: Callable[[Array, Array], Array] | None = None

    def single(self, x, v, lam) -> float:
        val = self.lagrangian(np.atleast_2d(x), np.atleast_2d(v), np.atleast_1d(lam))
        return float(np.asarray(val).reshape(-1)[0])


@dataclass(frozen=True)
class BoundaryValueProblem:
    """Fixed-endpoint problem on a uniform grid of ``intervals`` steps."""

    x0: Array
    xf: Array
    lambda0: float
    lambdaf: float
    intervals: int = 64

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        object.__setattr__(self, "xf", np.atleast_1d(np.asarray(self.xf, dtype=float)))
        if not self.lambdaf > self.lambda0:
            raise ValueError("lambdaf must exceed lambda0")
        if self.intervals < 10 or self.intervals % 2:
            raise ValueError("need an even interval count of at least 10")

    def grid(self) -> Array:
        return np.linspace(self.lambda0, self.lambdaf, self.intervals + 1)


@dataclass(frozen=True)
class DiscretizedPath:
    """Uniformly sampled trajectory with nodal velocities."""

    lambdas: Array   # (n,)
    points: Array    # (n, dim)
    velocities: Array

    @property
    def intervals(self) -> int:
        return int(self.lambdas.size - 1)


def differentiation_matrix(n: int, dl: float) -> Array:
    """Fourth-order first-derivative matrix on a uniform n-point grid."""
    if n < 5:
        raise ValueError("need at least 5 nodes for the fourth-order stencils")
    d = np.zeros((n, n))
    d[0, :5] = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
    d[1, :5] = np.array([-3.0, -10.0, 18.0, -6.0, 1.0])
    for i in range(2, n - 2):
        d[i, i - 2:i + 3] = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
    d[n - 2, n - 5:] = -d[1, :5][::-1]
    d[n - 1, n - 5:] = -d[0, :5][::-1]
    return d / (12.0 * dl)


def _nodal_partials(sys: LagrangianSystem, X, V, lam, step=ARG_STEP):
    """dL/dX and dL/dV at every node by vectorized central differences."""
    n, dim = X.shape
    lx = np.empty((n, dim))
    lv = np.empty((n, dim))
    for d in range(dim):
        e = np.zeros((1, dim))
        e[0, d] = step
        lx[:, d] = (sys.lagrangian(X + e, V, lam) - sys.lagrangian(X - e, V, lam)) / (2 * step)
        lv[:, d] = (sys.lagrangian(X, V + e, lam) - sys.lagrangian(X, V - e, lam)) / (2 * step)
    return lx, lv


def euler_lagrange_residual(sys: LagrangianSystem, path: DiscretizedPath) -> Array:
    """Collocated stationarity residual at the interior nodes, (n-2, dim)."""
    n = path.lambdas.size
    dl = (path.lambdas[-1] - path.lambdas[0]) / (n - 1)
    dmat = differentiation_matrix(n, dl)
    lx, lv = _nodal_partials(sys, path.points, path.velocities, path.lambdas)
    dp = dmat @ lv
    return (lx - dp)[1:-1]


def _residual_from_interior(sys, bvp, dmat, lam, interior):
    n = lam.size
    dim = bvp.x0.size
    X = np.empty((n, dim))
    X[0] = bvp.x0
    X[-1] = bvp.xf
    X[1:-1] = interior.reshape(n - 2, dim)
    V = dmat @ X
    lx, lv = _nodal_partials(sys, X, V, lam)
    return ((lx - dmat @ lv)[1:-1]).ravel(), X, V


def extremize(sys: LagrangianSystem, bvp: BoundaryValueProblem,
              initial: Array | None = None, tol: float = NEWTON_TOL,
              max_iter: int = MAX_NEWTON_ITER) -> DiscretizedPath:
    """Damped-Newton solve of the collocated stationarity conditions.

    ``initial`` may supply a full (n, dim) starting path (endpoints are
    overwritten); the default is the straight line.  Raises NoConvergence
    with the best residual reached when the iteration stalls.
    """
    lam = bvp.grid()
    n = lam.size
    dim = bvp.x0.size
    dl = (bvp.lambdaf - bvp.lambda0) / bvp.intervals
    dmat = differentiation_matrix(n, dl)
    if initial is None:
        frac = (lam - bvp.lambda0) / (bvp.lambdaf - bvp.lambda0)
        init_path = bvp.x0[None, :] + frac[:, None] * (bvp.xf - bvp.x0)[None, :]
    else:
        init_path = np.asarray(initial, dtype=float).reshape(n, dim)
    u = init_path[1:-1].ravel().copy()

    r, _, _ = _residual_from_interior(sys, bvp, dmat, lam, u)
    best = float(np.max(np.abs(r))) if r.size else 0.0
    jac = None
    refreshed = False
    for _ in range(max_iter):
        if np.max(np.abs(r)) < tol:
            break
        if jac is None:
            jac = _colored_jacobian(sys, bvp, dmat, lam, u, r, dim)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular Newton system: {exc}", best_residual=best)
        norm0 = float(r @ r)
        alpha = 1.0
        r_try = None
        for _ in range(30):
            r_cand, _, _ = _residual_from_interior(sys, bvp, dmat, lam, u + alpha * step)
            if float(r_cand @ r_cand) <= (1.0 - 1e-4 * alpha) * norm0:
                r_try = r_cand
                break
            alpha *= 0.5
        if r_try is None:
            if refreshed:
                raise NoConvergence("line search stalled", best_residual=best)
            jac = None  # stale chord Jacobian: rebuild once and retry
            refreshed = True
            continue
        refreshed = False
        u = u + alpha * step
        r = r_try
        best = min(best, float(np.max(np.abs(r))))
        if alpha < 1.0:
            jac = None
    else:
        raise NoConvergence(f"no convergence after {max_iter} iterations",
                            best_residual=best)
    _, X, V = _residual_from_interior(sys, bvp, dmat, lam, u)
    return DiscretizedPath(lambdas=lam, points=X, velocities=V)


def _colored_jacobian(sys, bvp, dmat, lam, u, r0, dim):
    """FD Jacobian, grouping columns separated by the dependence bandwidth."""
    m = u.size
    n_nodes = m // dim
    jac = np.zeros((m, m))
    h = JACOBIAN_STEP
    for color in range(min(_COLOR_STRIDE, n_nodes)):
        for d in range(dim):
            cols = [node * dim + d for node in range(color, n_nodes, _COLOR_STRIDE)]
            du = np.zeros(m)
            du[cols] = h
            r_plus, _, _ = _residual_from_interior(sys, bvp, dmat, lam, u + du)
            r_minus, _, _ = _residual_from_interior(sys, bvp, dmat, lam, u - du)
            dr = (r_plus - r_minus) / (2 * h)
            for col in cols:
                node = col // dim
                lo = max(0, (node - _COLOR_STRIDE // 2)) * dim
                hi = min(n_nodes, node + _COLOR_STRIDE // 2 + 1) * dim
                jac[lo:hi, col] = dr[lo:hi]
    return jac


def action_value(sys: LagrangianSystem, path: DiscretizedPath) -> float:
    """Composite Simpson quadrature of L along the path (even intervals)."""
    n = path.lambdas.size
    if (n - 1) % 2:
        raise ValueError("Simpson quadrature needs an even interval count")
    vals = sys.lagrangian(path.points, path.velocities, path.lambdas)
    dl = (path.lambdas[-1] - path.lambdas[0]) / (n - 1)
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(dl / 3.0 * (weights @ vals))


def endpoint_state(sys: LagrangianSystem, path: DiscretizedPath):
    """(p_f, H_f) at the final node, from finite differences of L."""
    xf = path.points[-1]
    vf = path.velocities[-1]
    lamf = path.lambdas[-1]
    p = np.empty_like(vf)
    for d in range(vf.size):
        e = np.zeros_like(vf)
        e[d] = ARG_STEP
        p[d] = (sys.single(xf, vf + e, lamf) - sys.single(xf, vf - e, lamf)) / (2 * ARG_STEP)
    h = float(p @ vf - sys.single(xf, vf, lamf))
    return p, h


def _extremal_action(sys, bvp, initial=None):
    path = extremize(sys, bvp, initial=initial)
    return action_value(sys, path), path


def _replace_endpoint(bvp, xf=None, lambdaf=None):
    return BoundaryValueProblem(
        x0=bvp.x0, xf=bvp.xf if xf is None else xf,
        lambda0=bvp.lambda0,
        lambdaf=bvp.lambdaf if lambdaf is None else lambdaf,
        intervals=bvp.intervals)


def _ramp_guess(base: DiscretizedPath, delta: Array) -> Array:
    frac = (base.lambdas - base.lambdas[0]) / (base.lambdas[-1] - base.lambdas[0])
    return base.points + frac[:, None] * delta[None, :]


def _rescale_guess(base: DiscretizedPath, new_lam: Array) -> Array:
    old = base.lambdas
    out = np.empty((new_lam.size, base.points.shape[1]))
    for d in range(base.points.shape[1]):
        out[:, d] = np.interp(new_lam, old, base.points[:, d])
    return out


@dataclass(frozen=True)
class EndpointDerivatives:
    """Endpoint sensitivities of the extremal action at one boundary datum."""

    dS_dXf: Array
    p_f: Array
    dS_dlambdaf: float
    H_f: float
    action: float


def endpoint_derivatives(sys: LagrangianSystem, bvp: BoundaryValueProblem,
                         fd_step: float = 1e-4) -> EndpointDerivatives:
    """Finite-difference endpoint derivatives of the extremal action.

    Central differences at steps fd_step and fd_step/2 combined by one
    Richardson extrapolation; each displaced problem is re-extremized,
    warm-started from the base extremal.
    """
    s0, base = _extremal_action(sys, bvp)
    dim = bvp.x0.size

    def slope_x(d, delta):
        e = np.zeros(dim)
        e[d] = delta
        sp, _ = _extremal_action(sys, _replace_endpoint(bvp, xf=bvp.xf + e),
                                 initial=_ramp_guess(base, e))
        sm, _ = _extremal_action(sys, _replace_endpoint(bvp, xf=bvp.xf - e),
                                 initial=_ramp_guess(base, -e))
        return (sp - sm) / (2 * delta)

    ds_dx = np.empty(dim)
    for d in range(dim):
        coarse = slope_x(d, fd_step)
        fine = slope_x(d, fd_step / 2)
        ds_dx[d] = (4.0 * fine - coarse) / 3.0

    def slope_lam(delta):
        bp = _replace_endpoint(bvp, lambdaf=bvp.lambdaf + delta)
        bm = _replace_endpoint(bvp, lambdaf=bvp.lambdaf - delta)
        sp, _ = _extremal_action(sys, bp, initial=_rescale_guess(base, bp.grid()))
        sm, _ = _extremal_action(sys, bm, initial=_rescale_guess(base, bm.grid()))
        return (sp - sm) / (2 * delta)

    coarse = slope_lam(fd_step)
    fine = slope_lam(fd_step / 2)
    ds_dl = (4.0 * fine - coarse) / 3.0

    p_f, h_f = endpoint_state(sys, base)
    return EndpointDerivatives(dS_dXf=ds_dx, p_f=p_f, dS_dlambdaf=float(ds_dl),
                               H_f=h_f, action=s0)


def verify_hj_relations(sys: LagrangianSystem, bvps,
                        fd_step: float = 1e-4) -> dict[str, ResidualReport]:
    """Check dS/dX_f = p and dS/dlambda_f = -H over one or many problems.

    Returns reports keyed 'momentum' (max |dS/dX_f - p_f| per problem),
    'energy' (|dS/dlambda_f + H_f|), and, when the system carries an
    analytic Hamiltonian, 'pde' (|dS/dlambda_f + H(X_f, dS/dX_f)|), each
    sampled at the point (X_f..., lambda_f).
    """
    if isinstance(bvps, BoundaryValueProblem):
        bvps = [bvps]
    pts, vals_p, vals_h, vals_pde = [], [], [], []
    for bvp in bvps:
        der = endpoint_derivatives(sys, bvp, fd_step=fd_step)
        pts.append(np.concatenate([bvp.xf, [bvp.lambdaf]]))
        vals_p.append(np.max(np.abs(der.dS_dXf - der.p_f)))
        vals_h.append(abs(der.dS_dlambdaf + der.H_f))
        if sys.hamiltonian is not None:
            vals_pde.append(abs(der.dS_dlambdaf
                                + float(sys.hamiltonian(bvp.xf, der.dS_dXf))))
    out = {
        "momentum": ResidualReport.from_samples("hj-endpoint-momentum", pts, vals_p),
        "energy": ResidualReport.from_samples("hj-endpoint-energy", pts, vals_h),
    }
    if vals_pde:
        out["pde"] = ResidualReport.from_samples("hj-pde", pts, vals_pde)
    return out


def hermite_resample(path: DiscretizedPath, refine: int) -> DiscretizedPath:
    """Piecewise cubic Hermite refinement of a path (nodes plus velocities)."""
    lam = path.lambdas
    n = lam.size
    new_lam = np.linspace(lam[0], lam[-1], (n - 1) * refine + 1)
    pts = np.empty((new_lam.size, path.points.shape[1]))
    vel = np.empty_like(pts)
    dl = lam[1] - lam[0]
    idx = np.minimum(((new_lam - lam[0]) / dl).astype(int), n - 2)
    t = (new_lam - lam[idx]) / dl
    for d in range(path.points.shape[1]):
        p0 = path.points[idx, d]
        p1 = path.points[idx + 1, d]
        v0 = path.velocities[idx, d] * dl
        v1 = path.velocities[idx + 1, d] * dl
        h00 = 2 * t**3 - 3 * t**2 + 1
        h10 = t**3 - 2 * t**2 + t
        h01 = -2 * t**3 + 3 * t**2
        h11 = t**3 - t**2
        pts[:, d] = h00 * p0 + h10 * v0 + h01 * p1 + h11 * v1
        vel[:, d] = (6 * t**2 - 6 * t) / dl * p0 + (3 * t**2 - 4 * t + 1) * v0 / dl \
            + (6 * t - 6 * t**2) / dl * p1 + (3 * t**2 - 2 * t) * v1 / dl
    return DiscretizedPath(lambdas=new_lam, points=pts, velocities=vel)


def stationarity_probe(sys: LagrangianSystem, path: DiscretizedPath,
                       directions: int = 5, eps: float = 1e-4,
                       seed: int = 0, refine: int = 8) -> float:
    """Largest |directional derivative| of the action at the path.

    Directions are smooth low-order Fourier modes vanishing at the
    endpoints; the action is evaluated on a Hermite-refined grid so the
    probe sees the functional rather than quadrature-node noise.
    """
    rng = np.random.default_rng(seed)
    dense = hermite_resample(path, refine)
    frac = (dense.lambdas - dense.lambdas[0]) / (dense.lambdas[-1] - dense.lambdas[0])
    span = dense.lambdas[-1] - dense.lambdas[0]
    worst = 0.0
    for _ in range(directions):
        coeffs = rng.normal(size=(3, path.points.shape[1]))
        xi = np.zeros_like(dense.points)
        dxi = np.zeros_like(dense.points)
        for k in range(3):
            phase = (k + 1) * np.pi * frac
            xi += coeffs[k] * np.sin(phase)[:, None]
            dxi += coeffs[k] * ((k + 1) * np.pi / span) * np.cos(phase)[:, None]
        norm = np.max(np.abs(xi))
        xi /= norm
        dxi /= norm
        plus = DiscretizedPath(dense.lambdas, dense.points + eps * xi,
                               dense.velocities + eps * dxi)
        minus = DiscretizedPath(dense.lambdas, dense.points - eps * xi,
                                dense.velocities - eps * dxi)
        slope = (action_value(sys, plus) - action_value(sys, minus)) / (2 * eps)
        worst = max(worst, abs(slope))
    return worst
