"""Action functionals, trajectory extremization and endpoint derivatives.

The action S = integral of L(X, Xdot, lambda) is extremized between fixed
endpoints by damped Newton iteration on collocated stationarity conditions:
on a uniform lambda grid with fourth-order differentiation stencils, the
residual at each interior node is

    R_i = dL/dX(X_i, V_i, lambda_i) - d/dlambda [dL/dXdot]_i,

with V = D X and the outer d/dlambda applied by the same stencils to the
nodal momenta p_i = dL/dXdot.  Newton drives max|R| below tolerance.

L is pointwise, so the Newton Jacobian J = Lxx + Lxv D - D (Lvx + Lvv D),
restricted to the interior, is assembled from per-node second partials of L
and kept as a chord Jacobian while full Newton steps are accepted.

Endpoint derivatives of the extremal action are the content of the
Hamilton-Jacobi relations:

    dS/dX_f = p(lambda_f),      dS/dlambda_f = -H(lambda_f),

verified here by re-extremizing at displaced endpoints, with one Richardson
extrapolation step on the central differences.  The displaced problems start
from the base problem's Jacobian and each iterates to tolerance on its own.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import NoConvergence
from .report import ResidualReport

Array = np.ndarray

ARG_STEP = 1e-5          # FD step for dL/dX, dL/dXdot
JACOBIAN_STEP = 1e-6     # FD step for the second partials of L
# The residual noise floor is eps*|L|/ARG_STEP amplified by the stencil row
# sum ~ 1.5/dl; 1e-8 sits above it for unit-scale problems on spans >~ 0.5.
NEWTON_TOL = 1e-8
MAX_NEWTON_ITER = 60
# fourth-order first-derivative stencils (times 12 dl): the two rows at the
# start (mirrored and negated at the end) and the centred interior row
FORWARD_STENCILS = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                             [-3.0, -10.0, 18.0, -6.0, 1.0]])
CENTRAL_STENCIL = np.array([1.0, -8.0, 0.0, 8.0, -1.0])


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
    """Uniformly sampled trajectory with nodal velocities.

    ``jacobian`` is the Newton Jacobian ``extremize`` last used, if any.
    """

    lambdas: Array   # (n,)
    points: Array    # (n, dim)
    velocities: Array
    jacobian: Array | None = field(default=None, compare=False, repr=False)

    @property
    def intervals(self) -> int:
        return int(self.lambdas.size - 1)


def differentiation_matrix(n: int, dl: float) -> Array:
    """Fourth-order first-derivative matrix on a uniform n-point grid."""
    if n < 5:
        raise ValueError("need at least 5 nodes for the fourth-order stencils")
    d = np.zeros((n, n))
    d[:2, :5] = FORWARD_STENCILS
    rows = np.arange(2, n - 2)[:, None]
    d[rows, rows + np.arange(-2, 3)] = CENTRAL_STENCIL
    d[n - 2:, n - 5:] = -FORWARD_STENCILS[::-1, ::-1]
    return d / (12.0 * dl)


def _central_differences(f, X, V, lam, step):
    """d f / d(X, V) at every node, f evaluated once on stacked shifted copies.

    f maps (X, V, lam) with shapes (k, dim), (k, dim), (k,) to (k, ...);
    the result has shape (n, ..., 2 dim): X axes first, then V axes.
    """
    n, dim = X.shape
    e = step * np.eye(dim)[:, None, :]                  # (dim, 1, dim)
    X_, V_ = (np.broadcast_to(a, (dim, n, dim)) for a in (X, V))
    xs = np.concatenate([X_ + e, X_ - e, X_, X_])       # (4 dim, n, dim)
    vs = np.concatenate([V_, V_, V_ + e, V_ - e])
    vals = f(xs.reshape(-1, dim), vs.reshape(-1, dim), np.tile(lam, 4 * dim))
    vals = np.asarray(vals).reshape(4, dim, n, *np.shape(vals)[1:])
    diff = np.concatenate([vals[0] - vals[1], vals[2] - vals[3]]) / (2 * step)
    return np.moveaxis(diff, 0, -1)


def _nodal_partials(sys: LagrangianSystem, X, V, lam):
    """dL/dX and dL/dV at every node, (n, dim) each, from one Lagrangian call."""
    grad = _central_differences(sys.lagrangian, X, V, lam, ARG_STEP)
    return np.split(grad, 2, axis=-1)


def euler_lagrange_residual(sys: LagrangianSystem, path: DiscretizedPath) -> Array:
    """Collocated stationarity residual at the interior nodes, (n-2, dim)."""
    n = path.lambdas.size
    dl = (path.lambdas[-1] - path.lambdas[0]) / (n - 1)
    dmat = differentiation_matrix(n, dl)
    lx, lv = _nodal_partials(sys, path.points, path.velocities, path.lambdas)
    return (lx - dmat @ lv)[1:-1]


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


def _assembled_jacobian(sys, dmat, X, V, lam):
    """Newton Jacobian dR/du, J = (Lxx + Lxv D) - D (Lvx + Lvv D), on the interior."""
    n, dim = X.shape
    hess = _central_differences(
        lambda x, v, l: _central_differences(sys.lagrangian, x, v, l, ARG_STEP),
        X, V, lam, JACOBIAN_STEP)                     # (n, 2 dim, 2 dim)
    node = np.arange(n)

    def nodal(diag, right):
        """diag_i delta_ik + right_i D_ik as an (n, dim, n, dim) operator."""
        op = dmat[:, None, :, None] * right[:, :, None]
        op[node, :, node] += diag
        return op

    jac = nodal(hess[:, :dim, :dim], hess[:, :dim, dim:])
    v_rows = nodal(hess[:, dim:, :dim], hess[:, dim:, dim:])
    jac -= (dmat @ v_rows.reshape(n, -1)).reshape(jac.shape)
    m = (n - 2) * dim
    return jac[1:-1, :, 1:-1, :].reshape(m, m)


def extremize(sys: LagrangianSystem, bvp: BoundaryValueProblem,
              initial: Array | None = None,
              jacobian: Array | None = None) -> DiscretizedPath:
    """Damped-Newton solve of the collocated stationarity conditions.

    ``initial`` may supply a full (n, dim) starting path (endpoints are
    overwritten); the default is the straight line.  ``jacobian`` may supply
    a starting chord Jacobian, for example the ``jacobian`` of the path of a
    nearby problem on the same grid; by default it is assembled at the
    starting path.  The chord Jacobian is kept while full steps are
    accepted; it is rebuilt at the current iterate after a damped step, and
    once when the line search stalls.  The returned path carries the
    Jacobian last used (given or, if the start was already stationary,
    assembled at the solution).  Raises NoConvergence with the best
    residual reached when the iteration stalls.
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

    r, X, V = _residual_from_interior(sys, bvp, dmat, lam, u)
    best = float(np.max(np.abs(r))) if r.size else 0.0
    jac = jacobian
    rebuild = jac is None
    refreshed = False
    for _ in range(MAX_NEWTON_ITER):
        if np.max(np.abs(r)) < NEWTON_TOL:
            break
        if rebuild:
            jac = _assembled_jacobian(sys, dmat, X, V, lam)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular Newton system: {exc}", best_residual=best)
        norm0 = float(r @ r)
        alpha = 1.0
        accepted = None
        for _ in range(30):
            cand = _residual_from_interior(sys, bvp, dmat, lam, u + alpha * step)
            if float(cand[0] @ cand[0]) <= (1.0 - 1e-4 * alpha) * norm0:
                accepted = cand
                break
            alpha *= 0.5
        if accepted is None:
            if refreshed:
                raise NoConvergence("line search stalled", best_residual=best)
            rebuild = refreshed = True  # stale chord Jacobian: rebuild once and retry
            continue
        refreshed = False
        u = u + alpha * step
        r, X, V = accepted
        best = min(best, float(np.max(np.abs(r))))
        rebuild = alpha < 1.0
    else:
        raise NoConvergence(f"no convergence after {MAX_NEWTON_ITER} iterations",
                            best_residual=best)
    if jac is None:  # the start was stationary: nearby problems still get a chord
        jac = _assembled_jacobian(sys, dmat, X, V, lam)
    return DiscretizedPath(lambdas=lam, points=X, velocities=V, jacobian=jac)


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
    x, v, lam = path.points[-1:], path.velocities[-1:], path.lambdas[-1:]
    p = _nodal_partials(sys, x, v, lam)[1][0]
    return p, float(p @ v[0] - sys.lagrangian(x, v, lam)[0])


def _ramp_guess(base: DiscretizedPath, delta: Array) -> Array:
    frac = (base.lambdas - base.lambdas[0]) / (base.lambdas[-1] - base.lambdas[0])
    return base.points + frac[:, None] * delta[None, :]


def _rescale_guess(base: DiscretizedPath, new_lam: Array) -> Array:
    return np.stack([np.interp(new_lam, base.lambdas, col) for col in base.points.T], axis=1)


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
    Richardson extrapolation; each displaced problem is re-extremized to
    tolerance, warm-started from the base extremal and its Jacobian.
    """
    base = extremize(sys, bvp)
    dim = bvp.x0.size

    def displaced(bvp_d, initial):
        return action_value(sys, extremize(sys, bvp_d, initial=initial, jacobian=base.jacobian))

    def slope_x(d, delta):
        e = np.zeros(dim)
        e[d] = delta
        sp = displaced(replace(bvp, xf=bvp.xf + e), _ramp_guess(base, e))
        sm = displaced(replace(bvp, xf=bvp.xf - e), _ramp_guess(base, -e))
        return (sp - sm) / (2 * delta)

    ds_dx = np.empty(dim)
    for d in range(dim):
        coarse = slope_x(d, fd_step)
        fine = slope_x(d, fd_step / 2)
        ds_dx[d] = (4.0 * fine - coarse) / 3.0

    def slope_lam(delta):
        bp = replace(bvp, lambdaf=bvp.lambdaf + delta)
        bm = replace(bvp, lambdaf=bvp.lambdaf - delta)
        sp = displaced(bp, _rescale_guess(base, bp.grid()))
        sm = displaced(bm, _rescale_guess(base, bm.grid()))
        return (sp - sm) / (2 * delta)

    coarse = slope_lam(fd_step)
    fine = slope_lam(fd_step / 2)
    ds_dl = (4.0 * fine - coarse) / 3.0

    p_f, h_f = endpoint_state(sys, base)
    return EndpointDerivatives(dS_dXf=ds_dx, p_f=p_f, dS_dlambdaf=float(ds_dl),
                               H_f=h_f, action=action_value(sys, base))


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
    dl = lam[1] - lam[0]
    idx = np.minimum(((new_lam - lam[0]) / dl).astype(int), n - 2)
    t = ((new_lam - lam[idx]) / dl)[:, None]
    p0, p1 = path.points[idx], path.points[idx + 1]
    v0, v1 = path.velocities[idx] * dl, path.velocities[idx + 1] * dl
    h00 = 2 * t**3 - 3 * t**2 + 1
    h10 = t**3 - 2 * t**2 + t
    h01 = -2 * t**3 + 3 * t**2
    h11 = t**3 - t**2
    pts = h00 * p0 + h10 * v0 + h01 * p1 + h11 * v1
    vel = (6 * t**2 - 6 * t) / dl * p0 + (3 * t**2 - 4 * t + 1) * v0 / dl \
        + (6 * t - 6 * t**2) / dl * p1 + (3 * t**2 - 2 * t) * v1 / dl
    return DiscretizedPath(lambdas=new_lam, points=pts, velocities=vel)


def stationarity_probe(sys: LagrangianSystem, path: DiscretizedPath,
                       directions: int = 5) -> float:
    """Largest |directional derivative| of the action at the path.

    Directions are smooth low-order Fourier modes vanishing at the
    endpoints, drawn from a generator of seed 0 and stepped by 1e-4; the
    action is evaluated on an 8-times Hermite-refined grid so the probe
    sees the functional rather than quadrature-node noise.
    """
    eps = 1e-4
    rng = np.random.default_rng(0)
    dense = hermite_resample(path, 8)
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
