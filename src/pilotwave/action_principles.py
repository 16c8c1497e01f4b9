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
and kept as a chord Jacobian while full Newton steps are accepted (the chord
or Shamanskii method; Kelley, Iterative Methods for Linear and Nonlinear
Equations, SIAM 1995).  The chord is inverted once, when it is assembled,
and every step is a product with the stored inverse.

Endpoint derivatives of the extremal action are the content of the
Hamilton-Jacobi relations:

    dS/dX_f = p(lambda_f),      dS/dlambda_f = -H(lambda_f),

verified here by re-extremizing at displaced endpoints, with one Richardson
extrapolation step on the central differences.  Each displaced problem starts
from a prediction, the polynomial in the shift through the solves already made
on its axis (the predictor of predictor-corrector continuation; Allgower and
Georg, Introduction to Numerical Continuation Methods, SIAM 2003), and from
the base problem's chord inverse, which all nine solves share.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NoConvergence, NonFiniteResult
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
    analytic ``hamiltonian(x, p)`` closure is used only for verification
    (the 'pde' report of ``verify_hj_relations``), never by the solver.
    """

    dim: int
    lagrangian: Callable[[Array, Array, Array], Array]
    hamiltonian: Callable[[Array, Array], float] | None = None


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

    ``chord_inverse`` is the inverse of the chord Jacobian ``extremize`` last
    applied, if any; a nearby problem's solve can start from it.
    """

    lambdas: Array   # (n,)
    points: Array    # (n, dim)
    velocities: Array
    chord_inverse: Array | None = field(default=None, compare=False, repr=False)


@lru_cache(maxsize=None)
def _integer_stencil(n: int) -> Array:
    """12 dl times the differentiation matrix on n nodes, read-only."""
    d = np.zeros((n, n))
    d[:2, :5] = FORWARD_STENCILS
    rows = np.arange(2, n - 2)[:, None]
    d[rows, rows + np.arange(-2, 3)] = CENTRAL_STENCIL
    d[n - 2:, n - 5:] = -FORWARD_STENCILS[::-1, ::-1]
    d.flags.writeable = False
    return d


def differentiation_matrix(n: int, dl: float) -> Array:
    """Fourth-order first-derivative matrix on a uniform n-point grid."""
    if n < 5:
        raise ValueError("need at least 5 nodes for the fourth-order stencils")
    return _integer_stencil(n) / (12.0 * dl)


@lru_cache(maxsize=None)
def _shift_offsets(dim: int, step: float) -> tuple[Array, Array]:
    """X and V offsets (4 dim, 1, dim) of the stacked copies: +X, -X, +V, -V."""
    e = step * np.eye(dim)[:, None, :]
    zero = np.zeros_like(e)
    offsets = np.concatenate([e, -e, zero, zero]), np.concatenate([zero, zero, e, -e])
    for a in offsets:
        a.flags.writeable = False
    return offsets


def _central_differences(f, X, V, lam, step):
    """d f / d(X, V) at every node, f evaluated once on stacked shifted copies.

    f maps (X, V, lam) with shapes (k, dim), (k, dim), (k,) to (k, ...);
    the result has shape (n, ..., 2 dim): X axes first, then V axes.
    """
    n, dim = X.shape
    x_off, v_off = _shift_offsets(dim, step)
    vals = np.asarray(f((X + x_off).reshape(-1, dim), (V + v_off).reshape(-1, dim),
                        np.concatenate((lam,) * (4 * dim))))
    vals = vals.reshape(2, 2, dim, n, *vals.shape[1:])
    diff = ((vals[:, 0] - vals[:, 1]) / (2 * step)).reshape(2 * dim, n, *vals.shape[4:])
    return diff.transpose(*range(1, diff.ndim), 0)


def _nodal_partials(sys: LagrangianSystem, X, V, lam):
    """dL/dX and dL/dV at every node, (n, dim) each, from one Lagrangian call."""
    grad = _central_differences(sys.lagrangian, X, V, lam, ARG_STEP)
    dim = X.shape[1]
    return grad[..., :dim], grad[..., dim:]


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


def _inverted_chord(sys, dmat, X, V, lam, best):
    """The inverse of the Jacobian assembled at (X, V), shared by every chord step."""
    jac = _assembled_jacobian(sys, dmat, X, V, lam)
    try:
        return np.linalg.inv(jac)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular Newton system: {exc}", best_residual=best)


def extremize(sys: LagrangianSystem, bvp: BoundaryValueProblem,
              near: DiscretizedPath | None = None) -> DiscretizedPath:
    """Damped-Newton solve of the collocated stationarity conditions.

    Without ``near`` the iteration starts from the straight line, with the
    Jacobian assembled and inverted there.  ``near`` may be the solved path
    of a nearby problem with the same node count: the start is then that
    path interpolated onto this problem's grid plus the linear ramp that
    moves its end onto ``bvp.xf``, with its chord inverse.  The chord is
    kept while full steps are accepted, and each step is its stored inverse
    times the residual; it is rebuilt and inverted again at the current
    iterate after a damped step, and once when the line search stalls.  The
    returned path carries the chord inverse last used (given or, if the
    start was already stationary, assembled and inverted at the solution).
    Raises NoConvergence with the best residual reached when the iteration
    stalls or a chord Jacobian is singular.
    """
    lam = bvp.grid()
    n = lam.size
    dl = (bvp.lambdaf - bvp.lambda0) / bvp.intervals
    dmat = differentiation_matrix(n, dl)
    frac = ((lam - bvp.lambda0) / (bvp.lambdaf - bvp.lambda0))[:, None]
    if near is None:
        start, inv = bvp.x0 + frac * (bvp.xf - bvp.x0), None
    elif near.lambdas.size != n:
        raise ValueError(f"near path has {near.lambdas.size} nodes, the problem {n}")
    else:
        start = np.stack([np.interp(lam, near.lambdas, col) for col in near.points.T], axis=1)
        start += frac * (bvp.xf - near.points[-1])
        inv = near.chord_inverse
    u = start[1:-1].ravel()

    r, X, V = _residual_from_interior(sys, bvp, dmat, lam, u)
    res = best = float(abs(r).max())
    rebuild = inv is None
    refreshed = False
    for _ in range(MAX_NEWTON_ITER):
        if res < NEWTON_TOL:
            break
        if rebuild:
            inv = _inverted_chord(sys, dmat, X, V, lam, best)
        step = -(inv @ r)
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
            rebuild = refreshed = True  # stale chord: rebuild once and retry
            continue
        refreshed = False
        u = u + alpha * step
        r, X, V = accepted
        res = float(abs(r).max())
        best = min(best, res)
        rebuild = alpha < 1.0
    else:
        raise NoConvergence(f"no convergence after {MAX_NEWTON_ITER} iterations",
                            best_residual=best)
    if inv is None:  # the start was stationary: nearby problems still get a chord
        inv = _inverted_chord(sys, dmat, X, V, lam, best)
    return DiscretizedPath(lambdas=lam, points=X, velocities=V, chord_inverse=inv)


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


@dataclass(frozen=True)
class EndpointDerivatives:
    """Endpoint sensitivities of the extremal action at one boundary datum."""

    dS_dXf: Array
    p_f: Array
    dS_dlambdaf: float
    H_f: float


def endpoint_derivatives(sys: LagrangianSystem, bvp: BoundaryValueProblem,
                         fd_step: float = 1e-4) -> EndpointDerivatives:
    """Finite-difference endpoint derivatives of the extremal action.

    Along each endpoint coordinate (X_f..., lambda_f), central differences
    at steps fd_step and fd_step/2 are combined by one Richardson
    extrapolation; each displaced problem is re-extremized to tolerance.
    The displaced extremals of one axis form a smooth family in the shift,
    so each solve starts from the polynomial through the solves already
    made on that axis, taken node by node (the predictor of
    predictor-corrector continuation): +d from the base extremal, -d from
    the line through the base and +d, +d/2 and -d/2 from the parabola
    through -d, the base and +d.  Every start carries the base problem's
    chord inverse, which ``extremize(..., near=...)`` steps with.
    """
    base = extremize(sys, bvp)
    end = np.append(bvp.xf, bvp.lambdaf)

    def solve(axis, shift, *terms):
        """The extremal with the endpoint moved by shift along axis, started
        from the sum of weight * path over the (weight, path) terms."""
        moved = end.copy()
        moved[axis] += shift
        moved_bvp = BoundaryValueProblem(bvp.x0, moved[:-1], bvp.lambda0, float(moved[-1]),
                                         bvp.intervals)
        near = DiscretizedPath(*(sum(w * getattr(path, key) for w, path in terms)
                                 for key in ("lambdas", "points", "velocities")),
                               chord_inverse=base.chord_inverse)
        return extremize(sys, moved_bvp, near=near)

    def slope(plus, minus, delta):
        return (action_value(sys, plus) - action_value(sys, minus)) / (2 * delta)

    def richardson(axis):
        plus = solve(axis, fd_step, (1.0, base))
        minus = solve(axis, -fd_step, (2.0, base), (-1.0, plus))
        half_plus = solve(axis, fd_step / 2, (0.375, plus), (0.75, base), (-0.125, minus))
        half_minus = solve(axis, -fd_step / 2, (0.375, minus), (0.75, base), (-0.125, plus))
        coarse = slope(plus, minus, fd_step)
        return (4.0 * slope(half_plus, half_minus, fd_step / 2) - coarse) / 3.0

    ds = np.array([richardson(axis) for axis in range(end.size)])
    p_f, h_f = endpoint_state(sys, base)
    return EndpointDerivatives(dS_dXf=ds[:-1], p_f=p_f, dS_dlambdaf=float(ds[-1]), H_f=h_f)


def verify_hj_relations(sys: LagrangianSystem, bvps,
                        fd_step: float = 1e-4) -> dict[str, ResidualReport]:
    """Check dS/dX_f = p and dS/dlambda_f = -H over a list of problems.

    Returns reports keyed 'momentum' (max |dS/dX_f - p_f| per problem),
    'energy' (|dS/dlambda_f + H_f|), and, when the system carries an
    analytic Hamiltonian, 'pde' (|dS/dlambda_f + H(X_f, dS/dX_f)|), each
    sampled at the point (X_f..., lambda_f).  A NoConvergence, or an
    ArithmeticError (raised as NonFiniteResult), names the problem's point.
    """
    pts, vals_p, vals_h, vals_pde = [], [], [], []
    for bvp in bvps:
        where = f"endpoint problem at (X_f, lambda_f) = ({bvp.xf.tolist()}, {bvp.lambdaf!r})"
        try:
            der = endpoint_derivatives(sys, bvp, fd_step=fd_step)
            vals_p.append(np.max(np.abs(der.dS_dXf - der.p_f)))
            vals_h.append(abs(der.dS_dlambdaf + der.H_f))
            if sys.hamiltonian is not None:
                vals_pde.append(abs(der.dS_dlambdaf
                                    + float(sys.hamiltonian(bvp.xf, der.dS_dXf))))
        except NoConvergence as exc:
            raise NoConvergence(f"{where}: {exc}", best_residual=exc.best_residual) from exc
        except ArithmeticError as exc:
            raise NonFiniteResult(f"{where}: {type(exc).__name__}: {exc}") from exc
        pts.append(np.concatenate([bvp.xf, [bvp.lambdaf]]))
    out = {
        "momentum": ResidualReport.from_samples("hj-endpoint-momentum", pts, vals_p),
        "energy": ResidualReport.from_samples("hj-endpoint-energy", pts, vals_h),
    }
    if vals_pde:
        out["pde"] = ResidualReport.from_samples("hj-pde", pts, vals_pde)
    return out
