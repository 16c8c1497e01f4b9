"""Independent numerical oracles for cross-checking the library.

Everything here recomputes results through a route different from the
implementation under test: whole-bracket nested finite differencing,
cofactor determinant expansion, a plain fixed-step RK4, a geodesic
integrator driven by Christoffel symbols from its own metric differencing,
a Newton Jacobian differenced from the whole collocated residual, and the
stationarity of an extremal probed by directional derivatives of the action
on a Hermite-refined path.

The last section holds reference quantities that only tests read, built on
the library's own kernels: the relativistic ensemble current, the
equivariance gap of guided worldlines, both algebraic forms of the
Newton-Cartan classical HJ expression, the reports of the printed forms
against the derived ones, a fixed-step Dormand-Prince integration and the
finite-difference check of a scenario's derivatives.
"""
import numpy as np

import pilotwave.field_equations as feq
from pilotwave.action_principles import (DiscretizedPath, _nodal_partials,
                                         _residual_from_interior, action_value,
                                         differentiation_matrix)
from pilotwave.dynamics import GuidanceField, integrate_trajectory
from pilotwave.fields import complex_view
from pilotwave.geometry import BackgroundRel, _bundle, broadcast_read, metric_data
from pilotwave.integrators import rk45_step
from pilotwave.nc_geometry import _nc_bundle
from pilotwave.report import ResidualReport
from stencils import hessian, jacobian


def cofactor_det(a):
    """Determinant by recursive cofactor expansion along the first row."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


def nested_divergence(vector_fn, x, h=1e-5):
    """d_M F^M by shifting the whole bracket, no reused factor derivatives."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for m in range(x.size):
        xp = np.array(x)
        xm = np.array(x)
        xp[m] += h
        xm[m] -= h
        total = total + (vector_fn(xp)[m] - vector_fn(xm)[m]) / (2.0 * h)
    return total


def nested_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    out = []
    for m in range(x.size):
        xp = np.array(x)
        xm = np.array(x)
        xp[m] += h
        xm[m] -= h
        out.append((f(xp) - f(xm)) / (2.0 * h))
    return np.array(out)


def rk4_fixed(f, t0, y0, t1, steps):
    """Classic fixed-step RK4; returns the state at t1."""
    y = np.asarray(y0, dtype=float)
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = np.asarray(f(t, y))
        k2 = np.asarray(f(t + h / 2, y + h / 2 * k1))
        k3 = np.asarray(f(t + h / 2, y + h / 2 * k2))
        k4 = np.asarray(f(t + h, y + h * k3))
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def rk4_path(f, t0, y0, t_grid):
    """RK4 states at each time of t_grid (64 substeps per interval)."""
    out = [np.asarray(y0, dtype=float)]
    for a, b in zip(t_grid[:-1], t_grid[1:]):
        out.append(rk4_fixed(f, a, out[-1], b, 64))
    return np.array(out)


def christoffel(metric_fn, x, h=1e-6):
    """Gamma^M_NP from central differences of the metric."""
    x = np.asarray(x, dtype=float)
    d = x.size
    dg = np.empty((d, d, d))
    for m in range(d):
        xp = np.array(x)
        xm = np.array(x)
        xp[m] += h
        xm[m] -= h
        dg[m] = (np.asarray(metric_fn(xp)) - np.asarray(metric_fn(xm))) / (2.0 * h)
    ginv = np.linalg.inv(np.asarray(metric_fn(x)))
    # Gamma^m_np = (1/2) g^{ms} (d_n g_sp + d_p g_sn - d_s g_np)
    return 0.5 * np.einsum("ms,nsp->mnp",
                           ginv, dg + dg.transpose(2, 1, 0) - dg.transpose(1, 0, 2))


def integrate_geodesic(metric_fn, x0, u0, tau_grid):
    """Affinely parametrized geodesic through (x0, u0), sampled on tau_grid.

    Solves xddot^M = -Gamma^M_NP xdot^N xdot^P with RK4 at 64 substeps per
    output interval; independent of the guidance-law machinery.
    """
    d = np.asarray(x0).size

    def rhs(_tau, y):
        x, u = y[:d], y[d:]
        gam = christoffel(metric_fn, x)
        acc = -np.einsum("mnp,n,p->m", gam, u, u)
        return np.concatenate([u, acc])

    y0 = np.concatenate([np.asarray(x0, dtype=float), np.asarray(u0, dtype=float)])
    states = rk4_path(rhs, tau_grid[0], y0, tau_grid)
    return states[:, :d]


_COLOR_STRIDE = 13       # exceeds the residual dependence bandwidth


def _colored_jacobian(sys, bvp, u, h=1e-6):
    """Newton Jacobian of the collocated residual at the interior path u.

    Differences the whole residual, one column group at a time: columns
    _COLOR_STRIDE nodes apart share a perturbation because the residual at a
    node depends only on nodes within the stencil bandwidth (Curtis, Powell
    and Reid 1974).
    """
    lam = bvp.grid()
    dmat = differentiation_matrix(lam.size, (bvp.lambdaf - bvp.lambda0) / bvp.intervals)
    dim = bvp.x0.size
    m = u.size
    n_nodes = m // dim
    jac = np.zeros((m, m))
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


def euler_lagrange_residual(sys, path):
    """Collocated stationarity residual at the interior nodes, (n-2, dim)."""
    n = path.lambdas.size
    dl = (path.lambdas[-1] - path.lambdas[0]) / (n - 1)
    dmat = differentiation_matrix(n, dl)
    lx, lv = _nodal_partials(sys, path.points, path.velocities, path.lambdas)
    return (lx - dmat @ lv)[1:-1]


def hermite_resample(path, refine):
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


def stationarity_probe(sys, path, directions=5):
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


# ---------------------------------------------------------------------------
# reference quantities that only tests read
# ---------------------------------------------------------------------------

def ensemble_current(bg, f, x):
    """J^M = rho sqrt(-g) g^{MN}(d_N S - q A_N) at points x or their MetricData bundle."""
    md = _bundle(bg, x)
    return (feq._col(broadcast_read(f.rho, md.pt) * md.vol)
            * np.matvec(md.ginv, feq.momentum_covector(bg, f, md.pt)))


def equivariance_gap(sc, seeds=None, delta=1e-4, steps=51):
    """max over seeds and samples of |rho vol J / (rho vol J)(0) - 1| on the guided
    worldlines of scenario sc, from each of its seeds (or of ``seeds``) over its span.

    Guidance plus continuity means the flow carries the density: rho e J on
    Newton-Cartan data (e = |det(tau, e)|) and rho sqrt(-g) J on Lorentzian
    data stay constant along each worldline, with J = det dX(lambda)/dX(0),
    the flow map's Jacobian, here from central differences of the 2D
    worldlines from the seed moved by +-delta along each coordinate.
    """
    bg, f = sc.background, sc.polar
    gf = GuidanceField(background=bg, field=f)

    def carried(pts):
        geo = metric_data(bg, pts) if isinstance(bg, BackgroundRel) else _nc_bundle(bg, pts)[1]
        return broadcast_read(f.rho, pts) * np.abs(geo.vol)

    def path(x0):
        return integrate_trajectory(gf, x0, sc.default_span, steps).points

    gap = 0.0
    for seed in sc.default_seeds if seeds is None else seeds:
        x0 = np.asarray(seed, dtype=float)
        jac = np.stack([(path(x0 + move) - path(x0 - move)) / (2.0 * delta)
                        for move in delta * np.eye(bg.dim)], axis=-1)
        density = carried(path(x0)) * np.linalg.det(jac)
        gap = max(gap, float(np.max(np.abs(density / density[0] - 1.0))))
    return gap


def nc_classical_hj_forms(nc, f, x):
    """Both algebraic forms of the Newton-Cartan classical HJ expression.

    The boost-invariant form uses (vhat, Phi); the frame form uses (v, M)
    with K = k + w M, oriented to match.  They agree identically.
    """
    pt, der = _nc_bundle(nc, x)
    return feq._nc_hj_forms(nc, der, feq.nc_momentum_covector(nc, f, pt))[1:3]


def classical_field_equation_report(bg, cf, points):
    """Reports of the derived and printed nonlinear classical wave residuals over sample
    points, and of their pointwise difference, the slip of the printed form."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    derived = feq.classical_field_residual(bg, cf, pts)
    printed = feq.classical_field_residual_printed(bg, cf, pts)
    return {
        "derived": ResidualReport.from_samples("classical-field-derived", pts, derived),
        "printed": ResidualReport.from_samples("classical-field-printed", pts, printed),
        "discrepancy": ResidualReport.from_samples("classical-field-printed-discrepancy",
                                                   pts, np.abs(printed - derived)),
    }


def nc_classical_action_equivalence_report(nc, f, points):
    """Pointwise gap between the polar and the printed complex action densities."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    gaps = np.abs(feq.nc_classical_action_density_complex_printed(nc, complex_view(f), pts)
                  - feq.nc_classical_action_density_polar(nc, f, pts))
    return ResidualReport.from_samples("nc-classical-action-form-gap", pts, gaps)


def integrate_fixed(f, t0, y0, t1, steps):
    """Dormand-Prince 5(4) at a fixed step, carrying k7 as the next k1; the state at t1."""
    y = np.asarray(y0, dtype=float)
    h = (t1 - t0) / steps
    t = t0
    k1 = np.asarray(f(t, y), dtype=float)
    for _ in range(steps):
        y, _, k1 = rk45_step(f, t, y, h, k1)
        t += h
    return y


def validate_derivatives(sc, n_points=50, seed=0):
    """Worst |analytic - finite difference| of every derivative a scenario supplies.

    Draws points inside the default grid, shrunk 10% from the edges; correct
    closures give O(h^2) of the stencil steps.
    """
    if sc.default_grid is None or sc.system is not None:
        return {}
    rng = np.random.default_rng(seed)
    bounds = np.asarray(sc.default_grid.bounds, dtype=float)
    span = bounds[:, 1] - bounds[:, 0]
    lo = bounds[:, 0] + 0.1 * span
    hi = bounds[:, 1] - 0.1 * span
    pts = lo + rng.random((n_points, bounds.shape[0])) * (hi - lo)
    pairs = []
    if sc.polar is not None:
        pf = sc.polar
        pairs += [("drho", pf.drho, jacobian(pf.rho, pts)),
                  ("d2rho", pf.d2rho, hessian(pf.rho, pts)),
                  ("dS", pf.dS, jacobian(pf.S, pts)), ("d2S", pf.d2S, hessian(pf.S, pts))]
    if sc.psi is not None:
        pairs += [("dpsi", sc.psi.dpsi, jacobian(sc.psi.psi, pts)),
                  ("d2psi", sc.psi.d2psi, hessian(sc.psi.psi, pts))]
    bg = sc.background
    if isinstance(bg, BackgroundRel):
        pairs.append(("dmetric", bg.dmetric, jacobian(bg.metric, pts)))
    return {key: float(np.max(np.abs(analytic(pts) - fd))) for key, analytic, fd in pairs}
