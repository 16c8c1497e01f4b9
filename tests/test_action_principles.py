import dataclasses

import numpy as np
import pytest

import pilotwave.action_principles as ap
from pilotwave.action_principles import (CENTRAL_STENCIL, FORWARD_STENCILS,
                                         BoundaryValueProblem, DiscretizedPath,
                                         LagrangianSystem, action_value,
                                         differentiation_matrix,
                                         endpoint_derivatives, extremize,
                                         verify_hj_relations)
from pilotwave.errors import NoConvergence, NonFiniteResult
from pilotwave.scenarios import build

from oracles import (_colored_jacobian, euler_lagrange_residual, hermite_resample,
                     stationarity_probe)


def free_system(m=1.0):
    return build("free-particle-hj", {"m": m}).system


def ho_system(omega=1.0):
    return build("harmonic-oscillator-hj", {"omega": omega}).system


def test_differentiation_matrix_is_fourth_order():
    errs = []
    for n in (41, 81):
        dl = 2.0 / (n - 1)
        lam = np.linspace(0.0, 2.0, n)
        d = differentiation_matrix(n, dl)
        deriv = d @ np.sin(1.3 * lam)
        errs.append(np.max(np.abs(deriv - 1.3 * np.cos(1.3 * lam))))
    order = np.log2(errs[0] / errs[1])
    assert 3.5 < order < 4.6
    assert errs[1] < 1e-5


@pytest.mark.parametrize("n", [5, 6, 65, 81])
def test_differentiation_matrix_matches_row_by_row_build(n):
    dl = 0.37
    d = np.zeros((n, n))
    d[0, :5] = FORWARD_STENCILS[0]
    d[1, :5] = FORWARD_STENCILS[1]
    for i in range(2, n - 2):
        d[i, i - 2:i + 3] = CENTRAL_STENCIL
    d[n - 2, n - 5:] = -FORWARD_STENCILS[1][::-1]
    d[n - 1, n - 5:] = -FORWARD_STENCILS[0][::-1]
    assert np.array_equal(differentiation_matrix(n, dl), d / (12.0 * dl))


def test_action_free_particle_straight_line():
    sys = free_system()
    lam = np.linspace(0.0, 1.0, 65)
    path = DiscretizedPath(lambdas=lam, points=lam[:, None],
                           velocities=np.ones((65, 1)))
    assert action_value(sys, path) == pytest.approx(0.5, abs=1e-12)


def test_action_zero_path():
    sys = free_system()
    lam = np.linspace(0.0, 3.0, 65)
    path = DiscretizedPath(lambdas=lam, points=np.zeros((65, 1)),
                           velocities=np.zeros((65, 1)))
    assert action_value(sys, path) == 0.0


def test_action_oscillator_matches_closed_form():
    sc = build("harmonic-oscillator-hj")
    path = extremize(sc.system, sc.bvp)
    expect = sc.oracle["action"](0.0, 0.0, 1.0, 1.5)
    assert action_value(sc.system, path) == pytest.approx(expect, abs=1e-8)


def test_extremize_free_particle_is_straight():
    sc = build("free-particle-hj")
    path = extremize(sc.system, sc.bvp)
    straight = path.lambdas[:, None]
    assert np.max(np.abs(path.points - straight)) < 1e-10


def test_extremize_oscillator_matches_sine():
    sc = build("harmonic-oscillator-hj")
    path = extremize(sc.system, sc.bvp)
    sol = np.array([sc.oracle["solution"](0.0, 0.0, 1.0, 1.5, l) for l in path.lambdas])
    assert np.max(np.abs(path.points[:, 0] - sol)) < 1e-7


def test_interior_stationarity_residual_small():
    for sc_name in ("free-particle-hj", "harmonic-oscillator-hj"):
        sc = build(sc_name)
        path = extremize(sc.system, sc.bvp)
        assert np.max(np.abs(euler_lagrange_residual(sc.system, path))) < 1e-8


def test_random_direction_probe_confirms_stationarity():
    sc = build("harmonic-oscillator-hj")
    path = extremize(sc.system, sc.bvp)
    assert stationarity_probe(sc.system, path, directions=6) < 1e-7


def test_perturbation_grows_action_quadratically():
    # below the conjugate point the second variation is positive: delta S
    # is positive for endpoint-fixed perturbations and scales like eps^2
    sc = build("harmonic-oscillator-hj")
    path = extremize(sc.system, sc.bvp)
    s0 = action_value(sc.system, path)
    frac = (path.lambdas - path.lambdas[0]) / (path.lambdas[-1] - path.lambdas[0])
    xi = np.sin(np.pi * frac)[:, None]
    dxi = (np.pi / (path.lambdas[-1] - path.lambdas[0])) \
        * np.cos(np.pi * frac)[:, None]
    gaps = []
    for eps in (1e-2, 5e-3):
        bent = DiscretizedPath(path.lambdas, path.points + eps * xi,
                               path.velocities + eps * dxi)
        gap = action_value(sc.system, bent) - s0
        assert gap > 0.0
        gaps.append(gap)
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.05)


def test_hamiltonian_constant_along_autonomous_extremal():
    sc = build("harmonic-oscillator-hj")
    path = extremize(sc.system, sc.bvp)
    omega = sc.params["omega"]
    energies = 0.5 * path.velocities[:, 0] ** 2 + 0.5 * omega**2 * path.points[:, 0] ** 2
    assert np.max(energies) - np.min(energies) < 1e-7


def test_hj_relations_free_particle_unit_endpoint():
    # S(x, t) = x^2 / (2 t): p = 1 and H = 1/2 at (1, 1)
    sc = build("free-particle-hj")
    bvp = BoundaryValueProblem(x0=[0.0], xf=[1.0], lambda0=0.0, lambdaf=1.0)
    der = endpoint_derivatives(sc.system, bvp)
    assert der.dS_dXf[0] == pytest.approx(1.0, abs=1e-5)
    assert der.p_f[0] == pytest.approx(1.0, abs=1e-8)
    assert der.dS_dlambdaf == pytest.approx(-0.5, abs=1e-5)
    assert action_value(sc.system, extremize(sc.system, bvp)) == pytest.approx(0.5, abs=1e-9)


def test_hj_relations_oscillator_closed_form():
    sc = build("harmonic-oscillator-hj")
    x0, xf, t_f, omega = 0.0, 1.0, 1.5, 1.0
    bvp = BoundaryValueProblem(x0=[x0], xf=[xf], lambda0=0.0, lambdaf=t_f)
    der = endpoint_derivatives(sc.system, bvp)
    p_exact = omega * (xf * np.cos(omega * t_f) - x0) / np.sin(omega * t_f)
    h_exact = 0.5 * p_exact**2 + 0.5 * omega**2 * xf**2
    assert der.dS_dXf[0] == pytest.approx(p_exact, abs=1e-5)
    assert der.dS_dlambdaf == pytest.approx(-h_exact, abs=1e-5)
    # closed-form action derivative cross-check
    eps = 1e-6
    slope = (sc.oracle["action"](x0, 0.0, xf + eps, t_f)
             - sc.oracle["action"](x0, 0.0, xf - eps, t_f)) / (2 * eps)
    assert der.dS_dXf[0] == pytest.approx(slope, abs=1e-5)


def test_energy_conservation_for_autonomous_lagrangian():
    sc = build("harmonic-oscillator-hj")
    reports = verify_hj_relations(sc.system, [sc.bvp])
    assert reports["energy"].max_abs < 1e-5
    assert reports["momentum"].max_abs < 1e-5
    assert reports["pde"].max_abs < 1e-4


def test_no_convergence_at_conjugate_point():
    # omega T = pi with incompatible endpoints has no classical solution
    sc = build("harmonic-oscillator-hj")
    bvp = BoundaryValueProblem(x0=[0.0], xf=[1.0], lambda0=0.0, lambdaf=np.pi)
    with pytest.raises(NoConvergence) as info:
        extremize(sc.system, bvp)
    assert info.value.best_residual is None or info.value.best_residual > 0


def test_bvp_validation():
    with pytest.raises(ValueError):
        BoundaryValueProblem(x0=[0.0], xf=[1.0], lambda0=1.0, lambdaf=0.0)
    with pytest.raises(ValueError):
        BoundaryValueProblem(x0=[0.0], xf=[1.0], lambda0=0.0, lambdaf=1.0, intervals=9)
    with pytest.raises(ValueError):
        BoundaryValueProblem(x0=[0.0], xf=[1.0], lambda0=0.0, lambdaf=1.0, intervals=6)


def test_action_requires_even_intervals():
    sys = free_system()
    lam = np.linspace(0.0, 1.0, 64)
    path = DiscretizedPath(lambdas=lam, points=lam[:, None],
                           velocities=np.ones((64, 1)))
    with pytest.raises(ValueError):
        action_value(sys, path)


def test_hermite_resample_reproduces_smooth_path():
    lam = np.linspace(0.0, 2.0, 33)
    path = DiscretizedPath(lambdas=lam, points=np.sin(lam)[:, None],
                           velocities=np.cos(lam)[:, None])
    dense = hermite_resample(path, refine=4)
    assert np.max(np.abs(dense.points[:, 0] - np.sin(dense.lambdas))) < 1e-6
    assert np.max(np.abs(dense.velocities[:, 0] - np.cos(dense.lambdas))) < 1e-4


# A charged particle in a non-uniform vector potential and a quartic,
# lambda-dependent potential: nonlinear, with x-v cross partials and
# explicit lambda dependence, none of which the registry Lagrangians have.
MASS, CHARGE = 1.2, 0.7


def _coupled_lagrangian(X, V, lam):
    x1, x2 = X[:, 0], X[:, 1]
    a = np.stack([-x2 * (1.0 + 0.3 * x1), x1 + 0.2 * x2**2], axis=1)
    r2 = np.sum(X**2, axis=1)
    pot = 0.5 * r2 + 0.25 * r2**2 * (1.0 + 0.5 * np.sin(lam))
    return 0.5 * MASS * np.sum(V**2, axis=1) + CHARGE * np.sum(a * V, axis=1) - pot


COUPLED = LagrangianSystem(dim=2, lagrangian=_coupled_lagrangian)
COUPLED_BVP = BoundaryValueProblem(x0=[0.1, -0.2], xf=[0.8, 0.5], lambda0=0.0, lambdaf=1.2)


def test_assembled_jacobian_matches_colored_oracle():
    bvp = COUPLED_BVP
    lam = bvp.grid()
    dmat = differentiation_matrix(lam.size, (bvp.lambdaf - bvp.lambda0) / bvp.intervals)
    frac = (lam - lam[0]) / (lam[-1] - lam[0])
    straight = bvp.x0 + frac[:, None] * (bvp.xf - bvp.x0)
    solution = extremize(COUPLED, bvp).points
    assert np.max(np.abs(solution - straight)) > 0.1   # the two points differ
    for path in (straight, solution):
        u = path[1:-1].ravel()
        _, X, V = ap._residual_from_interior(COUPLED, bvp, dmat, lam, u)
        assembled = ap._assembled_jacobian(COUPLED, dmat, X, V, lam)
        oracle = _colored_jacobian(COUPLED, bvp, u)
        # measured gap: 3.3e-6 (straight line) and 4.4e-6 (solution) of max|J|;
        # a transposed or dropped x-v block gives 1.2e-2 or more
        assert np.max(np.abs(assembled - oracle)) <= 1e-5 * np.max(np.abs(oracle))


def test_hj_relations_nonlinear_coupled_lagrangian():
    reports = verify_hj_relations(COUPLED, [COUPLED_BVP])
    assert reports["momentum"].max_abs <= 5e-5
    assert reports["energy"].max_abs <= 5e-5


def test_hj_oscillator_grid_matches_closed_form():
    # S = m w ((x0^2 + xf^2) cos wT - 2 x0 xf) / (2 sin wT) on the default grid;
    # measured worst gaps 4.3e-8 (dS/dX_f) and 7.9e-8 (dS/dlambda_f)
    sc = build("harmonic-oscillator-hj")
    m, w = sc.params["m"], sc.params["omega"]
    x0 = sc.bvp.x0[0]
    for xf, t_f in sc.default_grid.points():
        bvp = BoundaryValueProblem(x0=sc.bvp.x0, xf=[xf], lambda0=0.0, lambdaf=float(t_f))
        der = endpoint_derivatives(sc.system, bvp)
        s, c = np.sin(w * t_f), np.cos(w * t_f)
        ds_dx = m * w * (xf * c - x0) / s
        ds_dt = -0.5 * m * w**2 * (x0**2 + xf**2 - 2.0 * x0 * xf * c) / s**2
        assert abs(der.dS_dXf[0] - ds_dx) <= 1e-7
        assert abs(der.dS_dlambdaf - ds_dt) <= 1e-7


@pytest.mark.parametrize("name", ["harmonic-oscillator-hj", "free-particle-hj"])
def test_endpoint_derivatives_reuse_one_jacobian(monkeypatch, name):
    # counts, not times: 9 solves share one assembled Jacobian and its one
    # inverse, no step refactors it, and each solve builds its grid once
    counts = {"lagrangian": 0, "jacobian": 0, "extremize": 0, "inv": 0, "solve": 0,
              "linspace": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    sc = build(name)
    system = dataclasses.replace(sc.system,
                                 lagrangian=counted("lagrangian", sc.system.lagrangian))
    monkeypatch.setattr(ap, "_assembled_jacobian", counted("jacobian", ap._assembled_jacobian))
    monkeypatch.setattr(ap, "extremize", counted("extremize", ap.extremize))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    monkeypatch.setattr(np, "linspace", counted("linspace", np.linspace))
    endpoint_derivatives(system, sc.bvp)
    assert counts["extremize"] == 9
    assert counts["jacobian"] == 1
    assert counts["inv"] == 1
    assert counts["solve"] == 0
    assert counts["linspace"] == 9
    assert counts["lagrangian"] == {"harmonic-oscillator-hj": 26, "free-particle-hj": 23}[name]


# the solves that start stationary, in the order base, X_f +d, -d, +d/2, -d/2,
# lambda_f +d, -d, +d/2, -d/2: the free particle's extremals are affine in the
# endpoint data, so its -d, +d/2 and -d/2 predictions on lambda_f are exact
# (from a ramp start they took 4, 3 and 3 residuals); on the oscillator the
# parabola through -d, the base and +d is O(d^3) off at +-d/2
STATIONARY_SOLVES = {"free-particle-hj": [6, 7, 8], "harmonic-oscillator-hj": [3, 4, 7, 8]}


@pytest.mark.parametrize("name", sorted(STATIONARY_SOLVES))
def test_predicted_starts_are_stationary(monkeypatch, name):
    # residual evaluations per extremize call: a start already within
    # NEWTON_TOL evaluates one residual and takes no Newton step
    per_solve = []
    real_extremize, real_residual = ap.extremize, ap._residual_from_interior

    def counted_extremize(*args, **kwargs):
        per_solve.append(0)
        return real_extremize(*args, **kwargs)

    def counted_residual(*args):
        per_solve[-1] += 1
        return real_residual(*args)

    monkeypatch.setattr(ap, "extremize", counted_extremize)
    monkeypatch.setattr(ap, "_residual_from_interior", counted_residual)
    sc = build(name)
    endpoint_derivatives(sc.system, sc.bvp)
    assert len(per_solve) == 9
    stationary = STATIONARY_SOLVES[name]
    assert [per_solve[i] for i in stationary] == [1] * len(stationary), per_solve


@pytest.mark.parametrize("shift", [("xf", 1e-4), ("lambdaf", -1e-4)])
def test_near_start_reaches_the_cold_solution(monkeypatch, shift):
    # a displaced endpoint problem solved from the base extremal and its chord
    # inverse lands on the path a cold solve from the straight line finds; so
    # does one started, with the same chord inverse, from endpoint_derivatives'
    # predictions: the line through the base and the mirrored solve (its -d
    # start), and the parabola through the solves at -2 and +2 times the shift
    # (its +d/2 start); measured gaps 6.8e-12, 6.8e-12 and 6.9e-12 (X_f shift),
    # 2.4e-13, 1.3e-12 and 1.3e-12 (lambda_f shift)
    key, d = shift
    sc = build("harmonic-oscillator-hj")

    def moved(k):
        return dataclasses.replace(sc.bvp, **{key: getattr(sc.bvp, key) + k * d})

    def predicted(*terms):
        return DiscretizedPath(*(sum(w * getattr(path, name) for w, path in terms)
                                 for name in ("lambdas", "points", "velocities")),
                               chord_inverse=base.chord_inverse)

    base = extremize(sc.system, sc.bvp)
    mirror, wide_plus, wide_minus = (extremize(sc.system, moved(k), near=base)
                                     for k in (-1, 2, -2))
    starts = {"base": base, "line": predicted((2.0, base), (-1.0, mirror)),
              "parabola": predicted((0.375, wide_plus), (0.75, base), (-0.125, wide_minus))}
    cold = extremize(sc.system, moved(1))
    assembled, real = [], ap._assembled_jacobian
    monkeypatch.setattr(ap, "_assembled_jacobian", lambda *args: assembled.append(1) or real(*args))
    for label, near in starts.items():
        warm = extremize(sc.system, moved(1), near=near)
        assert assembled == [], label
        assert warm.chord_inverse is base.chord_inverse, label
        assert np.array_equal(warm.lambdas, cold.lambdas), label
        assert np.max(np.abs(warm.points - cold.points)) <= 1e-9, label


def test_a_slowly_contracting_chord_is_rebuilt():
    # the lambda_f - d problem of ([0.2], 1.2) at hj.fd_step 0.3, started from
    # its base and the base's chord inverse: full steps with that chord shrink
    # max|R| too slowly to converge in MAX_NEWTON_ITER, so the chord must be
    # rebuilt when a full step fails to halve it (NoConvergence without)
    sc = build("harmonic-oscillator-hj")
    bvp = dataclasses.replace(sc.bvp, xf=np.array([0.2]), lambdaf=1.2)
    base = extremize(sc.system, bvp)
    moved = dataclasses.replace(bvp, lambdaf=bvp.lambdaf - 0.3)
    warm, cold = extremize(sc.system, moved, near=base), extremize(sc.system, moved)
    assert np.array_equal(warm.lambdas, cold.lambdas)
    assert np.max(np.abs(warm.points - cold.points)) <= 1e-9


def test_near_path_must_share_the_node_count():
    sc = build("harmonic-oscillator-hj")
    base = extremize(sc.system, sc.bvp)
    with pytest.raises(ValueError):
        extremize(sc.system, dataclasses.replace(sc.bvp, intervals=32), near=base)


def test_verify_hj_relations_names_the_failing_problem():
    # omega T = pi with incompatible endpoints: the second problem has no extremal
    bvps = [BoundaryValueProblem(x0=[0.0], xf=[1.0], lambda0=0.0, lambdaf=lf)
            for lf in (1.5, np.pi)]
    with pytest.raises(NoConvergence) as info:
        verify_hj_relations(ho_system(), bvps)
    assert str(info.value).startswith(
        f"endpoint problem at (X_f, lambda_f) = ([1.0], {np.pi!r}): ")
    assert info.value.best_residual > 0


def test_verify_hj_relations_names_an_arithmetic_error():
    def overflowing(X, V, lam):
        return 0.5 * np.sum(V**2, axis=1) * np.exp(800.0 * X[:, 0])

    sys = LagrangianSystem(dim=1, lagrangian=overflowing)
    bvp = BoundaryValueProblem(x0=[0.0], xf=[1.0], lambda0=0.0, lambdaf=1.0)
    with np.errstate(over="raise"), pytest.raises(NonFiniteResult) as info:
        verify_hj_relations(sys, [bvp])
    assert str(info.value).startswith(
        "endpoint problem at (X_f, lambda_f) = ([1.0], 1.0): FloatingPointError: ")


def test_differentiation_matrix_returns_a_fresh_array():
    d = differentiation_matrix(11, 0.1)
    expect = d.copy()
    d[:] = 7.0
    assert np.array_equal(differentiation_matrix(11, 0.1), expect)
