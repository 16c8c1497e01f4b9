"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""
import json
import os

import numpy as np
import pytest

import pilotwave.field_equations as feq
from pilotwave.action_principles import BoundaryValueProblem, verify_hj_relations
from pilotwave.cli import main as cli_main
from pilotwave.dynamics import (GuidanceField, guidance_velocity_rel,
                                integrate_trajectory, lagrangian_nc,
                                lagrangian_quantum_rel)
from pilotwave.nc_geometry import (derive_nc, ehat_identity_residual,
                                   frame_identity_residuals,
                                   null_lift_residuals, random_frame_background)
from pilotwave.scenarios import build
from oracles import integrate_geodesic, rk4_path


def _criterion(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} {detail}".rstrip())
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_null_reduction_identity_suite():
    rng = np.random.default_rng(2024)
    worst_frame = worst_ehat = worst_lift = 0.0
    for i in range(200):
        dim = int(rng.integers(2, 5))
        nc = random_frame_background(rng, dim)
        x = np.zeros(dim)
        worst_frame = max(worst_frame, max(frame_identity_residuals(nc, x).values()))
        worst_ehat = max(worst_ehat, ehat_identity_residual(nc, x))
        res = null_lift_residuals(nc, x)
        worst_lift = max(worst_lift, res["product"], res["inverse_gap"])
    ok = worst_frame < 1e-10 and worst_ehat < 1e-9 and worst_lift < 1e-10
    _criterion(1, "null-reduction identities",
               ok, f"frame={worst_frame:.2e} ehat={worst_ehat:.2e} lift={worst_lift:.2e}")


def test_criterion_2_relativistic_mass_shell():
    sc = build("minkowski-plane-wave")
    pts = sc.default_grid.points()
    worst = 0.0
    for p in pts:
        worst = max(worst,
                    abs(feq.classical_hj_residual_rel(sc.background, sc.polar, p)),
                    abs(feq.quantum_hj_residual_rel(sc.background, sc.polar, p)),
                    abs(feq.continuity_residual_rel(sc.background, sc.polar, p)),
                    abs(feq.quantum_potential_rel(sc.background, sc.polar, p)))
    gf = GuidanceField(background=sc.background, field=sc.polar)
    traj = integrate_trajectory(gf, np.zeros(4), (0.0, 10.0), steps=21)
    expect = np.array([sc.oracle["trajectory"](np.zeros(4), t) for t in traj.lambdas])
    traj_err = float(np.max(np.abs(traj.points - expect)))
    ok = worst < 1e-9 and traj_err < 1e-8
    _criterion(2, "relativistic mass shell",
               ok, f"residuals={worst:.2e} trajectory={traj_err:.2e}")


def test_criterion_3_superposition_dichotomy():
    sc = build("minkowski-superposition")
    pts = sc.default_grid.points()
    linear_max = max(abs(feq.linear_kg_residual(sc.background, sc.psi, p)) for p in pts)
    classical_max = max(abs(feq.classical_field_residual(sc.background, sc.psi, p))
                        for p in pts)
    ok = linear_max < 1e-9 and classical_max > 1e-2
    _criterion(3, "superposition dichotomy",
               ok, f"linear={linear_max:.2e} classical={classical_max:.2e}")


def test_criterion_4_nc_gaussian_packet():
    sc = build("flat-nc-gaussian-packet")
    m = sc.params["m"]

    # the closed-form trajectory oracle itself is validated by brute force
    def rhs(t, y):
        return np.array([1.0, sc.polar.dS(y)[1] / m])

    t_grid = np.linspace(0.0, 5.0, 26)
    oracle_gap = 0.0
    for x0 in (0.25, -0.5, 1.0):
        states = rk4_path(rhs, 0.0, np.array([0.0, x0]), t_grid)
        closed = np.array([sc.oracle["bohmian_trajectory"](x0, t) for t in t_grid])
        oracle_gap = max(oracle_gap, float(np.max(np.abs(states[:, 1] - closed)
                                                  / np.abs(closed))))
    assert oracle_gap < 1e-7, "closed-form oracle failed its brute-force validation"

    pts = sc.default_grid.points()
    assert pts.shape[0] == 2500
    worst = 0.0
    for p in pts:
        worst = max(worst,
                    abs(feq.nc_quantum_hj_residual(sc.background, sc.polar, p)),
                    abs(feq.nc_continuity_residual(sc.background, sc.polar, p)))
    gf = GuidanceField(background=sc.background, field=sc.polar)
    traj_err = 0.0
    for seed in sc.default_seeds:
        traj = integrate_trajectory(gf, list(seed), (0.0, 5.0), steps=26)
        closed = np.array([sc.oracle["bohmian_trajectory"](seed[1], t)
                           for t in traj.lambdas])
        traj_err = max(traj_err, float(np.max(np.abs(traj.points[:, 1] - closed)
                                              / np.abs(closed))))
    ok = worst < 1e-6 and traj_err < 1e-4
    _criterion(4, "NC quantum packet",
               ok, f"residuals={worst:.2e} trajectories={traj_err:.2e} "
                   f"oracle-validation={oracle_gap:.2e}")


def test_criterion_5_legendre_round_trips():
    h = 1e-6
    rng = np.random.default_rng(77)

    # relativistic: FD momenta of L_Q against p = m g Xdot / sqrt(-v.g.v) + qA
    a_const = np.array([0.3, -0.2, 0.1, 0.05])
    from pilotwave.geometry import BackgroundRel
    bg = BackgroundRel.constant(np.diag([-1.0, 1.0, 1.0, 1.0]), A=a_const, mass=1.2,
                                charge=0.5)
    from pilotwave.fields import PolarField
    flat_rho = PolarField(rho=lambda x: 1.0, S=lambda x: 0.0,
                          drho=lambda x: np.zeros(4),
                          d2rho=lambda x: np.zeros((4, 4)),
                          dS=lambda x: np.zeros(4), d2S=lambda x: np.zeros((4, 4)))
    g = np.diag([-1.0, 1.0, 1.0, 1.0])
    worst_rel = coeff_gap = 0.0
    for _ in range(100):
        x = rng.uniform(-1, 1, size=4)
        v3 = rng.uniform(-0.6, 0.6, size=3)
        xdot = np.concatenate([[1.0], 0.9 * v3 / max(1.0, np.linalg.norm(v3))])
        speed = np.sqrt(-xdot @ g @ xdot)
        expect = 1.2 * (g @ xdot) / speed + 0.5 * a_const
        p_fd = np.array([
            (lagrangian_quantum_rel(bg, flat_rho, x, xdot + h * e)
             - lagrangian_quantum_rel(bg, flat_rho, x, xdot - h * e)) / (2 * h)
            for e in np.eye(4)])
        worst_rel = max(worst_rel, float(np.max(np.abs(p_fd - expect))))
        # Q = 0 must recover the classical integrand -m sqrt(-v.g.v) + qA.v
        lag = lagrangian_quantum_rel(bg, flat_rho, x, xdot)
        classical = -1.2 * speed + 0.5 * (a_const @ xdot)
        coeff_gap = max(coeff_gap, abs(lag - classical))

    # Newton-Cartan classical momenta against the closed covector formula
    from pilotwave.nc_geometry import NCBackground
    nc = NCBackground.constant(tau=[1.0, 0.1], vierbein=[[0.05], [0.95]],
                               m_field=[0.3, -0.2], gauge_bar=[0.1, 0.25],
                               phi=0.2, mass=1.1, charge=0.6)
    der = derive_nc(nc, np.zeros(2))
    w = nc.mass - nc.charge * 0.2
    tau = np.array([1.0, 0.1])
    a_red = nc.reduced_gauge_at(np.zeros(2))
    worst_nc = 0.0
    for _ in range(100):
        xdot = np.array([1.0, float(rng.uniform(-0.8, 0.8))])
        tdot = float(tau @ xdot)
        hbx = der.hbar_down @ xdot
        expect = (-w / (2 * tdot**2) * float(xdot @ hbx) * tau
                  + w * hbx / tdot + nc.charge * a_red)
        p_fd = np.array([
            (lagrangian_nc(nc, None, np.zeros(2), xdot + h * e)
             - lagrangian_nc(nc, None, np.zeros(2), xdot - h * e)) / (2 * h)
            for e in np.eye(2)])
        worst_nc = max(worst_nc, float(np.max(np.abs(p_fd - expect))))

    ok = worst_rel < 1e-6 and worst_nc < 1e-6 and coeff_gap < 1e-12
    _criterion(5, "Legendre round trips",
               ok, f"rel={worst_rel:.2e} nc={worst_nc:.2e} coeff={coeff_gap:.2e}")


def test_criterion_6_hj_endpoint_grid():
    worst_p = worst_e = worst_pde = 0.0
    for name in ("free-particle-hj", "harmonic-oscillator-hj"):
        sc = build(name)
        base = sc.bvp
        bvps = [BoundaryValueProblem(x0=base.x0, xf=[xf], lambda0=base.lambda0,
                                     lambdaf=float(lf), intervals=base.intervals)
                for xf, lf in sc.default_grid.points()]
        reports = verify_hj_relations(sc.system, bvps)
        worst_p = max(worst_p, reports["momentum"].max_abs)
        worst_e = max(worst_e, reports["energy"].max_abs)
        worst_pde = max(worst_pde, reports["pde"].max_abs)
    ok = worst_p < 5e-5 and worst_e < 5e-5 and worst_pde < 1e-4
    _criterion(6, "HJ endpoint relations",
               ok, f"momentum={worst_p:.2e} energy={worst_e:.2e} pde={worst_pde:.2e}")


def test_criterion_7_geodesic_limit():
    sc = build("curved-diagonal")
    assert sc.background.charge == 0.0
    gf = GuidanceField(background=sc.background, field=sc.polar)
    worst = 0.0
    for x0 in (np.array([0.0, -1.0]), np.array([0.0, -2.0]), np.array([0.5, 0.0])):
        traj = integrate_trajectory(gf, x0, (0.0, 5.0), steps=11)
        u0 = guidance_velocity_rel(sc.background, sc.polar, x0)
        geo = integrate_geodesic(sc.background.metric, x0, u0, traj.lambdas)
        worst = max(worst, float(np.max(np.abs(traj.points - geo))))
    _criterion(7, "geodesic limit", worst < 1e-6, f"max gap={worst:.2e}")


def test_criterion_8_determinism(tmp_path):
    doc = {"scenario": {"name": "flat-nc-gaussian-packet"},
           "grid": {"bounds": [[0, 5], [-3, 3]], "samples": [8, 8]}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    rc1 = cli_main(["check", "--config", str(cfg), "--out", out1])
    rc2 = cli_main(["check", "--config", str(cfg), "--out", out2])
    identical = rc1 == rc2 == 0
    for name in sorted(os.listdir(out1)):
        with open(os.path.join(out1, name), "rb") as fa, \
                open(os.path.join(out2, name), "rb") as fb:
            if fa.read() != fb.read():
                identical = False
                break
    _criterion(8, "byte-identical reruns", identical,
               f"files={sorted(os.listdir(out1))}")
