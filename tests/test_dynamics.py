import dataclasses
import json
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

import pilotwave.dynamics as dyn
import pilotwave.field_equations as feq
import pilotwave.geometry as geometry
import pilotwave.nc_geometry as ncg
from pilotwave import cli
from pilotwave.dynamics import (GuidanceField, guidance_velocity_nc, guidance_velocity_rel,
                                integrate_trajectory, lagrangian_nc,
                                lagrangian_quantum_rel, momentum_nc_classical,
                                momentum_quantum_rel)
from pilotwave.errors import (DegenerateFrame, DegenerateVelocity, ImaginaryMass, MassSingular,
                              NodeEncountered, SignatureViolation, SingularMetric,
                              TachyonicInput)
from pilotwave.fields import EPS_NODE, PolarField
from pilotwave.geometry import BackgroundRel
from pilotwave.nc_geometry import NCBackground, derive_nc
from pilotwave.scenarios import build
from conftest import make_wavy_nc, make_wavy_polar, make_wavy_rel, trajectories
from oracles import equivariance_gap, integrate_fixed, integrate_geodesic, rk4_path
from stencils import polar_field

X4 = np.array([0.3, 0.1, -0.2, 0.5])
H_LEG = 1e-6


def fd_momenta(lagrangian, xdot, h=H_LEG):
    xdot = np.asarray(xdot, dtype=float)
    out = np.empty_like(xdot)
    for d in range(xdot.size):
        e = np.zeros_like(xdot)
        e[d] = h
        out[d] = (lagrangian(xdot + e) - lagrangian(xdot - e)) / (2 * h)
    return out


class TestGuidanceRel:
    def test_rest_frame_wave(self):
        sc = build("minkowski-plane-wave", {"m": 1.3, "k": [0.0, 0.0, 0.0]})
        u = guidance_velocity_rel(sc.background, sc.polar, X4)
        assert np.allclose(u, [1.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_boosted_wave_matches_rapidity(self):
        eta = 0.7
        m = 1.0
        k = m * np.sinh(eta)
        sc = build("minkowski-plane-wave", {"m": m, "k": [k, 0.0, 0.0]})
        u = guidance_velocity_rel(sc.background, sc.polar, X4)
        assert u[0] == pytest.approx(np.cosh(eta), abs=1e-12)
        assert u[1] == pytest.approx(np.sinh(eta), abs=1e-12)

    def test_unit_norm_on_mass_shell(self):
        sc = build("curved-diagonal")
        for x in sc.default_grid.points()[::9]:
            assert abs(feq.classical_hj_residual_rel(sc.background, sc.polar, x)) < 1e-10
            u = guidance_velocity_rel(sc.background, sc.polar, x)
            g = geometry.metric_data(sc.background, x).g
            assert abs(u @ g @ u + 1.0) < 1e-8

    def test_zero_mass_rejected(self):
        bg = BackgroundRel.minkowski(4, mass=0.0)
        sc = build("minkowski-plane-wave")
        with pytest.raises(MassSingular):
            guidance_velocity_rel(bg, sc.polar, X4)

    @pytest.mark.parametrize("g, error, message", [
        ([[-1.0, 0.5], [0.0, 1.0]], ValueError, "metric is not symmetric"),
        ([[-1.0, 0.0], [0.0, 0.0]], SingularMetric, "|det g| = 0.000e+00 below 1e-14"),
        ([[1.0, 0.0], [0.0, 1.0]], SignatureViolation, "exactly one negative eigenvalue, has 0"),
    ])
    def test_metric_checks_name_the_point(self, g, error, message):
        bg = BackgroundRel.constant(g)
        f = build("minkowski-plane-wave", {"k": [0.3]}).polar
        with pytest.raises(error, match=f"{re.escape(message)}.* at point \\[0.3, -0.7\\]$"):
            guidance_velocity_rel(bg, f, np.array([0.3, -0.7]))


class TestGuidanceNC:
    def test_flat_velocity_is_k_over_m(self):
        m, k = 1.3, 0.7
        sc = build("flat-nc-plane-wave", {"m": m, "k": k})
        v = guidance_velocity_nc(sc.background, sc.polar, np.array([0.4, 0.2]))
        assert np.allclose(v, [1.0, k / m], atol=1e-14)

    def test_zero_momentum_is_at_rest(self):
        sc = build("flat-nc-plane-wave", {"m": 1.0, "k": 0.0})
        v = guidance_velocity_nc(sc.background, sc.polar, np.array([0.4, 0.2]))
        assert np.allclose(v, [1.0, 0.0], atol=1e-14)

    def test_errors_name_their_cause(self):
        f = build("flat-nc-gaussian-packet").polar
        x = np.array([0.3, 0.7])
        # the vierbein column is parallel to tau: det(tau, e) = 0
        degenerate = NCBackground.constant(tau=[1.0, 0.0], vierbein=[[1.0], [0.0]])
        with pytest.raises(DegenerateFrame) as info:
            derive_nc(degenerate, x)
        assert str(info.value).endswith("at point [0.3, 0.7]")
        with pytest.raises(DegenerateFrame, match=f"^{re.escape(str(info.value))}$"):
            guidance_velocity_nc(degenerate, f, x)
        # w = m - q phi = 1 - 0.4 * 2.5 = 0
        singular = NCBackground.constant(tau=[1.0, 0.0], vierbein=[[0.0], [1.0]],
                                         phi=2.5, mass=1.0, charge=0.4)
        with pytest.raises(MassSingular, match="m - q phi = 0.000e[+]00 vanishes"):
            guidance_velocity_nc(singular, f, x)

    def test_packet_velocity_matches_phase_gradient(self):
        sc = build("flat-nc-gaussian-packet")
        m = sc.params["m"]
        for x in [(0.0, 0.5), (1.2, -0.8), (3.0, 1.5)]:
            x = np.array(x)
            v = guidance_velocity_nc(sc.background, sc.polar, x)
            assert v[0] == pytest.approx(1.0, abs=1e-14)
            assert v[1] == pytest.approx(sc.polar.dS(x)[1] / m, abs=1e-13)


# what one GuidanceField.velocity row reads: each closure it needs, once, and its point
# checks (check_points at every pilotwave binding)
NC_ROW = dict.fromkeys(("check_points", "tau", "vierbein", "m_field", "phi", "gauge_bar", "dS"), 1)
REL_READS = dict.fromkeys(("metric", "gauge", "dS"), 1)


def _counted(calls, name, fn):
    """fn, each of whose calls adds one to calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _counted_closures(obj, calls):
    """The dataclass obj with each of its closures counted in calls, by field name."""
    return dataclasses.replace(obj, **{
        field.name: _counted(calls, field.name, getattr(obj, field.name))
        for field in dataclasses.fields(obj) if callable(getattr(obj, field.name))})


def _counted_rows(monkeypatch, bg, f):
    """A GuidanceField on bg and f whose closures and point checks are counted, and the
    list to which each of its velocity rows appends what it called, by name."""
    calls, rows = Counter(), []
    original = geometry.check_points
    for module in [m for name, m in sys.modules.items() if name.startswith("pilotwave")]:
        if getattr(module, "check_points", None) is original:
            monkeypatch.setattr(module, "check_points", _counted(calls, "check_points", original))
    velocity = dyn.GuidanceField.velocity

    def counted_velocity(self, x):
        before = calls.copy()
        out = velocity(self, x)
        rows.append(calls - before)
        return out

    monkeypatch.setattr(dyn.GuidanceField, "velocity", counted_velocity)
    return GuidanceField(_counted_closures(bg, calls), _counted_closures(f, calls)), rows


class TestIntegrateTrajectory:
    def test_straight_line_on_plane_wave(self):
        sc = build("minkowski-plane-wave")
        gf = GuidanceField(background=sc.background, field=sc.polar)
        traj = integrate_trajectory(gf, np.zeros(4), (0.0, 10.0), steps=21)
        expect = np.array([sc.oracle["trajectory"](np.zeros(4), t) for t in traj.lambdas])
        assert np.max(np.abs(traj.points - expect)) < 1e-8
        assert traj.parametrization == "proper_time"
        assert np.max(np.abs(traj.constraint)) < 1e-9
        # the background's type picks the law: any other is refused at construction
        with pytest.raises(TypeError, match="unsupported background"):
            GuidanceField(background=sc.polar, field=sc.polar)

    def test_packet_bohmian_closed_form(self):
        sc = build("flat-nc-gaussian-packet")
        gf = GuidanceField(background=sc.background, field=sc.polar)
        for x0 in (0.5, -0.25, 1.0):
            traj = integrate_trajectory(gf, [0.0, x0], (0.0, 5.0), steps=26)
            oracle = np.array([sc.oracle["bohmian_trajectory"](x0, t)
                               for t in traj.lambdas])
            rel = np.max(np.abs(traj.points[:, 1] - oracle) / np.abs(oracle))
            assert rel < 1e-4
            assert traj.parametrization == "coordinate_time"

    def test_geodesic_limit_matches_independent_integrator(self):
        sc = build("curved-diagonal")
        gf = GuidanceField(background=sc.background, field=sc.polar)
        x0 = np.array([0.0, -1.0])
        traj = integrate_trajectory(gf, x0, (0.0, 5.0), steps=11)
        u0 = guidance_velocity_rel(sc.background, sc.polar, x0)
        geo = integrate_geodesic(sc.background.metric, x0, u0, traj.lambdas)
        assert np.max(np.abs(traj.points - geo)) < 1e-6

    @staticmethod
    def _straight_path(rho):
        # S = -t + 0.9 x on the flat background: X(lambda) = (lambda, 1.45 + 0.9 lambda)
        f = polar_field(rho=rho, S=lambda x: -x[..., 0] + 0.9 * x[..., 1])
        return GuidanceField(background=NCBackground.flat(2), field=f)

    @staticmethod
    def _peak(x):
        return np.exp(-200.0 * (x[..., 1] - 1.5) ** 2)

    def test_node_halts_integration(self):
        # the particle crosses the density peak at x = 1.5; behind it rho
        # falls to EPS_NODE near lambda = 0.433 (x = 1.84)
        gf = self._straight_path(self._peak)
        with pytest.raises(NodeEncountered) as info:
            integrate_trajectory(gf, [0.0, 1.45], (0.0, 5.0), steps=11)
        # the node lies inside the first output interval: no sample to keep
        assert info.value.partial is None
        with pytest.raises(NodeEncountered) as info:
            integrate_trajectory(gf, [0.0, 1.45], (0.0, 5.0), steps=51)
        partial = info.value.partial
        assert partial is not None and len(partial) == 5
        assert partial.lambdas[-1] == 0.4
        assert self._peak(partial.points[-1]) > EPS_NODE

    @pytest.mark.parametrize("steps, kept", [(11, None), (51, 5)])
    def test_node_is_located_on_the_step_interpolant(self, steps, kept):
        # rho = EPS_NODE where 200 (x - 1.5)^2 = ln 1e10, with x = 1.45 + 0.9 lambda
        node = (1.5 + np.sqrt(np.log(1e10) / 200.0) - 1.45) / 0.9
        with pytest.raises(NodeEncountered) as info:
            integrate_trajectory(self._straight_path(self._peak), [0.0, 1.45], (0.0, 5.0),
                                 steps=steps)
        assert abs(info.value.lam - node) <= 1e-6
        assert f"lambda={info.value.lam:.9g}" in str(info.value)
        partial = info.value.partial
        assert (None if partial is None else len(partial)) == kept

    def test_node_inside_one_step_is_seen(self):
        # rho dips below EPS_NODE only for lambda in (0.42, 0.48), strictly
        # inside the output interval [0.4, 0.5]: both ends of that interval's
        # step see rho = 1, so only samples inside the step can find the node
        def rho(x):
            return np.where((0.42 < x[..., 0]) & (x[..., 0] < 0.48), 1e-12, 1.0)

        with pytest.raises(NodeEncountered) as info:
            integrate_trajectory(self._straight_path(rho), [0.0, 1.45], (0.0, 5.0), steps=51)
        assert abs(info.value.lam - 0.42) <= 1e-6
        assert len(info.value.partial) == 5

    def test_worldline_rhs_rows(self, monkeypatch):
        # counts, not times: each of the 50 output intervals is one step of
        # 6 stages, since the node guard samples the step's interpolant rather
        # than capping the step, and only the first interval evaluates its k1;
        # a fresh k1 per interval took 350 rows, a step cap of 0.05 650, and a
        # cold start at 1e-3 x interval 1,850.  Each row checks its point once
        # and reads each closure it needs once: M and phi come from its derive_nc
        adaptive, calls = dyn.integrate_adaptive, Counter()

        def counted_adaptive(*args, **kwargs):
            calls["adaptive"] += 1
            return adaptive(*args, **kwargs)

        monkeypatch.setattr(dyn, "integrate_adaptive", counted_adaptive)
        sc = build("flat-nc-gaussian-packet")
        gf, rows = _counted_rows(monkeypatch, sc.background, sc.polar)
        traj = integrate_trajectory(gf, sc.default_seeds[0], (0.0, 5.0), steps=51)
        assert len(traj) == 51
        assert len(rows) == 301 and calls["adaptive"] == 50
        assert all(row == NC_ROW for row in rows)

    @pytest.mark.parametrize("case", ["wavy-nc", "curved-diagonal"])
    def test_guidance_row_reads(self, case, monkeypatch):
        """One velocity row on a charged, varying Newton-Cartan frame reads what a packet
        row reads; a Lorentzian row reads g, A and dS once and checks its point at most
        twice."""
        if case == "wavy-nc":
            bg, f, expected = make_wavy_nc(), make_wavy_polar(), NC_ROW
        else:
            sc = build(case)
            bg, f, expected = sc.background, sc.polar, REL_READS
        gf, rows = _counted_rows(monkeypatch, bg, f)
        for x in np.random.default_rng(4).uniform(-0.8, 0.8, size=(5, 2)):
            gf.velocity(x)
        assert len(rows) == 5
        for row in rows:
            if case == "curved-diagonal":
                assert 1 <= row.pop("check_points") <= 2
            assert row == expected

    @pytest.mark.parametrize("name", ["flat-nc-gaussian-packet", "curved-diagonal"])
    def test_carried_derivative_is_a_fresh_one(self, name, monkeypatch):
        # the k1 an interval carries from the last one is the velocity at its
        # start to the bit, which keeps trajectory files byte-identical
        starts, adaptive = [], dyn.integrate_adaptive

        def recording_adaptive(f, t0, y0, *args, **kwargs):
            starts.append((y0, kwargs["k1"]))
            return adaptive(f, t0, y0, *args, **kwargs)

        monkeypatch.setattr(dyn, "integrate_adaptive", recording_adaptive)
        sc = build(name)
        gf = GuidanceField(background=sc.background, field=sc.polar)
        integrate_trajectory(gf, sc.default_seeds[0], sc.default_span, steps=51)
        assert len(starts) == 50 and starts[0][1] is None
        for y0, k1 in starts[1:]:
            assert k1.tobytes() == np.asarray(gf.velocity(y0), dtype=float).tobytes()

    def test_fixed_step_convergence_order_on_guidance(self):
        sc = build("flat-nc-gaussian-packet")
        gf = GuidanceField(background=sc.background, field=sc.polar)
        rhs = lambda t, y: gf.velocity(y)
        y0 = np.array([0.0, 0.75])
        ref = np.array([5.0, sc.oracle["bohmian_trajectory"](0.75, 5.0)])
        errs = []
        for steps in (40, 80):
            val = integrate_fixed(rhs, 0.0, y0, 5.0, steps)
            errs.append(np.max(np.abs(val - ref)))
        slope = np.log2(errs[0] / errs[1])
        assert abs(slope - 5.0) <= 0.5

    def test_reparametrized_field_keeps_geometric_path(self):
        sc = build("flat-nc-gaussian-packet")
        gf = GuidanceField(background=sc.background, field=sc.polar)
        traj = integrate_trajectory(gf, [0.0, 0.5], (0.0, 4.0), steps=81)

        scale = 2.5
        rhs = lambda t, y: scale * gf.velocity(y)
        rescaled = rk4_path(rhs, 0.0, np.array([0.0, 0.5]),
                            np.linspace(0.0, 4.0 / scale, 81))
        # same point set when resampled against the shared time coordinate
        x_at_t = np.interp(traj.points[:, 0], rescaled[:, 0], rescaled[:, 1])
        assert np.max(np.abs(x_at_t - traj.points[:, 1])) < 1e-8


class TestLagrangianRel:
    def test_classical_limit_value(self):
        bg = BackgroundRel.minkowski(4, mass=1.3)
        val = lagrangian_quantum_rel(bg, None, np.zeros(4), [1.0, 0, 0, 0], Q=0.0)
        assert val == pytest.approx(-1.3, abs=1e-14)

    def test_constant_q_three_m_squared(self):
        m = 1.1
        bg = BackgroundRel.minkowski(4, mass=m)
        val = lagrangian_quantum_rel(bg, None, np.zeros(4), [1.0, 0, 0, 0], Q=3 * m**2)
        assert val == pytest.approx(-2 * m, abs=1e-13)

    def test_legendre_momenta_match_formula(self):
        rng = np.random.default_rng(14)
        bg = BackgroundRel.constant(np.diag([-1.0, 1.0, 1.0, 1.0]),
                                    A=[0.3, -0.2, 0.1, 0.0], mass=1.2, charge=0.5)
        for _ in range(20):
            v_spatial = rng.uniform(-0.5, 0.5, size=3)
            xdot = np.concatenate([[1.0], v_spatial * 0.9 / max(1.0, np.linalg.norm(v_spatial))])
            x = rng.uniform(-1, 1, size=4)
            q_val = float(rng.uniform(-0.3, 0.8))
            p_fd = fd_momenta(lambda v: lagrangian_quantum_rel(bg, None, x, v, Q=q_val), xdot)
            p_formula = momentum_quantum_rel(bg, None, x, xdot, Q=q_val)
            assert np.max(np.abs(p_fd - p_formula)) < 1e-8

    def test_tachyonic_and_imaginary_mass_rejected(self):
        bg = BackgroundRel.minkowski(4, mass=1.0)
        with pytest.raises(TachyonicInput):
            lagrangian_quantum_rel(bg, None, np.zeros(4), [0.0, 1.0, 0, 0], Q=0.0)
        with pytest.raises(ImaginaryMass):
            lagrangian_quantum_rel(bg, None, np.zeros(4), [1.0, 0, 0, 0], Q=-2.0)


class TestLagrangianNC:
    def test_flat_newtonian_kinetic_term(self):
        nc = NCBackground.flat(2, mass=2.0)
        val = lagrangian_nc(nc, None, np.zeros(2), [1.0, 0.3])
        assert val == pytest.approx(2.0 * 0.3**2 / 2.0, abs=1e-14)

    def test_rest_zero(self):
        nc = NCBackground.flat(2, mass=1.0)
        assert lagrangian_nc(nc, None, np.zeros(2), [1.0, 0.0], quantum=True, Q=0.0) == 0.0

    def test_fd_momenta_match_closed_form(self):
        rng = np.random.default_rng(15)
        nc = NCBackground.constant(tau=[1.0, 0.1], vierbein=[[0.05], [0.95]],
                                   m_field=[0.3, -0.2], gauge_bar=[0.1, 0.25],
                                   phi=0.2, mass=1.1, charge=0.6)
        x = np.zeros(2)
        for _ in range(20):
            xdot = np.array([1.0, rng.uniform(-0.8, 0.8)])
            p_fd = fd_momenta(lambda v: lagrangian_nc(nc, None, x, v), xdot)
            p_formula = momentum_nc_classical(nc, x, xdot)
            assert np.max(np.abs(p_fd - p_formula)) < 1e-8

    def test_quantum_term_closes_legendre_roundtrip(self):
        # FD momenta of the quantum Lagrangian evaluated at the guidance
        # velocity must reproduce dS; this pins the Q tau.Xdot/(2w) term.
        sc = build("flat-nc-gaussian-packet")
        nc, f = sc.background, sc.polar
        for x in [np.array([0.7, 0.4]), np.array([2.0, -1.1])]:
            xdot = guidance_velocity_nc(nc, f, x)
            p_fd = fd_momenta(lambda v: lagrangian_nc(nc, f, x, v, quantum=True), xdot)
            assert np.max(np.abs(p_fd - f.dS(x))) < 1e-7

    def test_degenerate_velocity_and_mass(self):
        nc = NCBackground.flat(2, mass=1.0)
        with pytest.raises(DegenerateVelocity):
            lagrangian_nc(nc, None, np.zeros(2), [0.0, 1.0])
        with pytest.raises(DegenerateVelocity):
            lagrangian_nc(nc, None, np.zeros(2), [-1.0, 0.2])
        singular = NCBackground.constant(tau=[1.0, 0.0], vierbein=[[0.0], [1.0]],
                                         phi=2.0, mass=1.0, charge=0.5)
        with pytest.raises(MassSingular):
            lagrangian_nc(singular, None, np.zeros(2), [1.0, 0.2])


# the data closures of make_wavy_nc, their derivative closures, and what Q reads of the field
NC_DATA = ("tau", "vierbein", "m_field", "gauge_bar", "phi")
NC_DERIVATIVES = ("dtau", "dvierbein", "dm_field", "dgauge_bar", "dphi")
Q_READS = dict.fromkeys(("rho", "drho", "d2rho"), 1)


@pytest.mark.parametrize("name", ["lagrangian_quantum_rel", "momentum_quantum_rel",
                                  "lagrangian_nc", "momentum_nc_classical"])
def test_lagrangian_reads(name):
    """One Lagrangian or momentum call, with Q read from the field, reads the metric once,
    and each Newton-Cartan closure and the derivative closure Q needs of it once: Q and A
    take the kernel's geometry bundle."""
    calls = Counter()
    f = _counted_closures(make_wavy_polar(), calls)
    x, xdot = np.array([0.3, -0.2]), np.array([1.0, 0.3])
    if name.endswith("_rel"):
        getattr(dyn, name)(_counted_closures(make_wavy_rel(), calls), f, x, xdot)
        expected = {"metric": 1, "dmetric": 1, "gauge": 1, **Q_READS}
    elif name == "lagrangian_nc":
        lagrangian_nc(_counted_closures(make_wavy_nc(), calls), f, x, xdot, quantum=True)
        expected = {**dict.fromkeys(NC_DATA + NC_DERIVATIVES, 1), **Q_READS}
    else:
        momentum_nc_classical(_counted_closures(make_wavy_nc(), calls), x, xdot)
        expected = dict.fromkeys(NC_DATA, 1)
    assert calls == expected


# the Lorentzian trajectory scenarios whose momenta the constraint gates: a curved metric,
# and a charged particle in a constant gauge field
LORENTZIAN_WORLDLINES = [("curved-diagonal", {}),
                         ("minkowski-plane-wave", {"q": 0.5, "a": [0.1, 0.2, -0.1, 0.05]})]


class TestHamiltonianConstraint:
    def test_plane_wave_trajectory(self):
        sc = build("minkowski-plane-wave")
        gf = GuidanceField(background=sc.background, field=sc.polar)
        traj = integrate_trajectory(gf, np.zeros(4), (0.0, 10.0), steps=11)
        assert np.max(np.abs(traj.constraint)) < 1e-9

    def test_packet_trajectory(self):
        sc = build("flat-nc-gaussian-packet")
        gf = GuidanceField(background=sc.background, field=sc.polar)
        traj = integrate_trajectory(gf, [0.0, 0.5], (0.0, 5.0), steps=11)
        assert np.max(np.abs(traj.constraint)) < 1e-5

    @pytest.mark.parametrize("name, expected", [
        # one frame row per sample serves A, the HJ expression and Q (three rows before)
        ("flat-nc-gaussian-packet", {"derive_nc": 51, "derive_nc_partials": 1}),
        ("curved-diagonal", {"metric_data": 1})])
    def test_constraint_reads_the_geometry_once(self, name, expected, monkeypatch):
        calls = Counter()
        for module, fn_name in ((ncg, "derive_nc"), (feq, "derive_nc_partials"),
                                (feq, "metric_inverse"), (geometry, "metric_data")):
            def counted(*args, fn=getattr(module, fn_name), fn_name=fn_name):
                # a bundle's g^{MN} is no read of the geometry: count calls given points
                if not isinstance(args[1], geometry.MetricData):
                    calls[fn_name] += 1
                return fn(*args)
            monkeypatch.setattr(module, fn_name, counted)
        sc = build(name)
        bg = sc.background
        if isinstance(bg, BackgroundRel):
            def metric(x, read=bg.metric):
                calls["metric"] += 1
                return read(x)
            bg = dataclasses.replace(bg, metric=metric)
        gf = GuidanceField(background=bg, field=sc.polar)
        traj = integrate_trajectory(gf, sc.default_seeds[0], sc.default_span, steps=51)
        calls.clear()
        constraint = gf.constraint_residual(traj.points, traj.momenta)
        metric_reads = calls.pop("metric", 0)
        assert calls == expected and np.array_equal(constraint, traj.constraint)
        assert metric_reads == (1 if isinstance(bg, BackgroundRel) else 0)

    def test_constraint_names_a_degenerate_sample(self):
        # the vierbein vanishes from x = 3 on: the fourth sample is the first bad one
        flat = NCBackground.flat(2)
        bg = dataclasses.replace(flat, vierbein=lambda x: np.where(
            (np.asarray(x)[..., 1] >= 3.0)[..., None, None], 0.0, [[0.0], [1.0]]))
        gf = GuidanceField(background=bg, field=build("flat-nc-gaussian-packet").polar)
        with pytest.raises(DegenerateFrame, match=r"below 1e-12 at point \[3\.0, 3\.0\]$"):
            gf.constraint_residual(np.repeat(np.arange(6.0), 2).reshape(6, 2))

    def test_off_shell_matches_classical_residual(self):
        # constant density, deliberately off-shell phase
        bg = BackgroundRel.minkowski(4, mass=1.0)
        p = np.array([-1.5, 0.6, 0.0, 0.0])
        f = PolarField(rho=lambda x: 1.0, S=lambda x: np.vecdot(x, p),
                       drho=lambda x: np.zeros(4), d2rho=lambda x: np.zeros((4, 4)),
                       dS=lambda x: p.copy(), d2S=lambda x: np.zeros((4, 4)))
        gf = GuidanceField(background=bg, field=f)
        traj = integrate_trajectory(gf, np.zeros(4), (0.0, 1.0), steps=5)
        expect = abs(feq.classical_hj_residual_rel(bg, f, np.zeros(4)))
        assert abs(traj.constraint[0]) == pytest.approx(expect, rel=1e-12)

    def test_a_lorentzian_trajectory_reads_the_gauge_field_twice(self):
        """Assembling a gauged trajectory reads A once for the guidance velocity and once for
        the momenta p = m g Xdot + q A, whose q A the constraint takes off again: the momenta
        and the constraint equal those of a fresh read of A to the bit."""
        sc = build(*LORENTZIAN_WORLDLINES[1])
        calls = Counter()
        bg = dataclasses.replace(sc.background,
                                 gauge=_counted(calls, "gauge", sc.background.gauge))
        gf = GuidanceField(background=bg, field=sc.polar)
        traj = integrate_trajectory(gf, sc.default_seeds[0], sc.default_span, steps=11)
        calls.clear()
        again = dyn._assemble_trajectory(gf, traj.lambdas, traj.points)
        assert calls == Counter(gauge=2)
        u = guidance_velocity_rel(bg, sc.polar, traj.points)
        momenta = bg.mass * np.matvec(geometry.metric_data(bg, traj.points).g, u) \
            + bg.charge * bg.gauge_at(traj.points)
        assert momenta.tobytes() == again.momenta.tobytes() == traj.momenta.tobytes()
        constraint = gf.constraint_residual(traj.points, momenta)
        assert constraint.tobytes() == again.constraint.tobytes() == traj.constraint.tobytes()

    @pytest.mark.parametrize("name, params", LORENTZIAN_WORLDLINES)
    def test_the_constraint_gates_the_worldline_velocity(self, name, params, monkeypatch,
                                                         tmp_path):
        """On Lorentzian data each sample records p = m g Xdot + q A, with Xdot the guidance
        velocity there, and the constraint is taken at p: a guidance law 5% too fast moves
        p off the mass shell by (1.05^2 - 1) m^2, so trajectories exits 1 where the guided
        run exits 0."""
        cfg = cli.RunConfig.from_dict({"scenario": {"name": name, "params": params}})
        assert cli.run("trajectories", cfg, out_dir=str(tmp_path / "guided")) == 0
        law = dyn.guidance_velocity_rel
        monkeypatch.setattr(dyn, "guidance_velocity_rel", lambda *args: 1.05 * law(*args))
        sc = build(name, params)
        bg, f = sc.background, sc.polar
        traj = integrate_trajectory(GuidanceField(background=bg, field=f),
                                    sc.default_seeds[0], sc.default_span, steps=11)
        for x, p in zip(traj.points, traj.momenta):
            xdot = 1.05 * law(bg, f, x)
            expect = bg.mass * geometry.metric_data(bg, x).g @ xdot + bg.charge * bg.gauge_at(x)
            assert np.max(np.abs(p - expect)) <= 1e-15 * max(1.0, np.max(np.abs(expect)))
        assert np.max(np.abs(traj.constraint)) > 0.05 * bg.mass**2
        assert cli.run("trajectories", cfg, out_dir=str(tmp_path / "fast")) == 1


@pytest.mark.parametrize("name, params, seeds", [
    ("flat-nc-gaussian-packet", {}, None),
    ("curved-diagonal", {"rho_profile": "conserved"},
     ((0.0, -1.0), (0.0, -0.5), (0.0, 0.5), (0.5, 1.0)))])
def test_the_flow_carries_the_density(name, params, seeds):
    """Equivariance: guidance plus continuity keep rho e J (Newton-Cartan) or rho sqrt(-g) J
    (Lorentzian) constant along each worldline, J the flow Jacobian; a density the flow
    does not conserve, curved-diagonal's constant profile, is far from it."""
    assert equivariance_gap(build(name, params), seeds) <= 1e-9
    if name == "curved-diagonal":
        assert equivariance_gap(build(name, {"rho_profile": "constant"}), seeds) > 1e-2


@settings(max_examples=80)
@given(trajectories())
def test_trajectory_json_is_byte_identical_to_json_dumps(traj):
    doc = {"parametrization": traj.parametrization,
           "lambda": [float(v) for v in traj.lambdas],
           "X": [[float(c) for c in p] for p in traj.points],
           "p": [[float(c) for c in p] for p in traj.momenta],
           "constraint_residual": [float(v) for v in traj.constraint]}
    assert traj.to_json() == json.dumps(doc, sort_keys=True, indent=1)
