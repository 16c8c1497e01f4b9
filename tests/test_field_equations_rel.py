import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pilotwave.field_equations as feq
from pilotwave.fields import PolarField, complex_view, polar_view
from pilotwave.geometry import BackgroundRel, metric_data, metric_inverse
from pilotwave.scenarios import build
from oracles import classical_field_equation_report, ensemble_current, nested_divergence


def plane_wave_field(p):
    p = np.asarray(p, dtype=float)
    d = p.size
    return PolarField(rho=lambda x: 1.0, S=lambda x: np.vecdot(x, p),
                      drho=lambda x: np.zeros(d), d2rho=lambda x: np.zeros((d, d)),
                      dS=lambda x: p.copy(), d2S=lambda x: np.zeros((d, d)))


X4 = np.array([0.3, 0.1, -0.2, 0.5])


class TestClassicalHJ:
    def test_on_shell_plane_wave(self):
        sc = build("minkowski-plane-wave", {"m": 1.0, "k": [0.6, 0.0, 0.0]})
        assert abs(feq.classical_hj_residual_rel(sc.background, sc.polar, X4)) < 1e-14

    def test_doubled_mass_gives_three_m_squared(self):
        m = 1.0
        sc = build("minkowski-plane-wave", {"m": m, "k": [0.6, 0.0, 0.0]})
        heavy = BackgroundRel.minkowski(4, mass=2 * m)
        res = feq.classical_hj_residual_rel(heavy, sc.polar, X4)
        assert res == pytest.approx(3 * m**2, abs=1e-12)

    def test_constant_gauge_shift_stays_on_shell(self):
        sc = build("minkowski-plane-wave",
                   {"m": 1.0, "k": [0.6, 0.0, 0.0], "q": 0.8,
                    "a": [0.2, -0.1, 0.3, 0.0]})
        assert abs(feq.classical_hj_residual_rel(sc.background, sc.polar, X4)) < 1e-12


class TestEnsembleCurrent:
    def test_flat_unit_density_raises_index(self):
        p = np.array([-1.3, 0.6, 0.0, 0.0])
        f = plane_wave_field(p)
        bg = BackgroundRel.minkowski(4)
        j = ensemble_current(bg, f, X4)
        assert np.allclose(j, np.diag([-1.0, 1, 1, 1]) @ p, atol=1e-14)

    def test_linear_in_density(self):
        p = np.array([-1.3, 0.6, 0.0, 0.0])
        bg = BackgroundRel.minkowski(4)
        f1 = plane_wave_field(p)
        f2 = PolarField(rho=lambda x: 2.0, S=f1.S, drho=f1.drho,
                        d2rho=f1.d2rho, dS=f1.dS, d2S=f1.d2S)
        assert np.allclose(ensemble_current(bg, f2, X4),
                           2.0 * ensemble_current(bg, f1, X4), atol=1e-14)

    def test_curved_matches_elementwise_formula(self, wavy_rel, wavy_polar):
        x = np.array([0.25, -0.4])
        j = ensemble_current(wavy_rel, wavy_polar, x)
        ginv = metric_inverse(wavy_rel, x)
        vol = metric_data(wavy_rel, x).vol
        k = wavy_polar.dS(x) - wavy_rel.charge * wavy_rel.gauge_at(x)
        expect = np.array([wavy_polar.rho(x) * vol * sum(ginv[m, n] * k[n] for n in range(2))
                           for m in range(2)])
        assert np.allclose(j, expect, atol=1e-13)


class TestContinuity:
    def test_plane_wave_is_conserved(self):
        sc = build("minkowski-plane-wave")
        assert abs(feq.continuity_residual_rel(sc.background, sc.polar, X4)) < 1e-14

    def test_transverse_density_modulation(self):
        # rho = 1 + 0.1 sin(k2 y) with p having no y component: k.p = 0
        p = np.array([-np.sqrt(1.36), 0.6, 0.0, 0.0])
        k2 = 0.9
        def drho(x):
            out = np.zeros(x.shape)
            out[..., 2] = 0.1 * k2 * np.cos(k2 * x[..., 2])
            return out

        def d2rho(x):
            out = np.zeros(x.shape + (4,))
            out[..., 2, 2] = -0.1 * k2**2 * np.sin(k2 * x[..., 2])
            return out

        f = PolarField(rho=lambda x: 1.0 + 0.1 * np.sin(k2 * x[..., 2]),
                       S=lambda x: np.vecdot(x, p), drho=drho, d2rho=d2rho,
                       dS=lambda x: p.copy(), d2S=lambda x: np.zeros((4, 4)))
        bg = BackgroundRel.minkowski(4)
        assert abs(feq.continuity_residual_rel(bg, f, X4)) < 1e-14

    def test_generic_against_nested_fd_divergence(self, wavy_rel, wavy_polar, sample_points):
        for x in sample_points:
            val = feq.continuity_residual_rel(wavy_rel, wavy_polar, x)
            oracle = nested_divergence(
                lambda p: ensemble_current(wavy_rel, wavy_polar, p), x)
            assert abs(val - oracle) < 1e-7


class TestQuantumPotential:
    def test_constant_density_vanishes(self, wavy_rel):
        f = plane_wave_field(np.array([-1.0, 0.3]))
        rng = np.random.default_rng(6)
        for x in rng.uniform(-1, 1, size=(100, 2)):
            assert abs(feq.quantum_potential_rel(wavy_rel, f, x)) < 1e-12

    def test_static_gaussian_hand_values(self):
        # D = 2 Minkowski, rho = exp(-x^2):  at x = 0 the operating form
        # gives -(1/2) rho''/rho = 1.0 and the literal variant half of it.
        bg = BackgroundRel.minkowski(2)

        def rho(x):
            return np.exp(-x[..., 1] ** 2)

        def drho(x):
            out = np.zeros(x.shape)
            out[..., 1] = -2.0 * x[..., 1] * rho(x)
            return out

        def d2rho(x):
            out = np.zeros(x.shape + (2,))
            out[..., 1, 1] = (4.0 * x[..., 1] ** 2 - 2.0) * rho(x)
            return out

        f = PolarField(rho=rho, S=lambda x: 0.0, drho=drho, d2rho=d2rho,
                       dS=lambda x: np.zeros(2), d2S=lambda x: np.zeros((2, 2)))
        origin = np.zeros(2)
        assert feq.quantum_potential_rel(bg, f, origin) == pytest.approx(1.0, abs=1e-12)
        assert feq.quantum_potential_rel_printed(bg, f, origin) == pytest.approx(0.5, abs=1e-12)

    def test_generic_against_nested_fd(self, wavy_rel, wavy_polar, sample_points):
        for x in sample_points:
            val = feq.quantum_potential_rel(wavy_rel, wavy_polar, x)

            def bracket(p):
                ginv = metric_inverse(wavy_rel, p)
                vol = metric_data(wavy_rel, p).vol
                dr = wavy_polar.drho(p)
                return vol * (ginv @ dr) / (2.0 * wavy_polar.rho(p))

            oracle = (-(wavy_polar.drho(x) @ metric_inverse(wavy_rel, x)
                        @ wavy_polar.drho(x)) / (4.0 * wavy_polar.rho(x) ** 2)
                      - nested_divergence(bracket, x) / metric_data(wavy_rel, x).vol)
            assert abs(val - oracle) < 1e-6


class TestQuantumHJ:
    def test_plane_wave_on_shell(self):
        sc = build("minkowski-plane-wave")
        assert abs(feq.quantum_hj_residual_rel(sc.background, sc.polar, X4)) < 1e-14

    def test_difference_is_exactly_q(self, wavy_rel, wavy_polar, sample_points):
        for x in sample_points:
            gap = (feq.quantum_hj_residual_rel(wavy_rel, wavy_polar, x)
                   - feq.classical_hj_residual_rel(wavy_rel, wavy_polar, x))
            assert gap == pytest.approx(feq.quantum_potential_rel(wavy_rel, wavy_polar, x),
                                        abs=1e-14)

    def test_superposed_on_shell_waves_satisfy_quantum_hj(self):
        sc = build("minkowski-superposition")
        for x in sc.default_grid.points()[::13]:
            assert abs(feq.quantum_hj_residual_rel(sc.background, sc.polar, x)) < 1e-7
            assert abs(feq.continuity_residual_rel(sc.background, sc.polar, x)) < 1e-7

    def test_q_is_added_through_quantum_potential_rel(self, monkeypatch):
        """quantum_hj_residual_rel takes Q from quantum_potential_rel, the one Q entry
        point of a Lorentzian background, so a slip there moves the residual too."""
        sc = build("minkowski-superposition")
        bg, f, pts = sc.background, sc.polar, sc.default_grid.points()[::13]
        q, before = feq.quantum_potential_rel(bg, f, pts), feq.quantum_hj_residual_rel(bg, f, pts)
        real = feq.quantum_potential_rel
        monkeypatch.setattr(feq, "quantum_potential_rel", lambda *args: 1.05 * real(*args))
        moved = feq.quantum_hj_residual_rel(bg, f, pts) - before
        assert np.max(np.abs(q)) > 1e-2
        assert np.allclose(moved, 0.05 * q, rtol=1e-9, atol=1e-14)


class TestLinearWave:
    def test_on_shell_plane_wave(self):
        sc = build("minkowski-plane-wave")
        assert abs(feq.linear_kg_residual(sc.background, sc.psi, X4)) < 1e-14

    @given(st.complex_numbers(max_magnitude=3.0, min_magnitude=0.05),
           st.complex_numbers(max_magnitude=3.0, min_magnitude=0.05))
    def test_linearity(self, a, b):
        from pilotwave.scenarios import _superposition_psi
        m = 1.0
        p1 = np.array([-np.sqrt(m**2 + 0.36), 0.6, 0.0, 0.0])
        p2 = np.array([-np.sqrt(m**2 + 0.64), -0.8, 0.0, 0.0])
        psi = _superposition_psi(np.array([a, b]), [p1, p2])
        bg = BackgroundRel.minkowski(4, mass=m)
        assert abs(feq.linear_kg_residual(bg, psi, X4)) < 1e-9

    def test_off_shell_returns_minus_delta_psi(self):
        from pilotwave.scenarios import _superposition_psi
        m = 1.0
        p = np.array([-1.5, 0.6, 0.0, 0.0])   # p.p + m^2 = -2.25 + 0.36 + 1
        delta = -2.25 + 0.36 + m**2
        psi = _superposition_psi(np.array([1.0]), [p])
        bg = BackgroundRel.minkowski(4, mass=m)
        res = feq.linear_kg_residual(bg, psi, X4)
        assert abs(res - (-delta) * psi.psi(X4)) < 1e-12

    def test_curved_against_nested_fd(self, wavy_rel, wavy_polar, sample_points):
        cf = complex_view(wavy_polar)
        for x in sample_points:
            val = feq.linear_kg_residual(wavy_rel, cf, x)

            def bracket(p):
                ginv = metric_inverse(wavy_rel, p)
                vol = metric_data(wavy_rel, p).vol
                dcov = cf.dpsi(p) - 1j * wavy_rel.charge * wavy_rel.gauge_at(p) * cf.psi(p)
                return vol * (ginv @ dcov)

            a_cov = wavy_rel.gauge_at(x)
            div = nested_divergence(bracket, x) \
                - 1j * wavy_rel.charge * (a_cov @ bracket(x))
            oracle = div / metric_data(wavy_rel, x).vol - wavy_rel.mass**2 * cf.psi(x)
            assert abs(val - oracle) < 1e-6


class TestClassicalWave:
    def test_single_on_shell_wave_solves_it(self):
        sc = build("minkowski-plane-wave")
        assert abs(feq.classical_field_residual(sc.background, sc.psi, X4)) < 1e-13

    def test_superposition_fails_at_most_points(self):
        sc = build("minkowski-superposition")
        pts = sc.default_grid.points()
        vals = np.array([abs(feq.classical_field_residual(sc.background, sc.psi, p))
                         for p in pts])
        assert np.max(vals) > 1e-2
        assert np.mean(vals > 1e-2) >= 0.9

    def test_curved_classical_solution_with_conserved_density(self):
        # classical HJ plus continuity hold, so the wave residual vanishes
        sc = build("curved-diagonal", {"rho_profile": "conserved"})
        cf = complex_view(sc.polar)
        for x in sc.default_grid.points()[::7]:
            assert abs(feq.continuity_residual_rel(sc.background, sc.polar, x)) < 1e-10
            assert abs(feq.classical_field_residual(sc.background, cf, x)) < 1e-8

    def test_polar_identity(self, wavy_rel, wavy_polar, sample_points):
        # residual = psi (-classical_hj + i continuity / (rho sqrt(-g)))
        cf = complex_view(wavy_polar)
        for x in sample_points:
            lhs = feq.classical_field_residual(wavy_rel, cf, x)
            rho = wavy_polar.rho(x)
            rhs = cf.psi(x) * (-feq.classical_hj_residual_rel(wavy_rel, wavy_polar, x)
                               + 1j * feq.continuity_residual_rel(wavy_rel, wavy_polar, x)
                               / (rho * metric_data(wavy_rel, x).vol))
            assert abs(lhs - rhs) < 1e-10

    def test_printed_variant_reports_discrepancy(self):
        sc = build("minkowski-plane-wave")
        reports = classical_field_equation_report(sc.background, sc.psi,
                                                  sc.default_grid.points()[::11])
        assert reports["derived"].max_abs < 1e-12
        assert reports["printed"].max_abs > 0.1
        assert reports["discrepancy"].max_abs > 0.1


class TestPolarCartesianEquivalence:
    def test_solutions_satisfy_both_descriptions(self):
        for name in ("minkowski-plane-wave", "minkowski-superposition"):
            sc = build(name)
            for x in sc.default_grid.points()[::17]:
                assert abs(feq.linear_kg_residual(sc.background, sc.psi, x)) < 1e-7
                assert abs(feq.quantum_hj_residual_rel(sc.background, sc.polar, x)) < 1e-7
                assert abs(feq.continuity_residual_rel(sc.background, sc.polar, x)) < 1e-7

    def test_off_shell_field_fails_both_descriptions(self):
        from pilotwave.scenarios import _superposition_psi
        bg = BackgroundRel.minkowski(4)
        psi = _superposition_psi(np.array([1.0]), [np.array([-1.5, 0.6, 0.0, 0.0])])
        pv = polar_view(psi)
        assert abs(feq.linear_kg_residual(bg, psi, X4)) > 1e-2
        assert abs(feq.quantum_hj_residual_rel(bg, pv, X4)) > 1e-2
