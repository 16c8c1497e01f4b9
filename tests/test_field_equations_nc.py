import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pilotwave.field_equations as feq
from pilotwave.errors import FormMismatch
from pilotwave.fields import PolarField, complex_view
from pilotwave.nc_geometry import NCBackground, derive_nc, random_frame_background
from pilotwave.scenarios import _superposition_psi, build
from oracles import (nc_classical_action_equivalence_report, nc_classical_hj_forms,
                     nested_divergence)
from conftest import make_wavy_polar

X2 = np.array([0.4, 0.2])


def nc_plane_field(energy, k):
    p = np.array([-energy, k])
    return PolarField(rho=lambda x: 1.0, S=lambda x: np.vecdot(x, p),
                      drho=lambda x: np.zeros(2), d2rho=lambda x: np.zeros((2, 2)),
                      dS=lambda x: p.copy(), d2S=lambda x: np.zeros((2, 2)))


class TestClassicalHJ:
    def test_flat_dispersion_residual(self):
        # free NC data, S = -E t + k x: residual is 2 m E - k^2
        nc = NCBackground.flat(2, mass=1.0)
        f = nc_plane_field(energy=1.0, k=0.7)
        assert feq.nc_classical_hj_residual(nc, f, X2) == pytest.approx(2.0 - 0.49, abs=1e-13)

    def test_on_shell_dispersion(self):
        m, k = 1.3, 0.7
        nc = NCBackground.flat(2, mass=m)
        f = nc_plane_field(energy=k**2 / (2 * m), k=k)
        assert abs(feq.nc_classical_hj_residual(nc, f, X2)) < 1e-14

    @given(st.integers(0, 10_000))
    def test_two_forms_agree_on_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        nc = random_frame_background(rng, 3, charge=0.7)
        p = rng.normal(size=3)
        f = PolarField(rho=lambda x: 1.0, S=lambda x: np.vecdot(x, p),
                       drho=lambda x: np.zeros(3), d2rho=lambda x: np.zeros((3, 3)),
                       dS=lambda x: p.copy(), d2S=lambda x: np.zeros((3, 3)))
        vhat_form, vm_form = nc_classical_hj_forms(nc, f, np.zeros(3))
        scale = max(1.0, abs(vhat_form))
        assert abs(vhat_form - vm_form) < 1e-10 * scale

    def test_form_mismatch_raises_package_error(self):
        # M changes on every call, so the (vhat, Phi) and (v, M) forms disagree
        calls = iter(range(1, 1000))
        nc = dataclasses.replace(NCBackground.flat(2),
                                 m_field=lambda x: np.array([0.0, 0.3 * next(calls)]))
        with pytest.raises(FormMismatch):
            feq.nc_classical_hj_residual(nc, nc_plane_field(1.0, 0.7), X2)

    @pytest.mark.parametrize("m_t", [1e6, 1e7, 1e8, 1e300])
    def test_large_constant_potential_is_no_form_mismatch(self, m_t):
        # both forms cancel to about 0 from terms of order M_t
        sc = build("nc-nontrivial-M", {"M_t": m_t})
        for x in sc.default_grid.points():
            feq.nc_classical_hj_residual(sc.background, sc.polar, x)


class TestQuantumPotential:
    def test_constant_density_vanishes(self, wavy_nc):
        f = nc_plane_field(1.0, 0.5)
        rng = np.random.default_rng(8)
        for x in rng.uniform(-1, 1, size=(100, 2)):
            assert abs(feq.nc_quantum_potential(wavy_nc, f, x)) < 1e-12

    def test_flat_gaussian_hand_value(self):
        # rho = exp(-x^2/2): Q = rho''/(2 rho) - (rho'/rho)^2/4 = x^2/4 - 1/2
        nc = NCBackground.flat(2)

        def rho(x):
            return np.exp(-x[..., 1] ** 2 / 2)

        def drho(x):
            out = np.zeros(x.shape)
            out[..., 1] = -x[..., 1] * rho(x)
            return out

        def d2rho(x):
            out = np.zeros(x.shape + (2,))
            out[..., 1, 1] = (x[..., 1] ** 2 - 1.0) * rho(x)
            return out

        f = PolarField(rho=rho, S=lambda x: 0.0, drho=drho, d2rho=d2rho,
                       dS=lambda x: np.zeros(2), d2S=lambda x: np.zeros((2, 2)))
        assert feq.nc_quantum_potential(nc, f, np.array([0.0, 0.3])) == \
            pytest.approx(0.3**2 / 4 - 0.5, abs=1e-13)
        assert feq.nc_quantum_potential(nc, f, np.zeros(2)) == pytest.approx(-0.5, abs=1e-13)

    def test_generic_against_nested_fd(self, wavy_nc, wavy_polar, sample_points):
        for x in sample_points:
            val = feq.nc_quantum_potential(wavy_nc, wavy_polar, x)

            def bracket(p):
                der = derive_nc(wavy_nc, p)
                return der.vol * (der.h_up @ wavy_polar.drho(p)) / wavy_polar.rho(p)

            der = derive_nc(wavy_nc, x)
            dr = wavy_polar.drho(x)
            oracle = (dr @ der.h_up @ dr) / (4.0 * wavy_polar.rho(x) ** 2) \
                + nested_divergence(bracket, x) / (2.0 * der.vol)
            assert abs(val - oracle) < 1e-6


class TestQuantumHJAndContinuity:
    def test_flat_plane_wave_zero(self):
        sc = build("flat-nc-plane-wave")
        assert abs(feq.nc_quantum_hj_residual(sc.background, sc.polar, X2)) < 1e-14
        assert abs(feq.nc_continuity_residual(sc.background, sc.polar, X2)) < 1e-14

    def test_gaussian_packet_solves_both(self):
        sc = build("flat-nc-gaussian-packet")
        for x in sc.default_grid.points()[::97]:
            assert abs(feq.nc_quantum_hj_residual(sc.background, sc.polar, x)) < 1e-6
            assert abs(feq.nc_continuity_residual(sc.background, sc.polar, x)) < 1e-6

    def test_quantum_minus_classical_is_q(self, wavy_nc, wavy_polar, sample_points):
        for x in sample_points:
            gap = (feq.nc_quantum_hj_residual(wavy_nc, wavy_polar, x)
                   - feq.nc_classical_hj_residual(wavy_nc, wavy_polar, x))
            assert gap == pytest.approx(feq.nc_quantum_potential(wavy_nc, wavy_polar, x),
                                        abs=1e-14)

    def test_continuity_against_nested_fd(self, wavy_nc, wavy_polar, sample_points):
        for x in sample_points:
            val = feq.nc_continuity_residual(wavy_nc, wavy_polar, x)

            def bracket(p):
                der = derive_nc(wavy_nc, p)
                w = wavy_nc.mass - wavy_nc.charge * float(wavy_nc.phi(p))
                rho = wavy_polar.rho(p)
                k = wavy_polar.dS(p) - wavy_nc.charge * wavy_nc.reduced_gauge_at(p)
                return der.vol * rho * (w * der.v_hat - der.h_up @ k)

            assert abs(val - nested_divergence(bracket, x)) < 1e-6


class TestSchrodingerResidual:
    def test_flat_reduction_to_schrodinger_operator(self):
        # on flat data the residual is 2 i m d_t psi + d_x^2 psi
        m = 1.4
        nc = NCBackground.flat(2, mass=m)
        f = make_wavy_polar(seed=12)
        cf = complex_view(f)
        for x in np.random.default_rng(5).uniform(-0.5, 0.5, size=(4, 2)):
            val = feq.nc_schrodinger_residual(nc, cf, x)
            expect = 2j * m * cf.dpsi(x)[0] + cf.d2psi(x)[1, 1]
            assert abs(val - expect) < 1e-12

    def test_on_shell_plane_wave(self):
        sc = build("flat-nc-plane-wave")
        assert abs(feq.nc_schrodinger_residual(sc.background, sc.psi, X2)) < 1e-14

    def test_linearity_of_solutions(self):
        m = 1.0
        k1, k2 = 0.7, -0.4
        psi = _superposition_psi(
            np.array([1.0 + 0.5j, 0.8]),
            [np.array([-k1**2 / (2 * m), k1]), np.array([-k2**2 / (2 * m), k2])])
        nc = NCBackground.flat(2, mass=m)
        assert abs(feq.nc_schrodinger_residual(nc, psi, X2)) < 1e-13

    def test_packet_solves_schrodinger(self):
        sc = build("flat-nc-gaussian-packet")
        for x in sc.default_grid.points()[::203]:
            assert abs(feq.nc_schrodinger_residual(sc.background, sc.psi, x)) < 1e-6

    def test_generic_against_nested_fd(self, wavy_nc, wavy_polar):
        cf = complex_view(wavy_polar)
        x = np.array([0.15, -0.2])
        val = feq.nc_schrodinger_residual(wavy_nc, cf, x)
        q = wavy_nc.charge

        def red_gauge(p):
            return wavy_nc.reduced_gauge_at(p)

        def vhat_bracket(p):
            der = derive_nc(wavy_nc, p)
            w = wavy_nc.mass - q * float(wavy_nc.phi(p))
            return der.vol * w * der.v_hat * cf.psi(p)

        def h_bracket(p):
            der = derive_nc(wavy_nc, p)
            dcov = cf.dpsi(p) - 1j * q * red_gauge(p) * cf.psi(p)
            return der.vol * (der.h_up @ dcov)

        der = derive_nc(wavy_nc, x)
        w = wavy_nc.mass - q * float(wavy_nc.phi(x))
        a_red = red_gauge(x)
        dcov = cf.dpsi(x) - 1j * q * a_red * cf.psi(x)
        oracle = (-1j * der.vol * w * (der.v_hat @ dcov)
                  - 1j * (nested_divergence(vhat_bracket, x)
                          - 1j * q * (a_red @ vhat_bracket(x)))
                  + nested_divergence(h_bracket, x) - 1j * q * (a_red @ h_bracket(x))
                  - 2.0 * der.vol * der.Phi * w**2 * cf.psi(x)) / der.vol
        assert abs(val - oracle) < 1e-6


class TestNontrivialMScenario:
    def test_all_residuals_vanish_on_shell(self):
        sc = build("nc-nontrivial-M", {"M_t": 0.3, "M_x": 0.1, "phi": 0.2, "q": 0.5})
        for x in sc.default_grid.points()[::7]:
            assert abs(feq.nc_classical_hj_residual(sc.background, sc.polar, x)) < 1e-13
            assert abs(feq.nc_quantum_hj_residual(sc.background, sc.polar, x)) < 1e-13
            assert abs(feq.nc_continuity_residual(sc.background, sc.polar, x)) < 1e-13
            assert abs(feq.nc_schrodinger_residual(sc.background, sc.psi, x)) < 1e-13


class TestClassicalActionForms:
    def test_plane_wave_forms_agree_at_unit_density(self):
        sc = build("flat-nc-plane-wave")
        rep = nc_classical_action_equivalence_report(
            sc.background, sc.polar, sc.default_grid.points()[::5])
        assert rep.max_abs < 1e-12

    def test_nonunit_density_exposes_missing_factor(self):
        # gap = e (1 - rho)/2 * ((a h a) - (b h b)) with a = drho/2rho, b = k
        sc = build("flat-nc-gaussian-packet")
        nc = sc.background
        f = sc.polar
        x = np.array([0.8, 0.6])
        rep = nc_classical_action_equivalence_report(nc, f, [x])
        der = derive_nc(nc, x)
        rho = f.rho(x)
        a = f.drho(x) / (2 * rho)
        b = f.dS(x)
        expect = der.vol * (1 - rho) / 2 * ((a @ der.h_up @ a) - (b @ der.h_up @ b))
        assert rep.values[0] == pytest.approx(abs(expect), rel=1e-9)
        assert rep.values[0] > 1e-4
