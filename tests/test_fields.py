import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pilotwave.errors import NodeEncountered
from pilotwave.fields import (ComplexField, complex_view, polar_field,
                              polar_view)
from oracles import nested_gradient
from conftest import make_wavy_polar


def constant_psi(psi):
    """ComplexField of a constant value on the plane."""
    return ComplexField(psi=lambda x: psi, dpsi=lambda x: np.zeros(2, complex),
                        d2psi=lambda x: np.zeros((2, 2), complex))


def test_unit_field_composes_to_one():
    f = polar_field(rho=lambda x: 1.0, S=lambda x: 0.0)
    assert complex_view(f).psi(np.zeros(2)) == pytest.approx(1.0 + 0.0j)


def test_plane_wave_decomposition():
    p = np.array([-1.3, 0.6])
    pf = polar_view(ComplexField(psi=lambda x: np.exp(1j * (p @ x)),
                                 dpsi=lambda x: 1j * p * np.exp(1j * (p @ x)),
                                 d2psi=lambda x: -np.outer(p, p) * np.exp(1j * (p @ x))))
    x = np.array([0.4, 0.8])
    assert pf.rho(x) == pytest.approx(1.0, abs=1e-12)
    expected = np.angle(np.exp(1j * (p @ x)))
    assert pf.S(x) == pytest.approx(expected, abs=1e-12)
    assert np.allclose(pf.dS(x), p, atol=1e-12)
    assert np.allclose(pf.d2S(x), 0.0, atol=1e-12)


def test_gaussian_roundtrip_pointwise():
    f = make_wavy_polar(seed=8)
    cf = complex_view(f)
    pf = polar_view(cf)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-1, 1, size=(20, 2)):
        rho, s = pf.rho(x), pf.S(x)
        assert abs(rho - f.rho(x)) < 1e-12
        rebuilt = np.sqrt(rho) * np.exp(1j * s)
        assert abs(rebuilt - cf.psi(x)) < 1e-12


@given(st.floats(0.05, 50.0), st.floats(-20.0, 20.0))
def test_roundtrip_property(rho_val, s_val):
    f = polar_field(rho=lambda x: rho_val, S=lambda x: s_val)
    pf = polar_view(constant_psi(complex_view(f).psi(np.zeros(2))))
    assert pf.rho(np.zeros(2)) == pytest.approx(rho_val, rel=1e-12)
    # phases agree modulo 2 pi, with the view's phase in (-pi, pi]
    s = pf.S(np.zeros(2))
    assert -np.pi < s <= np.pi
    assert abs(np.exp(1j * (s - s_val)) - 1.0) < 1e-10


def test_polar_view_derivatives_match_fd():
    f = make_wavy_polar(seed=9)
    cf = complex_view(f)
    pv = polar_view(cf)
    rng = np.random.default_rng(4)
    for x in rng.uniform(-1, 1, size=(5, 2)):
        assert np.max(np.abs(pv.drho(x) - nested_gradient(pv.rho, x))) < 1e-8
        assert np.max(np.abs(pv.dS(x) - f.dS(x))) < 1e-10
        for i in range(2):
            fd_row = nested_gradient(lambda p: pv.drho(p)[i], x)
            assert np.max(np.abs(pv.d2rho(x)[:, i] - fd_row)) < 1e-8
            fd_srow = nested_gradient(lambda p: pv.dS(p)[i], x)
            assert np.max(np.abs(pv.d2S(x)[:, i] - fd_srow)) < 1e-8


def test_complex_view_derivatives_match_fd():
    f = make_wavy_polar(seed=10)
    cf = complex_view(f)
    x = np.array([0.2, -0.3])
    fd = nested_gradient(cf.psi, x)
    assert np.max(np.abs(cf.dpsi(x) - fd)) < 1e-8
    for i in range(2):
        fd_row = nested_gradient(lambda p: cf.dpsi(p)[i], x)
        assert np.max(np.abs(cf.d2psi(x)[:, i] - fd_row)) < 1e-7


def test_fd_fallback_closures():
    f = polar_field(rho=lambda x: float(np.exp(-x[1] ** 2)),
                    S=lambda x: float(0.3 * x[0] * x[1]))
    x = np.array([0.5, 0.2])
    assert np.max(np.abs(f.drho(x) - np.array([0.0, -0.4 * f.rho(x)]))) < 1e-8
    assert np.max(np.abs(f.dS(x) - np.array([0.06, 0.15]))) < 1e-9
    assert abs(f.d2S(x)[0, 1] - 0.3) < 1e-6


def test_node_raises():
    pf = polar_view(constant_psi(0.0 + 0.0j))
    with pytest.raises(NodeEncountered):
        pf.S(np.zeros(2))
    with pytest.raises(NodeEncountered):
        pf.dS(np.zeros(2))
    f = polar_field(rho=lambda x: 0.0, S=lambda x: 0.0)
    with pytest.raises(NodeEncountered):
        complex_view(f).psi(np.zeros(2))
