import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pilotwave.errors import DegenerateFrame
from pilotwave.nc_geometry import (NCBackground, derive_nc, derive_nc_partials,
                                   ehat_identity_residual, frame_identity_residuals,
                                   null_lift, null_lift_residuals,
                                   random_frame_background)
from pilotwave.report import sweep

X2 = np.zeros(2)


def test_flat_nc_derived_objects():
    nc = NCBackground.flat(dim=3)
    der = derive_nc(nc, np.zeros(3))
    assert np.allclose(der.v, [-1.0, 0.0, 0.0], atol=1e-14)
    assert der.Phi == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(der.v_hat, der.v, atol=1e-14)
    assert np.allclose(der.h_up, np.diag([0.0, 1.0, 1.0]), atol=1e-14)
    assert der.vol == pytest.approx(1.0)


def test_time_component_mass_field_gives_phi():
    nc = NCBackground.constant(tau=[1.0, 0.0], vierbein=[[0.0], [1.0]],
                               m_field=[0.3, 0.0])
    der = derive_nc(nc, X2)
    assert der.Phi == pytest.approx(0.3, abs=1e-14)
    # h^{mu nu} M_nu has no time component here, so vhat = v
    assert np.allclose(der.v_hat, der.v, atol=1e-14)


@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]))
def test_random_frame_identities(seed, dim):
    rng = np.random.default_rng(seed)
    nc = random_frame_background(rng, dim)
    x = np.zeros(dim)
    res = frame_identity_residuals(nc, x)
    assert max(res.values()) < 1e-10
    # independent linear-solve oracle: F^T v = -e_0 and F^T e^mu_a = e_{a+1}
    frame = nc.frame_at(x)
    der = derive_nc(nc, x)
    basis = np.eye(dim)
    v_oracle = np.linalg.solve(frame.T, -basis[0])
    assert np.max(np.abs(der.v - v_oracle)) < 1e-10
    for a in range(dim - 1):
        einv_oracle = np.linalg.solve(frame.T, basis[a + 1])
        assert np.max(np.abs(der.e_inv[a] - einv_oracle)) < 1e-10


def test_ehat_identity_flat_and_nontrivial():
    assert ehat_identity_residual(NCBackground.flat(2), X2) < 1e-15
    nc = NCBackground.constant(tau=[1.0, 0.2], vierbein=[[0.1], [0.9]],
                               m_field=[0.4, -0.3])
    assert ehat_identity_residual(nc, X2) < 1e-10
    report = sweep("ehat-identity", lambda x: ehat_identity_residual(nc, x), [X2, X2 + 1.0])
    assert report.max_abs < 1e-10


@given(st.integers(0, 10_000))
def test_ehat_identity_random(seed):
    rng = np.random.default_rng(seed)
    nc = random_frame_background(rng, 3)
    assert ehat_identity_residual(nc, np.zeros(3)) < 1e-9


def test_null_lift_flat_lightcone_block():
    lift = null_lift(NCBackground.flat(2), X2)
    expect = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.allclose(lift.gamma, expect, atol=1e-14)
    assert np.allclose(lift.gamma_inv, expect, atol=1e-14)


def test_null_lift_uu_block_is_twice_phi():
    # Phi = 0.5 through M_t = 0.5 on flat data -> gamma^{uu} = 1.0
    nc = NCBackground.constant(tau=[1.0, 0.0], vierbein=[[0.0], [1.0]],
                               m_field=[0.5, 0.0])
    assert derive_nc(nc, X2).Phi == pytest.approx(0.5)
    lift = null_lift(nc, X2)
    assert lift.gamma_inv[2, 2] == pytest.approx(1.0, abs=1e-14)


def test_gauge_lift_layout():
    nc = NCBackground.constant(tau=[1.0, 0.0], vierbein=[[0.0], [1.0]],
                               m_field=[0.3, 0.1], gauge_bar=[0.2, -0.4], phi=0.7)
    lift = null_lift(nc, X2)
    assert lift.gauge_lift[-1] == pytest.approx(0.7)
    assert np.allclose(lift.gauge_lift[:2],
                       np.array([0.2, -0.4]) - 0.7 * np.array([0.3, 0.1]))


@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]))
def test_null_lift_random_inverse_and_signature(seed, dim):
    rng = np.random.default_rng(seed)
    nc = random_frame_background(rng, dim)
    x = np.zeros(dim)
    res = null_lift_residuals(nc, x)
    assert res["product"] < 1e-10
    assert res["inverse_gap"] < 1e-10
    assert res["volume_gap"] < 1e-10
    gamma = null_lift(nc, x).gamma
    assert np.max(np.abs(gamma - gamma.T)) < 1e-14
    assert int(np.sum(np.linalg.eigvalsh(gamma) < 0)) == 1


def test_derived_partials_match_fd(wavy_nc):
    from oracles import nested_gradient
    rng = np.random.default_rng(2)
    for x in rng.uniform(-0.7, 0.7, size=(5, 2)):
        parts = derive_nc_partials(wavy_nc, x)
        for key, pick in [("Phi", lambda d: d.Phi), ("vol", lambda d: d.vol)]:
            fd = nested_gradient(lambda p: pick(derive_nc(wavy_nc, p)), x)
            assert np.max(np.abs(parts[key] - fd)) < 1e-6, key
        fd_v = np.stack([nested_gradient(
            lambda p: derive_nc(wavy_nc, p).v[i], x) for i in range(2)], axis=-1)
        assert np.max(np.abs(parts["v"] - fd_v)) < 1e-6
        fd_h = np.stack([nested_gradient(
            lambda p: derive_nc(wavy_nc, p).h_up[i, j], x)
            for i in range(2) for j in range(2)], axis=-1).reshape(2, 2, 2)
        assert np.max(np.abs(parts["h_up"] - fd_h)) < 1e-6
        fd_hbar = np.stack([nested_gradient(
            lambda p: derive_nc(wavy_nc, p).hbar_down[i, j], x)
            for i in range(2) for j in range(2)], axis=-1).reshape(2, 2, 2)
        assert np.max(np.abs(parts["hbar_down"] - fd_hbar)) < 1e-6
        fd_einv = np.stack([nested_gradient(
            lambda p: derive_nc(wavy_nc, p).e_inv[0, j], x)
            for j in range(2)], axis=-1).reshape(2, 1, 2)
        assert np.max(np.abs(parts["e_inv"] - fd_einv)) < 1e-6


def test_derived_partials_reduced_gauge_matches_fd(wavy_nc):
    from oracles import nested_gradient
    rng = np.random.default_rng(4)
    for x in rng.uniform(-0.7, 0.7, size=(5, 2)):
        fd = np.stack([nested_gradient(lambda p: wavy_nc.reduced_gauge_at(p)[i], x)
                       for i in range(2)], axis=-1)
        assert np.max(np.abs(derive_nc_partials(wavy_nc, x)["A"] - fd)) < 1e-6


def test_derived_frame_bundle(wavy_nc):
    rng = np.random.default_rng(4)
    for x in rng.uniform(-0.8, 0.8, size=(10, 2)):
        der = derive_nc(wavy_nc, x)
        assert np.array_equal(der.frame, wavy_nc.frame_at(x))
        assert np.max(np.abs(der.finv @ der.frame - np.eye(2))) < 1e-14
        assert np.array_equal(der.m, wavy_nc.m_field(x))
        assert der.w == wavy_nc.mass - wavy_nc.charge * wavy_nc.phi(x)


def test_degenerate_frame_raises():
    nc = NCBackground.constant(tau=[1.0, 0.0], vierbein=[[2.0], [0.0]])
    with pytest.raises(DegenerateFrame):
        derive_nc(nc, X2)
