import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pilotwave.errors import NodeEncountered
from pilotwave.fields import ComplexField, PolarField, complex_view, on_points, polar_view
from pilotwave.scenarios import build
from oracles import nested_gradient
from conftest import make_wavy_polar
from stencils import polar_field


def constant_psi(psi):
    """ComplexField of a constant value on the plane."""
    return ComplexField(psi=lambda x: psi, dpsi=lambda x: np.zeros(2, complex),
                        d2psi=lambda x: np.zeros((2, 2), complex))


def test_unit_field_composes_to_one():
    f = polar_field(rho=lambda x: 1.0, S=lambda x: 0.0)
    assert complex_view(f).psi(np.zeros(2)) == pytest.approx(1.0 + 0.0j)


def test_plane_wave_decomposition():
    p = np.array([-1.3, 0.6])
    wave = lambda x: np.exp(1j * np.vecdot(x, p))
    pf = polar_view(ComplexField(psi=wave, dpsi=lambda x: 1j * p * wave(x)[..., None],
                                 d2psi=lambda x: -np.outer(p, p) * wave(x)[..., None, None]))
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
    f = polar_field(rho=lambda x: np.exp(-x[..., 1] ** 2),
                    S=lambda x: 0.3 * x[..., 0] * x[..., 1])
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


# ---------------------------------------------------------------------------
# one read per grid: what on_points promises
# ---------------------------------------------------------------------------

CLOSURES = {PolarField: ("rho", "S", "drho", "d2rho", "dS", "d2S"),
            ComplexField: ("psi", "dpsi", "d2psi")}


def counted(f, calls, prefix=""):
    """A copy of field f whose closures count their calls in ``calls``."""
    def wrap(name, fn):
        def read(x):
            calls[prefix + name] += 1
            return fn(x)
        return read
    return dataclasses.replace(f, **{n: wrap(n, getattr(f, n)) for n in CLOSURES[type(f)]})


def grid_of(name):
    return build(name).default_grid.points()


@pytest.mark.parametrize("name", ["minkowski-superposition", "flat-nc-gaussian-packet",
                                  "curved-diagonal"])
def test_a_grid_read_equals_a_direct_read_bit_for_bit(name):
    sc, pts = build(name), grid_of(name)
    polar, psi = on_points(sc.polar, sc.psi, pts)
    for direct, once in ((sc.polar, polar), (sc.psi, psi)):
        if direct is None:
            assert once is None
            continue
        for n in CLOSURES[type(direct)]:
            for _ in range(2):  # the grid read, then the kept one
                got, want = np.asarray(getattr(once, n)(pts)), np.asarray(getattr(direct, n)(pts))
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), n


def test_kept_reads_are_read_only_and_nothing_is_read_in_advance():
    calls = Counter()
    sc, pts = build("flat-nc-gaussian-packet"), grid_of("flat-nc-gaussian-packet")
    polar, psi = on_points(counted(sc.polar, calls), None, pts)
    assert psi is None and not calls
    rho = polar.rho(pts)
    with pytest.raises(ValueError):
        rho[0] = 1.0
    assert polar.rho(pts) is rho and calls == {"rho": 1}
    assert sc.polar.rho(pts).flags.writeable  # the closure's own results are untouched


def test_a_view_over_its_source_reads_the_source_once():
    calls = Counter()
    sc, pts = build("minkowski-superposition"), grid_of("minkowski-superposition")
    psi = counted(sc.psi, calls)
    polar, psi_once = on_points(polar_view(psi), psi, pts)
    for n in CLOSURES[PolarField]:
        getattr(polar, n)(pts)
    for n in CLOSURES[ComplexField]:
        getattr(psi_once, n)(pts)
    assert calls == {"psi": 1, "dpsi": 1, "d2psi": 1}
    assert polar.source is psi_once

    calls.clear()
    pf = counted(build("flat-nc-gaussian-packet").polar, calls)
    pts = grid_of("flat-nc-gaussian-packet")
    polar, psi = on_points(pf, complex_view(pf), pts)
    for n in CLOSURES[ComplexField]:
        getattr(psi, n)(pts)
    assert calls == dict.fromkeys(CLOSURES[PolarField], 1)
    assert psi.source is polar


def test_other_points_reach_the_closure_and_an_equal_copy_is_served():
    calls = Counter()
    sc, pts = build("curved-diagonal"), grid_of("curved-diagonal")
    polar, _ = on_points(counted(sc.polar, calls), None, pts)
    polar.dS(pts[:1])
    polar.dS(pts[0])
    polar.dS(pts + 0.5)
    polar.dS(pts[::-1])
    assert calls["dS"] == 4  # none of them filled the store
    kept = polar.dS(pts.copy())
    assert calls["dS"] == 5 and polar.dS(pts) is kept and polar.dS(pts.tolist()) is kept
    assert calls["dS"] == 5


def test_a_closure_that_raises_stores_nothing():
    calls, error, failing = Counter(), FloatingPointError("overflow"), [True]

    def rho(x):
        calls["rho"] += 1
        if failing[0]:
            raise error
        return np.ones(x.shape[:-1])

    pf = dataclasses.replace(build("curved-diagonal").polar, rho=rho)
    pts = grid_of("curved-diagonal")
    polar, _ = on_points(pf, None, pts)
    with pytest.raises(FloatingPointError) as raised:
        polar.rho(pts)
    assert raised.value is error
    failing[0] = False
    assert np.all(polar.rho(pts) == 1.0) and calls["rho"] == 2
    polar.rho(pts)
    assert calls["rho"] == 2


def test_a_copy_of_a_view_has_no_source():
    cf = constant_psi(1.0 + 0.0j)
    pf = polar_view(cf)
    assert pf.source is cf and complex_view(pf).source is pf
    assert dataclasses.replace(pf).source is None
    assert dataclasses.replace(complex_view(pf)).source is None
    assert cf.source is None and dataclasses.replace(pf) == pf  # source is not compared
