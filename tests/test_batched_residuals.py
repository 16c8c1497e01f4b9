"""One batch contract for both halves: a (K, D) call equals the K point calls.

Every closure takes one point (D,) or a batch (..., D), and every public
residual of the relativistic and the Newton-Cartan half, every
Newton-Cartan identity, the Newton-Cartan frame partials and the Lorentzian
guidance velocity take one point (D,) or a batch (K, D).  A batch
must reproduce its point calls to 1e-13 max(1, |v|), a single point gives
shape-() values, a bad row must raise the point call's error naming that
row's point, and a check must read the geometry, call each identity and
read each field closure the same number of times whatever the size of its
grid.  A relativistic residual given the MetricData bundle of its points
returns exactly its value at the points, and a Lorentzian grid's checks
share one bundle.  A Newton-Cartan residual or identity given the
``NCDerived`` bundle of its points returns the same bits and solves no
frame, and given the points it solves as many as before; a Newton-Cartan
grid's checks derive their frame partials
once per residual that takes a divergence, and compute each object derived
from the frame as often, at most once per stack of frames, whatever the
size of the grid; a bundle inverts its frames once, stacked, at the first
read of the inverse.  The checks of a grid read each field closure at most
once, a view's source included, and a closure that fails at one point
through the CLI names that point.
"""
import dataclasses
import functools
import itertools
import json
import re
import sys
from collections import Counter

import numpy as np
import pytest

import pilotwave.field_equations as feq
import pilotwave.geometry as geo
import pilotwave.nc_geometry as ncg
import pilotwave.scenarios as scen
from pilotwave import cli
from pilotwave.dynamics import guidance_velocity_rel
from pilotwave.errors import (DegenerateFrame, FormMismatch, NodeEncountered,
                              SignatureViolation, SingularMetric)
from pilotwave.fields import EPS_NODE, ComplexField, PolarField, complex_view, polar_view
from pilotwave.geometry import BackgroundRel, metric_data, metric_inverse
from pilotwave.nc_geometry import NCBackground
from pilotwave.scenarios import CHECK_EVALUATORS, build
import oracles
from conftest import make_wavy_nc, make_wavy_polar, make_wavy_rel, wavy_nc_derivatives
from stencils import jacobian

REL_TOL = 1e-13

# public residual -> (field it reads, dtype and number of axes of one point's value)
POLAR, COMPLEX = "polar", "psi"
REL_RESIDUALS = {
    "momentum_covector": (POLAR, float, 1),
    "classical_hj_residual_rel": (POLAR, float, 0),
    "ensemble_current": (POLAR, float, 1),
    "continuity_residual_rel": (POLAR, float, 0),
    "quantum_potential_rel": (POLAR, float, 0),
    "quantum_potential_rel_printed": (POLAR, float, 0),
    "quantum_hj_residual_rel": (POLAR, float, 0),
    "linear_kg_residual": (COMPLEX, complex, 0),
    "classical_field_residual": (COMPLEX, complex, 0),
    "classical_field_residual_printed": (COMPLEX, complex, 0),
}
NC_RESIDUALS = {
    "nc_momentum_covector": (POLAR, float, 1),
    "nc_classical_hj_residual": (POLAR, float, 0),
    "nc_quantum_potential": (POLAR, float, 0),
    "nc_quantum_hj_residual": (POLAR, float, 0),
    "nc_continuity_residual": (POLAR, float, 0),
    "nc_classical_action_density_polar": (POLAR, float, 0),
    "nc_schrodinger_residual": (COMPLEX, complex, 0),
    "nc_classical_action_density_complex_printed": (COMPLEX, complex, 0),
}
# identity of nc_geometry -> the keys (dict) or attributes (NullLift) of its result, or
# None for an array
NC_IDENTITIES = {
    "frame_identity_residuals": ("v_dot_tau", "v_dot_vierbein", "tau_dot_einv",
                                 "einv_vierbein", "hup_tau"),
    "ehat_identity_residual": None,
    "null_lift": ("gamma", "gamma_inv", "gauge_lift"),
    "null_lift_residuals": ("product", "inverse_gap", "volume_gap"),
}
# each object of a MetricData bundle -> its number of axes at one point
METRIC_DATA_SHAPES = {"pt": 1, "g": 2, "ginv": 2, "dg": 3, "dginv": 3, "vol": 0, "dvol": 1}


def _wavy_case(dim, background=make_wavy_rel):
    polar = make_wavy_polar(dim=dim)
    pts = np.random.default_rng(dim).uniform(-0.8, 0.8, size=(9, dim))
    return background(dim=dim), {POLAR: polar, COMPLEX: complex_view(polar)}, pts


def _registry_case(name):
    sc = build(name)
    return sc.background, {POLAR: sc.polar, COMPLEX: sc.psi}, sc.default_grid.points()


CASES = {"wavy-2": lambda: _wavy_case(2), "wavy-3": lambda: _wavy_case(3),
         "nc-wavy-2": lambda: _wavy_case(2, make_wavy_nc),
         "nc-wavy-3": lambda: _wavy_case(3, make_wavy_nc),
         **{name: (lambda name=name: _registry_case(name))
            for name in ("minkowski-plane-wave", "minkowski-superposition", "curved-diagonal",
                         "flat-nc-plane-wave", "flat-nc-gaussian-packet", "nc-nontrivial-M")}}


def _residual(name):
    """The function of that name: a residual or NC identity of the package, or a
    reference quantity of ``oracles``."""
    for module in (feq, ncg, oracles):
        if hasattr(module, name):
            return getattr(module, name)
    raise AttributeError(name)


def _assert_rows_match(batch, points):
    points = np.asarray(points)
    assert batch.shape == points.shape
    gap = np.abs(batch - points)
    assert np.all(gap <= REL_TOL * np.maximum(1.0, np.abs(points))), gap.max()


def _entries(result, keys):
    """The arrays of an identity's result, in the order of its NC_IDENTITIES entry."""
    if keys is None:
        return [result]
    return [result[k] if isinstance(result, dict) else getattr(result, k) for k in keys]


def _assert_batch_equals_points(bg, fields, pts):
    """Every public residual (and on a Newton-Cartan background every identity, on a
    Lorentzian one the guidance velocity) on the batch pts equals its point calls at
    every row; on a grid of more than 200 rows the point calls sample 100, the last
    one included."""
    rows = (np.arange(len(pts)) if len(pts) <= 200
            else np.unique(np.linspace(0, len(pts) - 1, 100).astype(int)))
    nc = isinstance(bg, NCBackground)
    checked = 0
    for name, (field, _, _) in (NC_RESIDUALS if nc else REL_RESIDUALS).items():
        if fields[field] is None:
            continue
        fn = _residual(name)
        _assert_rows_match(fn(bg, fields[field], pts)[rows],
                           [fn(bg, fields[field], p) for p in pts[rows]])
        checked += 1
    assert checked >= len(REL_RESIDUALS) - 3
    if nc:
        forms = np.stack(oracles.nc_classical_hj_forms(bg, fields[POLAR], pts), axis=-1)
        _assert_rows_match(forms[rows], [oracles.nc_classical_hj_forms(bg, fields[POLAR], p)
                                         for p in pts[rows]])
        k = feq.nc_momentum_covector(bg, fields[POLAR], pts)
        _assert_rows_match(feq.nc_hj_expression(bg, pts, k)[rows],
                           [feq.nc_hj_expression(bg, pts[i], k[i]) for i in rows])
        for name, keys in NC_IDENTITIES.items():
            fn = getattr(ncg, name)
            singles = [_entries(fn(bg, p), keys) for p in pts[rows]]
            for j, batch in enumerate(_entries(fn(bg, pts), keys)):
                _assert_rows_match(batch[rows], [single[j] for single in singles])
        return
    k = feq.momentum_covector(bg, fields[POLAR], pts)
    _assert_rows_match(feq.hj_expression(bg, pts, k)[rows],
                       [feq.hj_expression(bg, pts[i], k[i]) for i in rows])
    _assert_rows_match(guidance_velocity_rel(bg, fields[POLAR], pts)[rows],
                       [guidance_velocity_rel(bg, fields[POLAR], p) for p in pts[rows]])
    _assert_rows_match(metric_inverse(bg, pts)[rows], [metric_inverse(bg, p) for p in pts[rows]])
    # a bundle keeps the shape its closures return, which broadcasts to the points
    batch = metric_data(bg, pts)
    singles = [metric_data(bg, p) for p in pts[rows]]
    for field, axes in METRIC_DATA_SHAPES.items():
        at_points = np.broadcast_to(getattr(batch, field), pts.shape[:-1] + (bg.dim,) * axes)
        _assert_rows_match(at_points[rows], [getattr(md, field) for md in singles])


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_equals_point_calls(case):
    bg, fields, pts = CASES[case]()
    _assert_batch_equals_points(bg, fields, pts)
    # a batch of K = D rows: a closure that sums w @ x over the rows keeps its shape
    _assert_batch_equals_points(bg, fields, pts[:bg.dim])


# the relativistic residuals that take the MetricData bundle of their points in their place
BUNDLE_RESIDUALS = [name for name in REL_RESIDUALS if name != "momentum_covector"]


@pytest.mark.parametrize("case", ["wavy-2", "wavy-3", "minkowski-plane-wave",
                                  "minkowski-superposition", "curved-diagonal"])
def test_a_bundle_stands_for_its_points(case):
    bg, fields, pts = CASES[case]()
    bundle = metric_data(bg, pts)
    other_dim = 3 if bg.dim == 2 else 2
    other = metric_data(make_wavy_rel(dim=other_dim), np.zeros((2, other_dim)))
    for name in BUNDLE_RESIDUALS:
        fn, field = _residual(name), fields[REL_RESIDUALS[name][0]]
        if field is None:
            continue
        assert np.array_equal(fn(bg, field, bundle), fn(bg, field, pts)), name
        with pytest.raises(ValueError, match="dimension"):
            fn(bg, field, other)
    k = feq.momentum_covector(bg, fields[POLAR], pts)
    assert np.array_equal(feq.hj_expression(bg, bundle, k), feq.hj_expression(bg, pts, k))
    with pytest.raises(ValueError, match="dimension"):
        feq.hj_expression(bg, other, k)


# every Newton-Cartan residual and identity -> (field it reads, or None for an identity;
# derive_nc rows it solves per point when given points, as it did before it took bundles)
NC_BUNDLE_CALLS = {"nc_momentum_covector": (POLAR, 0), "nc_classical_hj_residual": (POLAR, 1),
                   "nc_quantum_potential": (POLAR, 2), "nc_quantum_hj_residual": (POLAR, 3),
                   "nc_continuity_residual": (POLAR, 2),
                   "nc_classical_action_density_polar": (POLAR, 1),
                   "nc_schrodinger_residual": (COMPLEX, 2),
                   "nc_classical_action_density_complex_printed": (COMPLEX, 1),
                   "nc_classical_hj_forms": (POLAR, 1), "nc_hj_expression": ("k", 1),
                   "frame_identity_residuals": (None, 1), "ehat_identity_residual": (None, 1),
                   "null_lift": (None, 1), "null_lift_residuals": (None, 2),
                   "derive_nc_partials": (None, 1)}


def _same_bits(a, b):
    """Whether two results hold the same arrays, to the bit, under the same names."""
    if isinstance(a, (dict, tuple, ncg.NullLift)):
        a, b = ((vars(r) if isinstance(r, ncg.NullLift) else r) for r in (a, b))
        keys = a.keys() if isinstance(a, dict) else range(len(a))
        return len(a) == len(b) and all(_same_bits(a[k], b[k]) for k in keys)
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", ["nc-wavy-2", "nc-wavy-3", "flat-nc-plane-wave",
                                  "flat-nc-gaussian-packet", "nc-nontrivial-M"])
def test_a_frame_bundle_stands_for_its_points(case, monkeypatch):
    """Every Newton-Cartan residual and identity given the ``_nc_frames`` bundle of its
    points returns, to the bit, what it returns given the points, and solves no frame;
    given the points, it solves as many rows per point as before bundles were taken.
    The ``derive_nc`` bundle of one point stands for that point the same way.  A bundle
    of another dimension is refused before anything is read from it."""
    bg, fields, pts = CASES[case]()
    fields["k"] = feq.nc_momentum_covector(bg, fields[POLAR], pts)
    rows, derive_nc = Counter(), ncg.derive_nc

    def counted(nc, x):
        rows["derive_nc"] += 1
        return derive_nc(nc, x)

    bundle, point = ncg._nc_frames(bg, pts), derive_nc(bg, pts[0])
    other_dim = 3 if bg.dim == 2 else 2
    other = ncg._nc_frames(make_wavy_nc(dim=other_dim), np.zeros((2, other_dim)))
    monkeypatch.setattr(ncg, "derive_nc", counted)
    for name, (field, per_point) in NC_BUNDLE_CALLS.items():
        fn = _residual(name)

        def call(x, rows_of_k=slice(None)):
            if field is None:
                return fn(bg, x)
            if field == "k":
                return fn(bg, x, fields["k"][rows_of_k])
            return fn(bg, fields[field], x)

        rows.clear()
        at_points = call(pts)
        assert rows["derive_nc"] == per_point * len(pts), name
        rows.clear()
        assert _same_bits(call(bundle), at_points), name
        assert rows["derive_nc"] == 0, name
        at_point = call(pts[0], 0)
        rows.clear()
        assert _same_bits(call(point, 0), at_point), name
        assert rows["derive_nc"] == 0, name
        with pytest.raises(ValueError, match="^point has dimension"):
            call(other)


def test_one_point_keeps_its_types_and_shapes():
    dim = 3
    for background, table in ((make_wavy_rel, REL_RESIDUALS), (make_wavy_nc, NC_RESIDUALS)):
        bg, fields, pts = _wavy_case(dim, background)
        x = pts[0]
        for name, (field, dtype, axes) in table.items():
            value = _residual(name)(bg, fields[field], x)
            assert np.shape(value) == (dim,) * axes and value.dtype == dtype, name
    bg, _, pts = _wavy_case(dim)
    x = pts[0]
    assert np.shape(feq.hj_expression(bg, x, np.ones(dim))) == ()
    assert metric_inverse(bg, x).shape == (dim, dim)
    md = metric_data(bg, x)
    for field, ndim in METRIC_DATA_SHAPES.items():
        assert np.shape(getattr(md, field)) == (dim,) * ndim, field


def test_newton_cartan_residuals_take_a_batch_row_by_row():
    nc, polar = make_wavy_nc(), make_wavy_polar()
    fields = {POLAR: polar, COMPLEX: complex_view(polar)}
    pts = np.random.default_rng(5).uniform(-0.8, 0.8, size=(6, 2))
    for fn_name, field in [*CHECK_EVALUATORS.values(), ("nc_quantum_potential", POLAR)]:
        if fn_name.startswith("nc_"):
            fn = getattr(feq, fn_name)
            batch = fn(nc, fields[field], pts)
            assert np.array_equal(batch, [fn(nc, fields[field], p) for p in pts]), fn_name


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_jacobian_is_second_order(dim):
    """Against the analytic derivatives, the stacked central differences
    of each wavy closure lose a factor 4 of error per halving of the step, on
    every row of a batch: a shift stacked onto the wrong row or axis would not."""
    bg, polar = make_wavy_rel(dim=dim), make_wavy_polar(dim=dim)
    pts = np.random.default_rng(dim).uniform(-0.8, 0.8, size=(7, dim))
    steps = 1e-2 / 2.0 ** np.arange(4)
    for f, df in ((bg.metric, bg.dmetric), (bg.gauge, bg.dgauge), (polar.rho, polar.drho),
                  (polar.S, polar.dS), (polar.drho, polar.d2rho), (polar.dS, polar.d2S)):
        exact = df(pts)
        errors = np.array([np.max(np.abs(jacobian(f, pts, h) - exact).reshape(len(pts), -1),
                                  axis=1) for h in steps])
        assert np.all(np.abs(errors[:-1] / errors[1:] - 4.0) < 0.05)


# one point's shapes of derive_nc_partials (axis 0 = d_mu) and of data_derivatives_at, in D
PARTIAL_SHAPES = {"v": lambda d: (d, d), "e_inv": lambda d: (d, d - 1, d),
                  "h_up": lambda d: (d, d, d), "h_down": lambda d: (d, d, d),
                  "hbar_down": lambda d: (d, d, d), "v_hat": lambda d: (d, d),
                  "Phi": lambda d: (d,), "vol": lambda d: (d,), "w": lambda d: (d,),
                  "A": lambda d: (d, d)}
DATA_DERIVATIVE_SHAPES = (lambda d: (d, d), lambda d: (d, d, d - 1), lambda d: (d, d),
                          lambda d: (d, d), lambda d: (d,))


@pytest.mark.parametrize("case", ["nc-wavy-2", "nc-wavy-3", "flat-nc-plane-wave",
                                  "flat-nc-gaussian-packet", "nc-nontrivial-M"])
def test_partials_batch_equals_point_calls(case):
    """The stacked partials and data derivatives of a batch equal their point calls,
    with finite-difference derivative closures (wavy) and with analytic ones (registry)."""
    bg, _, pts = CASES[case]()
    d = bg.dim
    rows = np.unique(np.linspace(0, len(pts) - 1, min(len(pts), 100)).astype(int))
    singles = [ncg.derive_nc_partials(bg, p) for p in pts[rows]]
    batch = ncg.derive_nc_partials(bg, pts)
    assert sorted(batch) == sorted(PARTIAL_SHAPES)
    for key, shape in PARTIAL_SHAPES.items():
        assert singles[0][key].shape == shape(d) and batch[key].shape == (len(pts),) + shape(d)
        _assert_rows_match(batch[key][rows], [single[key] for single in singles])
    singles = [bg.data_derivatives_at(p) for p in pts[rows]]
    for j, (value, shape) in enumerate(zip(bg.data_derivatives_at(pts), DATA_DERIVATIVE_SHAPES)):
        assert singles[0][j].shape == shape(d) and value.shape == (len(pts),) + shape(d)
        _assert_rows_match(value[rows], [single[j] for single in singles])


# one point's shape of every NCDerived name, stored field or derived object, in D
NC_DERIVED_SHAPES = {"pt": lambda d: (d,), "frame": lambda d: (d, d), "finv": lambda d: (d, d),
                     "m": lambda d: (d,), "phi": lambda d: (), "w": lambda d: (),
                     "vol": lambda d: (),
                     "v": lambda d: (d,), "e_inv": lambda d: (d - 1, d),
                     "h_up": lambda d: (d, d), "h_down": lambda d: (d, d),
                     "hbar_down": lambda d: (d, d), "v_hat": lambda d: (d,),
                     "e_hat": lambda d: (d, d - 1), "Phi": lambda d: ()}
NC_DERIVED_OBJECTS = [name for name, value in vars(ncg.NCDerived).items()
                      if isinstance(value, geo._derived)]
METRIC_DERIVED_OBJECTS = [name for name, value in vars(geo.MetricData).items()
                          if isinstance(value, geo._derived)]


@pytest.mark.parametrize("case", ["nc-wavy-2", "nc-wavy-3", "flat-nc-plane-wave",
                                  "flat-nc-gaussian-packet", "nc-nontrivial-M"])
def test_stacked_frames_equal_point_frames(case):
    """Every NCDerived name read from the stacked frames of a batch equals its
    ``derive_nc`` at each row, with a point's shapes behind the batch axis: the
    derived objects are written once over leading axes for both."""
    bg, _, pts = CASES[case]()
    d = bg.dim
    rows = np.unique(np.linspace(0, len(pts) - 1, min(len(pts), 100)).astype(int))
    names = [f.name for f in dataclasses.fields(ncg.NCDerived)] + NC_DERIVED_OBJECTS
    assert sorted(names) == sorted(NC_DERIVED_SHAPES)
    batch = ncg._nc_frames(bg, pts)
    singles = [ncg.derive_nc(bg, p) for p in pts[rows]]
    for name, shape in NC_DERIVED_SHAPES.items():
        assert np.shape(getattr(singles[0], name)) == shape(d), name
        value = getattr(batch, name)
        assert value.shape == (len(pts),) + shape(d), name
        _assert_rows_match(value[rows], [getattr(single, name) for single in singles])


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_fd_fallback_is_second_order_on_wavy_nc(dim):
    """make_wavy_nc's derivative closures are the stacked central differences of
    ``jacobian``, which data_derivatives_at reads.  Against the closed forms, their
    error on a (K, D) batch falls by 4 per halving of the step on every row, over three
    halvings: a shift stacked onto the wrong row or axis would not."""
    nc = make_wavy_nc(dim=dim)
    exact = wavy_nc_derivatives(dim=dim)
    pts = np.random.default_rng(dim).uniform(-0.8, 0.8, size=(7, dim))
    closures = (nc.tau, nc.vierbein, nc.m_field, nc.gauge_bar, nc.phi)
    steps = 1e-2 / 2.0 ** np.arange(4)
    for f, df, read in zip(closures, exact, nc.data_derivatives_at(pts)):
        assert np.array_equal(read, jacobian(f, pts))
        assert np.max(np.abs(read - df(pts))) < 1e-9
        errors = np.array([np.max(np.abs(jacobian(f, pts, h) - df(pts)).reshape(len(pts), -1),
                                  axis=1) for h in steps])
        assert np.all(np.abs(errors[:-1] / errors[1:] - 4.0) < 0.5), errors


# ---------------------------------------------------------------------------
# a bad row in a batch
# ---------------------------------------------------------------------------

BAD = np.array([0.2, 0.7])
GOOD = np.array([[0.1, -0.3], [0.4, 0.0], [-0.2, 0.3]])


def _batch_with_bad_row():
    return np.vstack([GOOD[:2], BAD, GOOD[2:]])


def _point_and_batch_raise(error, call):
    """The bad point alone and a batch holding it raise ``error``, naming that point."""
    with pytest.raises(error):
        call(BAD)
    with pytest.raises(error, match=rf"at point \[{BAD[0]}, {BAD[1]}\]"):
        call(_batch_with_bad_row())
    call(GOOD)


def _at_bad(x):
    """True at each point of x, (D,) or (..., D), that is BAD."""
    return np.all(x == BAD, axis=-1)


def _unit_polar(rho=lambda x: 1.0):
    """Unit density, or the density given, and the phase gradient (-1, 0)."""
    return PolarField(rho=rho, S=lambda x: 0.0, drho=lambda x: np.zeros(2),
                      d2rho=lambda x: np.zeros((2, 2)), dS=lambda x: np.array([-1.0, 0.0]),
                      d2S=lambda x: np.zeros((2, 2)))


def _node_polar():
    """Unit density except at the bad point, where it is below the node threshold."""
    return _unit_polar(lambda x: np.where(_at_bad(x), 0.1 * EPS_NODE, 1.0))


def test_density_at_a_node_names_its_point():
    bg = BackgroundRel.minkowski(2)
    for fn in (feq.quantum_potential_rel, feq.quantum_potential_rel_printed,
               feq.quantum_hj_residual_rel):
        _point_and_batch_raise(NodeEncountered, lambda x, fn=fn: fn(bg, _node_polar(), x))
    nc = NCBackground.flat(2)
    for fn in (feq.nc_quantum_potential, feq.nc_quantum_hj_residual):
        _point_and_batch_raise(NodeEncountered, lambda x, fn=fn: fn(nc, _node_polar(), x))


def test_wave_at_a_node_names_its_point():
    bg = BackgroundRel.minkowski(2)
    cf = ComplexField(psi=lambda x: np.where(_at_bad(x), 1e-6 + 0j, 1.0),  # |psi|^2 = 1e-12
                      dpsi=lambda x: np.zeros(2, dtype=complex),
                      d2psi=lambda x: np.zeros((2, 2), dtype=complex))
    for fn in (feq.classical_field_residual, feq.classical_field_residual_printed):
        _point_and_batch_raise(NodeEncountered, lambda x, fn=fn: fn(bg, cf, x))
    nc = NCBackground.flat(2)
    printed = feq.nc_classical_action_density_complex_printed
    _point_and_batch_raise(NodeEncountered, lambda x: printed(nc, cf, x))


def _degenerate_frame():
    """The flat frame, with tau = 0 at the bad point."""
    return dataclasses.replace(NCBackground.flat(2),
                               tau=lambda x: np.where(_at_bad(x)[..., None], 0.0, [1.0, 0.0]))


def _overflowing_frame():
    """The flat frame, scaled by 1e200 at the bad point, where det(tau, e) overflows."""
    flat = NCBackground.flat(2)
    scale = lambda x: np.where(_at_bad(x), 1e200, 1.0)
    return dataclasses.replace(flat, tau=lambda x: scale(x)[..., None] * flat.tau(x),
                               vierbein=lambda x: scale(x)[..., None, None] * flat.vierbein(x))


def _ill_conditioned_frame():
    """The flat frame with M = (0, 0.2), whose vierbein at the bad point is nearly tau:
    the frame passes its determinant floor, the lifted metric's closed-form inverse
    does not pass its check."""
    flat = NCBackground.constant([1.0, 0.0], [[0.0], [1.0]], m_field=[0.0, 0.2])
    return dataclasses.replace(flat, vierbein=lambda x: np.where(
        _at_bad(x)[..., None, None], [[1.0], [1e-8]], [[0.0], [1.0]]))


def _drifting_mass_field():
    """The flat frame, whose M at the bad point changes on every read that includes it."""
    reads = itertools.count(1)

    def m_field(x):
        drift = 0.3 * next(reads) if _at_bad(x).any() else 0.0
        return np.where(_at_bad(x)[..., None], [0.0, drift], 0.0)

    return dataclasses.replace(NCBackground.flat(2), m_field=m_field)


def test_bad_frame_names_its_point():
    fields = {POLAR: _unit_polar(), COMPLEX: complex_view(_unit_polar())}
    nc = _degenerate_frame()
    for name, (field, _, _) in NC_RESIDUALS.items():
        fn = getattr(feq, name)
        if name != "nc_momentum_covector":  # reads no frame
            _point_and_batch_raise(DegenerateFrame, lambda x, fn=fn: fn(nc, fields[field], x))
    for name in (*NC_IDENTITIES, "derive_nc_partials"):
        _point_and_batch_raise(DegenerateFrame, lambda x, fn=getattr(ncg, name): fn(nc, x))
    nc = _ill_conditioned_frame()
    for fn in (ncg.null_lift, ncg.null_lift_residuals):
        with pytest.raises(DegenerateFrame, match=r"^lift inverse residual .* exceeds 1e-10"):
            fn(nc, BAD)
        _point_and_batch_raise(DegenerateFrame, lambda x, fn=fn: fn(nc, x))
    nc = _drifting_mass_field()
    _point_and_batch_raise(FormMismatch,
                           lambda x: feq.nc_classical_hj_residual(nc, fields[POLAR], x))


def test_non_finite_coordinate_names_its_point():
    """nan, inf and -inf in each coordinate: a one-point check, made as Python floats, and
    a batch check name the same point."""
    bg = BackgroundRel.minkowski(2)
    polar = _node_polar()
    calls = (lambda x: metric_inverse(bg, x), lambda x: metric_data(bg, x),
             lambda x: feq.classical_hj_residual_rel(bg, polar, x),
             lambda x: feq.continuity_residual_rel(bg, polar, x),
             lambda x: feq.nc_continuity_residual(NCBackground.flat(2), polar, x))
    for value, axis in itertools.product([np.nan, np.inf, -np.inf], [0, 1]):
        batch = _batch_with_bad_row()
        batch[2, axis] = value
        message = re.escape(f"non-finite coordinates at point {batch[2].tolist()}")
        for call, x in itertools.product(calls, (batch[2], batch)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(x)


@pytest.mark.parametrize("g_bad, error", [
    (np.diag([-1.0, 0.0]), SingularMetric),         # det g = 0
    (np.diag([-1.0, -1.0]), SignatureViolation),     # two negative eigenvalues
    (np.diag([1.0, 1.0]), SignatureViolation),       # none
])
def test_bad_metric_names_its_point(g_bad, error):
    eta = np.diag([-1.0, 1.0])
    bg = BackgroundRel(dim=2, metric=lambda x: np.where(_at_bad(x)[..., None, None], g_bad, eta),
                       gauge=lambda x: np.zeros(2), dmetric=lambda x: np.zeros((2, 2, 2)),
                       dgauge=lambda x: np.zeros((2, 2)))
    polar = _unit_polar()
    for call in (lambda x: metric_inverse(bg, x), lambda x: metric_data(bg, x),
                 lambda x: feq.classical_hj_residual_rel(bg, polar, x),
                 lambda x: feq.quantum_hj_residual_rel(bg, polar, x),
                 lambda x: feq.continuity_residual_rel(bg, polar, x)):
        _point_and_batch_raise(error, call)


# the bad point is the third of the 2 x 2 grid
BAD_GRID = {"bounds": [[-0.8, 0.2], [0.7, 1.7]], "samples": [2, 2]}
BAD_AT = r"at point \[0\.2, 0\.7\]$"

# each bad input through the CLI: its exit code and one stderr line, no traceback
CLI_FAILURES = {
    # |psi|^2 = (1 - 0.999995)^2 at the middle x sample, where the two modes cancel
    "node": ({"scenario": {"name": "minkowski-superposition", "params": {"a2": 0.999995}},
              "grid": {"bounds": [[0.0, 1e-4], [0.0, 2 * np.pi / 1.4], [-0.5, 0.5],
                                  [-0.5, 0.5]], "samples": [2, 3, 2, 2]}},
             1, r"^error: \|psi\|\^2 = .* below node threshold at point \[0\.0, 2\.24"),
    # the conformal factor 1 + a x vanishes at x = -1/a = -20
    "singular-metric": ({"scenario": {"name": "curved-diagonal"},
                         "grid": {"bounds": [[0.0, 1.0], [-20.0, 0.0]], "samples": [2, 3]}},
                        1, r"^error: \|det g\| = 0\.000e\+00 below 1e-14 "
                           r"at point \[0\.0, -20\.0\]"),
    # grid coordinates overflow before any residual sees them
    "non-finite": ({"scenario": {"name": "curved-diagonal"},
                    "grid": {"bounds": [[0.0, 1.0], [-1.7e308, 1.7e308]], "samples": [2, 3]}},
                   1, r"^error: check on 'curved-diagonal': FloatingPointError: overflow"),
    # W' = sqrt(E^2 - m^2 (1 + a x)) is not real beyond x = 8.8; the first row past it
    "invalid-in-a-check": ({"scenario": {"name": "curved-diagonal"},
                            "grid": {"bounds": [[0, 5], [-2, 30]], "samples": [4, 4]}},
                           1, r"^error: report 'classical-hj': FloatingPointError: invalid value "
                              r"encountered in sqrt at point \[0\.0, 19\.333333333333332\]$"),
    # det g = -(1 + a x)^2 overflows in the bundle the grid's checks share
    "overflow-in-the-bundle": ({"scenario": {"name": "curved-diagonal"},
                                "grid": {"bounds": [[0.0, 1.0], [-1e200, -1e199]],
                                         "samples": [2, 3]}},
                               1, r"^error: geometry bundle: FloatingPointError: overflow "
                                  r"encountered in det at point \[0\.0, -1e\+200\]$"),
    "nc-invalid-in-a-check": ({"scenario": {"name": "flat-nc-gaussian-packet",
                                            "params": {"sigma0": 1e-160}},
                               "grid": {"bounds": [[0, 1], [-1, 1]], "samples": [2, 3]}},
                              1, r"^error: report 'nc-quantum-hj': FloatingPointError: invalid "
                                 r"value encountered in multiply at point \[0\.0, -1\.0\]$"),
    # the packet's density underflows the node threshold far from its centre
    "nc-node": ({"scenario": {"name": "flat-nc-gaussian-packet"},
                 "grid": {"bounds": [[0.0, 1.0], [-10.0, 10.0]], "samples": [2, 3]}},
                1, r"^error: rho = .* at node threshold 1e-10 at point \[0\.0, -10\.0\]$"),
    # flat-nc-plane-wave on the backgrounds above, which go bad at one point
    "nc-degenerate-frame": ({"scenario": {"name": "flat-nc-plane-wave"}, "grid": BAD_GRID},
                            1, r"^error: \|det\(tau, e\)\| = 0\.000e\+00 below 1e-12 " + BAD_AT),
    "nc-form-mismatch": ({"scenario": {"name": "flat-nc-plane-wave"}, "grid": BAD_GRID},
                         1, r"^error: HJ form mismatch: .* vs .* " + BAD_AT),
    # W' is not real beyond x = 8.8, which the worldline from x = 8.7 reaches
    "invalid-in-a-trajectory": ({"scenario": {"name": "curved-diagonal"},
                                 "command": "trajectories",
                                 "trajectories": {"seeds": [[0.0, 8.7]], "span": [0, 5]}},
                                1, r"^error: trajectory 0 from \[0\.0, 8\.7\]: FloatingPointError: "
                                   r"invalid value encountered in sqrt after lambda=[0-9.e+-]+$"),
    # det(tau, e) = 1e400 overflows in the identity gates of reduce
    "nc-overflow-in-the-identities": ({"scenario": {"name": "flat-nc-plane-wave"},
                                       "command": "reduce", "grid": BAD_GRID},
                                      1, r"^error: identity gates: FloatingPointError: overflow "
                                         r"encountered in det " + BAD_AT),
    # the identity gates of reduce, on the degenerate frame
    "nc-degenerate-frame-reduce": ({"scenario": {"name": "flat-nc-plane-wave"},
                                    "command": "reduce", "grid": BAD_GRID},
                                   1, r"^error: \|det\(tau, e\)\| = 0\.000e\+00 below 1e-12 "
                                      + BAD_AT),
}
CLI_BACKGROUNDS = {"nc-degenerate-frame": _degenerate_frame,
                   "nc-degenerate-frame-reduce": _degenerate_frame,
                   "nc-overflow-in-the-identities": _overflowing_frame,
                   "nc-form-mismatch": _drifting_mass_field}


@pytest.mark.parametrize("case", sorted(CLI_FAILURES))
def test_bad_row_through_the_cli(tmp_path, capsys, monkeypatch, case):
    doc, code, line = CLI_FAILURES[case]
    if case in CLI_BACKGROUNDS:
        plane_wave, background = scen.REGISTRY["flat-nc-plane-wave"], CLI_BACKGROUNDS[case]()
        monkeypatch.setitem(scen.REGISTRY, "flat-nc-plane-wave", lambda params: (
            dataclasses.replace(plane_wave(params), background=background)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    command = doc.get("command", "check")
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert re.match(line, err), err


def _fails_at(fn, bad):
    """fn, with a sqrt of -1 (an invalid value) at the rows equal to ``bad``."""
    def read(x):
        value, at = fn(x), np.all(np.asarray(x) == bad, axis=-1)
        return value * np.sqrt(np.where(at, -1.0, 1.0)).reshape(
            at.shape + (1,) * (np.ndim(value) - at.ndim))
    return read


# a field closure that fails at one grid point, on a polar field (d2S, read only by the
# second check, after the first has read dS) and on a complex field under its polar view
FIELD_FAILURES = {
    "curved-diagonal": ({"rho_profile": "conserved"}, "polar", "d2S", [1.0, 0.0],
                        "report 'continuity'"),
    "minkowski-superposition": ({}, "psi", "dpsi", [0.0, 1.5, -0.5, 0.5], "report 'linear-wave'"),
}


@pytest.mark.parametrize("name", sorted(FIELD_FAILURES))
def test_a_field_that_fails_at_one_point_through_the_cli(tmp_path, capsys, monkeypatch, name):
    params, attr, closure, bad, report = FIELD_FAILURES[name]
    builder = scen.REGISTRY[name]

    def failing_build(p):
        sc = builder(p)
        f = getattr(sc, attr)
        f = dataclasses.replace(f, **{closure: _fails_at(getattr(f, closure), bad)})
        if attr == "polar":
            return dataclasses.replace(sc, polar=f)
        return dataclasses.replace(sc, psi=f, polar=polar_view(f))

    monkeypatch.setitem(scen.REGISTRY, name, failing_build)
    bounds = [[0.0, 1.0], [-1.0, 1.0]] if name == "curved-diagonal" else (
        [[0.0, 1.0], [0.0, 3.0], [-0.5, 0.5], [-0.5, 0.5]])
    doc = {"scenario": {"name": name, "params": params},
           "grid": {"bounds": bounds, "samples": [2, 3] + [2] * (len(bounds) - 2)}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["check", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"error: {report}: FloatingPointError: invalid value "
                                       f"encountered in sqrt at point {bad}\n")


# ---------------------------------------------------------------------------
# one geometry bundle per grid, and as many field closure reads, whatever the grid
# ---------------------------------------------------------------------------

FIELD_CLOSURES = {POLAR: ("rho", "S", "drho", "d2rho", "dS", "d2S"),
                  COMPLEX: ("psi", "dpsi", "d2psi")}


def _counted_check(monkeypatch, tmp_path, name, samples, functions):
    """Calls of the named pilotwave functions, counted at every module binding
    (a name ``Class.method`` at that class of ``nc_geometry``, where an object
    derived in ``NCDerived`` counts its computations), and of each field
    closure of the scenario, in one ``check`` of scenario ``name`` on a
    samples x samples grid over its default bounds."""
    calls = Counter()

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    modules = [m for n, m in sys.modules.items() if n.startswith("pilotwave")]
    for fn_name, original in functions.items():
        owner, _, attr = fn_name.rpartition(".")
        for module in [getattr(ncg, owner)] if owner else modules:
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, ncg._derived(counted(fn_name, original.fn))
                                    if isinstance(original, ncg._derived)
                                    else counted(fn_name, original))
    builder = scen.REGISTRY[name]

    def counted_build(params):
        sc = builder(params)
        fields = {attr: dataclasses.replace(getattr(sc, attr), **{
                      c: counted(f"{attr}.{c}", getattr(getattr(sc, attr), c)) for c in closures})
                  for attr, closures in FIELD_CLOSURES.items() if getattr(sc, attr) is not None}
        return dataclasses.replace(sc, **fields)

    monkeypatch.setitem(scen.REGISTRY, name, counted_build)
    bounds = build(name).default_grid.bounds
    doc = {"scenario": {"name": name},
           "grid": {"bounds": [list(b) for b in bounds], "samples": [samples] * len(bounds)}}
    status = cli.run("check", cli.RunConfig.from_dict(doc), out_dir=str(tmp_path / str(samples)))
    assert status == 0
    monkeypatch.undo()
    return calls


def test_the_grid_is_not_split_into_points(monkeypatch, tmp_path):
    geometry = {"metric_data": geo.metric_data, "metric_inverse": geo.metric_inverse}
    for name in ("curved-diagonal", "minkowski-superposition"):
        small, large = (_counted_check(monkeypatch, tmp_path, name, n, geometry)
                        for n in (4, 8))
        # one bundle per grid, shared by every check; classical-hj reads metric_inverse
        assert small == large and small["metric_data"] == 1
        checks = [c.name for c in build(name).checks]
        assert small["metric_inverse"] == checks.count("classical-hj")
        assert small["polar.rho"] + small["psi.psi"] > 0

    counted = {name: getattr(ncg, name)
               for name in ("derive_nc", "_nc_frames", "derive_nc_partials", *NC_IDENTITIES)}
    counted["NCBackground.data_derivatives_at"] = ncg.NCBackground.data_derivatives_at
    derived = {f"NCDerived.{name}": getattr(ncg.NCDerived, name) for name in NC_DERIVED_OBJECTS}
    counted.update(derived)
    small, large = (_counted_check(monkeypatch, tmp_path, "flat-nc-gaussian-packet", n, counted)
                    for n in (4, 8))
    # the Newton-Cartan frame is still solved point by point, 11 times per point and
    # stacked 11 times; the objects derived from it are computed from the stacked
    # solves, at most once per stack, and its partials run once per residual that
    # takes a divergence, both on the whole grid
    assert small.pop("derive_nc") == 11 * 4 * 4 and large.pop("derive_nc") == 11 * 8 * 8
    assert small["_nc_frames"] == 11
    assert small["derive_nc_partials"] == small["NCBackground.data_derivatives_at"] == 3
    assert small == large and small["polar.rho"] > 0 and small["psi.psi"] > 0
    assert all(small[name] > 0 for name in NC_IDENTITIES)
    assert all(0 < small[name] <= small["_nc_frames"] for name in derived)


def test_each_derived_object_is_computed_once_per_bundle(monkeypatch):
    """A bundle of either half, of one point or of a batch, derives nothing while it is
    built, then each derived object at its first read, and keeps it: h_up serves v_hat,
    Phi and its own reads alike, and one d_M g serves dginv and dvol."""
    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(bundle):
            calls[name] += 1
            return fn(bundle)
        return wrapper

    for cls, names in ((ncg.NCDerived, NC_DERIVED_OBJECTS),
                       (geo.MetricData, METRIC_DERIVED_OBJECTS)):
        for name in names:
            original = vars(cls)[name]
            monkeypatch.setattr(cls, name, geo._derived(counted(name, original.fn)))
    nc, _, nc_pts = CASES["nc-wavy-3"]()
    rel, _, rel_pts = CASES["wavy-3"]()
    assert METRIC_DERIVED_OBJECTS == ["dg", "dginv", "dvol"]
    for bundle, names in ((lambda: ncg.derive_nc(nc, nc_pts[0]), NC_DERIVED_OBJECTS),
                          (lambda: ncg._nc_frames(nc, nc_pts), NC_DERIVED_OBJECTS),
                          (lambda: metric_data(rel, rel_pts[0]), METRIC_DERIVED_OBJECTS),
                          (lambda: metric_data(rel, rel_pts), METRIC_DERIVED_OBJECTS)):
        calls.clear()
        der = bundle()
        assert calls == {}
        reads = [[getattr(der, name) for name in names] for _ in range(3)]
        assert calls == dict.fromkeys(names, 1)
        assert all(a is b for a, b in zip(reads[0], reads[2]))


def test_a_grid_reads_the_metric_derivative_only_for_a_gradient(monkeypatch, tmp_path):
    """A Lorentzian grid's bundle reads d_M g at the first read of a gradient: a
    classical-hj-only residuals run, which reads g^{MN} alone, never reads it, and a
    check reads it once for the grid."""
    reads = []
    builder = scen.REGISTRY["curved-diagonal"]

    def counted_build(params):
        sc = builder(params)
        bg = sc.background
        counted = dataclasses.replace(bg, dmetric=lambda x: reads.append(1) or bg.dmetric(x))
        return dataclasses.replace(sc, background=counted)

    monkeypatch.setitem(scen.REGISTRY, "curved-diagonal", counted_build)
    for command, extra, expected in (("residuals", {"residuals": ["classical-hj"]}, 0),
                                     ("check", {}, 1)):
        reads.clear()
        doc = {"scenario": {"name": "curved-diagonal"}, **extra}
        status = cli.run(command, cli.RunConfig.from_dict(doc), out_dir=str(tmp_path / command))
        assert status == 0 and len(reads) == expected, command


def test_one_frame_inverse_per_bundle(monkeypatch):
    """A bundle inverts no frame while it is built.  The first read of finv, or of an
    object derived from it, makes one inverse: of the stacked (K, D, D) frames of a
    batch, or of the (D, D) frame of one point.  Later reads make none."""
    bg, _, pts = CASES["nc-wavy-3"]()
    d, shapes, inv = bg.dim, [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(np.shape(a)) or inv(a))
    for bundle, shape in ((lambda: ncg._nc_frames(bg, pts), (len(pts), d, d)),
                          (lambda: ncg.derive_nc(bg, pts[0]), (d, d))):
        for first in ("finv", "v", "h_up"):
            shapes.clear()
            der = bundle()
            assert shapes == [], first
            getattr(der, first)
            assert shapes == [shape], first
            for name in NC_DERIVED_OBJECTS:
                getattr(der, name)
            assert shapes == [shape], first


@pytest.mark.parametrize("case", ["nc-wavy-2", "nc-wavy-3", "flat-nc-plane-wave",
                                  "flat-nc-gaussian-packet", "nc-nontrivial-M"])
def test_the_stacked_inverse_is_each_row_inverse(case):
    """The one stacked inverse of a batch holds, to the bit, each row's own inverse."""
    bg, _, pts = CASES[case]()
    der = ncg._nc_frames(bg, pts)
    assert np.array_equal(der.finv, [np.linalg.inv(frame) for frame in der.frame])


# ---------------------------------------------------------------------------
# one read of each field closure per grid, shared by every check of the grid
# ---------------------------------------------------------------------------

def _counting(calls, f, closures):
    """A copy of field f whose named closures count their calls in ``calls``."""
    def counted(name, fn):
        def read(x):
            calls[name] += 1
            return fn(x)
        return read
    return dataclasses.replace(f, **{c: counted(c, getattr(f, c)) for c in closures})


def _run_on_grid(tmp_path, name, command, samples):
    """``command`` on scenario ``name`` (every check for ``residuals``), on a grid of
    ``samples`` per axis over its default bounds."""
    sc = build(name)
    doc = {"scenario": {"name": name},
           "grid": {"bounds": [list(b) for b in sc.default_grid.bounds],
                    "samples": [samples] * len(sc.default_grid.bounds)}}
    if command == "residuals":
        doc["residuals"] = [c.name for c in sc.checks]
    assert cli.run(command, cli.RunConfig.from_dict(doc),
                   out_dir=str(tmp_path / f"{command}-{samples}")) == 0


@pytest.mark.parametrize("samples", [3, 4])
@pytest.mark.parametrize("command", ["check", "residuals", "superposition-demo"])
def test_one_plane_wave_sum_read_per_grid(monkeypatch, tmp_path, command, samples):
    """The superposition's psi, dpsi and d2psi are read once each, for the checks
    on psi and, through its polar view, for those on (rho, S)."""
    calls, superposition = Counter(), scen._superposition_psi
    monkeypatch.setattr(scen, "_superposition_psi", lambda *args: _counting(
        calls, superposition(*args), FIELD_CLOSURES[COMPLEX]))
    _run_on_grid(tmp_path, "minkowski-superposition", command, samples)
    assert calls == {"psi": 1, "dpsi": 1, "d2psi": 1}


@pytest.mark.parametrize("samples", [3, 4])
@pytest.mark.parametrize("command", ["check", "residuals"])
def test_one_polar_read_per_grid_under_a_complex_view(monkeypatch, tmp_path, command, samples):
    calls, packet = Counter(), scen.REGISTRY["flat-nc-gaussian-packet"]

    def counted_packet(params):
        sc = packet(params)
        polar = _counting(calls, sc.polar, FIELD_CLOSURES[POLAR])
        return dataclasses.replace(sc, polar=polar, psi=complex_view(polar))

    monkeypatch.setitem(scen.REGISTRY, "flat-nc-gaussian-packet", counted_packet)
    _run_on_grid(tmp_path, "flat-nc-gaussian-packet", command, samples)
    assert calls["rho"] == 1 and max(calls.values()) == 1


def test_a_closure_no_check_needs_is_never_read(monkeypatch, tmp_path):
    """With both fields counted as fields of their own, the superposition's checks
    read each closure at most once, and never S."""
    calls = _counted_check(monkeypatch, tmp_path, "minkowski-superposition", 4, {})
    assert calls["polar.S"] == 0 and calls["psi.psi"] == 1 and max(calls.values()) == 1
