"""One batched relativistic path: a (K, D) call equals the K point calls.

The Lorentzian geometry and every relativistic residual take one point
(D,) or a batch (K, D).  A batch must reproduce its point calls to
1e-13 max(1, |v|), a single point must keep its Python type or array
shape, a bad row must raise the point call's error naming that row's
point, and a check must read the geometry once for the whole grid.
"""
import json
import re
import sys

import numpy as np
import pytest

import pilotwave.field_equations as feq
import pilotwave.geometry as geo
from pilotwave import cli
from pilotwave.errors import NodeEncountered, SignatureViolation, SingularMetric
from pilotwave.fields import EPS_NODE, ComplexField, complex_view, polar_field
from pilotwave.geometry import BackgroundRel, metric_data, metric_inverse, volume_element
from pilotwave.scenarios import CHECK_EVALUATORS, build
from conftest import make_wavy_nc, make_wavy_polar, make_wavy_rel

REL_TOL = 1e-13

# relativistic residual -> (field it reads, Python type or shape of one point's value)
POLAR, COMPLEX = "polar", "psi"
REL_RESIDUALS = {
    "momentum_covector": (POLAR, "vector"),
    "classical_hj_residual_rel": (POLAR, float),
    "ensemble_current": (POLAR, "vector"),
    "continuity_residual_rel": (POLAR, float),
    "quantum_potential_rel": (POLAR, float),
    "quantum_potential_rel_printed": (POLAR, float),
    "quantum_hj_residual_rel": (POLAR, float),
    "linear_kg_residual": (COMPLEX, complex),
    "classical_field_residual": (COMPLEX, complex),
    "classical_field_residual_printed": (COMPLEX, complex),
}
METRIC_DATA_SHAPES = {"pt": 1, "ginv": 2, "dginv": 3, "dvol": 1}


def _wavy_case(dim):
    polar = make_wavy_polar(dim=dim)
    pts = np.random.default_rng(dim).uniform(-0.8, 0.8, size=(9, dim))
    return make_wavy_rel(dim=dim, charge=0.3), {POLAR: polar, COMPLEX: complex_view(polar)}, pts


def _registry_case(name):
    sc = build(name)
    return sc.background, {POLAR: sc.polar, COMPLEX: sc.psi}, sc.default_grid.points()


CASES = {"wavy-2": lambda: _wavy_case(2), "wavy-3": lambda: _wavy_case(3),
         **{name: (lambda name=name: _registry_case(name))
            for name in ("minkowski-plane-wave", "minkowski-superposition", "curved-diagonal")}}


def _assert_rows_match(batch, points):
    points = np.asarray(points)
    assert batch.shape == points.shape
    gap = np.abs(batch - points)
    assert np.all(gap <= REL_TOL * np.maximum(1.0, np.abs(points))), gap.max()


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_equals_point_calls(case):
    bg, fields, pts = CASES[case]()
    checked = 0
    for name, (field, _) in REL_RESIDUALS.items():
        if fields[field] is None:
            continue
        fn = getattr(feq, name)
        _assert_rows_match(fn(bg, fields[field], pts),
                           [fn(bg, fields[field], p) for p in pts])
        checked += 1
    assert checked >= len(REL_RESIDUALS) - 3
    k = feq.momentum_covector(bg, fields[POLAR], pts)
    _assert_rows_match(feq.hj_expression(bg, pts, k),
                       [feq.hj_expression(bg, p, kp) for p, kp in zip(pts, k)])
    _assert_rows_match(metric_inverse(bg, pts), [metric_inverse(bg, p) for p in pts])
    _assert_rows_match(volume_element(bg, pts), [volume_element(bg, p) for p in pts])
    batch = metric_data(bg, pts)
    singles = [metric_data(bg, p) for p in pts]
    for field in ("pt", "ginv", "dginv", "vol", "dvol"):
        _assert_rows_match(getattr(batch, field), [getattr(md, field) for md in singles])


def test_one_point_keeps_its_types_and_shapes():
    dim = 3
    bg, fields, pts = _wavy_case(dim)
    x = pts[0]
    for name, (field, kind) in REL_RESIDUALS.items():
        value = getattr(feq, name)(bg, fields[field], x)
        if kind == "vector":
            assert isinstance(value, np.ndarray) and value.shape == (dim,), name
        else:
            assert type(value) is kind, name
    assert type(feq.hj_expression(bg, x, np.ones(dim))) is float
    assert metric_inverse(bg, x).shape == (dim, dim)
    assert type(volume_element(bg, x)) is float
    md = metric_data(bg, x)
    assert type(md.vol) is float
    for field, ndim in METRIC_DATA_SHAPES.items():
        assert getattr(md, field).shape == (dim,) * ndim, field


def test_newton_cartan_residuals_take_a_batch_row_by_row():
    nc, polar = make_wavy_nc(), make_wavy_polar()
    fields = {POLAR: polar, COMPLEX: complex_view(polar)}
    pts = np.random.default_rng(5).uniform(-0.8, 0.8, size=(6, 2))
    for fn_name, field in CHECK_EVALUATORS.values():
        if fn_name.startswith("nc_"):
            fn = getattr(feq, fn_name)
            batch = fn(nc, fields[field], pts)
            assert np.array_equal(batch, [fn(nc, fields[field], p) for p in pts]), fn_name


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


def _node_polar():
    """Unit density except at the bad point, where it is below the node threshold."""
    return polar_field(rho=lambda x: 0.1 * EPS_NODE if np.array_equal(x, BAD) else 1.0,
                       S=lambda x: 0.0, drho=lambda x: np.zeros(2),
                       d2rho=lambda x: np.zeros((2, 2)), dS=lambda x: np.array([-1.0, 0.0]),
                       d2S=lambda x: np.zeros((2, 2)))


def test_density_at_a_node_names_its_point():
    bg = BackgroundRel.minkowski(2)
    for fn in (feq.quantum_potential_rel, feq.quantum_potential_rel_printed,
               feq.quantum_hj_residual_rel):
        _point_and_batch_raise(NodeEncountered, lambda x, fn=fn: fn(bg, _node_polar(), x))


def test_wave_at_a_node_names_its_point():
    bg = BackgroundRel.minkowski(2)
    amp = lambda x: 1e-6 if np.array_equal(x, BAD) else 1.0  # |psi|^2 = 1e-12 at BAD
    cf = ComplexField(psi=lambda x: complex(amp(x)), dpsi=lambda x: np.zeros(2, dtype=complex),
                      d2psi=lambda x: np.zeros((2, 2), dtype=complex))
    for fn in (feq.classical_field_residual, feq.classical_field_residual_printed):
        _point_and_batch_raise(NodeEncountered, lambda x, fn=fn: fn(bg, cf, x))


def test_non_finite_coordinate_names_its_point():
    bg = BackgroundRel.minkowski(2)
    polar = _node_polar()
    batch = _batch_with_bad_row()
    batch[2, 1] = np.nan
    for call in (lambda x: metric_inverse(bg, x), lambda x: metric_data(bg, x),
                 lambda x: feq.classical_hj_residual_rel(bg, polar, x),
                 lambda x: feq.continuity_residual_rel(bg, polar, x)):
        with pytest.raises(ValueError):
            call(batch[2])
        with pytest.raises(ValueError, match=r"non-finite coordinates at point \[0\.2, nan\]"):
            call(batch)


@pytest.mark.parametrize("g_bad, error", [
    (np.diag([-1.0, 0.0]), SingularMetric),         # det g = 0
    (np.diag([-1.0, -1.0]), SignatureViolation),     # two negative eigenvalues
    (np.diag([1.0, 1.0]), SignatureViolation),       # none
])
def test_bad_metric_names_its_point(g_bad, error):
    eta = np.diag([-1.0, 1.0])
    bg = BackgroundRel(dim=2, metric=lambda x: g_bad if np.array_equal(x, BAD) else eta,
                       gauge=lambda x: np.zeros(2))
    polar = polar_field(rho=lambda x: 1.0, S=lambda x: 0.0, drho=lambda x: np.zeros(2),
                        d2rho=lambda x: np.zeros((2, 2)), dS=lambda x: np.array([-1.0, 0.0]),
                        d2S=lambda x: np.zeros((2, 2)))
    for call in (lambda x: metric_inverse(bg, x), lambda x: metric_data(bg, x),
                 lambda x: feq.classical_hj_residual_rel(bg, polar, x),
                 lambda x: feq.quantum_hj_residual_rel(bg, polar, x),
                 lambda x: feq.continuity_residual_rel(bg, polar, x)):
        _point_and_batch_raise(error, call)


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
}


@pytest.mark.parametrize("case", sorted(CLI_FAILURES))
def test_bad_row_through_the_cli(tmp_path, capsys, case):
    doc, code, line = CLI_FAILURES[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["check", "--config", str(config), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert re.match(line, err), err


# ---------------------------------------------------------------------------
# one geometry read per check, whatever the grid
# ---------------------------------------------------------------------------

def _geometry_reads(monkeypatch, tmp_path, samples):
    """metric_data and metric_inverse calls, at every module binding, of one
    ``check curved-diagonal`` run on a samples x samples grid."""
    reads = {"metric_data": 0, "metric_inverse": 0}
    for name in reads:
        original = getattr(geo, name)

        def counted(*args, _name=name, _original=original):
            reads[_name] += 1
            return _original(*args)

        for module in [m for n, m in sys.modules.items() if n.startswith("pilotwave")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    doc = {"scenario": {"name": "curved-diagonal"},
           "grid": {"bounds": [[0.0, 5.0], [-2.4, 2.4]], "samples": [samples, samples]}}
    status = cli.run("check", cli.RunConfig.from_dict(doc), out_dir=str(tmp_path / str(samples)))
    assert status == 0
    monkeypatch.undo()
    return reads


def test_the_grid_is_not_split_into_points(monkeypatch, tmp_path):
    small = _geometry_reads(monkeypatch, tmp_path, 4)
    large = _geometry_reads(monkeypatch, tmp_path, 8)
    assert small == large
    assert sum(small.values()) <= len(build("curved-diagonal").checks)
