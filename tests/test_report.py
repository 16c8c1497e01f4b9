import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pilotwave.errors import NonFiniteResult
from pilotwave.report import GridSpec, ResidualReport, format_float


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_max_dominates_mean(values):
    pts = np.zeros((len(values), 2))
    rep = ResidualReport.from_samples("x", pts, values)
    assert rep.max_abs >= rep.mean_abs >= 0.0


def test_complex_values_stored_as_magnitude():
    rep = ResidualReport.from_samples("c", np.zeros((2, 2)), [3 + 4j, 1j])
    assert rep.values[0] == pytest.approx(5.0)
    assert rep.values[1] == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.inf, 0.0)])
def test_non_finite_value_names_report_and_point(bad):
    pts = [[0.0, 0.5], [1.0, 1.5], [2.0, 2.5]]
    with pytest.raises(NonFiniteResult, match=r"'r'.*\[1\.0, 1\.5\]"):
        ResidualReport.from_samples("r", pts, [0.1, bad, bad])


def test_json_roundtrip_fields():
    rep = ResidualReport.from_samples("demo", [[0.0, 1.0], [2.0, 3.0]], [0.5, -0.25])
    doc = json.loads(rep.to_json())
    assert doc["name"] == "demo"
    assert doc["max_abs"] == pytest.approx(0.5)
    assert doc["mean_abs"] == pytest.approx(0.375)
    assert doc["samples"][1]["point"] == [2.0, 3.0]
    assert doc["samples"][1]["value"] == pytest.approx(0.25)


def test_csv_layout_and_precision():
    rep = ResidualReport.from_samples("demo", [[0.1, 0.2]], [1.0 / 3.0])
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "x0,x1,value"
    assert lines[1].split(",")[2] == format_float(1.0 / 3.0)
    assert len(lines[1].split(",")[2]) >= 17


def test_grid_points_order_deterministic():
    spec = GridSpec(bounds=((0.0, 1.0), (0.0, 2.0)), samples=(2, 3))
    pts = spec.points()
    assert pts.shape == (6, 2)
    assert np.allclose(pts[0], [0.0, 0.0])
    assert np.allclose(pts[1], [0.0, 1.0])
    assert np.allclose(pts[-1], [1.0, 2.0])
    assert np.array_equal(pts, spec.points())


def test_grid_contains():
    spec = GridSpec(bounds=((0.0, 1.0), (-1.0, 1.0)), samples=(2, 2))
    assert spec.contains([0.5, 0.0])
    assert not spec.contains([1.5, 0.0])
    assert not spec.contains([0.5])


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(bounds=((0.0, 1.0),), samples=(1,))
    with pytest.raises(ValueError):
        GridSpec(bounds=((1.0, 0.0),), samples=(2,))
    with pytest.raises(ValueError):
        GridSpec(bounds=((0.0, 1.0), (0.0, 1.0)), samples=(2,))

