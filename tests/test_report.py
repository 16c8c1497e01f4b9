import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FINITE_FLOATS, trajectories
from pilotwave.errors import NonFiniteResult
from pilotwave.report import GridSpec, ResidualReport


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


def _reference_json(rep) -> str:
    """The report as the writer laid it out before it rendered from its arrays."""
    doc = {"name": rep.name, "max_abs": rep.max_abs, "mean_abs": rep.mean_abs,
           "samples": [{"point": list(map(float, p)), "value": float(v)}
                       for p, v in zip(rep.points, rep.values)]}
    return json.dumps(doc, sort_keys=True, indent=1)


@st.composite
def reports(draw):
    """A report of K = 1..40 points in D = 1..5.  Each column is drawn from FINITE_FLOATS
    or from a pool of six values, so that columns repeat values and mix 0.0 and -0.0."""
    k, d = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    pool = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 0.1, draw(FINITE_FLOATS)])
    cols = [draw(st.lists(draw(st.sampled_from([FINITE_FLOATS, pool])), min_size=k, max_size=k))
            for _ in range(d + 1)]
    return ResidualReport(draw(st.text(max_size=6)), np.column_stack(cols[:d]),
                          np.array(cols[d]))


@settings(max_examples=80)
@given(reports())
def test_json_is_byte_identical_to_json_dumps(rep):
    # a mean over values near +-1.8e308 may overflow to inf (or, cancelling, to nan)
    with np.errstate(over="ignore", invalid="ignore"):
        assert rep.to_json() == _reference_json(rep)
        assert rep.to_json({}) == _reference_json(rep)


def test_point_text_is_shared_by_grid_bytes():
    pts = GridSpec(bounds=((-1.0, 1.0), (0.0, 2.0)), samples=(3, 4)).points()
    assert pts[4, 0] == 0.0 and not np.signbit(pts[4, 0])
    text = {}

    def render(points, name, seed):
        values = np.random.default_rng(seed).normal(size=len(points))
        rep = ResidualReport.from_samples(name, points, values)
        assert rep.to_json(text) == _reference_json(rep)

    render(pts, "a", 0)
    render(pts, "b", 1)                      # a second report on one grid
    render(GridSpec(bounds=((-1.0, 1.0), (0.0, 2.0)), samples=(3, 4)).points(), "c", 2)
    assert len(text) == 1                    # the rebuilt equal grid reuses the text
    signed = pts.copy()
    signed[4, 0] = -0.0                      # equal under ==, not under repr
    render(signed, "d", 3)
    assert len(text) == 2
    rep = ResidualReport.from_samples("e", pts, np.ones(len(pts)))
    assert rep.to_json(text) == _reference_json(rep)
    pts[2, 1] += 0.5                         # edited in place between two renders
    assert rep.to_json(text) == _reference_json(rep)
    assert f"    -1.0,\n    {pts[2, 1].item()!r}\n" in rep.to_json(text)


def test_csv_layout_and_precision():
    rep = ResidualReport.from_samples("demo", [[0.1, 0.2]], [1.0 / 3.0])
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "x0,x1,value"
    assert lines[1].split(",")[2] == "0.33333333333333331"
    assert len(lines[1].split(",")[2]) >= 17


def _reference_csv(header, rows) -> str:
    """The CSV as the writers laid it out when they formatted one float at a time."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


@settings(max_examples=80)
@given(reports(), trajectories())
def test_csv_is_byte_identical_to_the_per_float_writer(rep, traj):
    dim = rep.points.shape[1]
    assert rep.to_csv() == _reference_csv([f"x{i}" for i in range(dim)] + ["value"],
                                          ([*p, v] for p, v in zip(rep.points, rep.values)))
    dim = traj.dim
    header = (["lambda"] + [f"X{i}" for i in range(dim)] + [f"p{i}" for i in range(dim)]
              + ["constraint_residual"])
    rows = ([lam, *x, *p, c] for lam, x, p, c in zip(traj.lambdas, traj.points, traj.momenta,
                                                      traj.constraint))
    assert traj.to_csv() == _reference_csv(header, rows)


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

