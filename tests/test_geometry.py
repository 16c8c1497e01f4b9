import dataclasses
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pilotwave.geometry as geometry
from oracles import cofactor_det
from pilotwave.errors import DegenerateFrame, SignatureViolation, SingularMetric
from pilotwave.field_equations import classical_hj_residual_rel
from pilotwave.geometry import BackgroundRel, _det, check_point, metric_data, metric_inverse
from pilotwave.nc_geometry import NCBackground, derive_nc
from pilotwave.report import GridSpec
from pilotwave.scenarios import build
from conftest import make_wavy_rel
from stencils import jacobian

MINK4 = np.diag([-1.0, 1.0, 1.0, 1.0])


def test_minkowski_inverse_is_self():
    bg = BackgroundRel.minkowski(4)
    ginv = metric_inverse(bg, np.zeros(4))
    assert np.allclose(ginv, MINK4, atol=1e-14)


def test_diagonal_inverse_reciprocal():
    bg = BackgroundRel.constant(np.diag([-4.0, 1.0, 1.0, 1.0]))
    ginv = metric_inverse(bg, np.zeros(4))
    assert np.allclose(ginv, np.diag([-0.25, 1.0, 1.0, 1.0]), atol=1e-14)


@given(st.integers(0, 10_000))
def test_perturbed_inverse_residual(seed):
    rng = np.random.default_rng(seed)
    delta = rng.normal(size=(4, 4))
    delta = 0.1 * (delta + delta.T) / np.max(np.abs(delta + delta.T))
    bg = BackgroundRel.constant(MINK4 + delta)
    x = np.zeros(4)
    g = metric_data(bg, x).g
    ginv = metric_inverse(bg, x)
    assert np.max(np.abs(g @ ginv - np.eye(4))) < 1e-10
    # independent route: column-by-column linear solve
    solved = np.column_stack([np.linalg.solve(g, e) for e in np.eye(4)])
    assert np.max(np.abs(ginv - solved)) < 1e-10


def test_volume_element_trivial_values():
    assert metric_data(BackgroundRel.minkowski(4), np.zeros(4)).vol == pytest.approx(1.0)
    bg = BackgroundRel.constant(np.diag([-4.0, 1.0, 1.0, 1.0]))
    assert metric_data(bg, np.zeros(4)).vol == pytest.approx(2.0)


def test_volume_element_against_cofactor_oracle():
    bg = make_wavy_rel(dim=3, seed=9)
    rng = np.random.default_rng(0)
    for x in rng.uniform(-1, 1, size=(20, 3)):
        md = metric_data(bg, x)
        g, vol = md.g, md.vol
        assert abs(vol - np.sqrt(-cofactor_det(g))) < 1e-12
        # vol^2 + det g = 0 to relative 1e-12
        det = np.linalg.det(g)
        assert abs(vol**2 + det) < 1e-12 * max(1.0, abs(det))


def test_metric_derivative_flat_is_zero():
    bg = BackgroundRel.minkowski(4)
    assert np.allclose(bg.metric_derivative_at(np.zeros(4))[1], 0.0)


def test_metric_derivative_hand_value():
    # g_00 = -(1 + 0.1 x^1)^2, rest flat: d_1 g_00 at x^1 = 0 is -0.2
    def metric(x):
        g = np.broadcast_to(np.eye(4), x.shape[:-1] + (4, 4)).copy()
        g[..., 0, 0] = -(1.0 + 0.1 * x[..., 1]) ** 2
        return g

    bg = BackgroundRel(dim=4, metric=metric, gauge=lambda x: np.zeros(4),
                       dmetric=lambda x: jacobian(metric, x), dgauge=lambda x: np.zeros((4, 4)))
    dg1 = bg.metric_derivative_at(np.zeros(4))[1]
    assert dg1[0, 0] == pytest.approx(-0.2, abs=1e-9)
    assert np.max(np.abs(dg1[1:, 1:])) < 1e-12


def test_analytic_derivative_matches_fd_with_richardson():
    bg = make_wavy_rel(dim=2, seed=4)
    rng = np.random.default_rng(1)
    for x in rng.uniform(-1, 1, size=(100, 2)):
        exact = bg.dmetric(x)
        err_h = np.max(np.abs(jacobian(bg.metric, x, 2e-4) - exact))
        err_h2 = np.max(np.abs(jacobian(bg.metric, x, 1e-4) - exact))
        # central differences: halving the step divides the error by ~4
        assert err_h2 <= err_h / 4.0 * 1.6 + 1e-12
        assert err_h2 < 1e-6


def test_volume_element_derivative_matches_fd(wavy_rel):
    x = np.array([0.3, -0.4])
    dvol = metric_data(wavy_rel, x).dvol
    from oracles import nested_gradient
    fd = nested_gradient(lambda p: metric_data(wavy_rel, p).vol, x)
    assert np.max(np.abs(dvol - fd)) < 1e-8


def test_inverse_metric_derivative_matches_fd(wavy_rel):
    from oracles import nested_gradient
    rng = np.random.default_rng(2)
    for x in rng.uniform(-0.8, 0.8, size=(10, 2)):
        fd = nested_gradient(lambda p: metric_inverse(wavy_rel, p), x)
        assert np.max(np.abs(metric_data(wavy_rel, x).dginv - fd)) < 1e-8


def _einsum_dginv(bg, pts):
    """d_M g^{PQ} as metric_data computed it before the stacked matmul."""
    ginv = metric_inverse(bg, pts)
    return -np.einsum("...pa,...mab,...bq->...mpq", ginv, bg.metric_derivative_at(pts), ginv)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_dginv_matches_the_einsum_it_replaced(dim):
    # the matmul sums in another order: at most 1e-15 * max(1, |v|) on a wavy metric
    bg = make_wavy_rel(dim)
    pts = np.random.default_rng(dim).uniform(-1.0, 1.0, size=(200, dim))
    for x in (pts, pts[7]):
        ref = _einsum_dginv(bg, x)
        dginv = metric_data(bg, x).dginv
        assert dginv.shape == ref.shape
        assert np.all(np.abs(dginv - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))


def test_dginv_is_bit_identical_on_the_curved_diagonal_grid():
    from pilotwave.report import GridSpec
    from pilotwave.scenarios import build
    sc = build("curved-diagonal")
    for grid in (sc.default_grid, GridSpec(((0.0, 5.0), (-2.4, 2.4)), (50, 50))):
        pts = grid.points()
        assert np.array_equal(metric_data(sc.background, pts).dginv,
                              _einsum_dginv(sc.background, pts))


def test_metric_data_reads_the_metric_once(wavy_rel):
    reads = []
    bg = dataclasses.replace(wavy_rel, metric=lambda x: reads.append(1) or wavy_rel.metric(x))
    md = metric_data(bg, np.array([0.3, -0.4]))
    assert len(reads) == 1
    assert np.array_equal(md.ginv, metric_inverse(wavy_rel, md.pt))
    assert md.vol == np.sqrt(-np.linalg.det(wavy_rel.metric(md.pt)))


def _counting_metric(bg):
    """bg with a metric closure that counts its reads, and the list of those reads."""
    reads = []
    return dataclasses.replace(bg, metric=lambda x: reads.append(1) or bg.metric(x)), reads


# the shape of each bundle object at one point, in units of (D,)
BATCH_SHAPES = {"g": 2, "ginv": 2, "dg": 3, "dginv": 3, "vol": 0, "dvol": 1}


@pytest.mark.parametrize("name", ["minkowski", "curved-diagonal"])
def test_one_solve_per_distinct_metric(name, monkeypatch):
    if name == "minkowski":
        bg = BackgroundRel.minkowski()
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(900, 4))
    else:
        bg = build(name).background
        pts = GridSpec(((0.0, 5.0), (-2.4, 2.4)), (30, 30)).points()
    k, dim = pts.shape
    shapes = []

    def spy(g, x, inverse=geometry._checked_inverse):
        shapes.append(g.shape)
        return inverse(g, x)

    monkeypatch.setattr(geometry, "_checked_inverse", spy)
    md, ginv = metric_data(bg, pts), metric_inverse(bg, pts)
    # the constant Minkowski metric is solved once for the whole batch
    assert shapes == [(dim, dim) if name == "minkowski" else (k, dim, dim)] * 2
    monkeypatch.undo()
    rows = [metric_data(bg, p) for p in pts]
    for field, axes in BATCH_SHAPES.items():
        # the bundle keeps the shape its closures return, which broadcasts to the points:
        # one value for the whole batch where the metric is constant
        batch = getattr(md, field)
        if name == "minkowski":
            assert batch.shape == (dim,) * axes, field
        at_points = np.broadcast_to(batch, (k,) + (dim,) * axes)
        assert np.array_equal(at_points, np.stack([getattr(row, field) for row in rows])), field
    assert np.array_equal(md.pt, pts)
    assert ginv.shape == (k, dim, dim)
    assert np.array_equal(ginv, np.stack([metric_inverse(bg, p) for p in pts]))
    # a constant's g^{MN} reaches the points as a read-only view of the one solve
    assert ginv.flags.writeable == (name != "minkowski")


def test_metric_inverse_takes_a_bundle(wavy_rel):
    pts = np.random.default_rng(8).uniform(-0.8, 0.8, size=(12, 2))
    bg, reads = _counting_metric(wavy_rel)
    md = metric_data(bg, pts)
    reads.clear()
    assert metric_inverse(bg, md) is md.ginv and reads == []
    with pytest.raises(ValueError, match=r"^point has dimension 2, expected 3$"):
        metric_inverse(BackgroundRel.minkowski(3), md)


@pytest.mark.parametrize("name", ["curved-diagonal", "minkowski-superposition"])
def test_classical_hj_reads_no_metric_given_the_bundle(name):
    sc = build(name)
    bg, reads = _counting_metric(sc.background)
    pts = sc.default_grid.points()
    md = metric_data(bg, pts)
    reads.clear()
    from_bundle = classical_hj_residual_rel(bg, sc.polar, md)
    assert len(reads) == 0
    from_points = classical_hj_residual_rel(bg, sc.polar, pts)
    assert len(reads) == 1
    assert np.array_equal(from_bundle, from_points)


# points of a batch; a constant metric that fails a check names the first of them
BATCH = np.array([[0.5, -0.25], [1.0, 2.0], [-3.0, 0.0]])
AT_FIRST = r" at point \[0\.5, -0\.25\]$"


def _constant(g):
    return BackgroundRel(dim=2, metric=lambda x: g, gauge=lambda x: np.zeros(2),
                         dmetric=lambda x: np.zeros((2, 2, 2)), dgauge=lambda x: np.zeros((2, 2)))


ASYMMETRIC = r"metric is not symmetric \(max \|g - g\^T\| = 1\.000e-06\)"


# each failing constant metric: the error and text of metric_inverse and metric_data
@pytest.mark.parametrize("g, error, message", [
    (np.diag([-1.0, 0.0]), SingularMetric, r"\|det g\| = 0\.000e\+00 below 1e-14"),
    (np.eye(2), SignatureViolation, r"metric must have exactly one negative eigenvalue, has 0"),
    (np.array([[-1.0, 1e-6], [0.0, 1.0]]), ValueError, ASYMMETRIC)])
def test_a_constant_metric_that_fails_names_the_first_point(g, error, message):
    bg = _constant(g)
    for call in (metric_inverse, metric_data):
        with pytest.raises(error, match="^" + message + AT_FIRST):
            call(bg, BATCH)
        with pytest.raises(error, match="^" + message + r" at point \[1\.0, 2\.0\]$"):
            call(bg, BATCH[1])


def test_a_metric_that_does_not_broadcast_to_the_points_is_a_shape_error():
    bg = _constant(np.broadcast_to(np.diag([-1.0, 1.0]), (2, 2, 2)))
    for call in (metric_inverse, metric_data):
        for x, expected in ((BATCH, r"\(3, 2, 2\)"), (BATCH[0], r"\(2, 2\)")):
            with pytest.raises(ValueError,
                               match=rf"^metric has shape \(2, 2, 2\), expected {expected}$"):
                call(bg, x)
    # a closure's value of leading shape 1 broadcasts to any batch
    eta = np.diag([-1.0, 1.0])
    assert np.array_equal(metric_inverse(_constant(eta[None]), BATCH),
                          metric_inverse(_constant(eta), BATCH))


def test_singular_metric_raises():
    g = np.diag([-1.0, 1.0, 1.0, 0.0])
    bg = BackgroundRel.constant(g)
    with pytest.raises(SingularMetric):
        metric_inverse(bg, np.zeros(4))


def test_signature_violation_raises():
    bg = BackgroundRel.constant(np.eye(4))
    for call in (metric_inverse, metric_data):
        with pytest.raises(SignatureViolation):
            call(bg, np.zeros(4))
    two_negative = BackgroundRel.constant(np.diag([-1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(SignatureViolation):
        metric_inverse(two_negative, np.zeros(4))


def test_asymmetric_metric_rejected():
    g = MINK4 + np.triu(np.full((4, 4), 1e-6), k=1)
    bg = BackgroundRel.constant(0.5 * (g + g.T))
    bg_bad = BackgroundRel(dim=4, metric=lambda x: g, gauge=lambda x: np.zeros(4),
                           dmetric=lambda x: np.zeros((4, 4, 4)),
                           dgauge=lambda x: np.zeros((4, 4)))
    metric_data(bg, np.zeros(4))
    with pytest.raises(ValueError, match="not symmetric"):
        metric_data(bg_bad, np.zeros(4))


@pytest.mark.parametrize("cls, name", [(BackgroundRel, "dmetric"), (BackgroundRel, "dgauge")]
                         + [(NCBackground, name) for name in ("dtau", "dvierbein", "dm_field",
                                                              "dgauge_bar", "dphi")])
def test_a_missing_derivative_is_refused(cls, name):
    """Each derivative has one source, the closure given: a background built without one
    is refused, naming it, and never differentiated numerically."""
    full = BackgroundRel.minkowski(2) if cls is BackgroundRel else NCBackground.flat(2)
    given = {f.name: getattr(full, f.name) for f in dataclasses.fields(cls) if f.name != name}
    with pytest.raises(TypeError, match=f"missing 1 required .*'{name}'"):
        cls(**given)


@pytest.mark.parametrize("value", [-1.0, np.ones(4), np.ones((1, 4))])
def test_metric_of_wrong_shape_is_a_shape_error(value):
    bg = BackgroundRel(dim=4, metric=lambda x: value, gauge=lambda x: np.zeros(4),
                       dmetric=lambda x: np.zeros((4, 4, 4)), dgauge=lambda x: np.zeros((4, 4)))
    for x in (np.zeros(4), np.zeros((3, 4))):
        with pytest.raises(ValueError, match="metric has shape"):
            metric_data(bg, x)


def test_check_point_validation():
    with pytest.raises(ValueError):
        check_point([1.0])
    with pytest.raises(ValueError):
        check_point([[1.0, 2.0]])
    with pytest.raises(ValueError):
        check_point([np.nan, 0.0])
    with pytest.raises(ValueError):
        check_point([1.0, 2.0, 3.0], dim=2)
    out = check_point([1, 2], dim=2)
    assert out.dtype == float


# ---------------------------------------------------------------------------
# the 2 x 2 determinant in closed form, and the D = 2 signature from it
# ---------------------------------------------------------------------------

def test_a_two_dimensional_row_calls_no_linalg_det(monkeypatch):
    """A one-point frame on the packet and a one-point bundle on curved-diagonal take det
    in closed form and the signature from it; D = 3 and D = 4 still call numpy's det, and
    D = 4 its eigvalsh."""
    packet, curved = build("flat-nc-gaussian-packet"), build("curved-diagonal")
    calls = Counter()
    for name in ("det", "eigvalsh"):
        def spy(*args, fn=getattr(np.linalg, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(np.linalg, name, spy)
    derive_nc(packet.background, np.array([0.3, 0.5]))
    metric_data(curved.background, np.array([0.3, -0.5]))
    assert calls == Counter()
    derive_nc(NCBackground.flat(3), np.zeros(3))
    assert calls == Counter(det=1)
    metric_data(BackgroundRel.minkowski(4), np.zeros(4))
    assert calls == Counter(det=2, eigvalsh=1)


def test_closed_form_det_matches_the_oracles():
    """On 200 random 2 x 2 matrices, one at a time and stacked (K, 2, 2): the cofactor
    expansion to the bit, and LAPACK to 1e-15 of the larger product a00 a11 or a01 a10,
    the scale at which the two-term difference rounds (relative to det itself, LAPACK's
    LU and the closed form differ by up to 6e-14 where the products cancel)."""
    a = np.random.default_rng(11).normal(size=(200, 2, 2))
    stacked = _det(a)
    scale = np.maximum(np.abs(a[:, 0, 0] * a[:, 1, 1]), np.abs(a[:, 0, 1] * a[:, 1, 0]))
    assert stacked.shape == (200,)
    assert np.max(np.abs(stacked - np.linalg.det(a)) / scale) <= 1e-15
    for one, value in zip(a, stacked):
        assert _det(one) == value == cofactor_det(one)
        assert isinstance(_det(one), np.float64)


@pytest.mark.parametrize("errstate", ["warn", "raise"])
def test_a_cancelling_frame_is_degenerate_not_nan(errstate):
    """a00 a11 - a01 a10 is inf - inf for a frame of 1e200s: LAPACK's LU gives det 0, so
    the frame is degenerate, whether numpy warns (outside the CLI) or raises (inside)."""
    big = np.full((2, 2), 1e200)
    nc = NCBackground.constant(big[:, 0], big[:, 1:])
    with np.errstate(over=errstate, invalid=errstate):
        assert _det(big) == 0.0 and np.array_equal(_det(np.stack([big, big])), [0.0, 0.0])
        with pytest.raises(DegenerateFrame, match=r"^\|det\(tau, e\)\| = 0\.000e\+00 below "
                                                  r"1e-12 at point \[0\.0, 0\.0\]$"):
            derive_nc(nc, np.zeros(2))


def test_two_dimensional_signature_matches_eigvalsh():
    """On 200 random symmetric 2 x 2 metrics with 0, 1 or 2 negative eigenvalues, one at a
    time and stacked, the check accepts or refuses as eigvalsh's count says, with the
    message that count gives."""
    rng = np.random.default_rng(12)
    signs = rng.choice([-1.0, 1.0], size=(200, 2))
    turn = rng.uniform(0.0, np.pi, size=200)
    rot = np.stack([np.stack([np.cos(turn), -np.sin(turn)], -1),
                    np.stack([np.sin(turn), np.cos(turn)], -1)], -2)
    g = rot * (signs * rng.uniform(0.1, 2.0, size=(200, 2)))[..., None, :] @ rot.mT
    g = 0.5 * (g + g.mT)
    negative = (np.linalg.eigvalsh(g) < 0.0).sum(axis=-1)
    assert set(negative.tolist()) == {0, 1, 2}
    pts = rng.uniform(-1.0, 1.0, size=(200, 2))

    def message(i):
        return re.escape(f"metric must have exactly one negative eigenvalue, has {negative[i]} "
                         f"at point {pts[i].tolist()}")

    for i in range(200):
        bg = BackgroundRel.constant(g[i])
        if negative[i] == 1:
            metric_data(bg, pts[i])
        else:
            with pytest.raises(SignatureViolation, match=f"^{message(i)}$"):
                metric_data(bg, pts[i])
    stacked = BackgroundRel(dim=2, metric=lambda x: g, gauge=lambda x: np.zeros(2),
                            dmetric=lambda x: np.zeros((2, 2, 2)),
                            dgauge=lambda x: np.zeros((2, 2)))
    with pytest.raises(SignatureViolation, match=f"^{message(np.argmax(negative != 1))}$"):
        metric_data(stacked, pts)
    ok = negative == 1
    metric_data(dataclasses.replace(stacked, metric=lambda x: g[ok]), pts[ok])


# ---------------------------------------------------------------------------
# constant backgrounds: one frozen copy of the caller's arrays
# ---------------------------------------------------------------------------

def test_a_constant_metric_owns_its_arrays():
    """Edits to the caller's g and A after construction change nothing, and the caller's
    arrays stay writeable."""
    g, a = np.diag([-1.0, 1.0]), np.array([0.5, 0.0])
    bg = BackgroundRel.constant(g, A=a)
    g[0, 0], a[0] = -4.0, 7.0
    md = metric_data(bg, np.zeros(2))
    assert np.array_equal(md.g, np.diag([-1.0, 1.0])) and md.vol == 1.0
    assert np.array_equal(bg.gauge_at(np.zeros(2)), [0.5, 0.0])
    assert g.flags.writeable and a.flags.writeable


def test_a_constant_metric_hands_out_one_read_only_array():
    """Every read of a constant closure, and of the plane wave's dS, is the same read-only
    array: writing through a bundle's g raises and leaves the background intact."""
    sc = build("minkowski-plane-wave")
    bg = sc.background
    closures = [getattr(bg, name) for name in ("metric", "gauge", "dmetric", "dgauge")]
    for fn in closures + [sc.polar.dS]:
        first = fn(np.zeros(4))
        assert fn(np.ones((3, 4))) is first and not first.flags.writeable
    md = metric_data(bg, np.zeros(4))
    with pytest.raises(ValueError, match="read-only"):
        md.g[0, 0] = 1.0
    assert np.array_equal(bg.metric(np.zeros(4)), MINK4)
