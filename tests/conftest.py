import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from pilotwave.dynamics import Trajectory
from pilotwave.fields import PolarField
from pilotwave.geometry import BackgroundRel
from pilotwave.nc_geometry import NCBackground
from stencils import jacobian

settings.register_profile(
    "suite", max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

# finite doubles, with the ones whose JSON text and repr could disagree on
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e16, 1e22,
                  -1e22, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0,
                  2.0 ** 53, 0.1]
FINITE_FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def trajectories(draw):
    """A Trajectory of K = 1..40 samples in D = 1..5, every float from FINITE_FLOATS."""
    k, d = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    lambdas = sorted(set(draw(st.lists(FINITE_FLOATS, min_size=k, max_size=k))))
    k = len(lambdas)
    rows = st.lists(st.lists(FINITE_FLOATS, min_size=d, max_size=d), min_size=k, max_size=k)
    with np.errstate(over="ignore"):  # lambda steps may exceed 1.8e308
        return Trajectory(draw(st.sampled_from(["proper_time", "coordinate_time"])),
                          np.array(lambdas), np.array(draw(rows)), np.array(draw(rows)),
                          np.array(draw(st.lists(FINITE_FLOATS, min_size=k, max_size=k))))


# Every closure takes one point (D,) or a batch (..., D): a phase w.x is
# np.vecdot(x, w), which gives each row the bits of w @ x at one point.

def make_wavy_rel(dim=2, eps=0.08, seed=3, mass=1.0, charge=0.3):
    """Smooth non-flat Lorentzian background with analytic derivatives."""
    rng = np.random.default_rng(seed)
    eta = np.diag([-1.0] + [1.0] * (dim - 1))
    nterms = 2
    cs = rng.normal(size=(nterms, dim, dim))
    cs = 0.5 * (cs + cs.transpose(0, 2, 1))
    ws = rng.normal(size=(nterms, dim))
    phases = rng.uniform(0, 2 * np.pi, size=nterms)
    a_amp = rng.normal(size=dim) * 0.3
    a_vec = rng.normal(size=dim)

    def metric(x):
        g = eta
        for c, w, ph in zip(cs, ws, phases):
            g = g + eps * c * np.sin(np.vecdot(x, w) + ph)[..., None, None]
        return g

    def dmetric(x):
        out = np.zeros((dim, dim, dim))
        for c, w, ph in zip(cs, ws, phases):
            out = out + eps * np.einsum("m,ab->mab", w, c) * np.cos(np.vecdot(x, w) + ph)[
                ..., None, None, None]
        return out

    def gauge(x):
        return a_amp * np.cos(np.vecdot(x, a_vec))[..., None]

    def dgauge(x):
        return -np.outer(a_vec, a_amp) * np.sin(np.vecdot(x, a_vec))[..., None, None]

    return BackgroundRel(dim=dim, metric=metric, gauge=gauge, mass=mass,
                         charge=charge, dmetric=dmetric, dgauge=dgauge)


def make_wavy_polar(dim=2, seed=5):
    """Smooth positive density and phase with analytic derivatives."""
    rng = np.random.default_rng(seed)
    r_vec = rng.normal(size=dim)
    u_vec = rng.normal(size=dim)
    p_vec = rng.normal(size=dim)
    a, b = 0.3, 0.25

    def g_fun(x):
        return a * np.sin(np.vecdot(x, r_vec) + 0.4)

    def rho(x):
        return np.exp(g_fun(x))

    def drho(x):
        return (rho(x) * a * np.cos(np.vecdot(x, r_vec) + 0.4))[..., None] * r_vec

    def d2rho(x):
        dg = (a * np.cos(np.vecdot(x, r_vec) + 0.4))[..., None] * r_vec
        d2g = (-a * np.sin(np.vecdot(x, r_vec) + 0.4))[..., None, None] * np.outer(r_vec, r_vec)
        return rho(x)[..., None, None] * (dg[..., :, None] * dg[..., None, :] + d2g)

    def s_fun(x):
        return np.vecdot(x, p_vec) + b * np.cos(np.vecdot(x, u_vec))

    def ds_fun(x):
        return p_vec - (b * np.sin(np.vecdot(x, u_vec)))[..., None] * u_vec

    def d2s_fun(x):
        return (-b * np.cos(np.vecdot(x, u_vec)))[..., None, None] * np.outer(u_vec, u_vec)

    return PolarField(rho=rho, S=s_fun, drho=drho, d2rho=d2rho,
                      dS=ds_fun, d2S=d2s_fun)


def make_wavy_nc(dim=2, seed=7, mass=1.0, charge=0.4):
    """Smoothly varying NC data whose derivative closures are the central differences
    of ``jacobian``; ``wavy_nc_derivatives`` gives their closed forms."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(size=dim)
    w2 = rng.normal(size=dim)
    w3 = rng.normal(size=dim)

    def tau(x):
        t = np.zeros(x.shape[:-1] + (dim,))
        t[..., 0] = 1.0 + 0.1 * np.sin(np.vecdot(x, w1))
        t[..., 1] = 0.05 * np.cos(np.vecdot(x, w2))
        return t

    def vierbein(x):
        v = np.zeros(x.shape[:-1] + (dim, dim - 1))
        for a in range(dim - 1):
            v[..., 0, a] = 0.06 * np.sin(np.vecdot(x, w2) + a)
            v[..., 1 + a, a] = 1.0 + 0.1 * np.cos(np.vecdot(x, w3) + a)
        return v

    def m_field(x):
        return ((0.2 * np.sin(np.vecdot(x, w3)))[..., None] * np.ones(dim)
                * np.linspace(1.0, 0.5, dim))

    def gauge_bar(x):
        return (0.15 * np.cos(np.vecdot(x, w1)))[..., None] * np.linspace(0.5, 1.0, dim)

    def phi(x):
        return 0.1 * np.sin(np.vecdot(x, w2) + 0.3)

    return NCBackground(dim=dim, tau=tau, vierbein=vierbein, m_field=m_field,
                        gauge_bar=gauge_bar, phi=phi,
                        dtau=lambda x: jacobian(tau, x),
                        dvierbein=lambda x: jacobian(vierbein, x),
                        dm_field=lambda x: jacobian(m_field, x),
                        dgauge_bar=lambda x: jacobian(gauge_bar, x),
                        dphi=lambda x: jacobian(phi, x), mass=mass, charge=charge)


def wavy_nc_derivatives(dim=2, seed=7):
    """Closed-form (dtau, dvierbein, dM, dAbar, dphi) of make_wavy_nc(dim, seed), the
    derivative index first after the point axes: what its central differences approximate."""
    rng = np.random.default_rng(seed)
    w1, w2, w3 = (rng.normal(size=dim) for _ in range(3))

    def along(scale, w):
        """scale (...,) times w: the gradient of a function of x.w, shape (..., D)."""
        return scale[..., None] * w

    def dtau(x):
        out = np.zeros(x.shape[:-1] + (dim, dim))
        out[..., 0] = along(0.1 * np.cos(np.vecdot(x, w1)), w1)
        out[..., 1] = along(-0.05 * np.sin(np.vecdot(x, w2)), w2)
        return out

    def dvierbein(x):
        out = np.zeros(x.shape[:-1] + (dim, dim, dim - 1))
        for a in range(dim - 1):
            out[..., 0, a] = along(0.06 * np.cos(np.vecdot(x, w2) + a), w2)
            out[..., 1 + a, a] = along(-0.1 * np.sin(np.vecdot(x, w3) + a), w3)
        return out

    def dm_field(x):
        return along(0.2 * np.cos(np.vecdot(x, w3)), w3)[..., None] * np.linspace(1.0, 0.5, dim)

    def dgauge_bar(x):
        return (along(-0.15 * np.sin(np.vecdot(x, w1)), w1)[..., None]
                * np.linspace(0.5, 1.0, dim))

    def dphi(x):
        return along(0.1 * np.cos(np.vecdot(x, w2) + 0.3), w2)

    return dtau, dvierbein, dm_field, dgauge_bar, dphi


@pytest.fixture
def wavy_rel():
    return make_wavy_rel()


@pytest.fixture
def wavy_polar():
    return make_wavy_polar()


@pytest.fixture
def wavy_nc():
    return make_wavy_nc()


@pytest.fixture
def sample_points():
    rng = np.random.default_rng(11)
    return rng.uniform(-0.8, 0.8, size=(6, 2))
