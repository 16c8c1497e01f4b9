import numpy as np
import pytest

from pilotwave.errors import BadParameter, UnknownScenario
from pilotwave.scenarios import CHECK_EVALUATORS, REGISTRY, build
from oracles import rk4_path, validate_derivatives


def test_registry_contains_required_entries():
    names = sorted(REGISTRY)
    for required in ("minkowski-plane-wave", "minkowski-superposition",
                     "flat-nc-plane-wave", "flat-nc-gaussian-packet",
                     "curved-diagonal", "nc-nontrivial-M",
                     "free-particle-hj", "harmonic-oscillator-hj"):
        assert required in names


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_scenario_builds(name):
    sc = build(name)
    assert sc.name == name


def test_every_check_evaluator_is_a_scenario_check():
    # `residuals` accepts only a scenario's own checks, so an evaluator no
    # registry scenario lists is one no command can reach
    checks = {c.name for name in REGISTRY for c in build(name).checks}
    assert sorted(set(CHECK_EVALUATORS) - checks) == []


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenario):
        build("does-not-exist")


def test_bad_parameters_raise():
    with pytest.raises(BadParameter):
        build("minkowski-plane-wave", {"m": -1.0})
    with pytest.raises(BadParameter):
        build("minkowski-plane-wave", {"nonsense": 1.0})
    with pytest.raises(BadParameter):
        build("flat-nc-gaussian-packet", {"sigma0": 0.0})
    with pytest.raises(BadParameter):
        build("curved-diagonal", {"E": 0.9})
    with pytest.raises(BadParameter):
        build("minkowski-superposition", {"a2": 1.0})


def test_plane_wave_mass_shell_energy():
    sc = build("minkowski-plane-wave", {"m": 1.0, "k": [0.6, 0.0, 0.0]})
    assert sc.oracle["E"] == pytest.approx(np.sqrt(1.36), abs=1e-14)
    assert sc.polar.rho(np.zeros(4)) == 1.0
    x = np.array([0.2, 0.3, 0.0, 0.0])
    assert sc.polar.S(x) == pytest.approx(-sc.oracle["E"] * 0.2 + 0.6 * 0.3)


def test_packet_initial_condition():
    sc = build("flat-nc-gaussian-packet", {"m": 1.0, "sigma0": 1.0})
    x = np.array([0.0, 0.7])
    expect = (2 * np.pi) ** -0.5 * np.exp(-0.7**2 / 2.0)
    assert sc.polar.rho(x) == pytest.approx(expect, rel=1e-14)
    assert sc.polar.S(x) == 0.0
    assert sc.oracle["sigma"](0.0) == pytest.approx(1.0)


def test_nontrivial_m_phi_value():
    sc = build("nc-nontrivial-M", {"M_t": 0.3})
    assert sc.oracle["Phi"] == pytest.approx(0.3, abs=1e-14)


@pytest.mark.parametrize("name", [n for n in sorted(REGISTRY) if not n.endswith("-hj")])
def test_analytic_derivatives_pass_fd_cross_check(name):
    sc = build(name)
    worst = validate_derivatives(sc, n_points=50, seed=2)
    assert worst, "expected derivative closures to be checked"
    for key, err in worst.items():
        assert err < 2e-6, f"{name}/{key}: {err:.3e}"


def test_packet_bohmian_oracle_brute_force_validation():
    # dense fixed-step integration of the guidance law with tiny steps must
    # reproduce x(t) = x0 sigma(t)/sigma0 before tests may rely on it
    sc = build("flat-nc-gaussian-packet")
    m = sc.params["m"]

    def rhs(t, y):
        return np.array([1.0, sc.polar.dS(y)[1] / m])

    t_grid = np.linspace(0.0, 5.0, 26)
    for x0 in (0.3, -0.6, 1.2):
        states = rk4_path(rhs, 0.0, np.array([0.0, x0]), t_grid)
        oracle = np.array([sc.oracle["bohmian_trajectory"](x0, t) for t in t_grid])
        assert np.max(np.abs(states[:, 1] - oracle) / np.abs(oracle)) < 1e-8


def test_curved_scenario_phase_solves_hj_exactly():
    import pilotwave.field_equations as feq
    sc = build("curved-diagonal")
    for x in sc.default_grid.points()[::5]:
        assert abs(feq.classical_hj_residual_rel(sc.background, sc.polar, x)) < 1e-13
        assert sc.oracle["W_prime"](x[1]) == pytest.approx(sc.polar.dS(x)[1])


def test_curved_scenario_volume_matches_cofactor_oracle():
    from oracles import cofactor_det
    from pilotwave.geometry import metric_data
    sc = build("curved-diagonal")
    for x in sc.default_grid.points()[::11]:
        md = metric_data(sc.background, x)
        assert abs(md.vol - np.sqrt(-cofactor_det(md.g))) < 1e-12


def test_scenario_checks_pass_their_own_tolerances():
    for name in ("minkowski-plane-wave", "flat-nc-plane-wave", "nc-nontrivial-M",
                 "curved-diagonal"):
        sc = build(name)
        pts = sc.default_grid.points()
        for check in sc.checks:
            rep = sc.run_check(check.name, pts)
            if check.mode == "max":
                assert rep.max_abs <= check.tolerance, (name, check.name, rep.max_abs)
            else:
                assert rep.max_abs > check.tolerance, (name, check.name, rep.max_abs)
