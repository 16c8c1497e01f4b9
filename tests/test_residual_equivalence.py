"""Old-vs-new equivalence of every public residual and every registry check.

``tests/data/residuals_parent.json`` holds signed values (real and
imaginary parts) of each public residual in ``pilotwave.field_equations``,
the ``*_printed`` variants included, and of the reference quantities that
moved from there to ``oracles.py``, at 40 points on the wavy backgrounds
of ``conftest.py``, plus the values of every registry check run through
``Scenario.run_check`` on a subsample of its default grid.  The data were
recorded before the residuals were rebuilt on shared kernels, with

    PYTHONPATH=src python tests/test_residual_equivalence.py --regenerate

run from the root of the checkout.  Each recorded value must be reproduced
to |new - old| <= 1e-13 max(1, |old|).
"""
import json
import os
import sys

import numpy as np
import pytest

import pilotwave.field_equations as feq
from pilotwave.fields import complex_view
from pilotwave.scenarios import REGISTRY, build
import oracles
from conftest import make_wavy_nc, make_wavy_polar, make_wavy_rel

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "residuals_parent.json")
REL_TOL = 1e-13
N_POINTS = 40
GRID_SUBSAMPLE = 12

REL_POLAR = ("momentum_covector", "classical_hj_residual_rel", "ensemble_current",
             "continuity_residual_rel", "quantum_potential_rel",
             "quantum_potential_rel_printed", "quantum_hj_residual_rel")
REL_COMPLEX = ("linear_kg_residual", "classical_field_residual",
               "classical_field_residual_printed")
NC_POLAR = ("nc_momentum_covector", "nc_classical_hj_forms", "nc_classical_hj_residual",
            "nc_quantum_potential", "nc_quantum_hj_residual", "nc_continuity_residual",
            "nc_classical_action_density_polar")
NC_COMPLEX = ("nc_schrodinger_residual", "nc_classical_action_density_complex_printed")


def _flat(value):
    """Signed real and imaginary parts of a scalar, vector or pair."""
    arr = np.atleast_1d(np.asarray(value, dtype=complex)).ravel()
    return [float(v) for c in arr for v in (c.real, c.imag)]


def _points():
    return np.random.default_rng(2018).uniform(-0.8, 0.8, size=(N_POINTS, 2))


def compute() -> dict:
    """Every recorded value, keyed by case name."""
    rel, nc, polar = make_wavy_rel(), make_wavy_nc(), make_wavy_polar()
    cf = complex_view(polar)
    pts = _points()
    out = {}
    for names, bg, field in ((REL_POLAR, rel, polar), (REL_COMPLEX, rel, cf),
                             (NC_POLAR, nc, polar), (NC_COMPLEX, nc, cf)):
        for name in names:
            fn = getattr(feq, name, None) or getattr(oracles, name)
            out[name] = [_flat(fn(bg, field, p)) for p in pts]
    out["classical_field_equation_report"] = [
        rep.values.tolist() for _, rep in
        sorted(oracles.classical_field_equation_report(rel, cf, pts).items())]
    out["nc_classical_action_equivalence_report"] = \
        oracles.nc_classical_action_equivalence_report(nc, polar, pts).values.tolist()
    for sc_name in sorted(REGISTRY):
        sc = build(sc_name)
        if not sc.checks:
            continue
        grid = sc.default_grid.points()
        sub = grid[np.linspace(0, len(grid) - 1, min(GRID_SUBSAMPLE, len(grid))).astype(int)]
        for check in sc.checks:
            out[f"{sc_name}/{check.name}"] = sc.run_check(check.name, sub).values.tolist()
    return out


def _recorded():
    with open(DATA) as handle:
        return json.load(handle)


RECORDED = _recorded() if os.path.exists(DATA) else {}


@pytest.fixture(scope="module")
def current():
    return compute()


def test_recorded_data_present():
    assert RECORDED, f"no recorded values at {DATA}"


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_matches_recorded(case, current):
    old = np.asarray(RECORDED[case], dtype=float)
    new = np.asarray(current[case], dtype=float)
    assert new.shape == old.shape
    gap = np.abs(new - old)
    bound = REL_TOL * np.maximum(1.0, np.abs(old))
    assert np.all(gap <= bound), f"{case}: worst gap {gap.max():.3e}"


if __name__ == "__main__" and "--regenerate" in sys.argv:
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as handle:
        json.dump(compute(), handle, sort_keys=True, indent=0)
        handle.write("\n")
