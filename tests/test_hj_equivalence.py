"""Old-vs-new equivalence of the hj-verify samples.

``tests/data/hj_parent.json`` holds the samples of all three hj-verify
reports (momentum, energy, pde) on two problem sets: the oscillator config
of the benchmark's hj-endpoint workload at seed 3, and the default grid of
``free-particle-hj``.  The data were recorded before each Newton step became
a product with a stored chord inverse (in place of a fresh LU solve), with

    PYTHONPATH=src python tests/test_hj_equivalence.py --regenerate

run from the root of the checkout.  Each recorded sample must be reproduced
to |new - old| <= 2e-8: the samples are central-difference slopes of the
extremal action, so the Newton-tolerance noise of each re-extremization is
amplified by 1/(2 fd_step); the largest change measured over the benchmark's
oscillator seeds 1-7 is 1.06e-8.  Starting each displaced solve from the
polynomial through the solves already made on its axis, in place of the base
extremal, moves the samples of seeds 1-10 by at most 1.2e-7 (seed 2, momentum,
where that seed's own samples reach 1.2e-7); against the recorded data the
worst gaps are 4.8e-9 (seed 3) and 2.1e-9 (free particle).
"""
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from pilotwave.action_principles import BoundaryValueProblem, verify_hj_relations
from pilotwave.scenarios import build

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "hj_parent.json")
ABS_TOL = 2e-8
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_params(seed):
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    import workloads
    return workloads.hj_endpoint(seed).commands[0].doc["scenario"]["params"]


CASES = {"harmonic-oscillator-hj/seed-3": ("harmonic-oscillator-hj", _benchmark_params(3)),
         "free-particle-hj/default": ("free-particle-hj", {})}


def hj_samples(name, params):
    """Every report's samples of hj-verify on the scenario's default grid."""
    sc = build(name, params)
    base = sc.bvp
    bvps = [BoundaryValueProblem(x0=base.x0, xf=[xf], lambda0=base.lambda0,
                                 lambdaf=float(lf), intervals=base.intervals)
            for xf, lf in sc.default_grid.points()]
    return {key: rep.values.tolist() for key, rep in verify_hj_relations(sc.system, bvps).items()}


def compute() -> dict:
    return {case: hj_samples(*args) for case, args in CASES.items()}


def _recorded():
    with open(DATA) as handle:
        return json.load(handle)


RECORDED = _recorded() if os.path.exists(DATA) else {}


def test_recorded_data_present():
    assert set(RECORDED) == set(CASES), f"no recorded samples at {DATA}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_hj_samples_match_recorded(case):
    new = hj_samples(*CASES[case])
    assert set(new) == set(RECORDED[case]) == {"momentum", "energy", "pde"}
    for key, old in RECORDED[case].items():
        gap = np.abs(np.asarray(new[key]) - np.asarray(old))
        assert gap.shape == (100,)
        assert gap.max() <= ABS_TOL, f"{case}/{key}: worst gap {gap.max():.3e}"


if __name__ == "__main__" and "--regenerate" in sys.argv:
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as handle:
        json.dump(compute(), handle, sort_keys=True, indent=0)
        handle.write("\n")
