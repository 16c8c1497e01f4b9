"""Old-vs-new equivalence of the guidance velocities and the worldlines trajectories.

``tests/data/guidance_parent.json`` holds:

- ``guidance_velocity_nc`` on ``make_wavy_nc()`` (charge 0.4, a varying
  frame, Abar != 0 and phi != 0) with ``make_wavy_polar()``, at 20 seeded
  points; no registry trajectory scenario has a charged Newton-Cartan
  background, so this is where the q A term of the row is pinned;
- ``guidance_velocity_rel`` on ``make_wavy_rel()`` (charge 0.3) with the
  same field, at the same points;
- every array of the six trajectories of the benchmark's worldlines
  workload at seed 3, integrated as ``trajectories`` integrates them.

The data were recorded before each guidance-velocity row checked its point
once and read each closure once, with

    PYTHONPATH=src python tests/test_guidance_equivalence.py --regenerate

run from the root of the checkout.  Each recorded value must be reproduced
bit for bit.
"""
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from pilotwave.cli import RunConfig
from pilotwave.dynamics import (GuidanceField, guidance_velocity_nc, guidance_velocity_rel,
                                integrate_trajectory)
from pilotwave.scenarios import build
from conftest import make_wavy_nc, make_wavy_polar, make_wavy_rel

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "guidance_parent.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
POINTS = np.random.default_rng(21).uniform(-0.8, 0.8, size=(20, 2))
VELOCITIES = {"nc/wavy": (guidance_velocity_nc, make_wavy_nc),
              "rel/wavy": (guidance_velocity_rel, make_wavy_rel)}


def _worldline_docs():
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    import workloads
    return [command.doc for command in workloads.worldlines(3).commands]


def velocities(case):
    law, background = VELOCITIES[case]
    bg, f = background(), make_wavy_polar()
    return [law(bg, f, x).tolist() for x in POINTS]


def trajectories():
    """Every trajectory of the worldlines workload at seed 3, keyed scenario/seed index."""
    out = {}
    for doc in _worldline_docs():
        cfg = RunConfig.from_dict(doc)
        sc = build(cfg.scenario_name, cfg.scenario_params)
        tcfg = cfg.trajectories
        gf = GuidanceField(background=sc.background, field=sc.polar)
        for k, seed in enumerate(tcfg["seeds"]):
            traj = integrate_trajectory(gf, seed, tcfg["span"] or sc.default_span,
                                        steps=tcfg["steps"], rtol=tcfg["rtol"],
                                        atol=tcfg["atol"])
            out[f"{sc.name}/{k}"] = {"lambda": traj.lambdas.tolist(),
                                     "X": traj.points.tolist(), "p": traj.momenta.tolist(),
                                     "constraint": traj.constraint.tolist()}
    return out


def compute() -> dict:
    return {"velocities": {case: velocities(case) for case in VELOCITIES},
            "trajectories": trajectories()}


def _recorded():
    with open(DATA) as handle:
        return json.load(handle)


RECORDED = _recorded() if os.path.exists(DATA) else {}


def _same_bits(new, old):
    return np.asarray(new, dtype=float).tobytes() == np.asarray(old, dtype=float).tobytes()


def test_recorded_data_present():
    assert set(RECORDED) == {"velocities", "trajectories"}, f"no recorded values at {DATA}"
    assert set(RECORDED["velocities"]) == set(VELOCITIES)
    assert len(RECORDED["trajectories"]) == 6


@pytest.mark.parametrize("case", sorted(VELOCITIES))
def test_guidance_velocities_match_recorded(case):
    old = RECORDED["velocities"][case]
    assert len(old) == len(POINTS)
    for x, new, recorded in zip(POINTS, velocities(case), old):
        assert _same_bits(new, recorded), f"{case} at {x.tolist()}: {new} vs {recorded}"


def test_worldlines_match_recorded():
    new = trajectories()
    assert set(new) == set(RECORDED["trajectories"])
    for name, arrays in RECORDED["trajectories"].items():
        for key, old in arrays.items():
            assert _same_bits(new[name][key], old), f"{name}/{key}"


if __name__ == "__main__" and "--regenerate" in sys.argv:
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as handle:
        json.dump(compute(), handle, sort_keys=True, indent=0)
        handle.write("\n")
