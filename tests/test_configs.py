"""Each config in configs/ runs through the CLI and passes its gates as read
back from disk; the packet worldlines also match their closed form."""
import json
from pathlib import Path

import pytest

from pilotwave.cli import main
from pilotwave.scenarios import COMMAND_GATES, Check, build

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
# closed-form packet worldlines: relative error of the final position
PACKET_REL_TOL = 1e-4


def load(path):
    with open(path) as handle:
        return json.load(handle)


def test_every_workflow_has_a_config():
    assert sorted(load(p)["command"] for p in CONFIGS) == [
        "hj-verify", "hj-verify", "superposition-demo", "trajectories"]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_config_passes_its_gates(tmp_path, path):
    doc = load(path)
    out = tmp_path / "out"
    assert main([doc["command"], "--config", str(path), "--out", str(out)]) == 0
    sc = build(doc["scenario"]["name"], doc["scenario"].get("params"))
    gates = {**COMMAND_GATES, "trajectory-constraint": Check("trajectory-constraint",
                                                             sc.trajectory_tolerance)}
    names = [f["name"] for f in load(out / "manifest.json")["files"]]
    # every report but the superposition-demo summary carries one gated max_abs
    reports = [load(out / n) for n in names
               if n.startswith("report_") and n != "report_superposition_demo.json"]
    assert reports
    for rep in reports:
        gate = gates[rep["name"]]
        if gate.mode == "min":
            assert rep["max_abs"] > gate.tolerance, rep["name"]
        else:
            assert rep["max_abs"] <= gate.tolerance, rep["name"]
    if "bohmian_trajectory" in sc.oracle:
        for k, seed in enumerate(doc["trajectories"]["seeds"]):
            traj = load(out / f"traj_{k}.json")
            closed = sc.oracle["bohmian_trajectory"](seed[1], traj["lambda"][-1])
            assert abs(traj["X"][-1][1] - closed) / abs(closed) < PACKET_REL_TOL, k
