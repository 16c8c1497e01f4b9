"""The four pinned workloads and the checks run on their artifacts.

A workload is a list of CLI commands, each a (command, config document)
pair.  The workload seed draws scenario parameters and trajectory start
points from ranges on which every gate passes; it never changes a grid,
a seed count or a sample count, so the work units of a workload are the
same for every seed.

Each workload exercises a different part of the engine:

  nc-sweep     the bulk Newton-Cartan residual path (nc_geometry, fields,
               field_equations, report).
  rel-sweep    the only bulk user of the Lorentzian geometry and of the
               relativistic and complex-field residuals.
  worldlines   guidance trajectories (dynamics, integrators), which call
               the geometry and field closures one point at a time.
  hj-endpoint  action re-extremization (action_principles) only; it never
               touches the geometry or residual layers.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# gates of cmd_hj_verify, re-checked here from the artifacts
HJ_GATES = {"hj-endpoint-momentum": 5e-5, "hj-endpoint-energy": 5e-5, "hj-pde": 1e-4}
# closed-form packet worldlines, same bound as the tier-1 packet test
PACKET_REL_TOL = 1e-4
TRAJ_SAMPLES = 51


@dataclass(frozen=True)
class Command:
    command: str
    doc: dict
    points: int          # distinct evaluation points (grid points, samples, problems)
    reports: int         # residual report files the command must write

    @property
    def units(self) -> int:
        """Verified work of one run: point-reports for a check, else points."""
        return self.points * self.reports if self.command == "check" else self.points


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple
    unit: str

    @property
    def units(self) -> int:
        """Verified work per iteration."""
        return sum(c.units for c in self.commands)


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _packet_params(rng):
    return {"m": _u(rng, 0.8, 1.25), "sigma0": _u(rng, 0.9, 1.2)}


def nc_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    doc = {"scenario": {"name": "flat-nc-gaussian-packet", "params": _packet_params(rng)}}
    # 3 residual checks + 4 Newton-Cartan identity reports on the default 50x50 grid
    cmd = Command("check", doc, points=2500, reports=7)
    return Workload("nc-sweep", seed, (cmd,), unit="point-reports")


def rel_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    sup = {"scenario": {"name": "minkowski-superposition", "params": {
               "m": _u(rng, 0.9, 1.1),
               "k1": [_u(rng, 0.4, 0.8), 0.0, 0.0],
               "k2": [_u(rng, -1.0, -0.6), 0.0, 0.0],
               "a2": _u(rng, 0.5, 0.8)}},
           "grid": {"bounds": [[0.0, 3.0], [0.0, 3.0], [-0.5, 0.5], [-0.5, 0.5]],
                    "samples": [10, 10, 3, 3]}}
    curved = {"scenario": {"name": "curved-diagonal", "params": {
                  "a": _u(rng, 0.03, 0.07), "E": _u(rng, 1.2, 1.4),
                  "rho_profile": "conserved"}},
              "grid": {"bounds": [[0.0, 5.0], [-2.4, 2.4]], "samples": [50, 50]}}
    cmds = (Command("check", sup, points=900, reports=4),
            Command("check", curved, points=2500, reports=2))
    return Workload("rel-sweep", seed, cmds, unit="point-reports")


def worldlines(seed: int) -> Workload:
    rng = random.Random(seed)
    # start points keep |x0| >= 0.2: the packet oracle is a relative error in x
    signs = (1.0, -1.0, 1.0, -1.0, 1.0)
    packet_seeds = [[0.0, s * _u(rng, 0.2, 1.0)] for s in signs]
    packet = {"scenario": {"name": "flat-nc-gaussian-packet", "params": _packet_params(rng)},
              "trajectories": {"seeds": packet_seeds, "steps": TRAJ_SAMPLES}}
    curved = {"scenario": {"name": "curved-diagonal", "params": {
                  "a": _u(rng, 0.03, 0.07), "E": _u(rng, 1.2, 1.4)}},
              "trajectories": {"seeds": [[0.0, _u(rng, -1.5, -0.5)]], "steps": TRAJ_SAMPLES}}
    cmds = (Command("trajectories", packet, points=5 * TRAJ_SAMPLES, reports=1),
            Command("trajectories", curved, points=TRAJ_SAMPLES, reports=1))
    return Workload("worldlines", seed, cmds, unit="trajectory-samples")


def hj_endpoint(seed: int) -> Workload:
    rng = random.Random(seed)
    # omega * lambda_f stays below pi on the default grid (lambda_f <= 1.7)
    doc = {"scenario": {"name": "harmonic-oscillator-hj", "params": {
               "m": _u(rng, 0.8, 1.2), "omega": _u(rng, 0.8, 1.2)}}}
    cmd = Command("hj-verify", doc, points=100, reports=3)
    return Workload("hj-endpoint", seed, (cmd,), unit="endpoint-problems")


WORKLOADS = {"nc-sweep": nc_sweep, "rel-sweep": rel_sweep,
             "worldlines": worldlines, "hj-endpoint": hj_endpoint}


# ---------------------------------------------------------------------------
# artifact checks
# ---------------------------------------------------------------------------

def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as handle:
        return json.load(handle)


def _gate_ok(max_abs, check):
    if check.mode == "min":
        return max_abs > check.tolerance
    return max_abs <= check.tolerance


def check_artifacts(cmd: Command, sc, out_dir: str) -> tuple[list, dict]:
    """Verify one command's artifacts against its gates and oracles.

    ``sc`` is the scenario built from the same config.  The work units
    read back from disk must equal ``cmd.units``.  Returns the list of
    problems found and the number of report samples on disk.
    """
    problems = []
    manifest = _load(out_dir, "manifest.json")
    names = [f["name"] for f in manifest["files"]]
    reports = [n for n in names if n.startswith("report_")]
    if len(reports) != cmd.reports:
        problems.append(f"{len(reports)} report files, expected {cmd.reports}")
    samples = 0
    units = 0
    hj_lengths = []
    checks = {c.name: c for c in sc.checks}
    for name in reports:
        rep = _load(out_dir, name)
        n = len(rep["samples"])
        samples += n
        if cmd.command == "check":
            units += n
            if n != cmd.points:
                problems.append(f"{name}: {n} samples, expected {cmd.points}")
            check = checks.get(rep["name"])
            if check is not None and not _gate_ok(rep["max_abs"], check):
                problems.append(f"{name}: max_abs {rep['max_abs']:.3e} fails {check}")
        elif cmd.command == "hj-verify":
            hj_lengths.append(n)
            if n != cmd.points or rep["max_abs"] > HJ_GATES[rep["name"]]:
                problems.append(f"{name}: {n} samples, max_abs {rep['max_abs']:.3e}")
    if cmd.command == "trajectories":
        seeds = cmd.doc["trajectories"]["seeds"]
        oracle = sc.oracle.get("bohmian_trajectory")
        for k, seed in enumerate(seeds):
            traj = _load(out_dir, f"traj_{k}.json")
            lam, xs = traj["lambda"], traj["X"]
            units += len(lam)
            if len(lam) != TRAJ_SAMPLES:
                problems.append(f"traj_{k}: {len(lam)} samples")
            worst = max(abs(c) for c in traj["constraint_residual"])
            if worst > sc.trajectory_tolerance:
                problems.append(f"traj_{k}: constraint {worst:.3e}")
            if oracle is not None:
                rel = max(abs(x[1] - oracle(seed[1], t)) / abs(oracle(seed[1], t))
                          for t, x in zip(lam, xs))
                if not rel < PACKET_REL_TOL:
                    problems.append(f"traj_{k}: closed-form relative error {rel:.3e}")
    if hj_lengths:
        # an endpoint problem is verified once all three reports carry it
        units = min(hj_lengths)
    if units != cmd.units:
        problems.append(f"{units} work units on disk, expected {cmd.units}")
    return problems, samples
