"""Fingerprint every artifact the CLI writes, one line per run.

Run from the root of a checkout, with no arguments:

    python3 tests/artifact_matrix.py > matrix.txt

It runs, through ``pilotwave.cli.main`` in this process:

- every registry scenario x every command x json and csv, with the
  ``residuals`` command given every check of its scenario;
- the commands of the four benchmark workloads (``perfbench/workloads.py``:
  nc-sweep, worldlines, rel-sweep and hj-endpoint) at seeds 3 and 7;
- ``check`` and ``reduce`` on ``nc-nontrivial-M`` at ``M_t`` 1e7 and 1e300
  and at ``M_x`` 1e5, where round-off and overflow are at stake;
- ``reduce`` on ``flat-nc-plane-wave`` with 25 random frames of seed 4 at
  ``reduce.dim`` 2, 3 and 10, the only runs that draw random frames;
- ``check`` and ``trajectories`` on ``minkowski-plane-wave`` with charge
  ``q`` 0.5 and gauge covector ``a``, the only runs through a gauged
  Minkowski background;
- ``residuals`` with one check on ``curved-diagonal`` (classical-hj),
  ``minkowski-superposition`` (linear-wave) and ``flat-nc-gaussian-packet``
  (nc-quantum-hj), the runs that read only part of a grid's fields;
- ``hj-verify`` on ``harmonic-oscillator-hj`` at ``hj.fd_step`` 1e-2,
  where the displaced solves start farthest from their solutions.

Each line holds the run's label, its exit code, its stderr and the sha256
of every file it wrote, so two checkouts whose outputs are identical give
identical text: compare them with ``diff``.  Pytest does not collect this
file; it takes about 11 s and prints 123 lines.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from pilotwave import cli
from pilotwave.scenarios import REGISTRY, build
import workloads

SEEDS = (3, 7)
PARAMS = ({"M_t": 1e7}, {"M_t": 1e300}, {"M_x": 1e5})
FRAME_DIMS = (2, 3, 10)
GAUGED = {"q": 0.5, "a": [0.1, 0.2, -0.1, 0.05]}
SINGLE_CHECKS = (("curved-diagonal", "classical-hj"), ("minkowski-superposition", "linear-wave"),
                 ("flat-nc-gaussian-packet", "nc-quantum-hj"))
WIDE_HJ_STEP = {"fd_step": 1e-2}


def runs():
    """(label, command, config document, format) of every run, in a fixed order."""
    for name in sorted(REGISTRY):
        checks = [c.name for c in build(name).checks]
        for command in cli.COMMANDS:
            doc = {"scenario": {"name": name}}
            if command == "residuals" and checks:
                doc["residuals"] = checks
            for fmt in ("json", "csv"):
                yield f"{name} {command} {fmt}", command, doc, fmt
    for workload in ("nc-sweep", "worldlines", "rel-sweep", "hj-endpoint"):
        for seed in SEEDS:
            for i, cmd in enumerate(workloads.WORKLOADS[workload](seed).commands):
                yield f"{workload} seed={seed} #{i}", cmd.command, cmd.doc, "json"
    for params in PARAMS:
        doc = {"scenario": {"name": "nc-nontrivial-M", "params": params}}
        for command in ("check", "reduce"):
            yield f"nc-nontrivial-M {json.dumps(params)} {command}", command, doc, "json"
    for dim in FRAME_DIMS:
        doc = {"scenario": {"name": "flat-nc-plane-wave"},
               "reduce": {"random_frames": 25, "seed": 4, "dim": dim}}
        yield f"flat-nc-plane-wave reduce {json.dumps(doc['reduce'])}", "reduce", doc, "json"
    doc = {"scenario": {"name": "minkowski-plane-wave", "params": GAUGED}}
    for command in ("check", "trajectories"):
        yield f"minkowski-plane-wave {json.dumps(GAUGED)} {command}", command, doc, "json"
    for name, check in SINGLE_CHECKS:
        doc = {"scenario": {"name": name}, "residuals": [check]}
        yield f"{name} residuals {check}", "residuals", doc, "json"
    doc = {"scenario": {"name": "harmonic-oscillator-hj"}, "hj": WIDE_HJ_STEP}
    yield f"harmonic-oscillator-hj hj-verify {json.dumps(WIDE_HJ_STEP)}", "hj-verify", doc, "json"


def fingerprint(tmp, i, command, doc, fmt):
    """Exit code, stderr and {relative path: sha256} of one CLI run."""
    config, out = os.path.join(tmp, f"{i}.json"), os.path.join(tmp, f"out{i}")
    with open(config, "w") as handle:
        json.dump(doc, handle)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", config, "--out", out, "--format", fmt])
    files = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, out)] = hashlib.sha256(handle.read()).hexdigest()
    return code, err.getvalue(), dict(sorted(files.items()))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, command, doc, fmt) in enumerate(runs()):
            code, err, files = fingerprint(tmp, i, command, doc, fmt)
            shas = " ".join(f"{name}={sha}" for name, sha in files.items())
            print(f"{label} | exit={code} | stderr={json.dumps(err)} | {shas}", flush=True)


if __name__ == "__main__":
    main()
