"""pilotwave benchmark: CLI workloads timed end to end, and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nc-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each run drives ``pilotwave.cli.run`` in-process, serially, with one job.
Every iteration runs all commands of the workload into a fresh directory
under ``.perfbench_tmp/`` and checks exit status, manifest bytes (equal
to the first iteration's), gates and closed-form oracles, and the work
units read back from the artifacts.  The first iteration is a warm-up:
checked, not timed.  Every timed command is followed by a fixed reference
block, and its time is rescaled to the host speed the benchmark was
defined at (see README.md, "Host speed").

With ``--trace 0`` the last line of output reports the end-to-end metrics
(units_per_s, setup_s, peak_rss_mb).  With ``--trace 1`` it reports the
per-layer counts and self times of two traced iterations, which must give
identical counts.  The last line is one JSON object with the keys
correct, attempted, failed and metrics.  ``--workload all`` runs every
workload in its own interpreter and prints one table instead.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from time import perf_counter

import numpy as np

import workloads as wl_mod

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
SETUP_PROBES = 7
MIN_TIMED = 3
REFERENCE_ROUNDS = 6000
# Typical time of one reference block on the machine where the benchmark
# was defined: a shared 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7,
# numpy 2.4.6.  It only converts reference blocks back to seconds.
REFERENCE_S = 0.15

# Per-layer counters and the workloads on which each must be nonzero.  A
# zero here means a binding of the wrapped function was left unpatched.
EXERCISED = {
    "nc_geometry.derive_nc.calls": ("nc-sweep", "worldlines"),
    "nc_geometry.derive_nc_partials.calls": ("nc-sweep", "worldlines"),
    "geometry.metric_inverse.calls": ("rel-sweep", "worldlines"),
    "fields.closure_calls": ("nc-sweep", "rel-sweep", "worldlines"),
    "field_equations.calls": ("nc-sweep", "rel-sweep", "worldlines"),
    "report.samples": ("nc-sweep", "rel-sweep", "worldlines", "hj-endpoint"),
    "scenarios.run_check.calls": ("nc-sweep", "rel-sweep"),
    "dynamics.rhs_evals": ("worldlines",),
    "dynamics.constraint.calls": ("worldlines",),
    "integrators.integrate_adaptive.calls": ("worldlines",),
    "integrators.rk45_step.calls": ("worldlines",),
    "action_principles.extremize.calls": ("hj-endpoint",),
    "action_principles.endpoint_derivatives.calls": ("hj-endpoint",),
    "action_principles.lagrangian_evals": ("hj-endpoint",),
    "cli.bytes_written": ("nc-sweep", "rel-sweep", "worldlines", "hj-endpoint"),
}


def import_pilotwave():
    """Import pilotwave from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "pilotwave", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: no pilotwave sources at {init}")
    sys.path.insert(0, SRC)
    import pilotwave
    if os.path.realpath(pilotwave.__file__) != os.path.realpath(init):
        raise SystemExit(f"perfbench: imported pilotwave from {pilotwave.__file__}")


class Runner:
    """Runs and checks the commands of one workload, tallying failures."""

    def __init__(self, workload, tmp_dir):
        from pilotwave import cli, scenarios
        self.cli = cli
        self.workload = workload
        self.tmp_dir = tmp_dir
        # reference scenarios for the oracles, built before any tracing
        self.scenarios = [scenarios.build(c.doc["scenario"]["name"],
                                          c.doc["scenario"].get("params"))
                          for c in workload.commands]
        self.manifests = [None] * len(workload.commands)
        self.attempted = 0
        self.failed = 0
        self.iterations = 0
        self.errors = []

    def iterate(self, reference=None):
        """One pass over the workload.

        Returns the time of each command, the time of ``reference()`` run
        right after each command (when given), and the tallies read back.
        """
        times, refs = [], []
        tallies = Counter()
        for i, (cmd, sc) in enumerate(zip(self.workload.commands, self.scenarios)):
            out = os.path.join(self.tmp_dir, f"it{self.iterations}-{i}")
            problems = []
            self.attempted += 1
            gc.collect()
            t0 = perf_counter()
            try:
                status = self.cli.run(cmd.command, self.cli.RunConfig.from_dict(cmd.doc),
                                      out_dir=out, fmt="json", jobs=1)
            except Exception:
                status = None
                problems.append(traceback.format_exc())
            times.append(perf_counter() - t0)
            if reference is not None:
                refs.append(reference())
            if status is not None:
                try:
                    problems += self._check(i, cmd, sc, out, status, tallies)
                except Exception:
                    problems.append(traceback.format_exc())
            shutil.rmtree(out, ignore_errors=True)
            if problems:
                self.failed += 1
                print(f"perfbench: {self.workload.name} {cmd.command} "
                      f"{cmd.doc['scenario']['name']}: " + "; ".join(problems),
                      file=sys.stderr)
        self.iterations += 1
        return times, refs, tallies

    def _check(self, i, cmd, sc, out, status, tallies):
        if status != 0:
            return [f"exit status {status}"]
        with open(os.path.join(out, "manifest.json"), "rb") as handle:
            manifest = handle.read()
        if self.manifests[i] is None:
            self.manifests[i] = manifest
        problems = [] if manifest == self.manifests[i] else ["manifest differs"]
        found, samples = wl_mod.check_artifacts(cmd, sc, out)
        problems += found
        tallies["samples"] += samples
        tallies["bytes"] += sum(os.path.getsize(os.path.join(out, n)) for n in os.listdir(out))
        return problems

    def error(self, message):
        """A check of the run as a whole failed (not one command)."""
        self.errors.append(message)
        print(f"perfbench: {message}", file=sys.stderr)


def measure_setup(workload):
    """Set-up times of fresh interpreters, each with the reference block after it."""
    docs = json.dumps([c.doc for c in workload.commands])
    probe = os.path.join(HERE, "setup_probe.py")
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, docs], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
        refs.append(reference_block())
    return times, refs


def at_reference_speed(times, refs):
    """Each time rescaled by the reference block timed right after it."""
    return [t * REFERENCE_S / r for t, r in zip(times, refs)]


def reference_block():
    """Seconds taken by fixed work that shares no code with pilotwave.

    Small-matrix numpy calls and Python arithmetic, the mix the engine
    runs per point.  Timed right after each iteration, it tracks how fast
    the shared host is running at that moment.
    """
    base = np.array([[1.0, 0.2, 0.1], [0.0, 1.0, 0.3], [0.1, 0.0, 1.0]])
    acc = 0.0
    t0 = perf_counter()
    for r in range(REFERENCE_ROUNDS):
        m = base + np.array([[0.0, 0.0, 0.0], [r * 1e-6, 0.0, 0.0], [0.0, 0.0, 0.0]])
        inv = np.linalg.inv(m)
        v = inv @ np.array([1.0, float(r), 0.5])
        acc += float(np.linalg.det(m)) + float(np.einsum("ab,ba->", inv, np.outer(v, v)))
    elapsed = perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("reference block produced a non-finite sum")
    return elapsed


def timed_loop(runner, budget_s, min_timed):
    """Warm-up, then timed iterations while the budget lasts.

    Returns the wall time of each timed iteration and its time at the
    reference host speed, the sum of its commands' rescaled times.
    """
    start = perf_counter()
    runner.iterate()
    walls, scaled = [], []
    while True:
        spent = perf_counter() - start
        if len(walls) >= min_timed and spent + statistics.median(walls) > budget_s:
            break
        times, refs, _ = runner.iterate(reference_block)
        walls.append(sum(times))
        scaled.append(sum(at_reference_speed(times, refs)))
    return walls, scaled


def run_untraced(workload, runner, seconds):
    setup_times, setup_refs = measure_setup(workload)
    walls, scaled = timed_loop(runner, seconds, MIN_TIMED)
    setup_scaled = at_reference_speed(setup_times, setup_refs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "units_per_s": {"value": workload.units / statistics.median(scaled),
                        "unit": "units/s"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return metrics, {"timed_iterations": len(walls), "setup_probes": SETUP_PROBES,
                     "wall_units_per_s": workload.units / statistics.median(walls),
                     "wall_setup_s": statistics.median(setup_times),
                     "iteration_s": walls, "reference_iteration_s": scaled,
                     "setup_s": setup_times, "reference_setup_s": setup_scaled}


def _bindings():
    """Identity of every callable bound in a pilotwave module or class."""
    owners = [mod for name, mod in sys.modules.items()
              if name == "pilotwave" or name.startswith("pilotwave.")]
    owners += [cls for mod in owners for cls in vars(mod).values()
               if isinstance(cls, type) and cls.__module__.startswith("pilotwave")]
    return {(id(owner), attr): id(value)
            for owner in owners for attr, value in vars(owner).items() if callable(value)}


def run_traced(workload, runner, seconds):
    from spans import LAYERS, Tracer
    times, _ = timed_loop(runner, seconds / 2.0, 1)
    untraced = statistics.median(times)
    before = _bindings()
    snapshots = []
    tracer = Tracer()
    with tracer:
        for _ in range(2):
            tracer.reset()
            t0 = perf_counter()
            _, _, tallies = runner.iterate()
            wall = perf_counter() - t0
            snapshots.append((dict(tracer.calls), dict(tracer.total_s),
                              {layer: tracer.layer_self_s(layer) for layer in LAYERS},
                              dict(tracer.self_s), tallies, wall))
    if _bindings() != before:
        runner.error("tracing left a pilotwave binding patched")
    if snapshots[0][0] != snapshots[1][0]:
        runner.error("two traced iterations gave different counts")
    metrics = [layer_metrics(workload, *snap, untraced) for snap in snapshots]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    merged = {}
    for name, unit in declared.items():
        merged[name] = {"value": statistics.median(m[name] for m in metrics), "unit": unit}
    for name, loads in EXERCISED.items():
        if workload.name in loads and merged[name]["value"] == 0:
            runner.error(f"{name} is 0 on {workload.name}")
    return merged, {"untraced_iterations": len(times), "traced_iterations": 2,
                    "counts": snapshots[0][0]}


def layer_metrics(workload, calls, total_s, layer_self, key_self, tallies, wall, untraced):
    points = sum(c.points for c in workload.commands)
    samples = sum(c.points for c in workload.commands if c.command == "trajectories")
    problems = sum(c.points for c in workload.commands if c.command == "hj-verify")
    feq_calls = sum(v for k, v in calls.items() if k.startswith("field_equations."))
    closure = calls.get("fields.closure", 0)
    lagrangian = calls.get("action_principles.lagrangian", 0)

    def per(n, base):
        return n / base if base else 0.0

    return {
        "nc_geometry.derive_nc.calls": calls.get("nc_geometry.derive_nc", 0),
        "nc_geometry.derive_nc.per_point": per(calls.get("nc_geometry.derive_nc", 0), points),
        "nc_geometry.derive_nc_partials.calls": calls.get("nc_geometry.derive_nc_partials", 0),
        "nc_geometry.self_s": layer_self["nc_geometry"],
        "geometry.metric_inverse.calls": calls.get("geometry.metric_inverse", 0),
        "geometry.metric_inverse.per_point": per(calls.get("geometry.metric_inverse", 0), points),
        "geometry.self_s": layer_self["geometry"],
        "fields.closure_calls": closure,
        "fields.closure_calls_per_point": per(closure, points),
        "fields.self_s": layer_self["fields"],
        "field_equations.calls": feq_calls,
        "field_equations.self_s": layer_self["field_equations"],
        "field_equations.us_per_eval": per(1e6 * layer_self["field_equations"], feq_calls),
        "report.sweep_self_s": key_self.get("report.sweep", 0.0),
        "report.render_s": (total_s.get("report.ResidualReport.to_json", 0.0)
                            + total_s.get("report.ResidualReport.to_csv", 0.0)),
        "report.samples": tallies["samples"],
        "scenarios.build_s": total_s.get("scenarios.build", 0.0),
        "scenarios.run_check.calls": calls.get("scenarios.Scenario.run_check", 0),
        "dynamics.rhs_evals": calls.get("dynamics.GuidanceField.velocity", 0),
        "dynamics.rhs_per_sample": per(calls.get("dynamics.GuidanceField.velocity", 0), samples),
        "dynamics.constraint.calls": calls.get("dynamics.GuidanceField.constraint_residual", 0),
        "dynamics.self_s": layer_self["dynamics"],
        "integrators.integrate_adaptive.calls": calls.get("integrators.integrate_adaptive", 0),
        "integrators.rk45_step.calls": calls.get("integrators.rk45_step", 0),
        "integrators.self_s": layer_self["integrators"],
        "action_principles.extremize.calls": calls.get("action_principles.extremize", 0),
        "action_principles.endpoint_derivatives.calls":
            calls.get("action_principles.endpoint_derivatives", 0),
        "action_principles.lagrangian_evals": lagrangian,
        "action_principles.lagrangian_per_problem": per(lagrangian, problems),
        "action_principles.self_s": layer_self["action_principles"],
        "cli.self_s": layer_self["cli"],
        "cli.bytes_written": tallies["bytes"],
        "trace.overhead_ratio": wall / untraced,
    }


def metadata(workload, extra):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "workload": workload.name, "seed": workload.seed,
            "units": workload.units, "unit": workload.unit, **extra}


def run_one(args):
    import_pilotwave()
    workload = wl_mod.WORKLOADS[args.workload](args.seed)
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_ROOT)
    try:
        runner = Runner(workload, tmp_dir)
        if args.trace:
            metrics, extra = run_traced(workload, runner, args.seconds)
        else:
            metrics, extra = run_untraced(workload, runner, args.seconds)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    failed_frac = runner.failed / runner.attempted
    print(f"workload {workload.name} seed {workload.seed}: {workload.units} "
          f"{workload.unit} per iteration")
    for name, m in metrics.items():
        print(f"  {name:46s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':46s} {failed_frac:.6g} fraction "
          f"({runner.failed} of {runner.attempted} command invocations)")
    print("meta " + json.dumps(metadata(workload, extra), sort_keys=True))
    correct = runner.failed == 0 and not runner.errors
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))


def run_all(args):
    """Every workload in its own interpreter, summarized in one table."""
    rows = []
    for name in wl_mod.WORKLOADS:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited {done.returncode}")
        lines = done.stdout.strip().splitlines()
        meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
        rows.append((name, json.loads(lines[-1]), meta))
    names = list(rows[0][1]["metrics"])
    print(f"{'metric':46s} " + " ".join(f"{n:>18s}" for n, _, _ in rows))
    print(f"{'work unit':46s} " + " ".join(f"{m['unit']:>18s}" for _, _, m in rows))
    for metric in names:
        unit = rows[0][1]["metrics"][metric]["unit"]
        print(f"{metric + ' [' + unit + ']':46s} "
              + " ".join(f"{r['metrics'][metric]['value']:18.6g}" for _, r, _ in rows))
    print(f"{'failed_frac [fraction]':46s} "
          + " ".join(f"{r['failed'] / r['attempted']:18.6g}" for _, r, _ in rows))
    if not all(r["correct"] for _, r, _ in rows):
        raise SystemExit("perfbench: some workload failed its checks")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl_mod.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
