"""Determinism self-test of the benchmark.

For every workload: two traced runs with one seed must report identical
counts, and a run with a second seed must pass every check with the same
work units.  The counts fixed by the structure of the code must hold for
both seeds.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every property holds and 1 otherwise, naming each failure.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1
OTHER_SEED = 2
COUNT_UNITS = ("count", "calls/point", "calls/sample", "calls/problem", "bytes")
# counts set by the structure of the code, the same for every workload seed
STRUCTURAL = {
    "nc-sweep": {"nc_geometry.derive_nc.per_point": 11},
    "worldlines": {"integrators.integrate_adaptive.calls": 300},
    "hj-endpoint": {"action_principles.extremize.calls": 900},
}


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"],
                          cwd=os.path.dirname(HERE), capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    return json.loads(lines[-1]), meta


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        first, meta = traced_run(workload, SEED)
        again, _ = traced_run(workload, SEED)
        other, other_meta = traced_run(workload, OTHER_SEED)
        for label, result in (("first", first), ("repeat", again), ("other seed", other)):
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload}: {label} run failed its checks")
        if counts(first) != counts(again):
            diff = sorted(k for k in counts(first) if counts(first)[k] != counts(again).get(k))
            failures.append(f"{workload}: counts differ between same-seed runs: {diff}")
        if meta["units"] != other_meta["units"] \
                or first["metrics"]["report.samples"] != other["metrics"]["report.samples"]:
            failures.append(f"{workload}: work units depend on the seed")
        for name, expected in STRUCTURAL.get(workload, {}).items():
            for label, result in (("seed", first), ("other seed", other)):
                if result["metrics"][name]["value"] != expected:
                    failures.append(f"{workload}: {name} = {result['metrics'][name]['value']} "
                                    f"with the {label}, expected {expected}")
        print(f"{workload}: checked seeds {SEED} (twice) and {OTHER_SEED}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
