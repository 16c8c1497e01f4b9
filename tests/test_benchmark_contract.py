"""The engine keeps the contract the benchmark in perfbench/ relies on.

Each workload runs once, shrunk (small grids, one trajectory seed, a 2x2
hj grid), under the benchmark's own tracer.  Every per-layer counter the
benchmark requires for that workload must be nonzero, derive_nc must run
the number of times per grid point that perfbench/selftest.py pins,
integrate_adaptive the number of times per trajectory sample it pins,
extremize the number of times per endpoint problem it pins, and tracing must leave every pilotwave binding as it found it.  The bounds the
benchmark re-checks its artifacts against are those of the CLI gate table
and of the configs test.
"""
import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from pilotwave.scenarios import COMMAND_GATES
from test_configs import PACKET_REL_TOL

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))   # run.py and selftest.py import workloads
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("run")
selftest = _load("selftest")
spans = _load("spans")


def _shrink(command):
    doc = dict(command.doc)
    name = doc["scenario"]["name"]
    if command.command == "trajectories":
        doc["trajectories"] = dict(doc["trajectories"], seeds=doc["trajectories"]["seeds"][:1])
        return dataclasses.replace(command, doc=doc, points=command.points // len(
            command.doc["trajectories"]["seeds"]))
    grid = {"flat-nc-gaussian-packet": {"bounds": [[0.0, 5.0], [-4.0, 4.0]], "samples": [4, 4]},
            "minkowski-superposition": dict(doc.get("grid", {}), samples=[2, 2, 2, 2]),
            "curved-diagonal": dict(doc.get("grid", {}), samples=[4, 4]),
            "harmonic-oscillator-hj": {"bounds": [[0.2, 1.1], [0.8, 1.7]], "samples": [2, 2]}}
    doc["grid"] = grid[name]
    points = 1
    for n in doc["grid"]["samples"]:
        points *= n
    return dataclasses.replace(command, doc=doc, points=points)


@pytest.mark.parametrize("name", list(bench.wl_mod.WORKLOADS))
def test_traced_workload_keeps_the_benchmark_contract(tmp_path, name):
    full = bench.wl_mod.WORKLOADS[name](1)
    workload = dataclasses.replace(full, commands=tuple(map(_shrink, full.commands)))
    runner = bench.Runner(workload, str(tmp_path))
    before = bench._bindings()
    tracer = spans.Tracer()
    with tracer:
        _, _, tallies = runner.iterate()
    assert bench._bindings() == before, "tracing left a pilotwave binding patched"
    assert runner.failed == 0 and not runner.errors
    layer_self = {layer: tracer.layer_self_s(layer) for layer in spans.LAYERS}
    metrics = bench.layer_metrics(workload, dict(tracer.calls), dict(tracer.total_s),
                                  layer_self, dict(tracer.self_s), tallies, 1.0, 1.0)
    for counter, loads in bench.EXERCISED.items():
        if name in loads:
            assert metrics[counter] != 0, counter
    if name == "nc-sweep":
        for counter, expected in selftest.STRUCTURAL[name].items():
            assert metrics[counter] == expected, counter
    if name in ("worldlines", "hj-endpoint"):
        # one integrate_adaptive call per output interval, and 9 extremize
        # calls per endpoint problem: the pin scales with the samples or
        # problems the shrunk run keeps (102 of 306, 4 of 100)
        for counter, expected in selftest.STRUCTURAL[name].items():
            assert metrics[counter] == expected * workload.units / full.units, counter


def test_benchmark_rechecks_the_cli_gates():
    hj = {name: c.tolerance for name, c in COMMAND_GATES.items() if name.startswith("hj-")}
    assert all(COMMAND_GATES[name].mode == "max" for name in hj)
    assert bench.wl_mod.HJ_GATES == hj
    assert bench.wl_mod.PACKET_REL_TOL == PACKET_REL_TOL
