"""Counting and span wrappers installed around pilotwave from outside.

``Tracer.install()`` wraps every public function of each layer module and
every public method of the classes defined there.  A wrapped function is
patched at each place it is bound: the defining module, every other
pilotwave module that imported it by name, and the package namespace.
The scenario returned by ``scenarios.build`` also gets its field closures
and Lagrangian wrapped.  ``Tracer.restore()`` puts every original back.

A span's self time is its duration minus the time covered by the spans it
called.  The run is single-threaded, so one stack of open spans suffices.
Spans are aggregated as they close (calls, total and self time per
function) rather than stored one by one.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer name = module name; stencils is left out: no registry scenario uses it
LAYERS = ("geometry", "nc_geometry", "fields", "field_equations", "report",
          "scenarios", "dynamics", "integrators", "action_principles", "cli")
_POLAR = ("rho", "S", "drho", "d2rho", "dS", "d2S")
_COMPLEX = ("psi", "dpsi", "d2psi")


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield obj, attr, member


class Tracer:
    """Per-function call counts and per-layer self time, aggregated live."""

    def __init__(self):
        self.calls = Counter()              # "layer.function" -> calls
        self.total_s = defaultdict(float)   # "layer.function" -> wall time
        self.self_s = defaultdict(float)    # "layer.function" -> self time
        self._open = []                     # child time of each open span
        self._patches = []                  # (owner, name, original)

    def reset(self):
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    # -- wrappers ----------------------------------------------------------

    def span(self, key: str, fn):
        open_spans = self._open
        calls, total, own = self.calls, self.total_s, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = open_spans.pop()
                total[key] += dt
                own[key] += dt - child
                if open_spans:
                    open_spans[-1] += dt
        return wrapper

    def count(self, key: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise

    def _install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "pilotwave" or n.startswith("pilotwave.")]
        for layer in LAYERS:
            module = sys.modules[f"pilotwave.{layer}"]
            for owner, name, fn in list(_public_functions(module)):
                if inspect.isclass(owner):
                    key = f"{layer}.{owner.__name__}.{name}"
                    self._patch(owner, name, self.span(key, fn))
                    continue
                inner = fn
                if layer == "scenarios" and name == "build":
                    inner = self._instrumented_build(fn)
                wrapped = self.span(f"{layer}.{name}", inner)
                # every binding of the original, under any name
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, bound, wrapped)

    def _instrumented_build(self, build):
        def instrumented(name, params=None):
            return self._instrument_scenario(build(name, params))
        return instrumented

    def _instrument_scenario(self, sc):
        changes = {}
        if sc.polar is not None:
            changes["polar"] = dataclasses.replace(sc.polar, **{
                n: self.span("fields.closure", getattr(sc.polar, n)) for n in _POLAR})
        if sc.psi is not None:
            changes["psi"] = dataclasses.replace(sc.psi, **{
                n: self.span("fields.closure", getattr(sc.psi, n)) for n in _COMPLEX})
        if sc.system is not None:
            changes["system"] = dataclasses.replace(
                sc.system, lagrangian=self.count("action_principles.lagrangian",
                                                 sc.system.lagrangian))
        return dataclasses.replace(sc, **changes)

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
