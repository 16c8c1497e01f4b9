"""Named residual samples with JSON and CSV serialization, rendered from their arrays:
each column's distinct values are formatted once and gathered back, byte for byte."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult

Array = np.ndarray


def _json_list(items: list, depth: int) -> str:
    """Rendered items as a JSON list nested ``depth`` deep, laid out as json's indent=1."""
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]" if items else "[]"


def _columns(fmt: str, *arrays) -> tuple:
    """Each column of the arrays (1-D: one column) as a row-template slot and its entries: ``%s``
    and the ``fmt`` texts of its distinct bit patterns (-0.0 keeps its sign), or ``fmt``."""
    slots, cols = [], []
    for a in arrays:
        for col in np.atleast_2d(np.asarray(a, dtype=float).T):
            if 2 * np.count_nonzero(np.diff(np.sort(col.view(np.uint64)))) >= col.size:
                slots.append(fmt)  # mostly distinct: the row template formats each float
                cols.append(col.tolist())
            else:
                bits, inv = np.unique(col.view(np.uint64), return_inverse=True)
                slots.append("%s")  # each distinct value formatted once, gathered to its rows
                texts = np.array([fmt % v for v in bits.view(float).tolist()], dtype=object)
                cols.append(texts[inv].tolist())
    return slots, cols


def _json_floats(a, depth: int) -> list:
    """The entries (1-D) or rows (2-D) of a float array as items of a JSON list nested
    ``depth`` deep, each from one row template: repr of a float is what json writes."""
    slots, cols = _columns("%r", a)
    if np.ndim(a) > 1:
        return list(map(_json_list(slots, depth + 1).__mod__, zip(*cols)))
    return cols[0] if slots[0] == "%s" else ["%r" % v for v in cols[0]]


def _csv(header: list, *columns) -> str:
    """The header line, then one line per row of the stacked columns, floats as ``%.17g``."""
    slots, cols = _columns("%.17g", *columns)
    return "\n".join([",".join(header), *map(",".join(slots).__mod__, zip(*cols))]) + "\n"


@dataclass(frozen=True)
class ResidualReport:
    """Scalar defect samples of one equation over a set of points.

    ``values`` holds the absolute defect per point, so
    max_abs >= mean_abs >= 0 by construction.
    """

    name: str
    points: Array
    values: Array

    @classmethod
    def from_samples(cls, name: str, points, values) -> "ResidualReport":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.abs(np.asarray(values))
        if np.iscomplexobj(vals):
            vals = vals.real
        vals = np.asarray(vals, dtype=float)
        if pts.shape[0] != vals.shape[0]:
            raise ValueError("points and values disagree in length")
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise NonFiniteResult(f"report '{name}': value {vals[bad[0]]} at point "
                                  f"{pts[bad[0]].tolist()} is not finite")
        return cls(name=name, points=pts, values=vals)

    @property
    def max_abs(self) -> float:
        return float(np.max(self.values)) if self.values.size else 0.0

    @property
    def mean_abs(self) -> float:
        return float(np.mean(self.values)) if self.values.size else 0.0

    def to_json(self, point_text: dict | None = None) -> str:
        """The report as json.dumps(..., sort_keys=True, indent=1) would write it.
        Reports that share ``point_text`` render each grid, keyed by its bytes, once."""
        pts = np.asarray(self.points, dtype=float)
        cache, grid = {} if point_text is None else point_text, (pts.shape, pts.tobytes())
        if grid not in cache:  # sample text to its value, after the last's 8-character close
            cache[grid] = ['\n  },\n  {\n   "point": ' + row + ',\n   "value": '
                           for row in _json_floats(pts, 2)]
        parts = cache[grid] * 2
        parts[::2], parts[1::2] = cache[grid], _json_floats(self.values, 1)
        samples = "[\n  " + "".join(parts)[8:] + "\n  }\n ]" if parts else "[]"
        body = "".join(f' "{key}": {json.dumps(getattr(self, key))},\n'
                       for key in ("max_abs", "mean_abs", "name"))
        return "{\n" + body + f' "samples": {samples}\n}}'

    def to_csv(self) -> str:
        header = [f"x{i}" for i in range(self.points.shape[1])] + ["value"]
        return _csv(header, self.points, self.values)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid: per-axis bounds and sample counts."""

    bounds: tuple
    samples: tuple

    def __post_init__(self):
        if len(self.bounds) != len(self.samples):
            raise ValueError("bounds and samples must have equal length")
        for n in self.samples:
            if n < 2:
                raise ValueError("grid needs at least 2 samples per axis")
        for lo, hi in self.bounds:
            if not hi > lo:
                raise ValueError(f"grid bounds [{lo}, {hi}] are not increasing")

    def points(self) -> Array:
        """All grid points in deterministic row-major ('ij') order, (K, D)."""
        axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(self.bounds, self.samples)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        if p.size != len(self.bounds):
            return False
        return all(lo <= c <= hi for c, (lo, hi) in zip(p, self.bounds))

