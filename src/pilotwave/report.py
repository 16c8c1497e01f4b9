"""Named residual samples with JSON and CSV serialization."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult

Array = np.ndarray


def format_float(v: float) -> str:
    """Fixed 17-significant-digit rendering used in CSV output."""
    return f"{float(v):.17g}"


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

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "max_abs": self.max_abs,
            "mean_abs": self.mean_abs,
            "samples": [
                {"point": list(map(float, p)), "value": float(v)}
                for p, v in zip(self.points, self.values)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)

    def to_csv(self) -> str:
        dim = self.points.shape[1]
        header = ",".join([f"x{i}" for i in range(dim)] + ["value"])
        lines = [header]
        for p, v in zip(self.points, self.values):
            lines.append(",".join([format_float(c) for c in p] + [format_float(v)]))
        return "\n".join(lines) + "\n"


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

