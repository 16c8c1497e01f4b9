"""Command-line entry point.

Runs invariant suites, residual sweeps, trajectory integrations, frame
reductions and endpoint-derivative verifications from a single JSON config
document, writing CSV/JSON artifacts plus a manifest.

Exit status: 0 when every gate passes, 1 on a tolerance failure (the
failing report is named on stderr), 2 on a config error (with the field
named).

Output files (see FORMATS.md for the column dictionary):
  manifest.json        config hash plus the exact list of files written
  report_<name>.json   residual report (or .csv with --format csv)
  traj_<k>.csv         one file per trajectory seed

All writes are atomic (temp file + rename), iteration orders are fixed and
nothing is seeded from the clock, so identical configs produce
byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import scenarios as scen
from .dynamics import GuidanceField, integrate_trajectory
from .errors import BadParameter, ConfigError, PilotwaveError, UnknownScenario
from .nc_geometry import (NCBackground, ehat_identity_residual,
                          frame_identity_residuals, null_lift_residuals,
                          random_frame_background)
from .report import GridSpec, ResidualReport
from .scenarios import Scenario

COMMANDS = ("check", "residuals", "trajectories", "reduce", "hj-verify",
            "superposition-demo")

_EPILOG = """\
config document (JSON):
  scenario.name       registry scenario (required)
  scenario.params     parameter overrides (optional)
  command             optional; must match the subcommand when present
  grid.bounds         [[lo, hi], ...] per axis        (optional)
  grid.samples        [n, ...] per axis, each >= 2    (optional)
  trajectories        {seeds, span, steps, rtol, atol, tolerance}
  residuals           subset of check names for the residuals command
  reduce              {random_frames, seed, dim} extra frame sampling
  hj.fd_step          endpoint finite-difference step (default 1e-4)
  format, out         defaults for --format and --out (flags win)

CSV columns: reports are x0..x{D-1},value; trajectories are
lambda,X0..X{D-1},p0..p{D-1},constraint_residual; floats carry 17
significant digits.  See FORMATS.md.
"""


def _check_number(field: str, value, integer: bool = False, least: int = 2) -> None:
    """Require a finite positive number, or an integer >= least for a count."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(field, "must be an integer" if integer else "must be a number")
    if not (math.isfinite(value) and (value >= least if integer else value > 0)):
        raise ConfigError(field,
                          f"must be >= {least}" if integer else "must be positive and finite")


def _is_number_list(value, size: int | None = None) -> bool:
    """A list of finite numbers, of the given length if one is given."""
    return (isinstance(value, list) and all(map(scen.is_finite_real, value))
            and (size is None or len(value) == size))


@dataclass(frozen=True)
class RunConfig:
    scenario_name: str
    scenario_params: dict
    command: str | None
    grid: GridSpec | None
    trajectories: dict | None
    residuals: list | None
    reduce: dict | None
    hj_fd_step: float
    format: str | None
    out: str | None
    raw: dict

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        sc = doc.get("scenario")
        if sc is None:
            raise ConfigError("scenario", "missing")
        if not isinstance(sc, dict) or "name" not in sc:
            raise ConfigError("scenario.name", "missing")
        name = sc["name"]
        if not isinstance(name, str):
            raise ConfigError("scenario.name", "must be a string")
        params = sc.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("scenario.params", "must be an object")
        command = doc.get("command")
        if command is not None and command not in COMMANDS:
            raise ConfigError("command", f"must be one of {COMMANDS}")
        grid = None
        if "grid" in doc:
            gdoc = doc["grid"]
            if not isinstance(gdoc, dict) or "bounds" not in gdoc or "samples" not in gdoc:
                raise ConfigError("grid", "needs 'bounds' and 'samples'")
            if not (isinstance(gdoc["bounds"], list)
                    and all(_is_number_list(b, 2) for b in gdoc["bounds"])):
                raise ConfigError("grid.bounds", "must be a list of [lo, hi] number pairs")
            if not isinstance(gdoc["samples"], list):
                raise ConfigError("grid.samples", "must be a list of integers")
            for n in gdoc["samples"]:
                _check_number("grid.samples", n, integer=True)
            try:
                grid = GridSpec(tuple(tuple(b) for b in gdoc["bounds"]), tuple(gdoc["samples"]))
            except (TypeError, ValueError) as exc:
                raise ConfigError("grid", str(exc))
        traj = doc.get("trajectories")
        if traj is not None:
            if not isinstance(traj, dict):
                raise ConfigError("trajectories", "must be an object")
            if "seeds" in traj:
                seeds = traj["seeds"]
                if not isinstance(seeds, list) or not all(map(_is_number_list, seeds)):
                    raise ConfigError("trajectories.seeds", "must be a list of number lists")
                if grid is not None:
                    for i, s in enumerate(seeds):
                        if not grid.contains(s):
                            raise ConfigError(f"trajectories.seeds[{i}]",
                                              "seed outside grid bounds")
            if "span" in traj:
                span = traj["span"]
                if not _is_number_list(span, 2) or not span[1] > span[0]:
                    raise ConfigError("trajectories.span", "must be an increasing number pair")
            if "steps" in traj:
                _check_number("trajectories.steps", traj["steps"], integer=True)
            for key in ("rtol", "atol", "tolerance"):
                if key in traj:
                    _check_number(f"trajectories.{key}", traj[key])
        residuals = doc.get("residuals")
        if residuals is not None and (not isinstance(residuals, list)
                                      or not all(isinstance(r, str) for r in residuals)):
            raise ConfigError("residuals", "must be a list of check names")
        reduce_doc = doc.get("reduce")
        if reduce_doc is not None and not isinstance(reduce_doc, dict):
            raise ConfigError("reduce", "must be an object")
        for key, least in (("random_frames", 0), ("seed", 0), ("dim", 2)):
            if key in (reduce_doc or {}):
                _check_number(f"reduce.{key}", reduce_doc[key], integer=True, least=least)
        hj_doc = doc.get("hj", {})
        fd_step = hj_doc.get("fd_step", 1e-4) if isinstance(hj_doc, dict) else 1e-4
        _check_number("hj.fd_step", fd_step)
        fmt = doc.get("format")
        if fmt is not None and fmt not in ("csv", "json"):
            raise ConfigError("format", "must be 'csv' or 'json'")
        out = doc.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError("out", "must be a string path")
        known = {"scenario", "command", "grid", "trajectories", "residuals", "reduce",
                 "hj", "format", "out"}
        for key in doc:
            if key not in known:
                raise ConfigError(key, "unknown config field")
        return cls(scenario_name=name, scenario_params=params, command=command,
                   grid=grid, trajectories=traj, residuals=residuals,
                   reduce=reduce_doc, hj_fd_step=float(fd_step), format=fmt, out=out,
                   raw=doc)

    def hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------

def _worker_check(args):
    name, params, check_name, pts = args
    sc = scen.build(name, params)
    rep = sc.run_check(check_name, np.asarray(pts))
    return list(map(float, rep.values))


def _evaluate_check(sc: Scenario, check_name: str, points, jobs: int) -> ResidualReport:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if jobs <= 1 or pts.shape[0] < 4 * jobs:
        return sc.run_check(check_name, pts)
    chunks = np.array_split(np.arange(pts.shape[0]), jobs)
    payload = [(sc.name, sc.params, check_name, pts[idx].tolist()) for idx in chunks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_worker_check, payload))
    values = [v for chunk in results for v in chunk]
    return ResidualReport.from_samples(check_name, pts, values)


def _grid_points(sc: Scenario, cfg: RunConfig):
    grid = cfg.grid if cfg.grid is not None else sc.default_grid
    if grid is None:
        raise ConfigError("grid", f"scenario '{sc.name}' has no default grid")
    if sc.default_grid is not None and len(grid.bounds) != len(sc.default_grid.bounds):
        raise ConfigError("grid", f"has {len(grid.bounds)} axes, scenario '{sc.name}' "
                                  f"needs {len(sc.default_grid.bounds)}")
    return grid.points()


def _gate(report_max: float, tol: float, mode: str, scale: float) -> bool:
    if mode == "min":
        return report_max > tol / scale
    return report_max <= tol * scale


# ---------------------------------------------------------------------------
# command handlers: each returns (failures, {filename: text})
# ---------------------------------------------------------------------------

def _emit(files, failures, report: ResidualReport, fmt: str, tol: float, mode: str,
          scale: float) -> bool:
    """Render one report into ``files`` and gate it; a failure is recorded by name."""
    files[f"report_{report.name}.{fmt}"] = report.to_csv() if fmt == "csv" else report.to_json()
    passed = _gate(report.max_abs, tol, mode, scale)
    if not passed:
        failures.append(f"{report.name} (max_abs={report.max_abs:.3e}, tol={tol:.1e}, "
                        f"mode={mode})")
    return passed


def _run_field_checks(sc, cfg, fmt, jobs, scale, names=None):
    pts = _grid_points(sc, cfg)
    files = {}
    failures = []
    selected = sc.checks if names is None else [c for c in sc.checks if c.name in names]
    if names is not None:
        known = {c.name for c in sc.checks}
        for n in names:
            if n not in known:
                raise ConfigError("residuals", f"scenario has no check named '{n}'")
    for check in selected:
        rep = _evaluate_check(sc, check.name, pts, jobs)
        _emit(files, failures, rep, fmt, check.tolerance, check.mode, scale)
    return failures, files


def _emit_nc_identities(files, failures, sc, cfg, fmt, scale):
    """Frame, ehat and null-lift identity reports over the grid."""
    nc = sc.background
    points = _grid_points(sc, cfg)
    frame_vals, ehat_vals, lift_vals, vol_vals = [], [], [], []
    for p in points:
        frame_vals.append(max(frame_identity_residuals(nc, p).values()))
        ehat_vals.append(ehat_identity_residual(nc, p))
        res = null_lift_residuals(nc, p)
        lift_vals.append(max(res["product"], res["inverse_gap"]))
        vol_vals.append(res["volume_gap"])
    for name, vals, tol in (("frame-identities", frame_vals, 1e-10),
                            ("ehat-identity", ehat_vals, 1e-9),
                            ("null-lift-inverse", lift_vals, 1e-10),
                            ("null-lift-volume", vol_vals, 1e-10)):
        rep = ResidualReport.from_samples(name, points, vals)
        _emit(files, failures, rep, fmt, tol, "max", scale)


def cmd_check(sc, cfg, fmt, jobs, scale):
    if sc.kind == "hj-foundation":
        return cmd_hj_verify(sc, cfg, fmt, jobs, scale)
    failures, files = _run_field_checks(sc, cfg, fmt, jobs, scale)
    if isinstance(sc.background, NCBackground):
        _emit_nc_identities(files, failures, sc, cfg, fmt, scale)
    return failures, files


def cmd_residuals(sc, cfg, fmt, jobs, scale):
    names = cfg.residuals
    return _run_field_checks(sc, cfg, fmt, jobs, scale, names=names)


def cmd_trajectories(sc, cfg, fmt, jobs, scale):
    tcfg = cfg.trajectories or {}
    seeds = tcfg.get("seeds", [list(s) for s in sc.default_seeds])
    if not seeds:
        raise ConfigError("trajectories.seeds", "no seeds given and scenario has none")
    if sc.background is None:
        raise ConfigError("scenario.name", "trajectories needs a background and a field")
    for i, s in enumerate(seeds):
        if len(s) != sc.background.dim:
            raise ConfigError(f"trajectories.seeds[{i}]", f"needs {sc.background.dim} coordinates")
    span = tuple(tcfg.get("span", sc.default_span))
    steps = int(tcfg.get("steps", 51))
    rtol = float(tcfg.get("rtol", 1e-9))
    atol = float(tcfg.get("atol", 1e-12))
    tol = float(tcfg.get("tolerance", sc.trajectory_tolerance))
    gf = GuidanceField(background=sc.background, field=sc.polar)
    files = {}
    failures = []
    worst = 0.0
    for k, seed in enumerate(seeds):
        traj = integrate_trajectory(gf, seed, span, steps=steps, rtol=rtol, atol=atol)
        if fmt == "csv":
            files[f"traj_{k}.csv"] = traj.to_csv()
        else:
            files[f"traj_{k}.json"] = traj.to_json()
        worst = max(worst, float(np.max(np.abs(traj.constraint))))
    summary = ResidualReport.from_samples(
        "trajectory-constraint", [list(s) for s in seeds],
        [worst] * len(seeds))
    _emit(files, failures, summary, fmt, tol, "max", scale)
    return failures, files


def cmd_reduce(sc, cfg, fmt, jobs, scale):
    if not isinstance(sc.background, NCBackground):
        raise ConfigError("scenario.name", "reduce needs a newton-cartan scenario")
    files = {}
    failures = []
    _emit_nc_identities(files, failures, sc, cfg, fmt, scale)
    rdoc = cfg.reduce or {}
    n_random = int(rdoc.get("random_frames", 0))
    if n_random > 0:
        rng = np.random.default_rng(int(rdoc.get("seed", 0)))
        dim = int(rdoc.get("dim", sc.background.dim))
        vals = []
        x = np.zeros(dim)
        for _ in range(n_random):
            nc = random_frame_background(rng, dim)
            res = null_lift_residuals(nc, x)
            vals.append(max(max(frame_identity_residuals(nc, x).values()),
                            ehat_identity_residual(nc, x),
                            res["product"], res["inverse_gap"]))
        rep = ResidualReport.from_samples("random-frame-identities",
                                          np.zeros((n_random, dim)), vals)
        _emit(files, failures, rep, fmt, 1e-9, "max", scale)
    return failures, files


def cmd_hj_verify(sc, cfg, fmt, jobs, scale):
    from .action_principles import BoundaryValueProblem, verify_hj_relations

    if sc.kind != "hj-foundation":
        raise ConfigError("scenario.name", "hj-verify needs an hj-foundation scenario")
    base = sc.bvp
    bvps = []
    for xf, lf in _grid_points(sc, cfg):
        bvps.append(BoundaryValueProblem(x0=base.x0, xf=[xf], lambda0=base.lambda0,
                                         lambdaf=float(lf), intervals=base.intervals))
    reports = verify_hj_relations(sc.system, bvps, fd_step=cfg.hj_fd_step)
    gates = {"momentum": 5e-5, "energy": 5e-5, "pde": 1e-4}
    files = {}
    failures = []
    for key, rep in reports.items():
        _emit(files, failures, rep, fmt, gates[key], "max", scale)
    return failures, files


def cmd_superposition_demo(sc, cfg, fmt, jobs, scale):
    if sc.psi is None or sc.kind != "relativistic":
        raise ConfigError("scenario.name",
                          "superposition-demo needs a relativistic complex field")
    pts = _grid_points(sc, cfg)
    linear = _evaluate_check(sc, "linear-wave", pts, jobs)
    classical = _evaluate_check(sc, "classical-wave", pts, jobs)
    linear_tol, classical_floor = 1e-9, 1e-2
    files = {}
    failures = []
    linear_ok = _emit(files, failures, linear, fmt, linear_tol, "max", scale)
    classical_ok = _emit(files, failures, classical, fmt, classical_floor, "min", scale)
    doc = {
        "scenario": sc.name,
        "points": int(pts.shape[0]),
        "linear_max_abs": linear.max_abs,
        "linear_tolerance": linear_tol,
        "linear_pass": linear_ok,
        "classical_max_abs": classical.max_abs,
        "classical_floor": classical_floor,
        "classical_pass": classical_ok,
    }
    files["report_superposition_demo.json"] = json.dumps(doc, sort_keys=True, indent=1)
    return failures, files


HANDLERS = {
    "check": cmd_check,
    "residuals": cmd_residuals,
    "trajectories": cmd_trajectories,
    "reduce": cmd_reduce,
    "hj-verify": cmd_hj_verify,
    "superposition-demo": cmd_superposition_demo,
}


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_outputs(out_dir: str, command: str, cfg: RunConfig, files: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for name in sorted(files):
        data = files[name].encode()
        _atomic_write(os.path.join(out_dir, name), data)
        entries.append({"name": name,
                        "sha256": hashlib.sha256(data).hexdigest(),
                        "bytes": len(data)})
    manifest = {"command": command, "config_hash": cfg.hash(), "files": entries}
    _atomic_write(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, sort_keys=True, indent=1).encode())


def run(command: str, cfg: RunConfig, out_dir: str | None = None,
        fmt: str | None = None, jobs: int = 1, tolerance_scale: float = 1.0) -> int:
    """Dispatch one command; returns the process exit status.

    ``out_dir`` and ``fmt`` fall back to the config's own 'out'/'format'
    fields, then to 'out' and 'json'.
    """
    if cfg.command is not None and cfg.command != command:
        raise ConfigError("command", f"config says '{cfg.command}', invoked '{command}'")
    out_dir = out_dir if out_dir is not None else (cfg.out or "out")
    fmt = fmt if fmt is not None else (cfg.format or "json")
    sc = scen.build(cfg.scenario_name, cfg.scenario_params)
    failures, files = HANDLERS[command](sc, cfg, fmt, jobs, tolerance_scale)
    _write_outputs(out_dir, command, cfg, files)
    if failures:
        for f in failures:
            print(f"tolerance failure: {f}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pilotwave",
        description="Hamilton-Jacobi and pilot-wave numerics on relativistic "
                    "and Newton-Cartan backgrounds.",
        epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None,
                        help="output directory (default: config 'out' or ./out)")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for sweeps")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--tolerance-scale", type=float, default=1.0,
                        help="uniform tolerance relaxation factor for exploratory runs")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as handle:
            doc = json.load(handle)
    except OSError as exc:
        print(f"config error: cannot read '{args.config}': {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON at line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return 2
    try:
        cfg = RunConfig.from_dict(doc)
        return run(args.command, cfg, args.out, fmt=args.format, jobs=args.jobs,
                   tolerance_scale=args.tolerance_scale)
    except (ConfigError, UnknownScenario, BadParameter) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PilotwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
