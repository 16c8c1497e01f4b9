"""Command-line entry point.

Runs invariant suites, residual sweeps, trajectory integrations, frame
reductions and endpoint-derivative verifications from a single JSON config
document, writing CSV/JSON artifacts plus a manifest.

Exit status: 0 when every gate passes, 1 on a tolerance failure (the
failing report is named on stderr) or an engine failure such as an
overflow, 2 on a config error (with the field named).

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
import os
import sys
import tempfile
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import scenarios as scen
from .dynamics import GuidanceField, integrate_trajectory
from .errors import ConfigError, NonFiniteResult, PilotwaveError
from .geometry import BackgroundRel, evaluate_named, metric_data
from .nc_geometry import (NCBackground, derive_nc, ehat_identity_residual,
                          frame_identity_residuals, null_lift_residuals,
                          random_frame_background)
from .report import GridSpec, ResidualReport
from .scenarios import COMMAND_GATES, Check, Scenario

COMMANDS = ("check", "residuals", "trajectories", "reduce", "hj-verify",
            "superposition-demo")

_EPILOG = """\
config document (JSON); unknown keys are rejected at every level:
  scenario.name           registry scenario (required)
  scenario.params         overrides, each of its default's kind (optional)
  command                 optional; must match the subcommand when present
  grid.bounds             [[lo, hi], ...] per axis           (optional,
  grid.samples            [n, ...] per axis, each >= 2        both or neither)
  trajectories.seeds      start points (default: the scenario's)
  trajectories.span       [lambda0, lambda1] (default: the scenario's)
  trajectories.steps      output samples per seed, >= 2 (default 51)
  trajectories.rtol       integrator relative tolerance (default 1e-9)
  trajectories.atol       integrator absolute tolerance (default 1e-12)
  trajectories.tolerance  constraint gate (default: the scenario's)
  residuals               non-empty subset of check names for the residuals command
  reduce.random_frames    extra random frames to check (default 0)
  reduce.seed             their generator seed (default 0)
  reduce.dim              their dimension, 2..10 (default: the scenario's)
  hj.fd_step              endpoint finite-difference step (default 1e-4)
  format                  default for --format, json (the flag wins)
  out                     default for --out, ./out (the flag wins)

CSV columns: reports are x0..x{D-1},value; trajectories are
lambda,X0..X{D-1},p0..p{D-1},constraint_residual; floats carry 17
significant digits.  See FORMATS.md.

gates the commands apply on top of the scenario's checks, one per report name
(--tolerance-scale relaxes them):
""" + "".join(f"  {c.name:<24}max_abs {'>' if c.mode == 'min' else '<='} {c.tolerance!r}\n"
              for c in COMMAND_GATES.values()) + """\
null-lift-inverse gates max |gamma gamma_inv - 1| and the gap to a numerical
inverse, max |gamma_inv - inv(gamma)|, divided by max(1, max |gamma_inv|) at
each point.
"""

# Every config field: a section maps key -> (kind, default), and a nested
# dict is a sub-section.  Kinds are those of ``scenarios.check_value``; a
# None default means not given (a scenario default applies where there is one).
FIELDS = {
    "scenario": {"name": (tuple(scen.REGISTRY), None), "params": ("object", {})},
    "command": (COMMANDS, None),
    "grid": {"bounds": (["span"], None), "samples": (["count"], None)},
    "trajectories": {"seeds": (["vector"], None), "span": ("span", None),
                     "steps": ("count", 51), "rtol": ("positive", 1e-9),
                     "atol": ("positive", 1e-12), "tolerance": ("positive", None)},
    "residuals": (["string"], None),
    "reduce": {"random_frames": ("index", 0), "seed": ("index", 0), "dim": ("frame-dim", None)},
    "hj": {"fd_step": ("positive", 1e-4)},
    "format": (("csv", "json"), "json"),
    "out": ("string", "out"),
}


def _resolve_fields(doc, fields, prefix=""):
    """Check one config object against its declared fields and fill in defaults;
    a null at the top level counts as not given."""
    scen.check_value(prefix[:-1] or "<root>", doc, "object")
    for key in doc:
        if key not in fields:
            raise ConfigError(prefix + key, "unknown config field")
    out = {}
    for key, spec in fields.items():
        given = key in doc and (doc[key] is not None or bool(prefix))
        if isinstance(spec, dict):
            out[key] = _resolve_fields(doc[key] if given else {}, spec, f"{prefix}{key}.")
        else:
            kind, default = spec
            out[key] = scen.check_value(prefix + key, doc[key], kind) if given else default
    return out


@dataclass(frozen=True)
class RunConfig:
    """A checked config document with every default filled in."""

    scenario_name: str
    scenario_params: dict
    command: str | None
    grid: GridSpec | None
    trajectories: dict
    residuals: list | None
    reduce: dict
    hj: dict
    format: str
    out: str
    raw: dict

    @classmethod
    def from_dict(cls, doc) -> "RunConfig":
        values = _resolve_fields(doc, FIELDS)
        scenario = values.pop("scenario")
        if scenario["name"] is None:
            raise ConfigError("scenario.name", "missing")
        grid = values.pop("grid")
        if "grid" not in doc:
            grid = None
        elif grid["bounds"] is None or grid["samples"] is None:
            raise ConfigError("grid", "needs 'bounds' and 'samples'")
        else:
            try:
                grid = GridSpec(tuple(map(tuple, grid["bounds"])), tuple(grid["samples"]))
            except ValueError as exc:
                raise ConfigError("grid", str(exc))
            for i, s in enumerate(values["trajectories"]["seeds"] or ()):
                if not grid.contains(s):
                    raise ConfigError(f"trajectories.seeds[{i}]", "seed outside grid bounds")
        return cls(scenario_name=scenario["name"], scenario_params=scenario["params"],
                   grid=grid, raw=doc, **values)

    def hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------

def _grid_points(sc: Scenario, cfg: RunConfig):
    grid = cfg.grid if cfg.grid is not None else sc.default_grid
    if grid is None:
        raise ConfigError("grid", f"scenario '{sc.name}' has no default grid")
    if sc.default_grid is not None and len(grid.bounds) != len(sc.default_grid.bounds):
        raise ConfigError("grid", f"has {len(grid.bounds)} axes, scenario '{sc.name}' "
                                  f"needs {len(sc.default_grid.bounds)}")
    return grid.points()


def _grid_geometry(sc: Scenario, pts):
    """What the checks of a grid read: the one MetricData bundle of a Lorentzian
    grid, shared by every check, or else the points."""
    if not isinstance(sc.background, BackgroundRel):
        return pts
    return evaluate_named("geometry bundle", partial(metric_data, sc.background), pts)


# ---------------------------------------------------------------------------
# command handlers: each renders its artifacts into, and gates them through, one Run
# ---------------------------------------------------------------------------

@dataclass
class Run:
    """One command's settings (format, tolerance scale) and results (filename ->
    text, one line per failed gate)."""

    fmt: str
    scale: float
    files: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    point_text: dict = field(default_factory=dict)  # grid -> point text, shared by reports

    def add(self, stem: str, artifact, *json_args) -> None:
        """Render a report or trajectory as ``<stem>.<fmt>``."""
        self.files[f"{stem}.{self.fmt}"] = (artifact.to_csv() if self.fmt == "csv"
                                            else artifact.to_json(*json_args))

    def gate(self, report: ResidualReport, check: Check) -> bool:
        """Render ``report`` and gate it by ``check``, whose tolerance the scale
        multiplies ('max') or divides ('min'); a failure is recorded by name
        with the limit that was applied."""
        self.add(f"report_{report.name}", report, self.point_text)
        if check.mode == "min":
            limit = check.tolerance / self.scale
            passed = report.max_abs > limit
        else:
            limit = check.tolerance * self.scale
            passed = report.max_abs <= limit
        if not passed:
            self.failures.append(f"{report.name} (max_abs={report.max_abs:.3e}, "
                                 f"tol={limit:.1e}, mode={check.mode})")
        return passed


def _run_field_checks(sc, cfg, run, names=None):
    """Gate the scenario's checks (or the named subset) on its grid, each one
    residual call on the grid's points or on its Lorentzian geometry bundle."""
    pts = _grid_points(sc, cfg)
    for name in names or ():
        scen.check_value("residuals", name, tuple(c.name for c in sc.checks))
    grid = _grid_geometry(sc, pts)
    for check in sc.checks:
        if names is None or check.name in names:
            run.gate(sc.run_check(check.name, grid), check)


def _identity_values(nc, x) -> dict:
    """The Newton-Cartan identity defects at x (points or their NCDerived) by gate name."""
    lift = null_lift_residuals(nc, x)
    return {"frame-identities": np.max(list(frame_identity_residuals(nc, x).values()), axis=0),
            "ehat-identity": ehat_identity_residual(nc, x),
            "null-lift-inverse": np.maximum(lift["product"], lift["inverse_gap"]),
            "null-lift-volume": lift["volume_gap"]}


def _gate_nc_identities(sc, cfg, run):
    """Frame, ehat and null-lift identity reports over the grid."""
    points = _grid_points(sc, cfg)
    identities = evaluate_named("identity gates", partial(_identity_values, sc.background), points)
    for name, values in identities.items():
        run.gate(ResidualReport.from_samples(name, points, values), COMMAND_GATES[name])


def cmd_check(sc, cfg, run):
    if sc.kind == "hj-foundation":
        return cmd_hj_verify(sc, cfg, run)
    _run_field_checks(sc, cfg, run)
    if isinstance(sc.background, NCBackground):
        _gate_nc_identities(sc, cfg, run)


def cmd_residuals(sc, cfg, run):
    if not sc.checks:
        raise ConfigError("scenario.name", f"residuals needs a scenario with field checks; "
                                           f"'{sc.name}' has none")
    _run_field_checks(sc, cfg, run, names=cfg.residuals)


def cmd_trajectories(sc, cfg, run):
    tcfg = cfg.trajectories
    seeds = [list(s) for s in sc.default_seeds] if tcfg["seeds"] is None else tcfg["seeds"]
    if not seeds:
        raise ConfigError("trajectories.seeds", "no seeds given and scenario has none")
    if sc.background is None:
        raise ConfigError("scenario.name", "trajectories needs a background and a field")
    for i, s in enumerate(seeds):
        if len(s) != sc.background.dim:
            raise ConfigError(f"trajectories.seeds[{i}]", f"needs {sc.background.dim} coordinates")
    span = tcfg["span"] or sc.default_span
    tol = tcfg["tolerance"] or sc.trajectory_tolerance
    gf = GuidanceField(background=sc.background, field=sc.polar)
    worst = []
    for k, seed in enumerate(seeds):
        try:
            traj = integrate_trajectory(gf, seed, span, steps=tcfg["steps"], rtol=tcfg["rtol"],
                                        atol=tcfg["atol"])
        except NonFiniteResult as exc:
            raise NonFiniteResult(f"trajectory {k} from {seed}: {exc}") from exc
        run.add(f"traj_{k}", traj)
        worst.append(float(np.max(np.abs(traj.constraint))))
    summary = ResidualReport.from_samples("trajectory-constraint", seeds, worst)
    run.gate(summary, Check("trajectory-constraint", tol))


def cmd_reduce(sc, cfg, run):
    if not isinstance(sc.background, NCBackground):
        raise ConfigError("scenario.name", "reduce needs a newton-cartan scenario")
    _gate_nc_identities(sc, cfg, run)
    n_random = cfg.reduce["random_frames"]
    if n_random > 0:
        seed, dim = cfg.reduce["seed"], cfg.reduce["dim"] or sc.background.dim
        rng, vals = np.random.default_rng(seed), []
        for i in range(n_random):
            nc = random_frame_background(rng, dim)
            try:  # one frame solve serves every identity
                ids = _identity_values(nc, derive_nc(nc, np.zeros(dim)))
            except ArithmeticError as exc:
                raise NonFiniteResult(f"reduce random frame {i} (reduce.seed {seed}): "
                                      f"{type(exc).__name__}: {exc}") from exc
            vals.append(max(ids["frame-identities"], ids["ehat-identity"],
                            ids["null-lift-inverse"]))
        rep = ResidualReport.from_samples("random-frame-identities",
                                          np.zeros((n_random, dim)), vals)
        run.gate(rep, COMMAND_GATES[rep.name])


def cmd_hj_verify(sc, cfg, run):
    from .action_principles import BoundaryValueProblem, verify_hj_relations

    if sc.kind != "hj-foundation":
        raise ConfigError("scenario.name", "hj-verify needs an hj-foundation scenario")
    base, fd_step = sc.bvp, cfg.hj["fd_step"]
    pts = _grid_points(sc, cfg)
    # the displaced problems end at lambda_f - fd_step, which must still exceed lambda_0
    if not np.all(pts[:, -1] - fd_step > base.lambda0):
        raise ConfigError("grid", f"every lambda_f must exceed lambda_0 + hj.fd_step "
                                  f"= {base.lambda0} + {fd_step}")
    bvps = [BoundaryValueProblem(x0=base.x0, xf=[xf], lambda0=base.lambda0,
                                 lambdaf=float(lf), intervals=base.intervals) for xf, lf in pts]
    for rep in verify_hj_relations(sc.system, bvps, fd_step=fd_step).values():
        run.gate(rep, COMMAND_GATES[rep.name])


def cmd_superposition_demo(sc, cfg, run):
    if sc.psi is None or sc.kind != "relativistic":
        raise ConfigError("scenario.name",
                          "superposition-demo needs a relativistic complex field")
    pts = _grid_points(sc, cfg)
    grid = _grid_geometry(sc, pts)
    linear, classical = sc.run_check("linear-wave", grid), sc.run_check("classical-wave", grid)
    linear_gate, classical_gate = COMMAND_GATES["linear-wave"], COMMAND_GATES["classical-wave"]
    linear_ok = run.gate(linear, linear_gate)
    classical_ok = run.gate(classical, classical_gate)
    doc = {
        "scenario": sc.name,
        "points": int(pts.shape[0]),
        "linear_max_abs": linear.max_abs,
        "linear_tolerance": linear_gate.tolerance,
        "linear_pass": linear_ok,
        "classical_max_abs": classical.max_abs,
        "classical_floor": classical_gate.tolerance,
        "classical_pass": classical_ok,
    }
    run.files["report_superposition_demo.json"] = json.dumps(doc, sort_keys=True, indent=1)


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
    """Dispatch one command in this process; returns the process exit status.

    ``out_dir`` and ``fmt`` fall back to the config's own 'out'/'format'
    fields, whose defaults are 'out' and 'json'.  A numpy overflow, division
    by zero or invalid operation raises where it happens and ends as a
    BadParameter while the scenario is built, a NonFiniteResult after; in a
    check or a grid's geometry bundle, one that names the first failing point.

    Every check runs in this process.  ``jobs`` accepts only 1 (anything else
    is a ConfigError naming '--jobs'); the keyword stays only because
    ``perfbench/run.py`` passes ``jobs=1``, and goes once the benchmark stops
    passing it (ROADMAP item 1).
    """
    if cfg.command is not None and cfg.command != command:
        raise ConfigError("command", f"config says '{cfg.command}', invoked '{command}'")
    scen.check_value("--tolerance-scale", tolerance_scale, "positive")
    if jobs != 1:
        raise ConfigError("--jobs", f"{jobs!r} is not 1: every check runs in this process")
    out_dir = out_dir if out_dir is not None else cfg.out
    state = Run(fmt if fmt is not None else cfg.format, tolerance_scale)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        sc = scen.build(cfg.scenario_name, cfg.scenario_params)
        try:
            HANDLERS[command](sc, cfg, state)
        except ArithmeticError as exc:
            raise NonFiniteResult(f"{command} on '{sc.name}': {type(exc).__name__}: {exc}") from exc
    _write_outputs(out_dir, command, cfg, state.files)
    for f in state.failures:
        print(f"tolerance failure: {f}", file=sys.stderr)
    return 1 if state.failures else 0


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
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--tolerance-scale", type=float, default=1.0,
                        help="positive tolerance relaxation factor for exploratory runs")
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
        return run(args.command, cfg, args.out, fmt=args.format,
                   tolerance_scale=args.tolerance_scale)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PilotwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
