import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pilotwave
import pilotwave.cli as cli
from pilotwave.cli import FIELDS, RunConfig, main, run
from pilotwave.errors import ConfigError
from pilotwave.scenarios import COMMAND_GATES, build


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as handle:
        return json.load(handle)


def test_missing_scenario_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"bounds": [[0, 1]], "samples": [2]}})
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "scenario" in err


def test_malformed_grid_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"name": "minkowski-plane-wave"},
                                  "grid": {"bounds": [[0, 1]], "samples": [1]}})
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "grid" in capsys.readouterr().err


def test_unknown_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"name": "minkowski-plane-wave"},
                                  "bogus": 1})
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_seed_outside_grid_exits_2(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": {"name": "flat-nc-plane-wave"},
        "grid": {"bounds": [[0, 1], [0, 1]], "samples": [2, 2]},
        "trajectories": {"seeds": [[5.0, 5.0]]},
    })
    assert main(["trajectories", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_command_mismatch_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"name": "minkowski-plane-wave"},
                                  "command": "reduce"})
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_unknown_scenario_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"name": "no-such-thing"}})
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "no-such-thing" in capsys.readouterr().err


def test_bad_parameter_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"name": "minkowski-plane-wave",
                                               "params": {"m": -2.0}}})
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_config_level_format_and_out(tmp_path):
    out = str(tmp_path / "from-config")
    cfg = write_config(tmp_path, {"scenario": {"name": "minkowski-plane-wave"},
                                  "residuals": ["classical-hj"],
                                  "format": "csv", "out": out})
    assert main(["residuals", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(out, "report_classical-hj.csv"))


def test_check_plane_wave_passes(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"name": "minkowski-plane-wave"}})
    out = str(tmp_path / "out")
    assert main(["check", "--config", cfg, "--out", out]) == 0
    manifest = read_manifest(out)
    names = {f["name"] for f in manifest["files"]}
    assert "report_classical-hj.json" in names
    with open(os.path.join(out, "report_classical-hj.json")) as handle:
        rep = json.load(handle)
    assert rep["max_abs"] < 1e-9
    # manifest enumerates exactly the files written
    on_disk = {n for n in os.listdir(out) if n != "manifest.json"}
    assert names == on_disk


def test_superposition_demo_dichotomy(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"name": "minkowski-superposition"}})
    out = str(tmp_path / "out")
    assert main(["superposition-demo", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "report_superposition_demo.json")) as handle:
        doc = json.load(handle)
    assert doc["linear_max_abs"] < 1e-9
    assert doc["classical_max_abs"] > 1e-2
    assert doc["linear_pass"] and doc["classical_pass"]


def test_trajectories_write_per_seed_files(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"name": "flat-nc-gaussian-packet"},
                                  "trajectories": {"steps": 11}})
    out = str(tmp_path / "out")
    assert main(["trajectories", "--config", cfg, "--out", out, "--format", "csv"]) == 0
    for k in range(5):
        path = os.path.join(out, f"traj_{k}.csv")
        assert os.path.exists(path)
        with open(path) as handle:
            header = handle.readline().strip().split(",")
        assert header == ["lambda", "X0", "X1", "p0", "p1", "constraint_residual"]


def test_trajectory_tolerance_failure_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"name": "flat-nc-gaussian-packet"},
                                  "trajectories": {"steps": 11, "tolerance": 1e-30}})
    out = str(tmp_path / "out")
    assert main(["trajectories", "--config", cfg, "--out", out]) == 1
    assert "trajectory-constraint" in capsys.readouterr().err


def test_tolerance_scale_relaxes_gate(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"name": "flat-nc-gaussian-packet"},
                                  "trajectories": {"steps": 11, "tolerance": 1e-30}})
    out = str(tmp_path / "out")
    assert main(["trajectories", "--config", cfg, "--out", out,
                 "--tolerance-scale", "1e40"]) == 0


def read_report(out_dir, name):
    with open(os.path.join(out_dir, f"report_{name}.json")) as handle:
        return json.load(handle)


def test_trajectory_gate_holds_at_max_abs_and_fails_just_below(tmp_path):
    doc = {"scenario": {"name": "flat-nc-gaussian-packet"},
           "trajectories": {"steps": 11, "seeds": [[0.0, 0.25], [0.0, 2.0], [0.0, -3.0]]}}
    out = str(tmp_path / "first")
    assert main(["trajectories", "--config", write_config(tmp_path, doc), "--out", out]) == 0
    report = read_report(out, "trajectory-constraint")
    # each seed's sample is the worst |constraint| of its own worldline
    for k, sample in enumerate(report["samples"]):
        with open(os.path.join(out, f"traj_{k}.json")) as handle:
            residuals = json.load(handle)["constraint_residual"]
        assert sample["value"] == max(map(abs, residuals))
    assert len({s["value"] for s in report["samples"]}) > 1
    worst = report["max_abs"]
    for tolerance, status in ((worst, 0), ((1 - 1e-9) * worst, 1)):
        doc["trajectories"]["tolerance"] = tolerance
        cfg = write_config(tmp_path, doc, name=f"tol-{status}.json")
        assert main(["trajectories", "--config", cfg, "--out", str(tmp_path / "out")]) == status


def test_min_gate_passes_just_above_and_fails_just_below(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"name": "minkowski-superposition"}})
    out = str(tmp_path / "first")
    assert main(["superposition-demo", "--config", cfg, "--out", out]) == 0
    classical = read_report(out, "classical-wave")["max_abs"]
    floor = COMMAND_GATES["classical-wave"].tolerance
    # the scaled floor floor/scale lands just below, then just above, the classical max_abs
    for margin, status in ((1 - 1e-9, 0), (1 + 1e-9, 1)):
        scale = floor / (margin * classical)
        assert main(["superposition-demo", "--config", cfg, "--out", str(tmp_path / "out"),
                     f"--tolerance-scale={scale!r}"]) == status


def test_failure_line_shows_the_applied_limit(tmp_path, capsys):
    # the floor 1e-2 of the min gate divided by the scale 1e-3, and the
    # tolerance 1e-30 of the max gate multiplied by the scale 1e-2
    cfg = write_config(tmp_path, {"scenario": {"name": "minkowski-superposition"}})
    assert main(["superposition-demo", "--config", cfg, "--out", str(tmp_path / "a"),
                 "--tolerance-scale", "0.001"]) == 1
    assert "classical-wave (max_abs=2.755e+00, tol=1.0e+01, mode=min)" in capsys.readouterr().err
    cfg = write_config(tmp_path, {"scenario": {"name": "flat-nc-gaussian-packet"},
                                  "trajectories": {"steps": 11, "tolerance": 1e-30}},
                       name="traj.json")
    assert main(["trajectories", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--tolerance-scale", "0.01"]) == 1
    assert "tol=1.0e-32, mode=max)" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tolerance-scale=0", "--tolerance-scale=-1",
                                  "--tolerance-scale=nan", "--tolerance-scale=inf"])
def test_bad_flag_value_exits_2_naming_flag(tmp_path, capsys, flag):
    cfg = write_config(tmp_path, {"scenario": {"name": "minkowski-plane-wave"}})
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out"), flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config field '{flag.split('=')[0]}'")
    assert not os.path.exists(tmp_path / "out")


def test_reduce_reports_identities(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"name": "nc-nontrivial-M"},
                                  "reduce": {"random_frames": 25, "seed": 3, "dim": 3}})
    out = str(tmp_path / "out")
    assert main(["reduce", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "report_random-frame-identities.json")) as handle:
        doc = json.load(handle)
    assert doc["max_abs"] < 1e-9
    assert len(doc["samples"]) == 25


def test_reduce_names_the_random_frame_that_overflows(tmp_path, capsys, monkeypatch):
    # frame 2 has M = (1e200, 1e200): Phi = -v.M + M h M / 2 overflows in its identities
    original, made = cli.random_frame_background, []

    def frames(rng, dim, charge=0.0):
        made.append(original(rng, dim, charge))
        if len(made) != 3:
            return made[-1]
        return dataclasses.replace(made[-1], m_field=lambda x: np.full(dim, 1e200))

    monkeypatch.setattr(cli, "random_frame_background", frames)
    cfg = write_config(tmp_path, {"scenario": {"name": "flat-nc-plane-wave"},
                                  "reduce": {"random_frames": 5, "seed": 4}})
    assert main(["reduce", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: reduce random frame 2 (reduce.seed 4): "
                                       "FloatingPointError: overflow encountered in vecdot\n")
    assert len(made) == 3


@pytest.mark.parametrize("params", [{"M_t": 1e300}, {"M_t": -1e300}, {"M_x": 1e5}])
def test_null_lift_gate_passes_at_large_scales(tmp_path, params):
    # gamma^{uu} = 2 Phi grows with M; inv(gamma) then differs from the closed
    # form by round-off of that size, which the gate divides out
    cfg = write_config(tmp_path, {"scenario": {"name": "nc-nontrivial-M", "params": params}})
    out = str(tmp_path / "out")
    assert main(["reduce", "--config", cfg, "--out", out]) == 0
    assert read_report(out, "null-lift-inverse")["max_abs"] < 1e-15


def test_reduce_rejects_relativistic_scenario(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"name": "minkowski-plane-wave"}})
    assert main(["reduce", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_hj_verify_small_grid(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": {"name": "free-particle-hj"},
        "grid": {"bounds": [[0.6, 1.5], [0.8, 1.7]], "samples": [3, 3]},
    })
    out = str(tmp_path / "out")
    assert main(["hj-verify", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "report_hj-endpoint-momentum.json")) as handle:
        assert json.load(handle)["max_abs"] < 5e-5


def test_hj_verify_names_the_failing_endpoint_problem(tmp_path, capsys):
    # omega lambda_f = pi at the grid's lambda_f = 1.7: a conjugate point
    cfg = write_config(tmp_path, {
        "scenario": {"name": "harmonic-oscillator-hj", "params": {"omega": math.pi / 1.7}},
        "grid": {"bounds": [[0.2, 1.1], [0.8, 1.7]], "samples": [2, 2]},
    })
    assert main(["hj-verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: endpoint problem at (X_f, lambda_f) = ([0.2], 1.7): ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not os.path.exists(tmp_path / "out" / "manifest.json")


def test_check_delegates_for_hj_scenarios(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": {"name": "harmonic-oscillator-hj"},
        "grid": {"bounds": [[0.2, 1.1], [0.8, 1.7]], "samples": [2, 2]},
    })
    out = str(tmp_path / "out")
    assert main(["check", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "report_hj-pde.json"))


def test_residuals_subset_selection(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"name": "minkowski-plane-wave"},
                                  "residuals": ["classical-hj"]})
    out = str(tmp_path / "out")
    assert main(["residuals", "--config", cfg, "--out", out]) == 0
    names = {f["name"] for f in read_manifest(out)["files"]}
    assert names == {"report_classical-hj.json"}


def test_csv_format_output(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"name": "minkowski-plane-wave"},
                                  "residuals": ["classical-hj"]})
    out = str(tmp_path / "out")
    assert main(["residuals", "--config", cfg, "--out", out, "--format", "csv"]) == 0
    path = os.path.join(out, "report_classical-hj.csv")
    with open(path) as handle:
        assert handle.readline().strip() == "x0,x1,x2,x3,value"


def run_python(*args):
    """The interpreter in a subprocess with pilotwave importable, as a user runs it."""
    paths = [str(Path(pilotwave.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_importing_the_cli_starts_no_pool_machinery():
    code = ("import sys, pilotwave.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    proc = run_python("-c", code)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def test_jobs_flag_is_gone(tmp_path):
    cfg = write_config(tmp_path, {"scenario": {"name": PACKET}})
    proc = run_python("-m", "pilotwave.cli", "check", "--config", cfg,
                      "--out", str(tmp_path / "out"), "--jobs", "2")
    assert proc.returncode == 2
    assert "error: unrecognized arguments: --jobs 2" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(tmp_path / "out")


def test_run_accepts_only_one_job(tmp_path):
    cfg = RunConfig.from_dict({"scenario": {"name": PLANE},
                               "grid": {"bounds": [[0, 1], [0, 1]], "samples": [2, 2]}})
    for jobs in (2, 0):
        with pytest.raises(ConfigError, match="config field '--jobs'"):
            run("check", cfg, out_dir=str(tmp_path / "out"), jobs=jobs)
    assert not os.path.exists(tmp_path / "out")
    assert run("check", cfg, out_dir=str(tmp_path / "out"), jobs=1) == 0


def test_identical_configs_are_byte_identical(tmp_path):
    doc = {"scenario": {"name": "flat-nc-gaussian-packet"},
           "grid": {"bounds": [[0, 5], [-3, 3]], "samples": [6, 6]}}
    cfg = write_config(tmp_path, doc)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["check", "--config", cfg, "--out", out1]) == 0
    assert main(["check", "--config", cfg, "--out", out2]) == 0
    files1 = sorted(os.listdir(out1))
    assert files1 == sorted(os.listdir(out2))
    for name in files1:
        with open(os.path.join(out1, name), "rb") as fa, \
                open(os.path.join(out2, name), "rb") as fb:
            assert fa.read() == fb.read(), name


@pytest.mark.parametrize("section, key, value", [
    ("hj", "fd_step", "abc"),
    ("trajectories", "steps", "x"),
    ("trajectories", "steps", 1),
    ("trajectories", "rtol", "abc"),
    ("trajectories", "rtol", 0.0),
    ("trajectories", "atol", "abc"),
    ("trajectories", "atol", -1e-12),
    ("trajectories", "tolerance", "abc"),
    ("trajectories", "tolerance", 0),
])
def test_bad_number_exits_2_naming_field(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path, {"scenario": {"name": "flat-nc-plane-wave"},
                                  section: {key: value}})
    command = "hj-verify" if section == "hj" else "trajectories"
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err
    assert "Traceback" not in err


def test_superposition_demo_on_newton_cartan_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"name": "flat-nc-plane-wave"}})
    assert main(["superposition-demo", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "scenario.name" in capsys.readouterr().err


PACKET = "flat-nc-gaussian-packet"
PLANE = "flat-nc-plane-wave"


def test_engine_overflow_exits_1_without_traceback(tmp_path, capsys):
    # w**2 overflows in the Newton-Cartan HJ expression, not in the build,
    # which computes E without squaring w
    for name in (PLANE, "nc-nontrivial-M"):
        cfg = write_config(tmp_path, {"scenario": {"name": name, "params": {"m": 1.5e154}}})
        assert main(["check", "--config", cfg, "--out", str(tmp_path / name)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / name / "manifest.json")


@pytest.mark.parametrize("command, doc, status, prefix", [
    ("residuals", {"scenario": {"name": "minkowski-plane-wave", "params": {"k": [1e300]}}},
     2, "config error: config field 'scenario.params'"),
    ("hj-verify", {"scenario": {"name": "free-particle-hj", "params": {"m": 1e300}}},
     1, "error: "),
])
def test_numpy_overflow_prints_one_line(tmp_path, command, doc, status, prefix):
    # a subprocess, so that a numpy warning would reach stderr as it does for a user
    cfg = write_config(tmp_path, doc)
    proc = run_python("-m", "pilotwave.cli", command, "--config", cfg,
                      "--out", str(tmp_path / "out"))
    assert proc.returncode == status
    assert proc.stderr.startswith(prefix)
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.mark.parametrize("command, doc, field", [
    ("check", {"scenario": {"name": "minkowski-plane-wave", "params": {"m": "abc"}}},
     "scenario.params.m"),
    ("check", {"scenario": {"name": "minkowski-plane-wave", "params": {"k": "abc"}}},
     "scenario.params.k"),
    ("check", {"scenario": {"name": "minkowski-superposition",
                            "params": {"k1": [0.6, "x", 0.0]}}}, "scenario.params.k1"),
    ("trajectories", {"scenario": {"name": PACKET},
                      "trajectories": {"seeds": [[0.0, "a"]]}}, "trajectories.seeds"),
    ("trajectories", {"scenario": {"name": PACKET},
                      "trajectories": {"seeds": [[0.0, 0.5, 1.0]]}}, "trajectories.seeds[0]"),
    ("trajectories", {"scenario": {"name": PACKET},
                      "trajectories": {"span": ["a", "b"]}}, "trajectories.span"),
    ("check", {"scenario": {"name": PACKET},
               "grid": {"bounds": [[0, 1], [0, 1], [0, 1]], "samples": [2, 2, 2]}}, "grid"),
    ("reduce", {"scenario": {"name": PACKET}, "reduce": {"random_frames": "x"}},
     "reduce.random_frames"),
    ("reduce", {"scenario": {"name": PACKET}, "reduce": {"random_frames": 2, "dim": 1}},
     "reduce.dim"),
    *(("check", {"scenario": {"name": "flat-nc-plane-wave"},
                 "grid": {"bounds": [[0, 1], [0, 1]], "samples": samples}}, "grid.samples")
      for samples in ([2.7, 3], [True, 3], ["3", 3])),
    # unknown keys and a non-object section, each silently dropped before
    ("trajectories", {"scenario": {"name": PLANE}, "trajectories": {"stpes": 3}},
     "trajectories.stpes"),
    ("hj-verify", {"scenario": {"name": "free-particle-hj"}, "hj": {"fdstep": 1e-3}}, "hj.fdstep"),
    ("check", {"scenario": {"name": PLANE},
               "grid": {"bounds": [[0, 1], [0, 1]], "samples": [2, 2], "extra": 1}}, "grid.extra"),
    ("reduce", {"scenario": {"name": PLANE}, "reduce": {"random_frame": 3}},
     "reduce.random_frame"),
    ("check", {"scenario": {"name": PLANE, "extra": 1}}, "scenario.extra"),
    ("check", {"scenario": {"name": PLANE}, "hj": 5}, "hj"),
    # scenario errors name their parameter
    ("check", {"scenario": {"name": "minkowski-plane-wave", "params": {"m": -2}}},
     "scenario.params.m"),
    ("check", {"scenario": {"name": "minkowski-plane-wave", "params": {"nonsense": 1}}},
     "scenario.params.nonsense"),
    ("check", {"scenario": {"name": "curved-diagonal", "params": {"E": 0.9}}},
     "scenario.params.E"),
    ("check", {"scenario": {"name": "no-such-thing"}}, "scenario.name"),
    # 2 m sigma0^2 underflows to zero in the packet's closed form
    ("check", {"scenario": {"name": PACKET, "params": {"sigma0": 1e-200}}}, "scenario.params"),
    # the displaced endpoint problems need lambda_f - fd_step > lambda_0
    ("hj-verify", {"scenario": {"name": "harmonic-oscillator-hj"},
                   "grid": {"bounds": [[0.2, 1.1], [-1.0, -0.5]], "samples": [2, 2]}}, "grid"),
    ("hj-verify", {"scenario": {"name": "free-particle-hj"}, "hj": {"fd_step": 1.0},
                   "grid": {"bounds": [[0.6, 1.5], [0.8, 1.7]], "samples": [2, 2]}}, "grid"),
    ("reduce", {"scenario": {"name": PLANE}, "reduce": {"random_frames": 1, "dim": 11}},
     "reduce.dim"),
    # an empty subset would run no check and pass
    ("residuals", {"scenario": {"name": "flat-nc-plane-wave"}, "residuals": []}, "residuals"),
    # so would a scenario without field checks, with or without a subset
    ("residuals", {"scenario": {"name": "free-particle-hj"}}, "scenario.name"),
    ("residuals", {"scenario": {"name": "harmonic-oscillator-hj"},
                   "residuals": ["classical-hj"]}, "scenario.name"),
])
def test_bad_config_value_exits_2_naming_field(tmp_path, capsys, command, doc, field):
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err
    assert "Traceback" not in err


def declared_paths(fields, prefix=""):
    """Every field path of a table shaped like ``cli.FIELDS``."""
    for key, spec in fields.items():
        if isinstance(spec, dict):
            yield from declared_paths(spec, f"{prefix}{key}.")
        else:
            yield prefix + key


PATHS = sorted(declared_paths(FIELDS))


def test_help_epilog_lists_every_declared_field(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    block = capsys.readouterr().out.split("config document (JSON)")[1].split("\n\n")[0]
    assert sorted(re.findall(r"^  (\S+)", block, re.M)) == PATHS


def test_readme_synopsis_lists_every_option(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    options = capsys.readouterr().out.split("config document (JSON)")[0]
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    synopsis = readme.split("## Command line")[1].split("```")[1]
    flag = r"(?<![\w-])--[a-z][\w-]*"
    assert set(re.findall(flag, synopsis)) == set(re.findall(flag, options)) - {"--help"}


def test_help_epilog_lists_every_command_gate(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    block = capsys.readouterr().out.split("on top of the scenario's checks")[1]
    rows = re.findall(r"^  (\S+) +max_abs (<=|>) (\S+)$", block, re.M)
    assert {name: (op, float(tol)) for name, op, tol in rows} == {
        c.name: ("<=" if c.mode == "max" else ">", c.tolerance) for c in COMMAND_GATES.values()}


# one small valid document per command: grids of at most 3x3, one seed, few samples
FUZZ_BASES = {
    "check": {"scenario": {"name": PLANE},
              "grid": {"bounds": [[0.0, 2.0], [-1.0, 1.0]], "samples": [3, 3]}},
    "residuals": {"scenario": {"name": "minkowski-plane-wave", "params": {"k": [0.6]}},
                  "grid": {"bounds": [[0.0, 2.0], [-1.0, 1.0]], "samples": [3, 3]},
                  "residuals": ["classical-hj", "continuity"]},
    "trajectories": {"scenario": {"name": PACKET},
                     "trajectories": {"seeds": [[0.0, 0.5]], "span": [0.0, 1.0], "steps": 5,
                                      "rtol": 1e-9, "atol": 1e-12, "tolerance": 1e-5}},
    "reduce": {"scenario": {"name": "nc-nontrivial-M"},
               "grid": {"bounds": [[0.0, 2.0], [-1.0, 1.0]], "samples": [2, 2]},
               "reduce": {"random_frames": 2, "seed": 1, "dim": 3}},
    "hj-verify": {"scenario": {"name": "free-particle-hj"},
                  "grid": {"bounds": [[0.6, 1.5], [0.8, 1.7]], "samples": [2, 2]},
                  "hj": {"fd_step": 1e-4}},
    "superposition-demo": {"scenario": {"name": "minkowski-superposition",
                                        "params": {"k1": [0.6], "k2": [-0.8]}},
                           "grid": {"bounds": [[0.0, 3.0], [0.0, 3.0]], "samples": [3, 3]}},
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-10, 10) | st.text(max_size=3)
    | st.sampled_from(["csv", "json", "check", PACKET, "classical-hj", "conserved"])
    # magnitudes whose square or product overflows or underflows a double
    | st.sampled_from([1e300, -1e300, 1.5e154, -1.5e154, 1e-300, 1e-154]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6)
# how json.dumps, repr and %g spell a non-finite float
NON_FINITE = re.compile(r"\b(Infinity|NaN|inf|nan)\b")
SECTIONS = ("<root>", "scenario", "scenario.params", "grid", "trajectories", "reduce", "hj")


def run_main(tmp, command, doc):
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main([command, "--config", str(cfg), "--out", str(tmp / "out")])
    return status, err.getvalue()


@pytest.mark.parametrize("command", sorted(FUZZ_BASES))
def test_fuzz_bases_pass(tmp_path, command):
    assert run_main(tmp_path, command, FUZZ_BASES[command]) == (0, "")


@given(data=st.data())
def test_cli_contract_under_mutated_configs(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(FUZZ_BASES)))
    doc = copy.deepcopy(FUZZ_BASES[command])
    sc = doc["scenario"]
    params = [f"scenario.params.{k}" for k in build(sc["name"], sc.get("params")).params]
    mutation = data.draw(st.sampled_from(["value", "unknown key", "non-object section"]))
    if mutation == "non-object section":
        expected = data.draw(st.sampled_from(SECTIONS))
        path = expected.split(".") if expected != "<root>" else []
        value = data.draw(st.integers(-2, 6) | st.text(max_size=3) | st.lists(JSON_VALUES,
                                                                              max_size=2))
    else:
        path = data.draw(st.sampled_from(PATHS + params)).split(".")
        value = data.draw(JSON_VALUES)
        if mutation == "unknown key":
            path[-1], value = "zz", 1
            expected = ".".join(path)
    if path:
        target = doc
        for key in path[:-1]:
            target = target.setdefault(key, {})
        target[path[-1]] = value
    else:
        doc = value
    tmp = tmp_path_factory.mktemp("fuzz")
    status, err = run_main(tmp, command, doc)
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    for path in (tmp / "out").glob("*"):
        assert not NON_FINITE.search(path.read_text()), path.name
    if mutation != "value":
        assert status == 2 and f"config field '{expected}'" in err
    elif status == 2:
        named = re.search(r"config field '([^']+)'", err)
        assert named and re.split(r"[.\[]", named.group(1))[0] in (*FIELDS, "<root>")
