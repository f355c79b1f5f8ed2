"""Configuration parsing and the command-line interface."""

import ast
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pnedge.cli import main
from pnedge.config import (
    RunConfig,
    box_radii,
    initial_profile,
    parse_config,
    parse_config_text,
    run_setup,
)
from pnedge.io import _BLOCK_ROWS, config_hash, write_csv, write_field_csv
from pnedge.potential import eval_potential


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_default_roundtrip():
    cfg = RunConfig()
    assert parse_config_text(cfg.echo()) == cfg


def test_echo_includes_derived_zeta():
    cfg = RunConfig()
    assert f"zeta = {cfg.zeta:.17g}" in cfg.echo()


def test_roundtrip_with_overrides():
    cfg = parse_config(None, {"N": "8192", "nu": "0.3", "energy_pert_seed": "7"})
    assert cfg.N == 8192 and cfg.nu == 0.3 and cfg.energy_pert_seed == 7
    assert parse_config_text(cfg.echo()) == cfg


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key 'wibble'"):
        parse_config_text("wibble = 3\n")


def test_nu_out_of_range_names_key():
    with pytest.raises(ValueError, match="'nu'"):
        parse_config_text("nu = 0.6\n")


@pytest.mark.parametrize("key, value", [
    ("G", "nan"),
    ("L_over_zeta", "inf"),
    ("N", "4096.5"),  # not an int
    ("overwrite", "maybe"),  # not a bool
    # removed keys: whatever the value, unknown by name
    ("dynamics_dt", "-1"),
    ("dynamics_dt", "nan"),
    ("energy_quad_levels", "0"),
    ("energy_quad_levels", "1"),
    ("energy_y_max_over_zeta", "-1"),
    ("energy_y_max_over_zeta", "0.01"),
    ("energy_n_perturbations", "-1"),
    ("dynamics_T_end", "0"),
    ("dynamics_bump_width_over_zeta", "0"),  # the start's bump would be NaN
    ("ylevels_count", "0"),
    ("ylevels_y_min_over_zeta", "0"),
    ("ylevels_y_max_over_zeta", "-1"),
    ("ylevels_y_max_over_zeta", "0.1"),
    ("energy_box_radii_over_zeta", ""),
    ("energy_box_radii_over_zeta", "5"),
    ("energy_box_radii_over_zeta", "5,5"),
    ("energy_box_radii_over_zeta", "5,-1"),
    ("energy_box_radii_over_zeta", "nan"),
    ("energy_box_radii_over_zeta", "5,inf"),
    ("energy_box_radii_over_zeta", "5,1000"),  # beyond L/2, checked where radii are read
    ("energy_box_radii_over_zeta", "5,ten"),
    ("energy_box_radii_over_zeta", "0.01,0.015"),  # at or below the first level, zeta/50
    ("energy_box_radii_over_zeta", "0.015,5"),
    ("dynamics_snapshot_times", "60"),
    ("dynamics_snapshot_times", "0"),
    ("dynamics_snapshot_times", "1,-1"),
    ("dynamics_snapshot_times", "nan"),
    ("dynamics_snapshot_times", "1,later"),
    ("dynamics_snapshot_times", "1.0000001,1.0000002"),  # both snapshot_t1.csv
    ("dynamics_snapshot_times", "49.9999999"),  # snapshot_t50.csv, as dynamics_T_end
    ("static_init", "bogus"),
    ("static_init", "background:abc"),
    ("static_init", "background:0"),
    ("static_init", "background:-1"),
    ("N", "4095"),  # odd
    ("dynamics_method", "rk4"),
    ("potential", "harmonic"),  # neither frenkel nor table:<path>
])
def test_bad_value_rejected_names_key(key, value):
    # every value is checked by parse_config except the radii's bound by
    # L/2, which box_radii checks for the commands that read the radii
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        box_radii(parse_config(None, {key: value}))


def test_pair_without_equals_rejected(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("N = 1024\nL_over_zeta 100\n")
    with pytest.raises(ValueError, match="line 2: expected 'key = value'"):
        parse_config(path)
    assert main(["--set", "N", "--output", str(tmp_path / "x"), "solve-static"]) == 2
    assert "--set expects KEY=VALUE, got 'N'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_file_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a run\n\nN = 1024  # fine grid\n   \n# nu = 0.3\n")
    assert parse_config(path) == RunConfig(N=1024)


def test_background_start_is_the_bare_core(grid, params):
    cfg = RunConfig(static_init="background:2.5")
    p = initial_profile(cfg, grid, params)
    assert p.zeta_bg == 2.5 * params.zeta and p.x0 == 0.0
    assert not np.any(p.v)


def test_inconsistent_zeta_rejected():
    with pytest.raises(ValueError, match="zeta"):
        parse_config_text("zeta = 0.9\n")


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("N = 4096\nenergy_pert_seed = 3\n")
    cfg = parse_config(path, {"N": "8192"})
    assert cfg.N == 8192
    assert cfg.energy_pert_seed == 3


def test_flag_replaces_a_bad_file_value(tmp_path):
    # the configuration is validated once, after the flags
    path = tmp_path / "run.cfg"
    path.write_text("nu = 0.6\n")
    with pytest.raises(ValueError, match="'nu'"):
        parse_config(path)
    assert parse_config(path, {"nu": "0.3"}).nu == 0.3
    rc = main(["--config", str(path), "--set", "nu=0.3"] + _fast_overrides(tmp_path)
              + ["solve-static"])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert parse_config_text(manifest["config_echo"]).nu == 0.3
    # a zeta line cannot be checked against an out-of-range nu: the flag decides
    path.write_text("nu = 0.6\nzeta = 1.25\n")
    assert parse_config(path, {"nu": "0.3"}).nu == 0.3


def test_echoed_config_loads_with_overrides(tmp_path):
    # the zeta line is checked against the file's own d and nu
    path = tmp_path / "echo.cfg"
    path.write_text(RunConfig(nu=0.2).echo())
    assert parse_config(path, {"nu": "0.3", "d": "2"}) == RunConfig(nu=0.3, d=2.0)
    path.write_text(RunConfig(nu=0.2).echo() + "nu = 0.3\n")  # zeta left at nu = 0.2's
    with pytest.raises(ValueError, match="config key 'zeta'"):
        parse_config(path, {"nu": "0.2"})


def test_box_radii_parsing():
    cfg = RunConfig(energy_box_radii_over_zeta="5, 10,20")
    np.testing.assert_allclose(box_radii(cfg), np.array([5, 10, 20]) * cfg.zeta)


def test_config_hash_stable():
    assert config_hash(RunConfig().echo()) == config_hash(RunConfig().echo())
    assert config_hash(RunConfig().echo()) != config_hash(RunConfig(N=8192).echo())


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def _fast_overrides(tmp_path, **extra):
    args = [
        "--output", str(tmp_path / "out"),
        "--set", "L_over_zeta=100", "--set", "N=512",
        "--set", "static_init=analytic",
    ]
    for key, value in extra.items():
        args += ["--set", f"{key}={value}"]
    return args


def test_cli_solve_static_writes_artifacts(tmp_path):
    rc = main(_fast_overrides(tmp_path) + ["solve-static"])
    assert rc == 0
    out = tmp_path / "out"
    header = (out / "profile.csv").read_text().splitlines()[0]
    assert header == "x,u1,v,rho,residual"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["residual_linf"] <= 1e-10
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve-static"
    assert len(manifest["config_hash"]) == 64


def test_cli_refuses_existing_output(tmp_path):
    args = _fast_overrides(tmp_path)
    assert main(args + ["solve-static"]) == 0
    assert main(args + ["solve-static"]) == 2  # refused without --overwrite
    assert main(args + ["--overwrite", "solve-static"]) == 0


def test_cli_deterministic_outputs(tmp_path):
    args1 = [
        "--output", str(tmp_path / "a"), "--set", "N=512",
        "--set", "L_over_zeta=100", "--set", "static_init=analytic",
    ]
    args2 = [a.replace(str(tmp_path / "a"), str(tmp_path / "b")) for a in args1]
    assert main(args1 + ["solve-static"]) == 0
    assert main(args2 + ["solve-static"]) == 0
    csv_a = (tmp_path / "a" / "profile.csv").read_bytes()
    csv_b = (tmp_path / "b" / "profile.csv").read_bytes()
    assert csv_a == csv_b
    ha = json.loads((tmp_path / "a" / "manifest.json").read_text())["config_hash"]
    hb = json.loads((tmp_path / "b" / "manifest.json").read_text())["config_hash"]
    assert ha != hb  # output path differs in the config


def test_cli_extend(tmp_path):
    rc = main(_fast_overrides(tmp_path, ylevels_count=4) + ["extend"])
    assert rc == 0
    out = tmp_path / "out"
    for name in ("u1", "u2", "sigma11", "sigma12", "sigma22", "sigma33"):
        assert (out / f"{name}.csv").exists()
    header = (out / "u1.csv").read_text().splitlines()[0]
    assert header == "x,y,value"
    manifest = json.loads((out / "manifest.json").read_text())
    assert "gauges" in manifest
    rc = main(_fast_overrides(tmp_path / "b", ylevels_count=4) + ["extend"])
    assert rc == 0
    names = sorted(p.name for p in out.glob("*.csv"))
    assert len(names) == 7
    for name in names:
        assert (tmp_path / "b" / "out" / name).read_bytes() == (out / name).read_bytes()


def test_cli_energy(tmp_path):
    rc = main(_fast_overrides(
        tmp_path, energy_n_perturbations=2, energy_box_radii_over_zeta="5,10,20") + ["energy"])
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "energy.json").read_text())
    assert len(payload["perturbations"]) == 2
    assert payload["log_divergence"]["r_squared"] > 0.99
    rows = (tmp_path / "out" / "energy_box.csv").read_text().splitlines()
    assert rows[0] == "R,E"
    assert len(rows) == 4


def test_cli_energy_breakdowns_deterministic(tmp_path):
    common = dict(energy_n_perturbations=2, energy_box_radii_over_zeta="5,10,20")
    rc = main(_fast_overrides(tmp_path, **common) + ["energy"])
    assert rc == 0
    first = (tmp_path / "out" / "energy.json").read_bytes()
    rc = main(_fast_overrides(tmp_path, **common) + ["--overwrite", "energy"])
    assert rc == 0
    assert (tmp_path / "out" / "energy.json").read_bytes() == first


# at L = 100 zeta the suite's tanh start has tails above TAIL_TOL
@pytest.mark.filterwarnings("ignore::pnedge.errors.TailWarning")
def test_validate_reports_its_box_radii(tmp_path):
    main(_fast_overrides(tmp_path, energy_box_radii_over_zeta="5,10,20") + ["validate"])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    check = next(c for c in report["checks"] if c["name"] == "09.log_divergence.affine_fit")
    assert check["expected"] == "E(R) affine in ln R over R = {5,10,20} zeta"


# at L = 100 zeta the suite's tanh start has tails above TAIL_TOL
@pytest.mark.filterwarnings("ignore::pnedge.errors.TailWarning")
def test_validate_manifest_times_each_check(tmp_path):
    # a coarse grid, where some checks fail: the times are written either way
    assert main(_fast_overrides(tmp_path, dynamics_T_end=5) + ["validate"]) in (0, 1)
    timings = json.loads((tmp_path / "out" / "manifest.json").read_text())["timings_s"]
    checks = [f"check_{i:02d}" for i in range(1, 13)]
    assert sorted(timings) == checks + ["total"]
    assert all(timings[c] >= 0.0 for c in checks)
    assert sum(timings[c] for c in checks) <= timings["total"]


def test_cli_dynamics(tmp_path):
    rc = main(_fast_overrides(
        tmp_path, dynamics_T_end=1.0, dynamics_snapshot_times="0.5") + ["dynamics"])
    assert rc == 0
    out = tmp_path / "out"
    rows = (out / "trace.csv").read_text().splitlines()
    assert rows[0] == "t,F,Q,residual,dt"
    assert (out / "snapshot_t0.5.csv").exists()
    assert (out / "snapshot_t1.csv").exists()


def test_cli_dynamics_rejects_snapshots_sharing_a_file(tmp_path, capsys):
    # 1.0000001 and 1.0000002 both name snapshot_t1.csv: one would replace the other
    rc = main(_fast_overrides(tmp_path, dynamics_T_end=2.0,
                              dynamics_snapshot_times="1.0000001,1.0000002") + ["dynamics"])
    assert rc == 2
    assert "config key 'dynamics_snapshot_times'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


#: 1 - cos(4 pi u / b) on 64 samples: maxima where the wells should be
_INVERTED_WELLS = "u,W\n" + "".join(
    f"{u:.17g},{1.0 - np.cos(4.0 * np.pi * u):.17g}\n" for u in np.arange(64) / 128.0)


@pytest.mark.parametrize("content, detail, command", [
    (None, "No such file", "solve-static"),
    ("u,W\n0.0,1.0\n0.1\n", "line 3", "solve-static"),  # one field
    ("u,W\n0.0,1.0\n0.1,one\n", "line 3", "solve-static"),  # not a number
    # a table that loads but fails validate_potential
    (_INVERTED_WELLS, "fails structural checks", "dynamics"),
    (None, "No such file", "validate"),
], ids=["missing", "one_field", "not_a_number", "inverted_wells", "missing_validate"])
def test_cli_bad_potential_table_names_key(tmp_path, capsys, content, detail, command):
    table = tmp_path / "potential.csv"
    if content is not None:
        table.write_text(content)
    rc = main(_fast_overrides(tmp_path, potential=f"table:{table}") + [command])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert "config key 'potential'" in err and detail in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::pnedge.errors.TailWarning")
@pytest.mark.filterwarnings("ignore::pnedge.errors.MonotonicityWarning")
def test_cli_solves_under_a_valid_table(tmp_path, params, eps_table, eps_table_rows):
    from pnedge.grid import build_grid
    from pnedge.profile import tanh_profile
    from pnedge.static import center_profile, solve_static

    # the table as a file, loaded through the config: the spline of the same rows
    table = tmp_path / "potential.csv"
    table.write_text("u,W\n" + "".join(f"{u:.17g},{w:.17g}\n" for u, w in eps_table_rows))
    _, _, spec = run_setup(parse_config(None, {"potential": f"table:{table}"}))
    u = np.linspace(-params.b, params.b, 101)
    for k in range(3):
        assert np.array_equal(eval_potential(spec, u, k), eval_potential(eps_table, u, k))
    assert main(_fast_overrides(tmp_path, potential=f"table:{table}", static_init="tanh")
                + ["solve-static"]) == 0
    grid = build_grid(100.0 * params.zeta, 512)
    _, want = center_profile(solve_static(tanh_profile(grid, params), eps_table).profile)
    got = np.loadtxt(tmp_path / "out" / "profile.csv", delimiter=",", skiprows=1)
    assert np.array_equal(got[:, 1], want.u1)


@pytest.mark.parametrize("command, entry", [
    ("solve-static", "solve_static"), ("extend", "solve_static"),
    ("energy", "solve_static"), ("dynamics", "run_dynamics"),
    ("validate", "run_validation"),
])
def test_cli_refuses_a_used_output_before_the_work(tmp_path, capsys, monkeypatch,
                                                   command, entry):
    import pnedge.cli as climod

    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} worked before refusing its output directory")

    monkeypatch.setattr(climod, entry, no_work)
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("{}\n")
    assert main(_fast_overrides(tmp_path) + [command]) == 2
    assert "already holds results" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_cli_dynamics_underflow_exit_code(tmp_path, monkeypatch):
    import pnedge.cli as climod
    from pnedge.dynamics import DynamicsTrace
    from pnedge.errors import TimeStepUnderflowError

    def broken(*args, **kwargs):
        trace = DynamicsTrace()
        trace.record(0.0, 1.0, 1.0, 1.0, 0.0)
        raise TimeStepUnderflowError("forced underflow", trace=trace)

    monkeypatch.setattr(climod, "run_dynamics", broken)
    rc = main(_fast_overrides(tmp_path) + ["dynamics"])
    assert rc == 2
    assert (tmp_path / "out" / "trace.csv").exists()


def test_cli_dynamics_underflow_keeps_the_pieces_before_it(tmp_path, monkeypatch):
    """A run that underflows in its second piece writes the first piece's
    trace and snapshot, then the partial trace: what an unbroken run to
    the point of failure writes."""
    import pnedge.cli as climod
    from pnedge.dynamics import run_dynamics
    from pnedge.errors import TimeStepUnderflowError

    ref = tmp_path / "ref"
    rc = main(_fast_overrides(ref, dynamics_T_end=1.25, dynamics_snapshot_times=1)
              + ["dynamics"])
    assert rc == 0

    def second_piece_underflows(s, t_stop, step):
        if t_stop == 1.0:
            return run_dynamics(s, t_stop, step)
        _, partial = run_dynamics(s, 1.25, step)  # what was recorded before the failure
        raise TimeStepUnderflowError("forced underflow", trace=partial)

    monkeypatch.setattr(climod, "run_dynamics", second_piece_underflows)
    rc = main(_fast_overrides(tmp_path, dynamics_T_end=2, dynamics_snapshot_times=1)
              + ["dynamics"])
    assert rc == 2
    out = tmp_path / "out"
    for name in ("trace.csv", "snapshot_t1.csv"):
        assert (out / name).read_bytes() == (ref / "out" / name).read_bytes()
    assert not (out / "snapshot_t2.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["aborted"] == "forced underflow"
    assert manifest["bytes_written"] == {
        name: (out / name).stat().st_size for name in ("trace.csv", "snapshot_t1.csv")}


def test_cli_validate_failure_exit_code(tmp_path, monkeypatch):
    import pnedge.cli as climod
    from pnedge.validation import CheckResult

    fake = [CheckResult(name="x", expected="", actual=1.0, tolerance=0.5, passed=False)]
    monkeypatch.setattr(climod, "run_validation", lambda cfg, timings: fake)
    rc = main(["--output", str(tmp_path / "v"), "validate"])
    assert rc == 1
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert report["all_pass"] is False


def test_cli_validate_success_exit_code(tmp_path, monkeypatch):
    import pnedge.cli as climod
    from pnedge.validation import CheckResult

    fake = [CheckResult(name="x", expected="", actual=0.1, tolerance=0.5, passed=True)]
    monkeypatch.setattr(climod, "run_validation", lambda cfg, timings: fake)
    rc = main(["--output", str(tmp_path / "v"), "validate"])
    assert rc == 0


def test_nan_energy_fails_check_07(monkeypatch):
    import pnedge.validation as valmod

    cfg = RunConfig(energy_n_perturbations=2)
    monkeypatch.setattr(valmod.HalfPlaneTables, "elastic_energy", lambda self, phi1: float("nan"))
    results = {r.name: r for r in valmod.check_energy_relation(valmod.SuiteContext(cfg))}
    total = results["07.energy_relation.total"]
    assert np.isnan(total.actual) and not total.passed


def test_cli_bad_config_exit_code(tmp_path):
    rc = main(["--set", "nu=0.7", "--output", str(tmp_path / "x"), "solve-static"])
    assert rc == 2


@pytest.mark.parametrize("key", ["seed", "format_version", "static_newton", "dynamics_adapt",
                                 "ylevels_mirrored", "static_dt0", "static_res_tol",
                                 "static_max_iters", "energy_quad_levels",
                                 "energy_y_max_over_zeta", "dynamics_dt"])
def test_removed_config_key_is_unknown(tmp_path, capsys, key):
    rc = main(["--set", f"{key}=1", "--output", str(tmp_path / "x"), "solve-static"])
    assert rc == 2
    assert f"unknown config key '{key}'" in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        parse_config_text(f"{key} = 1\n")


def test_every_config_key_is_read():
    # a key no code reads changes nothing: each must be read from a config,
    # as cfg.<key> (ctx.cfg.<key> too) or as self.<key> in RunConfig's own
    # methods; copying a flag into the config (args.<key>) is no read
    src = Path(__file__).resolve().parents[1] / "src" / "pnedge"
    read = set()
    for path in src.glob("*.py"):
        owners = {"cfg", "self"} if path.name == "config.py" else {"cfg"}
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and ast.unparse(node.value).split(".")[-1] in owners):
                read.add(node.attr)
    assert [f.name for f in fields(RunConfig) if f.name not in read] == []


def test_settable_values_are_counted():
    # what a caller can set: the config keys, the CLI's options (the
    # command included, --help not) and the constructor fields of the
    # objects a library caller builds around a solve and a run
    import argparse

    from pnedge.cli import _build_parser
    from pnedge.dynamics import DynamicsState
    from pnedge.extension import YLevels
    from pnedge.grid import Grid1D
    from pnedge.potential import PotentialSpec
    from pnedge.profile import Profile

    options = [a for a in _build_parser()._actions if not isinstance(a, argparse._HelpAction)]
    counts = {"RunConfig": len(fields(RunConfig)), "cli": len(options)}
    for cls in (Profile, YLevels, Grid1D, PotentialSpec, DynamicsState):
        counts[cls.__name__] = sum(f.init for f in fields(cls))
    assert counts == {"RunConfig": 21, "cli": 5, "Profile": 5, "YLevels": 1, "Grid1D": 2,
                      "PotentialSpec": 2, "DynamicsState": 3}
    assert sum(counts.values()) == 39


@pytest.mark.parametrize("flag, value", [("--N", "512"), ("--potential", "frenkel")])
def test_removed_flag_is_rejected(tmp_path, capsys, flag, value):
    # --set N=... and --set potential=... are the one way into those keys
    with pytest.raises(SystemExit) as exc:
        main(["--output", str(tmp_path / "x"), "solve-static", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_radii_bound_only_where_radii_are_read(tmp_path, capsys):
    # at L = 50 zeta the default radius 40 zeta exceeds L/2: only energy
    # and validate read the radii
    common = ["--set", "N=256", "--set", "L_over_zeta=50", "--set", "static_init=analytic"]
    for command, extra in (("solve-static", []), ("dynamics", ["--set", "dynamics_T_end=0.5"])):
        assert main(common + extra + ["--output", str(tmp_path / command), command]) == 0
    capsys.readouterr()
    for command in ("energy", "validate"):
        assert main(common + ["--output", str(tmp_path / command), command]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert "config key 'energy_box_radii_over_zeta'" in err and "25" in err
        assert not (tmp_path / command).exists()


def test_cli_entry_point_runs(pnedge_env):
    proc = subprocess.run([sys.executable, "-m", "pnedge.cli", "--help"],
                          capture_output=True, text=True, env=pnedge_env())
    assert proc.returncode == 0
    assert "solve-static" in proc.stdout


def test_malloc_thresholds_set_through_mallopt_or_skipped(monkeypatch):
    import ctypes

    from pnedge import cli

    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
    cli._fix_malloc_thresholds.__wrapped__()
    assert calls == [(-3, 4 << 20), (-1, 2 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    def no_libc(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert cli._fix_malloc_thresholds.__wrapped__() is None


_NO_SCIPY_RUN = """
import sys
from pnedge.cli import main

out, common = sys.argv[1], ["--set", "L_over_zeta=100", "--set", "N=512"]
runs = {
    "solve-static": [],
    "extend": ["--set", "ylevels_count=4"],
    "energy": ["--set", "energy_n_perturbations=2"],
    "dynamics": ["--set", "dynamics_T_end=1", "--set", "dynamics_snapshot_times=0.5"],
}
for cmd, extra in runs.items():
    assert main(["--output", f"{out}/{cmd}"] + common + extra + [cmd]) == 0, cmd
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


_NO_SCIPY_SEMINORMS = """
import sys
from types import SimpleNamespace

from pnedge.params import PhysParams
from pnedge.validation import check_sobolev

params = PhysParams()
assert all(r.passed for r in check_sobolev(SimpleNamespace(params=params)))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_seminorm_oracles_load_no_scipy(pnedge_env):
    # check 03's closed forms and exp-sinh rule
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SEMINORMS],
                          capture_output=True, text=True, env=pnedge_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_THREAD_RUNS = """
import sys
from pnedge.cli import main

out, big = sys.argv[1], ["--set", "N=16384", "--set", "L_over_zeta=800"]
dyn = big + ["--set", "dynamics_T_end=1", "dynamics"]
runs = {
    "default": ["solve-static"],
    "big": big + ["solve-static"],
    "si": ["--set", "dynamics_method=semi_implicit"] + dyn,
    "etd": ["--set", "dynamics_method=etd"] + dyn,
}
for name, args in runs.items():
    assert main(["--output", f"{out}/{name}"] + args) == 0, name
"""


def test_default_solve_is_byte_identical_across_blas_threads(tmp_path, pnedge_env):
    # N = 16384: above the sizes at which OpenBLAS splits a dot product
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run([sys.executable, "-c", _THREAD_RUNS, str(out)], capture_output=True,
                              text=True, env=pnedge_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        outputs.append({f: (out / f).read_bytes() for f in (
            "default/profile.csv", "default/summary.json", "big/profile.csv",
            "big/summary.json", "si/trace.csv", "etd/trace.csv")})
    assert outputs[0] == outputs[1]


def test_frenkel_subcommands_load_no_scipy(tmp_path, pnedge_env):
    # the tanh start runs the sweep, the centring root find and the MINRES polish
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path)],
                          capture_output=True, text=True, env=pnedge_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    summary = json.loads((tmp_path / "solve-static" / "summary.json").read_text())
    assert summary["newton_steps"] >= 1


_NO_SCIPY_TABLE_RUN = """
import sys
from pnedge.cli import main

out, table = sys.argv[1], sys.argv[2]
common = ["--set", f"potential=table:{table}", "--set", "L_over_zeta=100", "--set", "N=512"]
runs = {
    "solve-static": [],
    "dynamics": ["--set", "dynamics_T_end=1", "--set", "dynamics_snapshot_times=0.5"],
}
for cmd, extra in runs.items():
    assert main(["--output", f"{out}/{cmd}"] + common + extra + [cmd]) == 0, cmd
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_table_subcommands_load_no_scipy(tmp_path, pnedge_env):
    # a tabulated potential is interpolated by the package's own spline
    from pnedge.params import PhysParams
    from pnedge.potential import eval_potential, frenkel

    u = np.linspace(0.0, 0.5, 64, endpoint=False)
    w = eval_potential(frenkel(PhysParams()), u, 0)
    table = tmp_path / "potential.csv"
    table.write_text("u,W\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(u, w)))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_TABLE_RUN, str(tmp_path), str(table)],
                          capture_output=True, text=True, env=pnedge_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    summary = json.loads((tmp_path / "solve-static" / "summary.json").read_text())
    assert summary["newton_steps"] >= 1


_NUMPY_MA_TABLE_RUN = """
import sys
from pnedge.cli import main

out, table = sys.argv[1], sys.argv[2]
common = ["--set", f"potential=table:{table}", "--set", "L_over_zeta=100", "--set", "N=512"]
for cmd in ("solve-static", "energy"):
    assert main(["--output", f"{out}/{cmd}"] + common + [cmd]) == 0, cmd
print("numpy.ma" in sys.modules)
"""


def test_table_solve_and_energy_leave_numpy_ma_unimported(tmp_path, pnedge_env):
    # the first plain np.unique call of a process imports numpy.ma (about
    # 1.7 MB resident); the table spline's np.unique(..., return_index=True)
    # and the box energy's node set do not
    from pnedge.params import PhysParams
    from pnedge.potential import eval_potential, frenkel

    u = np.linspace(0.0, 0.5, 64, endpoint=False)
    w = eval_potential(frenkel(PhysParams()), u, 0)
    table = tmp_path / "potential.csv"
    table.write_text("u,W\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(u, w)))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_MA_TABLE_RUN, str(tmp_path), str(table)],
                          capture_output=True, text=True, env=pnedge_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "energy" / "energy.json").exists()


@pytest.mark.parametrize("key, value", [("G", "-1"), ("b", "0"), ("d", "-0.5")])
def test_physical_range_checked_by_params_names_key(key, value):
    # G, b and d are range-checked in one place, where PhysParams is built
    with pytest.raises(ValueError, match=f" {key} must be positive and finite"):
        parse_config(None, {key: value})


def test_write_csv_17_digits(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, {"x": np.array([1.0 / 3.0]), "value": np.array([np.pi])})
    body = path.read_text().splitlines()
    assert body[0] == "x,value"
    x_back, v_back = (float(tok) for tok in body[1].split(","))
    assert x_back == 1.0 / 3.0
    assert v_back == np.pi


def _reference_csv(columns: dict) -> bytes:
    """The per-cell CSV contract: 17 significant digits for floating cells."""
    arrays = [np.atleast_1d(np.asarray(a)) for a in columns.values()]
    lines = [",".join(columns)]
    for i in range(len(arrays[0])):
        lines.append(",".join(format(float(a[i]), ".17g")
                              if isinstance(a[i], np.floating) else str(a[i])
                              for a in arrays))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("columns", [
    {"v": np.array([np.nan, np.inf, -np.inf, 0.0, -0.0]), "i": np.arange(5)},
    {"v": np.array([5e-324, -5e-324, 1.7976931348623157e308, 1.0 / 3.0])},
    {"f32": np.array([0.1, 1.0 / 3.0, -2.5e-30], dtype=np.float32),
     "i64": np.array([-(2**62), 0, 7], dtype=np.int64)},
    {"x": np.random.default_rng(3).standard_normal(_BLOCK_ROWS + 1000) * 1e3,
     "n": np.arange(_BLOCK_ROWS + 1000)},
], ids=["nonfinite_and_signed_zero", "extremes", "float32_int64", "multi_block"])
def test_write_csv_matches_reference(tmp_path, columns):
    path = tmp_path / "t.csv"
    write_csv(path, columns)
    assert path.read_bytes() == _reference_csv(columns)


def test_write_field_csv_matches_reference(tmp_path):
    rng = np.random.default_rng(5)
    x = np.linspace(-30.0, 30.0, 64, endpoint=False)
    ys = np.geomspace(0.1, 10.0, 5)
    levels = np.concatenate([-ys[::-1], ys])
    values = rng.standard_normal((levels.size, x.size))
    values[0, :3] = [np.nan, -0.0, np.inf]
    path = tmp_path / "f.csv"
    write_field_csv(path, x, levels, values)
    expected = _reference_csv({"x": np.tile(x, levels.size),
                               "y": np.repeat(levels, x.size),
                               "value": values.reshape(-1)})
    assert path.read_bytes() == expected


@pytest.mark.parametrize("mirror", [1, -1])
def test_write_field_csv_mirror_writes_the_stacked_array(tmp_path, mirror):
    rng = np.random.default_rng(6)
    x = np.linspace(-30.0, 30.0, 48, endpoint=False)
    ys = np.geomspace(0.1, 10.0, 4)
    plus = rng.standard_normal((ys.size, x.size)) * 10.0 ** rng.uniform(-30.0, 20.0, (4, 48))
    plus[1, :6] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]
    write_field_csv(tmp_path / "stacked.csv", x, np.concatenate([-ys[::-1], ys]),
                    np.vstack([mirror * plus[::-1], plus]))
    write_field_csv(tmp_path / "mirrored.csv", x, ys, plus, mirror=mirror)
    assert (tmp_path / "mirrored.csv").read_bytes() == (tmp_path / "stacked.csv").read_bytes()
    with pytest.raises(ValueError, match="mirror must be None, 1 or -1"):
        write_field_csv(tmp_path / "f.csv", x, ys, plus, mirror=0)
    with pytest.raises(ValueError, match="must be floating"):
        write_field_csv(tmp_path / "f.csv", x, ys, np.ones(plus.shape, int), mirror=mirror)
    with pytest.raises(ValueError, match=r"\(3, 48\).*\(4, 48\)"):
        write_field_csv(tmp_path / "f.csv", x, ys, plus[1:], mirror=mirror)


def test_write_csv_rejects_no_columns(tmp_path):
    with pytest.raises(ValueError, match="at least one column"):
        write_csv(tmp_path / "t.csv", {})


def test_write_field_csv_rejects_shape_mismatch(tmp_path):
    with pytest.raises(ValueError, match=r"\(3, 5\).*\(2, 5\)"):
        write_field_csv(tmp_path / "f.csv", np.arange(5.0), np.array([1.0, 2.0]),
                        np.zeros((3, 5)))
