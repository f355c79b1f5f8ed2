"""Command-line interface.

Subcommands: solve-static, extend, energy, dynamics, validate.
Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from functools import cache

import numpy as np

from .config import (
    RunConfig,
    _snapshot_file,
    box_radii,
    dynamics_start,
    energy_perturbations,
    initial_profile,
    parse_config,
    run_setup,
    snapshot_times,
)
from .dynamics import _STEPPERS, DynamicsTrace, run_dynamics
from .energy import (
    BoxQuadrature,
    HalfPlaneTables,
    energy_breakdown,
    log_divergence_fit,
    misfit_energy,
)
from .errors import TimeStepUnderflowError
from .extension import PARITY, YLevels, dtn_traction, extend_to_half_planes, stress_field
from .io import prepare_output_dir, write_csv, write_field_csv, write_manifest
from .static import (
    burgers_density,
    center_profile,
    decay_coefficients,
    residual,
    solve_static,
)
from .validation import report_dict, run_validation


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pnedge",
        description="Spectral solver for the static and dynamic core structure "
                    "of an edge dislocation",
    )
    ap.add_argument("--config", help="key = value configuration file")
    ap.add_argument("--output", help="output directory (overrides config)")
    ap.add_argument("--overwrite", action="store_true",
                    help="allow writing into a directory that already holds results")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override any config key (repeatable)")
    ap.add_argument("command",
                    choices=["solve-static", "extend", "energy", "dynamics", "validate"])
    return ap


def _config_from_args(args) -> RunConfig:
    overrides: dict = {}
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.output is not None:
        overrides["output"] = args.output
    if args.overwrite:
        overrides["overwrite"] = "true"
    return parse_config(args.config, overrides)


@contextmanager
def _timed(timings: dict, key: str):
    """Add the seconds spent in the block to ``timings[key]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0


def _bytes_written(paths) -> dict:
    """Manifest entry of the size in bytes of each CSV a command wrote."""
    return {"bytes_written": {p.name: p.stat().st_size for p in paths}}


def cmd_solve_static(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    params, grid, spec = run_setup(cfg)
    out = prepare_output_dir(cfg.output, cfg.overwrite)
    state = solve_static(initial_profile(cfg, grid, params), spec)
    shift, centered = center_profile(state.profile)
    cp, cm = decay_coefficients(centered)
    rho, total = burgers_density(centered)
    rf = residual(centered, spec)
    timings: dict = {}
    with _timed(timings, "write"):
        write_csv(out / "profile.csv", {
            "x": grid.x, "u1": centered.u1, "v": centered.v,
            "rho": rho, "residual": rf.samples,
        })
    summary = {
        "residual_linf": rf.linf, "residual_l2": rf.l2,
        "shift": shift, "decay_plus": cp, "decay_minus": cm,
        "burgers_total": total, "iterations": state.iterations,
        "newton_steps": state.newton_steps, "monotone": state.monotone,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    timings["total"] = time.perf_counter() - t0
    write_manifest(out / "manifest.json", cfg.echo(), "solve-static", timings,
                   extra=_bytes_written([out / "profile.csv"]))
    return 0


def _field_csv(component: str) -> str:
    """File name of a field component: ``u1.csv``, ``s11`` -> ``sigma11.csv``."""
    return ("sigma" + component[1:] if component[0] == "s" else component) + ".csv"


def cmd_extend(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    params, grid, spec = run_setup(cfg)
    out = prepare_output_dir(cfg.output, cfg.overwrite)
    profile = solve_static(initial_profile(cfg, grid, params), spec).profile
    z = params.zeta
    yl = YLevels.geometric(cfg.ylevels_y_min_over_zeta * z,
                           cfg.ylevels_y_max_over_zeta * z, cfg.ylevels_count)
    upper = {**extend_to_half_planes(profile, yl), **stress_field(profile, yl)}
    s12_gamma, s22_gamma = dtn_traction(profile)
    timings: dict = {}
    paths = [out / _field_csv(c) for c in upper] + [out / "traction.csv"]
    while upper:  # a component's array is released once it is written
        c, values = upper.popitem()
        with _timed(timings, "write"):
            write_field_csv(out / _field_csv(c), grid.x, yl.values, values, mirror=PARITY[c])
        del values
    with _timed(timings, "write"):
        write_csv(out / "traction.csv", {"x": grid.x, "sigma12": s12_gamma,
                                         "sigma22": s22_gamma})
    timings["total"] = time.perf_counter() - t0
    write_manifest(out / "manifest.json", cfg.echo(), "extend", timings,
                   extra={"gauges": {"u2_zero_mode": 0.0,
                                     "note": "u2 defined up to an additive constant"},
                          "grid": {"L": grid.L, "N": grid.N, "h": grid.h},
                          **_bytes_written(paths)})
    return 0


def cmd_energy(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    radii = box_radii(cfg)
    params, grid, spec = run_setup(cfg)
    out = prepare_output_dir(cfg.output, cfg.overwrite)
    state = solve_static(initial_profile(cfg, grid, params), spec)
    E_box, slope, intercept, r2 = log_divergence_fit(state.profile, radii)
    tables = HalfPlaneTables.build(state.profile, BoxQuadrature.for_params(params))
    # per-profile values, kept in each perturbation's record of energy.json
    profile_pieces = {"E_mis": misfit_energy(state), "E_els_box": E_box[-1],
                      "box_radius": radii[-1]}
    records = [{**asdict(energy_breakdown(ph, state, tables)), **profile_pieces}
               for ph in energy_perturbations(cfg, grid, params)]
    payload = {
        "perturbations": records,
        "log_divergence": {"slope": slope, "intercept": intercept, "r_squared": r2},
    }
    (out / "energy.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    timings: dict = {}
    with _timed(timings, "write"):
        write_csv(out / "energy_box.csv", {
            "R": np.asarray(radii),
            "E": np.array(E_box),
        })
    timings["total"] = time.perf_counter() - t0
    write_manifest(out / "manifest.json", cfg.echo(), "energy", timings,
                   extra=_bytes_written([out / "energy_box.csv"]))
    return 0


def _write_trace_csv(path, arr: dict) -> None:
    write_csv(path, {"t": arr["times"], "F": arr["F_values"], "Q": arr["Q_values"],
                     "residual": arr["residual_norms"], "dt": arr["dt_history"]})


def cmd_dynamics(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    params, grid, spec = run_setup(cfg)
    s0 = dynamics_start(cfg, grid, params, spec)
    step = _STEPPERS[cfg.dynamics_method]
    out = prepare_output_dir(cfg.output, cfg.overwrite)
    aborted = None
    try:
        _, trace = run_dynamics(s0, cfg.dynamics_T_end, step, stops=snapshot_times(cfg))
    except TimeStepUnderflowError as exc:
        # keep what was reached: the trace up to the failure and the
        # snapshots the run passed before it
        aborted, trace = exc, exc.trace
    timings: dict = {}
    paths = []
    with _timed(timings, "write"):
        if trace is not None:
            paths.append(out / "trace.csv")
            _write_trace_csv(paths[0], trace.as_arrays())
            for t, p in trace.snapshots.items():
                paths.append(out / _snapshot_file(t))
                write_csv(paths[-1], {"x": grid.x, "u1": p.u1})
    timings["total"] = time.perf_counter() - t0
    extra = _bytes_written(paths)
    extra["steps"] = (trace or DynamicsTrace()).step_counts
    if aborted is not None:
        extra["aborted"] = str(aborted)
    write_manifest(out / "manifest.json", cfg.echo(), "dynamics", timings, extra=extra)
    if aborted is not None:
        raise aborted
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    # reject a bad radius (check 09 reads them) or potential before the suite runs
    box_radii(cfg)
    run_setup(cfg)
    out = prepare_output_dir(cfg.output, cfg.overwrite)
    timings: dict = {}
    results = run_validation(cfg, timings)
    for r in results:
        print(r.line())
    report = report_dict(results)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    timings["total"] = time.perf_counter() - t0
    write_manifest(out / "manifest.json", cfg.echo(), "validate", timings)
    return 0 if report["all_pass"] else 1


_COMMANDS = {
    "solve-static": cmd_solve_static,
    "extend": cmd_extend,
    "energy": cmd_energy,
    "dynamics": cmd_dynamics,
    "validate": cmd_validate,
}


#: glibc malloc thresholds fixed by :func:`main` (bytes): blocks of 4 MiB
#: or more are mapped on their own, and the heap gives back free space at
#: its top beyond 2 MiB
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 2 << 20


@cache
def _fix_malloc_thresholds() -> None:
    """Fix glibc's malloc thresholds for the rest of the process.

    By default glibc raises its mmap threshold to the size of each large
    block freed, so later blocks of that size come from the heap.  There
    a small live object can split the free space, and the heap grows for
    the next large block.  In a process that runs many commands (tests,
    a benchmark, a notebook) the peak resident size then depends on
    timing: the same solve-static and extend sequence peaked at 65 or at
    75 MB depending on CPU contention.  With fixed thresholds every block
    of 4 MiB or more is mapped on its own and returned when freed, while
    the solver's arrays, well below that, are reused from the heap.  A
    trim threshold of 128 KiB (glibc's default) made the N = 16384 solves
    about 10% slower; one of 4 MiB kept the peak steady but about 8 MB
    higher.  Nothing is done where the C library has no ``mallopt``.
    """
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except (ValueError, OSError, RuntimeError) as exc:
        # runtime failures (incl. TimeStepUnderflowError, ConvergenceError)
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
