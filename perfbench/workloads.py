"""Workload inputs, the CLI operations of one pass, and their oracles.

Every workload drives pnedge through ``pnedge.cli.main([...])``.  One
pass runs two groups of subcommands; their times are the end-to-end
metrics ``cmd1_s`` and ``cmd2_s``.  The seed draws the inputs only: the
amount of work in a pass does not depend on it.

Each operation is checked against the library's own oracles at their
current tolerances (the numbered validation checks cited below).  With
the desk-scale defaults G = b = d = 1 the force scale G b / d and the
energy scale G b^2 / d are 1.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: relax: N = 16384 at the default spacing h, i.e. L = 800 zeta
BIG_GRID = (("N", "16384"), ("L_over_zeta", "800"))

#: Static solves are short (about 40 ms at N = 4096, 0.2 s at N = 16384),
#: so a pass repeats them: on a shared host a single solve per pass gives
#: cmd1_s a run-to-run spread above the metric's bound.
FIELDS_SOLVES = 15
RELAX_SOLVE_ROUNDS = 3

RES_TOL = 1e-10          # static solver res_tol (G b / d)
CORE_TOL = 1e-3          # check 02: core error on |x| <= 20 zeta (b)
BURGERS_TOL = 1e-3       # check 12: total Burgers content (b)
DECAY_TOL = 0.05         # check 04: tail amplitudes, relative
ENERGY_TOL = 1e-2        # check 07: energy relation and cross terms, relative
ENERGY_FLOOR = 1e-3      # check 07: denominator floor (G b^2 / d)
MISFIT_TOL = 5e-3        # check 11: misfit energy closed form, relative
FIT_R2 = 0.999           # check 09: affine fit in ln R
F_INCREASE_TOL = 1e-10   # check 10: free energy nonincreasing (G b^2 / d)
RELAX_TOL = 1e-3         # check 10: relaxed profile matches the core (b)
PLANE_STRAIN_TOL = 1e-10  # check 05: sigma33 = nu (sigma11 + sigma22)
ON_PLANE_TOL = 1e-12     # check 05: sigma22 vanishes on the slip plane
MIRROR_TOL = 1e-10       # check 05: mirror symmetry across the slip plane
FORCE_TOL = 1e-6         # check 06: 2 sigma12 = W'(u1) on the slip plane


def _g(x: float) -> str:
    return format(x, ".17g")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``pnedge <command> --set k=v ... --output <dir>``."""

    label: str        # output directory name, unique within a pass
    group: int        # 1 -> cmd1_s, 2 -> cmd2_s
    command: str
    overrides: tuple = ()

    def argv(self, out: Path) -> list[str]:
        sets = [a for k, v in self.overrides for a in ("--set", f"{k}={v}")]
        return [self.command, *sets, "--output", str(out)]

    @property
    def frenkel(self) -> bool:
        return dict(self.overrides).get("potential", "frenkel") == "frenkel"

    @property
    def nu(self) -> float:
        return float(dict(self.overrides).get("nu", 0.25))


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    subcommands: tuple    # what cmd1_s and cmd2_s time, for the record


def _frenkel_table(path: Path, eps: float, samples: int = 64) -> None:
    """Frenkel sinusoid plus ``eps`` times a second harmonic, one period b/2.

    The harmonic ``1 - cos(8 pi u / b)`` vanishes with zero slope at the
    wells u = +-b/4 and adds curvature there, so the table keeps the
    structure ``validate_potential`` requires.  The samples are symmetric
    about the well, so the periodic spline keeps its minimum there.
    """
    a = 1.0 / (4.0 * np.pi**2)
    u = np.arange(samples) * 0.5 / samples
    w = a * (1.0 + np.cos(4.0 * np.pi * u)) + eps * a * (1.0 - np.cos(8.0 * np.pi * u))
    path.write_text("u,W\n" + "".join(f"{_g(ui)},{_g(wi)}\n" for ui, wi in zip(u, w)))


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Draw a workload's inputs from ``seed``; writes the table into ``workdir``."""
    rng = np.random.default_rng(seed)
    if name == "validate":
        s = (("energy_pert_seed", str(seed)),)
        return Workload(name, (Op("validate", 1, "validate", s),
                               Op("energy", 2, "energy", s)),
                        ("validate", "energy"))
    if name == "fields":
        s = (("nu", _g(rng.uniform(0.2, 0.3))),)
        solves = tuple(Op(f"static{i}", 1, "solve-static", s) for i in range(FIELDS_SOLVES))
        return Workload(name, solves + (Op("extend", 2, "extend", s),),
                        (f"solve-static x{FIELDS_SOLVES}", "extend"))
    if name == "relax":
        table = workdir / "potential.csv"
        _frenkel_table(table, float(rng.uniform(0.02, 0.08)))
        bump = BIG_GRID + (("dynamics_bump_amp", _g(rng.uniform(0.05, 0.15))),
                           ("dynamics_bump_width_over_zeta", _g(rng.uniform(0.75, 1.5))),
                           ("dynamics_T_end", "50"), ("dynamics_snapshot_times", "50"))
        solves = tuple(op for r in range(RELAX_SOLVE_ROUNDS) for op in (
            Op(f"static_tanh{r}", 1, "solve-static", BIG_GRID),
            Op(f"static_bg2_{r}", 1, "solve-static",
               BIG_GRID + (("static_init", "background:2"),)),
            Op(f"static_table{r}", 1, "solve-static",
               BIG_GRID + (("potential", f"table:{table}"),)),
        ))
        return Workload(name, solves + (
            Op("dyn_si", 2, "dynamics", bump + (("dynamics_method", "semi_implicit"),)),
            Op("dyn_etd", 2, "dynamics", bump + (("dynamics_method", "etd"),)),
        ), (f"solve-static x{3 * RELAX_SOLVE_ROUNDS} (tanh, background:2, table)",
            "dynamics x2 (semi_implicit, etd)"))
    raise ValueError(f"unknown workload {name!r}")


def build_inputs(name: str, seed: int, workdir: Path):
    """Everything a pass needs before its first CLI call: the workload, and
    per operation its config, grid and potential (tables loaded and
    structurally validated)."""
    from pnedge import build_grid, frenkel, from_csv, parse_config, validate_potential

    wl = build(name, seed, workdir)
    inputs = []
    for op in wl.ops:
        cfg = parse_config(None, dict(op.overrides))
        grid = build_grid(cfg.L_over_zeta * cfg.zeta, cfg.N)
        if cfg.potential == "frenkel":
            spec = frenkel(cfg.params)
        else:
            spec = from_csv(cfg.params, cfg.potential.split(":", 1)[1])
            if not validate_potential(spec).passed:
                raise ValueError(f"generated potential table fails validation: {cfg.potential}")
        inputs.append((cfg, grid, spec))
    return wl, inputs


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every output file except the manifest (it holds a timestamp)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _arctan_core(x, nu):
    zeta = 1.0 / (2.0 * (1.0 - nu))
    return -np.arctan(x / zeta) / (2.0 * np.pi), zeta


def _frenkel_force(u1):
    return -np.sin(4.0 * np.pi * u1) / np.pi


def _leq(failures, what, value, tol):
    if not value <= tol:
        failures.append(f"{what}: {value:.3e} > {tol:.1e}")


def check_static(op: Op, out: Path) -> list[str]:
    f: list[str] = []
    summary = json.loads((out / "summary.json").read_text())
    _leq(f, "burgers total", abs(summary["burgers_total"] - 1.0), BURGERS_TOL)
    if op.frenkel:
        prof = _read_csv(out / "profile.csv")
        x, u1 = prof[:, 0], prof[:, 1]
        exact, zeta = _arctan_core(x, op.nu)
        core = np.abs(x) <= 20.0 * zeta
        _leq(f, "core error", float(np.max(np.abs(u1 - exact)[core])), CORE_TOL)
        target = zeta / (2.0 * np.pi)
        worst = max(abs(summary["decay_plus"] - target),
                    abs(summary["decay_minus"] - target)) / target
        _leq(f, "decay amplitude", worst, DECAY_TOL)
    return f


def check_extend(op: Op, out: Path, profile_csv: Path) -> list[str]:
    f: list[str] = []
    fields = {name: _read_csv(out / f"{name}.csv")
              for name in ("u1", "sigma11", "sigma22", "sigma33")}
    y = fields["u1"][:, 1]
    levels = np.unique(y)
    n_x = len(y) // len(levels)
    u1 = fields["u1"][:, 2].reshape(len(levels), n_x)
    mirror = np.max(np.abs(u1 + u1[::-1])) / np.max(np.abs(u1))
    _leq(f, "mirror symmetry", float(mirror), MIRROR_TOL)
    s11, s22, s33 = (fields[k][:, 2] for k in ("sigma11", "sigma22", "sigma33"))
    plane = np.max(np.abs(s33 - op.nu * (s11 + s22))) / np.max(np.abs(s33))
    _leq(f, "plane strain", float(plane), PLANE_STRAIN_TOL)
    traction = _read_csv(out / "traction.csv")
    _leq(f, "sigma22 on the plane", float(np.max(np.abs(traction[:, 2]))), ON_PLANE_TOL)
    # the solve-static profile of the same config is centered by a shift
    # of order 1e-9 zeta, far below what moves W'(u1) at this tolerance
    prof = _read_csv(profile_csv)
    balance = np.max(np.abs(2.0 * traction[:, 1] - _frenkel_force(prof[:, 1])))
    _leq(f, "force balance 2 sigma12 = W'(u1)", float(balance), FORCE_TOL)
    return f


def check_validate(out: Path) -> list[str]:
    report = json.loads((out / "report.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    f = [f"check failed: {n}" for n in failed]
    if not report["all_pass"] and not failed:
        f.append("report all_pass is false")
    if len(report["checks"]) != 30:
        f.append(f"report holds {len(report['checks'])} checks, expected 30")
    return f


def check_energy(out: Path) -> list[str]:
    f: list[str] = []
    payload = json.loads((out / "energy.json").read_text())
    target = _arctan_core(0.0, 0.25)[1] / (2.0 * np.pi)  # G b^2 zeta / (2 pi d)
    for i, bd in enumerate(payload["perturbations"]):
        eg = bd["E_hat_gamma"]
        _leq(f, f"perturbation {i} energy relation",
             abs(bd["E_hat_total"] - eg) / max(abs(eg), ENERGY_FLOOR), ENERGY_TOL)
        cg = bd["cross_gamma"]
        _leq(f, f"perturbation {i} cross terms",
             abs(bd["cross_els"] - cg) / max(abs(cg), ENERGY_FLOOR), ENERGY_TOL)
        _leq(f, f"perturbation {i} misfit energy",
             abs(bd["E_mis"] - target) / target, MISFIT_TOL)
    fit = payload["log_divergence"]
    if not fit["r_squared"] >= FIT_R2:
        f.append(f"log fit R^2 {fit['r_squared']:.6f} < {FIT_R2}")
    if not fit["slope"] > 0.0:
        f.append(f"log fit slope {fit['slope']:.3e} not positive")
    box = _read_csv(out / "energy_box.csv")
    if not np.all(np.diff(box[:, 1]) > 0):
        f.append("boxed energy does not grow with R")
    return f


def check_dynamics(out: Path, t_end: float = 50.0) -> list[str]:
    f: list[str] = []
    tr = _read_csv(out / "trace.csv")
    t, F, Q = tr[:, 0], tr[:, 1], tr[:, 2]
    _leq(f, "free energy increase", float(np.max(np.diff(F))), F_INCREASE_TOL)
    if not np.all(Q >= 0.0):
        f.append("negative dissipation rate")
    if not abs(t[-1] - t_end) <= 1e-9:
        f.append(f"run ended at t = {t[-1]!r}, not {t_end}")
    # the bump relaxes to a (possibly translated) core: compare with the
    # arctan core centered at the zero crossing of the final profile
    snap = _read_csv(out / f"snapshot_t{t_end:g}.csv")
    x, u1 = snap[:, 0], snap[:, 1]
    j = int(np.flatnonzero((u1[:-1] > 0.0) & (u1[1:] <= 0.0))[0])
    x0 = x[j] + (x[j + 1] - x[j]) * u1[j] / (u1[j] - u1[j + 1])
    exact, zeta = _arctan_core(x - x0, 0.25)
    core = np.abs(x - x0) <= 20.0 * zeta
    _leq(f, "relaxation to the core", float(np.max(np.abs(u1 - exact)[core])), RELAX_TOL)
    return f
