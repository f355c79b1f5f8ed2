"""Run configuration: plain-text key = value files with flag overrides.

File lines and flag pairs take one path into the configuration, and the
result is validated once, after the flags, so a flag may replace a file
value that would be rejected on its own.  The echoed form lists every
key (defaults made explicit, derived ``zeta`` included) and parses back
to an identical configuration, which is what the output manifests hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .dynamics import _STEPPERS, DynamicsState
from .energy import Perturbation, _first_level, seeded_perturbations
from .grid import Grid1D
from .params import PhysParams
from .potential import PotentialSpec, frenkel, from_csv, validate_potential
from .profile import Profile, analytic_profile, tanh_profile
from .static import solve_static


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


@dataclass(frozen=True)
class RunConfig:
    """Flattened configuration for every subcommand."""

    # physical parameters
    G: float = 1.0
    nu: float = 0.25
    b: float = 1.0
    d: float = 1.0
    # grid
    L_over_zeta: float = 200.0
    N: int = 4096
    # potential: "frenkel" or "table:<path>"
    potential: str = "frenkel"
    # orchestration
    output: str = "out"
    overwrite: bool = False
    # extension block
    ylevels_y_min_over_zeta: float = 0.1
    ylevels_y_max_over_zeta: float = 10.0
    ylevels_count: int = 24
    # energy block
    energy_box_radii_over_zeta: str = "5,10,20,40"
    energy_n_perturbations: int = 10
    energy_pert_seed: int = 2024
    # dynamics block
    dynamics_T_end: float = 50.0
    dynamics_method: str = "semi_implicit"
    dynamics_bump_amp: float = 0.1
    dynamics_bump_width_over_zeta: float = 1.0
    dynamics_snapshot_times: str = ""
    # static block
    static_init: str = "tanh"  # tanh | analytic | background:<width_over_zeta>

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"config key '{f.name}' must be finite, got {value}")
        for key in _POSITIVE_KEYS:
            if getattr(self, key) <= 0:
                raise ValueError(f"config key '{key}' must be positive, got {getattr(self, key)}")
        if self.ylevels_y_max_over_zeta <= self.ylevels_y_min_over_zeta:
            raise ValueError(
                "config key 'ylevels_y_max_over_zeta' must exceed ylevels_y_min_over_zeta, "
                f"got {self.ylevels_y_max_over_zeta} <= {self.ylevels_y_min_over_zeta}")
        if not 0.0 < self.nu < 0.5:
            raise ValueError(f"config key 'nu' must lie in (0, 1/2), got {self.nu}")
        self.params  # PhysParams checks G, b and d
        if self.N % 2 != 0 or self.N < 4:
            raise ValueError(f"config key 'N' must be even and >= 4, got {self.N}")
        if self.dynamics_method not in _STEPPERS:
            raise ValueError(
                f"config key 'dynamics_method' must be {' or '.join(_STEPPERS)}, "
                f"got {self.dynamics_method!r}")
        if not (self.potential == "frenkel" or self.potential.startswith("table:")):
            raise ValueError("config key 'potential' must be 'frenkel' or 'table:<path>'")
        radii = _radii(self)
        # a box quadrature starts at the first level: a radius must lie beyond it
        # (the bound by L/2 is box_radii's, checked by the commands that read them)
        y_min = _first_level(self.params)
        if len(set(radii)) < 2 or not all(y_min < r < math.inf for r in radii):
            raise ValueError(
                "config key 'energy_box_radii_over_zeta' must list at least two distinct "
                f"finite radii above 1/50, got {self.energy_box_radii_over_zeta!r}")
        times = snapshot_times(self)
        if not all(0.0 < t <= self.dynamics_T_end for t in times):
            raise ValueError(
                "config key 'dynamics_snapshot_times' must lie in (0, dynamics_T_end], "
                f"got {self.dynamics_snapshot_times!r}")
        if len({_snapshot_file(t) for t in times}) < len(times):
            raise ValueError("config key 'dynamics_snapshot_times' must name distinct files "
                             f"snapshot_t<t:g>.csv, got {self.dynamics_snapshot_times!r}")
        parse_static_init(self)

    @property
    def params(self) -> PhysParams:
        return PhysParams(G=self.G, nu=self.nu, b=self.b, d=self.d)

    @property
    def zeta(self) -> float:
        return self.params.zeta

    def echo(self) -> str:
        """Canonical text form; every key explicit, derived zeta included."""
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {_fmt(getattr(self, f.name))}")
        lines.append(f"zeta = {_fmt(self.zeta)}")
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}

#: keys whose value must be > 0 (floats are also checked for finiteness)
_POSITIVE_KEYS = ("L_over_zeta", "dynamics_T_end", "dynamics_bump_width_over_zeta",
                  "energy_n_perturbations", "ylevels_count", "ylevels_y_min_over_zeta",
                  "ylevels_y_max_over_zeta")

#: the parser of a value's text, by its key's type
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}


def _updated(cfg: RunConfig, items) -> RunConfig:
    """``cfg`` with each ``(key, text)`` of ``items`` set, not yet validated:
    the one path of file lines and flag pairs.  An unknown key, or a text
    that is not of its key's type, is rejected by name."""
    updates = {}
    for key, text in items:
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key '{key}'")
        ftype, text = _FIELD_TYPES[key], str(text).strip()
        try:
            updates[key] = _PARSERS[ftype](text)
        except ValueError:
            raise ValueError(f"config key '{key}' must parse as {ftype}, got {text!r}") from None
    return replace(cfg, **updates)


def _file_config(text: str) -> RunConfig:
    """The defaults updated by the ``key = value`` lines of a config file.

    A ``zeta`` line (the echo's derived value) must agree with the
    file's own d and nu; when those are out of range it is not checked,
    and validation rejects them unless a flag replaces them.
    """
    items, zeta = [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "zeta":
            zeta = float(value)
        else:
            items.append((key, value))
    cfg = _updated(RunConfig(), items)
    if zeta is not None:
        try:
            derived = cfg.zeta
        except ValueError:  # a physical value out of range: a flag may replace it
            return cfg
        if abs(zeta - derived) > 1e-12 * max(1.0, derived):
            raise ValueError(
                f"config key 'zeta' = {zeta} inconsistent with d/(2(1-nu)) = {derived}")
    return cfg


def parse_config_text(text: str, overrides: dict | None = None) -> RunConfig:
    """The configuration of a config file's text with ``overrides`` (key to
    value) on top, validated once."""
    cfg = _updated(_file_config(text), (overrides or {}).items())
    cfg.validate()
    return cfg


def parse_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Load a config file (optional) and apply flag overrides on top."""
    return parse_config_text(Path(path).read_text() if path is not None else "", overrides)


def _floats(key: str, text: str) -> list[float]:
    """The comma-separated numbers of a list-valued key."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"config key '{key}' must be comma-separated numbers, "
                         f"got {text!r}") from None


def _radii(cfg: RunConfig) -> list[float]:
    return [r * cfg.zeta for r in _floats("energy_box_radii_over_zeta",
                                          cfg.energy_box_radii_over_zeta)]


def box_radii(cfg: RunConfig) -> list[float]:
    """The radii of the boxed elastic energies.  A box must fit in the
    grid, so each radius is at most L/2; only the commands that read the
    radii (``energy`` and ``validate``) require that."""
    radii = _radii(cfg)
    if max(radii) > cfg.L_over_zeta * cfg.zeta / 2.0:
        raise ValueError(
            "config key 'energy_box_radii_over_zeta' must not exceed L_over_zeta/2 = "
            f"{cfg.L_over_zeta / 2.0:g}, got {cfg.energy_box_radii_over_zeta!r}")
    return radii


def snapshot_times(cfg: RunConfig) -> list[float]:
    """The times a dynamics run writes a snapshot at: the listed ones and
    ``dynamics_T_end``, sorted, or none when no time is listed."""
    times = _floats("dynamics_snapshot_times", cfg.dynamics_snapshot_times)
    return sorted(set(times) | {cfg.dynamics_T_end}) if times else []


def _snapshot_file(t: float) -> str:
    """Name of the snapshot file of time t."""
    return f"snapshot_t{t:g}.csv"


def run_setup(cfg: RunConfig) -> tuple[PhysParams, Grid1D, PotentialSpec]:
    """Physical parameters, grid and misfit potential of a run; a table
    that fails :func:`~pnedge.potential.validate_potential` is rejected."""
    params = cfg.params
    grid = Grid1D(cfg.L_over_zeta * params.zeta, cfg.N)
    if cfg.potential == "frenkel":
        return params, grid, frenkel(params)
    try:
        spec = from_csv(params, cfg.potential.split(":", 1)[1])
    except (OSError, ValueError) as exc:
        raise ValueError(f"config key 'potential': {exc}") from exc
    report = validate_potential(spec)
    if not report.passed:
        raise ValueError(f"config key 'potential': misfit potential fails structural "
                         f"checks: {report}")
    return params, grid, spec


def parse_static_init(cfg: RunConfig) -> tuple[str, Optional[float]]:
    """The start of a static solve: ``("tanh", None)``, ``("analytic", None)``
    or ``("background", width_over_zeta)``."""
    choice = cfg.static_init
    if choice in ("tanh", "analytic"):
        return choice, None
    kind, _, width = choice.partition(":")
    if kind == "background":
        try:
            value = float(width)
        except ValueError:
            value = math.nan
        if 0.0 < value < math.inf:
            return kind, value
    raise ValueError("config key 'static_init' must be tanh, analytic or "
                     f"background:<positive width_over_zeta>, got {choice!r}")


def initial_profile(cfg: RunConfig, grid: Grid1D, params: PhysParams) -> Profile:
    """The profile a static solve starts from (:func:`parse_static_init`)."""
    kind, width = parse_static_init(cfg)
    if kind == "tanh":
        return tanh_profile(grid, params)
    if kind == "analytic":
        return analytic_profile(grid, params)
    return Profile(grid=grid, params=params, zeta_bg=width * params.zeta)


def energy_perturbations(cfg: RunConfig, grid: Grid1D,
                         params: PhysParams) -> list[Perturbation]:
    """The seeded perturbations whose energies ``pnedge energy`` and check 07
    compare."""
    return seeded_perturbations(grid, params, cfg.energy_n_perturbations,
                                seed=cfg.energy_pert_seed)


def dynamics_start(cfg: RunConfig, grid: Grid1D, params: PhysParams,
                   spec: PotentialSpec) -> DynamicsState:
    """The static core under ``spec`` plus a Gaussian bump at t = 0, with
    that core as the reference of F.  The core is solved from the analytic
    one, which under Frenkel is already static and is its own solve."""
    ref = solve_static(analytic_profile(grid, params), spec)
    bump = cfg.dynamics_bump_amp * params.b * np.exp(
        -(grid.x**2) / (cfg.dynamics_bump_width_over_zeta * params.zeta) ** 2
    )
    return DynamicsState(t=0.0, p=ref.profile.with_correction(ref.profile.v + bump),
                         reference=ref)
