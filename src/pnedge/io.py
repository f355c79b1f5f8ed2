"""Artifact serialization: CSV tables and JSON manifests.

Numeric CSV cells carry 17 significant digits so float64 values
round-trip exactly and reruns are byte-identical.  Cells are formatted
by printf templates: ``"%.17g"`` for floating columns, which is the same
CPython routine as ``format(v, ".17g")``, and ``"%s"`` (``str(v)``) for
the rest.  :func:`write_csv` applies one row template to blocks of
rows; :func:`write_field_csv` formats the x column once and writes one
y-level at a time.
"""

from __future__ import annotations

import hashlib
import json
import time
from itertools import chain
from pathlib import Path

import numpy as np

#: rows formatted by one ``%`` application in :func:`write_csv`.  Every
#: table written at N <= 65536 is one block, so a write frees one
#: file-sized string.  glibc raises its mmap and trim thresholds to the
#: largest mapping freed so far; with 4096-row blocks they stayed low
#: enough that N = 16384 solves and dynamics run later in the same process
#: page-faulted their temporaries back in on every step (1.3 M minor
#: faults per two dynamics runs).
_BLOCK_ROWS = 65536


def _spec(a: np.ndarray) -> str:
    return "%.17g" if a.dtype.kind == "f" else "%s"


def write_csv(path, columns: dict) -> None:
    """Write named columns (equal-length 1-D arrays) with a header row."""
    names = list(columns)
    if not names:
        raise ValueError("CSV needs at least one column")
    arrays = [np.atleast_1d(np.asarray(columns[n])) for n in names]
    n = len(arrays[0])
    if any(a.ndim != 1 or len(a) != n for a in arrays):
        raise ValueError("CSV columns must be one-dimensional with equal length")
    row = ",".join(_spec(a) for a in arrays) + "\n"
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            block = [a[start:start + _BLOCK_ROWS].tolist() for a in arrays]
            f.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def write_samples_csv(path, x: np.ndarray, value: np.ndarray) -> None:
    """Canonical sample-array serialization (columns x, value)."""
    write_csv(path, {"x": x, "value": value})


def write_field_csv(path, x: np.ndarray, y_levels: np.ndarray, values: np.ndarray) -> None:
    """Flatten a (level, x) field to columns x, y, value.

    ``x`` and ``y_levels`` are numeric 1-D arrays and ``values`` has
    shape ``(len(y_levels), len(x))``.
    """
    x, y_levels, values = np.asarray(x), np.asarray(y_levels), np.asarray(values)
    if x.ndim != 1 or y_levels.ndim != 1 or values.shape != (y_levels.size, x.size):
        raise ValueError(f"field values have shape {values.shape}, expected "
                         f"(len(y_levels), len(x)) = {(y_levels.size, x.size)}")
    # numeric cells contain neither '%' nor the '@y@' slot marker
    x_spec, y_spec, v_spec = _spec(x), _spec(y_levels), _spec(values)
    level = "".join(f"{x_spec % v},@y@,{v_spec}\n" for v in x.tolist())
    with open(path, "w") as f:
        f.write("x,y,value\n")
        for y, row in zip(y_levels.tolist(), values):
            f.write(level.replace("@y@", y_spec % y) % tuple(row.tolist()))


def config_hash(echo_text: str) -> str:
    return hashlib.sha256(echo_text.encode()).hexdigest()


#: model units carried by every artifact (all quantities dimensionless
#: multiples of these)
UNITS = {
    "length": "b",
    "displacement": "b",
    "stress": "G",
    "force_per_area": "G*b/d",
    "energy_per_length": "G*b^2/d",
    "time": "d/G",
}


def write_manifest(path, cfg_echo: str, command: str, timings_s: dict,
                   extra: dict | None = None) -> None:
    from . import __version__

    manifest = {
        "format_version": "1",
        "package_version": __version__,
        "command": command,
        "config_hash": config_hash(cfg_echo),
        "config_echo": cfg_echo,
        "timings_s": timings_s,
        "units": UNITS,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if extra:
        manifest.update(extra)
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def prepare_output_dir(path, overwrite: bool) -> Path:
    """Create the output directory; refuse to reuse one unless overwriting."""
    out = Path(path)
    marker = out / "manifest.json"
    if marker.exists() and not overwrite:
        raise FileExistsError(
            f"output directory {out} already holds results; pass --overwrite to replace"
        )
    out.mkdir(parents=True, exist_ok=True)
    return out
