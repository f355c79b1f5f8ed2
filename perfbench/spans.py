"""In-memory span tracer for the per-layer metrics.

The tracer wraps public pnedge functions from the outside: each wrapped
call records a span (id, parent id, name, start, end, FFT calls made
inside it), keeps it in memory, and the spans are written out when the
run ends.  Self time of a span is its duration minus the time covered
by its child spans.

pnedge binds functions by ``from .x import y``, through
``dynamics._STEPPERS`` and through ``validation._ALL_CHECKS``, so a
wrapper replaces the original object wherever it is bound: in every
``pnedge.*`` module namespace, in module-level dicts, and in the check
list.  ``numpy.fft`` transforms are counted (calls, points, bytes
computed from array sizes) when pnedge calls them; they get no span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: (span name, defining module, attribute).  Span names are the layer
#: metric prefixes.
TARGETS = [
    ("operators.apply_half_laplacian", "pnedge.operators", "apply_half_laplacian"),
    ("operators.hs_seminorm_grid", "pnedge.operators", "hs_seminorm_grid"),
    ("potential.eval_potential", "pnedge.potential", "eval_potential"),
    ("static.solve_static", "pnedge.static", "solve_static"),
    ("static.minres", "pnedge.static", "minres"),
    ("static.residual", "pnedge.static", "residual"),
    ("extension.extend_trace_strains", "pnedge.extension", "extend_trace_strains"),
    ("extension.extend_to_half_planes", "pnedge.extension", "extend_to_half_planes"),
    ("extension.stress_field", "pnedge.extension", "stress_field"),
    ("extension.dtn_traction", "pnedge.extension", "dtn_traction"),
    ("energy.elastic_energy_of_trace", "pnedge.energy", "elastic_energy_of_trace"),
    ("energy.cross_term_elastic", "pnedge.energy", "cross_term_elastic"),
    ("energy.elastic_energy_box", "pnedge.energy", "elastic_energy_box"),
    ("energy.competitor_energy", "pnedge.energy", "competitor_energy"),
    ("energy.reduced_perturbed_energy", "pnedge.energy", "reduced_perturbed_energy"),
    ("dynamics.step", "pnedge.dynamics", "step_semi_implicit"),
    ("dynamics.step", "pnedge.dynamics", "step_etd"),
    ("dynamics.free_energy", "pnedge.dynamics", "free_energy"),
    ("dynamics.run_dynamics", "pnedge.dynamics", "run_dynamics"),
    ("io.write_field_csv", "pnedge.io", "write_field_csv"),
    ("io.write_csv", "pnedge.io", "write_csv"),
]

_FFT_C2C = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
_FFT_C2R = ("irfft", "irfft2", "irfftn", "hfft")
_FFT_R2C = ("rfft", "rfft2", "rfftn", "ihfft")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []       # (id, parent, name, t0, t1, fft_calls)
        self._stack: list[tuple] = []      # (id, name, fft calls at start)
        self._next_id = 0
        self.fft_calls = 0
        self.fft_points = 0
        self.fft_bytes = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.solver_residuals: list[float] = []
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open_span(self, name: str) -> float:
        self._stack.append((self._next_id, name, self.fft_calls))
        self._next_id += 1
        return time.perf_counter()

    def close_span(self, name: str, t0: float) -> None:
        t1 = time.perf_counter()
        sid, _, fft0 = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((sid, parent, name, t0, t1, self.fft_calls - fft0))

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = self.open_span(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close_span(name, t0)
            if on_result is not None:
                on_result(self, name, args, out)
            return out

        return traced

    # -- FFT counting ----------------------------------------------------------

    def _wrap_fft(self, kind: str, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("pnedge"):
                arr = np.asarray(a)
                self.fft_calls += 1
                # samples of the real-space signal: input for r2c, output otherwise
                self.fft_points += arr.size if kind == "r2c" else out.size
                self.fft_bytes += arr.nbytes + out.nbytes
            return out

        return counted

    # -- installation ---------------------------------------------------------

    def _rebind(self, orig, wrapped, modules, home: str) -> None:
        for mod in modules:
            # write_field_csv calls write_csv: leaving pnedge.io's own binding
            # unwrapped keeps field CSVs out of the io.write_csv totals
            if mod.__name__ == home == "pnedge.io":
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._restore.append((value, k, v))
                            value[k] = wrapped

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "pnedge" or n.startswith("pnedge.")) and m is not None]
        hooks = {
            "static.solve_static": _after_solve,
            "dynamics.run_dynamics": _after_run_dynamics,
            "io.write_csv": _after_write,
            "io.write_field_csv": _after_write,
        }
        for name, modname, attr in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            self._rebind(orig, self.wrap(name, orig, hooks.get(name)), modules, modname)
        checks = sys.modules["pnedge.validation"]._ALL_CHECKS
        for i, fn in enumerate(list(checks)):
            self._restore.append((checks, i, fn))
            checks[i] = self.wrap(f"validation.check_{i + 1:02d}", fn)
        for group, kind in ((_FFT_C2C, "c2c"), (_FFT_C2R, "c2r"), (_FFT_R2C, "r2c")):
            for attr in group:
                orig = getattr(np.fft, attr)
                self._restore.append((np.fft, attr, orig))
                setattr(np.fft, attr, self._wrap_fft(kind, orig))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, (dict, list)):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, ffts in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "fft_calls": ffts}) + "\n")

    def fft_calls_by_span(self, prefix: str) -> dict[str, int]:
        """FFT calls made inside each span whose name starts with ``prefix``."""
        out: dict[str, int] = defaultdict(int)
        for _, _, name, _, _, ffts in self.spans:
            if name.startswith(prefix):
                out[name] += ffts
        return dict(out)


def _after_solve(tracer, name, args, result) -> None:
    tracer.counts["static.sweep_iterations"] += result.iterations
    tracer.counts["static.newton_steps"] += result.newton_steps
    tracer.counts["static.nonmonotone_results"] += not result.monotone
    tracer.solver_residuals.append(result.residual.linf)


def _after_run_dynamics(tracer, name, args, result) -> None:
    _, trace = result
    tracer.counts["dynamics.accepted_steps"] += len(trace.times) - 1


def _after_write(tracer, name, args, result) -> None:
    tracer.counts[name + ".bytes"] += os.path.getsize(args[0])


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: metrics that are counts of work and must repeat exactly between passes
COUNT_SUFFIXES = (".calls", ".attempts", ".points", ".bytes_computed", ".bytes",
                  "sweep_iterations", "newton_steps", "accepted_steps",
                  "nonmonotone_results", "warnings")


def layer_metrics(tracer: Tracer, warnings_in_solve: int) -> dict[str, float]:
    """Aggregate one traced pass into the per-layer metric names."""
    names = {sid: name for sid, _, name, _, _, _ in tracer.spans}
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    for sid, parent, name, t0, t1, _ in tracer.spans:
        calls[name] += 1
        total[name] += t1 - t0
        if parent is not None:
            child[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    for sid, _, name, t0, t1, _ in tracer.spans:
        self_s[name] += (t1 - t0) - child[sid]

    steps_in_runs = 0
    monitor_s = 0.0
    for sid, parent, name, t0, t1, _ in tracer.spans:
        parent_name = names.get(parent)
        if name == "dynamics.step" and parent_name == "dynamics.run_dynamics":
            steps_in_runs += 1
        if name == "dynamics.free_energy" or (
                name == "static.residual" and parent_name == "dynamics.run_dynamics"):
            monitor_s += t1 - t0

    def per_call_us(name):
        return 1e6 * self_s[name] / calls[name] if calls[name] else 0.0

    c = tracer.counts
    io_bytes = c["io.write_field_csv.bytes"] + c["io.write_csv.bytes"]
    io_seconds = total["io.write_field_csv"] + total["io.write_csv"]
    m = {
        "operators.fft.calls": tracer.fft_calls,
        "operators.fft.points": tracer.fft_points,
        "operators.fft.bytes_computed": tracer.fft_bytes,
        "operators.apply_half_laplacian.calls": calls["operators.apply_half_laplacian"],
        "operators.apply_half_laplacian.self_s": self_s["operators.apply_half_laplacian"],
        "operators.apply_half_laplacian.us_per_call": per_call_us(
            "operators.apply_half_laplacian"),
        "operators.hs_seminorm_grid.calls": calls["operators.hs_seminorm_grid"],
        "operators.hs_seminorm_grid.self_s": self_s["operators.hs_seminorm_grid"],
        "potential.eval_potential.calls": calls["potential.eval_potential"],
        "potential.eval_potential.self_s": self_s["potential.eval_potential"],
        "static.solve_static.calls": calls["static.solve_static"],
        "static.solve_static.self_s": self_s["static.solve_static"],
        "static.sweep_iterations": c["static.sweep_iterations"],
        "static.newton_steps": c["static.newton_steps"],
        "static.minres.calls": calls["static.minres"],
        "static.minres.self_s": self_s["static.minres"],
        "static.residual.calls": calls["static.residual"],
        "static.residual.self_s": self_s["static.residual"],
        "static.nonmonotone_results": c["static.nonmonotone_results"],
        "static.warnings": warnings_in_solve,
        "extension.extend_trace_strains.calls": calls["extension.extend_trace_strains"],
        "extension.extend_trace_strains.self_s": self_s["extension.extend_trace_strains"],
        "extension.extend_trace_strains.us_per_call": per_call_us(
            "extension.extend_trace_strains"),
    }
    for fn in ("extend_to_half_planes", "stress_field", "dtn_traction"):
        m[f"extension.{fn}.self_s"] = self_s[f"extension.{fn}"]
    for fn in ("elastic_energy_of_trace", "cross_term_elastic", "elastic_energy_box",
               "competitor_energy", "reduced_perturbed_energy"):
        m[f"energy.{fn}.calls"] = calls[f"energy.{fn}"]
        m[f"energy.{fn}.self_s"] = self_s[f"energy.{fn}"]
    m.update({
        "dynamics.step.attempts": calls["dynamics.step"],
        "dynamics.step.self_s": self_s["dynamics.step"],
        "dynamics.accepted_steps": c["dynamics.accepted_steps"],
        "dynamics.accept_ratio": (c["dynamics.accepted_steps"] / steps_in_runs
                                  if steps_in_runs else 0.0),
        "dynamics.free_energy.calls": calls["dynamics.free_energy"],
        "dynamics.free_energy.self_s": self_s["dynamics.free_energy"],
        "dynamics.monitor_s": monitor_s,
    })
    for fn in ("write_field_csv", "write_csv"):
        m[f"io.{fn}.calls"] = calls[f"io.{fn}"]
        m[f"io.{fn}.self_s"] = self_s[f"io.{fn}"]
        m[f"io.{fn}.bytes"] = c[f"io.{fn}.bytes"]
    m["io.MBps"] = io_bytes / 1e6 / io_seconds if io_seconds > 0 else 0.0
    for i in range(1, 13):
        m[f"validation.check_{i:02d}"] = total[f"validation.check_{i:02d}"]
    return {k: float(v) for k, v in m.items()}


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)
