#!/usr/bin/env python3
"""pnedge benchmark.

Run from the root of a pnedge checkout (pnedge is imported from ./src):

    python3 perfbench/run.py --workload validate --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json and perfbench/predictions.json):

* ``validate`` -- ``pnedge validate`` then ``pnedge energy`` at the defaults;
* ``fields``   -- ``pnedge solve-static`` (15 times) then ``pnedge extend``;
* ``relax``    -- three N=16384 static solves (three times), then two dynamics runs.

With ``--trace 0`` one warm-up pass runs, then timed passes until
``--seconds`` have passed, and the end-to-end metrics are medians over
the timed passes.  ``setup_s`` is the median of five fresh interpreters
(perfbench/probe.py) importing pnedge and building the inputs.  All four
times are seconds at a reference host speed: the speed of the shared
host of the moment is measured and divided out (perfbench/speed.py).
The raw wall times are kept in the run's record.

With ``--trace 1`` the warm-up and one untraced pass are followed by two
traced passes (perfbench/spans.py).  Their count metrics must agree
exactly; times are the median of the two.  The spans of the first
traced pass are written under ``.perfbench/records``.

Every operation's outputs are checked against pnedge's oracles
(perfbench/workloads.py) and every CSV digest must repeat across the
passes of a run.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import os

# single-threaded numerics; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=["validate", "fields", "relax"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    covered = [m for group in predictions["layers"].values() for m in group["metrics"]]
    declared = [m["name"] for m in spec["per_layer"]]
    if sorted(covered) != sorted(declared):
        raise SystemExit("perfbench/predictions.json does not cover the per_layer "
                         f"metrics exactly: {sorted(set(covered) ^ set(declared))}")
    return spec


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cache_sizes() -> dict:
    sizes = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            sizes[f"L{level} {kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment() -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pnedge").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": _cache_sizes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# warnings: counted and still shown, never silenced
# ---------------------------------------------------------------------------

class WarningCounter:
    def __init__(self):
        self.by_category: Counter = Counter()
        self.in_solve = 0
        self.tracer = None

    def __enter__(self):
        self._guard = warnings.catch_warnings()
        self._guard.__enter__()
        warnings.simplefilter("always")  # every occurrence reaches the counter
        self._show = warnings.showwarning
        warnings.showwarning = self._count
        return self

    def __exit__(self, *exc):
        return self._guard.__exit__(*exc)

    def _count(self, message, category, filename, lineno, file=None, line=None):
        self.by_category[category.__name__] += 1
        if self.tracer is not None and self.tracer.inside("static.solve_static"):
            self.in_solve += 1
        self._show(message, category, filename, lineno, file, line)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, wl, workdir: Path, cli_main):
        self.wl = wl
        self.workdir = workdir
        self.cli_main = cli_main
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops = 0
        self.first_digests: dict[str, dict] = {}
        self._verdicts: dict[tuple, list] = {}
        self._passes = 0

    def run_pass(self, tracer=None) -> dict:
        """One pass; outputs are checked after the clock stops.

        Untraced passes run under a ``speed.SpeedMeter`` and return times
        at the reference host speed, plus the raw ones under ``raw_*``.
        """
        self._passes += 1
        pass_dir = self.workdir / f"pass{self._passes}"
        raw = {1: 0.0, 2: 0.0}
        norm = {1: 0.0, 2: 0.0}
        codes = []
        gc.collect()
        with (speed.SpeedMeter() if tracer is None else contextlib.nullcontext()) as meter:
            t_pass = time.perf_counter()
            for op in self.wl.ops:
                call = (self.cli_main if tracer is None
                        else tracer.wrap(f"cli.{op.command}", self.cli_main))
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        codes.append(call(op.argv(pass_dir / op.label)))
                except Exception:
                    traceback.print_exc()
                    codes.append(None)
                t1 = time.perf_counter()
                r, n = meter.work_seconds(t0, t1) if meter else (t1 - t0, t1 - t0)
                raw[op.group] += r
                norm[op.group] += n
            t_end = time.perf_counter()
            wall = meter.work_seconds(t_pass, t_end) if meter else (t_end - t_pass,) * 2
        for op, code in zip(self.wl.ops, codes):
            self._check(op, code, pass_dir)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return {"wall_s": wall[1], "cmd1_s": norm[1], "cmd2_s": norm[2],
                "raw_wall_s": wall[0], "raw_cmd1_s": raw[1], "raw_cmd2_s": raw[2]}

    def _check(self, op, code, pass_dir: Path) -> None:
        self.attempted += 1
        out = pass_dir / op.label
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            try:
                dig = workloads.digests(out)
                key = (op.label, tuple(sorted(dig.items())))
                if key not in self._verdicts:  # identical bytes, identical verdict
                    self._verdicts[key] = self._oracles(op, out, pass_dir)
                problems = list(self._verdicts[key])
                first = self.first_digests.setdefault(op.label, dig)
                problems += [f"{name} digest differs from the first pass"
                             for name, d in dig.items()
                             if name.endswith(".csv") and first.get(name) != d]
            except Exception as exc:
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed_ops += 1
            self.failures.extend(f"pass {self._passes} {op.label}: {p}" for p in problems)

    @staticmethod
    def _oracles(op, out: Path, pass_dir: Path) -> list[str]:
        if op.command == "validate":
            return workloads.check_validate(out)
        if op.command == "energy":
            return workloads.check_energy(out)
        if op.command == "solve-static":
            return workloads.check_static(op, out)
        if op.command == "extend":
            return workloads.check_extend(op, out, pass_dir / "static0" / "profile.csv")
        if op.command == "dynamics":
            return workloads.check_dynamics(out)
        raise ValueError(op.command)


def measure_setup(workload: str, seed: int, workdir: Path) -> list[tuple]:
    """(raw, normalised) seconds of each set-up probe.  A probe is scaled
    by the mean of the host speed measured right before and right after it."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{k}"
        probe_dir.mkdir()
        before = speed.speed_factor()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", str(probe_dir)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        after = speed.speed_factor()
        times.append((elapsed, elapsed * 0.5 * (before + after)))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pnedge" / "__init__.py").is_file():
        print("perfbench: no pnedge sources under ./src; run from the root of a "
              "pnedge checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, str(ROOT / "src"))
    from pnedge.cli import main as cli_main

    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    workdir = WORK / "tmp" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment()}
    try:
        with WarningCounter() as warn:
            setup = (measure_setup(args.workload, args.seed, workdir)
                     if args.trace == 0 else [])
            wl, _ = workloads.build_inputs(args.workload, args.seed, workdir)
            runner = Runner(wl, workdir, cli_main)
            record["subcommands"] = {"cmd1_s": wl.subcommands[0],
                                     "cmd2_s": wl.subcommands[1]}
            record["warmup_s"] = runner.run_pass()["raw_wall_s"]
            if args.trace == 0:
                passes = []
                t_start = time.perf_counter()
                while not passes or time.perf_counter() - t_start < args.seconds:
                    passes.append(runner.run_pass())
                values = {k: statistics.median(p[k] for p in passes)
                          for k in ("wall_s", "cmd1_s", "cmd2_s")}
                values["setup_s"] = statistics.median(n for _, n in setup)
                values["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
                record["passes"] = passes
                record["setup_probes_s"] = [{"raw": r, "normalised": n} for r, n in setup]
                wanted = spec["end_to_end"]
            else:
                untraced = runner.run_pass()["raw_wall_s"]
                traced, layers = [], []
                for k in range(2):
                    tracer = spans.Tracer()
                    warn.tracer, warn.in_solve = tracer, 0
                    tracer.install()
                    try:
                        traced.append(runner.run_pass(tracer)["raw_wall_s"])
                    finally:
                        tracer.uninstall()
                        warn.tracer = None
                    layers.append(spans.layer_metrics(tracer, warn.in_solve))
                    runner.failures += [
                        f"traced pass {k + 1}: solver residual {r:.3e} > {workloads.RES_TOL}"
                        for r in tracer.solver_residuals if not r <= workloads.RES_TOL]
                    if k == 0:
                        tracer.write_spans(records / f"{stem}.spans.jsonl")
                        record["fft_calls_by_check"] = tracer.fft_calls_by_span("validation.")
                mismatched = sorted(n for n in layers[0] if spans.is_count(n)
                                    and layers[0][n] != layers[1][n])
                runner.failures += [f"count {n} differs between traced passes: "
                                    f"{layers[0][n]} vs {layers[1][n]}" for n in mismatched]
                values = {n: statistics.median(p[n] for p in layers) for n in layers[0]}
                values["trace.wall_s"] = statistics.median(traced)
                values["trace.overhead_s"] = values["trace.wall_s"] - untraced
                record["untraced_wall_s"] = untraced
                record["traced_wall_s"] = traced
                wanted = spec["per_layer"]
            record["warnings"] = dict(warn.by_category)
        record["first_pass_digests"] = runner.first_digests
        record["failures"] = runner.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        raise SystemExit(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("environment", "warmup_s", "warnings",
                                              "subcommands")}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed_ops,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
