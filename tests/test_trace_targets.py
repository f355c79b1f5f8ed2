"""The benchmark's span tracer binds to pnedge and its hooks read what they need.

``perfbench/spans.py`` binds its wrappers by (module, attribute) when a
``--trace 1`` run starts, so renaming or deleting a traced function
would only show there, and so would a result attribute its hooks read
or a traced function the CLI stopped calling.  The tracer module is
loaded by path; it is not part of the package.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from pnedge.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = [(name, mod, attr) for name, mod, attr in spans.TARGETS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_traced_cli_commands_feed_the_layer_metrics(tmp_path):
    spans = _load_spans()
    transforms = {name: getattr(np.fft, name)
                  for name in spans._FFT_C2C + spans._FFT_C2R + spans._FFT_R2C}
    common = ["--set", "N=512", "--set", "L_over_zeta=200"]
    runs = [["solve-static"], ["--set", "ylevels_count=4", "extend"],
            ["--set", "dynamics_T_end=1", "dynamics"]]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, args in enumerate(runs):
            assert main(common + ["--output", str(tmp_path / str(i))] + args) == 0
    finally:
        tracer.uninstall()
    assert {name: getattr(np.fft, name) for name in transforms} == transforms
    metrics = spans.layer_metrics(tracer, 0)
    assert metrics["static.sweep_iterations"] > 0
    # the solve record the hook reads off the returned state, set by the
    # solve and not left at a hand-made state's zero steps
    assert metrics["static.newton_steps"] > 0
    assert metrics["dynamics.accepted_steps"] > 0
    assert metrics["io.write_field_csv.bytes"] > 0
    assert metrics["operators.fft.calls"] > 0
    calls = Counter(name for _, _, name, _, _, _ in tracer.spans)
    assert calls["extension.extend_to_half_planes"] == 1
    assert calls["extension.stress_field"] == 1
    assert len(tracer.solver_residuals) == calls["static.solve_static"]
    # the dynamics run reaches the traced stepper and monitor, not a
    # binding made before the tracer rebound them
    assert calls["dynamics.step"] > 0
    assert calls["dynamics.free_energy"] > 0
