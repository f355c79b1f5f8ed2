"""Every function the benchmark's span tracer wraps exists in pnedge.

``perfbench/spans.py`` binds its wrappers by (module, attribute) when a
``--trace 1`` run starts, so renaming or deleting a traced function
would only show there.  The tracer module is loaded by path; it is not
part of the package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [(name, mod, attr) for name, mod, attr in spans.TARGETS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
