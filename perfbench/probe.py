"""Set-up probe for ``setup_s``.

A fresh interpreter imports pnedge from ``./src`` and builds one
workload's inputs (configs, grids, potentials, the generated table),
then prints ``ready``.  The parent times it from spawn to that line.

    python3 perfbench/probe.py --workload relax --seed 1 --workdir <dir>
"""

import argparse
import sys
from pathlib import Path

ap = argparse.ArgumentParser()
ap.add_argument("--workload", required=True)
ap.add_argument("--seed", type=int, required=True)
ap.add_argument("--workdir", required=True)
args = ap.parse_args()

sys.path.insert(0, str(Path.cwd() / "src"))
import workloads  # noqa: E402  (imports pnedge)

workloads.build_inputs(args.workload, args.seed, Path(args.workdir))
print("ready", flush=True)
