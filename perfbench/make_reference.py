"""Freeze the reference outputs of every workload at the default seed.

    python3 perfbench/make_reference.py

Solves every point of each workload with the dense LU oracle
(`steady_state(build_liouvillian(...))`) at one BLAS thread and writes
perfbench/reference/<workload>.json.  The benchmark compares each run at
the default seed against these files.  Regenerate them only for a stated
physics reason, never to make a new solver pass.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMAND = "python3 perfbench/make_reference.py"


def main() -> int:
    import worker

    for var in worker.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(worker.SRC))
    import workloads

    for name in workloads.BUILDERS:
        wl = workloads.build(name, workloads.DEFAULT_SEED)
        points = [
            dict(params=workloads.params_dict(p), **workloads.dense_oracle(p, wl.cutoffs))
            for p in wl.points
        ]
        doc = {
            "workload": name,
            "seed": workloads.DEFAULT_SEED,
            "cutoffs": list(wl.cutoffs),
            "solver": "dense LU: steady_state(build_liouvillian(...))",
            "command": COMMAND,
            "environment": worker.environment(),
            "points": points,
        }
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path} ({len(points)} points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
