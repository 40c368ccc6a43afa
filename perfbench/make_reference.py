"""Write ``reference.json``: the expected report rows of every workload at the
default seed, full size.  Takes about 50 seconds.

    python3 perfbench/make_reference.py

Regenerate it only when a change is meant to alter report output; the grid
entry also pins the exact render_json bytes (sha256) that grid and grid-par
must both reproduce.
"""

from __future__ import annotations

import json
import os
import sys

import child

child._import_hypercong()
import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    os.environ.pop("HYPERCONG_MORITA_CAP", None)
    refs = {"seed": workloads.DEFAULT_SEED}
    for workload in ("grid", "deep", "gamma"):
        inputs = workloads.build_inputs(workload, workloads.DEFAULT_SEED)
        rows, raised, digest = workloads.collect(workload, workloads.execute(workload, inputs))
        if raised or not all(gate.verdict_ok(r) for r in rows):
            print(f"error: {workload} does not pass the verdict gate", file=sys.stderr)
            return 1
        refs[workload] = gate.make_reference(workload, rows, digest)
        print(f"{workload}: {len(rows)} reports, sha256 {digest}")
    gate.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
