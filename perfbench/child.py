"""One cold benchmark repetition, run by ``run.py`` in a fresh interpreter.

Usage: ``python3 perfbench/child.py WORKLOAD SEED SIZE MODE [SPAN_PATH]`` with
MODE one of ``setup`` (import and build inputs, then exit), ``plain`` (also
run the timed region) or ``traced`` (run it under the span tracer).

The child prints ``ready`` once hypercong is imported and the inputs are
built; the parent times set-up up to that line.  The child then takes the
CPU's pace (``pace.spot_pace``), by which the parent scales set-up time.  A
set-up child prints that pace as a JSON line; a timed run prints one JSON line
with its measurements, the pace and its correctness counts.

In the timed region ``pace.Probes`` samples the pace every 0.1 s: in this
process, or for grid-par in the pool workers, which do the work there.
``run_s`` is the wall time less the probes' own time, at the reference pace.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def _import_hypercong():
    sys.path.insert(0, str(SRC))
    import hypercong

    origin = Path(hypercong.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"hypercong was imported from {origin}, not from {SRC}")


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.  RUSAGE_CHILDREN covers pool workers that
    # have been joined, which run_sweep does before it returns.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(argv) -> int:
    workload, seed, size, mode = argv[0], int(argv[1]), argv[2], argv[3]
    span_path = argv[4] if len(argv) > 4 else None
    _import_hypercong()
    import gate
    import workloads

    inputs = workloads.build_inputs(workload, seed, size)
    print("ready", flush=True)
    import pace

    setup_pace = pace.spot_pace()
    if mode == "setup":
        print(json.dumps({"setup_pace": setup_pace}), flush=True)
        return 0

    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer(workloads.trace_layers(workload))
        tracer.install()
    in_pool = workload == "grid-par"
    OUT.mkdir(exist_ok=True)
    probes = pace.Probes(OUT / f"probes-{os.getpid()}.txt", in_workers=in_pool)
    probes.start()
    start = time.perf_counter()
    output = workloads.execute(workload, inputs)
    run_wall_s = time.perf_counter() - start
    samples = probes.stop()
    if tracer is not None:
        tracer.restore()
    peak_rss_mb = _peak_rss_mb()
    if not samples and run_wall_s > 10 * pace.INTERVAL_S:
        raise SystemExit(f"no pace samples in {run_wall_s:.3f} s of {workload}")
    # A region shorter than the probe interval (tiny sizes) takes its pace
    # right after it ends.
    run_pace = pace.pace(samples) if samples else pace.spot_pace()
    probers = workloads.GRID_PAR_WORKERS if in_pool else 1
    run_s = (run_wall_s - sum(map(sum, samples)) / probers) * run_pace

    # Everything below is outside the timed region.
    rows, raised, digest = workloads.collect(workload, output)
    reference = gate.load_reference(workload, seed, size)
    attempted, failed = gate.count_failed(workload, rows, len(raised), reference, digest)
    result = {
        "run_s": run_s,
        "run_wall_s": run_wall_s,
        "run_pace": run_pace,
        "pace_samples": len(samples),
        "setup_pace": setup_pace,
        "peak_rss_mb": peak_rss_mb,
        "reports": len(rows),
        "attempted": attempted,
        "failed": failed,
        "raised": raised,
        "digest": digest,
        "reference": reference is not None,
    }
    if tracer is not None:
        # Span times are wall times; state them at the pace of run_s.
        result["layers"] = spans.layer_metrics(tracer.summary(), tracer.max_value_bits,
                                               scale=run_s / run_wall_s)
        result["spans"] = len(tracer)
        if span_path:
            tracer.write(span_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
