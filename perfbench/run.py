"""hypercong benchmark: cold-process end-to-end timings of four workloads,
and a traced run that splits the time by module.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 25 --trace 0

Run it from anywhere; it measures the hypercong under ``src/`` next to this
directory.  Every timed repetition starts a fresh interpreter
(``child.py``), so the ``harmonic`` and ``bernoulli`` tables start empty, as
they do for a command-line user.  ``HYPERCONG_MORITA_CAP`` is removed from the
children's environment, ``PYTHONHASHSEED`` is pinned to 0 and bytecode is
cached, as for an installed command.

With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics ``setup_s``, ``run_s`` and ``peak_rss_mb`` (medians over the
repetitions that fit in ``--seconds``); ``failed``/``attempted`` is the
failed share.  Times are stated at the reference pace of ``pace.py``: each
is scaled by how fast the CPU ran standard-library probe kernels during it,
which takes out the drift of a shared host's CPU speed.  With ``--trace 1``
the metrics are the per-layer ones from ``spans.layer_metrics`` plus
``trace.overhead_s``.  Details and provenance go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("grid", "grid-par", "deep", "gamma")
SETUP_PROBES = 16  # set-up-only children per run, beside one per timed repetition
CHILD_TIMEOUT_S = 170
MORITA_CAP_ENV = "HYPERCONG_MORITA_CAP"


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop(MORITA_CAP_ENV, None)
    # Children cache bytecode like an installed command does; the untimed
    # warm-up child writes it, so set-up time excludes compilation.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(env, workload, seed, size, mode, span_path=None):
    """Start one fresh interpreter; return (set-up seconds at the reference
    pace, result line)."""
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed), size, mode]
    if span_path:
        argv.append(str(span_path))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"{mode} child for {workload} exited with code {code}")
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} child for {workload} printed no result")
    result = json.loads(lines[-1])
    return setup_s * result["setup_pace"], result


def measure(workload, seed, size, seconds, trace):
    env = child_env()

    def probe(count):
        return [run_child(env, workload, seed, size, "setup")[0] for _ in range(count)]

    probe(1)  # warm-up: writes the bytecode cache, untimed
    # Half the set-up probes go before the timed repetitions and half after,
    # so a slow spell of the machine at one end does not set the median.
    setups = probe(SETUP_PROBES // 2)
    modes = ("plain", "traced") if trace else ("plain",)
    reps = {mode: [] for mode in modes}
    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"{workload}-seed{seed}.spans"
    start = time.perf_counter()
    while True:
        for mode in modes:
            setup_s, result = run_child(env, workload, seed, size, mode,
                                        span_path if mode == "traced" else None)
            setups.append(setup_s)
            reps[mode].append(result)
        elapsed = time.perf_counter() - start
        rounds = len(reps["plain"])
        if elapsed + elapsed / rounds > seconds:
            break
    setups += probe(SETUP_PROBES - SETUP_PROBES // 2)
    return setups, reps


def summarize(setups, reps, trace):
    every = [r for results in reps.values() for r in results]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    digests = {r["digest"] for r in every}
    # Traced and untraced repetitions must render the same bytes.
    correct = failed == 0 and len(digests) == 1
    median = statistics.median
    plain_run = median([r["run_s"] for r in reps["plain"]])
    if not trace:
        metrics = {
            "setup_s": (median(setups), "s"),
            "run_s": (plain_run, "s"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps["plain"]]), "MB"),
        }
    else:
        traced = reps["traced"]
        metrics = {name: (median([r["layers"][name][0] for r in traced]), unit)
                   for name, (_, unit) in traced[0]["layers"].items()}
        metrics["trace.overhead_s"] = (median([r["run_s"] for r in traced]) - plain_run, "s")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _commit():
    # The checkout the benchmark runs in need not be a git repository.
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed, size, seconds, trace, reps):
    plain = reps["plain"]
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "reports": plain[0]["reports"],
        "reference_checked": plain[0]["reference"],
        "repetitions": {mode: len(results) for mode, results in reps.items()},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        MORITA_CAP_ENV: "unset in children (parent had "
                        f"{os.environ.get(MORITA_CAP_ENV, 'it unset')})",
        "PYTHONHASHSEED": "0",
        "bytecode": "cached by an untimed warm-up child",
        "times": "at the reference pace of perfbench/pace.py; raw wall times "
                 "and paces are in the repetitions",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hypercong" / "__init__.py").is_file():
        print(f"error: no hypercong sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups, reps = measure(args.workload, args.seed, args.size, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = summarize(setups, reps, args.trace)
    details = {
        "provenance": provenance(args.workload, args.seed, args.size, args.seconds,
                                 args.trace, reps),
        "setup_s": setups,
        "repetitions": {mode: [{k: v for k, v in r.items() if k != "layers"}
                               for r in results] for mode, results in reps.items()},
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(details, indent=2) + "\n")
    print(json.dumps(details["provenance"]))
    for mode, results in reps.items():
        for r in results:
            if r["raised"]:
                print(f"{mode}: {len(r['raised'])} unit(s) raised, first: {r['raised'][0]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
