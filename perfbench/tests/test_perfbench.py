"""Self-tests of the benchmark: the wiring of every workload at tiny size,
the correctness gate, the tracer's accounting and the pace probes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hypercong  # noqa: E402
import hypercong.series  # noqa: E402
import hypercong.verify  # noqa: E402

import gate  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_every_workload(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "grid-par":
        assert values["cli.run_sweep.self_ms"] > 0
        assert values["verify.self_ms"] == values["series.value.calls"] == 0
    else:
        assert values["verify.self_ms"] > 0 and values["series.value.calls"] > 0
        assert values["series.value.max_bits"] > 0
        if workload == "gamma":
            assert values["padic.morita_gamma.calls"] > 0
            assert values["jets.mul.calls"] == 0


def test_benchmark_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_depend_only_on_the_seed():
    assert workloads.build_inputs("deep", 7) == workloads.build_inputs("deep", 7)
    draws = {json.dumps(workloads.build_inputs("deep", s), sort_keys=True) for s in range(8)}
    assert len(draws) > 1
    default = workloads.build_inputs("deep", workloads.DEFAULT_SEED)
    triples = {(p["n"], p["q"], p["p"]) for c, p in default if c == "theorem1"}
    assert triples == {(4, 1, 797), (8, 3, 401), (6, 2, 601)}
    assert workloads.build_inputs("grid", 1) == workloads.build_inputs("grid", 2)


def _tampered(rows, index, **changes):
    rows = [dict(r) for r in rows]
    rows[index].update(changes)
    return rows


def test_tampered_deep_report_raises_failed_share():
    ref = gate.load_reference("deep", workloads.DEFAULT_SEED, "full")
    rows = ref["rows"]
    assert gate.count_failed("deep", rows, 0, ref, ref["sha256"]) == (len(rows), 0)
    i = next(k for k, r in enumerate(rows) if r["residue"] is not None)
    flipped = str(int(rows[i]["residue"]) + 1)
    attempted, failed = gate.count_failed("deep", _tampered(rows, i, residue=flipped), 0, ref)
    assert failed / attempted > 0
    attempted, failed = gate.count_failed("deep", _tampered(rows, i, verdict="fails"), 0, ref)
    assert failed / attempted > 0
    # A unit that raised leaves its rows missing.
    assert gate.count_failed("deep", rows[1:], 1, ref)[1] == 1


def test_tampered_grid_report_raises_failed_share():
    spec = workloads.build_inputs("grid", 0, "tiny")
    text = workloads.execute("grid", spec)
    rows, _, digest = workloads.collect("grid", text)
    ref = gate.make_reference("grid", rows, digest)
    assert gate.count_failed("grid", rows, 0, ref, digest) == (len(rows), 0)
    i = next(k for k, r in enumerate(rows) if r["residue"] is not None)
    flipped = str(int(rows[i]["residue"]) + 1)
    assert gate.count_failed("grid", _tampered(rows, i, residue=flipped), 0, ref)[1] == 1
    # Same rows but other bytes still fail.
    assert gate.count_failed("grid", rows, 0, ref, "0" * 64)[1] == 1


def test_verdict_gate_without_reference():
    row = {"check_id": "identities/dual-reduction", "params": {"n": 4, "q": 1, "p": 7},
           "verdict": "skipped", "achieved_ord": None, "residue": None}
    assert gate.count_failed("deep", [row], 0) == (1, 0)
    skipped_elsewhere = dict(row, params={"n": 4, "q": 2, "p": 7})
    assert gate.count_failed("deep", [skipped_elsewhere], 0) == (1, 1)
    assert gate.count_failed("deep", [dict(row, verdict="fails")], 2) == (3, 3)


def test_tracer_rebinds_imported_names_and_restores(tmp_path):
    original = hypercong.series.lhs_theorem1
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hypercong.verify.lhs_theorem1 is hypercong.series.lhs_theorem1
        assert hypercong.lhs_theorem1 is not original
        hypercong.verify_theorem1(hypercong.TheoremParams(4, 1, 7))
    finally:
        tracer.restore()
    assert hypercong.verify.lhs_theorem1 is original
    assert hypercong.series.lhs_theorem1 is original
    assert hypercong.lhs_theorem1 is original
    stored = tmp_path / "t.spans"
    tracer.write(stored)
    records = spans.read_spans(stored)
    assert len(records) == len(tracer)
    by_name = {name: (parent, i) for i, (name, parent, _, _) in enumerate(records)}
    parent, _ = by_name["series.lhs_theorem1"]
    assert records[parent][0] == "verify.verify_theorem1"
    assert "padic.ord_rational" in by_name


def test_self_times_add_up_to_traced_wall_time():
    spec = workloads.build_inputs("grid", 0, "tiny")
    plain = workloads.execute("grid", spec)
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = workloads.execute("grid", spec)
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    assert traced == plain  # tracing leaves the report bytes unchanged
    summary = tracer.summary()
    self_total = sum(s["self_s"] for s in summary.values())
    assert self_total == pytest.approx(tracer.root_seconds(), rel=1e-9)
    # What lies outside the spans is the benchmark's call into run_sweep and
    # render_json and the entry and exit of those two wrappers.
    assert 0 <= wall - self_total < 0.002
    assert {name.split(".")[0] for name in summary} == set(spans.LAYERS)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return os.getpid()


def test_pace_is_relative_to_the_reference_times():
    reference = tuple(pace.REFERENCE_S[k] for k in pace.KERNELS)
    assert pace.pace([reference]) == pytest.approx(1.0)
    assert pace.pace([tuple(2 * t for t in reference)]) == pytest.approx(0.5)
    # Samples are averaged as speeds: half the time at each pace.
    assert pace.pace([reference, tuple(2 * t for t in reference)]) == pytest.approx(0.75)
    assert 0.1 < pace.spot_pace() < 10


@pytest.mark.parametrize("in_pool", [False, True])
def test_probes_sample_the_process_or_its_pool_workers(tmp_path, in_pool):
    probes = pace.Probes(tmp_path / "probes.txt", in_workers=in_pool)
    probes.start()
    try:
        if in_pool:
            with ProcessPoolExecutor(max_workers=1) as pool:
                assert pool.submit(_busy, 0.55).result() != os.getpid()
        else:
            _busy(0.55)
    finally:
        samples = probes.stop()
    assert len(samples) >= 3
    assert all(len(s) == len(pace.KERNELS) and min(s) > 0 for s in samples)
    assert not (tmp_path / "probes.txt").exists()
