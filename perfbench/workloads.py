"""The four benchmark workloads: how each builds its inputs from a seed, runs
them through the public hypercong API, and turns the result into report rows.

A row is the part of a report the correctness gate compares:
``{"check_id", "params", "verdict", "achieved_ord", "residue"}``, encoded the
way ``hypercong sweep --format json`` encodes them.

Every function here runs inside one benchmark child process, after
``hypercong`` has been imported from the checkout's ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import hypercong
from hypercong import cli

WORKLOADS = ("grid", "grid-par", "deep", "gamma")
DEFAULT_SEED = 0

# The pool size of grid-par.  Pinned rather than read from the machine, so the
# workload is the same wherever it runs; the benchmark records nproc beside it.
GRID_PAR_WORKERS = 2

_GRID_SPECS = {
    # The ROADMAP full grid: all nine checks, 6504 reports.
    "full": dict(n_range=(3, 8), q_range=(1, 4), d_range=(4, 8), p_max=97),
    "tiny": dict(n_range=(3, 4), q_range=(1, 2), d_range=(4, 6), p_max=23),
}

# deep: each slot pairs fixed parameters with a window of primes.  Seed 0 takes
# the first prime of every window (and the first two sun-e primes); other seeds
# draw from the windows, which are kept narrow so that the cost of a run
# barely depends on the seed.
_TRIPLE_CHECKS = ("theorem1", "theorem2", "lemmas", "identities")
_DEEP_BANDS = {
    "full": {
        "triples": (((4, 1), (797, 787, 773)), ((8, 3), (401, 409, 419)),
                    ((6, 2), (601, 599, 593))),
        "guo": ((6, (599, 593, 587)), (8, (727, 719, 743))),
        "sun-e": (97, 101, 103),
        "sun-bernoulli": (797, 787),
    },
    "tiny": {
        "triples": (((4, 1), (29, 31)), ((8, 3), (19, 23)), ((6, 2), (13, 17))),
        "guo": ((4, (19, 23)), (6, (17, 23))),
        "sun-e": (11, 13, 17),
        "sun-bernoulli": (29, 31),
    },
}

_GAMMA_P_MAX = {"full": 215, "tiny": 31}  # 215^3 <= 10^7 < 216^3

_VERIFY_FUNCTIONS = {
    "theorem1": "verify_theorem1",
    "theorem2": "verify_theorem2",
    "lemmas": "verify_lemma_suite",
    "identities": "verify_exact_identities",
    "guo": "verify_guo",
    "sun-e": "verify_sun_e",
    "sun-bernoulli": "verify_sun_bernoulli",
    "dflst": "verify_dflst_pair",
}


def trace_layers(workload: str) -> tuple[str, ...] | None:
    """Modules whose spans the traced run records; None means all.  In
    grid-par the checks run in pool workers, so only the parent's cli layer
    is traced."""
    return ("cli",) if workload == "grid-par" else None


def build_inputs(workload: str, seed: int, size: str = "full"):
    """The workload's input: a SweepSpec for the grids, else a list of
    (check id, params) units in a seeded order."""
    if workload in ("grid", "grid-par"):
        parallelism = GRID_PAR_WORKERS if workload == "grid-par" else 1
        return cli.SweepSpec(check_ids=cli.CHECK_NAMES, parallelism=parallelism,
                             **_GRID_SPECS[size])
    rng = random.Random(seed)
    if workload == "deep":
        units = _deep_units(rng if seed != DEFAULT_SEED else None, _DEEP_BANDS[size])
    elif workload == "gamma":
        units = [("dflst", {"n": n, "p": p})
                 for n in range(3, 9)
                 for p in cli.primes_upto(_GAMMA_P_MAX[size]) if p % n == 1]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(units)
    return units


def _deep_units(rng, bands) -> list[tuple[str, dict]]:
    def pick(window):
        return window[0] if rng is None else rng.choice(window)

    units = []
    for (n, q), window in bands["triples"]:
        p = pick(window)
        units += [(check, {"n": n, "q": q, "p": p}) for check in _TRIPLE_CHECKS]
    for d, window in bands["guo"]:
        units.append(("guo", {"d": d, "p": pick(window)}))
    sun_e = bands["sun-e"][:2] if rng is None else rng.sample(bands["sun-e"], 2)
    units += [("sun-e", {"p": p}) for p in sun_e]
    p = pick(bands["sun-bernoulli"])
    units += [("sun-bernoulli", {"p": p, "n": n}) for n in range(3, 9)]
    return units


def _call(check: str, params: dict):
    # Look the function up at call time, so a traced run sees its wrapper.
    fn = getattr(hypercong, _VERIFY_FUNCTIONS[check])
    if check in _TRIPLE_CHECKS:
        result = fn(hypercong.TheoremParams(params["n"], params["q"], params["p"]))
    elif check == "guo":
        result = fn(params["d"], params["p"])
    elif check == "sun-bernoulli":
        result = fn(params["p"], params["n"])
    elif check == "dflst":
        result = fn(params["n"], params["p"])
    else:
        result = fn(params["p"])
    return list(result) if isinstance(result, (list, tuple)) else [result]


def execute(workload: str, inputs):
    """The timed region.  Returns the rendered sweep JSON for the grids, else
    (reports, units that raised)."""
    if workload in ("grid", "grid-par"):
        return cli.render_json(cli.run_sweep(inputs))
    reports, raised = [], []
    for check, params in inputs:
        try:
            reports += _call(check, params)
        except Exception as exc:  # a unit that raises is a failed unit, not a crash
            raised.append(f"{check} {params}: {exc!r}")
    return reports, raised


def _wire_ord(value):
    if value is None:
        return None
    return "inf" if value == math.inf else int(value)


def report_row(report) -> dict:
    residue = report.residue_at_required
    return {
        "check_id": report.check_id,
        "params": {k: int(v) for k, v in report.params.items()},
        "verdict": report.verdict.value,
        "achieved_ord": _wire_ord(report.achieved_ord),
        "residue": None if residue is None else str(residue.value),
    }


def collect(workload: str, output) -> tuple[list[dict], list[str], str]:
    """Rows, raised-unit messages and a sha256 of the output.  For the grids
    the digest covers the render_json bytes; otherwise the sorted rows."""
    if workload in ("grid", "grid-par"):
        rows = [{key: r[key] for key in ("check_id", "params", "verdict",
                                          "achieved_ord", "residue")}
                for r in json.loads(output)["reports"]]
        return rows, [], hashlib.sha256(output.encode()).hexdigest()
    reports, raised = output
    rows = [report_row(r) for r in reports]
    text = "\n".join(sorted(canonical(row) for row in rows))
    return rows, raised, hashlib.sha256(text.encode()).hexdigest()


def canonical(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def row_digest(row: dict) -> str:
    return hashlib.sha256(canonical(row).encode()).hexdigest()[:12]
