"""Correctness gate behind the benchmark's ``failed`` count.

Two rules, both checked outside the timed region:

* every asserted report holds.  The one allowed exception is the
  ``identities/dual-reduction`` report at q = 1, which the library skips by
  design;
* where a stored reference applies (grid and grid-par always, gamma always,
  deep at the default seed), the rows equal the reference rows.

A unit is one report.  ``failed`` counts rows that break a rule plus
reference rows that are missing, so a unit that raised shows up as missing.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from workloads import canonical, row_digest

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def verdict_ok(row: dict) -> bool:
    if row["verdict"] == "holds":
        return True
    return (row["verdict"] == "skipped" and row["check_id"] == "identities/dual-reduction"
            and row["params"].get("q") == 1)


def load_reference(workload: str, seed: int, size: str):
    """The stored reference for this run, or None when none applies."""
    if size != "full":
        return None
    refs = json.loads(REFERENCE_PATH.read_text())
    key = "grid" if workload == "grid-par" else workload
    if key == "deep" and seed != refs["seed"]:
        return None
    return refs.get(key)


def _keys(workload: str, rows: list[dict]) -> list[str]:
    # The grid reference keeps short per-row digests; the others keep rows.
    if workload in ("grid", "grid-par"):
        return [row_digest(r) for r in rows]
    return [canonical(r) for r in rows]


def _reference_keys(workload: str, reference: dict) -> list[str]:
    if workload in ("grid", "grid-par"):
        return reference["row_digests"].split()
    return [canonical(r) for r in reference["rows"]]


def count_failed(workload: str, rows: list[dict], raised: int, reference=None,
                 digest: str | None = None) -> tuple[int, int]:
    """(attempted, failed) for one run of a workload."""
    bad = [not verdict_ok(r) for r in rows]
    if reference is None:
        return len(rows) + raised, sum(bad) + raised
    expected = _reference_keys(workload, reference)
    remaining = Counter(expected)
    unmatched = 0
    for key, is_bad in zip(_keys(workload, rows), bad):
        if not is_bad and remaining[key] > 0:
            remaining[key] -= 1
        else:
            unmatched += 1
    failed = max(unmatched, sum(remaining.values()))
    if failed == 0 and digest != reference["sha256"]:
        failed = 1  # same rows, different bytes
    return max(len(rows), len(expected)), failed


def make_reference(workload: str, rows: list[dict], digest: str) -> dict:
    if workload in ("grid", "grid-par"):
        return {"sha256": digest, "reports": len(rows),
                "row_digests": " ".join(row_digest(r) for r in rows)}
    rows = sorted(rows, key=canonical)
    return {"sha256": digest, "reports": len(rows), "rows": rows}
