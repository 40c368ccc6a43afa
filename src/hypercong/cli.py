"""Batch sweep driver and command-line interface.

Three verbs: ``verify`` runs one check on one parameter tuple and prints a
human-readable report; ``sweep`` expands a parameter grid, runs every
registered check (optionally across processes) and emits JSON or CSV;
``primes`` prints sieve output.

Exit codes are a stable contract for CI: 0 when no asserted check fails,
1 when any asserted check fails (or is ill-posed), 2 on configuration or
precondition errors, when memory runs out and when a sweep's worker process
dies or cannot start, which says nothing of a check.
Sweep output is byte-identical for a given spec regardless of the parallelism
level: results are merged and sorted before emission, and the echoed spec
deliberately omits execution-only fields.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from . import verify
from .errors import CapExceeded, ConfigError, HypercongError
from .series import TheoremParams
from .verify import _TRIPLE, CongruenceReport, Verdict

__all__ = ["SweepSpec", "SweepResult", "primes_upto", "run_sweep", "main", "CHECK_NAMES"]

CHECK_NAMES = tuple(verify.CHECKS)
_VERIFY_FLAGS = ("n", "q", "p", "d")  # every integer flag of ``verify``


# The sieve holds one byte per integer up to its limit; larger limits are
# refused before anything is allocated.
SIEVE_LIMIT = 10**7
# Candidate points of a sweep grid, summed over its checks, counted before
# any unit is built.
GRID_LIMIT = 10**5


def primes_upto(limit: int) -> list[int]:
    """Ascending list of all primes <= limit (empty below 2).

    Raises CapExceeded above SIEVE_LIMIT.
    """
    if limit > SIEVE_LIMIT:
        raise CapExceeded(f"sieve limit {limit} exceeds the cap {SIEVE_LIMIT}")
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if sieve[i]]


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for a batch run."""

    check_ids: tuple[str, ...] = ()
    n_range: tuple[int, int] = (3, 6)
    q_range: tuple[int, int] = (1, 3)
    d_range: tuple[int, int] = (4, 8)
    p_max: int = 50
    exploratory: bool = False
    parallelism: int = 1
    output_format: str = "json"
    output_path: str | None = None

    def validate(self):
        repeated = sorted({c for c in self.check_ids if self.check_ids.count(c) > 1})
        if repeated:
            raise ConfigError(f"repeated check id(s): {', '.join(repeated)}")
        unknown = [c for c in self.check_ids if c not in CHECK_NAMES]
        if unknown:
            raise ConfigError(f"unknown check id(s): {', '.join(unknown)}")
        if not self.check_ids:
            raise ConfigError("no checks requested")
        if self.p_max < 5:
            raise ConfigError(f"p_max must be at least 5, got {self.p_max}")
        for name, (lo, hi) in zip("nqd", (self.n_range, self.q_range, self.d_range)):
            if lo > hi:
                raise ConfigError(f"empty {name} range {lo}..{hi}")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be positive, got {self.parallelism}")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"unknown output format {self.output_format!r}")


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    reports: tuple[CongruenceReport, ...]
    summary: dict

    @property
    def exit_code(self) -> int:
        return _exit_code(self.reports)


def _exit_code(reports) -> int:
    bad = (Verdict.FAILS, Verdict.ILL_POSED)
    return 1 if any(r.verdict in bad for r in reports) else 0


def _expand_units(spec: SweepSpec) -> list[tuple]:
    # A unit is (check id, the positional arguments of its verify function).
    axes = {name: range(max(lo, 1), hi + 1) for name, (lo, hi)
            in (("n", spec.n_range), ("q", spec.q_range), ("d", spec.d_range))}
    axes["p"] = primes_upto(spec.p_max)
    checks = {check: verify.CHECKS[check] for check in spec.check_ids}
    points = sum(math.prod(len(axes[name]) for name in c.params) for c in checks.values())
    if points > GRID_LIMIT:
        raise ConfigError(f"the grid has {points} candidate points, above the cap {GRID_LIMIT}")
    # p_max >= 5: a prime exists.  An empty axis leaves no unit that reads it.
    verify._check_p_caps({name: axis[-1] for name, axis in axes.items() if axis}, *spec.check_ids)
    # One TheoremParams per triple, shared by its checks, owns the hypotheses.
    triple = functools.cache(lambda n, q, p: TheoremParams(n, q, p, exploratory=True))
    # Point-major: the checks whose sums sit at one (n, q, p) run back to back, in CHECKS order,
    # so each sum is built once (series keeps its last few).  Reports are sorted: bytes hold.
    by_point = {}
    for check, c in checks.items():
        for args in itertools.product(*(axes[name] for name in c.params)):
            if not c.domain(*args):
                continue
            point = c.point(*args)
            if c.params == _TRIPLE:
                args = (triple(*args),)
                if not (spec.exploratory or args[0].in_hypothesis):
                    continue
            by_point.setdefault(point, []).append((check, args))
    return [unit for units in by_point.values() for unit in units]


def _run_unit(unit: tuple) -> list[CongruenceReport]:
    check, args = unit
    c = verify.CHECKS[check]
    try:
        result = getattr(verify, c.function)(*args)
    except HypercongError as exc:
        if c.params != _TRIPLE or args[0].in_hypothesis or isinstance(exc, CapExceeded):
            raise
        # Exploratory tuple the evaluators cannot even express: record the
        # attempt rather than dropping the grid point.  A p above a cap still exits 2.
        return [CongruenceReport(check, args[0].as_params(), c.required_ord, None, None,
                                 Verdict.HYPOTHESIS_VIOLATED)]
    return list(result) if isinstance(result, (list, tuple)) else [result]


def _sort_key(report: CongruenceReport):
    p = report.params
    return (report.check_id, p.get("n", 0), p.get("q", 0), p.get("d", 0), p.get("p", 0))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Expand the grid, run every check, and return sorted reports + summary."""
    spec.validate()
    units = _expand_units(spec)
    if not units:
        raise ConfigError("the requested grid expands to no work units")
    workers = min(spec.parallelism, len(units), os.cpu_count() or 1)
    if workers > 1:
        chunksize = max(1, len(units) // (workers * 8))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                batches = list(pool.map(_run_unit, units, chunksize=chunksize))
        except (BrokenProcessPool, OSError) as exc:  # a worker was killed, or could not start
            raise HypercongError(f"the sweep's process pool failed: {exc}") from None
    else:
        batches = [_run_unit(u) for u in units]
    reports = sorted((r for batch in batches for r in batch), key=_sort_key)
    summary = {v.value: sum(r.verdict is v for r in reports) for v in Verdict}
    return SweepResult(spec, tuple(reports), summary)


def _ord_to_wire(value):
    if value is None:
        return None
    if value == math.inf:
        return "inf"
    return int(value)


def _report_row(report: CongruenceReport) -> dict:
    residue = report.residue_at_required
    return {
        "check_id": report.check_id,
        "params": {k: int(v) for k, v in report.params.items()},
        "required_ord": _ord_to_wire(report.required_ord),
        "achieved_ord": _ord_to_wire(report.achieved_ord),
        "residue": str(residue.value) if residue is not None else None,
        "verdict": report.verdict.value,
    }


def render_json(result: SweepResult) -> str:
    # parallelism and output destination are execution details; leaving them
    # out keeps output byte-identical across parallelism levels.
    spec = result.spec
    payload = {
        "spec": {
            "checks": list(spec.check_ids),
            "n_range": list(spec.n_range),
            "q_range": list(spec.q_range),
            "d_range": list(spec.d_range),
            "p_max": spec.p_max,
            "exploratory": spec.exploratory,
        },
        "reports": [_report_row(r) for r in result.reports],
        "summary": result.summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


CSV_COLUMNS = ("check_id", "n", "q", "d", "p", "required_ord", "achieved_ord",
               "residue", "verdict")


def render_csv(result: SweepResult) -> str:
    # The rows of render_json with their params spread into columns; the csv
    # module writes None and absent parameters as empty fields.
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, CSV_COLUMNS, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for row in map(_report_row, result.reports):
        writer.writerow({**row.pop("params"), **row})
    return buffer.getvalue()


def _format_report(r: CongruenceReport) -> str:
    # The row of render_json on one line, with "-" for its nulls.
    row = {k: "-" if v is None else v for k, v in _report_row(r).items()}
    params = " ".join(f"{k}={v}" for k, v in sorted(row["params"].items()))
    fields = " ".join(f"{k}={row[k]}"
                      for k in ("verdict", "required_ord", "achieved_ord", "residue"))
    return f"{row['check_id']} [{params}] {fields}"


def _parse_range(key: str, value) -> tuple[int, int]:
    if isinstance(value, (list, tuple)):
        if len(value) != 2 or not all(type(v) is int for v in value):
            raise ConfigError(f"{key} range must be two integer endpoints, got {value!r}")
        return value[0], value[1]
    lo, dots, hi = str(value).partition("..")
    try:
        return int(lo), int(hi if dots else lo)
    except ValueError:
        raise ConfigError(f"cannot parse {key} range {value!r}; expected A..B") from None


def _typed(*kinds: type):
    # Checked, not converted: int("abc") would raise and bool("false") is True.
    def check(key: str, value):
        if type(value) not in kinds:
            raise ConfigError(f"config value {key!r} has the wrong type: {value!r}")
        return value
    return check


def _parse_checks(key: str, value) -> tuple[str, ...]:
    value = _typed(str, list)(key, value)
    if isinstance(value, str):
        return tuple(c.strip() for c in value.split(",") if c.strip())
    return tuple(str(c) for c in value)


# Config key (also the flag's argparse dest): the SweepSpec field it sets and
# its parser.  Unset keys take the SweepSpec defaults.
_SETTINGS = {
    "checks": ("check_ids", _parse_checks),
    "n": ("n_range", _parse_range),
    "q": ("q_range", _parse_range),
    "d": ("d_range", _parse_range),
    "p_max": ("p_max", _typed(int)),
    "exploratory": ("exploratory", _typed(bool)),
    "parallel": ("parallelism", _typed(int)),
    "format": ("output_format", _typed(str)),
    "out": ("output_path", _typed(str, type(None))),
}


def _build_sweep_spec(args) -> SweepSpec:
    settings = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                settings = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}") from None
        if not isinstance(settings, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(settings) - set(_SETTINGS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    # explicit flags override the file
    settings.update((k, v) for k, v in vars(args).items() if k in _SETTINGS and v is not None)
    return SweepSpec(**{_SETTINGS[k][0]: _SETTINGS[k][1](k, v) for k, v in settings.items()})


def _cmd_sweep(args) -> int:
    spec = _build_sweep_spec(args)
    out = spec.output_path
    # Refused before the sweep runs; an existing file keeps its bytes until it ends.
    if out and os.path.isdir(out):
        raise ConfigError(f"cannot write output: {out} is a directory")
    if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ConfigError(f"cannot write output: {out} has no parent directory")
    result = run_sweep(spec)
    text = render_json(result) if spec.output_format == "json" else render_csv(result)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from None
    else:
        sys.stdout.write(text)
    return result.exit_code


def _cmd_verify(args) -> int:
    check = args.check
    if check not in verify.CHECKS:
        raise ConfigError(f"unknown check id {check!r}; choose from {', '.join(CHECK_NAMES)}")
    names = verify.CHECKS[check].params
    for name in _VERIFY_FLAGS:
        if (getattr(args, name) is None) == (name in names):
            verb = "requires" if name in names else "does not take"
            raise ConfigError(f"check {check!r} {verb} --{name}")
    if args.exploratory and names != _TRIPLE:
        raise ConfigError(f"check {check!r} does not take --exploratory")
    values = tuple(getattr(args, name) for name in names)
    if names == _TRIPLE:  # refuses a tuple outside the hypotheses unless exploratory
        values = (TheoremParams(*values, exploratory=args.exploratory),)
    reports = _run_unit((check, values))
    for r in reports:
        print(_format_report(r))
    return _exit_code(reports)


def _cmd_primes(args) -> int:
    if args.limit < 2:
        raise ConfigError(f"limit must be at least 2, got {args.limit}")
    for p in primes_upto(args.limit):
        print(p)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercong",
        description="Exact verification of truncated hypergeometric supercongruences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one check on one parameter tuple")
    p_verify.add_argument("check", help=f"one of: {', '.join(CHECK_NAMES)}")
    for name in _VERIFY_FLAGS:
        p_verify.add_argument(f"--{name}", type=int)
    p_verify.add_argument("--exploratory", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run checks over a parameter grid")
    p_sweep.add_argument("--checks", help="comma-separated check ids")
    p_sweep.add_argument("--n", help="range A..B for the exponent n")
    p_sweep.add_argument("--q", help="range A..B for the shift q")
    p_sweep.add_argument("--d", help="range A..B for the even degree d")
    p_sweep.add_argument("--p-max", dest="p_max", type=int)
    p_sweep.add_argument("--exploratory", action="store_true", default=None)
    p_sweep.add_argument("--parallel", type=int)
    p_sweep.add_argument("--format", choices=("json", "csv"))
    p_sweep.add_argument("--out", help="output path (default: stdout)")
    p_sweep.add_argument("--config", help="JSON config file; flags override it")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_primes = sub.add_parser("primes", help="emit all primes up to a limit")
    p_primes.add_argument("limit", type=int)
    p_primes.set_defaults(func=_cmd_primes)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypercongError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
