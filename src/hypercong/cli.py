"""Batch sweep driver and command-line interface.

Three verbs: ``verify`` runs one check on one parameter tuple and prints a
human-readable report; ``sweep`` expands a parameter grid, runs every
registered check (optionally across processes) and emits JSON or CSV;
``primes`` prints sieve output.

Exit codes are a stable contract for CI: 0 when no asserted check fails,
1 when any asserted check fails (or is ill-posed), 2 on configuration or
precondition errors, when memory runs out, when a sweep's worker process dies
or cannot start and when the reader closed the output early, which says
nothing of a check.
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
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from . import verify
from .errors import CapExceeded, ConfigError, HypercongError
from .padic import _decimal
from .series import TheoremParams
from .verify import _TRIPLE, CongruenceReport, Verdict

__all__ = ["SweepSpec", "SweepResult", "primes_upto", "run_sweep", "main", "CHECK_NAMES"]

CHECK_NAMES = tuple(verify.CHECKS)
# Every integer flag of ``verify``, in CHECKS order: n, q, p, d.
_VERIFY_FLAGS = tuple(dict.fromkeys(name for c in verify.CHECKS.values() for name in c.params))


# The sieve holds one byte per integer up to its limit; larger limits are
# refused before anything is allocated.
SIEVE_LIMIT = 10**7
# Candidate points of a sweep grid, summed over its checks, counted before
# any unit is built.
GRID_LIMIT = 10**5


def primes_upto(limit: int) -> list[int]:
    """Ascending list of all primes <= limit (empty below 2).  A limit that is not an int
    raises TypeError, and one above SIEVE_LIMIT CapExceeded."""
    if type(limit) is not int:  # True would read as 1, 10.0 would fail inside
        raise TypeError(f"the sieve limit must be int, got {type(limit).__name__}")
    if limit > SIEVE_LIMIT:
        raise CapExceeded(f"sieve limit {_decimal(limit)} exceeds the cap {SIEVE_LIMIT}")
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if sieve[i]]


def _misfit(value, kind: type, count: int | None = None) -> str:
    # Why value is not a tuple or list of kind (count of them, if given), by type names: never
    # by its digits, which str() refuses past a limit.  Empty when it is.
    if not isinstance(value, (tuple, list)):
        return type(value).__name__
    wrong = ", ".join(sorted({type(v).__name__ for v in value if type(v) is not kind}))
    return wrong or ("" if count in (None, len(value)) else f"{len(value)} items")


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
        # The one check of each field's shape, stated by its _SETTINGS row, for a flag, a config
        # value and a library caller alike: a str of ids would be read as its letters, a float
        # or str would reach a comparison, "3..5" would be unpacked and "no" would be true.
        for name, shape, *_ in _SETTINGS.values():
            value = getattr(self, name)
            if shape is _parse_checks and (wrong := _misfit(value, str)):
                raise ConfigError(f"check ids must be a tuple of str, got {wrong}")
            if shape is _parse_range and (wrong := _misfit(value, int, 2)):
                raise ConfigError(f"{name} must be a tuple of two int, got {wrong}")
            if isinstance(shape, tuple) and type(value) not in shape:
                raise ConfigError(f"{name} must be {' or '.join(k.__name__ for k in shape)}, "
                                  f"got {type(value).__name__}")
        repeated = sorted({c for c in self.check_ids if self.check_ids.count(c) > 1})
        if repeated:
            raise ConfigError(f"repeated check id(s): {', '.join(repeated)}")
        unknown = [c for c in self.check_ids if c not in CHECK_NAMES]
        if unknown:
            raise ConfigError(f"unknown check id(s): {', '.join(unknown)}")
        if not self.check_ids:
            raise ConfigError("no checks requested")
        if self.p_max < 5:
            raise ConfigError(f"p_max must be at least 5, got {_decimal(self.p_max)}")
        for name, (lo, hi) in zip("nqd", (self.n_range, self.q_range, self.d_range)):
            if lo > hi:
                raise ConfigError(f"empty {name} range {_decimal(lo)}..{_decimal(hi)}")
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be positive, got {_decimal(self.parallelism)}")
        if self.output_format not in RENDERERS:
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
    return int(any(r.verdict in (Verdict.FAILS, Verdict.ILL_POSED) for r in reports))


def _expand_units(spec: SweepSpec) -> list[tuple]:
    # A unit is (check id, the positional arguments of its verify function).
    axes = {name: range(max(lo, 1), hi + 1) for name, (lo, hi)
            in (("n", spec.n_range), ("q", spec.q_range), ("d", spec.d_range))}
    axes["p"] = primes_upto(spec.p_max)
    # stop - start: len() of a range past sys.maxsize raises OverflowError.
    size = {name: len(a) if name == "p" else max(a.stop - a.start, 0) for name, a in axes.items()}
    counts = {c: math.prod(size[name] for name in verify.CHECKS[c].params) for c in spec.check_ids}
    points = sum(counts.values())
    if points > GRID_LIMIT:
        raise ConfigError(f"the grid has {_decimal(points)} candidate points, above the cap "
                          f"{GRID_LIMIT}")
    # p_max >= 5: a prime exists.  An empty axis leaves no unit that reads it.
    verify._check_p_caps({name: axis[-1] for name, axis in axes.items() if axis}, *spec.check_ids)
    # One TheoremParams per triple, shared by its checks, owns the hypotheses.
    triple = functools.cache(lambda n, q, p: TheoremParams(n, q, p, exploratory=True))
    # Point-major: the checks whose sums sit at one (n, q, p) run back to back, in CHECKS order,
    # so each sum is built once (series keeps its last few); longest prime first (a stable sort),
    # so a pool's last chunk is cheapest and padic's per-prime memos hit.  Reports are sorted.
    by_point = {}
    # A check with an empty axis has no unit, and product() would first copy its other axes.
    for check, c in ((k, verify.CHECKS[k]) for k, count in counts.items() if count):
        for args in itertools.product(*(axes[name] for name in c.params)):
            if not c.domain(*args):
                continue
            point = c.point(*args)
            if c.params == _TRIPLE:
                args = (triple(*args),)
                if not (spec.exploratory or args[0].in_hypothesis):
                    continue
            by_point.setdefault(point, []).append((check, args))
    return [u for point in sorted(by_point, key=lambda point: -point[2]) for u in by_point[point]]


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
        # Imported here: the pool pulls in multiprocessing, which a serial run never needs.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        chunksize = max(1, len(units) // (workers * 8))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                batches = list(pool.map(_run_unit, units, chunksize=chunksize))
        except (BrokenProcessPool, OSError) as exc:  # a worker was killed, or could not start
            raise HypercongError(f"the sweep's process pool failed: {exc}") from None
    else:
        batches = [_run_unit(u) for u in units]
    reports = sorted((r for batch in batches for r in batch), key=_sort_key)
    tally = Counter(r.verdict for r in reports)  # one pass; every verdict keeps its key
    summary = {v.value: tally[v] for v in Verdict}
    return SweepResult(spec, tuple(reports), summary)


def _ord_to_wire(value):
    return value if value is None else "inf" if value == math.inf else int(value)


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


def _json_scalar(value) -> str:
    # An ord or residue as json.dumps writes it: a str ("inf" or a residue), an int or None.
    return "null" if value is None else _quote(value) if type(value) is str else str(value)


def _json_row(report: CongruenceReport) -> str:
    # _report_row(report) as json.dumps(indent=2, sort_keys=True) writes it inside "reports":
    # keys sorted, the row at depth 2 and its params at depth 3.  On Python 3.10-3.12, indent
    # turns json's C encoder off, and its generators took about 15% of a full-grid sweep.
    row = _report_row(report)
    params = ",\n".join([f"        {_quote(k)}: {v}" for k, v in sorted(row["params"].items())])
    return (f'    {{\n      "achieved_ord": {_json_scalar(row["achieved_ord"])},\n'
            f'      "check_id": {_quote(row["check_id"])},\n'
            f'      "params": {{\n{params}\n      }},\n'
            f'      "required_ord": {_json_scalar(row["required_ord"])},\n'
            f'      "residue": {_json_scalar(row["residue"])},\n'
            f'      "verdict": {_quote(row["verdict"])}\n    }}')


def render_json(result: SweepResult) -> str:
    # json.dumps(payload, indent=2, sort_keys=True) + "\n", the oracle the tests hold it to.
    # The spec echo holds the settings that have an echo key; json writes tuples as lists.
    spec = {echo: getattr(result.spec, f) for f, _, _, echo in _SETTINGS.values() if echo}
    rest = json.dumps({"spec": spec, "summary": result.summary}, indent=2, sort_keys=True)
    rows = ",\n".join(map(_json_row, result.reports))
    reports = f"[\n{rows}\n  ]" if rows else "[]"
    # "reports" sorts before "spec" and "summary", so it goes in as the first key of rest.
    return f'{{\n  "reports": {reports},{rest[1:]}\n'


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


# The output formats, by name: the only list of them.
RENDERERS = {"json": render_json, "csv": render_csv}


def _format_report(r: CongruenceReport) -> str:
    # The row of render_json on one line, with "-" for its nulls.
    row = {k: "-" if v is None else v for k, v in _report_row(r).items()}
    params = " ".join(f"{k}={v}" for k, v in sorted(row["params"].items()))
    fields = " ".join(f"{k}={row[k]}"
                      for k in ("verdict", "required_ord", "achieved_ord", "residue"))
    return f"{row['check_id']} [{params}] {fields}"


def _parse_range(key: str, value):
    # Text to two endpoints: "A..B", "A" or an int A.  Any other value goes to SweepSpec as is.
    if type(value) is not str:
        return (value, value) if type(value) is int else value
    lo, dots, hi = value.partition("..")
    try:
        return int(lo), int(hi if dots else lo)
    except ValueError:
        raise ConfigError(f"cannot parse {key} range {value!r}; expected A..B") from None


def _parse_checks(key: str, value):
    # Text to ids: "a,b" to ("a", "b").  Any other value goes to SweepSpec as is.
    return tuple(c.strip() for c in value.split(",") if c.strip()) if type(value) is str else value


# Config key: the SweepSpec field it sets (unset, its default), its shape (the parser of a
# range's or the ids' text, else the types of a scalar; SweepSpec.validate checks it), the
# keywords of its flag --<key> (dest key, - for _) and its key in render_json's spec echo.  The
# execution details parallel, format and out have none: the output bytes never depend on them.
_SETTINGS = {
    "checks": ("check_ids", _parse_checks, {"help": "comma-separated check ids"}, "checks"),
    "n": ("n_range", _parse_range, {"help": "range A..B for the exponent n"}, "n_range"),
    "q": ("q_range", _parse_range, {"help": "range A..B for the shift q"}, "q_range"),
    "d": ("d_range", _parse_range, {"help": "range A..B for the even degree d"}, "d_range"),
    "p_max": ("p_max", (int,), {"type": int}, "p_max"),
    "exploratory": ("exploratory", (bool,), {"action": "store_true", "default": None},
                    "exploratory"),
    "parallel": ("parallelism", (int,), {"type": int}, None),
    "format": ("output_format", (str,), {"choices": tuple(RENDERERS)}, None),
    "out": ("output_path", (str, type(None)), {"help": "output path (default: stdout)"}, None),
}


def _build_sweep_spec(args) -> SweepSpec:
    settings = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                settings = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except (ValueError, RecursionError) as exc:  # ValueError: JSON, UTF-8, a too long int
            raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}") from None
        if not isinstance(settings, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(settings) - set(_SETTINGS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    # explicit flags override the file
    settings.update((k, v) for k, v in vars(args).items() if k in _SETTINGS and v is not None)
    parsed = {k: v if isinstance(_SETTINGS[k][1], tuple) else _SETTINGS[k][1](k, v)
              for k, v in settings.items()}
    return SweepSpec(**{_SETTINGS[k][0]: v for k, v in parsed.items()})


def _cmd_sweep(args) -> int:
    spec = _build_sweep_spec(args)
    spec.validate()  # before output_path is read: {"out": 5} would reach os.path
    out = spec.output_path
    # Refused before the sweep runs; an existing file keeps its bytes until it ends.
    if out and os.path.isdir(out):
        raise ConfigError(f"cannot write output: {out} is a directory")
    if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ConfigError(f"cannot write output: {out} has no parent directory")
    result = run_sweep(spec)
    text = RENDERERS[spec.output_format](result)
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
    for key, (_, _, flag, _) in _SETTINGS.items():
        p_sweep.add_argument(f"--{key.replace('_', '-')}", dest=key, **flag)
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
    try:
        code = main()
        sys.stdout.flush()  # inside the guard, where a pipe the reader closed early is seen
    except BrokenPipeError:  # stdout goes to devnull, so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
