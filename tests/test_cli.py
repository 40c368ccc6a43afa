import argparse
import concurrent.futures
import dataclasses
import errno
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hypercong import cli, padic, series, verify
from hypercong.cli import (
    CHECK_NAMES,
    SweepResult,
    SweepSpec,
    main,
    primes_upto,
    render_csv,
    render_json,
    run_sweep,
)
from hypercong.errors import CapExceeded, ConfigError, PreconditionViolated
from hypercong.verify import CongruenceReport, Verdict


def spec_for(checks, **kw):
    defaults = dict(n_range=(3, 5), q_range=(1, 2), p_max=30)
    defaults.update(kw)
    return SweepSpec(check_ids=tuple(checks), **defaults)


def test_primes_upto_examples():
    assert primes_upto(10) == [2, 3, 5, 7]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(2) == [2]
    assert primes_upto(1) == []


@pytest.mark.parametrize("limit", [True, 10.0], ids=["bool", "float"])
def test_primes_upto_refuses_a_limit_that_is_not_an_int(limit):
    # True read as 1 and gave [], and 10.0 failed inside on a sequence size.
    with pytest.raises(TypeError, match="the sieve limit must be int"):
        primes_upto(limit)


def test_spec_validation_errors():
    with pytest.raises(ConfigError, match="unknown check"):
        run_sweep(spec_for(["theorem9"]))
    with pytest.raises(ConfigError, match="p_max"):
        run_sweep(spec_for(["theorem1"], p_max=3))
    with pytest.raises(ConfigError, match="empty n range"):
        run_sweep(spec_for(["theorem1"], n_range=(5, 3)))
    with pytest.raises(ConfigError, match="format"):
        run_sweep(spec_for(["theorem1"], output_format="xml"))
    with pytest.raises(ConfigError, match="parallelism"):
        run_sweep(spec_for(["theorem1"], parallelism=0))
    with pytest.raises(ConfigError, match="no work units"):
        run_sweep(spec_for(["dflst"], n_range=(3, 3), p_max=6))


@pytest.mark.parametrize("check_ids, kinds", [
    ((1,), "int"), (("theorem1", 1, None), "NoneType, int"), ("theorem1", "str"), (7, "int"),
])
def test_library_check_ids_that_are_not_a_tuple_of_str_are_refused(check_ids, kinds):
    # A library caller's ids: an int would break the messages' join, a str its letters.
    with pytest.raises(ConfigError, match=f"check ids must be a tuple of str, got {kinds}$"):
        SweepSpec(check_ids=check_ids).validate()


@pytest.mark.parametrize("field, value, message", [
    ("p_max", 11.0, "p_max must be int, got float"),
    ("p_max", "11", "p_max must be int, got str"),
    ("parallelism", 2.0, "parallelism must be int, got float"),
    ("n_range", (3.0, 5), "n_range must be a tuple of two int, got float"),
    ("output_format", ["json"], "output_format must be str, got list"),
    ("n_range", "3..5", "n_range must be a tuple of two int, got str"),
    ("n_range", (3, 4, 5), "n_range must be a tuple of two int, got 3 items"),
    ("exploratory", "no", "exploratory must be bool, got str"),
])
def test_library_fields_of_the_wrong_shape_are_refused(field, value, message):
    # A float or str escaped as TypeError from a comparison or a lookup, "3..5" and (3, 4, 5)
    # as ValueError from unpacking, and "no" ran an exploratory sweep.
    spec = dataclasses.replace(spec_for(["theorem1"], p_max=11), **{field: value})
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_sweep(spec)


def test_library_ranges_and_check_ids_may_be_lists():
    as_lists = SweepSpec(check_ids=["theorem1"], n_range=[3, 5], q_range=[1, 2], p_max=11)
    as_tuples = SweepSpec(check_ids=("theorem1",), n_range=(3, 5), q_range=(1, 2), p_max=11)
    assert run_sweep(as_lists).reports == run_sweep(as_tuples).reports


def test_theorem1_sweep_grid():
    result = run_sweep(spec_for(["theorem1"]))
    assert result.summary["fails"] == 0
    assert result.summary["holds"] == len(result.reports)
    # partition correctness: one report per in-hypothesis tuple
    primes = primes_upto(30)
    expected = sum(
        1
        for n in range(3, 6)
        for q in range(1, 3)
        for p in primes
        if (n % 2 == 0 or q % 2 == 1) and p > max(n, (q - 1) * n + 1)
    )
    assert len(result.reports) == expected
    assert result.exit_code == 0


def test_the_summary_counts_every_verdict_in_verdict_order():
    # Zeros included: a theorem1 grid holds, so four of the five keys count nothing.
    result = run_sweep(spec_for(["theorem1"]))
    assert list(result.summary) == [v.value for v in Verdict]
    assert result.summary == {**dict.fromkeys(result.summary, 0), "holds": len(result.reports)}
    explored = run_sweep(spec_for(["theorem1"], exploratory=True)).summary
    assert sum(explored.values()) > len(result.reports) and explored["hypothesis_violated"]


def test_reports_sorted_lexicographically():
    result = run_sweep(spec_for(["theorem1", "guo"], d_range=(4, 4), p_max=20))
    keys = [
        (r.check_id, r.params.get("n", 0), r.params.get("q", 0),
         r.params.get("d", 0), r.params.get("p", 0))
        for r in result.reports
    ]
    assert keys == sorted(keys)


def test_exploratory_sweep_tags_out_of_hypothesis_tuples():
    base = run_sweep(spec_for(["theorem1"]))
    explored = run_sweep(spec_for(["theorem1"], exploratory=True))
    assert explored.summary["hypothesis_violated"] > 0
    assert explored.summary["holds"] == base.summary["holds"]
    assert explored.exit_code == 0  # observations never fail the run


def test_suite_checks_emit_subreports():
    result = run_sweep(spec_for(["lemmas"], n_range=(4, 4), q_range=(2, 2), p_max=7))
    assert len(result.reports) == 7
    assert {r.check_id for r in result.reports} == {
        "lemmas/h2-head", "lemmas/h2-shift", "lemmas/h2-plain",
        "lemmas/h1-shift", "lemmas/h1-shift-sq",
        "lemmas/s1-offset", "lemmas/s1-offset-sq",
    }


def test_json_output_is_identical_across_parallelism():
    sequential = run_sweep(spec_for(["theorem1", "guo"]))
    parallel = run_sweep(spec_for(["theorem1", "guo"], parallelism=3))
    assert render_json(sequential) == render_json(parallel)


def test_json_schema_and_inf_encoding():
    result = run_sweep(
        spec_for(["identities"], n_range=(4, 4), q_range=(2, 2), p_max=7)
    )
    payload = json.loads(render_json(result))
    assert set(payload) == {"spec", "reports", "summary"}
    assert "parallelism" not in payload["spec"]
    rows = {r["check_id"]: r for r in payload["reports"]}
    assert rows["identities/reflection"]["required_ord"] == "inf"
    assert rows["identities/reflection"]["achieved_ord"] == "inf"
    assert rows["identities/p2-reduction"]["required_ord"] == 3
    assert isinstance(rows["identities/p2-reduction"]["residue"], str)
    assert payload["summary"]["holds"] == 5


def _json_oracle(result: SweepResult) -> str:
    rows = [cli._report_row(r) for r in result.reports]
    spec = {echo: getattr(result.spec, f) for f, _, _, echo in cli._SETTINGS.values() if echo}
    payload = {"spec": spec, "reports": rows, "summary": result.summary}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_json_rows_match_json_dumps_on_shapes_the_grids_never_reach():
    # render_json writes each row from a template; json.dumps is its oracle.  The byte
    # fences hold the grids' rows; these hand-built reports hold the rest.
    m = padic.PrimePowerModulus(7, 3)
    reports = (
        CongruenceReport("theorem1", {"n": 4, "q": 1, "p": 7}, 3, -2, None, Verdict.ILL_POSED),
        CongruenceReport("identities/p2-reduction", {"n": 3, "q": 1, "p": 5}, 3, None, None,
                         Verdict.SKIPPED),
        CongruenceReport("identities/reflection", {"n": 4, "q": 2, "p": 7}, math.inf, math.inf,
                         None, Verdict.HOLDS),
        CongruenceReport("guo", {"d": 4, "p": 7}, 3, 2, padic.Residue(98, m), Verdict.FAILS),
        CongruenceReport("sun-e", {"p": 7}, 5, 5, padic.Residue(0, padic.PrimePowerModulus(7, 5)),
                         Verdict.HOLDS),
        CongruenceReport("sun-bernoulli", {"p": 7, "n": 4}, 5, 6, None, Verdict.HOLDS),
        CongruenceReport("dflst", {"n": 3, "p": 7}, 3, 3, padic.Residue(0, m), Verdict.HOLDS),
    )
    summary = {v.value: sum(r.verdict is v for r in reports) for v in Verdict}
    spec = spec_for(["theorem1"])
    for rows in (reports, reports[:1], ()):
        result = SweepResult(spec, rows, summary)
        assert render_json(result) == _json_oracle(result)
    assert '"reports": [],' in render_json(SweepResult(spec, (), summary))


def test_json_encodes_skipped_checks_as_null():
    result = run_sweep(
        spec_for(["identities"], n_range=(4, 4), q_range=(1, 1), p_max=5)
    )
    payload = json.loads(render_json(result))
    skip = [r for r in payload["reports"] if r["verdict"] == "skipped"]
    assert len(skip) == 1
    assert skip[0]["achieved_ord"] is None
    assert skip[0]["residue"] is None
    assert payload["summary"]["skipped"] == 1


def test_csv_output_shape():
    result = run_sweep(spec_for(["guo", "sun-e"], d_range=(4, 4), p_max=20))
    lines = render_csv(result).splitlines()
    assert lines[0] == "check_id,n,q,d,p,required_ord,achieved_ord,residue,verdict"
    guo_rows = [l for l in lines[1:] if l.startswith("guo")]
    sun_rows = [l for l in lines[1:] if l.startswith("sun-e")]
    assert guo_rows and sun_rows
    # guo rows carry d and p but no n, q
    first = guo_rows[0].split(",")
    assert first[1] == "" and first[2] == "" and first[3] == "4"


def test_exit_code_contract_on_synthetic_failure():
    spec = spec_for(["theorem1"])
    failing = CongruenceReport("theorem1", {"n": 4, "q": 1, "p": 7}, 3, 1, None,
                               Verdict.FAILS)
    assert SweepResult(spec, (failing,), {}).exit_code == 1
    tagged = CongruenceReport("theorem1", {"n": 3, "q": 2, "p": 7}, 3, 1, None,
                              Verdict.HYPOTHESIS_VIOLATED)
    assert SweepResult(spec, (tagged,), {}).exit_code == 0


def _assert_a_sweep_refuses_a_right_side_above_the_residue_cap(monkeypatch, capsys, check,
                                                                work, message):
    # No domain skips a prime any more: the sweep reads the p = 31 units, and a right side that
    # costs more than padic.RESIDUE_CAP exits 2 before it builds G(t) or a power sum.
    sweep = ["sweep", "--checks", check, "--n", "3..3", "--p-max", "31", "--format", "csv"]
    assert main(sweep) == 0
    assert ",31," in capsys.readouterr().out

    def never(*args):
        raise AssertionError("built above the cap")

    monkeypatch.setattr(padic, "_block_polynomial", never)
    monkeypatch.setattr(padic, "pow", never, raising=False)  # shadows the builtin in padic
    monkeypatch.setattr(padic, "RESIDUE_CAP", work - 1)
    assert main(sweep) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_dflst_grid_respects_morita_cap(monkeypatch, capsys):
    _assert_a_sweep_refuses_a_right_side_above_the_residue_cap(
        monkeypatch, capsys, "dflst", 3 * (31 + 9 * 5),
        "Morita Gamma at p = 31, k = 3 exceeds the residue cap 227 on k (p + k^2 log2 p)")


def test_sun_bernoulli_grid_respects_the_bernoulli_cap(monkeypatch, capsys):
    _assert_a_sweep_refuses_a_right_side_above_the_residue_cap(
        monkeypatch, capsys, "sun-bernoulli", 2 * 31, "r p = 62 exceeds the residue cap 61")


def test_main_verify_paths(capsys):
    assert main(["verify", "theorem1", "--n", "4", "--q", "1", "--p", "7"]) == 0
    out = capsys.readouterr().out
    assert "verdict=holds" in out
    assert main(["verify", "theorem1", "--n", "4", "--q", "1"]) == 2  # missing --p
    assert main(["verify", "theorem1", "--n", "4", "--q", "2", "--p", "5"]) == 2
    assert main(["verify", "nonsense", "--p", "5"]) == 2


@pytest.mark.parametrize("argv,flag", [
    (["theorem1", "--n", "3", "--q", "1", "--p", "5", "--d", "4"], "d"),
    (["guo", "--d", "4", "--p", "19", "--n", "3"], "n"),
    (["sun-e", "--p", "7", "--q", "2"], "q"),
    (["dflst", "--n", "3", "--p", "7", "--d", "6"], "d"),
])
def test_main_verify_rejects_a_flag_the_check_does_not_read(capsys, argv, flag):
    check = argv[0]
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: check '{check}' does not take --{flag}\n"
    assert captured.out == ""
    dropped = argv[:argv.index(f"--{flag}")] + argv[argv.index(f"--{flag}") + 2:]
    assert main(["verify", *dropped]) == 0


@pytest.mark.parametrize("argv", [
    ["guo", "--d", "4", "--p", "7"],
    ["sun-e", "--p", "7"],
    ["sun-bernoulli", "--p", "7", "--n", "3"],
    ["dflst", "--n", "3", "--p", "7"],
], ids=lambda argv: argv[0])
def test_main_verify_refuses_exploratory_for_checks_without_a_triple(capsys, argv):
    check = argv[0]
    assert main(["verify", *argv, "--exploratory"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: check '{check}' does not take --exploratory\n"
    assert captured.out == ""
    assert main(["verify", *argv]) == 0


def _env_with_src() -> dict:
    # The environment of a child Python that imports this checkout's package.
    src = Path(cli.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))


def test_python_dash_m_hypercong_runs_the_cli_quietly():
    proc = subprocess.run([sys.executable, "-m", "hypercong", "primes", "10"],
                          capture_output=True, text=True, env=_env_with_src(), timeout=60)
    assert (proc.returncode, proc.stdout.split(), proc.stderr) == (0, ["2", "3", "5", "7"], "")


def test_a_reader_that_closes_the_output_early_exits_2_without_a_traceback():
    # As `hypercong primes 1000000 | head -1` does: the write fails with EPIPE, which says
    # nothing of a check, so it must not exit 1 through a traceback.
    with subprocess.Popen([sys.executable, "-m", "hypercong", "primes", "1000000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_env_with_src()) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert (first, proc.returncode) == (b"2\n", 2)
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_a_serial_run_does_not_load_the_process_pool():
    # multiprocessing (with socket, pickle, subprocess, logging) is loaded only by a sweep
    # that starts workers, not by the package, a verify or a --parallel 1 sweep.
    code = ("import sys, hypercong\n"
            "hypercong.main(['verify', 'sun-bernoulli', '--p', '41', '--n', '4'])\n"
            "hypercong.main(['sweep', '--checks', 'theorem1', '--n', '3..4', '--q', '1..1',\n"
            "                '--p-max', '13', '--parallel', '1', '--format', 'csv'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
            "             ('multiprocessing', 'concurrent')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env_with_src(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0].startswith("sun-bernoulli [n=4 p=41] verdict=holds")
    assert proc.stdout.splitlines()[-1] == "[]"


def test_main_primes(capsys):
    assert main(["primes", "10"]) == 0
    assert capsys.readouterr().out.split() == ["2", "3", "5", "7"]
    assert main(["primes", "1"]) == 2


def test_main_sweep_with_config_and_overrides(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps({"checks": "theorem1", "n": "4..4", "q": [1, 1], "p_max": 30})
    )
    out_file = tmp_path / "out.json"
    code = main(
        ["sweep", "--config", str(config), "--p-max", "11", "--out", str(out_file)]
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["spec"]["p_max"] == 11  # flag overrides file
    assert {r["params"]["p"] for r in payload["reports"]} == {5, 7, 11}


def _sweep_parser() -> argparse.ArgumentParser:
    commands = next(a for a in cli._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return commands.choices["sweep"]


def test_the_sweep_flags_are_the_rows_of_the_settings_table():
    # One row per SweepSpec field, and one flag --<key> per row, - for _, with dest key.
    fields = sorted(row[0] for row in cli._SETTINGS.values())
    assert fields == sorted(f.name for f in dataclasses.fields(SweepSpec))
    flags = {name: a.dest for a in _sweep_parser()._actions for name in a.option_strings}
    assert flags == {"-h": "help", "--help": "help", "--config": "config",
                     **{f"--{key.replace('_', '-')}": key for key in cli._SETTINGS}}
    assert _sweep_parser()._option_string_actions["--format"].choices == tuple(cli.RENDERERS)


def test_the_json_spec_echoes_exactly_the_rows_with_an_echo_key():
    echo = {row[3]: row[0] for row in cli._SETTINGS.values() if row[3] is not None}
    spec = spec_for(["theorem1", "sun-e"], n_range=(4, 4), q_range=(1, 1), p_max=13,
                    parallelism=2, output_format="csv", output_path="ignored.csv")
    echoed = json.loads(render_json(run_sweep(spec)))["spec"]
    assert echoed == {key: json.loads(json.dumps(getattr(spec, field)))
                      for key, field in echo.items()}
    assert set(echo.values()) == {"check_ids", "n_range", "q_range", "d_range", "p_max",
                                  "exploratory"}


def test_a_config_with_every_key_gives_the_bytes_of_the_flags(tmp_path):
    settings = {"checks": "theorem1,sun-e,guo", "n": "3..4", "q": "1..2", "d": "4..6",
                "p_max": 13, "exploratory": True, "parallel": 1, "format": "csv"}
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**settings, "out": str(tmp_path / "config.csv")}))
    flags = [f"--{key.replace('_', '-')}" + ("" if value is True else f"={value}")
             for key, value in settings.items()]
    flags.append(f"--out={tmp_path / 'flags.csv'}")
    assert set(json.loads(config.read_text())) == set(cli._SETTINGS)
    assert main(["sweep", "--config", str(config)]) == main(["sweep", *flags]) == 0
    text = (tmp_path / "config.csv").read_text()
    assert text == (tmp_path / "flags.csv").read_text() and text.count("\n") > 10


def test_main_sweep_config_errors(tmp_path, capsys):
    assert main(["sweep", "--checks", "theorem9", "--p-max", "10"]) == 2
    assert "unknown check" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert main(["sweep", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["sweep", "--config", str(missing)]) == 2
    assert main(["sweep"]) == 2  # no checks given at all


def test_all_registered_checks_run_over_a_small_grid():
    spec = SweepSpec(
        check_ids=CHECK_NAMES,
        n_range=(3, 4),
        q_range=(1, 2),
        d_range=(4, 6),
        p_max=13,
    )
    result = run_sweep(spec)
    assert result.summary["fails"] == 0
    assert result.summary["ill_posed"] == 0
    seen = {r.check_id.split("/")[0] for r in result.reports}
    assert seen == {
        "theorem1", "theorem2", "guo", "sun-e", "sun-bernoulli",
        "dflst", "lemmas", "taylor", "identities",
    }
    assert result.exit_code == 0


@pytest.mark.parametrize(
    "config,message",
    [
        ({"checks": "theorem1", "p_max": "abc"}, "p_max must be int, got str"),
        ({"checks": 5}, "check ids must be a tuple of str, got int"),
        ({"checks": "theorem1", "p_max": 11, "exploratory": "false"},
         "exploratory must be bool, got str"),
        ({"checks": "theorem1", "p_max": 11, "q": ["a", 1]},
         "q_range must be a tuple of two int, got str"),
    ],
    ids=["p_max-not-int", "checks-not-str", "exploratory-not-bool", "range-not-int"],
)
def test_main_sweep_config_type_errors_exit_2(tmp_path, capsys, config, message):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("key, value", [
    ("p_max", "abc"), ("p_max", 13.0), ("parallel", 2.0), ("exploratory", "false"),
    ("format", ["json"]), ("out", 5), ("n", [4.0, 5]), ("n", True), ("checks", 5),
    ("checks", [5]), ("checks", ["theorem1", 5]),
], ids=["p_max-str", "p_max-float", "parallel-float", "exploratory-str", "format-list", "out-int",
        "n-float-item", "n-bool", "checks-int", "checks-int-list", "checks-mixed-list"])
def test_a_config_value_of_the_wrong_shape_gets_the_refusal_of_validate(
        tmp_path, capsys, key, value):
    # One shape rule: a config value that is not text to parse reaches SweepSpec as it is,
    # and main prints the message validate gives a library caller for the same field.
    field = cli._SETTINGS[key][0]
    with pytest.raises(ConfigError) as refusal:
        SweepSpec(**{field: value}).validate()
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({key: value}))
    assert main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {refusal.value}\n"


def test_main_verify_prime_beyond_primality_range_exits_2(capsys):
    big = str(4 * 10**18 + 1)
    assert main(["verify", "theorem1", "--n", "4", "--q", "1", "--p", big]) == 2
    assert "primality range" in capsys.readouterr().err


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its sizing, runs nothing."""

    calls = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize):
        items = list(items)
        self.calls.append((self.max_workers, chunksize, len(items)))
        return [[] for _ in items]


@pytest.mark.parametrize(
    "parallelism,cpus,p_max,expected",
    [
        (64, 3, 97, (3, 15, 366)),  # clamped to the CPU count
        (64, 16, 7, (7, 1, 7)),  # clamped to the number of units
        (2, 16, 97, (2, 22, 366)),
        (8, 1, 7, None),  # one CPU: no pool at all
        (1, 16, 7, None),
    ],
)
def test_run_sweep_clamps_pool_size(monkeypatch, parallelism, cpus, p_max, expected):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "calls", [])
    spec = spec_for(["theorem1"], n_range=(3, 8), q_range=(1, 4), p_max=p_max,
                    parallelism=parallelism)
    run_sweep(spec)
    # (workers, chunksize, units): chunksize follows the clamped worker count.
    assert _RecordingPool.calls == ([] if expected is None else [expected])


def test_the_environment_does_not_change_the_sweep(monkeypatch, capsys):
    # HYPERCONG_MORITA_CAP once overrode the Morita cap; it is now ignored.
    sweep = ["sweep", "--checks", "theorem1,dflst", "--n", "3..4", "--q", "1..1",
             "--p-max", "31", "--format", "csv"]
    monkeypatch.delenv("HYPERCONG_MORITA_CAP", raising=False)
    expected = (main(sweep), capsys.readouterr())
    assert expected[0] == 0 and expected[1].out.count("dflst/") == 16
    for value in ("1000", "abc"):
        monkeypatch.setenv("HYPERCONG_MORITA_CAP", value)
        assert (main(sweep), capsys.readouterr()) == expected, value
        assert main(["verify", "dflst", "--n", "3", "--p", "7"]) == 0
        capsys.readouterr()


def test_sieve_limit_is_enforced_before_any_allocation(monkeypatch, tmp_path, capsys):
    with pytest.raises(CapExceeded):
        primes_upto(cli.SIEVE_LIMIT + 1)
    assert main(["primes", str(cli.SIEVE_LIMIT + 1)]) == 2
    assert "sieve limit" in capsys.readouterr().err
    # Sweeps are checked against a lowered cap, so a broken check could never
    # start a sweep over millions of primes.
    monkeypatch.setattr(cli, "SIEVE_LIMIT", 13)
    sweep = ["sweep", "--checks", "theorem1", "--n", "4..4", "--q", "1..1"]
    assert main(sweep + ["--p-max", "14"]) == 2
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"checks": "theorem1", "n": "4..4", "q": "1..1",
                                  "p_max": 14}))
    assert main(["sweep", "--config", str(config)]) == 2
    assert "sieve limit" in capsys.readouterr().err
    assert main(sweep + ["--p-max", "13"]) == 0


def test_main_verify_reports_an_inexpressible_exploratory_tuple_as_sweep_does(capsys):
    # At p = n, q = 1 the lemma suite cannot be evaluated (q - p/n = 0).
    argv = ["verify", "lemmas", "--n", "5", "--q", "1", "--p", "5", "--exploratory"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "lemmas [n=5 p=5 q=1] verdict=hypothesis_violated "
        "required_ord=1 achieved_ord=- residue=-\n"
    )
    swept = run_sweep(spec_for(["lemmas"], n_range=(5, 5), q_range=(1, 1), p_max=5,
                               exploratory=True))
    at_tuple = [r for r in swept.reports if r.params == {"n": 5, "q": 1, "p": 5}]
    assert [(r.check_id, r.verdict) for r in at_tuple] == [
        ("lemmas", Verdict.HYPOTHESIS_VIOLATED)
    ]
    assert main(argv[:-1]) == 2  # outside the hypotheses without --exploratory
    # At p = n, q >= 3 the theorem2 and dual bases p/n - q + 2 + k vanish.
    for check in ("theorem2", "identities"):
        argv = ["verify", check, "--n", "3", "--q", "3", "--p", "3", "--exploratory"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            f"{check} [n=3 p=3 q=3] verdict=hypothesis_violated "
            "required_ord=3 achieved_ord=- residue=-\n"
        )
        assert main(argv[:-1]) == 2
        assert "range: need p > 7, got p=3" in capsys.readouterr().err


def test_triple_units_follow_the_parity_and_range_hypotheses():
    spec = spec_for(["theorem1", "lemmas"], n_range=(3, 8), q_range=(1, 4), p_max=47,
                    exploratory=True)
    units = cli._expand_units(spec)
    assert len(units) == 2 * 6 * 4 * len(primes_upto(47))
    for check, (tp,) in units:
        n, q, p = tp.n, tp.q, tp.p
        in_hypothesis = (n % 2 == 0 or q % 2 == 1) and p > max(n, (q - 1) * n + 1)
        assert tp.in_hypothesis == in_hypothesis, (check, n, q, p)
    asserted = cli._expand_units(spec_for(spec.check_ids, n_range=(3, 8), q_range=(1, 4),
                                          p_max=47))
    assert asserted == [u for u in units if u[1][0].in_hypothesis]


def test_sweep_units_go_longest_prime_first_one_point_at_a_time():
    units = cli._expand_units(spec_for(CHECK_NAMES, n_range=(3, 5), q_range=(1, 3),
                                       p_max=31, exploratory=True))
    points = [(args[0].n, args[0].q, args[0].p) if verify.CHECKS[check].params == ("n", "q", "p")
              else verify.CHECKS[check].point(*args) for check, args in units]
    primes = [point[2] for point in points]
    assert primes == sorted(primes, reverse=True)
    runs = [[CHECK_NAMES.index(check) for _, (check, _args) in run]
            for _, run in itertools.groupby(zip(points, units), key=lambda pair: pair[0])]
    assert len(runs) == len(set(points))  # each point's units are contiguous
    assert all(order == sorted(order) for order in runs)  # in CHECKS order
    assert any(len(set(order)) > 1 for order in runs)  # dflst shares a triple's point


@pytest.mark.parametrize("check, memo, least", [("dflst", "_block_polynomial", 5),
                                                ("sun-bernoulli", "_bernoulli_residue", 5)])
def test_a_sweep_computes_each_primes_right_side_once(monkeypatch, check, memo, least):
    # dflst's Morita G(t) at (p, 3), sun-bernoulli's B_{p-3} mod p^r at r = 2 for every unit
    # and at r = 4 for the few whose valuation is 6 or more: one computation per argument
    # tuple, the other calls read the memo.
    spec = spec_for([check], n_range=(3, 8), p_max=97)
    primes = [p for _, args in cli._expand_units(spec)
              if (p := dict(zip(verify.CHECKS[check].params, args))["p"]) >= least]
    memo, calls = getattr(padic, memo), []
    monkeypatch.setattr(padic, memo.__name__, lambda *args: calls.append(args) or memo(*args))
    memo.cache_clear()
    run_sweep(spec)
    info = memo.cache_info()
    assert sorted(p for p, precision in calls if precision == (3 if check == "dflst" else 2)) == (
        sorted(primes))
    assert (info.misses, info.hits) == (len(set(calls)), len(calls) - len(set(calls)))
    assert info.hits > 0


def test_the_triple_checks_of_one_tuple_share_one_theorem_params():
    triple_checks = [c for c in CHECK_NAMES if verify.CHECKS[c].params == ("n", "q", "p")]
    assert len(triple_checks) == 5
    units = cli._expand_units(spec_for(CHECK_NAMES, n_range=(3, 5), q_range=(1, 3),
                                       p_max=31, exploratory=True))
    shared = {}
    for check, args in units:
        if check in triple_checks:
            (tp,) = args
            assert tp.exploratory
            assert shared.setdefault((tp.n, tp.q, tp.p), tp) is tp, check
    assert len(shared) == 3 * 3 * len(primes_upto(31))


@pytest.mark.parametrize("check,names", [("guo", "dp"), ("sun-e", "p"),
                                         ("sun-bernoulli", "pn"), ("dflst", "np")])
def test_grid_predicates_keep_exactly_the_points_verify_accepts(check, names):
    keep = verify.CHECKS[check].domain
    run = getattr(verify, verify.CHECKS[check].function)
    points = {tuple({"p": p, "n": m, "d": m}[name] for name in names)
              for m, p in itertools.product(range(1, 13), primes_upto(61))}
    for args in sorted(points):
        try:
            run(*args)
            accepted = True
        except PreconditionViolated:
            accepted = False
        assert bool(keep(**dict(zip(names, args)))) == accepted, args


def test_the_sweep_grid_is_bounded_before_it_is_expanded(monkeypatch, tmp_path, capsys):
    huge = ["sweep", "--checks", "theorem1", "--n", "3..100000000", "--q", "1..1",
            "--p-max", "5"]
    start = time.perf_counter()
    assert main(huge) == 2
    assert "299999994 candidate points, above the cap 100000" in capsys.readouterr().err
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"checks": "theorem1", "n": [3, 100000000], "q": "1..1",
                                  "p_max": 5}))
    assert main(["sweep", "--config", str(config)]) == 2
    assert "above the cap" in capsys.readouterr().err
    assert time.perf_counter() - start < 5
    # theorem1 at n = 4, q = 1 has one candidate point per prime: six up to 13.
    monkeypatch.setattr(cli, "GRID_LIMIT", 6)
    sweep = ["sweep", "--checks", "theorem1", "--n", "4..4", "--q", "1..1"]
    assert main(sweep + ["--p-max", "13"]) == 0
    capsys.readouterr()
    assert main(sweep + ["--p-max", "17"]) == 2
    assert "7 candidate points, above the cap 6" in capsys.readouterr().err


def test_an_axis_longer_than_sys_maxsize_is_counted_and_refused(tmp_path, capsys):
    # len() of such a range raises OverflowError, a traceback and exit 1.
    huge = 10**20
    assert huge > sys.maxsize
    assert main(["sweep", "--checks", "theorem1", "--n", "4..4", "--q", f"1..{huge}",
                 "--p-max", "13"]) == 2
    assert f"{6 * huge} candidate points, above the cap 100000" in capsys.readouterr().err
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"checks": "theorem1", "n": [4, 4], "q": [1, huge],
                                  "p_max": 13}))
    assert main(["sweep", "--config", str(config)]) == 2
    assert f"{6 * huge} candidate points, above the cap 100000" in capsys.readouterr().err
    # Next to an empty n axis the q axis gives no point, and sun-e's units still run.
    sweep = ["sweep", "--n", "0..0", "--q", f"1..{huge}", "--p-max", "13"]
    assert main(sweep + ["--checks", "theorem1"]) == 2
    assert "expands to no work units" in capsys.readouterr().err
    assert main(sweep + ["--checks", "theorem1,sun-e", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 4 and all(row.startswith("sun-e,") for row in rows)


def test_an_integer_too_long_to_print_exits_2(tmp_path, capsys):
    # str() refuses an int of more than 4300 digits, the interpreter's default limit.  A grid
    # count, a range bound or a config integer that long raised ValueError: a traceback and
    # exit 1.  A message states such a count or bound by the power of 10 below it.
    assert padic._decimal(10**4300 - 1) == "9" * 4300
    assert padic._decimal(10**4300) == padic._decimal(10**4301 - 1) == "at least 10^4300"
    big = 10**4000  # six primes up to 13 times 10^4000 - 2 values of n times 10^4000 of q
    assert main(["sweep", "--checks", "theorem1", "--n", f"3..{big}", "--q", f"1..{big}",
                 "--p-max", "13"]) == 2
    assert capsys.readouterr().err == (
        "error: the grid has at least 10^8000 candidate points, above the cap 100000\n")
    n = 2 * 10**2200  # the range bound (q-1)n+1 has 4401 digits
    assert main(["verify", "theorem1", "--n", str(n), "--q", str(n), "--p", "7"]) == 2
    assert capsys.readouterr().err == "error: range: need p > at least 10^4400, got p=7\n"
    config = tmp_path / "sweep.json"
    config.write_text('{"checks": "theorem1", "n": [3, 1%s], "q": "1..1"}' % ("0" * 4300))
    assert main(["sweep", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: config file is not valid UTF-8 JSON: ")


@pytest.mark.parametrize("call, message", [
    (lambda: primes_upto(10**5000), "sieve limit at least 10^5000 exceeds the cap 10000000"),
    (lambda: run_sweep(spec_for(["theorem1"], p_max=-(10**5000))),
     "p_max must be at least 5, got at most -10^5000"),
    (lambda: run_sweep(spec_for(["theorem1"], q_range=(10**5000, 1))),
     "empty q range at least 10^5000..1"),
    (lambda: run_sweep(spec_for(["theorem1"], parallelism=-(10**5000))),
     "parallelism must be positive, got at most -10^5000"),
], ids=["sieve", "p_max", "range", "parallelism"])
def test_a_library_refusal_states_an_integer_too_long_to_print(call, message):
    # A SweepSpec built in Python takes any int; argparse and json refuse one this long first.
    with pytest.raises((CapExceeded, ConfigError)) as refusal:
        call()
    assert str(refusal.value) == message


def test_harmonic_sums_are_sized_by_p_not_by_q(monkeypatch, capsys, clear_memos):
    # At q > p the weights are empty; a sum sized by q would need lcm(1..q-1).  The widest
    # lcm, Upsilon's, takes the bases 1..p-1 and q..q+p-2.
    def bounded(*bases):
        assert len(bases) <= 2 * 5, len(bases)
        return math.lcm(*bases)

    monkeypatch.setattr(series, "lcm", bounded)
    clear_memos()  # so each lcm is taken here
    argv = ["--n", "3", "--q", "100000", "--p", "5", "--exploratory"]
    start = time.perf_counter()
    assert main(["verify", "lemmas", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 and all("achieved_ord=inf " in line for line in lines)
    assert main(["verify", "identities", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all("verdict=hypothesis_violated " in line for line in lines)
    assert time.perf_counter() - start < 1


def test_lemmas_and_identities_refuse_p_above_their_cap(monkeypatch, capsys):
    # Each check's p is bounded before any sum is evaluated.
    def never(*args):
        raise AssertionError("evaluated above the cap")

    for name in ("lemma_sums", "second_order_sum", "phi_value"):
        monkeypatch.setattr(verify, name, never)
    for check in ("lemmas", "identities"):
        start = time.perf_counter()
        assert main(["verify", check, "--n", "4", "--q", "1", "--p", "100003"]) == 2
        assert time.perf_counter() - start < 1
        cap = {"lemmas": 25000, "identities": 10000}[check]
        assert f"p = 100003 exceeds the {check} cap {cap}" in capsys.readouterr().err
    monkeypatch.undo()
    for check in ("lemmas", "identities"):
        monkeypatch.setitem(verify.CHECKS, check, verify.CHECKS[check]._replace(cap=13))
        assert main(["verify", check, "--n", "4", "--q", "1", "--p", "13"]) == 0
        assert main(["verify", check, "--n", "4", "--q", "1", "--p", "17"]) == 2
        assert f"p = 17 exceeds the {check} cap 13" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["theorem1", "--n", "3", "--q", "2", "--p", "1000003"],
     "p = 1000003 exceeds the theorem1 cap 250000"),
    (["lemmas", "--n", "3", "--q", "2", "--p", "25013"], "p = 25013 exceeds the lemmas cap 25000"),
], ids=["theorem1", "lemmas"])
def test_an_exploratory_verify_refuses_p_above_a_cap(capsys, argv, message):
    # n = 3, q = 2 breaks the parity hypothesis; a cap refuses the tuple all the same.
    assert main(["verify", *argv, "--exploratory"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_exploratory_sweeps_tag_only_hypercong_errors(monkeypatch):
    def broken(tp):
        raise ZeroDivisionError("not an evaluator error")

    monkeypatch.setattr(verify, "verify_lemma_suite", broken)
    with pytest.raises(ZeroDivisionError):
        run_sweep(spec_for(["lemmas"], n_range=(5, 5), q_range=(1, 1), p_max=5,
                           exploratory=True))


@pytest.mark.parametrize("parallelism", [1, 2])
def test_exploratory_sweep_bytes_are_pinned(monkeypatch, parallelism):
    # A fence for refactors: all nine checks over a small exploratory grid
    # (4553 reports) must render to exactly these JSON and CSV bytes.  At
    # parallelism 2, pool workers return the bare reports of the tuples the
    # evaluators cannot express.  At most 2 workers start.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    result = run_sweep(SweepSpec(check_ids=CHECK_NAMES, n_range=(3, 8), q_range=(1, 4),
                                 d_range=(4, 8), p_max=31, exploratory=True,
                                 parallelism=parallelism))
    assert len(result.reports) == 4553
    digest = {fmt: hashlib.sha256(render(result).encode()).hexdigest()
              for fmt, render in (("json", render_json), ("csv", render_csv))}
    assert digest == {
        "json": "556523238c56de4eefed723536ec891d9bdfc3da23d8bf4ad6e2a171638fe78c",
        "csv": "f3ceceab048ee25a0cc1903a6ab48133d11643b9b66a0f9382c71ad9c5e89836",
    }


FULL_GRID_DIGESTS = {
    "json": "dc4ff4e1c0089f428a22f839d5ae4252dd48ab249691890db397cfd76dd78e65",
    "csv": "017ace9bcb9d7ddac8109c5b0912522b28ab01130cc15078cd197ee2ead6de38",
}


def _full_grid_digests(parallelism: int) -> dict:
    result = run_sweep(SweepSpec(check_ids=CHECK_NAMES, n_range=(3, 8), q_range=(1, 4),
                                 d_range=(4, 8), p_max=97, parallelism=parallelism))
    assert len(result.reports) == 6504
    return {fmt: hashlib.sha256(render(result).encode()).hexdigest()
            for fmt, render in (("json", render_json), ("csv", render_csv))}


def test_full_grid_sweep_bytes_are_pinned():
    # The sweep invariant of the roadmap: all nine checks over n 3..8, q 1..4,
    # d 4..8, p <= 97 (6504 reports), long enough for the jet walks to reduce.
    assert _full_grid_digests(1) == FULL_GRID_DIGESTS


def test_full_grid_sweep_bytes_are_pinned_at_parallelism_2(monkeypatch):
    # The pool's chunks split the tuple-major units at other points than a sequential
    # sweep passes from tuple to tuple; the bytes hold.  At most 2 workers start.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _full_grid_digests(2) == FULL_GRID_DIGESTS


@pytest.mark.parametrize("target", ["missing/dir/r.json", "."], ids=["no-parent", "a-directory"])
def test_main_sweep_unwritable_out_exits_2(tmp_path, capsys, target):
    out = str(tmp_path / target)
    argv = ["sweep", "--checks", "theorem1", "--n", "4..4", "--q", "1..1", "--p-max", "13",
            "--out", out]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")


@pytest.mark.parametrize("target", ["missing/dir/r.json", "."], ids=["no-parent", "a-directory"])
def test_unwritable_out_exits_2_before_the_sweep(monkeypatch, tmp_path, capsys, target):
    def no_sweep(spec):
        raise AssertionError("run_sweep called for an unwritable --out")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    argv = ["sweep", "--checks", "theorem1", "--n", "4..4", "--q", "1..1", "--p-max", "13",
            "--out", str(tmp_path / target)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")


def test_existing_out_keeps_its_bytes_until_the_sweep_ends(monkeypatch, tmp_path):
    out = tmp_path / "r.json"
    out.write_bytes(b"old report")
    seen = []

    def sweep_then_look(spec):
        result = run_sweep(spec)
        seen.append(out.read_bytes())
        return result

    monkeypatch.setattr(cli, "run_sweep", sweep_then_look)
    argv = ["sweep", "--checks", "theorem1", "--n", "4..4", "--q", "1..1", "--p-max", "13",
            "--out", str(out)]
    assert main(argv) == 0
    assert seen == [b"old report"]
    assert json.loads(out.read_text())["summary"]["holds"] == 4


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "nested-too-deep"])
def test_main_sweep_undecodable_config_exits_2(tmp_path, capsys, content):
    config = tmp_path / "sweep.json"
    config.write_bytes(content)
    assert main(["sweep", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: config file is not valid")


def test_repeated_check_ids_are_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="repeated check id"):
        run_sweep(spec_for(["theorem1", "guo", "theorem1"]))
    sweep = ["sweep", "--n", "4..4", "--q", "1..1", "--p-max", "13"]
    assert main(sweep + ["--checks", "theorem1,theorem1"]) == 2
    assert "repeated check id(s): theorem1" in capsys.readouterr().err
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"checks": ["guo", "sun-e", "guo"], "p_max": 13}))
    assert main(["sweep", "--config", str(config)]) == 2
    assert "repeated check id(s): guo" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["guo", "--d", "4", "--p", "5"],
     "guo needs an even d >= 4 and a prime p = -1 (mod d), got d=4, p=5"),
    (["sun-e", "--p", "9"], "sun-e needs a prime p > 3, got p=9"),
    (["sun-bernoulli", "--p", "5", "--n", "10"],
     "sun-bernoulli needs a prime p > 3 and a positive n coprime to p, got p=5, n=10"),
    (["dflst", "--n", "3", "--p", "11"],
     "dflst needs n >= 3 and a prime p = 1 (mod n), got n=3, p=11"),
], ids=["guo", "sun-e", "sun-bernoulli", "dflst"])
def test_main_verify_outside_a_domain_names_the_check_its_domain_and_the_values(
        capsys, argv, message):
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("check,owner,message", [
    ("lemmas", verify, "p = 17 exceeds the lemmas cap 13"),
    ("identities", verify, "p = 17 exceeds the identities cap 13"),
])
def test_a_sweep_refuses_its_largest_prime_above_a_cap_before_any_unit_runs(
        monkeypatch, capsys, check, owner, message):
    # At 13 the cap of the check's row in owner.CHECKS holds p = 13.
    monkeypatch.setitem(owner.CHECKS, check, owner.CHECKS[check]._replace(cap=13))
    function = verify.CHECKS[check].function
    calls = []
    run = getattr(verify, function)
    monkeypatch.setattr(verify, function, lambda *args: calls.append(args) or run(*args))
    # n = 3, q = 2 breaks the parity hypothesis: an exploratory sweep refuses too.
    sweep = ["sweep", "--checks", check, "--n", "3..4", "--q", "1..2"]
    for extra in ([], ["--exploratory"]):
        start = time.perf_counter()
        assert main(sweep + ["--p-max", "17", *extra]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []
    # The largest prime up to 16 is 13: p_max above the cap is not refused by itself.
    assert main(sweep + ["--p-max", "16"]) == 0
    assert max(args[0].p for args in calls) == 13


@pytest.mark.parametrize("argv", [
    ["theorem1", "--n", "4", "--q", "1"],
    ["theorem2", "--n", "4", "--q", "1"],
    ["guo", "--d", "4"],
    ["sun-e"],
    ["sun-bernoulli", "--n", "4"],
    ["dflst", "--n", "500000003"],  # 10^9 + 7 = 1 (mod n), so the domain admits it
    ["taylor", "--n", "4", "--q", "1"],
], ids=lambda argv: argv[0])
def test_checks_refuse_p_above_their_cap_before_any_sum(monkeypatch, capsys, argv):
    # Without the cap, p = 10^9 + 7 ran until the sums' allocation failed.
    def never(*args):
        raise AssertionError("a sum was evaluated above the cap")

    for name in ("theorem_sum", "taylor_values", "morita_gamma"):
        monkeypatch.setattr(verify, name, never)
    monkeypatch.setattr(padic, "bernoulli_residue", never)
    check = argv[0]
    start = time.perf_counter()
    assert main(["verify", *argv, "--p", "1000000007"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"error: p = 1000000007 exceeds the {check} cap {verify.CHECKS[check].cap}\n")


BIG_N = "1000000000"


@pytest.mark.parametrize("argv,product,check", [
    (["verify", "guo", "--d", "2004", "--p", "2003"], "p * d = 2003 * 2004", "guo"),
    (["verify", "theorem1", "--n", "2002", "--q", "1", "--p", "2003"], "p * n = 2003 * 2002",
     "theorem1"),
    (["verify", "sun-bernoulli", "--p", "7", "--n", "1000000002"], "p * n = 7 * 1000000002",
     "sun-bernoulli"),
    (["verify", "dflst", "--n", "1001", "--p", "2003"], "p * n = 2003 * 1001", "dflst"),
    (["verify", "theorem1", "--n", BIG_N, "--q", "1", "--p", "7", "--exploratory"],
     f"p * n = 7 * {BIG_N}", "theorem1"),
    (["verify", "taylor", "--n", BIG_N, "--q", "1", "--p", "7", "--exploratory"],
     f"p * n = 7 * {BIG_N}", "taylor"),
    (["sweep", "--checks", "theorem1", "--n", f"{BIG_N}..{BIG_N}", "--q", "1..1", "--p-max", "7",
      "--exploratory"], f"p * n = 7 * {BIG_N}", "theorem1"),
], ids=["guo", "theorem1", "sun-bernoulli", "dflst", "theorem1-exploratory",
        "taylor-exploratory", "sweep"])
def test_p_times_the_exponent_above_a_cap_is_refused_before_any_sum(
        monkeypatch, capsys, argv, product, check):
    # Each cap was timed at exponent 4, and p is within it here.  Without the bound on p
    # times n or d, each of these ran on past 15 s; guo at d = p + 1 is the sun-e sum.
    def never(*args):
        raise AssertionError("a sum was evaluated above the cap")

    for name in ("theorem_sum", "morita_gamma", "taylor_values", "phi_value"):
        monkeypatch.setattr(verify, name, never)
    monkeypatch.setattr(padic, "bernoulli_residue", never)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    cap = verify.CHECKS[check].cap
    assert capsys.readouterr().err == f"error: {product} exceeds 4 times the {check} cap {cap}\n"


BIG_Q = str(10**100)
SWEEP_BIG_Q = ["sweep", "--n", "4..4", "--q", f"{BIG_Q}..{BIG_Q}", "--p-max", "20011"]


@pytest.mark.parametrize("argv,check", [
    (["verify", "theorem1", "--n", "4", "--q", BIG_Q, "--p", "20011", "--exploratory"],
     "theorem1"),
    (["verify", "theorem2", "--n", "4", "--q", BIG_Q, "--p", "20011", "--exploratory"],
     "theorem2"),
    ([*SWEEP_BIG_Q, "--checks", "theorem1"], "theorem1"),
    ([*SWEEP_BIG_Q, "--checks", "theorem1", "--exploratory"], "theorem1"),
    ([*SWEEP_BIG_Q, "--checks", "lemmas", "--exploratory"], "lemmas"),
], ids=["verify-theorem1", "verify-theorem2", "sweep", "sweep-exploratory", "sweep-lemmas"])
def test_p_times_the_bit_length_of_q_above_a_cap_is_refused_before_any_sum(
        monkeypatch, capsys, argv, check):
    # At q = 10^100 and p = 20011, theorem1 ran for 33 s: the sums grow with the size of q.
    def never(*args, **kwargs):
        raise AssertionError("a sum was evaluated above the cap")

    for name in ("theorem_sum", "lemma_sums"):
        monkeypatch.setattr(verify, name, never)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (f"error: p * q.bit_length() = 20011 * 333 exceeds 4 "
                                       f"times the {check} cap {verify.CHECKS[check].cap}\n")


@pytest.mark.parametrize("check", [c for c, row in verify.CHECKS.items() if "q" in row.params])
def test_the_q_bound_holds_every_q_up_to_15_at_each_cap(check):
    # 15 has 4 bits and 16 has 5, so at p = cap the bound p * 4 holds q = 15, not q = 16.
    cap = verify.CHECKS[check].cap
    verify._check_p_caps({"n": 4, "q": 15, "p": cap}, check)
    with pytest.raises(CapExceeded, match=rf"^p \* q\.bit_length\(\) = {cap} \* 5 exceeds"):
        verify._check_p_caps({"n": 4, "q": 16, "p": cap}, check)


def test_the_q_bound_at_p_20011_lies_between_2_to_the_48_and_2_to_the_49():
    # 2^48 has 49 bits and 2^49 has 50: 20011 * 50 is the first above 4 times 250000.
    verify._check_p_caps({"n": 4, "q": 2**48, "p": 20011}, "theorem1")
    with pytest.raises(CapExceeded, match=r"= 20011 \* 50 exceeds 4 times the theorem1 cap"):
        verify._check_p_caps({"n": 4, "q": 2**49, "p": 20011}, "theorem1")


def test_guo_at_d_p_plus_1_is_refused_no_later_than_sun_e(capsys):
    # guo(p + 1, p) reads the sun-e sum, and p (p + 1) grows with p: every p above the sun-e cap
    # has p (p + 1) above 4 times the guo cap.  1103 is the first prime above 1100.
    cap = verify.CHECKS["sun-e"].cap
    assert (cap + 1) * (cap + 2) > 4 * verify.CHECKS["guo"].cap
    assert main(["verify", "sun-e", "--p", "1103"]) == 2
    assert main(["verify", "guo", "--d", "1104", "--p", "1103"]) == 2
    err = capsys.readouterr().err
    assert "p = 1103 exceeds the sun-e cap 1100" in err
    assert "p * d = 1103 * 1104 exceeds 4 times the guo cap 250000" in err


@pytest.mark.parametrize("check", sorted(c for c, row in verify.CHECKS.items()
                                         if row.cap < math.inf))
def test_a_sweep_refuses_its_largest_prime_above_a_p_cap_before_any_unit_runs(
        monkeypatch, capsys, check):
    monkeypatch.setitem(verify.CHECKS, check, verify.CHECKS[check]._replace(cap=13))
    function = verify.CHECKS[check].function
    calls = []
    run = getattr(verify, function)
    monkeypatch.setattr(verify, function, lambda *args: calls.append(args) or run(*args))
    sweep = ["sweep", "--checks", check, "--n", "3..4", "--q", "1..2", "--d", "4..4"]
    for extra in ([], ["--exploratory"]):
        assert main(sweep + ["--p-max", "17", *extra]) == 2
        assert capsys.readouterr().err == f"error: p = 17 exceeds the {check} cap 13\n"
        assert calls == []
    # The largest prime up to 16 is 13, which the cap holds.
    assert main(sweep + ["--p-max", "16"]) == 0
    assert calls


def test_a_walk_above_the_walk_cap_exits_2_through_main(monkeypatch, capsys, clear_memos):
    # The verify caps keep every walk within series.WALK_CAP; at a lower walk cap, the
    # refusal from inside a sum reaches main as exit 2.
    monkeypatch.setattr(series, "WALK_CAP", 40)
    for argv in (["verify", "theorem1", "--n", "4", "--q", "1", "--p", "13"],
                 ["sweep", "--checks", "theorem1", "--n", "4..4", "--q", "1..1", "--p-max", "13"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: a walk of 12 steps at exponent 4 exceeds the cap 40 on steps times exponent\n")
    # 10 steps at exponent 4 is the cap.
    assert main(["verify", "theorem1", "--n", "4", "--q", "1", "--p", "11"]) == 0


def test_run_sweep_refuses_a_spec_without_checks():
    with pytest.raises(ConfigError, match="no checks requested"):
        run_sweep(SweepSpec(check_ids=()))


def test_a_bare_integer_range_is_one_point(tmp_path):
    out = tmp_path / "r.json"
    argv = ["sweep", "--checks", "theorem1", "--n", "4", "--q", "1", "--p-max", "13"]
    assert main(argv + ["--out", str(out)]) == 0
    from_flags = json.loads(out.read_text())
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"checks": "theorem1", "n": 4, "q": 1, "p_max": 13}))
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == from_flags
    assert (from_flags["spec"]["n_range"], from_flags["spec"]["q_range"]) == ([4, 4], [1, 1])
    assert {r["params"]["p"] for r in from_flags["reports"]} == {5, 7, 11, 13}


def test_an_unparsable_range_exits_2(capsys):
    assert main(["sweep", "--checks", "theorem1", "--n", "4..x", "--p-max", "13"]) == 2
    assert "cannot parse n range '4..x'; expected A..B" in capsys.readouterr().err


def test_an_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"checks": "theorem1", "p_max": 13, "pmax": 97}))
    assert main(["sweep", "--config", str(config)]) == 2
    assert "unknown config key(s): pmax" in capsys.readouterr().err


def test_an_out_that_cannot_be_opened_after_the_sweep_exits_2(monkeypatch, tmp_path, capsys):
    swept = []

    def sweep(spec):
        swept.append(spec)
        return run_sweep(spec)

    def refuse(path, *args, **kwargs):
        raise PermissionError(f"permission denied: {path}")

    monkeypatch.setattr(cli, "run_sweep", sweep)
    monkeypatch.setattr(cli, "open", refuse, raising=False)  # shadows the builtin in cli only
    out = tmp_path / "r.json"
    argv = ["sweep", "--checks", "theorem1", "--n", "4..4", "--q", "1..1", "--p-max", "13",
            "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output: permission denied")
    assert captured.out == "" and swept and not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "theorem1", "--n", "4", "--q", "1", "--p", "7"],
    ["sweep", "--checks", "theorem1", "--n", "4..4", "--q", "1..1", "--p-max", "13",
     "--parallel", "1"],
], ids=["verify", "sweep"])
def test_running_out_of_memory_exits_2_not_1(monkeypatch, capsys, argv):
    # Exit 1 means a failed congruence; a MemoryError says nothing about the check.
    def exhausted(tp):
        raise MemoryError

    monkeypatch.setattr(verify, "verify_theorem1", exhausted)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n" and captured.out == ""


_RUN_UNIT = cli._run_unit


def _run_unit_dying_at_p_23(unit):
    # A worker killed mid-sweep, as by the OOM killer: it ends without raising, so the
    # parent sees only a broken pool.  Only a pool worker has a parent process, under every
    # start method: a forkserver or spawn worker imports this module afresh.
    if multiprocessing.parent_process() is not None and unit[1][0].p == 23:
        os._exit(3)
    return _RUN_UNIT(unit)


def _no_process_can_start(*args, **kwargs):
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")  # as from fork()


@pytest.mark.parametrize("pool_failure", ["a worker dies", "no worker starts"])
def test_a_failed_process_pool_exits_2_not_1(monkeypatch, capsys, pool_failure):
    # Like running out of memory, a pool that loses or cannot start a worker says nothing
    # of a check: one error line and exit 2, never a traceback.  At most 2 processes start.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    if pool_failure == "a worker dies":
        monkeypatch.setattr(cli, "_run_unit", _run_unit_dying_at_p_23)
    else:
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_process_can_start)
    argv = ["sweep", "--checks", "theorem1", "--n", "3..4", "--q", "1..1", "--p-max", "23",
            "--parallel", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the sweep's process pool failed: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
