import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hypercong import cli, padic, verify
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


def test_dflst_grid_respects_morita_cap(monkeypatch):
    unrestricted = run_sweep(spec_for(["dflst"], n_range=(3, 3), p_max=31))
    monkeypatch.setattr(padic, "MORITA_CAP", 29 * 29 * 29)
    capped = run_sweep(spec_for(["dflst"], n_range=(3, 3), p_max=31))
    trimmed = {r.params["p"] for r in unrestricted.reports} - {
        r.params["p"] for r in capped.reports
    }
    assert trimmed == {31}


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


def test_python_dash_m_hypercong_runs_the_cli_quietly():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "hypercong", "primes", "10"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout.split(), proc.stderr) == (0, ["2", "3", "5", "7"], "")


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
        ({"checks": "theorem1", "p_max": "abc"}, "'p_max'"),
        ({"checks": 5}, "'checks'"),
        ({"checks": "theorem1", "p_max": 11, "exploratory": "false"}, "'exploratory'"),
        ({"checks": "theorem1", "p_max": 11, "q": ["a", 1]}, "integer endpoints"),
    ],
    ids=["p_max-not-int", "checks-not-str", "exploratory-not-bool", "range-not-int"],
)
def test_main_sweep_config_type_errors_exit_2(tmp_path, capsys, config, message):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


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
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
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


def test_the_triple_checks_of_one_tuple_share_one_theorem_params():
    triple_checks = [c for c in CHECK_NAMES if cli._CHECKS[c][0] == ("n", "q", "p")]
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
    _, fn_name, _, keep = cli._CHECKS[check]
    run = getattr(verify, fn_name)
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


def test_harmonic_prefixes_are_sized_by_p_not_by_q(monkeypatch, capsys):
    # At q > p the weights are empty; prefixes sized by q would need lcm(1..q-1).
    original = verify._harmonic_prefixes

    def sized_by_p(last):
        assert last == 4, last
        return original(last)

    monkeypatch.setattr(verify, "_harmonic_prefixes", sized_by_p)
    argv = ["--n", "3", "--q", "100000", "--p", "5", "--exploratory"]
    assert main(["verify", "lemmas", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 and all("achieved_ord=inf " in line for line in lines)
    assert main(["verify", "identities", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all("verdict=hypothesis_violated " in line for line in lines)


def test_lemmas_and_identities_refuse_p_above_the_prefix_limit(monkeypatch, capsys):
    # The prefixes hold p integers of about 3p bits: p is bounded before any sum.
    def never(*args):
        raise AssertionError("evaluated above the prefix limit")

    monkeypatch.setattr(verify, "_harmonic_prefixes", never)
    monkeypatch.setattr(verify, "phi_value", never)
    for check in ("lemmas", "identities"):
        start = time.perf_counter()
        assert main(["verify", check, "--n", "4", "--q", "1", "--p", "100003"]) == 2
        assert time.perf_counter() - start < 1
        assert "p = 100003 exceeds the harmonic-prefix cap 10000" in capsys.readouterr().err
    monkeypatch.undo()
    monkeypatch.setattr(verify, "PREFIX_LIMIT", 13)
    for check in ("lemmas", "identities"):
        assert main(["verify", check, "--n", "4", "--q", "1", "--p", "13"]) == 0
        assert main(["verify", check, "--n", "4", "--q", "1", "--p", "17"]) == 2
        assert "p = 17 exceeds the harmonic-prefix cap 13" in capsys.readouterr().err


def test_exploratory_sweeps_tag_only_hypercong_errors(monkeypatch):
    def broken(tp):
        raise ZeroDivisionError("not an evaluator error")

    monkeypatch.setattr(verify, "verify_lemma_suite", broken)
    with pytest.raises(ZeroDivisionError):
        run_sweep(spec_for(["lemmas"], n_range=(5, 5), q_range=(1, 1), p_max=5,
                           exploratory=True))


def test_exploratory_sweep_bytes_are_pinned():
    # A fence for refactors: all nine checks over a small exploratory grid
    # (4553 reports) must render to exactly these JSON and CSV bytes.
    result = run_sweep(SweepSpec(check_ids=CHECK_NAMES, n_range=(3, 8), q_range=(1, 4),
                                 d_range=(4, 8), p_max=31, exploratory=True))
    assert len(result.reports) == 4553
    digest = {fmt: hashlib.sha256(render(result).encode()).hexdigest()
              for fmt, render in (("json", render_json), ("csv", render_csv))}
    assert digest == {
        "json": "556523238c56de4eefed723536ec891d9bdfc3da23d8bf4ad6e2a171638fe78c",
        "csv": "f3ceceab048ee25a0cc1903a6ab48133d11643b9b66a0f9382c71ad9c5e89836",
    }


def test_full_grid_sweep_bytes_are_pinned():
    # The sweep invariant of the roadmap: all nine checks over n 3..8, q 1..4,
    # d 4..8, p <= 97 (6504 reports), long enough for the jet walks to reduce.
    result = run_sweep(SweepSpec(check_ids=CHECK_NAMES, n_range=(3, 8), q_range=(1, 4),
                                 d_range=(4, 8), p_max=97))
    assert len(result.reports) == 6504
    digest = {fmt: hashlib.sha256(render(result).encode()).hexdigest()
              for fmt, render in (("json", render_json), ("csv", render_csv))}
    assert digest == {
        "json": "dc4ff4e1c0089f428a22f839d5ae4252dd48ab249691890db397cfd76dd78e65",
        "csv": "017ace9bcb9d7ddac8109c5b0912522b28ab01130cc15078cd197ee2ead6de38",
    }


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
