import ast
import inspect
import math
import random
import re
import sys
from dataclasses import FrozenInstanceError, replace
from decimal import Decimal
from fractions import Fraction
from functools import partial
from math import prod

import pytest

from hypercong.errors import (
    CapExceeded,
    PreconditionViolated,
    PrecisionCapExceeded,
    ZeroDenominator,
)
from hypercong.exact_core import harmonic
from hypercong import cli, jets, padic, series, verify
from hypercong.padic import (
    PrimePowerModulus,
    Unreduced,
    factorial_valuation,
    is_prime,
    ord_rational,
    reduce_mod,
)
from hypercong.series import TheoremParams, _steps_mirror, theorem_sum
from hypercong.verify import (
    CongruenceReport,
    Verdict,
    check_congruence,
    verify_dflst_pair,
    verify_exact_identities,
    verify_guo,
    verify_lemma_suite,
    verify_sun_bernoulli,
    verify_sun_e,
    verify_taylor,
    verify_theorem1,
    verify_theorem2,
)
import jet_fold

F = Fraction


def test_check_congruence_wolstenholme_instance():
    report = check_congruence(F(49, 20), 0, PrimePowerModulus(7, 2))
    assert report.verdict is Verdict.HOLDS
    assert report.achieved_ord == 2
    assert report.residue_at_required.value == 0


def test_check_congruence_ill_posed():
    report = check_congruence(F(1, 7), 0, PrimePowerModulus(7, 1))
    assert report.verdict is Verdict.ILL_POSED
    assert report.achieved_ord == -1
    assert report.residue_at_required is None
    assert report.observed_holds is False


def test_check_congruence_exact_zero():
    report = check_congruence(0, 0, PrimePowerModulus(5, 3))
    assert report.verdict is Verdict.HOLDS
    assert report.achieved_ord == math.inf


def test_check_congruence_failing():
    report = check_congruence(F(5), 0, PrimePowerModulus(5, 3))
    assert report.verdict is Verdict.FAILS
    assert report.achieved_ord == 1
    assert report.residue_at_required.value == 5


@pytest.mark.parametrize("inexact", [0.2, Decimal("0.2"), "25/3"], ids=["float", "decimal", "str"])
def test_check_congruence_refuses_inexact_values(inexact):
    # 0.2 would be read as 3602879701896397/2^54 and reported as fails with ord 0,
    # where 1/5 is ill-posed with ord -1.
    m = PrimePowerModulus(5, 2)
    for lhs, rhs in ((inexact, 0), (0, inexact), (Unreduced(1, 5), inexact)):
        with pytest.raises(TypeError):
            check_congruence(lhs, rhs, m)
    assert check_congruence(F(1, 5), 0, m).achieved_ord == -1


def test_check_congruence_on_unreduced_pairs():
    p, m = 7, PrimePowerModulus(7, 3)
    # p^5 u / (p^2 v), with a common factor 3 * p left in: ord 3, holds mod p^3.
    pair = Unreduced(p**5 * 11 * 3 * p, p**2 * 4 * 3 * p)
    report = check_congruence(pair, 0, m)
    assert (report.verdict, report.achieved_ord) == (Verdict.HOLDS, 3)
    assert report.residue_at_required == reduce_mod(F(p**3 * 11, 4), m)
    # Against a rhs: (p^5 u / p^2 v) - p^2 has ord 2 and fails.
    report = check_congruence(pair, p**2, m)
    assert (report.verdict, report.achieved_ord) == (Verdict.FAILS, 2)
    assert report.residue_at_required == reduce_mod(F(p**3 * 11, 4) - p**2, m)
    # Negative valuation: ill-posed, with no residue.
    report = check_congruence(Unreduced(p * 5, p**3 * 2), F(1, 3), m)
    assert (report.verdict, report.achieved_ord) == (Verdict.ILL_POSED, -2)
    assert report.residue_at_required is None
    # Zero, written over a denominator that carries p.
    report = check_congruence(Unreduced(0, p**4), Unreduced(0, 5), m)
    assert (report.verdict, report.achieved_ord) == (Verdict.HOLDS, math.inf)
    assert report.residue_at_required.value == 0


def test_reports_are_frozen_values():
    report = check_congruence(0, 0, PrimePowerModulus(5, 1))
    with pytest.raises(FrozenInstanceError):
        report.check_id = "other"


def test_a_caller_cannot_change_a_memoized_sum():
    # theorem_sum hands its kept sum to every caller: setting its num to 0 once made the
    # next verify_theorem1 at (4, 1, 23) report order inf where it reports 5.
    tp = TheoremParams(4, 1, 23)
    before = verify_theorem1(tp)
    value = theorem_sum(4, 1, 23)
    assert theorem_sum(4, 1, 23) is value
    for name in ("num", "den"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert verify_theorem1(tp) == before and before.achieved_ord == 5


def test_verdict_iff_valuation_reaches_requirement():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.choice([5, 7, 11])
        k = rng.randint(1, 4)
        value = F(rng.randint(-400, 400), rng.choice([1, 2, 3, 9, 121]))
        report = check_congruence(value, 0, PrimePowerModulus(p, k))
        if report.verdict is Verdict.ILL_POSED:
            assert report.achieved_ord < 0
            continue
        assert (report.verdict is Verdict.HOLDS) == (report.achieved_ord >= k)


def test_unit_multiplier_does_not_change_valuation():
    rng = random.Random(13)
    tp = TheoremParams(4, 1, 7)
    base = check_congruence(theorem_sum(4, 1, 7), 0, PrimePowerModulus(7, 3))
    for _ in range(25):
        num = rng.randint(1, 300)
        den = rng.randint(1, 300)
        while num % 7 == 0:
            num = rng.randint(1, 300)
        while den % 7 == 0:
            den = rng.randint(1, 300)
        unit = F(num, den)
        value = theorem_sum(4, 1, 7)
        scaled = check_congruence(F(value.num, value.den) * unit, 0, PrimePowerModulus(7, 3))
        assert scaled.achieved_ord == base.achieved_ord
        assert scaled.verdict == base.verdict


def test_verify_theorem1_examples():
    assert verify_theorem1(TheoremParams(4, 1, 7)).verdict is Verdict.HOLDS
    assert verify_theorem1(TheoremParams(3, 1, 5)).verdict is Verdict.HOLDS


def test_verify_theorem2_examples():
    assert verify_theorem2(TheoremParams(4, 2, 11)).verdict is Verdict.HOLDS


def test_exploratory_runs_report_without_asserting():
    tp = TheoremParams(3, 2, 11, exploratory=True)
    report = verify_theorem1(tp)
    assert report.verdict is Verdict.HYPOTHESIS_VIOLATED
    # the observation is still recorded
    assert report.achieved_ord is not None


def test_exploratory_in_hypothesis_stays_asserted():
    report = verify_theorem1(TheoremParams(4, 1, 7, exploratory=True))
    assert report.verdict is Verdict.HOLDS


def test_verify_guo_holds_and_reduces_to_theorem1():
    report = verify_guo(4, 7)
    assert report.verdict is Verdict.HOLDS
    assert verify.CHECKS["guo"].point(4, 7) == (4, 2, 7)
    assert theorem_sum(4, 2, 7) == series._ratio_sum(((Fraction(1, 4), 4), (1, -4)), 6)
    assert verify_guo(6, 11).verdict is Verdict.HOLDS


BIG = 10**5000  # above str()'s default limit of 4300 digits


@pytest.mark.parametrize("call, error, message", [
    (lambda: verify_guo(BIG, 7), PreconditionViolated,
     "guo needs an even d >= 4 and a prime p = -1 (mod d), got d=at least 10^5000, p=7"),
    (lambda: verify_sun_e(BIG + 1), PreconditionViolated,
     "sun-e needs a prime p > 3, got p=at least 10^5000"),
    (lambda: verify_dflst_pair(BIG, 7), PreconditionViolated,
     "dflst needs n >= 3 and a prime p = 1 (mod n), got n=at least 10^5000, p=7"),
    (lambda: verify_sun_bernoulli(7, BIG), CapExceeded,
     "p * n = 7 * at least 10^5000 exceeds 4 times the sun-bernoulli cap 250000"),
    (lambda: verify_theorem1(TheoremParams(BIG, 1, 7, exploratory=True)), CapExceeded,
     "p * n = 7 * at least 10^5000 exceeds 4 times the theorem1 cap 250000"),
], ids=["guo", "sun-e", "dflst", "sun-bernoulli", "theorem1"])
def test_a_refusal_states_an_integer_too_long_to_print(call, error, message):
    # str() of such an integer raised ValueError from inside the message.
    with pytest.raises(error) as refusal:
        call()
    assert str(refusal.value) == message


def test_verify_guo_boundary_prime_below_degree():
    # p = d - 1 lies outside the theorem1 range but the congruence still holds
    report = verify_guo(4, 3)
    assert report.verdict is Verdict.HOLDS


def test_verify_guo_preconditions():
    with pytest.raises(PreconditionViolated):
        verify_guo(5, 9)
    with pytest.raises(PreconditionViolated):
        verify_guo(2, 7)
    with pytest.raises(PreconditionViolated):
        verify_guo(4, 13)  # 13 = 1 (mod 4)


def test_verify_sun_e():
    assert verify_sun_e(5).verdict is Verdict.HOLDS
    assert verify_sun_e(7).verdict is Verdict.HOLDS
    with pytest.raises(PreconditionViolated):
        verify_sun_e(3)
    with pytest.raises(PreconditionViolated):
        verify_sun_e(8)


def test_verify_sun_bernoulli():
    assert verify_sun_bernoulli(5, 2).verdict is Verdict.HOLDS
    assert verify_sun_bernoulli(7, 3).verdict is Verdict.HOLDS
    with pytest.raises(PreconditionViolated):
        verify_sun_bernoulli(5, 10)
    with pytest.raises(PreconditionViolated):
        verify_sun_bernoulli(3, 2)


@pytest.mark.parametrize("p", [p for p in range(5, 98) if is_prime(p)] + [787, 797])
def test_sun_bernoulli_reports_equal_the_exact_bernoulli_reports(p):
    # The residue path is pinned to the exact B_{p-3}: the same valuation, residue and
    # verdict on every point, p = 5 and those that double r (valuation 6 or more) included.
    for n in (n for n in range(1 if p < 100 else 3, 9) if n % p):
        weight = F((n - 1) * (7 * n - 5), 36 * n * n) * p**4
        expected = check_congruence(theorem_sum(n, 1, p), weight * padic.bernoulli(p - 3),
                                    PrimePowerModulus(p, 5), check_id="sun-bernoulli",
                                    params={"p": p, "n": n})
        assert verify_sun_bernoulli(p, n) == expected, n


def test_no_verify_path_reads_the_bernoulli_table(monkeypatch):
    # verify names neither the table nor its cap, nor a p^k Morita bound; at run time the
    # table raises, and sun-bernoulli reads B_{p-3} mod p^r at r = 2, then 4 while the
    # valuation is 4 + r or more.
    source = inspect.getsource(verify)
    assert not re.search(r"\bbernoulli\(|BERNOULLI_CAP|MORITA", source)

    def never(m):
        raise AssertionError("the Bernoulli table was read")

    monkeypatch.setattr(padic, "bernoulli", never)
    monkeypatch.delattr(padic, "BERNOULLI_CAP")
    reads = []
    residue = padic.bernoulli_residue
    monkeypatch.setattr(padic, "bernoulli_residue",
                        lambda p, r: reads.append((p, r)) or residue(p, r))
    assert verify_sun_bernoulli(797, 4).achieved_ord == 5  # decided at r = 2
    assert verify_sun_bernoulli(797, 1).achieved_ord == math.inf  # a zero weight, any B
    assert verify_sun_bernoulli(41, 4).achieved_ord == 7  # decided at r = 4
    assert verify_sun_bernoulli(5, 2).verdict is Verdict.HOLDS  # B_2 from its power sum
    assert reads == [(797, 2), (797, 2), (41, 2), (41, 4), (5, 2)]


def test_verify_sun_bernoulli_degenerate_coefficient():
    # n = 1 zeroes the right side; the verdict is computed, not asserted here
    report = verify_sun_bernoulli(5, 1)
    assert report.verdict in (Verdict.HOLDS, Verdict.FAILS)


def test_verify_dflst_pair():
    first, second = verify_dflst_pair(3, 7)
    assert first.verdict is Verdict.HOLDS
    assert second.verdict is Verdict.HOLDS
    assert first.check_id == "dflst/sum"
    assert second.check_id == "dflst/dual"
    with pytest.raises(PreconditionViolated):
        verify_dflst_pair(3, 5)
    with pytest.raises(PreconditionViolated):
        verify_dflst_pair(2, 7)


@pytest.mark.parametrize("n,q,p", [(4, 2, 11), (3, 1, 5), (6, 3, 17)])
def test_verify_lemma_suite_holds(n, q, p):
    reports = verify_lemma_suite(TheoremParams(n, q, p))
    assert len(reports) == 7
    assert all(r.verdict is Verdict.HOLDS for r in reports)
    by_id = {r.check_id: r for r in reports}
    assert by_id["lemmas/s1-offset"].required_ord == 2
    assert by_id["lemmas/h2-plain"].required_ord == 1


def test_lemma_suite_q1_head_weight_is_trivially_zero():
    reports = verify_lemma_suite(TheoremParams(3, 1, 5))
    by_id = {r.check_id: r for r in reports}
    assert by_id["lemmas/h2-head"].achieved_ord == math.inf


@pytest.mark.parametrize("n,q,p", [(4, 1, 7), (3, 1, 5), (4, 2, 11)])
def test_verify_taylor_holds(n, q, p):
    reports = verify_taylor(TheoremParams(n, q, p))
    assert [r.check_id for r in reports] == ["taylor/psi", "taylor/phi", "taylor/delta"]
    assert all(r.verdict is Verdict.HOLDS for r in reports)


def test_taylor_remainder_audit():
    for p in (5, 7, 11):
        for r in (3, 4, 5):
            assert r - factorial_valuation(r, p) >= 3


def test_verify_exact_identities_holds():
    reports = verify_exact_identities(TheoremParams(4, 2, 11))
    assert len(reports) == 5
    assert all(r.verdict is Verdict.HOLDS for r in reports)
    by_id = {r.check_id: r for r in reports}
    assert by_id["identities/phi-p0"].required_ord == math.inf
    assert by_id["identities/upsilon-jet"].achieved_ord == math.inf
    assert by_id["identities/reflection"].achieved_ord == math.inf


def test_verify_exact_identities_skips_dual_reduction_at_q1():
    reports = verify_exact_identities(TheoremParams(4, 1, 7))
    by_id = {r.check_id: r for r in reports}
    skip = by_id["identities/dual-reduction"]
    assert skip.verdict is Verdict.SKIPPED
    assert skip.achieved_ord is None
    others = [r for r in reports if r.check_id != "identities/dual-reduction"]
    assert all(r.verdict is Verdict.HOLDS for r in others)


def test_reports_are_deterministic_bit_for_bit():
    tp = TheoremParams(4, 2, 11)
    assert verify_lemma_suite(tp) == verify_lemma_suite(tp)
    assert verify_theorem1(tp) == verify_theorem1(tp)
    assert verify_exact_identities(tp) == verify_exact_identities(tp)


def test_residue_present_iff_p_integral_and_finite_requirement():
    reports = verify_exact_identities(TheoremParams(4, 2, 11))
    reports += verify_lemma_suite(TheoremParams(4, 2, 11))
    for r in reports:
        if r.required_ord == math.inf or r.verdict is Verdict.SKIPPED:
            assert r.residue_at_required is None
        else:
            assert (r.residue_at_required is not None) == (r.achieved_ord >= 0)


def test_lemma_suite_raises_zero_denominator_at_p_equal_n():
    # q - p/n = 0 at p = n, q = 1: the offset weights divide by zero.
    with pytest.raises(ZeroDenominator):
        verify_lemma_suite(TheoremParams(5, 1, 5, exploratory=True))


# --- the integer harmonic sums against Fraction harmonic numbers --------------


def _tagged(report, tp):
    if tp.exploratory and tp.hypothesis_violations():
        return replace(report, verdict=Verdict.HYPOTHESIS_VIOLATED)
    return report


def _reference_lemma_values(tp):
    # The seven lemma values from reduced Fraction harmonic numbers, term by term.
    n, q, p = tp.n, tp.q, tp.p
    c = q - F(p, n)
    count = p - q + 1
    plain = [math.comb(q + k - 1, k) ** n for k in range(count)]
    gaps, offset = [F(0)], [F(1)]  # sum_{i<k} 1/(c + i) - H_k, and (c)_k^n / (1)_k^n
    for i in range(count - 1):
        if c + i == 0:
            raise ZeroDenominator(f"offset base {c} + {i} vanishes")
        gaps.append(gaps[-1] + 1 / (c + i) - F(1, i + 1))
        offset.append(offset[-1] * ((c + i) / (i + 1)) ** n)
    return [
        harmonic(q - 1, 2) * sum(plain),
        sum(plain[k] * harmonic(q + k - 1, 2) for k in range(count)),
        sum(plain[k] * harmonic(k, 2) for k in range(count)),
        sum(plain[k] * (harmonic(k) - harmonic(q + k - 1)) for k in range(count)),
        sum(plain[k] * (harmonic(k) ** 2 - harmonic(q + k - 1) ** 2) for k in range(count)),
        sum(t * g for t, g in zip(offset, gaps)),
        sum(t * g * g for t, g in zip(offset, gaps)),
    ]


def _reference_lemma_suite(tp):
    values = _reference_lemma_values(tp)
    names = ["h2-head", "h2-shift", "h2-plain", "h1-shift", "h1-shift-sq",
             "s1-offset", "s1-offset-sq"]
    orders = [1, 1, 1, 1, 1, 2, 1]
    return [_tagged(check_congruence(v, 0, PrimePowerModulus(tp.p, k), check_id=f"lemmas/{name}",
                                     params=tp.as_params()), tp)
            for v, name, k in zip(values, names, orders)]


def _reference_second_order(tp):
    n, q, p = tp.n, tp.q, tp.p
    return sum(math.comb(q + k - 1, k) ** n * (harmonic(q + k - 1, 2) - harmonic(q - 1, 2))
               for k in range(p - q + 1))


def _reference_p2_reduction(tp):
    n, p = tp.n, tp.p
    rhs = F(n - 1, 2 * n) * p * p * _reference_second_order(tp)
    return _tagged(check_congruence(theorem_sum(n, tp.q, p), rhs, PrimePowerModulus(p, 3),
                                    check_id="identities/p2-reduction", params=tp.as_params()), tp)


# In-hypothesis tuples up to p = 199, then parity and range violations and a
# sum with no terms (q > p).
HARMONIC_TUPLES = [
    (3, 1, 197), (4, 2, 199), (8, 3, 101), (6, 4, 193), (5, 3, 131), (4, 1, 5),
    (3, 2, 199), (5, 4, 181), (8, 4, 23), (3, 3, 5), (4, 3, 2),
    (3, 190, 197),  # a short walk after a long H_{q-1} head
]


@pytest.mark.parametrize("n,q,p", HARMONIC_TUPLES)
def test_integer_harmonic_sums_equal_the_fraction_reference(n, q, p):
    tp = TheoremParams(n, q, p, exploratory=True)
    assert verify_lemma_suite(tp) == _reference_lemma_suite(tp)
    by_id = {r.check_id: r for r in verify_exact_identities(tp)}
    assert by_id["identities/p2-reduction"] == _reference_p2_reduction(tp)


@pytest.mark.parametrize("n,q,p", HARMONIC_TUPLES)
def test_lemma_and_second_order_sums_equal_the_fraction_reference(n, q, p):
    # The reports above compare valuations and residues; these are the exact values.
    tp = TheoremParams(n, q, p, exploratory=True)
    assert [F(v.num, v.den) for v in series.lemma_sums(tp)] == _reference_lemma_values(tp)
    second = series.second_order_sum(tp)
    assert F(second.num, second.den) == _reference_second_order(tp)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_integer_gap_loop_still_raises_at_p_equal_n(n):
    tp = TheoremParams(n, 1, n, exploratory=True)
    with pytest.raises(ZeroDenominator, match=r"offset base 0 \+ 0 vanishes"):
        _reference_lemma_suite(tp)
    with pytest.raises(ZeroDenominator, match=r"offset base 0 \+ 0 vanishes"):
        verify_lemma_suite(tp)


# Large p, where the offset walk's integers reach tens of thousands of bits: in
# the hypotheses, and outside them (n odd, q even), where the s1-offset residue
# mod p^2 is not zero, so its sign shows.
@pytest.mark.parametrize("n,q,p", [(8, 3, 307), (3, 2, 307)])
def test_offset_walk_equals_the_fraction_reference_at_large_p(n, q, p):
    tp = TheoremParams(n, q, p, exploratory=True)
    assert verify_lemma_suite(tp) == _reference_lemma_suite(tp)


# --- the step-ratio reflection check against the exact differences ------------


EXPLORATORY_GRID = [TheoremParams(n, q, p, exploratory=True)
                    for n in range(3, 9) for q in range(1, 5) for p in range(2, 62)
                    if is_prime(p)]


def _reflection_terms(tp):
    # Independent of the kernel: the running Pochhammer products (1)_k/(b)_k and
    # (a)_k/(1 - p)_k for k = 0..p-1; a vanishing (b)_k raises ZeroDivisionError.
    n, q, p = tp.n, tp.q, tp.p
    b, a = F(p, n) - q + 2, q - F(p, n) - p
    left, right = [F(1)], [F(1)]
    for k in range(p - 1):
        left.append(left[-1] * (1 + k) / (b + k))
        right.append(right[-1] * (a + k) / (1 - p + k))
    return left, right


def _reflection_differences(left, right):
    # Left term k minus left term p-1 times right term p-1-k.
    return [x - left[-1] * y for x, y in zip(left, reversed(right))]


def test_step_mirror_holds_exactly_when_every_reflection_difference_is_zero():
    decided = 0
    for tp in EXPLORATORY_GRID:
        try:
            diffs = _reflection_differences(*_reflection_terms(tp))
        except ZeroDivisionError:  # (p/n - q + 2)_k vanishes: only at p = n, q > 2
            assert tp.p == tp.n and tp.q > 2
            with pytest.raises(ZeroDenominator):
                series.reflection_differences(tp)
            continue
        mirrored = series.reflection_differences(tp) == ()
        assert mirrored == (not any(diffs)), tp.as_params()
        decided += mirrored
    assert decided == len(EXPLORATORY_GRID) - 6


def _identities_or_error(tp):
    try:
        return verify_exact_identities(tp)
    except ZeroDenominator as exc:
        return f"ZeroDenominator: {exc}"


def test_exact_reflection_path_gives_the_fast_path_reports(monkeypatch):
    tuples = EXPLORATORY_GRID + [TheoremParams(4, 1, 797)]
    fast = [_identities_or_error(tp) for tp in tuples]
    assert sum(isinstance(r, str) for r in fast) == 6  # p = n, q > 2
    for reports in fast:
        if not isinstance(reports, str):
            assert reports[3].check_id == "identities/reflection"
            assert reports[3].achieved_ord == math.inf
    calls = []
    monkeypatch.setattr(series, "_steps_mirror", lambda *args: calls.append(args) or False)
    assert [_identities_or_error(tp) for tp in tuples] == fast
    assert len(calls) == len(tuples) - 6


@pytest.mark.parametrize("n,q,p", [(4, 1, 13), (3, 1, 11), (6, 1, 7)])
def test_a_broken_reflection_walk_fails_on_the_exact_path(monkeypatch, clear_memos, n, q, p):
    # Each case edits the step pairs of one reflection walk, and no other walk, and the
    # reference terms alike.  Scaling one step by 1 + p^5 leaves one difference, -p^5; a
    # walk that stops one step early leaves unmatched terms, of valuation 0 at q = 1.
    tp = TheoremParams(n, q, p)
    left, right = _reflection_terms(tp)
    b = F(p, n) - q + 2
    walks = {"left": [(1, 1), (b, -1)], "right": [(2 - p - b, 1), (1 - p, -1)]}
    unedited = verify_exact_identities(tp)
    scale = 1 + p**5
    cases = [  # (walk, edit of its step pairs, reference terms, valuation)
        ("left", lambda s: [(s[0][0] * scale, s[0][1])] + s[1:],
         ([left[0]] + [t * scale for t in left[1:]], right), 5),
        ("right", lambda s: s[:-1] + [(s[-1][0] * scale, s[-1][1])],
         (left, right[:-1] + [right[-1] * scale]), 5),
        ("left", lambda s: s[:-1], (left[:-1] + [0], right), 0),
        ("right", lambda s: s[:-1], (left, right[:-1] + [0]), 0),
    ]
    original = series._ratio_steps
    for walk, edit, terms, valuation in cases:
        def edited(factors, last, walk=walk, edit=edit):
            steps = list(original(factors, last))
            return edit(steps) if list(factors) == walks[walk] else steps

        monkeypatch.setattr(series, "_ratio_steps", edited)
        clear_memos()  # every walk of the check goes through edited, not only the reflection's
        reports = verify_exact_identities(tp)
        assert [reports[i] for i in (0, 1, 2, 4)] == [unedited[i] for i in (0, 1, 2, 4)]
        report = reports[3]
        assert min(ord_rational(d, p) for d in _reflection_differences(*terms)) == valuation
        assert report.check_id == "identities/reflection"
        assert report.verdict is Verdict.FAILS
        assert report.achieved_ord == valuation, (walk, valuation, report.achieved_ord)


@pytest.mark.parametrize("n,q,p", [(3, 1, 2), (3, 2, 3), (6, 1, 5), (4, 2, 11), (8, 3, 61)])
def test_step_mirror_rejects_any_perturbed_pair(monkeypatch, n, q, p):
    tp = TheoremParams(n, q, p, exploratory=True)
    seen = []  # the two step lists series.reflection_differences hands its mirror test
    monkeypatch.setattr(series, "_steps_mirror", lambda *args: seen.append(args[:2]))
    series.reflection_differences(tp)
    [(left, right)] = seen
    count = p - 1
    assert _steps_mirror(left, right, count)
    # The same ratios written over other integers are still accepted.
    assert _steps_mirror([(3 * u, 3 * v) for u, v in left], right, count)
    for k in range(count):
        for steps, side in ((left, 0), (right, 1)):
            u, v = steps[k]
            for bad in ((u + 1, v), (u, v + 1), (-u, v)):
                perturbed = steps[:k] + [bad] + steps[k + 1:]
                pair = (perturbed, right) if side == 0 else (left, perturbed)
                assert not _steps_mirror(*pair, count), (k, side, bad)
    # A walk that stopped early, or lost or gained a step, decides nothing.
    assert not _steps_mirror(left[:-1], right[:-1], count)
    assert not _steps_mirror(left, right[:-1], count)
    assert not _steps_mirror(left + left[:1], right + right[:1], count)


def test_every_check_names_a_verify_function_and_its_positional_parameters():
    assert len(verify.CHECKS) == 9
    for check, c in verify.CHECKS.items():
        run = getattr(verify, c.function)
        assert c.function in verify.__all__, check
        positional = [p.name for p in inspect.signature(run).parameters.values()
                      if p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD]
        expected = ["tp"] if c.params == ("n", "q", "p") else list(c.params)
        assert positional == expected, check
        for predicate in (c.domain, c.point):
            assert list(inspect.signature(predicate).parameters) == list(c.params), check
        assert c.required_ord in (1, 3, 5), check
        assert type(c.cap) is int and c.cap > 0, check  # one policy: every row has a finite cap


@pytest.mark.parametrize("check,args,point", [
    ("theorem1", (4, 1, 7), (4, 1, 7)), ("identities", (3, 3, 11), (3, 3, 11)),
    ("guo", (6, 11), (6, 2, 11)), ("sun-e", (7,), (8, 1, 7)),
    ("sun-bernoulli", (7, 2), (2, 1, 7)), ("dflst", (3, 13), (3, 5, 13)),
])
def test_each_check_reads_the_theorem_sum_at_its_point(check, args, point):
    # The (n, q, p) of the sum a check reads; each is stated once, in verify.CHECKS.
    assert verify.CHECKS[check].point(*args) == point


@pytest.mark.parametrize("check,inside,outside", [
    ("theorem1", (4, 1, 7), (2, 1, 7)), ("theorem2", (4, 1, 7), (2, 1, 7)),
    ("guo", (6, 11), (4, 5)), ("sun-e", (7,), (9,)), ("sun-bernoulli", (7, 2), (5, 10)),
    ("dflst", (3, 13), (3, 29)),
])
def test_each_theorem_sum_check_reads_its_modulus_and_domain_words_from_its_row(
        check, inside, outside):
    # The reports take required_ord from the row; a refusal states the row's words as they
    # are, with nothing formatted in.  TheoremParams refuses n = 2 before theorem1 and
    # theorem2 see it, so their words are reached through the path they share.
    row = verify.CHECKS[check]
    args = (TheoremParams(*inside),) if row.params == ("n", "q", "p") else inside
    result = getattr(verify, row.function)(*args)
    reports = result if isinstance(result, tuple) else (result,)
    assert [r.required_ord for r in reports] == [row.required_ord] * len(reports)
    given = ", ".join(f"{name}={value}" for name, value in zip(row.params, outside))
    message = f"{check} needs {row.words}, got {given}"
    refuse = (partial(verify._theorem_sum_check, check) if row.params == ("n", "q", "p")
              else getattr(verify, row.function))
    with pytest.raises(PreconditionViolated) as refused:
        refuse(*outside)
    assert str(refused.value) == message and "{" not in row.words


def test_dflst_above_the_residue_cap_is_refused_before_g_is_built(monkeypatch, capsys):
    # Morita's work at (31, 3) is 3 (31 + 9 * 5) = 228: below it the right side is refused
    # before G(t) or either sum is built, and main exits 2; at it, both reports hold.
    def never(*args, **kwargs):
        raise AssertionError("built above the cap")

    monkeypatch.setattr(verify, "theorem_sum", never)
    monkeypatch.setattr(padic, "_block_polynomial", never)
    monkeypatch.setattr(padic, "RESIDUE_CAP", 227)
    message = "Morita Gamma at p = 31, k = 3 exceeds the residue cap 227 on k (p + k^2 log2 p)"
    with pytest.raises(PrecisionCapExceeded, match=rf"^{re.escape(message)}$"):
        verify_dflst_pair(3, 31)
    assert cli.main(["verify", "dflst", "--n", "3", "--p", "31"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    monkeypatch.undo()
    monkeypatch.setattr(padic, "RESIDUE_CAP", 228)
    assert [r.verdict for r in verify_dflst_pair(3, 31)] == [Verdict.HOLDS] * 2


def test_sun_bernoulli_above_the_residue_cap_is_refused_before_any_power_sum(monkeypatch,
                                                                            capsys):
    # B_28 mod 31^2 costs r p = 62: below it the right side is refused before its power sum or
    # the left side is built, and main exits 2; at it, the report holds.  At (41, 4), valuation
    # 7, r = 2 is admitted and r = 4 refused.
    def never(*args, **kwargs):
        raise AssertionError("built above the cap")

    padic.bernoulli_residue.cache_clear()
    monkeypatch.setattr(verify, "theorem_sum", never)
    monkeypatch.setattr(padic, "pow", never, raising=False)  # shadows the builtin in padic
    monkeypatch.setattr(padic, "RESIDUE_CAP", 61)
    with pytest.raises(PrecisionCapExceeded, match=r"^r p = 62 exceeds the residue cap 61$"):
        verify_sun_bernoulli(31, 4)
    assert cli.main(["verify", "sun-bernoulli", "--p", "31", "--n", "4"]) == 2
    assert capsys.readouterr().err == "error: r p = 62 exceeds the residue cap 61\n"
    monkeypatch.undo()
    monkeypatch.setattr(padic, "RESIDUE_CAP", 62)
    assert verify_sun_bernoulli(31, 4).verdict is Verdict.HOLDS
    monkeypatch.setattr(padic, "RESIDUE_CAP", 163)
    with pytest.raises(PrecisionCapExceeded, match=r"^r p = 164 exceeds the residue cap 163$"):
        verify_sun_bernoulli(41, 4)


def test_a_skipped_report_observes_nothing():
    (skip,) = [r for r in verify_exact_identities(TheoremParams(4, 1, 7))
               if r.verdict is Verdict.SKIPPED]
    assert skip.observed_holds is None


# --- the unreduced values on the verify path ------------------------------------

TP797 = TheoremParams(4, 1, 797)


@pytest.mark.parametrize("call,bits", [
    (lambda: verify_theorem1(TP797), 8000),
    (lambda: verify_theorem2(TP797), 8000),
    (lambda: verify_guo(6, 599), 8000),
    (lambda: verify_sun_e(101), 8000),
    (lambda: verify_sun_bernoulli(797, 4), 64),
    (lambda: verify_dflst_pair(3, 211), 1000),
    (lambda: verify_lemma_suite(TP797), 2000),
    (lambda: verify_exact_identities(TheoremParams(4, 2, 797)), 64),
    (lambda: verify_taylor(TP797), 64),
], ids=["theorem1", "theorem2", "guo", "sun-e", "sun-bernoulli", "dflst", "lemmas",
        "identities", "taylor"])
def test_verify_reduces_no_sum_by_a_gcd(monkeypatch, clear_memos, call, bits):
    # Fraction normalisation calls math.gcd.  Every sum each check reads here is wider than
    # its bound (the theorem sums above 10000 bits at p = 797, dflst's above 1600 at p = 211,
    # the lemma sums above 2200), so a gcd that wide outside the product trees means a sum was
    # reduced.  Taylor values and the Upsilon coefficients are unreduced sums too, so taylor
    # and identities reduce only small scalars such as p/n (10 bits at p = 797), and
    # sun-bernoulli only its weight times B_{p-3} mod p^2.  Every check here reads a sum long
    # enough for its tree to cancel a gcd.
    widest, tree_gcds = _widest_gcd(monkeypatch, clear_memos, call)
    assert widest < bits and tree_gcds


def _widest_gcd(monkeypatch, clear_memos, call) -> tuple[int, int]:
    # The widest argument, in bits, of any math.gcd that call() makes outside the product
    # trees, with every sum built anew: a sum a memo kept would make no gcd at all.  A tree
    # takes the gcd of its two root products at each combine, through math, so the spy sees
    # it: each is held here to the width of its walk's root products, prod |U| and prod |V|,
    # so that no tree gcd reduces a sum either.  Also returns how many tree gcds ran.
    widest, tree_gcds, walks = [], [], {}
    gcd = math.gcd
    trees = {series._split.__code__, series._harmonic_split.__code__}

    def spy(*args):
        width = max(abs(a).bit_length() for a in args)
        frame = sys._getframe(1)
        if frame.f_code in trees:
            steps = frame.f_locals["steps"]
            if id(steps) not in walks:  # steps is kept beside its bound, so no id is reused
                walks[id(steps)] = steps, max(prod(abs(step[i]) for step in steps).bit_length()
                                              for i in (0, 1))
            assert width <= walks[id(steps)][1], (width, walks[id(steps)][1])
            tree_gcds.append(width)
        else:
            widest.append(width)
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", spy)
    clear_memos()
    call()
    return max(widest, default=0), len(tree_gcds)


EVALUATOR_SIZES = [  # each public scalar evaluator, its arguments and the spy's bound
    pytest.param("phi_value", (TP797, F(797, 4), F(797, 4)), 8000, id="psi_value"),
    ("phi_value", (TP797, 797, 0), 3000),
    ("delta_value", (TP797, -797), 8000),
    pytest.param("theorem_sum", (4, 1, 797), 8000, id="lhs_theorem1"),
    pytest.param("theorem_sum", (4, 1, 797, True), 8000, id="lhs_theorem2"),
    ("dual_reduction_sum", (TheoremParams(4, 2, 797),), 8000),
    # The guo, sun-e, sun-bernoulli and dflst sums: theorem_sum at each check's point.
    pytest.param("theorem_sum", verify.CHECKS["guo"].point(6, 599), 8000, id="guo_sum"),
    pytest.param("theorem_sum", verify.CHECKS["sun-e"].point(101), 8000, id="sun_e_sum"),
    pytest.param("theorem_sum", verify.CHECKS["sun-bernoulli"].point(797, 4), 8000,
                 id="sun_bernoulli_lhs"),
    pytest.param("theorem_sum", verify.CHECKS["dflst"].point(3, 211), 1000, id="dflst_sum"),
    pytest.param("theorem_sum", (*verify.CHECKS["dflst"].point(3, 211), True), 1000,
                 id="dflst_dual"),
    # Over L = lcm(1..796) or a power of it, psi/phi about 2.3k bits; the Taylor delta and the
    # offset lemmas over the offset walk's denominator, far wider.
    ("taylor_values", (TP797,), 1000),
    ("second_order_sum", (TP797,), 1000),
    ("lemma_sums", (TP797,), 1000),
    # At q > 1 the lemmas also read H_{q-1} and H2_{q-1}, each over its head tree's own
    # denominator.
    pytest.param("lemma_sums", (TheoremParams(8, 3, 401),), 600, id="lemma_sums-head"),
    # The Upsilon coefficients are exact zeros in range; out of range all six are nonzero.
    ("upsilon_coefficients", (TheoremParams(4, 300, 797, exploratory=True),), 1000),
    # No differences when the step pairs mirror, as they do here: only p/n is reduced.
    ("reflection_differences", (TheoremParams(4, 2, 797),), 64),
]


@pytest.mark.parametrize("name,args,bits", EVALUATOR_SIZES,
                         ids=[getattr(c, "id", None) or c[0] for c in EVALUATOR_SIZES])
def test_public_scalar_evaluators_reduce_no_sum_by_a_gcd(monkeypatch, clear_memos, name, args,
                                                          bits):
    # The same spy, sizes and bounds on each public evaluator: its Unreduced pair (each of
    # them, for a tuple) is the exact sum as computed, and nothing on the way reduces it.
    fn = getattr(series, name)
    values = fn(*args)
    for value in values if isinstance(values, tuple) else [values]:
        assert type(value) is Unreduced
        assert max(value.num.bit_length(), value.den.bit_length()) > bits
    widest, _ = _widest_gcd(monkeypatch, clear_memos, lambda: fn(*args))
    assert widest < bits


def test_verify_reads_series_only_by_public_names_and_builds_no_pair():
    # Every sum verify decides on comes whole from a public series evaluator: verify
    # imports or reads no private series name and takes no Unreduced apart.
    tree = ast.parse(inspect.getsource(verify))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "series"
               for alias in node.names if alias.name.startswith("_")]
    private += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "series"
                and node.attr.startswith("_")]
    parts = [node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("num", "den")]
    assert private == [] and parts == []


@pytest.mark.parametrize("p,achieved", [(16843, 5), (16829, 4)])
def test_theorem1_known_answers_beyond_the_grid(p, achieved):
    # At q = 1 the sum is = (n-1)(7n-5)/(36n^2) p^4 B_{p-3} (mod p^5), so its order is 4
    # unless p divides B_{p-3}: 16843 is a Wolstenholme prime, and 16829 is not.
    report = verify_theorem1(TheoremParams(4, 1, p))
    assert report.verdict is Verdict.HOLDS
    assert report.achieved_ord == achieved


@pytest.mark.slow
def test_sun_bernoulli_known_answers_beyond_the_grid(monkeypatch):
    # About 3 s.  The exact B_9970 would take minutes; every order here is 5, so the power-sum
    # residue decides each report and the table is never read.  16843, the first Wolstenholme
    # prime, lay above the Bernoulli table's cap of 10^4.
    def never(m):
        raise AssertionError("the Bernoulli table was read")

    monkeypatch.setattr(padic, "bernoulli", never)
    reports = [verify_sun_bernoulli(9973, n) for n in range(3, 9)]
    reports.append(verify_sun_bernoulli(16843, 4))
    assert [(r.achieved_ord, r.verdict) for r in reports] == [(5, Verdict.HOLDS)] * 7


@pytest.mark.slow
def test_dflst_known_answers_beyond_the_grid():
    # p = 10009 lay above the Morita bound p^3 <= 10^7 (p <= 211) that dflst's domain held.
    reports = verify_dflst_pair(4, 10009)
    assert [(r.check_id, r.achieved_ord, r.verdict) for r in reports] == [
        ("dflst/sum", 3, Verdict.HOLDS), ("dflst/dual", 3, Verdict.HOLDS)]


@pytest.mark.parametrize("p", [
    211,
    pytest.param(401, marks=pytest.mark.slow),  # about 3 s
])
def test_sun_e_known_answers_beyond_the_grid(p):
    # The sum is 0 (mod p^5) for every prime p > 3; at these two its order is exactly 5.
    report = verify_sun_e(p)
    assert report.verdict is Verdict.HOLDS
    assert report.achieved_ord == 5


def test_taylor_and_identities_build_no_jet(monkeypatch, clear_memos):
    # The jets stay the derivative oracle, off the verify path.  The controls build a jet
    # directly and through the test-only fold.
    tuples = [TP797, TheoremParams(4, 2, 11), *(TheoremParams(*t, exploratory=True)
                                                for t in [(3, 1, 3), (3, 2, 7), (3, 100000, 5)])]
    expected = [(verify_taylor(tp), verify_exact_identities(tp)) for tp in tuples]

    def never(*args, **kwargs):
        raise AssertionError("a jet was built")

    monkeypatch.setattr(jets.Jet2, "__init__", never)
    monkeypatch.setattr(jets, "pochhammer_jet", never)
    clear_memos()
    for build in (jets.Jet2, partial(jets.pochhammer_jet, 1, 1, "x", 3, 2),
                  partial(jet_fold.phi_jet, TP797)):
        with pytest.raises(AssertionError, match="a jet was built"):
            build()
    assert [(verify_taylor(tp), verify_exact_identities(tp)) for tp in tuples] == expected


@pytest.mark.parametrize("n,q,p,lemmas,identities,taylor", [
    (8, 3, 1009, [1, 1, 1, 2, 1, 2, 1], [math.inf, math.inf, 3, math.inf, 3], [3, 3, 4]),
    pytest.param(4, 1, 2003, [math.inf, 2, 2, math.inf, math.inf, 3, 2],
                 [math.inf, math.inf, 4, math.inf, None], [3, 3, 6],
                 marks=pytest.mark.slow),  # about 2 s
], ids=["8-3-1009", "4-1-2003"])
def test_lemmas_identities_and_taylor_known_answers_beyond_the_reference(
        n, q, p, lemmas, identities, taylor):
    # The Fraction reference stops at p = 307; these orders pin the integer kernels above it.
    tp = TheoremParams(n, q, p)
    reports = [verify_lemma_suite(tp), verify_exact_identities(tp), verify_taylor(tp)]
    assert [[r.achieved_ord for r in rs] for rs in reports] == [lemmas, identities, taylor]
    assert all(r.verdict in (Verdict.HOLDS, Verdict.SKIPPED) for rs in reports for r in rs)


@pytest.mark.slow
def test_taylor_and_identities_known_answers_beyond_the_grid():
    # About 3 s.  At (4, 1) the delta Taylor step holds to order 6, and Upsilon vanishes.
    tp = TheoremParams(4, 1, 4001)
    taylor = verify_taylor(tp)
    assert [r.achieved_ord for r in taylor] == [3, 3, 6]
    identities = {r.check_id: r for r in verify_exact_identities(tp)}
    assert identities["identities/p2-reduction"].achieved_ord == 4
    assert identities["identities/upsilon-jet"].achieved_ord == math.inf
    assert all(r.verdict is Verdict.HOLDS for r in taylor + list(identities.values())
               if r.check_id != "identities/dual-reduction")


@pytest.mark.parametrize("check", sorted(verify.CHECKS))
def test_the_walk_cap_admits_the_largest_walk_the_verify_caps_admit(monkeypatch, clear_memos,
                                                                    check):
    # p at its cap and n or d at 4 times the cap over p, and sun-e's exponent p + 1: each check
    # stops at its first walk, once series.WALK_CAP has passed it.  No sum is built.
    class FirstWalk(Exception):
        pass

    def largest_prime(upto, mod=1, residue=0):
        return next(p for p in range(upto, 4, -1) if p % mod == residue and is_prime(p))

    cap = verify.CHECKS[check].cap
    if check == "sun-e":
        args = (largest_prime(cap),)
    elif check == "guo":
        args = (4, largest_prime(cap, 4, 3))
    elif check == "sun-bernoulli":
        p = largest_prime(cap)
        args = (p, 4 * cap // p)
    elif check == "dflst":
        p = largest_prime(cap, 4, 1)
        args = (4 * cap // p, p)
    else:
        p = largest_prime(cap)
        args = (TheoremParams(4 * cap // p, 1, p),)
    check_walk = series._check_walk

    def first_walk(steps, exponent):
        check_walk(steps, exponent)
        raise FirstWalk

    monkeypatch.setattr(series, "_check_walk", first_walk)
    with pytest.raises(FirstWalk):
        getattr(verify, verify.CHECKS[check].function)(*args)
