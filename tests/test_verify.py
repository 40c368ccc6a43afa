import math
import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from hypercong.errors import PreconditionViolated, ZeroDenominator
from hypercong.exact_core import harmonic, pochhammer
from hypercong import verify
from hypercong.padic import PrimePowerModulus, factorial_valuation, is_prime, ord_rational
from hypercong.series import (
    TheoremParams,
    _ratio_steps,
    guo_sum,
    lhs_theorem1,
    theorem2_prefactor,
)
from hypercong.verify import (
    CongruenceReport,
    Verdict,
    _steps_mirror,
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


def test_reports_are_frozen_values():
    report = check_congruence(0, 0, PrimePowerModulus(5, 1))
    with pytest.raises(FrozenInstanceError):
        report.check_id = "other"


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
    base = check_congruence(lhs_theorem1(tp), 0, PrimePowerModulus(7, 3))
    for _ in range(25):
        num = rng.randint(1, 300)
        den = rng.randint(1, 300)
        while num % 7 == 0:
            num = rng.randint(1, 300)
        while den % 7 == 0:
            den = rng.randint(1, 300)
        unit = F(num, den)
        scaled = check_congruence(lhs_theorem1(tp) * unit, 0, PrimePowerModulus(7, 3))
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
    assert guo_sum(4, 7) == lhs_theorem1(TheoremParams(4, 2, 7))
    assert verify_guo(6, 11).verdict is Verdict.HOLDS


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


# --- the integer harmonic prefixes against Fraction harmonic numbers ----------


def _tagged(report, tp):
    if tp.exploratory and tp.hypothesis_violations():
        return replace(report, verdict=Verdict.HYPOTHESIS_VIOLATED)
    return report


def _reference_lemma_suite(tp):
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
    values = [
        harmonic(q - 1, 2) * sum(plain),
        sum(plain[k] * harmonic(q + k - 1, 2) for k in range(count)),
        sum(plain[k] * harmonic(k, 2) for k in range(count)),
        sum(plain[k] * (harmonic(k) - harmonic(q + k - 1)) for k in range(count)),
        sum(plain[k] * (harmonic(k) ** 2 - harmonic(q + k - 1) ** 2) for k in range(count)),
        sum(t * g for t, g in zip(offset, gaps)),
        sum(t * g * g for t, g in zip(offset, gaps)),
    ]
    names = ["h2-head", "h2-shift", "h2-plain", "h1-shift", "h1-shift-sq",
             "s1-offset", "s1-offset-sq"]
    orders = [1, 1, 1, 1, 1, 2, 1]
    return [_tagged(check_congruence(v, 0, PrimePowerModulus(p, k), check_id=f"lemmas/{name}",
                                     params=tp.as_params()), tp)
            for v, name, k in zip(values, names, orders)]


def _reference_p2_reduction(tp):
    n, q, p = tp.n, tp.q, tp.p
    second_order = sum(math.comb(q + k - 1, k) ** n * (harmonic(q + k - 1, 2) - harmonic(q - 1, 2))
                       for k in range(p - q + 1))
    rhs = F(n - 1, 2 * n) * p * p * second_order
    return _tagged(check_congruence(lhs_theorem1(tp), rhs, PrimePowerModulus(p, 3),
                                    check_id="identities/p2-reduction", params=tp.as_params()), tp)


# In-hypothesis tuples up to p = 199, then parity and range violations and a
# sum with no terms (q > p).
HARMONIC_TUPLES = [
    (3, 1, 197), (4, 2, 199), (8, 3, 101), (6, 4, 193), (5, 3, 131), (4, 1, 5),
    (3, 2, 199), (5, 4, 181), (8, 4, 23), (3, 3, 5), (4, 3, 2),
]


@pytest.mark.parametrize("n,q,p", HARMONIC_TUPLES)
def test_integer_harmonic_sums_equal_the_fraction_reference(n, q, p):
    tp = TheoremParams(n, q, p, exploratory=True)
    assert verify_lemma_suite(tp) == _reference_lemma_suite(tp)
    by_id = {r.check_id: r for r in verify_exact_identities(tp)}
    assert by_id["identities/p2-reduction"] == _reference_p2_reduction(tp)


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


def _reflection_walks(tp):
    # (1)_k/(b)_k against (a)_{p-1-k}/(1 - p)_{p-1-k}, b = p/n - q + 2, a = q - p/n - p.
    n, q, p = tp.n, tp.q, tp.p
    return [(1, 1), (F(p, n) - q + 2, -1)], [(q - F(p, n) - p, 1), (1 - p, -1)]


def _reflection_steps(tp):
    return [list(_ratio_steps(walk, tp.p - 1)) for walk in _reflection_walks(tp)]


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
                _reflection_steps(tp)
            continue
        mirrored = _steps_mirror(*_reflection_steps(tp), tp.p - 1)
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
    monkeypatch.setattr(verify, "_steps_mirror", lambda *args: False)
    assert [_identities_or_error(tp) for tp in tuples] == fast


@pytest.mark.parametrize("n,q,p", [(4, 1, 13), (3, 1, 11), (6, 1, 7)])
def test_a_broken_reflection_walk_fails_on_the_exact_path(monkeypatch, n, q, p):
    # Each case edits the step pairs of one walk and the reference terms alike.
    # Scaling one step by 1 + p^5 leaves one difference, -p^5; a walk that stops one
    # step early leaves unmatched terms, of valuation 0 at q = 1.
    tp = TheoremParams(n, q, p)
    left, right = _reflection_terms(tp)
    scale = 1 + p**5
    cases = [  # (walk, edit of its step pairs, reference terms, valuation)
        ("left", lambda s: [(s[0][0] * scale, s[0][1])] + s[1:],
         ([left[0]] + [t * scale for t in left[1:]], right), 5),
        ("right", lambda s: s[:-1] + [(s[-1][0] * scale, s[-1][1])],
         (left, right[:-1] + [right[-1] * scale]), 5),
        ("left", lambda s: s[:-1], (left[:-1] + [0], right), 0),
        ("right", lambda s: s[:-1], (left, right[:-1] + [0]), 0),
    ]
    original = verify._ratio_steps
    for walk, edit, terms, valuation in cases:
        def edited(factors, last, walk=walk, edit=edit):
            steps = list(original(factors, last))
            return edit(steps) if (factors[0] == (1, 1)) == (walk == "left") else steps

        monkeypatch.setattr(verify, "_ratio_steps", edited)
        report = verify_exact_identities(tp)[3]
        assert min(ord_rational(d, p) for d in _reflection_differences(*terms)) == valuation
        assert report.check_id == "identities/reflection"
        assert report.verdict is Verdict.FAILS
        assert report.achieved_ord == valuation, (walk, valuation, report.achieved_ord)


def test_theorem2_prefactor_is_the_pochhammer_ratio():
    for tp in EXPLORATORY_GRID:
        n, q, p = tp.n, tp.q, tp.p
        b = F(p, n) - q + 2
        if p == n and 3 <= q <= p + 1:  # b + k = 0 at k = q - 3 < p - 1
            with pytest.raises(ZeroDenominator):
                theorem2_prefactor(tp)
            continue
        expected = F(p) ** n * (pochhammer(F(1), p - 1) / pochhammer(b, p - 1)) ** n
        assert theorem2_prefactor(tp) == expected, tp.as_params()


@pytest.mark.parametrize("n,q,p", [(3, 1, 2), (3, 2, 3), (6, 1, 5), (4, 2, 11), (8, 3, 61)])
def test_step_mirror_rejects_any_perturbed_pair(n, q, p):
    tp = TheoremParams(n, q, p, exploratory=True)
    left, right = _reflection_steps(tp)
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
