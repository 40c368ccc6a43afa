import hashlib
import inspect
import random
import re
import sys
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercong.errors import (
    CapExceeded,
    NotTerminating,
    PreconditionViolated,
    ZeroDenominator,
    ZeroLowerFactor,
)
from hypercong import series
from hypercong.cli import CHECK_NAMES, SweepSpec, primes_upto, render_csv, render_json, run_sweep
from hypercong.exact_core import ShiftedSumSpec, harmonic, pochhammer, shifted_power_sum
from hypercong.jets import MAX_DEGREE_CAP, Jet2, pochhammer_jet
from hypercong.padic import PrimePowerModulus, Unreduced, is_prime, ord_rational, reduce_mod
from hypercong.verify import CHECKS
from hypercong.series import (
    HyperSeriesSpec,
    TheoremParams,
    delta_value,
    dual_reduction_sum,
    karlsson_minton_sum,
    phi_value,
    taylor_values,
    theorem_sum,
    truncated_pfq,
    upsilon_coefficients,
    _ratio_steps,
    _ratio_sum,
)
import jet_fold
from jet_fold import _REDUCE_EVERY, _product_jet, delta_jet, phi_jet, upsilon_jet

F = Fraction


def _fraction(value):
    """The reduced value of an evaluator's exact Unreduced pair."""
    return F(value.num, value.den)


def _at(check, *args, dual=False):
    """The theorem sum a check reads, at its point in verify.CHECKS."""
    return theorem_sum(*CHECKS[check].point(*args), dual=dual)


# --- truncated series --------------------------------------------------------


def test_pfq_single_term():
    spec = HyperSeriesSpec((F(3, 7), F(-2)), (F(5),), F(9), 0)
    assert truncated_pfq(spec) == 1


def test_pfq_terminating_karlsson_minton_instance():
    spec = HyperSeriesSpec((F(-2), F(2)), (F(1),), F(1), 2)
    # terms 1 - 4 + 3
    assert truncated_pfq(spec) == 0


def test_pfq_no_lower_parameters():
    spec = HyperSeriesSpec((F(1),), (), F(1), 3)
    assert truncated_pfq(spec) == 4


def test_pfq_rejects_vanishing_lower_parameter():
    with pytest.raises(ZeroLowerFactor):
        HyperSeriesSpec((F(1),), (F(-1),), F(1), 2)
    # -5 is outside the vanishing window for N = 3
    HyperSeriesSpec((F(1),), (F(-5),), F(1), 3)


def test_pfq_rejects_negative_truncation():
    with pytest.raises(ValueError):
        HyperSeriesSpec((F(1),), (), F(1), -1)


# --- Karlsson-Minton ----------------------------------------------------------


def test_karlsson_minton_basic_vanishing():
    result = karlsson_minton_sum(-2, [(F(1), 1)])
    assert result.value == 0
    assert not result.hypothesis_violated


def test_karlsson_minton_two_pairs():
    result = karlsson_minton_sum(-3, [(F(1), 1), (F(2), 1)])
    assert result.value == 0
    assert not result.hypothesis_violated


def test_karlsson_minton_flagged_outside_hypothesis():
    result = karlsson_minton_sum(-1, [(F(1), 1)])
    assert result.hypothesis_violated
    assert result.value == -1


def test_karlsson_minton_rejects_non_terminating():
    with pytest.raises(NotTerminating):
        karlsson_minton_sum(F(-3, 2), [])
    with pytest.raises(NotTerminating):
        karlsson_minton_sum(2, [])


def test_karlsson_minton_rejects_vanishing_base():
    with pytest.raises(ZeroLowerFactor):
        karlsson_minton_sum(-4, [(F(-2), 1)])
    with pytest.raises(ValueError):
        karlsson_minton_sum(-4, [(F(1), -1)])


@pytest.mark.parametrize("offset", [F(1, 2), 0.1, True], ids=["fraction", "float", "bool"])
def test_karlsson_minton_refuses_an_offset_that_is_not_an_int(offset):
    # The hypothesis' promise of 0 holds for integer offsets only: at F(1, 2) the sum is -1/16,
    # and 0.1 would be read as its binary fraction.
    with pytest.raises(ValueError, match="pair offset .* must be a nonnegative integer"):
        karlsson_minton_sum(-3, [(1, offset)])


def test_karlsson_minton_random_draws_vanish():
    rng = random.Random(99)
    for _ in range(60):
        length = rng.randint(1, 40)
        r = rng.randint(0, 3)
        pairs = []
        budget = length - 1
        for _ in range(r):
            m = rng.randint(0, budget // r) if r else 0
            budget -= m
            b = F(rng.randint(1, 20), rng.choice([1, 1, 2, 3, 5]))
            pairs.append((b, m))
        result = karlsson_minton_sum(-length, pairs)
        assert not result.hypothesis_violated
        assert result.value == 0



@pytest.mark.parametrize("inexact", [0.1, Decimal("0.1"), "1/10"], ids=["float", "decimal", "str"])
def test_entry_points_refuse_inexact_values(inexact):
    # 0.1 would be read as its binary fraction and "1/10" parsed as text; each is refused.
    tp = TheoremParams(4, 1, 7)
    for call in (lambda: phi_value(tp, inexact, inexact), lambda: phi_value(tp, inexact, 0),
                 lambda: phi_value(tp, 0, inexact), lambda: delta_value(tp, inexact),
                 lambda: HyperSeriesSpec((inexact,), (), 1, 3),
                 lambda: HyperSeriesSpec((), (inexact,), 1, 3),
                 lambda: HyperSeriesSpec((), (), inexact, 3),
                 lambda: karlsson_minton_sum(inexact, []),
                 lambda: karlsson_minton_sum(-3, [(inexact, 1)])):
        with pytest.raises(TypeError):
            call()


def test_entry_points_read_ints_and_fractions_exactly():
    tp = TheoremParams(4, 1, 7)
    n, q, p = tp.n, tp.q, tp.p

    def pfq(upper, lower):
        return truncated_pfq(HyperSeriesSpec(upper, lower, F(1), p - q))

    for x in (2, F(2), F(1, 10), F(-7, 3)):
        y = F(1, 3)
        assert phi_value(tp, x, x) == pfq((q - F(x),) * n, (F(1),) * (n - 1)), x
        assert phi_value(tp, x, y) == pfq((q - F(x),) + (q - y,) * (n - 1), (F(1),) * (n - 1)), x
        offset = q - F(p, n) + F(x)
        assert delta_value(tp, x) == pfq((offset,) * n + (F(1),), (1 + F(x),) * n), x
    spec = HyperSeriesSpec((2,), (3,), 5, 4)
    assert spec == HyperSeriesSpec((F(2),), (F(3),), F(5), 4)
    assert all(type(v) is Fraction for v in (*spec.upper, *spec.lower, spec.argument))
    for b in (2, F(2), F(1, 10)):
        expected = truncated_pfq(HyperSeriesSpec((F(-5), F(b) + 2), (F(b),), F(1), 5))
        assert karlsson_minton_sum(-5, [(b, 2)]).value == expected, b


# --- parameter triples --------------------------------------------------------


def test_theorem_params_validation():
    tp = TheoremParams(4, 2, 11)
    assert tp.in_hypothesis
    with pytest.raises(PreconditionViolated, match="parity"):
        TheoremParams(3, 2, 11)
    with pytest.raises(PreconditionViolated, match="range"):
        TheoremParams(4, 2, 5)
    with pytest.raises(PreconditionViolated):
        TheoremParams(2, 1, 7)
    with pytest.raises(PreconditionViolated):
        TheoremParams(4, 0, 7)
    with pytest.raises(PreconditionViolated):
        TheoremParams(4, 1, 9)


@pytest.mark.parametrize("field", ["n", "q", "p"])
@pytest.mark.parametrize("kind", [float, F, bool, str], ids=["float", "fraction", "bool", "str"])
def test_theorem_params_refuse_a_field_that_is_not_an_int(field, kind):
    # TheoremParams(3, 1.0, 7) equalled (3, 1, 7), yet theorem1 on it summed the binary
    # fraction of q - p/n and failed at order 0 where (3, 1, 7) holds at order 4.
    values = {"n": 4, "q": 1, "p": 7}
    values[field] = kind(values[field])
    for exploratory in (False, True):
        with pytest.raises(TypeError, match="n, q and p must be int"):
            TheoremParams(**values, exploratory=exploratory)


def test_theorem_params_exploratory_mode():
    tp = TheoremParams(3, 2, 11, exploratory=True)
    assert not tp.in_hypothesis
    assert any("parity" in reason for reason in tp.hypothesis_violations())
    # equality ignores the exploratory flag
    assert tp == TheoremParams(3, 2, 11, exploratory=True)


BIG = 10**5000  # above str()'s default limit of 4300 digits


@pytest.mark.parametrize("call, error, message", [
    (lambda: TheoremParams(3, 1, BIG), PreconditionViolated, "p = at least 10^5000 is not prime"),
    (lambda: TheoremParams(3, -BIG, 7), PreconditionViolated,
     "q must be positive, got at most -10^5000"),
    (lambda: TheoremParams(-BIG, 1, 7), PreconditionViolated,
     "n must exceed 2, got at most -10^5000"),
    (lambda: HyperSeriesSpec((F(1),), (F(-BIG),), F(1), BIG + 1), ZeroLowerFactor,
     "lower parameter at most -10^5000 vanishes within at least 10^5000 terms"),
    (lambda: karlsson_minton_sum(F(1, BIG), []), NotTerminating,
     "leading parameter 1/at least 10^5000 is not a negative integer"),
    (lambda: karlsson_minton_sum(-BIG - 2, [(-BIG, 1)]), ZeroLowerFactor,
     "pair base at most -10^5000 hits a nonpositive integer in range"),
    (lambda: karlsson_minton_sum(-3, [(1, -BIG)]), ValueError,
     "pair offset at most -10^5000 must be a nonnegative integer"),
    # A field that is not an int keeps its repr, the str '1' its quotes.
    (lambda: TheoremParams(BIG, 1, 7.0), TypeError,
     "n, q and p must be int, got at least 10^5000, 1, 7.0"),
    (lambda: TheoremParams(4, "1", 7), TypeError, "n, q and p must be int, got 4, '1', 7"),
], ids=["p", "q", "n", "lower-parameter", "leading-parameter", "pair-base", "pair-offset",
        "type", "type-printable"])
def test_a_refusal_states_an_integer_too_long_to_print(call, error, message):
    # str() of such an integer raised ValueError from inside the message.
    with pytest.raises(error) as refusal:
        call()
    assert str(refusal.value) == message


def test_the_hypotheses_state_an_integer_too_long_to_print():
    tp = TheoremParams(3, BIG, 7, exploratory=True)
    assert not tp.in_hypothesis
    assert tp.hypothesis_violations() == ("parity: need n even or q odd (n=3, q=at least 10^5000)",
                                          "range: need p > at least 10^5000, got p=7")


# --- concrete sums ------------------------------------------------------------


def test_psi_value_all_ones():
    assert phi_value(TheoremParams(3, 1, 5), 0, 0) == 5


def test_psi_value_cubes():
    # sum_{k=0}^{5} ((2)_k/(1)_k)^3 = sum (k+1)^3
    assert phi_value(TheoremParams(3, 2, 7, exploratory=True), 0, 0) == 441


def test_psi_value_at_displacement_is_congruent_to_zero():
    tp = TheoremParams(4, 1, 7)
    value = phi_value(tp, F(7, 4), F(7, 4))
    assert reduce_mod(value, PrimePowerModulus(7, 3)).value == 0


@pytest.mark.parametrize("n,q,p", [(4, 1, 7), (4, 2, 11), (3, 1, 5)])
def test_lhs_theorem1_valuations(n, q, p):
    assert TheoremParams(n, q, p).in_hypothesis
    assert ord_rational(theorem_sum(n, q, p), p) >= 3


@pytest.mark.parametrize("n,q,p", [(4, 1, 7), (4, 2, 11), (3, 3, 11)])
def test_lhs_theorem2_valuations(n, q, p):
    assert TheoremParams(n, q, p).in_hypothesis
    assert ord_rational(theorem_sum(n, q, p, dual=True), p) >= 3


@pytest.mark.parametrize("n,q,p", [(4, 2, 11), (3, 1, 5)])
def test_lhs_theorem1_is_a_pfq_specialization(n, q, p):
    spec = HyperSeriesSpec(
        (F(q) - F(p, n),) * n, (F(1),) * (n - 1), F(1), p - 1
    )
    assert theorem_sum(n, q, p) == truncated_pfq(spec)


def test_named_sums_are_pfq_specializations():
    # dual route: the theorem sums at each check's point against per-term products
    d, p = 4, 7
    spec = HyperSeriesSpec((F(1, d),) * d, (F(1),) * (d - 1), F(1), p - 1)
    assert _at("guo", d, p) == truncated_pfq(spec)
    p = 5
    spec = HyperSeriesSpec((F(1, p + 1),) * (p + 1), (F(1),) * p, F(1), p - 1)
    assert _at("sun-e", p) == truncated_pfq(spec)
    # sun-bernoulli's n = 1 and 2, which no TheoremParams holds
    for n, p in ((1, 7), (2, 7), (5, 11)):
        spec = HyperSeriesSpec((1 - F(p, n),) * n, (F(1),) * (n - 1), F(1), p - 1)
        assert _at("sun-bernoulli", p, n) == truncated_pfq(spec)
    n, p = 3, 7
    spec = HyperSeriesSpec((1 - F(1, n),) * n, (F(1),) * (n - 1), F(1), p - 1)
    assert _at("dflst", n, p) == truncated_pfq(spec)
    # one extra upper 1 absorbs the k! of the pfq normalization
    spec = HyperSeriesSpec((F(1),) * (n + 1), (1 + F(1, n),) * n, F(1), p - 1)
    assert _at("dflst", n, p, dual=True) == F(p) ** n * truncated_pfq(spec)


def test_delta_value_rejects_vanishing_denominator():
    with pytest.raises(ZeroDenominator):
        delta_value(TheoremParams(4, 2, 11), -3)


# --- jets of the sums ---------------------------------------------------------


@pytest.mark.parametrize("n,q,p", [(3, 1, 5), (4, 2, 11)])
def test_upsilon_jet_is_zero(n, q, p):
    assert upsilon_jet(TheoremParams(n, q, p), 2).is_zero


def test_upsilon_jet_degenerate_cap():
    jet = upsilon_jet(TheoremParams(3, 2, 7, exploratory=True), 0)
    assert jet.coefficient(0, 0) == 0


def test_phi_jet_constant_term_is_psi_at_zero():
    tp = TheoremParams(3, 1, 5)
    assert phi_jet(tp, 0).coefficient(0, 0) == phi_value(tp, 0, 0) == 5


def test_delta_jet_slope_matches_closed_form():
    n, q, p = 3, 1, 5
    tp = TheoremParams(n, q, p)
    offset = q - F(p, n)
    expected = F(0)
    for k in range(p - q + 1):
        weight = (pochhammer(offset, k) / pochhammer(F(1), k)) ** n
        s1 = shifted_power_sum(ShiftedSumSpec(offset, 1, k))
        expected += weight * (s1 - harmonic(k))
    assert delta_jet(tp, 1).coefficient(1, 0) == n * expected


def test_phi_vanishes_at_p_zero():
    for tp in (TheoremParams(3, 1, 5), TheoremParams(4, 2, 11)):
        assert phi_value(tp, tp.p, 0) == 0


def test_reflection_identity_exact():
    tp = TheoremParams(4, 2, 11)
    n, q, p = tp.n, tp.q, tp.p
    b = F(p, n) - q + 2
    a = q - F(p, n) - p
    scale = pochhammer(F(1), p - 1) / pochhammer(b, p - 1)
    for k in range(p):
        lhs = pochhammer(F(1), k) / pochhammer(b, k)
        rhs = scale * pochhammer(a, p - 1 - k) / pochhammer(1 - p, p - 1 - k)
        assert lhs == rhs


def _theorem2_prefactor(tp):
    # p^n ((1)_{p-1} / (b)_{p-1})^n, b = p/n - q + 2: the unit the reflection carries.
    b = F(tp.p, tp.n) - tp.q + 2
    return F(tp.p) ** tp.n * (pochhammer(F(1), tp.p - 1) / pochhammer(b, tp.p - 1)) ** tp.n


def test_theorem2_prefactor_valuation_and_factorization():
    unit_tp = TheoremParams(4, 2, 11)
    assert ord_rational(_theorem2_prefactor(unit_tp), 11) == 0
    q1_tp = TheoremParams(4, 1, 7)
    assert ord_rational(_theorem2_prefactor(q1_tp), 7) == q1_tp.n
    for tp in (unit_tp, q1_tp):
        product = _theorem2_prefactor(tp) * _fraction(dual_reduction_sum(tp))
        assert theorem_sum(tp.n, tp.q, tp.p, dual=True) == product


def test_upsilon_first_and_second_order_consequences_vanish():
    # the exact sums extracted from the vanishing jet, recomputed from scalars
    for n, q, p in ((4, 2, 11), (3, 1, 5)):
        for order in (1, 2):
            total, scalar = F(0), F(1)
            for k in range(p):
                s = shifted_power_sum(ShiftedSumSpec(F(q), order, k))
                total += scalar * (s - harmonic(k, order))
                if k < p - 1:
                    scalar *= F((1 - p + k) * (q + k) ** n, (k + 1) ** (n + 1))
            assert total == 0


def test_guo_sum_equals_theorem1_sum_over_the_grid():
    # Guo's sum, by its own factor list (1/d + k)^d / (1 + k)^d, is the theorem1 left side
    # at the guo point of verify.CHECKS, n = d, q = (p+1)/d.
    count = 0
    for d in (4, 6, 8):
        for p in primes_upto(97):
            if (p + 1) % d == 0:
                tp = TheoremParams(*CHECKS["guo"].point(d, p), exploratory=True)
                assert (tp.n, tp.q) == (d, (p + 1) // d)
                assert _stepwise_sum(((F(1, d), d), (1, -d)), p - 1) == theorem_sum(tp.n, tp.q, p)
                count += 1
    assert count > 15


# --- jets of the sums against the Jet2 ring-arithmetic oracle -------------------


def _jet_power(jet, m):
    result = Jet2.constant(1, jet.degree_cap)
    for _ in range(m):
        result = result * jet
    return result


def _oracle_psi(tp, cap):
    n, q, p = tp.n, tp.q, tp.p
    total = Jet2.zero(cap)
    for k in range(p - q + 1):
        term = _jet_power(pochhammer_jet(q, -1, "x", k, cap), n)
        total = total + term * F(1, factorial(k) ** n)
    return total


def _phi_diagonal(tp, cap):
    # psi(x) = phi(x, x): psi's x^d coefficient is phi_jet's anti-diagonal sum of degree d.
    phi = phi_jet(tp, cap)
    return Jet2({(d, 0): sum(phi.coefficient(i, d - i) for i in range(d + 1))
                 for d in range(cap + 1)}, cap)


def _oracle_phi(tp, cap):
    n, q, p = tp.n, tp.q, tp.p
    total = Jet2.zero(cap)
    for k in range(p - q + 1):
        term = pochhammer_jet(q, -1, "x", k, cap)
        term = term * _jet_power(pochhammer_jet(q, -1, "y", k, cap), n - 1)
        total = total + term * F(1, factorial(k) ** n)
    return total


def _oracle_delta(tp, cap):
    n, q, p = tp.n, tp.q, tp.p
    offset = q - F(p, n)
    total = Jet2.zero(cap)
    for k in range(p - q + 1):
        num = _jet_power(pochhammer_jet(offset, 1, "x", k, cap), n)
        total = total + num / _jet_power(pochhammer_jet(1, 1, "x", k, cap), n)
    return total


def _oracle_upsilon(tp, cap):
    n, q, p = tp.n, tp.q, tp.p
    total = Jet2.zero(cap)
    for k in range(p):
        scalar = pochhammer(F(1 - p), k) * pochhammer(F(q), k) ** (n - 2)
        scalar /= pochhammer(F(1), k) ** (n - 1)
        num = pochhammer_jet(q, 1, "x", k, cap) * pochhammer_jet(q, 1, "y", k, cap)
        den = pochhammer_jet(1, 1, "x", k, cap) * pochhammer_jet(1, 1, "y", k, cap)
        total = total + num / den * scalar
    return total


JET_ORACLES = [
    (_phi_diagonal, _oracle_psi),
    (phi_jet, _oracle_phi),
    (delta_jet, _oracle_delta),
    (upsilon_jet, _oracle_upsilon),
]

# In-hypothesis tuples, then exploratory ones: parity and range violations,
# a sum with no terms (q > p), and p = n, q = 1, where delta's first
# numerator base q - p/n is exactly zero.
ORACLE_TUPLES = [
    (3, 1, 5), (4, 2, 11), (6, 1, 7), (3, 3, 11), (8, 1, 11),
    (3, 2, 7), (4, 2, 5), (4, 3, 2), (3, 1, 3), (5, 1, 5), (7, 1, 7),
]


@pytest.mark.parametrize("jet_fn,oracle", JET_ORACLES, ids=["psi", "phi", "delta", "upsilon"])
@pytest.mark.parametrize("n,q,p", ORACLE_TUPLES)
def test_jets_equal_ring_arithmetic_oracle_at_every_cap(jet_fn, oracle, n, q, p):
    tp = TheoremParams(n, q, p, exploratory=True)
    for cap in range(MAX_DEGREE_CAP + 1):
        assert jet_fn(tp, cap) == oracle(tp, cap), f"cap {cap}"


@pytest.mark.parametrize("jet_fn,oracle", JET_ORACLES, ids=["psi", "phi", "delta", "upsilon"])
@pytest.mark.parametrize("n,q,p", [(3, 1, 71), (3, 2, 71)])
def test_long_jet_walks_equal_the_oracle(jet_fn, oracle, n, q, p):
    # Walks longer than two reduction periods of the integer jet walk; (3, 2)
    # breaks the parity hypothesis.
    assert p - q > 2 * _REDUCE_EVERY
    tp = TheoremParams(n, q, p, exploratory=True)
    assert jet_fn(tp, 2) == oracle(tp, 2)


# Every exploratory tuple of a small grid: it holds the zero-base tuples (3, 1, 3),
# (5, 1, 5) and (7, 1, 7), where Delta's walk ends at its first step, and every q > p.
HARMONIC_GRID = [TheoremParams(n, q, p, exploratory=True)
                 for n in range(3, 9) for q in range(1, 7) for p in primes_upto(47)]
UPSILON_KEYS = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]  # upsilon_coefficients' order


def _assert_harmonic_sums_equal_the_jets(tp):
    n, p = tp.n, tp.p
    phi = phi_jet(tp, 2)
    oracle = (phi.evaluate(F(p, n), F(p, n)), phi.evaluate(p, 0), delta_jet(tp, 2).evaluate(-p))
    values = taylor_values(tp)
    assert all(type(v) is Unreduced for v in values)
    assert tuple(map(_fraction, values)) == oracle, tp
    upsilon = upsilon_jet(tp, 2)
    assert [_fraction(v) for v in upsilon_coefficients(tp)] == [
        upsilon.coefficient(*key) for key in UPSILON_KEYS], tp


def test_harmonic_sums_equal_the_jets_on_a_grid():
    assert {(3, 1, 3), (5, 1, 5), (7, 1, 7)} <= {(tp.n, tp.q, tp.p) for tp in HARMONIC_GRID}
    assert any(tp.q > tp.p for tp in HARMONIC_GRID)
    for tp in HARMONIC_GRID:
        _assert_harmonic_sums_equal_the_jets(tp)


@pytest.mark.parametrize("n,q,p", [(3, 100000, 5), (4, 1, 797)])
def test_harmonic_sums_equal_the_jets_far_from_the_grid(n, q, p):
    _assert_harmonic_sums_equal_the_jets(TheoremParams(n, q, p, exploratory=True))


def test_harmonic_sums_at_a_zero_base_and_with_no_terms():
    # At p = n, q = 1 the Delta walk stops before step 1: its Taylor value is term 0.
    assert taylor_values(TheoremParams(3, 1, 3, exploratory=True))[2] == 1
    assert taylor_values(TheoremParams(3, 100000, 5, exploratory=True)) == (0, 0, 0)


# Steps (U, V, f, a, c) of the offset walk's product tree, each taking t to t (U/V)^e for an
# exponent e: U and V nonzero, f positive.
_nonzero = st.integers(-999, 999).filter(bool)
harmonic_steps = st.lists(st.tuples(_nonzero, _nonzero, st.integers(1, 99),
                                    st.integers(-999, 999), st.integers(-999, 999)), max_size=40)


def _folded_node(steps, e):
    """What series._harmonic_split must give for steps, from a Fraction fold: t, g and h
    start at 1, 0, 0; each step takes t to t (U/V)^e, g to g + a/f and h to h + c/f^2, and the
    sums of t, t g, t g^2 and t h are taken after each step."""
    t, g, h, sums = F(1), F(0), F(0), [F(0)] * 4
    for u, v, f, a, c in steps:
        t, g, h = t * F(u, v) ** e, g + F(a, f), h + F(c, f * f)
        sums = [s + x for s, x in zip(sums, (t, t * g, t * g * g, t * h))]
    return g, h, sums


def _node_values(node, e):
    # A node's values over its own denominators: (PU/WV)^e, F, A/F, C/F^2 and the four sums
    # over W, W F, W F^2 and W F^2, W = WV^e.
    pu, wv, f, a, c, s0, s1, s2, sc = node
    w = wv**e
    return F(pu, wv) ** e, f, F(a, f), F(c, f * f), F(s0, w), F(s1, w * f), F(s2, w * f * f), \
        F(sc, w * f * f)


@settings(max_examples=150)
@given(harmonic_steps, st.integers(1, 4))
def test_the_offset_walk_node_equals_a_fraction_fold(steps, e):
    node = series._harmonic_split(steps, e, 0, len(steps))
    g, h, sums = _folded_node(steps, e)
    ratio, f, *values = _node_values(node, e)
    assert ratio == prod(F(step[0], step[1]) for step in steps) ** e
    assert f == prod(step[2] for step in steps)
    assert values == [g, h, *sums]
    # PU and WV are the root products divided by one positive integer, the cancelled gcds.
    pu, wv = node[:2]
    cancelled = prod(step[1] for step in steps) // wv
    assert cancelled > 0 and (pu * cancelled, wv * cancelled) == tuple(
        prod(step[i] for step in steps) for i in (0, 1))


@settings(max_examples=100)
@given(harmonic_steps, st.integers(1, 4))
def test_the_offset_walk_node_does_not_depend_on_where_ranges_split(steps, e):
    # The integers depend on which gcds the tree cancels, so each leaf size gives the same
    # values over the node's own denominators.
    expected = _node_values(series._harmonic_split(steps, e, 0, len(steps)), e)
    for leaf in (1, 2, 3):
        with patch.object(series, "_LEAF", leaf):
            assert _node_values(series._harmonic_split(steps, e, 0, len(steps)), e) == expected


def test_delta_jet_zero_base_is_a_degree_shift():
    # At p = n, q = 1 every term past k = 0 carries the factor x^n.
    tp = TheoremParams(3, 1, 3, exploratory=True)
    assert delta_jet(tp, 2) == Jet2.constant(1, 2)
    jet = delta_jet(tp, 4)
    assert jet.coefficient(0, 0) == 1
    assert jet.coefficient(3, 0) != 0 and jet.coefficient(4, 0) != 0
    assert delta_jet(TheoremParams(5, 1, 5, exploratory=True), 4) == Jet2.constant(1, 4)


def test_product_jet_zero_base_with_negative_sign():
    # sum_k (-x)_k (2 + y)_k: the first x factor is -x, a shift with sign -1.
    factors = [(0, 1, -1, 0), (2, 1, 1, 1)]
    for cap in range(MAX_DEGREE_CAP + 1):
        expected = sum(
            (pochhammer_jet(0, -1, "x", k, cap) * pochhammer_jet(2, 1, "y", k, cap)
             for k in range(5)),
            Jet2.zero(cap),
        )
        assert _product_jet(4, factors, cap) == expected


# --- the term-ratio kernel against the from-scratch oracle ---------------------


def _oracle_sum(upper, lower, last):
    """sum_{k=0}^{last} prod (a)_k / prod (b)_k by truncated_pfq; an extra
    upper 1 absorbs its k!.  Empty (0) when last < 0."""
    if last < 0:
        return F(0)
    return truncated_pfq(HyperSeriesSpec(tuple(upper) + (F(1),), tuple(lower), F(1), last))


def _assert_matches_oracle(value_fn, upper, lower, last):
    # The oracle refuses a vanishing lower parameter; the kernel must too.
    try:
        expected = _oracle_sum(upper, lower, last)
    except ZeroLowerFactor:
        with pytest.raises(ZeroDenominator):
            value_fn()
        return
    assert value_fn() == expected


@pytest.mark.parametrize("n,q,p", ORACLE_TUPLES)
def test_kernel_evaluators_equal_truncated_pfq(n, q, p):
    tp = TheoremParams(n, q, p, exploratory=True)
    rng = random.Random(n * 1000 + q * 100 + p)
    # (2a + 7) / 14 is never an integer, so 1 + x never vanishes.
    x, y = (F(rng.randint(-20, 20), 7) + F(1, 2) for _ in range(2))
    c = q - F(p, n)
    b = F(p, n) - q + 2
    cases = [
        (lambda: phi_value(tp, x, x), [q - x] * n, [F(1)] * n, p - q),
        (lambda: phi_value(tp, F(p, n), F(p, n)), [c] * n, [F(1)] * n, p - q),
        (lambda: phi_value(tp, x, y), [q - x] + [q - y] * (n - 1), [F(1)] * n, p - q),
        (lambda: phi_value(tp, p, 0), [q - F(p)] + [F(q)] * (n - 1), [F(1)] * n, p - q),
        (lambda: delta_value(tp, x), [c + x] * n, [1 + x] * n, p - q),
        (lambda: theorem_sum(n, q, p), [c] * n, [F(1)] * n, p - 1),
        (lambda: _fraction(theorem_sum(n, q, p, dual=True)) / F(p) ** n, [F(1)] * n, [b] * n,
         p - 1),
        (lambda: dual_reduction_sum(tp), [c - p] * n, [F(1 - p)] * n, p - 1),
        (lambda: _at("sun-bernoulli", p, n), [1 - F(p, n)] * n, [F(1)] * n, p - 1),
        # Guo's sum at every p: q = (p+1)/(2n), where it is no integer, as a rational.
        (lambda: theorem_sum(2 * n, F(p + 1, 2 * n), p), [F(1, 2 * n)] * (2 * n),
         [F(1)] * (2 * n), p - 1),
    ]
    for value_fn, upper, lower, last in cases:
        _assert_matches_oracle(value_fn, upper, lower, last)


def test_karlsson_minton_equals_truncated_pfq_on_random_draws():
    rng = random.Random(2024)
    for _ in range(80):
        length = rng.randint(1, 25)
        pairs = [(F(rng.randint(1, 30), rng.choice([1, 2, 3, 7])), rng.randint(0, 6))
                 for _ in range(rng.randint(0, 3))]
        result = karlsson_minton_sum(-length, pairs)
        spec = HyperSeriesSpec((F(-length),) + tuple(b + m for b, m in pairs),
                               tuple(b for b, _ in pairs), F(1), length)
        assert result.value == truncated_pfq(spec)
        assert result.hypothesis_violated == (length <= sum(m for _, m in pairs))


def test_kernel_stops_when_a_numerator_factor_vanishes():
    # (q - x) = -2 at x = q + 2: terms k = 0, 1, 2 are 1, (-2)^n, 1, then zeros.
    tp = TheoremParams(3, 1, 11)
    assert phi_value(tp, 3, 3) == 2 + (-2) ** 3 == _oracle_sum([F(-2)] * 3, [F(1)] * 3, 10)
    # sum_k (-3)_k / k! = (1 - 1)^3: the walk ends after k = 3.
    assert _ratio_sum(((-3, 1), (1, -1)), 10) == 0


def test_kernel_rejects_a_vanishing_denominator():
    # Bases -3 + k for k < last: zero is reached only when last > 3.
    assert _ratio_sum(((1, 1), (-3, -1)), 3) == 1 - F(1, 3) + F(1, 3) - 1
    for fn in (_ratio_sum, lambda *args: list(_ratio_steps(*args))):
        with pytest.raises(ZeroDenominator):
            fn(((1, 1), (-3, -1)), 4)
        # Checked before the walk, even when a numerator would stop it first.
        with pytest.raises(ZeroDenominator):
            fn(((-1, 1), (-3, -1)), 5)


# --- binary splitting against the one-step walk ------------------------------


def _stepwise_sum(factors, last, first=1):
    """The one-step walk of ``_ratio_steps``: binary splitting must give this pair divided by
    one positive integer."""
    if last < 0:
        return Unreduced(0)
    top, acc, den = first, first, 1  # t_k = top / den, and the partial sum is acc / den
    for u, v in _ratio_steps(factors, last):
        top *= u
        acc = acc * v + top
        den *= v
    return Unreduced(acc, den)


def _assert_divides_the_stepwise_pair(got, expected, where=None):
    # The tree's pair is the one-step walk's divided by one positive integer g: the cancelled
    # gcds, to the power e.  The same value, and nothing else reduced.
    g = expected.den // got.den
    assert g > 0 and (expected.num, expected.den) == (g * got.num, g * got.den), where


def test_binary_splitting_gives_the_stepwise_pair_on_random_walks():
    # Lengths 0..70 put 15, 16, 17, 32, 33, 64 and 65 steps on either side of the 16-step leaf
    # and of each split of the spine.  Each factor list's |m| share a divisor d of 1..4, so
    # the tree walks the d-th root (or a root of higher order, when the |m| share more).
    assert series._LEAF == 16
    rng = random.Random(1409)
    full, cut, refused, roots = set(), set(), 0, set()
    for last in range(-1, 71):
        for _ in range(8):
            d = rng.choice([1, 1, 2, 3, 4])
            factors = tuple((F(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 7])),
                             d * rng.choice([-3, -2, -1, 1, 2, 3]))
                            for _ in range(rng.randint(1, 4)))
            first = rng.choice([1, rng.choice([5, 7, 11]) ** rng.randint(1, 4)])
            try:
                expected = _stepwise_sum(factors, last, first)
            except ZeroDenominator:
                with pytest.raises(ZeroDenominator):
                    _ratio_sum(factors, last, first)
                refused += 1
                continue
            got = _ratio_sum(factors, last, first)
            _assert_divides_the_stepwise_pair(got, expected, (factors, last, first))
            steps = len(list(_ratio_steps(factors, last)))
            if steps < last:  # a numerator factor vanished
                cut.add(steps)
            else:
                full.add(last)
                roots.add(gcd(*(m for _, m in factors)))
    assert full >= {-1, 0, 15, 16, 17, 32, 33, 64, 65, 70}, full
    assert max(cut) > 16 and refused and roots >= {1, 2, 3, 4, 6}, roots


@pytest.mark.parametrize("fn,args", [
    (theorem_sum, (4, 1, 797)),
    (theorem_sum, (4, 1, 797, True)),
    (theorem_sum, CHECKS["sun-e"].point(101)),
    (phi_value, (TheoremParams(4, 1, 797), 797, 0)),
], ids=["theorem1", "theorem2", "sun-e", "phi-p0"])
def test_binary_splitting_gives_the_stepwise_pair_on_the_deep_sums(monkeypatch, fn, args):
    got = fn(*args)
    calls = []  # the swap takes _ratio_sum's memo with it: the stepwise walk runs, got or not
    monkeypatch.setattr(series, "_ratio_sum", lambda *a: calls.append(a) or _stepwise_sum(*a))
    expected = fn(*args)
    assert len(calls) == 1
    _assert_divides_the_stepwise_pair(got, expected)


@pytest.mark.parametrize("leaf", [1, 2, 3])
@pytest.mark.parametrize("factors,last,first", [
    (series._theorem_factors(4, 1, 797, False), 796, 1),
    (series._theorem_factors(4, 1, 797, True), 796, 797**4),
    (series._theorem_factors(6, 2, 97, False), 95, 1),
    (((F(-7, 3), 1), (F(5, 2), -1), (1, 2), (F(1, 3), -2)), 70, 1),
], ids=["theorem1", "theorem2", "theorem1-q2", "mixed-exponents"])
def test_every_leaf_size_gives_the_same_value_dividing_the_stepwise_pair(clear_memos, factors,
                                                                        last, first, leaf):
    expected = _stepwise_sum(factors, last, first)
    default = _ratio_sum(factors, last, first)
    with patch.object(series, "_LEAF", leaf):
        clear_memos()
        got = _ratio_sum(factors, last, first)
    clear_memos()
    assert _fraction(got) == _fraction(default) == _fraction(expected)
    for pair in (got, default):
        _assert_divides_the_stepwise_pair(pair, expected)


# The cancelled pairs, by size: at (4, 1, 797) the one-step walk's theorem1 denominator has
# 32483 bits, the dual's 35338 and the offset walk's D = W F^2 60479.
TP797 = TheoremParams(4, 1, 797)


@pytest.mark.parametrize("dual,share", [(False, F(1, 3)), (True, F(1, 2))],
                         ids=["theorem1", "theorem2"])
def test_cancelling_narrows_the_theorem_sums_denominator(dual, share):
    got = theorem_sum(4, 1, 797, dual)
    expected = _stepwise_sum(*((series._theorem_factors(4, 1, 797, dual), 796, 797**4) if dual
                               else (series._theorem_factors(4, 1, 797, False), 796)))
    _assert_divides_the_stepwise_pair(got, expected)
    assert got.den.bit_length() <= share * expected.den.bit_length()


def test_cancelling_narrows_the_offset_walks_denominator():
    n, q, p = TP797.n, TP797.q, TP797.p
    e = p - n * (q - 1)
    w = prod(v for _, v in _ratio_steps(series._theorem_factors(n, q, p, False), p - q))
    f = prod((n * k - e) * k for k in range(1, p - q + 1))
    *_, den = series._offset_walk(TP797)
    assert (w * f * f) % den == 0
    assert 3 * den.bit_length() <= 2 * (w * f * f).bit_length()


def _harmonic_reference(m, count):
    return sum(F(1, k**m) for k in range(1, count + 1))


@pytest.mark.parametrize("n,q,p", [(3, q, p) for q in range(2, 7) for p in (5, 13, 31)]
                         + [(4, 6, 29), (4, 6, 97), (8, 3, 401)])
def test_the_lemma_heads_harmonic_numbers_are_the_fraction_ones(n, q, p):
    # The H_{q-1} head of lemma_sums reads each of its two trees' own denominator: the first
    # sum is H2_{q-1} S, S the sum of the weights w_k = (q)_k^n/(1)_k^n, and the fourth
    # sum w_k (H_k - H_{q+k-1}).
    tp = TheoremParams(n, q, p, exploratory=True)
    weights = [F(prod(range(q, q + k)), factorial(k)) ** n for k in range(p - q + 1)]
    h, h2 = (_harmonic_reference(m, q - 1) for m in (1, 2))
    sums = series.lemma_sums(tp)
    assert _fraction(sums[0]) == h2 * sum(weights)
    assert _fraction(sums[1]) == sum(w * (h2 + sum(F(1, (q + i) ** 2) for i in range(k)))
                                     for k, w in enumerate(weights))
    assert _fraction(sums[3]) == sum(w * (_harmonic_reference(1, k) - h
                                          - sum(F(1, q + i) for i in range(k)))
                                     for k, w in enumerate(weights))


@pytest.mark.parametrize("n,q,p", [(3, 7, 5), (4, 30, 29), (5, 100, 7)])
def test_the_lemma_head_is_not_formed_above_p(monkeypatch, n, q, p):
    # At q > p there are no weights: every lemma sum of the weights is 0, and no tree runs.
    def never(*args):
        raise AssertionError("a head tree ran")

    monkeypatch.setattr(series, "_split", never)
    sums = series.lemma_sums(TheoremParams(n, q, p, exploratory=True))
    assert all(not value for value in sums[:5])


# --- the unreduced sums verify reads, against the reducing oracles ------------

# The exploratory grid n 3..8, q 1..4, p <= 31.
PAIR_GRID = [TheoremParams(n, q, p, exploratory=True)
             for n in range(3, 9) for q in range(1, 5) for p in primes_upto(31)]

PAIR_EVALUATORS = {  # each public scalar evaluator verify reads: its parameters
    phi_value: ("tp", "x", "y"), delta_value: ("tp", "x"), dual_reduction_sum: ("tp",),
    theorem_sum: ("n", "q", "p", "dual"),
}


def _pair_sums(tp):
    # (evaluator, arguments) at the points verify evaluates them for tp: the guo, sun-e,
    # sun-bernoulli and dflst sums are theorem sums at the points of verify.CHECKS.
    n, q, p = tp.n, tp.q, tp.p
    return [(phi_value, (tp, F(p, n), F(p, n))), (phi_value, (tp, p, 0)), (delta_value, (tp, -p)),
            (theorem_sum, (n, q, p, False)), (theorem_sum, (n, q, p, True)),
            (dual_reduction_sum, (tp,)),
            *((theorem_sum, (*CHECKS[check].point(*args), dual)) for check, args, dual in [
                ("guo", (n, p), False), ("sun-e", (p,), False), ("sun-bernoulli", (p, n), False),
                ("dflst", (n, p), False), ("dflst", (n, p), True)])]


def _evaluate(fn, args):
    # The unreduced pair, or None where the evaluator refuses the point.
    try:
        return fn(*args)
    except ZeroDenominator:
        return None


def test_public_evaluators_keep_their_signatures():
    assert {fn for fn, _ in _pair_sums(PAIR_GRID[0])} == set(PAIR_EVALUATORS)
    for fn, params in PAIR_EVALUATORS.items():
        signature = inspect.signature(fn)
        assert tuple(signature.parameters) == params, fn.__name__
        assert signature.return_annotation in (Unreduced, "Unreduced"), fn.__name__
        assert fn.__module__ == "hypercong.series" and not fn.__name__.startswith("_")


def test_unreduced_sums_give_the_oracle_valuation_and_residues():
    kinds = {"p in den": 0, "negative": 0, "zero": 0}
    for tp in PAIR_GRID:
        p = tp.p
        for fn, args in _pair_sums(tp):
            pair = _evaluate(fn, args)
            if pair is None:
                continue
            assert type(pair) is Unreduced
            reduced = _fraction(pair)
            where = (fn.__name__, tp.as_params())
            achieved = pair.ord(p)
            assert achieved == ord_rational(reduced, p), where
            kinds["p in den"] += pair.den % p == 0 and achieved >= 0
            kinds["negative"] += achieved < 0
            kinds["zero"] += not reduced
            if achieved < 0:
                continue
            for k in range(1, 6):
                m = PrimePowerModulus(p, k)
                assert pair.residue(m) == reduce_mod(reduced, m), (where, k)
    # The grid reaches every case the residue must handle.
    assert all(kinds.values()), kinds


# --- the walk cap: a sum refused before it allocates --------------------------

BIG_P = TheoremParams(4, 1, 10**9 + 7)


@pytest.mark.parametrize("call, steps, exponent", [
    (lambda: theorem_sum(4, 1, 10**9), "999999999", "4"),
    (lambda: theorem_sum(10**5000, 1, 7), "6", "at least 10^5000"),
    (lambda: karlsson_minton_sum(-10**9, []), "1000000000", "1"),
    (lambda: series.reflection_differences(BIG_P), "1000000006", "1"),
    (lambda: taylor_values(BIG_P), "1000000006", "4"),
    (lambda: series.lemma_sums(BIG_P), "1000000006", "4"),
    (lambda: upsilon_coefficients(BIG_P), "1000000006", "4"),
    (lambda: series._offset_walk(BIG_P), "1000000006", "4"),
    # The trees walk the 4th root, whose 400008 steps the cap would admit: it reads the full
    # exponent.
    (lambda: theorem_sum(4, 1, 400009), "400008", "4"),
    (lambda: series._offset_walk(TheoremParams(4, 1, 400009)), "400008", "4"),
    # A walk of 8 steps whose H_{q-1} head would take p - 10: its two trees, of 1/(1+k) and
    # 1/(1+k)^2, share one root walk, refused at the full exponent 2.
    (lambda: series.lemma_sums(TheoremParams(4, 999999929, 999999937, exploratory=True)),
     "999999927", "2"),
], ids=["theorem_sum", "huge-n", "karlsson_minton_sum", "reflection_differences",
        "taylor_values", "lemma_sums", "upsilon_coefficients", "_offset_walk", "theorem_sum-root",
        "_offset_walk-root", "lemma_sums-head"])
def test_a_walk_past_the_walk_cap_is_refused_before_it_allocates(monkeypatch, call, steps,
                                                                 exponent):
    # theorem_sum(4, 1, 10^9) was killed for memory: _ratio_steps built its step list first.
    def never(*args):
        raise AssertionError("a walk was summed past the cap")

    for name in ("_split", "_harmonic_split"):
        monkeypatch.setattr(series, name, never)
    message = (f"a walk of {steps} steps at exponent {exponent} exceeds the cap "
               f"{series.WALK_CAP} on steps times exponent")
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
        call()
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("cap", [2.0, "2", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize("jet", [phi_jet, delta_jet, upsilon_jet])
def test_the_jet_sums_refuse_a_degree_cap_that_is_not_an_int_before_the_walk(monkeypatch, jet,
                                                                              cap):
    # 2.0 failed in list arithmetic and True was read as 1.  The walk's first step is the lcm
    # of each axis' bases.
    def never(*args):
        raise AssertionError("the walk began")

    monkeypatch.setattr(jet_fold, "lcm", never)
    with pytest.raises(TypeError, match=f"^degree cap must be int, got {type(cap).__name__}$"):
        jet(TheoremParams(4, 1, 797), cap)


# --- the memo: each grid tuple's shared sums built once -----------------------


def test_every_series_memo_is_bounded_typed_and_listed(memos):
    # A fixed maxsize, set by no option; typed, so a float argument is another key.
    # Only the memos series defines: the memoized padic.is_prime it imports is padic's.
    kept = [v for v in vars(series).values()
            if hasattr(v, "cache_info") and v.__module__ == series.__name__]
    assert sorted(m.__name__ for m in kept) == sorted(m.__name__ for m in memos)
    for memo in memos:
        params = memo.cache_parameters()
        assert params["maxsize"] == series._MEMO and params["typed"], memo.__name__
    assert type(series._MEMO) is int


def _sweep_builds(functions, spec):
    # A profiler hook counts each run of a function's own body, a memo's included, keyed by its
    # name and its arguments, defaults included: a call the memo serves never reaches the body.
    bodies = {getattr(f, "__wrapped__", f).__code__: f.__name__ for f in functions}
    builds = Counter()

    def spy(frame, event, arg):
        code = frame.f_code
        if event == "call" and code in bodies:
            args = frame.f_locals
            builds[bodies[code], tuple(args[v] for v in code.co_varnames[:code.co_argcount])] += 1

    sys.setprofile(spy)
    try:
        result = run_sweep(spec)
    finally:
        sys.setprofile(None)
    return result, builds


def _integer_weight_keys(tp):
    # The shifted sums, the lemmas' H_k pass (the shifted sums' own key at q = 1) and Upsilon.
    n, q, p = tp.n, tp.q, tp.p
    return {(n, q, p - q, q, 0, None), (n, q, p - q, 1, 0, None), (n, q, p - 1, q, 1, p - 1)}


def _assert_integer_weight_passes(builds, tuples):
    # Exactly three passes a tuple, two at q = 1, each with its own key.
    passes = Counter({key: v for (memo, key), v in builds.items() if memo == "_binomial_sums"})
    assert set(passes) == set().union(*map(_integer_weight_keys, tuples))
    assert passes.total() == sum(3 - (tp.q == 1) for tp in tuples)


def test_a_sequential_sweep_builds_each_shared_sum_once(memos, clear_memos):
    # theorem1 and identities read the theorem1 sum, taylor and identities phi at (p, 0)
    # and, at q = 1, taylor's psi at p/n is the theorem1 sum; lemmas and taylor share the
    # offset walk, lemmas, taylor and identities the shifted sums.
    triple_checks = ("theorem1", "theorem2", "lemmas", "taylor", "identities")
    spec = SweepSpec(check_ids=triple_checks, n_range=(3, 6), q_range=(1, 3), p_max=31)
    result, builds = _sweep_builds(memos, spec)
    tuples = {TheoremParams(**r.params) for r in result.reports}
    assert {key for (memo, key) in builds if memo == "_offset_walk"} == {(tp,) for tp in tuples}
    _assert_integer_weight_passes(builds, tuples)
    # Six scalar sums a tuple; at q = 1 psi is the theorem1 sum, and no dual sum is read.
    assert sum(memo == "_ratio_sum" for memo, _ in builds) == sum(
        6 - 2 * (tp.q == 1) for tp in tuples)
    assert set(builds.values()) == {1}, [k for k, v in builds.items() if v > 1]


def test_a_sweep_of_all_nine_checks_builds_each_sum_once(memos, clear_memos):
    # guo, sun-e and sun-bernoulli read the theorem1 sum at their point in verify.CHECKS, and
    # run next to the tuple there; lemmas takes its H_{q+k-1} pass from the shifted sums.  The
    # integer-weight loop then runs three times a tuple: shifted sums, the lemmas' H_k, Upsilon;
    # at q = 1 the H_k pass is the shifted sums.
    spec = SweepSpec(check_ids=CHECK_NAMES, n_range=(3, 8), q_range=(1, 4), d_range=(4, 8),
                     p_max=31)
    result, builds = _sweep_builds(memos, spec)
    assert {r.check_id.partition("/")[0] for r in result.reports} == set(CHECK_NAMES)
    tuples = {TheoremParams(**r.params) for r in result.reports if r.check_id == "theorem1"}
    assert all(tp.in_hypothesis for tp in tuples)
    _assert_integer_weight_passes(builds, tuples)
    assert {memo for memo, _ in builds} == {m.__name__ for m in memos}
    assert set(builds.values()) == {1}, [k for k, v in builds.items() if v > 1]


def test_a_full_grid_sweep_proves_each_prime_once_and_reads_each_tuples_hypotheses_once():
    # PrimePowerModulus, TheoremParams and the check domains ask is_prime 3657 times, and the
    # reports read in_hypothesis 9222 times: each body runs once per distinct argument.
    is_prime.cache_clear()
    spec = SweepSpec(check_ids=CHECK_NAMES, n_range=(3, 8), q_range=(1, 4), d_range=(4, 8),
                     p_max=97)
    result, builds = _sweep_builds([is_prime, TheoremParams.hypothesis_violations], spec)
    assert len(result.reports) == 6504
    proven = {n: v for (name, (n,)), v in builds.items() if name == "is_prime"}
    assert sorted(proven) == primes_upto(97) and set(proven.values()) == {1}
    read = {tp: v for (name, (tp,)), v in builds.items() if name == "hypothesis_violations"}
    assert sorted((tp.n, tp.q, tp.p) for tp in read) == [
        (n, q, p) for n in range(3, 9) for q in range(1, 5) for p in primes_upto(97)]
    assert set(read.values()) == {1}


@pytest.mark.parametrize("q,passes", [(1, 1), (2, 2)])
def test_a_lone_lemma_sums_runs_the_integer_weight_loop_once_at_q_1(clear_memos, q, passes):
    # At q = 1 the lemmas' H_k pass and the shifted sums are one walk over lcm(1..p-1).
    series.lemma_sums(TheoremParams(4, q, 23))
    assert series._binomial_sums.cache_info().misses == passes


@pytest.mark.parametrize("check,args,dual,factors,first", [
    ("guo", (4, 23), False, ((F(1, 4), 4), (1, -4)), ()),
    ("dflst", (3, 7), False, ((F(2, 3), 3), (1, -3)), ()),
    ("dflst", (3, 7), True, ((1, 3), (F(4, 3), -3)), (7**3,)),
], ids=["guo", "dflst-sum", "dflst-dual"])
def test_a_warm_memo_refuses_what_a_cold_one_refuses(clear_memos, check, args, dual, factors,
                                                      first):
    # 22.0 == 22 and both hash alike: an untyped memo returned the integer twin's sum.  Each
    # check's own factor list is the key theorem_sum builds at its point.
    last = args[-1] - 1
    with pytest.raises(TypeError) as cold:
        _ratio_sum(factors, float(last), *first)
    assert _at(check, *args, dual=dual) is _ratio_sum(factors, last, *first)
    with pytest.raises(TypeError) as warm:
        _ratio_sum(factors, float(last), *first)
    assert str(warm.value) == str(cold.value)


def test_the_memos_stay_within_their_bounds_over_the_full_grid(memos, clear_memos):
    run_sweep(SweepSpec(check_ids=CHECK_NAMES, n_range=(3, 8), q_range=(1, 4),
                        d_range=(4, 8), p_max=97))
    for memo in memos:
        info = memo.cache_info()
        assert 0 < info.currsize <= info.maxsize, (memo.__name__, info)
    # Three integer-weight passes a tuple, two at q = 1, and none rebuilt.
    assert series._binomial_sums.cache_info().misses == 966


def test_report_bytes_do_not_depend_on_the_memos(monkeypatch, memos):
    # Each memo rebuilt to keep nothing, so every sum is built at each call: the exploratory
    # p <= 31 grid gives the bytes test_cli pins for it.
    bare = {memo.__name__: lru_cache(maxsize=0)(memo.__wrapped__) for memo in memos}
    for name, memo in bare.items():
        monkeypatch.setattr(series, name, memo)
    result = run_sweep(SweepSpec(check_ids=CHECK_NAMES, n_range=(3, 8), q_range=(1, 4),
                                 d_range=(4, 8), p_max=31, exploratory=True))
    assert all(m.cache_info().misses and not m.cache_info().hits for m in bare.values())
    digest = {fmt: hashlib.sha256(render(result).encode()).hexdigest()
              for fmt, render in (("json", render_json), ("csv", render_csv))}
    assert digest == {
        "json": "556523238c56de4eefed723536ec891d9bdfc3da23d8bf4ad6e2a171638fe78c",
        "csv": "f3ceceab048ee25a0cc1903a6ab48133d11643b9b66a0f9382c71ad9c5e89836",
    }
