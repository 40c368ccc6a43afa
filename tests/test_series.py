import random
from fractions import Fraction
from math import factorial

import pytest

from hypercong.errors import (
    NotTerminating,
    PreconditionViolated,
    ZeroDenominator,
    ZeroLowerFactor,
)
from hypercong.cli import primes_upto
from hypercong.exact_core import ShiftedSumSpec, harmonic, pochhammer, shifted_power_sum
from hypercong.jets import MAX_DEGREE_CAP, Jet2, pochhammer_jet
from hypercong.padic import PrimePowerModulus, ord_rational, reduce_mod
from hypercong.series import (
    HyperSeriesSpec,
    TheoremParams,
    delta_jet,
    delta_value,
    dflst_dual,
    dflst_sum,
    dual_reduction_sum,
    guo_sum,
    karlsson_minton_sum,
    lhs_theorem1,
    lhs_theorem2,
    phi_jet,
    phi_value,
    psi_jet,
    psi_value,
    sun_bernoulli_lhs,
    sun_e_sum,
    theorem2_prefactor,
    truncated_pfq,
    upsilon_jet,
    _REDUCE_EVERY,
    _product_jet,
    _ratio_steps,
    _ratio_sum,
)

F = Fraction


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


def test_theorem_params_exploratory_mode():
    tp = TheoremParams(3, 2, 11, exploratory=True)
    assert not tp.in_hypothesis
    assert any("parity" in reason for reason in tp.hypothesis_violations())
    # equality ignores the exploratory flag
    assert tp == TheoremParams(3, 2, 11, exploratory=True)


# --- concrete sums ------------------------------------------------------------


def test_psi_value_all_ones():
    assert psi_value(TheoremParams(3, 1, 5), 0) == 5


def test_psi_value_cubes():
    # sum_{k=0}^{5} ((2)_k/(1)_k)^3 = sum (k+1)^3
    assert psi_value(TheoremParams(3, 2, 7, exploratory=True), 0) == 441


def test_psi_value_at_displacement_is_congruent_to_zero():
    tp = TheoremParams(4, 1, 7)
    value = psi_value(tp, F(7, 4))
    assert reduce_mod(value, PrimePowerModulus(7, 3)).value == 0


@pytest.mark.parametrize("n,q,p", [(4, 1, 7), (4, 2, 11), (3, 1, 5)])
def test_lhs_theorem1_valuations(n, q, p):
    assert ord_rational(lhs_theorem1(TheoremParams(n, q, p)), p) >= 3


@pytest.mark.parametrize("n,q,p", [(4, 1, 7), (4, 2, 11), (3, 3, 11)])
def test_lhs_theorem2_valuations(n, q, p):
    assert ord_rational(lhs_theorem2(TheoremParams(n, q, p)), p) >= 3


@pytest.mark.parametrize("n,q,p", [(4, 2, 11), (3, 1, 5)])
def test_lhs_theorem1_is_a_pfq_specialization(n, q, p):
    tp = TheoremParams(n, q, p)
    spec = HyperSeriesSpec(
        (F(q) - F(p, n),) * n, (F(1),) * (n - 1), F(1), p - 1
    )
    assert lhs_theorem1(tp) == truncated_pfq(spec)


def test_named_sums_are_pfq_specializations():
    # dual route: the incremental evaluators against per-term products
    d, p = 4, 7
    spec = HyperSeriesSpec((F(1, d),) * d, (F(1),) * (d - 1), F(1), p - 1)
    assert guo_sum(d, p) == truncated_pfq(spec)
    p = 5
    spec = HyperSeriesSpec((F(1, p + 1),) * (p + 1), (F(1),) * p, F(1), p - 1)
    assert sun_e_sum(p) == truncated_pfq(spec)
    n, p = 3, 7
    spec = HyperSeriesSpec((1 - F(1, n),) * n, (F(1),) * (n - 1), F(1), p - 1)
    assert dflst_sum(n, p) == truncated_pfq(spec)
    # one extra upper 1 absorbs the k! of the pfq normalization
    spec = HyperSeriesSpec((F(1),) * (n + 1), (1 + F(1, n),) * n, F(1), p - 1)
    assert dflst_dual(n, p) == F(p) ** n * truncated_pfq(spec)


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
    assert phi_jet(tp, 0).coefficient(0, 0) == psi_value(tp, 0) == 5


def test_psi_derivatives_reduce_to_phi_partials():
    tp = TheoremParams(4, 2, 11)
    psi = psi_jet(tp, 2)
    phi = phi_jet(tp, 2)
    n = tp.n
    assert psi.partial(1, 0) == n * phi.partial(1, 0)
    assert psi.partial(2, 0) == n * (phi.partial(1, 1) + phi.partial(2, 0))


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


def test_theorem2_prefactor_valuation_and_factorization():
    unit_tp = TheoremParams(4, 2, 11)
    assert ord_rational(theorem2_prefactor(unit_tp), 11) == 0
    q1_tp = TheoremParams(4, 1, 7)
    assert ord_rational(theorem2_prefactor(q1_tp), 7) == q1_tp.n
    for tp in (unit_tp, q1_tp):
        assert lhs_theorem2(tp) == theorem2_prefactor(tp) * dual_reduction_sum(tp)


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
    # guo_sum(d, p) is the theorem1 left side at n = d, q = (p+1)/d.
    count = 0
    for d in (4, 6, 8):
        for p in primes_upto(97):
            if (p + 1) % d == 0:
                tp = TheoremParams(d, (p + 1) // d, p, exploratory=True)
                assert guo_sum(d, p) == lhs_theorem1(tp)
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
    (psi_jet, _oracle_psi),
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


@pytest.mark.parametrize("n,q,p", ORACLE_TUPLES)
def test_psi_jet_is_the_diagonal_of_phi_jet(n, q, p):
    # psi(x) = phi(x, x): verify_taylor reads both Taylor values from phi's jet.
    tp = TheoremParams(n, q, p, exploratory=True)
    for cap in range(MAX_DEGREE_CAP + 1):
        phi, psi = phi_jet(tp, cap), psi_jet(tp, cap)
        for d in range(cap + 1):
            assert psi.coefficient(d) == sum(phi.coefficient(i, d - i) for i in range(d + 1))


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
        (lambda: psi_value(tp, x), [q - x] * n, [F(1)] * n, p - q),
        (lambda: psi_value(tp, F(p, n)), [c] * n, [F(1)] * n, p - q),
        (lambda: phi_value(tp, x, y), [q - x] + [q - y] * (n - 1), [F(1)] * n, p - q),
        (lambda: phi_value(tp, p, 0), [q - F(p)] + [F(q)] * (n - 1), [F(1)] * n, p - q),
        (lambda: delta_value(tp, x), [c + x] * n, [1 + x] * n, p - q),
        (lambda: lhs_theorem1(tp), [c] * n, [F(1)] * n, p - 1),
        (lambda: lhs_theorem2(tp) / F(p) ** n, [F(1)] * n, [b] * n, p - 1),
        (lambda: dual_reduction_sum(tp), [c - p] * n, [F(1 - p)] * n, p - 1),
        (lambda: sun_bernoulli_lhs(p, n), [1 - F(p, n)] * n, [F(1)] * n, p - 1),
        (lambda: guo_sum(2 * n, p), [F(1, 2 * n)] * (2 * n), [F(1)] * (2 * n), p - 1),
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
    assert psi_value(tp, 3) == 2 + (-2) ** 3 == _oracle_sum([F(-2)] * 3, [F(1)] * 3, 10)
    # sum_k (-3)_k / k! = (1 - 1)^3: the walk ends after k = 3.
    assert _ratio_sum([(-3, 1), (1, -1)], 10) == 0


def test_kernel_rejects_a_vanishing_denominator():
    # Bases -3 + k for k < last: zero is reached only when last > 3.
    assert _ratio_sum([(1, 1), (-3, -1)], 3) == 1 - F(1, 3) + F(1, 3) - 1
    for fn in (_ratio_sum, lambda *args: list(_ratio_steps(*args))):
        with pytest.raises(ZeroDenominator):
            fn([(1, 1), (-3, -1)], 4)
        # Checked before the walk, even when a numerator would stop it first.
        with pytest.raises(ZeroDenominator):
            fn([(-1, 1), (-3, -1)], 5)
