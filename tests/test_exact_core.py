import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercong.errors import ZeroDenominator
from hypercong.exact_core import (
    ShiftedSumSpec,
    binomial_general,
    harmonic,
    pochhammer,
    shifted_power_sum,
)
from hypercong.series import HyperSeriesSpec, truncated_pfq
from references import harmonic_prefix

F = Fraction

small_rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def test_pochhammer_empty_product():
    assert pochhammer(F(-3, 7), 0) == 1


def test_pochhammer_half():
    # 1/2 * 3/2 * 5/2
    assert pochhammer(F(1, 2), 3) == F(15, 8)


def test_pochhammer_crosses_zero():
    assert pochhammer(-2, 5) == 0


def test_pochhammer_matches_direct_product():
    for x in (F(3, 4), F(-7, 2), F(5)):
        for k in range(8):
            direct = F(1)
            for i in range(k):
                direct *= x + i
            assert pochhammer(x, k) == direct


def test_pochhammer_rejects_negative_index():
    with pytest.raises(ValueError):
        pochhammer(F(1), -1)


@given(small_rationals, st.integers(0, 30), st.integers(0, 30))
def test_pochhammer_functional_equation(x, j, k):
    assert pochhammer(x, j + k) == pochhammer(x, j) * pochhammer(x + j, k)


def test_harmonic_empty():
    assert harmonic(0, 2) == 0


def test_harmonic_wolstenholme_instance():
    value = harmonic(6, 1)
    assert value == F(49, 20)
    # 49 = 7^2: a Wolstenholme instance at p = 7
    assert value.numerator % 49 == 0


def test_harmonic_second_order():
    assert harmonic(4, 2) == F(205, 144)


def test_harmonic_default_order_is_one():
    assert harmonic(3) == F(11, 6)


def test_harmonic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        harmonic(-1, 1)
    with pytest.raises(ValueError):
        harmonic(3, 0)


def test_harmonic_agrees_with_shifted_power_sum():
    # harmonic is shifted_power_sum at base 1: both are held to one running Fraction sum.
    for m in (1, 2, 3):
        prefix = harmonic_prefix(100, m)
        for k in range(101):
            spec = ShiftedSumSpec(F(1), m, k)
            assert harmonic(k, m) == shifted_power_sum(spec) == prefix[k]


def test_shifted_power_sum_empty():
    assert shifted_power_sum(ShiftedSumSpec(F(2), 2, 0)) == 0


def test_shifted_power_sum_direct():
    assert shifted_power_sum(ShiftedSumSpec(F(2), 1, 3)) == F(13, 12)


def test_shifted_power_sum_zero_denominator():
    with pytest.raises(ZeroDenominator):
        shifted_power_sum(ShiftedSumSpec(F(-2), 1, 5))


def test_shifted_power_sum_states_a_length_too_long_to_print():
    # A length above str()'s 4300 digits raised ValueError from inside the message.
    with pytest.raises(ZeroDenominator) as refusal:
        shifted_power_sum(ShiftedSumSpec(F(0), 1, 10**5000))
    assert str(refusal.value) == "base 0 + 0 = 0 inside shifted sum of length at least 10^5000"


def test_shifted_sum_spec_validation():
    with pytest.raises(ValueError):
        ShiftedSumSpec(F(1), 0, 3)
    with pytest.raises(ValueError):
        ShiftedSumSpec(F(1), 1, -1)


@pytest.mark.parametrize("order, length, message", [
    (1.5, 3, "order"), (True, 3, "order"), (1, 3.0, "length"), (1, True, "length"),
], ids=["order-float", "order-bool", "length-float", "length-bool"])
def test_shifted_sum_spec_refuses_an_order_or_length_that_is_not_an_int(order, length, message):
    # S_m(base, k) is an exact rational only at an integer order and length: 1.5 sums floats.
    with pytest.raises(ValueError, match=f"^{message} must be"):
        ShiftedSumSpec(1, order, length)


def test_binomial_general_values():
    assert binomial_general(-2, 3) == -4
    assert binomial_general(5, 0) == 1
    assert binomial_general(-1, 4) == 1
    assert binomial_general(F(1, 2), 2) == F(-1, 8)
    with pytest.raises(ValueError, match="nonnegative"):
        binomial_general(5, -1)


@given(st.integers(1, 40), st.integers(0, 40))
def test_reflection_bridge(q, k):
    # (q)_k / (1)_k == (-1)^k * C(-q, k)
    lhs = pochhammer(F(q), k) / pochhammer(F(1), k)
    assert lhs == (-1) ** k * binomial_general(F(-q), k)


@settings(max_examples=60)
@given(small_rationals, st.integers(0, 25))
def test_results_are_normalized(x, k):
    # Fraction keeps lowest terms with a positive denominator; audit anyway.
    for value in (pochhammer(x, k), binomial_general(x, k)):
        assert value.denominator > 0
        assert math.gcd(value.numerator, value.denominator) == 1


@pytest.mark.parametrize("inexact", [0.1, Decimal("0.1"), "1/10"], ids=["float", "decimal", "str"])
def test_inexact_values_are_refused(inexact):
    # 0.1 would be read as its binary fraction and "1/10" parsed as text; each is refused.
    for call in (lambda: pochhammer(inexact, 2), lambda: pochhammer(inexact, 0),
                 lambda: binomial_general(inexact, 2), lambda: ShiftedSumSpec(inexact, 1, 2)):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("call", [
    lambda: pochhammer(3, True),  # was 3
    lambda: pochhammer(3, 2.0),
    lambda: binomial_general(5, True),  # was 5
    lambda: binomial_general(5, 2.0),
    lambda: harmonic(True),  # was 1
    lambda: harmonic(3, 2.0),
    lambda: truncated_pfq(HyperSeriesSpec((1,), (), 1, True)),  # was 2
    lambda: HyperSeriesSpec((1,), (-1,), 1, 2.5),  # was ZeroLowerFactor "within 2.5 terms"
    lambda: HyperSeriesSpec((1,), (), 1, 2.0),  # was a TypeError inside range
], ids=["pochhammer-bool", "pochhammer-float", "binomial-bool", "binomial-float", "harmonic-bool",
        "harmonic-order-float", "terms-bool", "terms-half", "terms-float"])
def test_an_index_order_or_length_that_is_not_an_int_is_refused_on_entry(call):
    with pytest.raises(TypeError, match=r"must be int, got (int, )?(bool|float)(, int)?$"):
        call()


def test_ints_and_fractions_are_read_exactly():
    assert pochhammer(3, 2) == pochhammer(F(3), 2) == 12
    assert pochhammer(F(1, 10), 2) == F(11, 100)
    assert binomial_general(5, 2) == binomial_general(F(5), 2) == 10
    assert binomial_general(F(1, 10), 2) == F(-9, 200)
    spec = ShiftedSumSpec(2, 1, 2)
    assert type(spec.base) is Fraction and shifted_power_sum(spec) == F(5, 6)
    assert shifted_power_sum(ShiftedSumSpec(F(1, 10), 1, 1)) == 10
