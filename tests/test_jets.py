from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercong.errors import CapExceeded, CapMismatch, DivByNonUnit
from hypercong.exact_core import ShiftedSumSpec, pochhammer, shifted_power_sum
from hypercong.jets import Jet2, pochhammer_jet

F = Fraction


def one_plus(var, cap):
    return Jet2.constant(1, cap) + Jet2.variable(var, cap)


def test_polynomial_square():
    j = one_plus("x", 2)
    assert (j * j).coefficients == {(0, 0): 1, (1, 0): 2, (2, 0): 1}


def test_geometric_series_truncation():
    one = Jet2.constant(1, 2)
    denom = one - Jet2.variable("x", 2)
    assert (one / denom).coefficients == {(0, 0): 1, (1, 0): 1, (2, 0): 1}


def test_distributivity_example():
    cap = 2
    lhs = one_plus("x", cap) * one_plus("y", cap)
    rhs = Jet2({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}, cap)
    assert (lhs - rhs).is_zero


def test_constructor_validates_cap_and_exponents():
    with pytest.raises(ValueError):
        Jet2({}, 5)
    with pytest.raises(ValueError):
        Jet2({(-1, 0): F(1)}, 2)
    with pytest.raises(CapExceeded):
        Jet2({(2, 1): F(1)}, 2)
    with pytest.raises(ValueError, match="sign must be"):
        Jet2.linear(1, "x", 2)


def test_cap_mismatch_raises():
    with pytest.raises(CapMismatch):
        Jet2.constant(1, 2) + Jet2.constant(1, 3)
    with pytest.raises(CapMismatch):
        Jet2.constant(1, 2) * Jet2.constant(1, 3)


def test_division_requires_unit():
    with pytest.raises(DivByNonUnit):
        Jet2.constant(1, 2) / Jet2.variable("x", 2)


def test_scalar_arithmetic():
    j = one_plus("x", 2)
    assert (2 * j).coefficient(0, 0) == 2
    assert (j / 2).coefficient(1, 0) == F(1, 2)
    assert (j + 1).coefficient(0, 0) == 2
    assert (1 - j).coefficient(1, 0) == -1
    with pytest.raises(ZeroDivisionError):
        j / 0


def test_evaluate():
    j = one_plus("x", 2) * one_plus("y", 2)
    assert j.evaluate(F(1, 2), F(1, 3)) == F(2)


def test_pochhammer_jet_rising_pair():
    j = pochhammer_jet(1, 1, "x", 2, 2)
    # (1+x)(2+x) = 2 + 3x + x^2
    assert j.coefficients == {(0, 0): 2, (1, 0): 3, (2, 0): 1}
    assert j.coefficient(1, 0) == pochhammer(1, 2) * (F(1, 1) + F(1, 2))


def test_pochhammer_jet_empty():
    assert pochhammer_jet(F(5, 3), 1, "x", 0, 3) == Jet2.constant(1, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        pochhammer_jet(F(5, 3), 1, "x", -1, 3)


def test_repr_lists_the_terms_by_exponent_pair():
    assert repr(Jet2.zero(2)) == "Jet2(0; cap=2)"
    jet = Jet2({(0, 0): 2, (0, 1): F(-1, 3), (1, 1): 1, (3, 0): 5}, 4)
    assert repr(jet) == "Jet2(2 + -1/3*y + 1*xy + 5*x^3; cap=4)"


def test_pochhammer_jet_falling_truncated():
    j = pochhammer_jet(2, -1, "x", 2, 1)
    # (2-x)(3-x) truncated at degree 1 = 6 - 5x
    assert j.coefficients == {(0, 0): 6, (1, 0): -5}
    assert j.coefficient(1, 0) == -pochhammer(2, 2) * (F(1, 2) + F(1, 3))


def test_partial_coefficient_examples():
    j = pochhammer_jet(1, 1, "x", 2, 2)
    assert j.partial(1, 0) == 3
    assert Jet2.constant(1, 2).partial(1, 0) == 0
    xy = Jet2.variable("x", 2) * Jet2.variable("y", 2)
    assert xy.partial(1, 1) == 1
    with pytest.raises(CapExceeded):
        j.partial(2, 1)


@pytest.mark.parametrize("base", [F(1, 2), F(2), F(5, 3)])
@pytest.mark.parametrize("k", range(9))
def test_derivatives_match_closed_forms(base, k):
    s1 = shifted_power_sum(ShiftedSumSpec(base, 1, k))
    s2 = shifted_power_sum(ShiftedSumSpec(base, 2, k))
    value = pochhammer(base, k)
    for sign in (1, -1):
        jet = pochhammer_jet(base, sign, "x", k, 2)
        assert jet.coefficient(0, 0) == value
        assert jet.partial(1, 0) == sign * value * s1
        assert jet.partial(2, 0) == value * (s1 * s1 - s2)


def _untruncated_product(base, sign, k):
    # dict-based polynomial multiplication with no degree cap
    poly = {0: F(1)}
    for i in range(k):
        nxt = {}
        for e, c in poly.items():
            nxt[e] = nxt.get(e, F(0)) + c * (base + i)
            nxt[e + 1] = nxt.get(e + 1, F(0)) + c * sign
        poly = nxt
    return poly


@pytest.mark.parametrize("k", range(7))
def test_truncation_agrees_with_full_expansion(k):
    base = F(5, 3)
    for sign in (1, -1):
        for cap in range(5):
            full = _untruncated_product(base, sign, k)
            jet = pochhammer_jet(base, sign, "x", k, cap)
            expected = {(e, 0): c for e, c in full.items() if e <= cap and c}
            assert jet.coefficients == expected


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def jets(draw, cap=None, unit=False):
    if cap is None:
        cap = draw(st.integers(min_value=0, max_value=4))
    pairs = [(i, j) for i in range(cap + 1) for j in range(cap + 1 - i)]
    mapping = {}
    for pair in pairs:
        if draw(st.booleans()):
            mapping[pair] = draw(coeffs)
    if unit:
        mapping[(0, 0)] = draw(coeffs.filter(bool))
    return Jet2(mapping, cap)


@st.composite
def jet_triples(draw):
    cap = draw(st.integers(min_value=0, max_value=4))
    return (draw(jets(cap=cap)), draw(jets(cap=cap)), draw(jets(cap=cap)))


@settings(max_examples=120)
@given(jet_triples())
def test_ring_laws(triple):
    a, b, c = triple
    assert a * b == b * a
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80)
@given(jets(unit=True))
def test_division_inverse_law(j):
    one = Jet2.constant(1, j.degree_cap)
    assert j * (one / j) == one
    assert (j / j) == one


@pytest.mark.parametrize("inexact", [0.1, Decimal("0.1"), "1/3"], ids=["float", "decimal", "str"])
@pytest.mark.parametrize("entry", [
    lambda v: Jet2({(0, 0): v}, 2),
    lambda v: Jet2.constant(v, 2),
    lambda v: Jet2.linear(v, "x", 1, 2),
    lambda v: Jet2.variable("x", 2).evaluate(v),
    lambda v: Jet2.variable("y", 2).evaluate(0, v),
    lambda v: pochhammer_jet(v, 1, "x", 2, 2),
], ids=["init", "constant", "linear", "evaluate-x", "evaluate-y", "pochhammer_jet"])
def test_jet_entry_points_refuse_inexact_scalars(entry, inexact):
    # 0.1 would be read as its binary fraction and "1/3" parsed as text; each is refused.
    with pytest.raises(TypeError):
        entry(inexact)


def test_jet_entry_points_read_ints_and_fractions_exactly():
    third = F(1, 3)
    assert Jet2({(0, 0): third}, 2).coefficient(0, 0) is third  # a Fraction is kept as it is
    assert Jet2.constant(2, 2).coefficients == {(0, 0): F(2)}
    assert Jet2.linear(third, "x", -1, 2).coefficients == {(0, 0): third, (1, 0): -1}
    assert Jet2.variable("x", 2).evaluate(F(1, 10)) == F(1, 10)
    assert pochhammer_jet(third, 1, "x", 2, 2).coefficient(0, 0) == F(4, 9)
