import copy
import math
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy

from hypercong.errors import (
    CapExceeded,
    NotPIntegral,
    NotPrime,
    PreconditionViolated,
    PrecisionCapExceeded,
)
from hypercong import padic
from hypercong.exact_core import harmonic
from hypercong.cli import primes_upto
from hypercong.padic import (
    PrimePowerModulus,
    Residue,
    Unreduced,
    bernoulli,
    bernoulli_residue,
    factorial_valuation,
    is_prime,
    morita_gamma,
    ord_rational,
    reduce_mod,
)

F = Fraction


def test_is_prime_matches_sieve():
    sieve = set(primes_upto(2000))
    for n in range(2001):
        assert is_prime(n) == (n in sieve)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(1000000007 * 1000000009)
    with pytest.raises(CapExceeded):
        is_prime(4 * 10**18 + 1)  # beyond the deterministic witness range


def test_is_prime_memo_is_bounded_typed_and_keeps_no_refusal():
    # A constant maxsize, set by no option; typed, so 7.0 is another key than 7.  A refusal
    # raises, so it is refused again on every call instead of read from the memo.
    assert is_prime.cache_parameters() == {"maxsize": padic._PRIME_MEMO, "typed": True}
    assert type(padic._PRIME_MEMO) is int
    is_prime.cache_clear()
    for _ in range(2):
        with pytest.raises(CapExceeded):
            is_prime(4 * 10**18 + 1)
    assert is_prime.cache_info().currsize == 0


def test_modulus_validation():
    m = PrimePowerModulus(5, 2)
    assert m.modulus == 25
    with pytest.raises(NotPrime):
        PrimePowerModulus(6, 1)
    with pytest.raises(ValueError):
        PrimePowerModulus(5, 0)


def test_residue_range_checked():
    m = PrimePowerModulus(5, 1)
    with pytest.raises(ValueError):
        Residue(5, m)
    assert int(Residue(3, m)) == 3


def test_ord_examples():
    assert ord_rational(F(50, 3), 5) == 2
    assert ord_rational(F(3, 50), 5) == -2
    assert ord_rational(0, 7) == math.inf
    with pytest.raises(NotPrime):
        ord_rational(F(1), 4)


def test_ord_rational_is_independent_of_unreduced(monkeypatch):
    # The oracle the tests hold Unreduced.ord to: it must not reach _ord_int or Unreduced.
    class Refused:
        def __init__(self, *args):
            raise AssertionError("ord_rational built an Unreduced")

    def refused(*args):
        raise AssertionError("ord_rational called _ord_int")

    monkeypatch.setattr(padic, "_ord_int", refused)
    monkeypatch.setattr(padic, "Unreduced", Refused)
    assert ord_rational(F(50, 3), 5) == 2
    assert ord_rational(F(3, 50), 5) == -2
    assert ord_rational(0, 7) == math.inf


def test_ord_of_zero_orders_above_everything():
    assert ord_rational(0, 5) > 10**9


def test_reduce_mod_examples():
    assert reduce_mod(F(1, 2), PrimePowerModulus(5, 2)).value == 13
    assert reduce_mod(F(-1), PrimePowerModulus(7, 3)).value == 342
    assert reduce_mod(F(7, 5), PrimePowerModulus(7, 2)).value == 21


def test_reduce_mod_rejects_non_p_integral():
    with pytest.raises(NotPIntegral):
        reduce_mod(F(1, 7), PrimePowerModulus(7, 1))


def test_reduce_mod_round_trip():
    rng = random.Random(2024)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 13])
        k = rng.randint(1, 5)
        num = rng.randint(-500, 500)
        den = rng.randint(1, 60)
        while den % p == 0:
            den = rng.randint(1, 60)
        r = F(num, den)
        if ord_rational(r, p) < 0:
            continue
        t = reduce_mod(r, PrimePowerModulus(p, k)).value
        assert (r.denominator * t - r.numerator) % p**k == 0


# --- the unreduced exact value ------------------------------------------------


@pytest.mark.parametrize("inexact", [0.2, Decimal("0.2"), "1/5"], ids=["float", "decimal", "str"])
def test_the_exact_api_refuses_inexact_values(inexact):
    # 0.2 would be read as 3602879701896397/2^54 (5-adic order 0, where 1/5 has -1),
    # and "1/5" would be parsed; each is refused instead.
    m = PrimePowerModulus(5, 2)
    for call in (lambda: Unreduced(inexact), lambda: Unreduced(1, inexact),
                 lambda: Unreduced(1) - inexact, lambda: Unreduced(1) == inexact,
                 lambda: ord_rational(inexact, 5), lambda: reduce_mod(inexact, m)):
        with pytest.raises(TypeError):
            call()


def test_unreduced_reads_int_fraction_and_unreduced_parts():
    assert Unreduced(F(2, 3), 4) == F(1, 6)
    assert Unreduced(3, F(1, 2)) == 6
    value = Unreduced(Unreduced(10, 4), Unreduced(3, 6))  # (10/4) / (3/6)
    assert (value.num, value.den) == (60, 12) and value == 5
    assert Unreduced(7).den == 1
    with pytest.raises(ZeroDivisionError):
        Unreduced(1, 0)
    with pytest.raises(ZeroDivisionError):
        Unreduced(1, Unreduced(0, 5))


@pytest.mark.parametrize("p", [1, 0, -1])
def test_unreduced_ord_refuses_p_below_2(p):
    # Its valuation loop never ended at p = 1 or -1, and divided by zero at p = 0.
    with pytest.raises(NotPrime):
        Unreduced(12).ord(p)
    with pytest.raises(NotPrime):
        Unreduced(0, 5).ord(p)


def test_unreduced_subtracts_and_compares_without_reducing():
    a, b = Unreduced(6, 4), Unreduced(2, 6)
    diff = a - b
    assert (diff.num, diff.den) == (6 * 6 - 2 * 4, 24)  # 28/24, kept as it is
    assert diff == F(7, 6) and not diff == F(7, 5)
    assert a - 0 is a and a - F(0) is a and a - Unreduced(0, 9) is a
    assert not Unreduced(0, 12) and Unreduced(-1, 12)
    assert not a - F(3, 2)
    assert (Unreduced(-3, -9).num, Unreduced(-3, -9).den) == (-3, -9)


def test_unreduced_values_are_immutable_and_copy_as_values():
    value = Unreduced(6, 4)
    for name in ("num", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert (value.num, value.den) == (6, 4)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is Unreduced and (twin.num, twin.den) == (6, 4)


def test_unreduced_repr_shows_the_pair_and_elides_wide_integers():
    assert repr(Unreduced(6, 4)) == "Unreduced(num=6, den=4)"
    assert repr(Unreduced(-3, -9)) == "Unreduced(num=-3, den=-9)"
    widest = 2**64 - 1  # 64 bits is still shown
    assert repr(Unreduced(-widest, widest)) == f"Unreduced(num={-widest}, den={widest})"
    assert repr(Unreduced(-(2**64), 3**500)) == "Unreduced(num=-<65 bits>, den=<793 bits>)"


def test_unreduced_pairs_with_p_in_both_parts():
    # p^a u / (p^d v) with units u, v: ord a - d, and every residue is that of the reduced
    # value.  First (a, d) = (5, 2) at random units; then a = 0..9 over d = 0..4, ord -4..9,
    # through each branch of the residue's one reduction mod p^(d+k): NotPIntegral, ord < k,
    # ord >= k (residue 0), and the top numerator valuation it keeps, a = d + k - 1.
    rng = random.Random(5)
    cases = []
    for p in (3, 5, 7, 31):
        for _ in range(20):
            u, v = (rng.choice([-1, 1]) * rng.randrange(1, 10**6, 1) for _ in range(2))
            if u % p and v % p:
                cases.append((p, 5, 2, u, v))
    cases += [(p, a, d, u, v) for p, u, v in [(3, 2, -7), (7, -10, 3)]
              for a in range(10) for d in range(5)]
    for p, a, d, u, v in cases:
        exact = F(p**a * u, p**d * v)
        for extra in (1, 2, p**3):  # a common factor the pair is not reduced by
            pair = Unreduced(p**a * u * extra, p**d * v * extra)
            assert pair.ord(p) == a - d == ord_rational(exact, p)
            for k in range(1, 7):
                m = PrimePowerModulus(p, k)
                if a < d:
                    with pytest.raises(NotPIntegral):
                        pair.residue(m)
                    with pytest.raises(NotPIntegral):
                        reduce_mod(exact, m)
                else:
                    assert pair.residue(m) == reduce_mod(exact, m)


def test_unreduced_zero_and_negative_valuation():
    m = PrimePowerModulus(7, 3)
    zero = Unreduced(0, 7**4 * 3)
    assert zero.ord(7) == math.inf
    assert zero.residue(m).value == 0
    negative = Unreduced(7**2 * 5, 7**4 * 3)  # 5 / (7^2 * 3)
    assert negative.ord(7) == -2 == ord_rational(F(5, 7**2 * 3), 7)
    with pytest.raises(NotPIntegral):
        negative.residue(m)
    assert Unreduced(7**4 * 5, 7**4 * 3).residue(m) == reduce_mod(F(5, 3), m)


def test_factorial_valuation_examples():
    assert factorial_valuation(0, 5) == 0
    assert factorial_valuation(10, 5) == 2
    assert factorial_valuation(25, 5) == 6
    with pytest.raises(ValueError, match="nonnegative"):
        factorial_valuation(-1, 5)
    with pytest.raises(NotPrime):
        factorial_valuation(10, 4)


def test_factorial_valuation_legendre_bound_and_exactness():
    for p in (2, 3, 5, 7, 11, 31, 47):
        for r in (0, 1, 5, 26, 99, 150):
            e = factorial_valuation(r, p)
            assert e <= r / (p - 1)
            fact = math.factorial(r)
            assert fact % p**e == 0
            assert fact % p ** (e + 1) != 0


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(12) == F(-691, 2730)


def test_bernoulli_odd_indices_vanish():
    for m in range(3, 40, 2):
        assert bernoulli(m) == 0


def test_bernoulli_against_sympy():
    # conventions agree at even indices
    for m in range(0, 42, 2):
        expected = sympy.bernoulli(m)
        assert bernoulli(m) == F(int(expected.p), int(expected.q))


def test_bernoulli_tangent_numbers_against_sympy_in_any_call_order(monkeypatch):
    expected = {}
    for m in range(0, 401, 2):
        value = sympy.bernoulli(m)
        expected[m] = F(int(value.p), int(value.q))
    # From an empty cache, descending calls fill it once; ascending calls
    # grow it again and again.  Both orders must give the same numbers.
    for order in (range(400, -1, -1), range(401)):
        monkeypatch.setattr(padic, "_bernoulli_cache", [F(1)])
        got = {m: bernoulli(m) for m in order}
        for m in range(401):
            if m % 2 == 0:
                assert got[m] == expected[m], m
            elif m >= 3:
                assert got[m] == 0, m
        assert got[1] == F(-1, 2)


def test_bernoulli_residue_is_the_table_mod_p_squared():
    # The power-sum residue is pinned to the exact table at every prime 7 <= p <= 797.
    for p in primes_upto(797)[3:]:
        m = PrimePowerModulus(p, 2)
        assert bernoulli_residue(p) == reduce_mod(bernoulli(p - 3), m), p
    # At p = 5 the power sum's B_1 term breaks it: (1 + 4 + 9 + 16) / 5 = 6, B_2 = 1/6 = 21.
    five = PrimePowerModulus(5, 2)
    assert sum(j * j for j in range(1, 5)) // 5 == 6 != reduce_mod(bernoulli(2), five).value == 21
    for p, error in [(5, PreconditionViolated), (3, PreconditionViolated), (9, NotPrime)]:
        with pytest.raises(error):
            bernoulli_residue(p)


def test_bernoulli_cap():
    with pytest.raises(CapExceeded):
        bernoulli(10**4 + 1)
    with pytest.raises(ValueError, match="nonnegative"):
        bernoulli(-1)


def test_morita_gamma_at_small_integers():
    m5 = PrimePowerModulus(5, 1)
    assert morita_gamma(1, m5).value == 4  # (-1)^1 * empty product = -1
    assert morita_gamma(2, m5).value == 1


def test_morita_gamma_rational_lift_oracle():
    # lift of 1/3 mod 343 is 229 (3*229 = 687 = 2*343 + 1)
    m = PrimePowerModulus(7, 3)
    lift = reduce_mod(F(1, 3), m).value
    assert lift == 229
    acc = 1
    for j in range(1, lift):
        if j % 7:
            acc = acc * j % 343
    expected = (343 - acc) % 343  # (-1)^229 = -1
    assert expected == 270
    assert morita_gamma(F(1, 3), m).value == expected


def test_morita_gamma_step_relation():
    for p, k in ((5, 2), (7, 3)):
        m = PrimePowerModulus(p, k)
        pk = m.modulus
        for N in range(1, min(61, pk - 1)):
            lhs = morita_gamma(N + 1, m).value
            g = morita_gamma(N, m).value
            if N % p:
                assert lhs == (-N * g) % pk
            else:
                assert lhs == (-g) % pk


def test_morita_gamma_requires_odd_prime():
    with pytest.raises(PreconditionViolated):
        morita_gamma(F(1), PrimePowerModulus(2, 3))


def test_morita_gamma_requires_p_integral():
    with pytest.raises(NotPIntegral):
        morita_gamma(F(1, 5), PrimePowerModulus(5, 1))


def test_morita_gamma_cap_is_the_fixed_constant():
    assert padic.MORITA_CAP == 10**7
    # 211^3 < 10^7 < 223^3.  Gamma_p(1/2)^2 = (-1)^((p+1)/2) by the reflection formula.
    half = morita_gamma(F(1, 2), PrimePowerModulus(211, 3))
    assert pow(half.value, 2, 211**3) == 1
    with pytest.raises(PrecisionCapExceeded):
        morita_gamma(F(1, 2), PrimePowerModulus(223, 3))


def test_wolstenholme_valuations():
    for p in primes_upto(200):
        if p <= 3:
            continue
        assert ord_rational(harmonic(p - 1, 1), p) >= 2
        assert ord_rational(harmonic(p - 1, 2), p) >= 1


def test_harmonic_reflection_mod_p():
    for p in primes_upto(60):
        if p <= 3:
            continue
        m = PrimePowerModulus(p, 1)
        for j in range(1, p):
            assert reduce_mod(harmonic(p - 1 - j, 1) - harmonic(j, 1), m).value == 0
            assert reduce_mod(harmonic(p - 1 - j, 2) + harmonic(j, 2), m).value == 0


def _naive_gammas(p, k, lifts):
    """{N: Gamma_p(N) mod p^k} for the given lifts N >= 1, by one walk over the units
    below max(lifts), one at a time: the oracle.  Only the asked-for values are kept."""
    pk, wanted = p**k, set(lifts)
    values, acc = {}, 1
    for N in range(1, max(wanted) + 1):
        if N in wanted:
            values[N] = (pk - acc) % pk if N % 2 else acc
        if N % p:
            acc = acc * N % pk
    return values


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_morita_gamma_blocks_equal_the_unit_product(p, k):
    m = PrimePowerModulus(p, k)
    pk = m.modulus
    if pk <= 400:
        lifts = range(1, pk + 1)
    else:
        rng = random.Random(p * 100 + k)
        a = rng.randrange(2, p ** (k - 1))
        lifts = [rng.randint(1, pk) for _ in range(200)]
        lifts += [1, p, p + 1, a * p, a * p + 1, pk - 1, pk]
    oracle = _naive_gammas(p, k, lifts)
    for N in lifts:
        assert morita_gamma(N, m).value == oracle[N], N


def test_morita_gamma_blocks_at_the_dflst_lifts():
    for p in primes_upto(61):
        ns = [n for n in range(3, 9) if p % n == 1]
        if not ns:
            continue
        m = PrimePowerModulus(p, 3)
        lifts = {n: reduce_mod(F(1, n), m).value for n in ns}
        oracle = _naive_gammas(p, 3, lifts.values())
        for n, lift in lifts.items():
            assert morita_gamma(F(1, n), m).value == oracle[lift], (n, p)


@pytest.mark.parametrize("p", [199, 211])
def test_morita_gamma_reflection_formula(p):
    # Gamma_p(x) Gamma_p(1 - x) = (-1)^x0, x0 in 1..p with x0 = x (mod p).
    m = PrimePowerModulus(p, 3)
    rng = random.Random(p)
    xs = [F(1, n) for n in range(2, 9)] + [F(rng.randint(-10**6, 10**6), rng.randint(1, p - 1))
                                            for _ in range(5)]
    xs += [F(0), F(1), F(p), F(p * p + 3)]
    for x in xs:
        x0 = reduce_mod(x, PrimePowerModulus(p, 1)).value or p
        product = morita_gamma(x, m).value * morita_gamma(1 - x, m).value
        assert product % m.modulus == (-1) ** x0 % m.modulus, x


# --- the block product by doubling --------------------------------------------


def test_taylor_shift_is_the_binomial_expansion():
    rng = random.Random(17)
    for p, k in ((3, 6), (5, 4), (7, 1), (211, 3)):
        pk = p**k
        for _ in range(20):
            f = [rng.randrange(pk) for _ in range(k)]
            s = rng.randrange(-pk, pk)
            expected = [sum(f[j] * math.comb(j, i) * s ** (j - i) for j in range(i, k)) % pk
                        for i in range(k)]
            assert padic._shift(f, s, pk) == expected, (p, k, f, s)


def test_block_product_equals_the_term_by_term_product():
    # g(t) = G(p t) for a random G, so p^j divides its t^j coefficient, as in morita_gamma.
    # The oracle multiplies the a shifted factors one at a time, each shift expanded by
    # the binomial theorem; only the doubling needs the divisibility to truncate exactly.
    rng = random.Random(19)
    for p, k in ((3, 5), (5, 3), (7, 4), (11, 2), (13, 1)):
        pk = p**k
        for _ in range(3):
            g = [rng.randrange(pk) * p**j % pk for j in range(k)]
            product = [1] + [0] * (k - 1)
            for a in range(1, 41):
                shifted = [sum(g[j] * math.comb(j, i) * (a - 1) ** (j - i) for j in range(i, k))
                           for i in range(k)]
                product = [sum(product[i] * shifted[j - i] for i in range(j + 1)) % pk
                           for j in range(k)]
                assert padic._block_product(g, a, pk) == product, (p, k, g, a)


@pytest.mark.parametrize("p, k", [(3, 6), (5, 5), (7, 4)])
def test_morita_gamma_at_every_lift_against_the_unit_product(p, k):
    # Every block count below p^(k-1): 243, 625 and 343 of them.
    m = PrimePowerModulus(p, k)
    oracle = _naive_gammas(p, k, range(1, m.modulus + 1))
    for N, value in oracle.items():
        assert morita_gamma(N, m).value == value, N


def test_morita_gamma_far_above_the_cap(monkeypatch):
    # p^3 is about 10^12 at p = 10007: one step per block would take about 10^8 steps a
    # call.  Reflection Gamma_p(x) Gamma_p(1 - x) = (-1)^x0, the step relation, and
    # Gamma_p(1/2)^2 = (-1)^((p+1)/2) hold at the full precision p^3.
    monkeypatch.setattr(padic, "MORITA_CAP", 10**13)
    p = 10007
    m = PrimePowerModulus(p, 3)
    pk = m.modulus
    rng = random.Random(p)
    xs = [F(1, n) for n in range(2, 9)]
    xs += [F(rng.randint(-10**9, 10**9), rng.randint(1, p - 1)) for _ in range(3)]
    for x in xs:
        x0 = reduce_mod(x, PrimePowerModulus(p, 1)).value or p
        product = morita_gamma(x, m).value * morita_gamma(1 - x, m).value
        assert product % pk == (-1) ** x0 % pk, x
    for N in [pk - 1, pk - 2, pk - p, p * p] + [rng.randrange(1, pk) for _ in range(3)]:
        step = -morita_gamma(N, m).value * (N if N % p else 1)
        assert morita_gamma(N + 1, m).value == step % pk, N
    half = morita_gamma(F(1, 2), m).value
    assert half * half % pk == (-1) ** ((p + 1) // 2) % pk


# Above str()'s default limit of 4300 digits: 5001 digits, and N has 5003 with no small factor.
BIG = 10**5000
N = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)) * 10**4990 + 1


def test_decimal_states_an_integer_too_long_to_print():
    assert padic._decimal(10**4300 - 1) == "9" * 4300
    assert padic._decimal(1 - 10**4300) == "-" + "9" * 4300
    assert padic._decimal(10**4300) == padic._decimal(10**4301 - 1) == "at least 10^4300"
    assert padic._decimal(-(10**4300)) == padic._decimal(1 - 10**4301) == "at most -10^4300"
    assert padic._decimal(F(-7, BIG)) == "-7/at least 10^5000"
    assert padic._decimal(F(BIG)) == "at least 10^5000"
    assert [padic._decimal(v) for v in (0, -3, F(2, 3), True, 2.5, "x")] == [
        "0", "-3", "2/3", "True", "2.5", "x"]


def test_decimal_reads_a_python_without_a_digit_limit(monkeypatch):
    # Python 3.10.0 to 3.10.6 have no digit limit and no sys.get_int_max_str_digits.
    limit = sys.get_int_max_str_digits()
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    sys.set_int_max_str_digits(0)
    try:
        assert padic._decimal(BIG) == "1" + "0" * 5000
        assert padic._decimal(-BIG) == "-1" + "0" * 5000
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("call, error, message", [
    (lambda: is_prime(N), CapExceeded,
     "at least 10^5002 exceeds the deterministic primality range"),
    (lambda: PrimePowerModulus(BIG + 1, 1), NotPrime, "at least 10^5000 is not prime"),
    (lambda: ord_rational(3, BIG + 1), NotPrime, "at least 10^5000 is not prime"),
    (lambda: factorial_valuation(5, BIG), NotPrime, "at least 10^5000 is not prime"),
    (lambda: Unreduced(1).ord(-BIG), NotPrime, "at most -10^5000 is not prime"),
    (lambda: reduce_mod(F(1, 7 * BIG), PrimePowerModulus(7, 1)), NotPIntegral,
     "1/at least 10^5000 has negative 7-adic valuation"),
    (lambda: bernoulli(BIG), CapExceeded, "bernoulli(at least 10^5000) exceeds the documented cap "
     "10000"),
    (lambda: bernoulli_residue(-BIG), PreconditionViolated,
     "bernoulli_residue needs a prime p >= 7, got at most -10^5000"),
    (lambda: morita_gamma(F(1, 3), PrimePowerModulus(7, 6000)), PrecisionCapExceeded,
     "p^k = at least 10^5070 exceeds the Morita cap 10000000"),
    (lambda: Residue(-BIG, PrimePowerModulus(7, 1)), ValueError,
     "residue at most -10^5000 outside [0, 7)"),
], ids=["is_prime", "modulus", "ord_rational", "factorial_valuation", "ord", "reduce_mod",
        "bernoulli", "bernoulli_residue", "morita_gamma", "residue"])
def test_a_refusal_states_an_integer_too_long_to_print(call, error, message):
    # str() of such an integer raised ValueError from inside the message.
    with pytest.raises(error) as refusal:
        call()
    assert str(refusal.value) == message


@pytest.mark.slow
def test_morita_gamma_at_the_deepest_precision_under_the_cap():
    p, k = 3, 14  # 3^14 = 4782969 <= MORITA_CAP, block counts up to 3^13 - 1
    m = PrimePowerModulus(p, k)
    pk = m.modulus
    assert pk <= padic.MORITA_CAP
    rng = random.Random(314)
    a = rng.randrange(2, p ** (k - 1))
    lifts = [rng.randint(1, pk) for _ in range(200)] + [1, p, p * a, pk - 1, pk]
    oracle = _naive_gammas(p, k, lifts)
    for N in lifts:
        assert morita_gamma(N, m).value == oracle[N], N
