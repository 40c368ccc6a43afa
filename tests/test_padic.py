import math
import random
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
    bernoulli,
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


def test_factorial_valuation_examples():
    assert factorial_valuation(0, 5) == 0
    assert factorial_valuation(10, 5) == 2
    assert factorial_valuation(25, 5) == 6


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


def test_bernoulli_cap():
    with pytest.raises(CapExceeded):
        bernoulli(10**4 + 1)


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


def _naive_gammas(p, k, top):
    """Gamma_p(N) mod p^k for N = 1..top, one unit at a time: the oracle."""
    pk = p**k
    values, acc = [], 1
    for N in range(1, top + 1):
        values.append((pk - acc) % pk if N % 2 else acc)
        if N % p:
            acc = acc * N % pk
    return values


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_morita_gamma_blocks_equal_the_unit_product(p, k):
    m = PrimePowerModulus(p, k)
    pk = m.modulus
    oracle = _naive_gammas(p, k, pk)
    if pk <= 400:
        lifts = range(1, pk + 1)
    else:
        rng = random.Random(p * 100 + k)
        a = rng.randrange(2, p ** (k - 1))
        lifts = [rng.randint(1, pk) for _ in range(200)]
        lifts += [1, p, p + 1, a * p, a * p + 1, pk - 1, pk]
    for N in lifts:
        assert morita_gamma(N, m).value == oracle[N - 1], N


def test_morita_gamma_blocks_at_the_dflst_lifts():
    for p in primes_upto(61):
        ns = [n for n in range(3, 9) if p % n == 1]
        if not ns:
            continue
        m = PrimePowerModulus(p, 3)
        lifts = {n: reduce_mod(F(1, n), m).value for n in ns}
        oracle = _naive_gammas(p, 3, max(lifts.values()))
        for n, lift in lifts.items():
            assert morita_gamma(F(1, n), m).value == oracle[lift - 1], (n, p)


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
