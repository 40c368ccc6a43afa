"""p-adic valuations and residues of rationals, Legendre's factorial
valuation, Bernoulli numbers and Morita's p-adic Gamma function.

The valuation of zero is ``math.inf``, which orders above every integer, so
"ord >= r" verdicts are total.  Residues are always the least nonnegative
representative, which keeps serialized output bit-exact across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CapExceeded,
    NotPIntegral,
    NotPrime,
    PreconditionViolated,
    PrecisionCapExceeded,
)

__all__ = [
    "PrimePowerModulus",
    "Residue",
    "is_prime",
    "ord_rational",
    "reduce_mod",
    "factorial_valuation",
    "bernoulli",
    "morita_gamma",
    "MORITA_CAP",
]

# Deterministic Miller-Rabin witness set; proven sufficient far beyond the
# 3e18 range this library ever touches.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3 * 10**18


def is_prime(n: int) -> bool:
    """Deterministic primality test; raises CapExceeded above 3e18."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    if n > _MR_DETERMINISTIC_LIMIT:
        raise CapExceeded(f"{n} exceeds the deterministic primality range")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimePowerModulus:
    """A modulus p^k with p prime and k >= 1."""

    p: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("precision exponent k must be >= 1")
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")

    @property
    def modulus(self) -> int:
        return self.p**self.k


@dataclass(frozen=True)
class Residue:
    """Least nonnegative representative of a p-integral rational mod p^k."""

    value: int
    modulus: PrimePowerModulus

    def __post_init__(self):
        if not 0 <= self.value < self.modulus.modulus:
            raise ValueError(f"residue {self.value} outside [0, {self.modulus.modulus})")

    def __int__(self) -> int:
        return self.value


def ord_rational(r, p: int):
    """p-adic valuation of a rational; math.inf for zero."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    r = Fraction(r)
    if not r:
        return math.inf
    num, den = r.numerator, r.denominator
    v = 0
    while num % p == 0:
        v += 1
        num //= p
    # num/den is in lowest terms, so at most one of the two carries p.
    if v:
        return v
    while den % p == 0:
        v -= 1
        den //= p
    return v


def reduce_mod(r, m: PrimePowerModulus) -> Residue:
    """Reduce a p-integral rational to its canonical residue mod p^k.

    The result t is the unique value in [0, p^k) with den*t = num (mod p^k).
    Raises NotPIntegral when ord_p(r) < 0.
    """
    r = Fraction(r)
    if r.denominator % m.p == 0:
        raise NotPIntegral(f"{r} has negative {m.p}-adic valuation")
    pk = m.modulus
    value = r.numerator * pow(r.denominator, -1, pk) % pk
    return Residue(value, m)


def factorial_valuation(r: int, p: int) -> int:
    """Legendre's formula: ord_p(r!) = sum_{i>=1} floor(r/p^i)."""
    if r < 0:
        raise ValueError("factorial argument must be nonnegative")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    total = 0
    q = r // p
    while q:
        total += q
        q //= p
    return total


_BERNOULLI_CAP = 10**4
_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m with the convention B_1 = -1/2.

    Even indices come from the integer tangent numbers T_k (Brent & Harvey,
    arXiv:1108.0286): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  Odd indices
    above 1 are zero.  Indices above 10^4 raise CapExceeded.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if m > _BERNOULLI_CAP:
        raise CapExceeded(f"bernoulli({m}) exceeds the documented cap {_BERNOULLI_CAP}")
    global _bernoulli_cache
    cache = _bernoulli_cache
    if m < len(cache):
        return cache[m]
    # At least double the table, so ascending calls cost O(m^2) in total.
    half = min(max(m, 2 * len(cache)), _BERNOULLI_CAP) // 2
    # tangent[k] = T_k for 1 <= k <= half by the in-place triangle; no gcd.
    tangent = [0] + [math.factorial(k - 1) for k in range(1, half + 1)]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    grown = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, half + 1):
        value = Fraction(2 * k * tangent[k], 4**k * (4**k - 1))
        grown += [value if k % 2 else -value, Fraction(0)]
    _bernoulli_cache = grown  # replaced whole, so a concurrent reader sees a full list
    return grown[m]


# Morita Gamma precision is refused above p^k = MORITA_CAP, read at call time.
MORITA_CAP = 10**7


def morita_gamma(x, m: PrimePowerModulus) -> Residue:
    """Morita's p-adic Gamma function at a p-integral rational, mod p^k.

    Lifts x to the integer N = x (mod p^k) with 1 <= N <= p^k and returns
    (-1)^N * prod_{1 <= j < N, p does not divide j} j  (mod p^k).
    Continuity of Gamma_p (it is 1-Lipschitz on the p-adic integers) makes
    this equal to Gamma_p(x) at precision k.  With N - 1 = a p + b, block
    i < a holds the units i p + r, 0 < r < p, whose product is F(i p) for
    F(t) = prod_r (r + t) = sum_{j<k} e_{p-1-j} t^j (mod p^k), e being the
    elementary symmetric functions of 1..p-1.  That costs O(k p + k a)
    products, a < p^(k-1), plus b tail factors.  Precisions p^k above
    MORITA_CAP = 10^7 raise PrecisionCapExceeded.
    """
    if m.p == 2:
        raise PreconditionViolated("morita_gamma requires an odd prime")
    pk = m.modulus
    if pk > MORITA_CAP:
        raise PrecisionCapExceeded(f"p^k = {pk} exceeds the Morita cap {MORITA_CAP}")
    lift = reduce_mod(x, m).value
    if lift == 0:
        lift = pk
    p, k = m.p, m.k
    blocks = (lift - 1) // p
    acc = 1
    for j in range(blocks * p + 1, lift):  # the b tail factors
        acc = acc * j % pk
    if blocks:  # else the O(k p) coefficients would cost more than the product
        e = [1] + [0] * (k - 1)  # e[j] = e_{p-1-j}(1..p-1) mod p^k
        for r in range(1, p):
            e = [(u * r + v) % pk for u, v in zip(e, [0] + e)]
        # F(i p) by Horner in i, highest degree first, coefficients pre-scaled by p^j.
        top, *rest = [e[j] * p**j % pk for j in reversed(range(k))]
        for i in range(blocks):
            value = top
            for c in rest:
                value = value * i + c
            acc = acc * value % pk
    if lift % 2:
        acc = (pk - acc) % pk
    return Residue(acc, m)
