"""p-adic valuations and residues of rationals, Legendre's factorial
valuation, Bernoulli numbers and Morita's p-adic Gamma function.

The valuation of zero is ``math.inf``, which orders above every integer, so
"ord >= r" verdicts are total.  Residues are always the least nonnegative
representative, which keeps serialized output bit-exact across runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    "Unreduced",
    "is_prime",
    "ord_rational",
    "reduce_mod",
    "factorial_valuation",
    "bernoulli",
    "bernoulli_residue",
    "morita_gamma",
]

# Deterministic Miller-Rabin witness set; proven sufficient far beyond the
# 3e18 range this library ever touches.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3 * 10**18


def _decimal(value) -> str:
    # str(value), but each integer past str()'s digit limit (none before Python 3.10.7) as the
    # power of 10 at or below its size: "at least 10^e", or "at most -10^e" when negative.
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    v = value.numerator if isinstance(value, (int, Fraction)) else 0
    e = (t := int(v.bit_length() * math.log10(2))) - (abs(v) < 10**t)  # 10^e <= |v| < 10^(e+1)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    return f"{'at most -' if v < 0 else 'at least '}10^{e}" if 0 < limit <= e else str(value)


# The most arguments a per-prime memo remembers; the caps admit far fewer distinct primes.
_PRIME_MEMO = 4096


@lru_cache(maxsize=_PRIME_MEMO, typed=True)  # a refusal raises, so it is never cached
def is_prime(n: int) -> bool:
    """Deterministic primality test of an int (else TypeError); raises CapExceeded above 3e18."""
    if type(n) is not int:  # typed memo: 7.0 is refused, not answered from the entry of 7
        raise TypeError(f"is_prime needs an int, got {type(n).__name__}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    if n > _MR_DETERMINISTIC_LIMIT:
        raise CapExceeded(f"{_decimal(n)} exceeds the deterministic primality range")
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
        if {type(self.p), type(self.k)} != {int}:  # 2.0 or True would pass every test below
            raise TypeError(f"p and k must be int, got {_decimal(self.p)}, {_decimal(self.k)}")
        if self.k < 1:
            raise ValueError("precision exponent k must be >= 1")
        if not is_prime(self.p):
            raise NotPrime(f"{_decimal(self.p)} is not prime")

    @property
    def modulus(self) -> int:
        return self.p**self.k


@dataclass(frozen=True)
class Residue:
    """Least nonnegative representative of a p-integral rational mod p^k."""

    value: int
    modulus: PrimePowerModulus

    def __post_init__(self):
        if type(self.value) is not int:
            raise TypeError(f"a residue is an int, not {type(self.value).__name__}")
        if not 0 <= self.value < self.modulus.modulus:
            raise ValueError(f"residue {_decimal(self.value)} outside "
                             f"[0, {_decimal(self.modulus.modulus)})")

    def __int__(self) -> int:
        return self.value


def _ratio(value) -> tuple[int, int]:
    # An exact value's numerator and denominator.  A float, Decimal or str is refused,
    # not read as the binary fraction or the text it happens to be.
    if isinstance(value, Unreduced):
        return value.num, value.den
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"exact values are int, Fraction or Unreduced, not {type(value).__name__}")
    return value.numerator, value.denominator


def _fraction(value) -> Fraction:
    # An exact value as a Fraction: one passes as it is, not rebuilt by another gcd.
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


def _ord_int(x: int, p: int) -> int:
    # ord_p of a nonzero integer: the least v with x not divisible by p^(v+1).
    v, power = 0, p
    while not x % power:
        v, power = v + 1, power * p
    return v


class Unreduced:
    """The exact rational num/den, kept as the pair it was computed as, so its valuation and
    residues need no gcd.  Each part is an int, Fraction or Unreduced (else TypeError); den is
    nonzero.  Immutable, since memoized evaluators hand one value to every caller."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        (a, b), (c, d) = _ratio(num), _ratio(den)
        if not c:
            raise ZeroDivisionError("an Unreduced value needs a nonzero denominator")
        object.__setattr__(self, "num", a * d)
        object.__setattr__(self, "den", b * c)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Unreduced values are immutable: {name!r} cannot change")
    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy rebuild the value through __init__
        return Unreduced, (self.num, self.den)

    def __repr__(self) -> str:  # an integer above 64 bits shows as its bit length
        num, den = (repr(v) if v.bit_length() <= 64 else f"{'-' * (v < 0)}<{v.bit_length()} bits>"
                    for v in (self.num, self.den))
        return f"Unreduced(num={num}, den={den})"

    def __bool__(self) -> bool:
        return self.num != 0

    def __eq__(self, other) -> bool:
        c, d = _ratio(other)
        return self.num * d == c * self.den

    def __sub__(self, other) -> Unreduced:
        c, d = _ratio(other)  # cross-multiplied, with no gcd
        return Unreduced(self.num * d - c * self.den, self.den * d) if c else self

    def ord(self, p: int):
        """ord_p(num) - ord_p(den), math.inf for zero.  p must be a prime int."""
        if not is_prime(p):  # memoized; p = 1 would never end the loop below, 4 would miscount
            raise NotPrime(f"{_decimal(p)} is not prime")
        return _ord_int(self.num, p) - _ord_int(self.den, p) if self.num else math.inf

    def residue(self, m: PrimePowerModulus) -> Residue:
        """num/den mod p^k, p^ord_p(den) cancelled first; NotPIntegral if ord_p < 0.  Both parts
        are reduced once mod p^(d+k), d = ord_p(den), which keeps their quotients by p^d mod p^k."""
        pd, pk = m.p ** _ord_int(self.den, m.p), m.modulus
        num, den = self.num % (pd * pk), self.den % (pd * pk)
        if num % pd:
            raise NotPIntegral(f"the value has negative {m.p}-adic valuation")
        return Residue(num // pd * pow(den // pd, -1, pk) % pk, m)


def ord_rational(r, p: int):
    """p-adic valuation of a rational; math.inf for zero."""
    if not is_prime(p):
        raise NotPrime(f"{_decimal(p)} is not prime")
    # Its own count on the reduced Fraction: the tests hold Unreduced.ord and _ord_int to it.
    r = _fraction(r)
    if not r:
        return math.inf
    v, num, den = 0, r.numerator, r.denominator
    while not num % p:
        v, num = v + 1, num // p
    while not den % p:
        v, den = v - 1, den // p
    return v


def reduce_mod(r, m: PrimePowerModulus) -> Residue:
    """Reduce a p-integral rational to its canonical residue mod p^k.

    The result t is the unique value in [0, p^k) with den*t = num (mod p^k).
    Raises NotPIntegral when ord_p(r) < 0.
    """
    r = _fraction(r)
    if r.denominator % m.p == 0:
        raise NotPIntegral(f"{_decimal(r)} has negative {m.p}-adic valuation")
    pk = m.modulus
    value = r.numerator * pow(r.denominator, -1, pk) % pk
    return Residue(value, m)


def factorial_valuation(r: int, p: int) -> int:
    """Legendre's formula: ord_p(r!) = sum_{i>=1} floor(r/p^i), for an int r (else TypeError)."""
    if type(r) is not int:
        raise TypeError(f"factorial argument must be int, got {type(r).__name__}")
    if r < 0:
        raise ValueError("factorial argument must be nonnegative")
    if not is_prime(p):
        raise NotPrime(f"{_decimal(p)} is not prime")
    total = 0
    q = r // p
    while q:
        total += q
        q //= p
    return total


BERNOULLI_CAP = 10**4
_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m with the convention B_1 = -1/2.

    Even indices come from the integer tangent numbers T_k (Brent & Harvey,
    arXiv:1108.0286): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  Odd indices
    above 1 are zero.  An index that is not an int raises TypeError, and one above
    BERNOULLI_CAP = 10^4 CapExceeded.
    """
    if type(m) is not int:  # True would read B_1, 2.0 would fail inside
        raise TypeError(f"Bernoulli index must be int, got {type(m).__name__}")
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if m > BERNOULLI_CAP:
        raise CapExceeded(f"bernoulli({_decimal(m)}) exceeds the documented cap {BERNOULLI_CAP}")
    global _bernoulli_cache
    cache = _bernoulli_cache
    if m < len(cache):
        return cache[m]
    # At least double the table, so ascending calls cost O(m^2) in total.
    half = min(max(m, 2 * len(cache)), BERNOULLI_CAP) // 2
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


# The most work a residue costs, checked at call time before anything is built: r p powers in
# bernoulli_residue, k (p + k^2 log2 p) products in morita_gamma; 30 s near p = 2003 (2 vCPUs).
RESIDUE_CAP = 10**6


def bernoulli_residue(p: int, r: int) -> Residue:
    """B_{p-3} mod p^r for a prime p >= 5, from ceil(r/2) power sums; once per (p, r).

    Faulhaber: S_i = sum_{j<p} j^i = sum_{e=1}^{i+1} C(i+1, e)/(i+1) B_{i+1-e} p^e, p-integral
    term by term for i < p - 1 (von Staudt-Clausen).  So B_i mod p^r is S_i/p less the terms
    e = 2..r over p: B_1 = -1/2, B_0 = 1, B_j = 0 at odd j > 1, and B_{i+1-e} mod p^(r+1-e)
    from its own S.  Work r p above RESIDUE_CAP raises PrecisionCapExceeded, memoized or not.
    """
    if p < 5:
        raise PreconditionViolated(f"bernoulli_residue needs a prime p >= 5, got {_decimal(p)}")
    PrimePowerModulus(p, r)
    if r * p > RESIDUE_CAP:
        raise PrecisionCapExceeded(f"r p = {_decimal(r * p)} exceeds the residue cap {RESIDUE_CAP}")
    return _bernoulli_residue(p, r)


@lru_cache(maxsize=_PRIME_MEMO, typed=True)
def _bernoulli_residue(p: int, r: int) -> Residue:
    # bernoulli_residue after its refusals, so a cap lowered later still refuses a kept (p, r).
    m = PrimePowerModulus(p, r)
    b = {0: 1, 1: (m.modulus - 1) // 2}  # B_i mod p^(r+i+3-p); (p^r - 1)/2 = -1/2 mod each
    for i in range(p - 3 - 2 * min((r - 1) // 2, (p - 5) // 2), p - 2, 2):
        pe = p ** (r + i + 3 - p)
        terms = (math.comb(i + 1, e) * b.get(i + 1 - e, 0) * p ** (e - 1)
                 for e in range(2, r + i + 4 - p))  # C(i+1, e) = 0 at e > i + 1
        power_sum = sum(pow(j, i, pe * p) for j in range(1, p)) % (pe * p)
        b[i] = (power_sum // p - sum(terms) * pow(i + 1, -1, pe)) % pe
    return Residue(b[p - 3], m)


def _shift(f, s: int, pk: int) -> list[int]:
    # f(t + s) mod pk for f of degree < len(f), by repeated synthetic division.
    g = list(f)
    for i in range(len(g) - 1):
        for j in reversed(range(i, len(g) - 1)):
            g[j] = (g[j] + s * g[j + 1]) % pk
    return g


def _block_product(g, a: int, pk: int) -> list[int]:
    # prod_{i<a} g(t + i) mod (pk, t^k), k = len(g), a >= 1, doubling over the bits of a.
    h, length = g, 1
    for bit in bin(a)[3:]:
        for factor, size in [(h, length), (g, 1)][: 1 + (bit == "1")]:
            s = _shift(factor, length, pk)
            h = [sum(h[i] * s[j - i] for i in range(j + 1)) % pk for j in range(len(h))]
            length += size
    return h


@lru_cache(maxsize=_PRIME_MEMO, typed=True)
def _block_polynomial(p: int, k: int) -> tuple[int, ...]:
    # Morita's G(t) mod (p^k, t^k), from e[j] = e_{p-1-j}(1..p-1) mod p^k; a tuple, as it is shared.
    pk, e = p**k, [1] + [0] * (k - 1)
    for r in range(1, p):
        e = [(u * r + v) % pk for u, v in zip(e, [0] + e)]
    return tuple(c * p**j % pk for j, c in enumerate(e))


def morita_gamma(x, m: PrimePowerModulus) -> Residue:
    """Morita's p-adic Gamma function at a p-integral rational, mod p^k.

    Lifts x to the integer N = x (mod p^k) with 1 <= N <= p^k and returns
    (-1)^N * prod_{1 <= j < N, p does not divide j} j  (mod p^k).
    Continuity of Gamma_p (it is 1-Lipschitz on the p-adic integers) makes
    this equal to Gamma_p(x) at precision k.  With N - 1 = a p + b, block
    i < a holds the units i p + r, 0 < r < p, whose product is G(i) for
    G(t) = prod_r (r + p t) = sum_{j<k} e_{p-1-j} p^j t^j (mod p^k), e being the
    elementary symmetric functions of 1..p-1.  The blocks multiply to H_a(0), H_L(t) =
    prod_{i<L} G(t + i), by doubling H_2L(t) = H_L(t) H_L(t + L) in (Z/p^k)[t]/(t^k):
    exact, as p^j divides each t^j coefficient.  O(k p + k^2 log a) products, plus b
    tail factors; G's k p are paid once per (p, k), as its coefficients are memoized.  As
    a < p^k, work k (p + k^2 log2 p) above RESIDUE_CAP raises PrecisionCapExceeded.
    """
    p, k = m.p, m.k
    if p == 2:
        raise PreconditionViolated("morita_gamma requires an odd prime")
    if k * (p + k * k * p.bit_length()) > RESIDUE_CAP:
        raise PrecisionCapExceeded(f"Morita Gamma at p = {p}, k = {_decimal(k)} exceeds the "
                                   f"residue cap {RESIDUE_CAP} on k (p + k^2 log2 p)")
    pk = m.modulus
    lift = Unreduced(x).residue(m).value or pk
    blocks = (lift - 1) // p
    acc = 1
    for j in range(blocks * p + 1, lift):  # the b tail factors
        acc = acc * j % pk
    if blocks:  # else the O(k p) coefficients would cost more than the product
        acc = acc * _block_product(_block_polynomial(p, k), blocks, pk)[0] % pk
    return Residue(-acc % pk if lift % 2 else acc, m)
