"""Exact rational combinatorics: Pochhammer symbols, harmonic numbers,
shifted power sums and generalized binomial coefficients.

Every function here is a pure total map over arbitrary-precision rationals.
:class:`fractions.Fraction` already guarantees the normal form we rely on
everywhere: lowest terms, positive denominator, zero stored as 0/1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ZeroDenominator
from .padic import _decimal, _fraction

__all__ = [
    "ShiftedSumSpec",
    "pochhammer",
    "harmonic",
    "shifted_power_sum",
    "binomial_general",
]


def pochhammer(x, k: int) -> Fraction:
    """Rising factorial (x)_k = x(x+1)...(x+k-1), with (x)_0 = 1."""
    if k < 0:
        raise ValueError("pochhammer index must be nonnegative")
    x = _fraction(x)
    result = Fraction(1)
    for i in range(k):
        result *= x + i
        if not result:
            break
    return result


# Prefix sums of 1/j^m keyed by the order m.  Grown copy-on-write so that a
# concurrent reader always sees a fully built list.
_HARMONIC_PREFIX: dict[int, list[Fraction]] = {}


def harmonic(k: int, m: int = 1) -> Fraction:
    """Harmonic number of order m: H_k^{(m)} = sum_{j=1}^{k} 1/j^m (0 for k = 0)."""
    if k < 0:
        raise ValueError("harmonic index must be nonnegative")
    if m < 1:
        raise ValueError("harmonic order must be positive")
    prefix = _HARMONIC_PREFIX.get(m)
    if prefix is None or len(prefix) <= k:
        grown = list(prefix) if prefix else [Fraction(0)]
        while len(grown) <= k:
            j = len(grown)
            grown.append(grown[-1] + Fraction(1, j**m))
        _HARMONIC_PREFIX[m] = grown
        prefix = grown
    return prefix[k]


@dataclass(frozen=True)
class ShiftedSumSpec:
    """Denotes S_m(base, k) = sum_{i=0}^{k-1} 1/(base+i)^m; length 0 is the empty sum."""

    base: Fraction
    order: int
    length: int

    def __post_init__(self):
        object.__setattr__(self, "base", _fraction(self.base))
        if type(self.order) is not int or self.order < 1:  # 1.5 would sum floats
            raise ValueError("order must be a positive integer")
        if type(self.length) is not int or self.length < 0:
            raise ValueError("length must be nonnegative")


def shifted_power_sum(spec: ShiftedSumSpec) -> Fraction:
    """Evaluate sum_{i=0}^{length-1} 1/(base+i)^order exactly.

    Raises ZeroDenominator when some base + i vanishes inside the range.
    """
    total = Fraction(0)
    base = spec.base
    for i in range(spec.length):
        shifted = base + i
        if not shifted:
            raise ZeroDenominator(f"base {_decimal(base)} + {i} = 0 inside shifted sum of "
                                  f"length {_decimal(spec.length)}")
        total += Fraction(1) / shifted**spec.order
    return total


def binomial_general(x, k: int) -> Fraction:
    """Generalized binomial coefficient x(x-1)...(x-k+1)/k! for rational x."""
    if k < 0:
        raise ValueError("binomial index must be nonnegative")
    x = _fraction(x)
    result = Fraction(1)
    for i in range(k):
        result *= x - i
        if not result:
            return result
    return result / factorial(k)
