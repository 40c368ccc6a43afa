"""Fraction references shared by the test modules."""

from fractions import Fraction
from itertools import accumulate


def harmonic_prefix(count: int, m: int = 1) -> list[Fraction]:
    """[H_0^(m), ..., H_count^(m)], H_k^(m) = sum_{j=1}^{k} 1/j^m, in one running sum: a
    reference that reads H_k for every k pays for the sums once, not once per k."""
    return list(accumulate((Fraction(1, j**m) for j in range(1, count + 1)), initial=Fraction(0)))
