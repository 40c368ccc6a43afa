"""Exact truncated bivariate power series ("jets") over rationals.

A ``Jet2`` stores the coefficients of a polynomial in x and y truncated at a
total degree cap D <= 4.  Ring operations are exact; division is truncated
power-series inversion and requires a unit (nonzero constant term).  Scalars
are ints and Fractions: a float, Decimal or str raises TypeError.  The
coefficient of x^i y^j times i!*j! is the mixed partial derivative at the
origin, which is how every derivative in this library is extracted.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import CapExceeded, CapMismatch, DivByNonUnit
from .padic import _fraction

__all__ = ["Jet2", "pochhammer_jet"]

MAX_DEGREE_CAP = 4

_VAR_EXPONENT = {"x": (1, 0), "y": (0, 1)}

_Scalar = (int, Fraction)


class Jet2:
    """Bivariate truncated power series with total degree <= degree_cap."""

    __slots__ = ("_cap", "_coeffs")

    def __init__(self, coefficients=None, degree_cap: int = 2):
        cap = int(degree_cap)
        if not 0 <= cap <= MAX_DEGREE_CAP:
            raise ValueError(f"degree cap must lie in [0, {MAX_DEGREE_CAP}], got {cap}")
        coeffs: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in dict(coefficients or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent pair ({i}, {j})")
            if i + j > cap:
                raise CapExceeded(f"exponent pair ({i}, {j}) exceeds cap {cap}")
            c = _fraction(c)
            if c:
                coeffs[(i, j)] = c
        self._cap = cap
        self._coeffs = coeffs

    @classmethod
    def _make(cls, cap, coeffs):
        jet = object.__new__(cls)
        jet._cap = cap
        jet._coeffs = coeffs
        return jet

    @classmethod
    def zero(cls, degree_cap: int) -> "Jet2":
        return cls({}, degree_cap)

    @classmethod
    def constant(cls, value, degree_cap: int) -> "Jet2":
        return cls({(0, 0): _fraction(value)}, degree_cap)

    @classmethod
    def variable(cls, var: str, degree_cap: int) -> "Jet2":
        return cls({_VAR_EXPONENT[var]: Fraction(1)}, degree_cap)

    @classmethod
    def linear(cls, constant, var: str, sign: int = 1, degree_cap: int = 2) -> "Jet2":
        """The jet of constant + sign*var."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        coeffs = {(0, 0): _fraction(constant)}
        if degree_cap >= 1:
            coeffs[_VAR_EXPONENT[var]] = Fraction(sign)
        return cls(coeffs, degree_cap)

    @property
    def degree_cap(self) -> int:
        return self._cap

    @property
    def coefficients(self) -> dict[tuple[int, int], Fraction]:
        """Copy of the nonzero coefficient map."""
        return dict(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, i: int, j: int = 0) -> Fraction:
        return self._coeffs.get((i, j), Fraction(0))

    def partial(self, i: int, j: int = 0) -> Fraction:
        """Mixed partial d^{i+j}/dx^i dy^j at the origin: i!*j!*coefficient."""
        if i + j > self._cap:
            raise CapExceeded(f"partial order ({i}, {j}) exceeds cap {self._cap}")
        return factorial(i) * factorial(j) * self.coefficient(i, j)

    def evaluate(self, x, y=0) -> Fraction:
        """Evaluate the truncated polynomial at exact rational arguments."""
        x, y = _fraction(x), _fraction(y)
        total = Fraction(0)
        for (i, j), c in self._coeffs.items():
            total += c * x**i * y**j
        return total

    def _check_cap(self, other: "Jet2"):
        if self._cap != other._cap:
            raise CapMismatch(f"degree caps differ: {self._cap} vs {other._cap}")

    def _coerce(self, other):
        if isinstance(other, _Scalar):
            return Jet2._make(self._cap, {(0, 0): Fraction(other)} if other else {})
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, Jet2):
            return NotImplemented
        self._check_cap(other)
        coeffs = dict(self._coeffs)
        for key, c in other._coeffs.items():
            acc = coeffs.get(key, 0) + c
            if acc:
                coeffs[key] = acc
            else:
                coeffs.pop(key, None)
        return Jet2._make(self._cap, coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, Jet2):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return Jet2._make(self._cap, {k: -c for k, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, _Scalar):
            if not other:
                return Jet2._make(self._cap, {})
            return Jet2._make(self._cap, {k: c * other for k, c in self._coeffs.items()})
        if not isinstance(other, Jet2):
            return NotImplemented
        self._check_cap(other)
        cap = self._cap
        coeffs: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self._coeffs.items():
            for (i2, j2), c2 in other._coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j <= cap:
                    key = (i, j)
                    acc = coeffs.get(key, 0) + c1 * c2
                    if acc:
                        coeffs[key] = acc
                    else:
                        coeffs.pop(key, None)
        return Jet2._make(cap, coeffs)

    __rmul__ = __mul__

    def inverse(self) -> "Jet2":
        """Truncated power-series inverse; requires a unit constant term."""
        c0 = self._coeffs.get((0, 0), Fraction(0))
        if not c0:
            raise DivByNonUnit("jet has zero constant term")
        # 1/f = (1/c0) * sum_t w^t  with  w = 1 - f/c0  (nilpotent past the cap).
        w = Jet2._make(
            self._cap, {k: -c / c0 for k, c in self._coeffs.items() if k != (0, 0)}
        )
        inv = Jet2._make(self._cap, {(0, 0): Fraction(1)})
        power = inv
        for _ in range(self._cap):
            power = power * w
            if power.is_zero:
                break
            inv = inv + power
        return inv * (Fraction(1) / c0)

    def __truediv__(self, other):
        if isinstance(other, _Scalar):
            if not other:
                raise ZeroDivisionError("jet division by zero scalar")
            return self * (Fraction(1) / Fraction(other))
        if not isinstance(other, Jet2):
            return NotImplemented
        self._check_cap(other)
        return self * other.inverse()

    def __eq__(self, other):
        other = self._coerce(other)
        if not isinstance(other, Jet2):
            return NotImplemented
        return self._cap == other._cap and self._coeffs == other._coeffs

    __hash__ = None

    def __repr__(self):
        if not self._coeffs:
            return f"Jet2(0; cap={self._cap})"
        parts = []
        for (i, j), c in sorted(self._coeffs.items()):
            mono = "".join(f"{v}^{e}" if e > 1 else v for v, e in (("x", i), ("y", j)) if e)
            parts.append(f"{c}{'*' + mono if mono else ''}")
        return f"Jet2({' + '.join(parts)}; cap={self._cap})"


def pochhammer_jet(base, sign: int, var: str, k: int, degree_cap: int) -> Jet2:
    """Jet of the rising factorial (base + sign*var)_k truncated at the cap.

    The first-order coefficient is sign*(base)_k*sum_{i<k} 1/(base+i) whenever
    no factor vanishes, matching term-by-term differentiation of the product.
    """
    if k < 0:
        raise ValueError("pochhammer index must be nonnegative")
    base = _fraction(base)
    result = Jet2.constant(1, degree_cap)
    for i in range(k):
        result = result * Jet2.linear(base + i, var, sign, degree_cap)
    return result
