"""Exact evaluators for the truncated hypergeometric sums under study.

Two code paths exist on purpose.  ``truncated_pfq`` computes each term from
scratch with explicit Pochhammer products; the specialized evaluators below
it walk incremental term ratios (term_{k+1} = term_k * ratio_k) in integers
over one running denominator (``_ratio_steps``), which keeps a full sweep
near-linear in the number of terms.  Tests pin the two routes against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .errors import (
    NotTerminating,
    PreconditionViolated,
    ZeroDenominator,
    ZeroLowerFactor,
)
from .exact_core import pochhammer
from .jets import Jet2
from .padic import is_prime

__all__ = [
    "HyperSeriesSpec",
    "TheoremParams",
    "KarlssonMintonResult",
    "truncated_pfq",
    "karlsson_minton_sum",
    "psi_value",
    "phi_value",
    "delta_value",
    "lhs_theorem1",
    "lhs_theorem2",
    "dual_reduction_sum",
    "theorem2_prefactor",
    "guo_sum",
    "sun_e_sum",
    "sun_bernoulli_lhs",
    "dflst_sum",
    "dflst_dual",
    "upsilon_jet",
    "phi_jet",
    "psi_jet",
    "delta_jet",
]


def _vanishing_lower(b: Fraction, terms: int) -> bool:
    # (b)_k = 0 for some k <= terms  iff  b is an integer in [-(terms-1), 0]
    return b.denominator == 1 and -(terms - 1) <= b.numerator <= 0


@dataclass(frozen=True)
class HyperSeriesSpec:
    """Parameters of a truncated series sum_{k=0}^{terms} prod(a_i)_k / prod(b_j)_k * z^k/k!."""

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    argument: Fraction
    terms: int

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(Fraction(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(Fraction(b) for b in self.lower))
        object.__setattr__(self, "argument", Fraction(self.argument))
        if self.terms < 0:
            raise ValueError("truncation index must be nonnegative")
        for b in self.lower:
            if _vanishing_lower(b, self.terms):
                raise ZeroLowerFactor(
                    f"lower parameter {b} vanishes within {self.terms} terms"
                )


def truncated_pfq(spec: HyperSeriesSpec) -> Fraction:
    """Evaluate the truncated series exactly, term by term from scratch."""
    total = Fraction(0)
    kfact = 1
    for k in range(spec.terms + 1):
        if k:
            kfact *= k
        term = spec.argument**k / kfact
        for a in spec.upper:
            term *= pochhammer(a, k)
        if not term:
            continue
        for b in spec.lower:
            term /= pochhammer(b, k)
        total += term
    return total


@dataclass(frozen=True)
class KarlssonMintonResult:
    """Value of a terminating Karlsson-Minton sum, flagged when evaluated
    outside the hypothesis -a > m_1 + ... + m_r (the vanishing is then not
    guaranteed)."""

    value: Fraction
    hypothesis_violated: bool


def karlsson_minton_sum(a, pairs: Sequence[tuple]) -> KarlssonMintonResult:
    """Evaluate sum_{k=0}^{-a} (a)_k prod(b_j+m_j)_k / ((1)_k prod(b_j)_k).

    ``a`` must be a negative integer so the sum terminates at k = -a.  Under
    the hypothesis -a > sum(m_j) the value is exactly zero; outside it the
    value is still returned but flagged.
    """
    a = Fraction(a)
    if a.denominator != 1 or a >= 0:
        raise NotTerminating(f"leading parameter {a} is not a negative integer")
    length = -a.numerator
    factors = [(a, 1), (1, -1)]
    total_m = 0
    for b, m in pairs:
        b = Fraction(b)
        if m < 0:
            raise ValueError(f"pair offset {m} must be a nonnegative integer")
        if _vanishing_lower(b, length):
            raise ZeroLowerFactor(f"pair base {b} hits a nonpositive integer in range")
        factors += [(b + m, 1), (b, -1)]
        total_m += m
    violated = not length > total_m
    return KarlssonMintonResult(_ratio_sum(factors, length), violated)


@dataclass(frozen=True)
class TheoremParams:
    """Parameter triple (n, q, p) for the main congruence family.

    Hard requirements (always enforced): n > 2, q > 0, p prime.  The working
    hypotheses -- parity (n even or q odd) and range (p > max(n, (q-1)n+1))
    -- are enforced at construction unless ``exploratory`` is set, in which
    case downstream checks report instead of asserting.
    """

    n: int
    q: int
    p: int
    exploratory: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.n <= 2:
            raise PreconditionViolated(f"n must exceed 2, got {self.n}")
        if self.q < 1:
            raise PreconditionViolated(f"q must be positive, got {self.q}")
        if not is_prime(self.p):
            raise PreconditionViolated(f"p = {self.p} is not prime")
        if not self.exploratory:
            reasons = self.hypothesis_violations()
            if reasons:
                raise PreconditionViolated("; ".join(reasons))

    def hypothesis_violations(self) -> tuple[str, ...]:
        reasons = []
        if self.n % 2 and self.q % 2 == 0:
            reasons.append(f"parity: need n even or q odd (n={self.n}, q={self.q})")
        bound = max(self.n, (self.q - 1) * self.n + 1)
        if self.p <= bound:
            reasons.append(f"range: need p > {bound}, got p={self.p}")
        return tuple(reasons)

    @property
    def in_hypothesis(self) -> bool:
        return not self.hypothesis_violations()

    def as_params(self) -> dict[str, int]:
        return {"n": self.n, "q": self.q, "p": self.p}


def _ratio_steps(factors: Sequence[tuple], last: int):
    """Integer pairs (u, v) with t_{k+1} / t_k = u / v, for k < last, of the walk
    t_0 = 1, t_{k+1} = t_k * prod_f (c + k)^m.

    Each factor is a (c, m) pair: c rational, m an integer.  A factor with
    m < 0 whose base c + k vanishes at some k < last raises ZeroDenominator
    before any step.  Once a factor with m > 0 vanishes, every later term is
    zero, and the walk stops before that step.
    """
    split = [(*Fraction(c).as_integer_ratio(), m) for c, m in factors]
    if any(m < 0 and den == 1 and -last < num <= 0 for num, den, m in split):
        raise ZeroDenominator(f"a denominator base vanishes within {last + 1} terms")
    for k in range(last):
        u = v = 1
        for num, den, m in split:
            base = num + k * den  # c + k = base / den
            u, v = (u * base**m, v * den**m) if m > 0 else (u * den**-m, v * base**-m)
        if not u:
            return
        yield u, v


def _ratio_sum(factors: Sequence[tuple], last: int) -> Fraction:
    """sum_{k=0}^{last} t_k for the walk of ``_ratio_steps``.

    The partial sums are kept as one integer over one running integer
    denominator and reduced once at the end, so a step costs a few integer
    products instead of a gcd of large numbers.
    """
    if last < 0:
        return Fraction(0)
    top = den = acc = 1  # t_k = top / den, and the partial sum is acc / den
    for u, v in _ratio_steps(factors, last):
        top *= u
        acc = acc * v + top
        den *= v
    return Fraction(acc, den)


def psi_value(tp: TheoremParams, x) -> Fraction:
    """sum_{k=0}^{p-q} (q-x)_k^n / (1)_k^n at an exact rational x."""
    return _ratio_sum([(tp.q - Fraction(x), tp.n), (1, -tp.n)], tp.p - tp.q)


def phi_value(tp: TheoremParams, x, y) -> Fraction:
    """sum_{k=0}^{p-q} (q-x)_k (q-y)_k^{n-1} / (1)_k^n at exact rationals."""
    n, q, p = tp.n, tp.q, tp.p
    return _ratio_sum([(q - Fraction(x), 1), (q - Fraction(y), n - 1), (1, -n)], p - q)


def delta_value(tp: TheoremParams, x) -> Fraction:
    """sum_{k=0}^{p-q} (q - p/n + x)_k^n / (1+x)_k^n at an exact rational x."""
    x = Fraction(x)
    offset = tp.q - Fraction(tp.p, tp.n) + x
    return _ratio_sum([(offset, tp.n), (1 + x, -tp.n)], tp.p - tp.q)


def lhs_theorem1(tp: TheoremParams) -> Fraction:
    """Full sum_{k=0}^{p-1} (q - p/n)_k^n / (1)_k^n."""
    return _ratio_sum([(tp.q - Fraction(tp.p, tp.n), tp.n), (1, -tp.n)], tp.p - 1)


def lhs_theorem2(tp: TheoremParams) -> Fraction:
    """p^n * sum_{k=0}^{p-1} (1)_k^n / (p/n - q + 2)_k^n."""
    base = Fraction(tp.p, tp.n) - tp.q + 2
    return Fraction(tp.p) ** tp.n * _ratio_sum([(1, tp.n), (base, -tp.n)], tp.p - 1)


def dual_reduction_sum(tp: TheoremParams) -> Fraction:
    """sum_{k=0}^{p-1} (q - p/n - p)_k^n / (1-p)_k^n, the reflected dual sum."""
    a = tp.q - Fraction(tp.p, tp.n) - tp.p
    return _ratio_sum([(a, tp.n), (1 - tp.p, -tp.n)], tp.p - 1)


def theorem2_prefactor(tp: TheoremParams) -> Fraction:
    """p^n (1)_{p-1}^n / (p/n - q + 2)_{p-1}^n, the unit carried by reflection."""
    base = Fraction(tp.p, tp.n) - tp.q + 2
    steps = list(_ratio_steps([(1, tp.n), (base, -tp.n)], tp.p - 1))
    return Fraction(tp.p**tp.n * prod(u for u, _ in steps), prod(v for _, v in steps))


def guo_sum(d: int, p: int) -> Fraction:
    """sum_{k=0}^{p-1} (1/d)_k^d / k!^d."""
    return _ratio_sum([(Fraction(1, d), d), (1, -d)], p - 1)


def sun_e_sum(p: int) -> Fraction:
    """sum_{k=0}^{p-1} (1/(p+1))_k^{p+1} / k!^{p+1}."""
    return _ratio_sum([(Fraction(1, p + 1), p + 1), (1, -p - 1)], p - 1)


def sun_bernoulli_lhs(p: int, n: int) -> Fraction:
    """sum_{k=0}^{p-1} (1 - p/n)_k^n / (1)_k^n."""
    return _ratio_sum([(1 - Fraction(p, n), n), (1, -n)], p - 1)


def dflst_sum(n: int, p: int) -> Fraction:
    """sum_{k=0}^{p-1} (1 - 1/n)_k^n / (1)_k^n."""
    return _ratio_sum([(1 - Fraction(1, n), n), (1, -n)], p - 1)


def dflst_dual(n: int, p: int) -> Fraction:
    """p^n * sum_{k=0}^{p-1} (1)_k^n / (1 + 1/n)_k^n."""
    return Fraction(p) ** n * _ratio_sum([(1, n), (1 + Fraction(1, n), -n)], p - 1)


# --- jet-valued sums ---------------------------------------------------------
#
# Each jet is sum_k w_k X_k(x) Y_k(y), read off from running truncated
# products, not Jet2 products.  A factor (c + i + sign*v)^m is (c + i)^m,
# folded into the weight w_k, times (1 + sign*v/(c + i))^m = (1 + r*u)^m with
# u = v/L for the lcm L of the bases on v's axis and the integer
# r = sign*d*(L // a), where c + i = a/d.  Its u^j coefficient is the
# integer C(m, j) r^j (C(j-m-1, j) (-r)^j for m < 0), so each running product
# keeps its v^j coefficient times L^j as an integer.  A zero base gives the
# monomial (sign*v)^m = (sign*L*u)^m.  As in ``_ratio_sum``, w_k = top/den and
# each partial-sum coefficient is an integer over den; every _REDUCE_EVERY
# steps, dividing all of them by their gcd keeps them near reduced size at
# large p.  Jet2 and pochhammer_jet stay as the ring-arithmetic oracle of the tests.

_REDUCE_EVERY = 32


def _product_jet(last: int, factors: Sequence[tuple], cap: int) -> Jet2:
    """Jet at (0,0) of sum_{k=0}^{last} prod_{i<k} prod_f (c + i + sign*v)^m.

    Each factor is a (c, m, sign, axis) tuple: v is x on axis 0 and y on
    axis 1, and m may be negative.  sign 0 marks a scalar factor, whose base
    must not vanish.
    """
    split = [(*c.as_integer_ratio(), m, s, a) for c, m, s, a in factors]
    lcms = [lcm(*(n + k * d for n, d, _, s, a in split if s and a == axis
                  for k in range(last) if n + k * d)) for axis in (0, 1)]
    axes = {a for *_, s, a in split if s}  # the product on any other axis stays 1
    prods = [[1] + [0] * cap if axis in axes else [1] for axis in (0, 1)]
    keys = [(i, j) for i in range(len(prods[0])) for j in range(len(prods[1])) if i + j <= cap]
    top = den = 1  # w_k = top / den; after each step's rd is folded in, the sums are acc / den
    acc, rd = [0] * len(keys), 1
    for k in range(last + 1):
        ex, ey = prods
        acc = [z * rd + top * ex[i] * ey[j] for z, (i, j) in zip(acc, keys)]
        if k == last or not any(ex) or not any(ey):
            break  # a vanished product stays zero for every later term
        if k % _REDUCE_EVERY == _REDUCE_EVERY - 1:
            g = gcd(top, den, *acc)
            top, den, acc = top // g, den // g, [z // g for z in acc]
        rn = rd = 1
        for num, d, m, sign, axis in split:
            a = num + k * d  # the base c + k is a / d
            if sign and not a and m > 0:
                scale = (sign * lcms[axis]) ** m
                prods[axis] = ([0] * m + [z * scale for z in prods[axis]])[: cap + 1]
                continue
            rn, rd = (rn * a**m, rd * d**m) if m > 0 else (rn * d**-m, rd * a**-m)
            if sign:  # C(m, j) r^j from C(m, j-1) r^(j-1), exactly, for either sign of m
                r, term, prev = sign * d * (lcms[axis] // a), 1, prods[axis][:]
                for j in range(1, cap + 1):
                    term = term * r * (m - j + 1) // j
                    for t in range(j, cap + 1):
                        prods[axis][t] += term * prev[t - j]
        top, den = top * rn, den * rd
    return Jet2({key: Fraction(z, den * lcms[0] ** key[0] * lcms[1] ** key[1])
                 for key, z in zip(keys, acc)}, cap)


def upsilon_jet(tp: TheoremParams, degree_cap: int = 2) -> Jet2:
    """Jet at (0,0) of
    sum_{k=0}^{p-1} (1-p)_k (q+x)_k (q+y)_k (q)_k^{n-2} / ((1)_k^{n-1} (1+x)_k (1+y)_k).

    For in-range parameters the terminating Karlsson-Minton identity applies
    coefficient-wise and the result is the zero jet.
    """
    n, q, p = tp.n, tp.q, tp.p
    factors = [(1 - p, 1, 0, 0), (q, n - 2, 0, 0), (1, 1 - n, 0, 0)]
    for axis in (0, 1):
        factors += [(q, 1, 1, axis), (1, -1, 1, axis)]
    return _product_jet(p - 1, factors, degree_cap)


def phi_jet(tp: TheoremParams, degree_cap: int = 2) -> Jet2:
    """Jet at (0,0) of sum_{k=0}^{p-q} (q-x)_k (q-y)_k^{n-1} / (1)_k^n."""
    n, q, p = tp.n, tp.q, tp.p
    factors = [(q, 1, -1, 0), (q, n - 1, -1, 1), (1, -n, 0, 0)]
    return _product_jet(p - q, factors, degree_cap)


def psi_jet(tp: TheoremParams, degree_cap: int = 2) -> Jet2:
    """Univariate jet at 0 of sum_{k=0}^{p-q} (q-x)_k^n / (1)_k^n."""
    n, q, p = tp.n, tp.q, tp.p
    return _product_jet(p - q, [(q, n, -1, 0), (1, -n, 0, 0)], degree_cap)


def delta_jet(tp: TheoremParams, degree_cap: int = 2) -> Jet2:
    """Univariate jet at 0 of sum_{k=0}^{p-q} (q - p/n + x)_k^n / (1+x)_k^n."""
    n, q, p = tp.n, tp.q, tp.p
    offset = q - Fraction(p, n)
    return _product_jet(p - q, [(offset, n, 1, 0), (1, -n, 1, 0)], degree_cap)
