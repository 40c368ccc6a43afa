"""Exact evaluators for the truncated hypergeometric sums under study.

Two code paths exist on purpose.  ``truncated_pfq`` computes each term from
scratch with explicit Pochhammer products; the specialized evaluators below
it sum incremental term ratios (term_{k+1} = term_k * ratio_k, as integer
pairs from ``_ratio_steps``) by binary splitting into one integer over one
denominator, so the big products are balanced instead of one per term
(Haible & Papanikolaou, ANTS-III 1998).  Every such walk is an e-th power,
each ratio (U/V)^e, and the product trees cancel the common factors of the
U and V products at each combine (Cheng, Hanrot, Thome, Zima & Zimmermann,
ISSAC 2007).  Each evaluator returns its pair as a ``padic.Unreduced``: exact,
the one-step walk's pair divided by one positive integer, and never reduced
by a gcd of the whole sum; ``Fraction(v.num, v.den)`` gives the reduced value.
Tests pin the two routes against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import accumulate, repeat
from math import lcm
from operator import mul
from typing import Sequence

from .errors import (
    CapExceeded,
    NotTerminating,
    PreconditionViolated,
    ZeroDenominator,
    ZeroLowerFactor,
)
from .exact_core import pochhammer
from .padic import Unreduced, _decimal, _fraction, is_prime

__all__ = [
    "HyperSeriesSpec",
    "TheoremParams",
    "KarlssonMintonResult",
    "truncated_pfq",
    "karlsson_minton_sum",
    "phi_value",
    "delta_value",
    "theorem_sum",
    "dual_reduction_sum",
    "reflection_differences",
    "taylor_values",
    "second_order_sum",
    "lemma_sums",
    "upsilon_coefficients",
]

_LEAF = 16  # the most steps a product-tree leaf takes one at a time
# Each memo below keeps its last 8 results in any call order; a repeated call gets the same
# object.  typed: a float is another key than its integer twin, refused as on a cold call.
_MEMO = 8


# The most steps times exponent one walk or kernel pass may take, refused before it allocates:
# the step list of a theorem sum at p = 10^9 fills memory.  The verify caps admit at most
# sun-e's 1099 steps at exponent 1101, p = 1100, and p n <= 10^6 for the others.
WALK_CAP = 1_250_000


def _check_walk(steps: int, exponent: int) -> None:
    if steps * exponent > WALK_CAP:
        raise CapExceeded(f"a walk of {_decimal(steps)} steps at exponent {_decimal(exponent)} "
                          f"exceeds the cap {WALK_CAP} on steps times exponent")


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
        object.__setattr__(self, "upper", tuple(_fraction(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(_fraction(b) for b in self.lower))
        object.__setattr__(self, "argument", _fraction(self.argument))
        if type(self.terms) is not int:  # True would sum two terms, 2.5 reach the lower test
            raise TypeError(f"truncation index must be int, got {type(self.terms).__name__}")
        if self.terms < 0:
            raise ValueError("truncation index must be nonnegative")
        for b in self.lower:
            if _vanishing_lower(b, self.terms):
                raise ZeroLowerFactor(f"lower parameter {_decimal(b)} vanishes within "
                                      f"{_decimal(self.terms)} terms")


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
    a = _fraction(a)
    if a.denominator != 1 or a >= 0:
        raise NotTerminating(f"leading parameter {_decimal(a)} is not a negative integer")
    length = -a.numerator
    factors = [(a, 1), (1, -1)]
    total_m = 0
    for b, m in pairs:
        b = _fraction(b)
        if type(m) is not int or m < 0:  # a Fraction or float offset breaks the vanishing
            raise ValueError(f"pair offset {_decimal(m)} must be a nonnegative integer")
        if _vanishing_lower(b, length):
            raise ZeroLowerFactor(f"pair base {_decimal(b)} hits a nonpositive integer in range")
        factors += [(b + m, 1), (b, -1)]
        total_m += m
    violated = not length > total_m
    value = _ratio_sum(tuple(factors), length)
    return KarlssonMintonResult(Fraction(value.num, value.den), violated)


@dataclass(frozen=True)
class TheoremParams:
    """Parameter triple (n, q, p) for the main congruence family.

    Hard requirements (always enforced): int n > 2, int q > 0, prime int p.  The working
    hypotheses -- parity (n even or q odd) and range (p > max(n, (q-1)n+1))
    -- are enforced at construction unless ``exploratory`` is set, in which
    case downstream checks report instead of asserting.
    """

    n: int
    q: int
    p: int
    exploratory: bool = field(default=False, compare=False)

    def __post_init__(self):
        if any(type(v) is not int for v in (self.n, self.q, self.p)):  # bool, float refused
            given = (_decimal(v) if type(v) is int else repr(v) for v in (self.n, self.q, self.p))
            raise TypeError(f"n, q and p must be int, got {', '.join(given)}")
        if self.n <= 2:
            raise PreconditionViolated(f"n must exceed 2, got {_decimal(self.n)}")
        if self.q < 1:
            raise PreconditionViolated(f"q must be positive, got {_decimal(self.q)}")
        if not is_prime(self.p):
            raise PreconditionViolated(f"p = {_decimal(self.p)} is not prime")
        if not (self.exploratory or self.in_hypothesis):
            raise PreconditionViolated("; ".join(self.hypothesis_violations()))

    def hypothesis_violations(self) -> tuple[str, ...]:
        reasons = []
        if self.n % 2 and self.q % 2 == 0:
            reasons.append(f"parity: need n even or q odd "
                           f"(n={_decimal(self.n)}, q={_decimal(self.q)})")
        bound = max(self.n, (self.q - 1) * self.n + 1)
        if self.p <= bound:
            reasons.append(f"range: need p > {_decimal(bound)}, got p={_decimal(self.p)}")
        return tuple(reasons)

    @cached_property  # the fields are frozen, and every report of a tuple reads it
    def in_hypothesis(self) -> bool:
        return not self.hypothesis_violations()

    def as_params(self) -> dict[str, int]:
        return {"n": self.n, "q": self.q, "p": self.p}


def _ratio_steps(factors: Sequence[tuple], last: int) -> list:
    """Integer pairs (u, v) with t_{k+1} / t_k = u / v, for k < last, of the walk
    t_0 = 1, t_{k+1} = t_k * prod_f (c + k)^m.

    Each factor is a (c, m) pair: c an int or a Fraction, m an integer.  A factor with
    m < 0 whose base c + k vanishes at some k < last raises ZeroDenominator
    before any step.  Once a factor with m > 0 vanishes, every later term is
    zero, and the walk stops before that step.
    """
    _check_walk(last, max([1, *(abs(m) for _, m in factors)]))
    split = [(*c.as_integer_ratio(), m) for c, m in factors]
    if any(m < 0 and den == 1 and -last < num <= 0 for num, den, m in split):
        raise ZeroDenominator(f"a denominator base vanishes within {_decimal(last + 1)} terms")
    # c + k = (num + k den) / den vanishes only if den = 1, at k = -num: the columns stop there.
    last = min([last, *(-num for num, den, m in split if m > 0 and den == 1 and num <= 0)])
    sides = [[], []]  # the columns multiplied into u and into v: bases^|m| and den^|m|
    for num, den, m in split:
        if m:
            bases = range(num, num + last * den, den)  # the root walk's factors: no pow at |m| = 1
            sides[m < 0].append(bases if abs(m) == 1 else map(pow, bases, repeat(abs(m))))
            if den != 1:
                sides[m > 0].append(repeat(den ** abs(m)))
    u, v = (reduce(partial(map, mul), side[1:], side[0]) if side else repeat(1, last)
            for side in sides)
    return list(zip(u, v))


def _root_steps(factors: Sequence[tuple], last: int) -> tuple[list, int]:
    # The steps of the walk's e-th root, e the gcd of the factors' |m|: pairs (U, V) of
    # _ratio_steps on the factors (c, m/e), so that each step is (u, v) = (U^e, V^e).  The cap
    # reads the full exponent, before any step is built.
    exponents = [m for _, m in factors]
    _check_walk(last, max([1, *map(abs, exponents)]))
    e = math.gcd(*exponents) or 1
    return _ratio_steps([(c, m // e) for c, m in factors], last), e


def _split(steps: list, e: int, lo: int, hi: int, spine: bool) -> tuple:
    # (PU, QV, T) of the root steps[lo:hi] for _ratio_sum.  Nothing reads PU on the right
    # spine, so it is not formed there.
    if hi - lo <= _LEAF:
        pu = qv = p = 1
        t = 0
        for u, v in steps[lo:hi]:
            pu, qv, p = pu * u, qv * v, p * u**e
            t = t * v**e + p
        return pu, qv, t
    mid = (lo + hi) // 2
    pu1, qv1, t1 = _split(steps, e, lo, mid, False)
    pu2, qv2, t2 = _split(steps, e, mid, hi, spine)
    g = math.gcd(pu1, qv2)
    pu1, qv2 = pu1 // g, qv2 // g
    return None if spine else pu1 * pu2, qv1 * qv2, t1 * qv2**e + pu1**e * t2


@lru_cache(maxsize=_MEMO, typed=True)
def _ratio_sum(factors: tuple, last: int, first: int = 1) -> Unreduced:
    """sum_{k=0}^{last} t_k for the walk of ``_ratio_steps`` started at t_0 = first.

    Binary splitting (Haible & Papanikolaou) on the walk's e-th root, e the gcd of the
    factors' |m|, so that each step is (U^e, V^e), with the common factors of the two products
    cancelled in the tree (Cheng, Hanrot, Thome, Zima & Zimmermann, ISSAC 2007).  Steps a..b-1
    carry PU = prod U and QV = prod V, each divided by the gcds cancelled below, and T, the sum
    of the range's terms over QV^e.  At each combine PU1 and QV2 are divided by
    g = gcd(PU1, QV2), and the halves combine as PU1 PU2, QV1 QV2, T1 QV2^e + PU1^e T2.  With
    Q = QV^e the sum is first (Q + T) / Q: the one-step walk's pair divided by the e-th power
    of the product of every g, and by nothing else.
    """
    if last < 0:
        return Unreduced(0)
    steps, e = _root_steps(factors, last)
    _, qv, t = _split(steps, e, 0, len(steps), True)
    q = qv**e
    return Unreduced(first * (q + t), q)


def phi_value(tp: TheoremParams, x, y) -> Unreduced:
    """sum_{k=0}^{p-q} (q-x)_k (q-y)_k^{n-1} / (1)_k^n at exact rationals; psi(x) at y = x."""
    a, b = (tp.q - _fraction(v) for v in (x, y))
    top = ((a, tp.n),) if a == b else ((a, 1), (b, tp.n - 1))  # psi's key: theorem1's at q = 1
    return _ratio_sum((*top, (1, -tp.n)), tp.p - tp.q)


def delta_value(tp: TheoremParams, x) -> Unreduced:
    """sum_{k=0}^{p-q} (q - p/n + x)_k^n / (1+x)_k^n at an exact rational x."""
    x = _fraction(x)
    offset = tp.q - Fraction(tp.p, tp.n) + x
    return _ratio_sum(((offset, tp.n), (1 + x, -tp.n)), tp.p - tp.q)


def _theorem_factors(n: int, q: int, p: int, dual: bool) -> tuple:
    # The only statement of either theorem walk: (q - p/n + k)^n / (1 + k)^n, or the dual's.
    return ((1, n), (Fraction(p, n) - q + 2, -n)) if dual else ((q - Fraction(p, n), n), (1, -n))


def theorem_sum(n: int, q: int, p: int, dual: bool = False) -> Unreduced:
    """sum_{k=0}^{p-1} (q - p/n)_k^n / (1)_k^n, or with dual p^n sum_{k=0}^{p-1} (1)_k^n /
    (p/n - q + 2)_k^n.  Plain ints: no TheoremParams holds sun-bernoulli's n = 1 or 2.  The
    guo, sun-e, sun-bernoulli and dflst sums are these at the points of verify.CHECKS."""
    factors = _theorem_factors(n, q, p, dual)
    return _ratio_sum(factors, p - 1, p**n) if dual else _ratio_sum(factors, p - 1)


def dual_reduction_sum(tp: TheoremParams) -> Unreduced:
    """sum_{k=0}^{p-1} (q - p/n - p)_k^n / (1-p)_k^n, the reflected dual sum."""
    a = tp.q - Fraction(tp.p, tp.n) - tp.p
    return _ratio_sum(((a, tp.n), (1 - tp.p, -tp.n)), tp.p - 1)


def _steps_mirror(left: list, right: list, count: int) -> bool:
    return len(left) == len(right) == count and all(
        u1 * u2 == v1 * v2 for (u1, v1), (u2, v2) in zip(left, reversed(right)))


def reflection_differences(tp: TheoremParams) -> tuple[Fraction, ...]:
    """(1)_k/(b)_k - (1)_{p-1}/(b)_{p-1} (a)_{p-1-k}/(1-p)_{p-1-k} for k < p, b = p/n - q + 2,
    a = q - p/n - p = 2 - p - b; () when left step k, (1+k)/(b+k), undoes right step p-2-k,
    (a+p-2-k)/(-1-k) = (b+k)/(1+k), as it does when both walks run to the end.  If one stopped
    early, the exact terms from the same pairs, zero after the stop, give the differences."""
    p, b = tp.p, Fraction(tp.p, tp.n) - tp.q + 2
    walks = [(1, 1), (b, -1)], [(2 - p - b, 1), (1 - p, -1)]
    left, right = (_ratio_steps(w, p - 1) for w in walks)
    if _steps_mirror(left, right, p - 1):
        return ()
    tl, tr = ([*accumulate(steps, lambda t, s: t * s[0] / s[1], initial=Fraction(1)),
               *[0] * (p - 1 - len(steps))] for steps in (left, right))
    return tuple(x - tl[-1] * y for x, y in zip(tl, reversed(tr)))


# --- harmonic-weighted sums --------------------------------------------------
#
# Each is S0 = sum t_k, S1 = sum t_k g_k, S2 = sum t_k g_k^2 or Sh = sum t_k h_k, g_k and h_k
# prefix sums of 1/base and 1/base^2: a flat kernel for integer weights, a tree for the offset.


def _harmonic_split(steps: list, e: int, lo: int, hi: int) -> tuple:
    """(PU, WV, F, A, C, S0, S1, S2, SC) of steps[lo:hi], each (U, V, f, a, c) taking t to
    t (U/V)^e, g to g + a/f and h to h + c/f^2 from t = 1, g = h = 0: PU, WV and F are the
    products of U, V and f (PU and WV each divided by the gcds cancelled below), A = F sum a/f,
    C = F^2 sum c/f^2, then sum t, t g, t g^2, t h after each step over W, W F, W F^2, W F^2
    with W = WV^e.  At each combine PU1 and WV2 are divided by g = gcd(PU1, WV2), as in _split:
    each term of each sum holds W2 or P1 = PU1^e once, so the sums stay over those products."""
    if hi - lo <= _LEAF:
        pu = wv = p = w = f = 1
        a = c = s0 = s1 = s2 = sc = 0
        for uk, vk, fk, ak, ck in steps[lo:hi]:
            pu, wv, uk, wk = pu * uk, wv * vk, uk**e, vk**e
            a, c, p, wf = a * fk + ak * f, c * fk * fk + ck * f * f, p * uk, wk * fk
            f, w, pa = f * fk, w * wk, p * a
            s0, s1, s2, sc = s0 * wk + p, s1 * wf + pa, s2 * wf * fk + pa * a, sc * wf * fk + p * c
        return pu, wv, f, a, c, s0, s1, s2, sc
    mid = (lo + hi) // 2
    pu1, wv1, f1, a1, c1, s01, s11, s21, sc1 = _harmonic_split(steps, e, lo, mid)
    pu2, wv2, f2, a2, c2, s02, s12, s22, sc2 = _harmonic_split(steps, e, mid, hi)
    g = math.gcd(pu1, wv2)
    pu1, wv2 = pu1 // g, wv2 // g
    p1, w2 = pu1**e, wv2**e
    ff1, ff2, wf, x, y = f1 * f1, f2 * f2, w2 * f2, a1 * f2 * s02, s12 * f1
    return (pu1 * pu2, wv1 * wv2, f1 * f2, a1 * f2 + a2 * f1, c1 * ff2 + c2 * ff1,
            s01 * w2 + p1 * s02, s11 * wf + p1 * (x + y),
            s21 * wf * f2 + p1 * (a1 * f2 * (x + 2 * y) + s22 * ff1),
            sc1 * wf * f2 + p1 * (c1 * s02 * ff2 + sc2 * ff1))


@lru_cache(maxsize=_MEMO, typed=True)
def _binomial_sums(n: int, q: int, last: int, plus: int, minus: int = 0,
                   top: int | None = None) -> tuple[int, int, int, int, int]:
    """(S0, S1, S2, Sh, L) over k = 0..last, integers over 1, L, L^2 and L^2, with
    t_k = C(q+k-1, k)^n, times (-1)^k C(top, k) if top is given.  g and h start at 0; with
    a = L/(plus+k-1) and b = L/(minus+k-1), or b = 0 if minus is 0, the step to k adds a - b
    to g and a^2 - b^2 to h; L is the lcm of those bases."""
    _check_walk(last, n)
    scale = lcm(*range(plus, plus + last), *(range(minus, minus + last) if minus else ()))
    s0 = s1 = s2 = sh = g = h = 0
    c = d = 1  # C(q+k-1, k) and (-1)^k C(top, k), by their exact recurrences
    for k in range(last + 1):
        if k:
            c = c * (q + k - 1) // k
            if top is not None:
                d = -d * (top - k + 1) // k
            a, b = scale // (plus + k - 1), (scale // (minus + k - 1) if minus else 0)
            g, h = g + a - b, h + (a - b) * (a + b)
        t = c**n * d
        tg = t * g
        s0, s1, s2, sh = s0 + t, s1 + tg, s2 + tg * g, sh + t * h
    return s0, s1, s2, sh, scale


@lru_cache(maxsize=_MEMO, typed=True)
def _offset_walk(tp: TheoremParams) -> tuple[int, int, int, int, int]:
    """(S0, S1, S2, Sh, D) over k = 0..p-q, all over D = W F^2 of _harmonic_split, for
    t_k = (c)_k^n/(1)_k^n, c = q - p/n, g_k = sum_{i<k} 1/(c+i) - 1/(1+i) and h_k its squares.
    Step k is the theorem1 walk's n-th root, (nk-e, nk) up to a factor common to both, then
    (f, a, c) = ((nk-e)k, e, e(2nk-e)), e = p-n(q-1)."""
    n, q, p = tp.n, tp.q, tp.p
    e = p - n * (q - 1)
    roots, m = _root_steps(_theorem_factors(n, q, p, False), p - q)  # m = n
    steps = [(u, v, (n * k - e) * k, e, e * (2 * n * k - e))
             for k, (u, v) in enumerate(roots, 1)]
    _, wv, f, _, _, s0, s1, s2, sc = _harmonic_split(steps, m, 0, len(steps))
    w = wv**m
    return (w * (p >= q) + s0) * f * f, s1 * f, s2, sc, w * f * f  # no t_0 term when p < q


def taylor_values(tp: TheoremParams) -> tuple[Unreduced, Unreduced, Unreduced]:
    """The degree-2 Taylor values at 0 of psi at p/n, phi at (p, 0) and Delta at -p."""
    n, q, p = tp.n, tp.q, tp.p
    # (q-x)_k/(q)_k = exp(-x g - x^2 h/2 - ...), g and h summing 1/(q+i)^(1, 2), i < k.
    s0, s1, s2, sh, scale = _binomial_sums(n, q, p - q, q)
    low = 2 * (s0 * scale - p * s1) * scale  # the terms of degree 0 and 1, over 2 L^2
    psi = Unreduced(n * low + p * p * (n * s2 - sh), 2 * n * scale**2)
    phi = Unreduced(low + p * p * (s2 - sh), 2 * scale**2)
    # (c+x)_k/(1+x)_k = (c)_k/(1)_k exp(x g - x^2 h/2 - ...), to the n-th power, at x = -p.
    s0, s1, s2, sh, den = _offset_walk(tp)
    return psi, phi, Unreduced(2 * (s0 - n * p * s1) + n * p * p * (n * s2 - sh), 2 * den)


def second_order_sum(tp: TheoremParams) -> Unreduced:
    """sum_{k=0}^{p-q} (q)_k^n/(1)_k^n sum_{i<k} 1/(q+i)^2, the p2-reduction's second-order sum."""
    *_, sh, scale = _binomial_sums(tp.n, tp.q, tp.p - tp.q, tp.q)
    return Unreduced(sh, scale**2)


def lemma_sums(tp: TheoremParams) -> tuple[Unreduced, ...]:
    """H2_{q-1} S, sum w_k H2_{q+k-1}, sum w_k H2_k, sum w_k (H_k - H_{q+k-1}) and
    sum w_k (H_k^2 - H_{q+k-1}^2), w_k = (q)_k^n/(1)_k^n over k = 0..p-q and S = sum w_k, then
    sum t_k g_k and sum t_k g_k^2 of the offset walk."""
    n, q, p = tp.n, tp.q, tp.p
    if p == n and q == 1:  # c + i = 0 means p = n(q+i): p = n, q = 1, i = 0 for a prime p
        raise ZeroDenominator("offset base 0 + 0 vanishes")
    # H_{q+k-1} = H_{q-1} + the shifted sums' g over L' = lcm(q..p-1), H_k over lcm(1..p-q).
    s0, t1, t2, th, shifted = _binomial_sums(n, q, p - q, q)
    _, a1, a2, ah, plain = _binomial_sums(n, q, p - q, 1)  # H_k; at q = 1 the same pass
    e, a, b = 1, 0, 0  # H_{q-1} = a/e, H2_{q-1} = b/e^2: none at q = 1, nor at q > p (no weights)
    if 1 < q <= p:  # sums of 1/(1+k)^m over k < q-1 on the product tree, one root walk for both
        roots, _ = _root_steps(((1, 2), (2, -2)), q - 2)
        (_, d, a), (_, d2, b) = (_split(roots, m, 0, len(roots), True) for m in (1, 2))
        d2 **= 2  # each tree's own denominator, QV^m, read as it comes
        e = d * (d2 // math.gcd(d2, d * d))  # a multiple of d whose square d2 divides
        a, b = (a + d) * (e // d), (b + d2) * (e * e // d2)
    g, h, scale = a * shifted, b * shifted**2, e * shifted  # H_{q+k-1} over scale = e L'
    s1, s2, sh = g * s0 + e * t1, g * g * s0 + 2 * g * e * t1 + e * e * t2, h * s0 + e * e * th
    _, o1, o2, _, den = _offset_walk(tp)
    return (Unreduced(h * s0, scale**2), Unreduced(sh, scale**2), Unreduced(ah, plain**2),
            Unreduced(a1 * scale - plain * s1, plain * scale),
            Unreduced(a2 * scale**2 - plain**2 * s2, (plain * scale) ** 2),
            Unreduced(o1, den), Unreduced(o2, den))


def upsilon_coefficients(tp: TheoremParams) -> tuple[Unreduced, ...]:
    """The coefficients of 1, x, y, x^2, y^2 and xy at (0, 0) of
    sum_{k=0}^{p-1} (1-p)_k (q+x)_k (q+y)_k (q)_k^{n-2} / ((1)_k^{n-1} (1+x)_k (1+y)_k).
    Each axis gives (q+v)_k/(1+v)_k: g and h sum 1/(q+i) - 1/(1+i) and the squares."""
    n, q, p = tp.n, tp.q, tp.p
    s0, s1, s2, sh, scale = _binomial_sums(n, q, p - 1, q, 1, top=p - 1)
    linear, square = Unreduced(s1, scale), Unreduced(s2 - sh, 2 * scale**2)
    return Unreduced(s0), linear, linear, square, square, Unreduced(s2, scale**2)
