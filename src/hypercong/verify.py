"""Congruence verdicts: every theorem, lemma and proof-step identity is a
named check returning a structured :class:`CongruenceReport`.

A report's achieved valuation is always computed exactly on the rational
difference, never by trial division of residues, so it cannot be capped by
the modulus precision.  It is computed on the unreduced difference: every
sum reaches ``check_congruence`` as a ``padic.Unreduced`` (num, den) pair,
whose valuation and residue need no gcd.  Exact identities (value must be
zero, not just zero mod p^k) are encoded with ``required_ord = math.inf``;
for those no finite residue is attached.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm
from operator import mul

from . import padic
from .errors import CapExceeded, PreconditionViolated, ZeroDenominator
from .padic import (
    PrimePowerModulus,
    Residue,
    Unreduced,
    bernoulli,
    is_prime,
    morita_gamma,
)
from .series import (
    TheoremParams,
    _ratio_steps,
    delta_jet,
    delta_value,
    dflst_dual,
    dflst_sum,
    dual_reduction_sum,
    guo_sum,
    lhs_theorem1,
    lhs_theorem2,
    phi_jet,
    phi_value,
    psi_value,
    sun_bernoulli_lhs,
    sun_e_sum,
    upsilon_jet,
)

__all__ = [
    "Verdict",
    "CongruenceReport",
    "check_congruence",
    "verify_theorem1",
    "verify_theorem2",
    "verify_guo",
    "verify_sun_e",
    "verify_sun_bernoulli",
    "verify_dflst_pair",
    "verify_lemma_suite",
    "verify_taylor",
    "verify_exact_identities",
]

# The harmonic prefixes of the lemma suite and the identities hold p integers of
# about 3p bits each; a larger p is refused before any sum is evaluated.
PREFIX_LIMIT = 10**4


# A check: its verify function's positional parameters and name (looked up at call time,
# so a wrapper installed here is seen), the required_ord of the bare report an inexpressible
# exploratory tuple gets, and its domain: given those arguments, is the check defined.
Check = namedtuple("Check", "params function required_ord domain")
_TRIPLE = ("n", "q", "p")


def _triple_domain(n, q, p):
    return n > 2  # TheoremParams owns the rest; every grid axis starts at 1, so q > 0


CHECKS = {
    "theorem1": Check(_TRIPLE, "verify_theorem1", 3, _triple_domain),
    "theorem2": Check(_TRIPLE, "verify_theorem2", 3, _triple_domain),
    "guo": Check(("d", "p"), "verify_guo", 3,
                 lambda d, p: d >= 4 and d % 2 == 0 and (p + 1) % d == 0 and is_prime(p)),
    "sun-e": Check(("p",), "verify_sun_e", 5, lambda p: p > 3 and is_prime(p)),
    "sun-bernoulli": Check(("p", "n"), "verify_sun_bernoulli", 5,
                           lambda p, n: p > 3 and n >= 1 and n % p != 0 and is_prime(p)),
    "dflst": Check(("n", "p"), "verify_dflst_pair", 3, lambda n, p: n >= 3 and p % n == 1
                   and p**3 <= padic.MORITA_CAP and is_prime(p)),
    "lemmas": Check(_TRIPLE, "verify_lemma_suite", 1, _triple_domain),
    "taylor": Check(_TRIPLE, "verify_taylor", 3, _triple_domain),
    "identities": Check(_TRIPLE, "verify_exact_identities", 3, _triple_domain),
}


def _refuse_outside_domain(check: str, words: str, *args) -> None:
    # The one refusal of a check that takes no TheoremParams: words state its domain.
    if not CHECKS[check].domain(*args):
        given = ", ".join(f"{name}={value}" for name, value in zip(CHECKS[check].params, args))
        raise PreconditionViolated(f"{check} needs {words}, got {given}")


def _check_p_caps(check_ids, p: int) -> None:
    # Lets a sweep refuse its largest prime before any unit runs, as the checks would.
    if {"lemmas", "identities"} & set(check_ids):
        _check_prefix_limit(p)
    if "sun-bernoulli" in check_ids:
        padic._check_bernoulli_index(p - 3)


class Verdict(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    ILL_POSED = "ill_posed"
    HYPOTHESIS_VIOLATED = "hypothesis_violated"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class CongruenceReport:
    """Structured verdict for one congruence or exact-identity check.

    ``required_ord`` is math.inf for exact identities.  ``achieved_ord`` is
    None only for skipped checks.  The residue is present exactly when the
    difference is p-integral and the required valuation is finite.
    """

    check_id: str
    params: dict
    required_ord: int | float
    achieved_ord: int | float | None
    residue_at_required: Residue | None
    verdict: Verdict

    @property
    def observed_holds(self) -> bool | None:
        """Whether the valuation reaches the requirement, ignoring the tag."""
        if self.achieved_ord is None:
            return None
        return self.achieved_ord >= self.required_ord


def check_congruence(lhs, rhs, m: PrimePowerModulus, *, check_id: str = "congruence",
                     params: dict | None = None) -> CongruenceReport:
    """Compare lhs and rhs mod p^k; verdict holds iff ord_p(lhs - rhs) >= k."""
    diff = Unreduced(lhs) - rhs  # each an int, Fraction or Unreduced; never reduced
    achieved = diff.ord(m.p)
    params = dict(params or {})
    if achieved < 0:
        return CongruenceReport(check_id, params, m.k, achieved, None, Verdict.ILL_POSED)
    residue = diff.residue(m)
    verdict = Verdict.HOLDS if achieved >= m.k else Verdict.FAILS
    return CongruenceReport(check_id, params, m.k, achieved, residue, verdict)


def _exact_report(values, p: int, check_id: str, params: dict) -> CongruenceReport:
    # Exact identity: every value must be the rational zero.  The valuation is
    # the least over the values, inf when there are none.
    values = [Unreduced(v) for v in values]
    achieved = min((v.ord(p) for v in values), default=math.inf)
    verdict = Verdict.FAILS if any(values) else Verdict.HOLDS
    return CongruenceReport(check_id, dict(params), math.inf, achieved, None, verdict)


def _tag(report: CongruenceReport, tp: TheoremParams) -> CongruenceReport:
    # Out-of-hypothesis runs (only exploratory ones exist) are observations, never assertions.
    if not tp.in_hypothesis and report.verdict is not Verdict.SKIPPED:
        return replace(report, verdict=Verdict.HYPOTHESIS_VIOLATED)
    return report


def verify_theorem1(tp: TheoremParams) -> CongruenceReport:
    """sum_{k=0}^{p-1} (q - p/n)_k^n / (1)_k^n = 0 (mod p^3)."""
    m = PrimePowerModulus(tp.p, 3)
    return _tag(check_congruence(lhs_theorem1(tp), 0, m,
                                 check_id="theorem1", params=tp.as_params()), tp)


def verify_theorem2(tp: TheoremParams) -> CongruenceReport:
    """p^n sum_{k=0}^{p-1} (1)_k^n / (p/n - q + 2)_k^n = 0 (mod p^3)."""
    m = PrimePowerModulus(tp.p, 3)
    return _tag(check_congruence(lhs_theorem2(tp), 0, m,
                                 check_id="theorem2", params=tp.as_params()), tp)


def verify_guo(d: int, p: int) -> CongruenceReport:
    """sum_{k=0}^{p-1} (1/d)_k^d / k!^d = 0 (mod p^3) for even d >= 4, p = -1 (mod d).

    The sum is exactly the theorem1 left side at n = d, q = (p+1)/d, which is
    how the congruence is proved; the tests pin that equality.
    """
    _refuse_outside_domain("guo", "an even d >= 4 and a prime p = -1 (mod d)", d, p)
    return check_congruence(guo_sum(d, p), 0, PrimePowerModulus(p, 3),
                            check_id="guo", params={"d": d, "p": p})


def verify_sun_e(p: int) -> CongruenceReport:
    """sum_{k=0}^{p-1} (1/(p+1))_k^{p+1} / k!^{p+1} = 0 (mod p^5) for p > 3."""
    _refuse_outside_domain("sun-e", "a prime p > 3", p)
    return check_congruence(sun_e_sum(p), 0, PrimePowerModulus(p, 5),
                            check_id="sun-e", params={"p": p})


def verify_sun_bernoulli(p: int, n: int) -> CongruenceReport:
    """sum (1 - p/n)_k^n / (1)_k^n = (n-1)(7n-5)/(36 n^2) p^4 B_{p-3} (mod p^5)."""
    _refuse_outside_domain("sun-bernoulli", "a prime p > 3 and a positive n coprime to p", p, n)
    rhs = Fraction((n - 1) * (7 * n - 5), 36 * n * n) * Fraction(p) ** 4 * bernoulli(p - 3)
    return check_congruence(sun_bernoulli_lhs(p, n), rhs, PrimePowerModulus(p, 5),
                            check_id="sun-bernoulli", params={"p": p, "n": n})


def verify_dflst_pair(n: int, p: int) -> tuple[CongruenceReport, CongruenceReport]:
    """The Gamma-valued pair for n >= 3 and p = 1 (mod n), both mod p^3:

    sum_{k=0}^{p-1} (1 - 1/n)_k^n / (1)_k^n      = -Gamma_p(1/n)^n
    p^n sum_{k=0}^{p-1} (1)_k^n / (1 + 1/n)_k^n  = -Gamma_p(1/n)^n

    The right side is the n-th power of the Morita Gamma residue at
    precision p^3; achieved valuations are relative to its canonical lift.
    """
    _refuse_outside_domain("dflst", "n >= 3 and a prime p = 1 (mod n) with p^3 <= "
                           f"the Morita cap {padic.MORITA_CAP}", n, p)
    m = PrimePowerModulus(p, 3)
    gamma = morita_gamma(Fraction(1, n), m).value
    rhs = -pow(gamma, n, m.modulus) % m.modulus
    params = {"n": n, "p": p}
    sums = {"dflst/sum": dflst_sum(n, p), "dflst/dual": dflst_dual(n, p)}
    return tuple(check_congruence(v, rhs, m, check_id=c, params=params) for c, v in sums.items())


def verify_lemma_suite(tp: TheoremParams) -> list[CongruenceReport]:
    """The seven harmonic-weighted congruences feeding the main proofs.

    Weights (q)_k^n/(1)_k^n (for the five mod-p checks) and
    t_k = (c)_k^n/(1)_k^n, c = q - p/n (for the two offset checks, mod p^2 and
    mod p) run over k = 0..p-q.  The harmonic numbers are integers over powers
    of L = lcm(1..p-1), so each plain sum is an integer dot product over one
    denominator, reduced once.  The offset sums, of t_k g_k and t_k g_k^2 with
    g_k = sum_{i<k} 1/(c + i) - H_k, come from one walk of small-integer steps.
    """
    _check_prefix_limit(tp.p)
    n, q, p = tp.n, tp.q, tp.p
    params = tp.as_params()
    bases = [n * q + n * i - p for i in range(p - q)]  # c + i = (nq + ni - p) / n
    if 0 in bases:  # only at p = n, q = 1
        raise ZeroDenominator(f"offset base {q - Fraction(p, n)} + {bases.index(0)} vanishes")
    plain = _plain_weights(tp)
    scale, h1, h2 = _harmonic_prefixes(p - 1)  # at q > p there are no weights
    shift1, shift2 = h1[q - 1:], h2[q - 1:]  # index k reads H_{q+k-1}
    h2_head = Unreduced(h2[min(q, p) - 1] * sum(plain), scale**2)
    h2_shift = Unreduced(sum(map(mul, plain, shift2)), scale**2)
    h2_plain = Unreduced(sum(map(mul, plain, h2)), scale**2)
    h1_shift = Unreduced(sum(w * (a - b) for w, a, b in zip(plain, h1, shift1)), scale)
    h1_shift_sq = Unreduced(sum(w * (a * a - b * b) for w, a, b in zip(plain, h1, shift1)),
                            scale**2)

    # One walk of (t_k, t_k g_k, t_k g_k^2) and both sums, integers over one running
    # denominator: step k multiplies t by b^n/(n(k+1))^n and adds e/f = 1/(c+k) - 1/(k+1)
    # to g, with b = nq + nk - p, e = n(k+1) - b and f = b(k+1), all small integers.
    t, tg, tgg, s1, s2, den = 1, 0, 0, 0, 0, 1
    for k, b in enumerate(bases, 1):
        u, e, f = b**n, n * k - b, b * k
        tgg = (tgg * f * f + 2 * e * f * tg + e * e * t) * u
        tg = (tg * f + e * t) * u * f
        t *= u * f * f
        step = (n * k) ** n * f * f
        s1, s2, den = s1 * step + tg, s2 * step + tgg, den * step
    s1_diff, s1_diff_sq = Unreduced(s1, den), Unreduced(s2, den)

    mod_p = PrimePowerModulus(p, 1)
    mod_p2 = PrimePowerModulus(p, 2)
    reports = [
        check_congruence(h2_head, 0, mod_p, check_id="lemmas/h2-head", params=params),
        check_congruence(h2_shift, 0, mod_p, check_id="lemmas/h2-shift", params=params),
        check_congruence(h2_plain, 0, mod_p, check_id="lemmas/h2-plain", params=params),
        check_congruence(h1_shift, 0, mod_p, check_id="lemmas/h1-shift", params=params),
        check_congruence(h1_shift_sq, 0, mod_p, check_id="lemmas/h1-shift-sq", params=params),
        check_congruence(s1_diff, 0, mod_p2, check_id="lemmas/s1-offset", params=params),
        check_congruence(s1_diff_sq, 0, mod_p, check_id="lemmas/s1-offset-sq", params=params),
    ]
    return [_tag(r, tp) for r in reports]


def verify_taylor(tp: TheoremParams) -> list[CongruenceReport]:
    """Degree-2 Taylor truncations agree with the exact values mod p^3.

    Checks the three displacement evaluations: the diagonal sum at p/n, the
    two-variable sum at (p, 0) and the dual sum at -p, each against the
    degree-2 polynomial evaluated from its jet at the origin.
    """
    p = tp.p
    m = PrimePowerModulus(p, 3)
    params = tp.as_params()
    x = Fraction(p, tp.n)  # the displacement p/n

    # psi(x) = phi(x, x), so one jet serves both Taylor values.
    phi = phi_jet(tp, 2)
    values = {  # check id: the exact value and its degree-2 Taylor value
        "taylor/psi": (psi_value(tp, x), phi.evaluate(x, x)),
        "taylor/phi": (phi_value(tp, p, 0), phi.evaluate(p, 0)),
        "taylor/delta": (delta_value(tp, -p), delta_jet(tp, 2).evaluate(-p)),
    }
    return [_tag(check_congruence(exact, taylor, m, check_id=c, params=params), tp)
            for c, (exact, taylor) in values.items()]


def _plain_weights(tp: TheoremParams) -> list[int]:
    # (q)_k^n / (1)_k^n = C(q + k - 1, k)^n, k = 0..p-q: small exact integers.
    return [comb(tp.q + k - 1, k) ** tp.n for k in range(tp.p - tp.q + 1)]


def _check_prefix_limit(p: int) -> None:
    if p > PREFIX_LIMIT:
        raise CapExceeded(f"p = {p} exceeds the harmonic-prefix cap {PREFIX_LIMIT}")


def _harmonic_prefixes(last: int) -> tuple[int, list[int], list[int]]:
    # L = lcm(1..last) and the integers L*H_j and L^2*H2_j for j = 0..last.
    scale = lcm(*range(1, last + 1))
    steps = [scale // j for j in range(1, last + 1)]
    return scale, [0, *accumulate(steps)], [0, *accumulate(s * s for s in steps)]


def _steps_mirror(left: list, right: list, count: int) -> bool:
    # Both walks ran all count steps and left step k undoes right step count-1-k
    # (u1 u2 = v1 v2), so the reflection holds at every k.  False decides nothing.
    return len(left) == len(right) == count and all(
        u1 * u2 == v1 * v2 for (u1, v1), (u2, v2) in zip(left, reversed(right)))


def verify_exact_identities(tp: TheoremParams) -> list[CongruenceReport]:
    """Exact identities and reductions underpinning the two main congruences:

    - the two-variable sum vanishes exactly at (p, 0);
    - the balanced four-parameter jet is identically zero through degree 2;
    - the theorem1 sum collapses to the weighted second-order sum mod p^3;
    - the term-reversal identity holds exactly for every k;
    - for q > 1, the reflected dual sum vanishes mod p^3 (skipped at q = 1,
      where the dual congruence already follows from the p^n prefactor).
    """
    _check_prefix_limit(tp.p)
    n, q, p = tp.n, tp.q, tp.p
    params = tp.as_params()
    m3 = PrimePowerModulus(p, 3)
    reports = []

    reports.append(_exact_report([phi_value(tp, p, 0)], p, "identities/phi-p0", params))
    reports.append(_exact_report(upsilon_jet(tp, 2).coefficients.values(), p,
                                 "identities/upsilon-jet", params))

    # sum_k (q)_k^n/(1)_k^n * sum_{i<k} 1/(q + i)^2; the inner sum is H2_{q+k-1} - H2_{q-1}.
    scale, _, h2 = _harmonic_prefixes(p - 1)  # at q > p there are no weights
    head = h2[min(q, p) - 1]
    second_order = sum(w * (b - head) for w, b in zip(_plain_weights(tp), h2[q - 1:]))
    rhs = Unreduced((n - 1) * p * p * second_order, 2 * n * scale**2)
    reports.append(check_congruence(lhs_theorem1(tp), rhs, m3,
                                    check_id="identities/p2-reduction", params=params))

    # Reflection, b = p/n - q + 2, a = q - p/n - p: (1)_k/(b)_k = (1)_{p-1}/(b)_{p-1} *
    # (a)_{p-1-k}/(1 - p)_{p-1-k}.  Left step k is (1 + k)/(b + k) and right step p - 2 - k is
    # (a + p - 2 - k)/(-1 - k) = (b + k)/(1 + k), so the steps mirror whenever both walks run
    # to the end.  If one stopped early, the exact terms from the same pairs decide.
    walks = [(1, 1), (Fraction(p, n) - q + 2, -1)], [(q - Fraction(p, n) - p, 1), (1 - p, -1)]
    left, right = (list(_ratio_steps(w, p - 1)) for w in walks)
    differences = []
    if not _steps_mirror(left, right, p - 1):  # terms are zero after a walk stopped
        tl, tr = ([*accumulate((Fraction(u, v) for u, v in steps), mul, initial=Fraction(1)),
                   *[0] * (p - 1 - len(steps))] for steps in (left, right))
        differences = [x - tl[-1] * y for x, y in zip(tl, reversed(tr))]
    reports.append(_exact_report(differences, p, "identities/reflection", params))

    if q == 1:
        reports.append(CongruenceReport("identities/dual-reduction", dict(params), 3,
                                        None, None, Verdict.SKIPPED))
    else:
        reports.append(check_congruence(dual_reduction_sum(tp), 0, m3,
                                        check_id="identities/dual-reduction", params=params))
    return [_tag(r, tp) for r in reports]
