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

from . import padic
from .errors import CapExceeded, PreconditionViolated
from .padic import PrimePowerModulus, Residue, Unreduced, is_prime, morita_gamma
from .series import (
    TheoremParams,
    delta_value,
    dual_reduction_sum,
    lemma_sums,
    phi_value,
    reflection_differences,
    second_order_sum,
    taylor_values,
    theorem_sum,
    upsilon_coefficients,
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

# A check: its verify function's positional parameters and name (looked up at call time, so a
# wrapper installed here is seen), its required_ord (the modulus exponent of a theorem-sum check,
# and of the bare report an inexpressible exploratory tuple gets), its cap: the largest p, refused
# before any sum is built, its domain: given those arguments, is the check defined, that domain
# in words, and its point: the (n, q, p) of the theorem sum it reads (series.theorem_sum), or
# of its tuple.  At each cap one call takes about a minute or less (2 vCPUs, Python 3.11, one
# run each in a fresh process): theorem1 and theorem2 3 to 4 s at (4, 1, 199999), guo 3 s at
# (4, 199999), sun-bernoulli 5 s at (249989, 4), dflst 12 s and 53 MB peak RSS at (4, 249989),
# sun-e 19 s at 1009, taylor 45 s and 30 MB at (4, 1, 29989), lemmas 51 to 55 s and 27 MB at
# (4, q, 24989), q = 2..4 (28 s at q = 1, one pass), identities 3 s at (4, 1, 9973).  The sums
# are cheap next to those caps since the product trees cancel common factors; the integer-weight
# loop of taylor, lemmas and identities is still quadratic in p.  Each was timed at exponent 4
# (sun-e's is p + 1) and q <= 4 (dflst's q is about p/n), so a check also refuses p times n or
# d, or q's bit length, above 4 times its cap.
Check = namedtuple("Check", "params function required_ord cap domain words point")
_TRIPLE = ("n", "q", "p")


def _triple(function, required_ord, cap):
    # TheoremParams owns the rest of the domain; every grid axis starts at 1, so q > 0.
    return Check(_TRIPLE, function, required_ord, cap, lambda n, q, p: n > 2, "n > 2",
                 lambda n, q, p: (n, q, p))


CHECKS = {
    "theorem1": _triple("verify_theorem1", 3, 250_000),
    "theorem2": _triple("verify_theorem2", 3, 250_000),
    "guo": Check(("d", "p"), "verify_guo", 3, 250_000,
                 lambda d, p: d >= 4 and d % 2 == 0 and (p + 1) % d == 0 and is_prime(p),
                 "an even d >= 4 and a prime p = -1 (mod d)", lambda d, p: (d, (p + 1) // d, p)),
    "sun-e": Check(("p",), "verify_sun_e", 5, 1100, lambda p: p > 3 and is_prime(p),
                   "a prime p > 3", lambda p: (p + 1, 1, p)),
    "sun-bernoulli": Check(("p", "n"), "verify_sun_bernoulli", 5, 250_000, lambda p, n: p > 3
                           and n >= 1 and n % p != 0 and is_prime(p),
                           "a prime p > 3 and a positive n coprime to p", lambda p, n: (n, 1, p)),
    "dflst": Check(("n", "p"), "verify_dflst_pair", 3, 250_000, lambda n, p: n >= 3
                   and p % n == 1 and is_prime(p), "n >= 3 and a prime p = 1 (mod n)",
                   lambda n, p: (n, (p - 1) // n + 1, p)),
    "lemmas": _triple("verify_lemma_suite", 1, 25_000),
    "taylor": _triple("verify_taylor", 3, 30_000),
    "identities": _triple("verify_exact_identities", 3, 10**4),
}


def _check_p_caps(largest: dict, *checks: str) -> None:
    # Each check refuses its p above its row's cap, then p times each of its other parameters
    # (the bit length of q) above 4 times that cap, given them by name; a sweep refuses the
    # largest value of each axis before any unit runs.
    p = largest["p"]
    for check in checks:
        row = CHECKS[check]
        if p > row.cap:
            raise CapExceeded(f"p = {padic._decimal(p)} exceeds the {check} cap {row.cap}")
        for name in row.params:
            size = largest.get(name, 0)
            label, size = ("q.bit_length()", size.bit_length()) if name == "q" else (name, size)
            if name != "p" and p * size > 4 * row.cap:
                raise CapExceeded(f"p * {label} = {padic._decimal(p)} * {padic._decimal(size)} "
                                  f"exceeds 4 times the {check} cap {row.cap}")


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
    diff = (lhs if isinstance(lhs, Unreduced) else Unreduced(lhs)) - rhs  # never reduced
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
    values = [v if isinstance(v, Unreduced) else Unreduced(v) for v in values]
    achieved = min((v.ord(p) for v in values), default=math.inf)
    verdict = Verdict.FAILS if any(values) else Verdict.HOLDS
    return CongruenceReport(check_id, dict(params), math.inf, achieved, None, verdict)


def _tag(report: CongruenceReport, tp: TheoremParams) -> CongruenceReport:
    # Out-of-hypothesis runs (only exploratory ones exist) are observations, never assertions.
    if not tp.in_hypothesis and report.verdict is not Verdict.SKIPPED:
        return replace(report, verdict=Verdict.HYPOTHESIS_VIOLATED)
    return report


def _theorem_sum_check(check: str, *args, rhs=lambda m: 0, sums=None) -> list:
    # The one path of the six checks that read series.theorem_sum, each step from the check's
    # CHECKS row: its domain, refused in its words; its caps; its modulus p^required_ord; the
    # sum at its point.  rhs(m) is built after both refusals.  sums maps each report's id to
    # whether it reads the dual sum; by default one report, of the plain sum, under the check.
    c = CHECKS[check]
    if not c.domain(*args):
        given = ", ".join(f"{name}={padic._decimal(value)}" for name, value in zip(c.params, args))
        raise PreconditionViolated(f"{check} needs {c.words}, got {given}")
    params = dict(zip(c.params, args))
    _check_p_caps(params, check)
    m = PrimePowerModulus(params["p"], c.required_ord)
    value, point = rhs(m), c.point(*args)
    return [check_congruence(theorem_sum(*point, dual=dual), value, m, check_id=i, params=params)
            for i, dual in (sums or {check: False}).items()]


def verify_theorem1(tp: TheoremParams) -> CongruenceReport:
    """sum_{k=0}^{p-1} (q - p/n)_k^n / (1)_k^n = 0 (mod p^3)."""
    return _tag(_theorem_sum_check("theorem1", tp.n, tp.q, tp.p)[0], tp)


def verify_theorem2(tp: TheoremParams) -> CongruenceReport:
    """p^n sum_{k=0}^{p-1} (1)_k^n / (p/n - q + 2)_k^n = 0 (mod p^3)."""
    return _tag(_theorem_sum_check("theorem2", tp.n, tp.q, tp.p, sums={"theorem2": True})[0], tp)


def verify_guo(d: int, p: int) -> CongruenceReport:
    """sum_{k=0}^{p-1} (1/d)_k^d / k!^d = 0 (mod p^3) for even d >= 4, p = -1 (mod d).

    The sum is exactly the theorem1 left side at n = d, q = (p+1)/d, which is
    how the congruence is proved, and is read there.
    """
    return _theorem_sum_check("guo", d, p)[0]


def verify_sun_e(p: int) -> CongruenceReport:
    """sum_{k=0}^{p-1} (1/(p+1))_k^{p+1} / k!^{p+1} = 0 (mod p^5) for p > 3."""
    return _theorem_sum_check("sun-e", p)[0]


def verify_sun_bernoulli(p: int, n: int) -> CongruenceReport:
    """sum (1 - p/n)_k^n / (1)_k^n = (n-1)(7n-5)/(36 n^2) p^4 B_{p-3} (mod p^5).

    The right side reads B_{p-3} mod p^r (padic.bernoulli_residue) from r = 2.  Its weight is
    p^4 times a p-integral rational (p > 3 divides no 36 n^2), so that moves the difference by
    a multiple of p^(4+r): a valuation below 4 + r and the residue mod p^5 are the exact ones.
    A higher valuation doubles r, the sum read from series' memo, unless n = 1 zeroes the weight.
    """
    r = 2
    while True:
        report = _theorem_sum_check("sun-bernoulli", p, n, rhs=lambda m: Fraction(
            (n - 1) * (7 * n - 5), 36 * n * n) * p**4 * padic.bernoulli_residue(p, r).value)[0]
        if n == 1 or report.achieved_ord < 4 + r:
            return report
        r *= 2


def verify_dflst_pair(n: int, p: int) -> tuple[CongruenceReport, CongruenceReport]:
    """The Gamma-valued pair for n >= 3 and p = 1 (mod n), both mod p^3:

    sum_{k=0}^{p-1} (1 - 1/n)_k^n / (1)_k^n      = -Gamma_p(1/n)^n
    p^n sum_{k=0}^{p-1} (1)_k^n / (1 + 1/n)_k^n  = -Gamma_p(1/n)^n

    The right side is the n-th power of the Morita Gamma residue at
    precision p^3; achieved valuations are relative to its canonical lift.
    """
    return tuple(_theorem_sum_check(
        "dflst", n, p, sums={"dflst/sum": False, "dflst/dual": True},
        rhs=lambda m: -pow(morita_gamma(Fraction(1, n), m).value, n, m.modulus) % m.modulus))


def verify_lemma_suite(tp: TheoremParams) -> list[CongruenceReport]:
    """The seven harmonic-weighted congruences feeding the main proofs, on the sums of
    ``series.lemma_sums``: s1-offset mod p^2, the others mod p."""
    _check_p_caps(tp.as_params(), "lemmas")
    # Literal ids and two moduli, shared by every report a sweep keeps.
    ids = ["lemmas/h2-head", "lemmas/h2-shift", "lemmas/h2-plain", "lemmas/h1-shift",
           "lemmas/h1-shift-sq", "lemmas/s1-offset", "lemmas/s1-offset-sq"]
    mod_p, mod_p2 = PrimePowerModulus(tp.p, 1), PrimePowerModulus(tp.p, 2)
    return [_tag(check_congruence(v, 0, m, check_id=i, params=tp.as_params()), tp)
            for v, i, m in zip(lemma_sums(tp), ids, [mod_p] * 5 + [mod_p2, mod_p])]


def verify_taylor(tp: TheoremParams) -> list[CongruenceReport]:
    """Degree-2 Taylor truncations agree with the exact values mod p^3.

    Checks the three displacement evaluations: the diagonal sum at p/n, the
    two-variable sum at (p, 0) and the dual sum at -p, each against the
    degree-2 Taylor polynomial at the origin, from ``series.taylor_values``.
    """
    _check_p_caps(tp.as_params(), "taylor")
    p, x, m, params = tp.p, Fraction(tp.p, tp.n), PrimePowerModulus(tp.p, 3), tp.as_params()
    exact = phi_value(tp, x, x), phi_value(tp, p, 0), delta_value(tp, -p)  # psi(x) = phi(x, x)
    return [_tag(check_congruence(e, t, m, check_id=f"taylor/{c}", params=params), tp)
            for c, e, t in zip(("psi", "phi", "delta"), exact, taylor_values(tp))]


def verify_exact_identities(tp: TheoremParams) -> list[CongruenceReport]:
    """Exact identities and reductions underpinning the two main congruences:

    - the two-variable sum vanishes exactly at (p, 0);
    - the balanced four-parameter jet is identically zero through degree 2;
    - the theorem1 sum collapses to the weighted second-order sum mod p^3;
    - the term-reversal identity holds exactly for every k;
    - for q > 1, the reflected dual sum vanishes mod p^3 (skipped at q = 1,
      where the dual congruence already follows from the p^n prefactor).
    """
    n, q, p, params = tp.n, tp.q, tp.p, tp.as_params()
    _check_p_caps(params, "identities")
    m3 = PrimePowerModulus(p, 3)
    rhs = Unreduced(second_order_sum(tp), Unreduced(2 * n, (n - 1) * p * p))  # S (n-1)p^2/(2n)
    reports = [_exact_report([phi_value(tp, p, 0)], p, "identities/phi-p0", params),
               _exact_report(upsilon_coefficients(tp), p, "identities/upsilon-jet", params),
               check_congruence(theorem_sum(n, q, p), rhs, m3, check_id="identities/p2-reduction",
                                params=params),
               _exact_report(reflection_differences(tp), p, "identities/reflection", params)]

    if q == 1:
        reports.append(CongruenceReport("identities/dual-reduction", dict(params), 3,
                                        None, None, Verdict.SKIPPED))
    else:
        reports.append(check_congruence(dual_reduction_sum(tp), 0, m3,
                                        check_id="identities/dual-reduction", params=params))
    return [_tag(r, tp) for r in reports]
