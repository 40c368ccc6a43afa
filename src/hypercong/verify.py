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
    delta_value,
    dual_reduction_sum,
    lemma_sums,
    lhs_theorem1,
    lhs_theorem2,
    phi_value,
    psi_value,
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

# The largest p of each check, refused before any sum is built.  At each cap one call takes
# about a minute or less (2 vCPUs, Python 3.11): theorem1 and theorem2 37 s at (4, 1, 200003),
# sun-e 53 s at 1009, and at (4, 1, p) taylor 61 s and 37 MB peak RSS at 29989, lemmas 65 s and
# 32 MB at 24989, identities 5 s at 9973.  Each was timed at exponent 4 (sun-e's is p + 1), so
# a check with an exponent n or d also refuses p times it above 4 times its cap.  sun-bernoulli,
# whose p the Bernoulli cap bounds, evaluates the theorem1 sum and has its cap.
P_CAPS = {"theorem1": 250_000, "theorem2": 250_000, "guo": 250_000, "sun-e": 1100,
          "sun-bernoulli": 250_000, "taylor": 30_000, "lemmas": 25_000, "identities": 10**4}


# A check: its verify function's positional parameters and name (looked up at call time,
# so a wrapper installed here is seen), the required_ord of the bare report an inexpressible
# exploratory tuple gets, its domain: given those arguments, is the check defined, and its
# point: the (n, q, p) of the theorem sum it reads (series.theorem_sum), or of its tuple.
Check = namedtuple("Check", "params function required_ord domain point")
_TRIPLE = ("n", "q", "p")


def _triple_domain(n, q, p):
    return n > 2  # TheoremParams owns the rest; every grid axis starts at 1, so q > 0


def _triple_point(n, q, p):
    return n, q, p


CHECKS = {
    "theorem1": Check(_TRIPLE, "verify_theorem1", 3, _triple_domain, _triple_point),
    "theorem2": Check(_TRIPLE, "verify_theorem2", 3, _triple_domain, _triple_point),
    "guo": Check(("d", "p"), "verify_guo", 3,
                 lambda d, p: d >= 4 and d % 2 == 0 and (p + 1) % d == 0 and is_prime(p),
                 lambda d, p: (d, (p + 1) // d, p)),
    "sun-e": Check(("p",), "verify_sun_e", 5, lambda p: p > 3 and is_prime(p),
                   lambda p: (p + 1, 1, p)),
    "sun-bernoulli": Check(("p", "n"), "verify_sun_bernoulli", 5,
                           lambda p, n: p > 3 and n >= 1 and n % p != 0 and is_prime(p),
                           lambda p, n: (n, 1, p)),
    "dflst": Check(("n", "p"), "verify_dflst_pair", 3, lambda n, p: n >= 3 and p % n == 1
                   and p**3 <= padic.MORITA_CAP and is_prime(p),
                   lambda n, p: (n, (p - 1) // n + 1, p)),
    "lemmas": Check(_TRIPLE, "verify_lemma_suite", 1, _triple_domain, _triple_point),
    "taylor": Check(_TRIPLE, "verify_taylor", 3, _triple_domain, _triple_point),
    "identities": Check(_TRIPLE, "verify_exact_identities", 3, _triple_domain, _triple_point),
}


def _refuse_outside_domain(check: str, words: str, *args) -> None:
    # The one refusal of a check that takes no TheoremParams: words state its domain.
    if not CHECKS[check].domain(*args):
        given = ", ".join(f"{name}={value}" for name, value in zip(CHECKS[check].params, args))
        raise PreconditionViolated(f"{check} needs {words}, got {given}")


def _check_p_caps(largest: dict, *checks: str) -> None:
    # Each check refuses its p here, and p times its exponent n or d, given its parameters by
    # name; a sweep refuses the largest value of each axis before any unit runs.
    p = largest["p"]
    for check in checks:
        if check == "sun-bernoulli":
            padic._check_bernoulli_index(p - 3)
        cap = P_CAPS.get(check, math.inf)
        if p > cap:
            raise CapExceeded(f"p = {p} exceeds the {check} cap {cap}")
        for name in {"n", "d"}.intersection(CHECKS[check].params):
            if p * largest.get(name, 0) > 4 * cap:
                raise CapExceeded(f"p * {name} = {p} * {largest[name]} exceeds 4 times the "
                                  f"{check} cap {cap}")


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


def verify_theorem1(tp: TheoremParams) -> CongruenceReport:
    """sum_{k=0}^{p-1} (q - p/n)_k^n / (1)_k^n = 0 (mod p^3)."""
    _check_p_caps(tp.as_params(), "theorem1")
    return _tag(check_congruence(lhs_theorem1(tp), 0, PrimePowerModulus(tp.p, 3),
                                 check_id="theorem1", params=tp.as_params()), tp)


def verify_theorem2(tp: TheoremParams) -> CongruenceReport:
    """p^n sum_{k=0}^{p-1} (1)_k^n / (p/n - q + 2)_k^n = 0 (mod p^3)."""
    _check_p_caps(tp.as_params(), "theorem2")
    return _tag(check_congruence(lhs_theorem2(tp), 0, PrimePowerModulus(tp.p, 3),
                                 check_id="theorem2", params=tp.as_params()), tp)


def verify_guo(d: int, p: int) -> CongruenceReport:
    """sum_{k=0}^{p-1} (1/d)_k^d / k!^d = 0 (mod p^3) for even d >= 4, p = -1 (mod d).

    The sum is exactly the theorem1 left side at n = d, q = (p+1)/d, which is
    how the congruence is proved, and is read there.
    """
    _refuse_outside_domain("guo", "an even d >= 4 and a prime p = -1 (mod d)", d, p)
    _check_p_caps({"d": d, "p": p}, "guo")
    return check_congruence(theorem_sum(*CHECKS["guo"].point(d, p)), 0, PrimePowerModulus(p, 3),
                            check_id="guo", params={"d": d, "p": p})


def verify_sun_e(p: int) -> CongruenceReport:
    """sum_{k=0}^{p-1} (1/(p+1))_k^{p+1} / k!^{p+1} = 0 (mod p^5) for p > 3."""
    _refuse_outside_domain("sun-e", "a prime p > 3", p)
    _check_p_caps({"p": p}, "sun-e")
    return check_congruence(theorem_sum(*CHECKS["sun-e"].point(p)), 0, PrimePowerModulus(p, 5),
                            check_id="sun-e", params={"p": p})


def verify_sun_bernoulli(p: int, n: int) -> CongruenceReport:
    """sum (1 - p/n)_k^n / (1)_k^n = (n-1)(7n-5)/(36 n^2) p^4 B_{p-3} (mod p^5)."""
    _refuse_outside_domain("sun-bernoulli", "a prime p > 3 and a positive n coprime to p", p, n)
    _check_p_caps({"p": p, "n": n}, "sun-bernoulli")
    rhs = Fraction((n - 1) * (7 * n - 5), 36 * n * n) * Fraction(p) ** 4 * bernoulli(p - 3)
    lhs = theorem_sum(*CHECKS["sun-bernoulli"].point(p, n))
    return check_congruence(lhs, rhs, PrimePowerModulus(p, 5), check_id="sun-bernoulli",
                            params={"p": p, "n": n})


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
    point, params = CHECKS["dflst"].point(n, p), {"n": n, "p": p}
    sums = {"dflst/sum": theorem_sum(*point), "dflst/dual": theorem_sum(*point, dual=True)}
    return tuple(check_congruence(v, rhs, m, check_id=c, params=params) for c, v in sums.items())


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
    p, m, params = tp.p, PrimePowerModulus(tp.p, 3), tp.as_params()
    exact = psi_value(tp, Fraction(p, tp.n)), phi_value(tp, p, 0), delta_value(tp, -p)
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
               check_congruence(lhs_theorem1(tp), rhs, m3, check_id="identities/p2-reduction",
                                params=params),
               _exact_report(reflection_differences(tp), p, "identities/reflection", params)]

    if q == 1:
        reports.append(CongruenceReport("identities/dual-reduction", dict(params), 3,
                                        None, None, Verdict.SKIPPED))
    else:
        reports.append(check_congruence(dual_reduction_sum(tp), 0, m3,
                                        check_id="identities/dual-reduction", params=params))
    return [_tag(r, tp) for r in reports]
