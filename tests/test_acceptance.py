"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  All checks are exact congruences, so there are no
tolerances anywhere: a criterion passes only with zero failures.
"""

import json
import math
import random
import time
from fractions import Fraction

from hypercong.cli import SweepSpec, primes_upto, render_json, run_sweep
from hypercong.exact_core import (
    ShiftedSumSpec,
    binomial_general,
    harmonic,
    pochhammer,
    shifted_power_sum,
)
from hypercong.jets import Jet2, pochhammer_jet
from hypercong.padic import (
    PrimePowerModulus,
    factorial_valuation,
    ord_rational,
    reduce_mod,
)
from hypercong.series import TheoremParams, karlsson_minton_sum, theorem_sum
from hypercong.verify import (
    CHECKS,
    Verdict,
    verify_dflst_pair,
    verify_exact_identities,
    verify_guo,
    verify_lemma_suite,
    verify_sun_bernoulli,
    verify_sun_e,
    verify_taylor,
    verify_theorem1,
    verify_theorem2,
)

F = Fraction

GRID_N = range(3, 9)
GRID_Q = range(1, 5)
GRID_P_MAX = 97


def criterion_grid():
    primes = primes_upto(GRID_P_MAX)
    grid = []
    for n in GRID_N:
        for q in GRID_Q:
            if n % 2 == 0 or q % 2 == 1:
                for p in primes:
                    if p > max(n, (q - 1) * n + 1):
                        grid.append(TheoremParams(n, q, p))
    return grid


def _criterion(number, label, ok):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} [{status}] {label}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_criterion_01_theorem1_sweep():
    grid = criterion_grid()
    start = time.perf_counter()
    failures = [tp for tp in grid if verify_theorem1(tp).verdict is not Verdict.HOLDS]
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120
    _criterion(
        1,
        f"theorem1 holds mod p^3 on all {len(grid)} grid tuples "
        f"({elapsed:.1f}s, budget 120s)",
        ok,
    )


def test_criterion_02_theorem2_sweep():
    grid = criterion_grid()
    start = time.perf_counter()
    failures = [tp for tp in grid if verify_theorem2(tp).verdict is not Verdict.HOLDS]
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 180
    _criterion(
        2,
        f"theorem2 holds mod p^3 on all {len(grid)} grid tuples "
        f"({elapsed:.1f}s, budget 180s)",
        ok,
    )


def test_criterion_03_guo_conjecture():
    count = 0
    ok = True
    for d in (4, 6, 8):
        for p in primes_upto(199):
            if (p + 1) % d:
                continue
            count += 1
            report = verify_guo(d, p)
            reduction = theorem_sum(*CHECKS["guo"].point(d, p))
            # Guo's own sum, sum_{k<p} (1/d)_k^d / k!^d, by its term ratio (1/d + k)^d / (1 + k)^d
            guo, term = Fraction(0), Fraction(1)
            for k in range(p):
                guo, term = guo + term, term * ((Fraction(1, d) + k) / (1 + k)) ** d
            ok = ok and report.verdict is Verdict.HOLDS and guo == reduction
    _criterion(3, f"guo congruence + exact theorem1 reduction on {count} instances", ok)


def test_criterion_04_sun_e():
    ok = all(verify_sun_e(p).verdict is Verdict.HOLDS for p in (5, 7, 11, 13))
    _criterion(4, "mod p^5 congruence for the (p+1)-power sums, p in {5,7,11,13}", ok)


def test_criterion_05_sun_bernoulli():
    count = 0
    ok = True
    for p in (5, 7, 11, 13, 17, 19):
        for n in range(2, 7):
            if n % p == 0:
                continue
            count += 1
            ok = ok and verify_sun_bernoulli(p, n).verdict is Verdict.HOLDS
    _criterion(5, f"Bernoulli-weighted mod p^5 congruence on {count} (p, n) pairs", ok)


def test_criterion_06_dflst_pairs():
    pairs = ((3, 7), (3, 13), (4, 13), (4, 17), (6, 13), (5, 11), (6, 19), (3, 31))
    ok = True
    for n, p in pairs:
        first, second = verify_dflst_pair(n, p)
        ok = ok and first.verdict is Verdict.HOLDS and second.verdict is Verdict.HOLDS
    _criterion(6, f"Gamma-valued congruence pair holds mod p^3 on {len(pairs)} tuples", ok)


def test_criterion_07_lemma_suite():
    grid = criterion_grid()
    ok = True
    for tp in grid:
        reports = verify_lemma_suite(tp)
        ok = ok and len(reports) == 7
        ok = ok and all(r.verdict is Verdict.HOLDS for r in reports)
    _criterion(7, f"all seven lemma congruences hold over {len(grid)} tuples", ok)


def test_criterion_08_exact_identities():
    rng = random.Random(20260810)
    ok = True
    # 200 random terminating vanishing sums
    for _ in range(200):
        length = rng.randint(1, 40)
        r = rng.randint(0, 3)
        pairs = []
        budget = length - 1
        for _ in range(r):
            m = rng.randint(0, budget // r) if r else 0
            budget -= m
            pairs.append((F(rng.randint(1, 20), rng.choice([1, 1, 2, 3, 5])), m))
        result = karlsson_minton_sum(-length, pairs)
        ok = ok and not result.hypothesis_violated and result.value == 0
    grid = criterion_grid()
    for tp in grid:
        reports = {r.check_id: r for r in verify_exact_identities(tp)}
        ok = ok and reports["identities/phi-p0"].verdict is Verdict.HOLDS
        ok = ok and reports["identities/upsilon-jet"].verdict is Verdict.HOLDS
        ok = ok and reports["identities/p2-reduction"].verdict is Verdict.HOLDS
        ok = ok and reports["identities/reflection"].verdict is Verdict.HOLDS
        dual = reports["identities/dual-reduction"]
        if tp.q == 1:
            ok = ok and dual.verdict is Verdict.SKIPPED
        else:
            ok = ok and dual.verdict is Verdict.HOLDS
    _criterion(
        8,
        f"Karlsson-Minton (200 draws) + exact identity suite over {len(grid)} tuples",
        ok,
    )


def test_criterion_09_taylor_suite():
    grid = criterion_grid()
    ok = True
    for tp in grid:
        reports = verify_taylor(tp)
        ok = ok and all(r.verdict is Verdict.HOLDS for r in reports)
    for p in sorted({tp.p for tp in grid}):
        for r in (3, 4, 5):
            ok = ok and r - factorial_valuation(r, p) >= 3
    _criterion(
        9,
        f"degree-2 Taylor truncations hold mod p^3 over {len(grid)} tuples "
        "+ remainder audit r in {3,4,5}",
        ok,
    )


def test_criterion_10_property_suites():
    rng = random.Random(1789)
    ok = True

    # Wolstenholme valuations for 3 < p <= 200
    for p in primes_upto(200):
        if p > 3:
            ok = ok and ord_rational(harmonic(p - 1, 1), p) >= 2
            ok = ok and ord_rational(harmonic(p - 1, 2), p) >= 1

    # Pochhammer functional equation on random rationals
    for _ in range(200):
        x = F(rng.randint(-50, 50), rng.randint(1, 12))
        j, k = rng.randint(0, 30), rng.randint(0, 30)
        ok = ok and pochhammer(x, j + k) == pochhammer(x, j) * pochhammer(x + j, k)

    # reflection bridge between weights and generalized binomials
    for _ in range(100):
        q, k = rng.randint(1, 30), rng.randint(0, 30)
        lhs = pochhammer(F(q), k) / pochhammer(F(1), k)
        ok = ok and lhs == (-1) ** k * binomial_general(F(-q), k)

    # harmonic reflection mod p
    for p in primes_upto(60):
        if p <= 3:
            continue
        m1 = PrimePowerModulus(p, 1)
        for j in range(1, p):
            ok = ok and reduce_mod(harmonic(p - 1 - j) - harmonic(j), m1).value == 0
            ok = ok and reduce_mod(harmonic(p - 1 - j, 2) + harmonic(j, 2), m1).value == 0
    for _ in range(100):
        p = rng.choice([61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127,
                        131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
                        193, 197, 199])
        j = rng.randint(1, p - 1)
        m1 = PrimePowerModulus(p, 1)
        ok = ok and reduce_mod(harmonic(p - 1 - j) - harmonic(j), m1).value == 0
        ok = ok and reduce_mod(harmonic(p - 1 - j, 2) + harmonic(j, 2), m1).value == 0

    # reduce_mod round trips
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13])
        k = rng.randint(1, 5)
        den = rng.randint(1, 60)
        while den % p == 0:
            den = rng.randint(1, 60)
        r = F(rng.randint(-500, 500), den)
        if ord_rational(r, p) < 0:
            continue
        t = reduce_mod(r, PrimePowerModulus(p, k)).value
        ok = ok and (r.denominator * t - r.numerator) % p**k == 0

    # jet ring laws on random jets
    def random_jet(cap, unit=False):
        coeffs = {}
        for i in range(cap + 1):
            for j in range(cap + 1 - i):
                if rng.random() < 0.6:
                    coeffs[(i, j)] = F(rng.randint(-5, 5), rng.randint(1, 6))
        if unit:
            coeffs[(0, 0)] = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        return Jet2(coeffs, cap)

    for _ in range(150):
        cap = rng.randint(0, 4)
        a, b, c = (random_jet(cap) for _ in range(3))
        ok = ok and a * b == b * a
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        u = random_jet(cap, unit=True)
        ok = ok and u * (Jet2.constant(1, cap) / u) == Jet2.constant(1, cap)

    # jet derivatives vs closed forms
    for base in (F(1, 2), F(2), F(5, 3)):
        for k in range(9):
            s1 = shifted_power_sum(ShiftedSumSpec(base, 1, k))
            s2 = shifted_power_sum(ShiftedSumSpec(base, 2, k))
            value = pochhammer(base, k)
            for sign in (1, -1):
                jet = pochhammer_jet(base, sign, "x", k, 2)
                ok = ok and jet.partial(1, 0) == sign * value * s1
                ok = ok and jet.partial(2, 0) == value * (s1 * s1 - s2)

    _criterion(10, "property suites (seeded randomized testing) all pass", ok)


def test_criterion_11_determinism_across_parallelism():
    base = dict(
        check_ids=("theorem1",),
        n_range=(min(GRID_N), max(GRID_N)),
        q_range=(min(GRID_Q), max(GRID_Q)),
        p_max=GRID_P_MAX,
    )
    sequential = render_json(run_sweep(SweepSpec(parallelism=1, **base)))
    parallel = render_json(run_sweep(SweepSpec(parallelism=8, **base)))
    ok = sequential == parallel
    payload = json.loads(sequential)
    ok = ok and payload["summary"]["fails"] == 0
    ok = ok and payload["summary"]["holds"] == len(criterion_grid())
    _criterion(11, "parallelism 1 and 8 sweeps emit byte-identical JSON", ok)
