"""The product-jet fold: phi, Delta and Upsilon as exact jets, for the tests only.

``series.taylor_values`` and ``series.upsilon_coefficients`` read the degree-2 data of these
sums from harmonic-weighted scalar sums; the tests hold them to this fold, and hold the fold
to ``Jet2`` ring arithmetic.  Nothing under ``src`` imports it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from hypercong.jets import Jet2
from hypercong.series import TheoremParams

# --- jet-valued sums ---------------------------------------------------------
#
# The oracle for taylor_values and upsilon_coefficients, off the verify path.  Each jet is
# sum_k w_k X_k(x) Y_k(y) from running truncated products: a factor (c + i + sign*v)^m is
# (c + i)^m, folded into w_k, times (1 + r*u)^m with u = v/L, L the lcm of the bases on v's
# axis, and r = sign*d*(L // a) where c + i = a/d, so its u^j coefficient C(m, j) r^j is an
# integer.  A zero base gives (sign*L*u)^m.  w_k = top/den, each partial-sum coefficient is
# an integer over den, and every _REDUCE_EVERY steps their gcd divides all of them.

_REDUCE_EVERY = 32


def _product_jet(last: int, factors: Sequence[tuple], cap: int) -> Jet2:
    """Jet at (0,0) of sum_{k=0}^{last} prod_{i<k} prod_f (c + i + sign*v)^m.

    Each factor is a (c, m, sign, axis) tuple: v is x on axis 0 and y on
    axis 1, and m may be negative.  sign 0 marks a scalar factor, whose base
    must not vanish.
    """
    cap = Jet2.zero(cap).degree_cap  # the cap refused as Jet2 refuses it, before the walk
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


def delta_jet(tp: TheoremParams, degree_cap: int = 2) -> Jet2:
    """Univariate jet at 0 of sum_{k=0}^{p-q} (q - p/n + x)_k^n / (1+x)_k^n."""
    n, q, p = tp.n, tp.q, tp.p
    offset = q - Fraction(p, n)
    return _product_jet(p - q, [(offset, n, 1, 0), (1, -n, 1, 0)], degree_cap)
