"""Cyclotomic coefficient kernels.

A field element of Q(zeta_n) is carried as (nums, den): a tuple of phi(n)
integer numerators over one positive common denominator, with
gcd(*nums, den) = 1.  These functions implement the hot arithmetic on that
raw representation; `rows` is the table of reduction rows expressing
x^(phi+i) modulo the n-th cyclotomic polynomial over the power basis.

`lgorb.exactnum` calls them as `_kernels.mul(...)` and so on, through the
module, so that wrapping a module attribute sees every call.
"""

from math import gcd


def normalize(nums, den):
    """Canonicalize a raw value: positive denominator, content 1."""
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = den
    for v in nums:
        if v:
            g = gcd(g, v)
            if g == 1:
                break
    if g > 1:
        den //= g
        return tuple(v // g for v in nums), den
    if not any(nums):
        return tuple(nums), 1
    return tuple(nums), den


def add(an, ad, bn, bd):
    if ad == bd:
        return normalize([x + y for x, y in zip(an, bn)], ad)
    g = gcd(ad, bd)
    fa = bd // g
    fb = ad // g
    return normalize([x * fa + y * fb for x, y in zip(an, bn)], ad // g * bd)


def _mul_nums(an, bn, rows):
    phi = len(an)
    conv = [0] * (2 * phi - 1)
    for i, ai in enumerate(an):
        if ai:
            for j, bj in enumerate(bn):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:phi]
    for e in range(phi, 2 * phi - 1):
        ce = conv[e]
        if ce:
            row = rows[e - phi]
            for j, rj in enumerate(row):
                if rj:
                    out[j] += ce * rj
    return out


def mul(an, ad, bn, bd, rows):
    return normalize(_mul_nums(an, bn, rows), ad * bd)


def addmul(an, ad, bn, bd, cn, cd, rows):
    """a + b*c with a single normalization pass."""
    pn = _mul_nums(bn, cn, rows)
    pd = bd * cd
    if ad == pd:
        return normalize([x + y for x, y in zip(an, pn)], ad)
    g = gcd(ad, pd)
    fa = pd // g
    fp = ad // g
    return normalize([x * fa + y * fp for x, y in zip(an, pn)], ad // g * pd)
