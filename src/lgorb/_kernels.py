"""Cyclotomic coefficient kernels.

A field element of Q(zeta_n) is carried as (nums, den): a tuple of phi(n)
integer numerators over one positive common denominator, with
gcd(*nums, den) = 1.  These functions implement the hot arithmetic on that
raw representation.  `rows` is the sparse reduction table of
`exactnum._Field.mul_rows()`: rows[e] lists the nonzero (index, value)
pairs of x^(phi+e) modulo the n-th cyclotomic polynomial over the power
basis, so reduction touches only the nonzero coefficients of Phi_n's
multiples (for n = 28, x^14 = -1 makes most rows a single pair).

`dot` is the fused sum of products: every term's convolution accumulates
into one integer list over the common denominator of the products, which
is then reduced once and normalized once.  Because values are canonical,
its result is the one a fold of `mul` and `add` gives, byte for byte.
`add_many` is the fused sum of values already multiplied: the numerators
accumulate over the least common denominator and are normalized once.

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


def add_many(values):
    """Sum of a sequence of two or more (nums, den) values with a single
    normalization pass."""
    den = 1
    for _, d in values:
        if den % d:
            den = den // gcd(den, d) * d
    scaled = [nums if d == den else [v * (den // d) for v in nums] for nums, d in values]
    return normalize(list(map(sum, zip(*scaled))), den)


def _convolve(conv, an, bn, scale=1):
    """conv[i + j] += scale * an[i] * bn[j] over the nonzero coefficients."""
    support = [(j, bj * scale) for j, bj in enumerate(bn) if bj]
    if support:
        for i, ai in enumerate(an):
            if ai:
                for j, bj in support:
                    conv[i + j] += ai * bj


def _reduce(conv, phi, rows):
    """Fold the coefficients of x^phi, x^(phi+1), ... onto the power basis."""
    out = conv[:phi]
    for e in range(phi, len(conv)):
        ce = conv[e]
        if ce:
            for j, rj in rows[e - phi]:
                out[j] += ce * rj
    return out


def _mul_nums(an, bn, rows):
    phi = len(an)
    conv = [0] * (2 * phi - 1)
    _convolve(conv, an, bn)
    return _reduce(conv, phi, rows)


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


def dot(terms, rows):
    """Sum of a*b over a nonempty sequence of (an, ad, bn, bd) terms: one
    convolution buffer over the least common denominator of the products,
    one reduction and one normalization."""
    den = 1
    for _, ad, _, bd in terms:
        pd = ad * bd
        if den % pd:
            den = den // gcd(den, pd) * pd
    phi = len(terms[0][0])
    conv = [0] * (2 * phi - 1)
    for an, ad, bn, bd in terms:
        _convolve(conv, an, bn, den // (ad * bd))
    return normalize(_reduce(conv, phi, rows), den)
