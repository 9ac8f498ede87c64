"""Cyclotomic coefficient kernels.

A field element of Q(zeta_n) is carried as (nums, den): a tuple of phi(n)
integer numerators over one positive common denominator, with
gcd(*nums, den) = 1.  These functions implement the hot arithmetic on that
raw representation.  `rows` is the sparse reduction table of
`exactnum._Field.mul_rows()`: rows[e] lists the nonzero (index, value)
pairs of x^(phi+e) modulo the n-th cyclotomic polynomial over the power
basis, so reduction touches only the nonzero coefficients of Phi_n's
multiples (for n = 28, x^14 = -1 makes most rows a single pair).

A product convolves into one buffer of 2 phi - 1 integers and folds its
top phi - 1 coefficients onto the power basis in place, in the same
function.  `dot` is the fused sum of products: every term's convolution
accumulates into that buffer over the common denominator of the products,
which is then folded once and normalized once.  Because values are
canonical, its result is the one a fold of `mul` and `add` gives, byte for
byte.  `add_many` is the fused sum of values already multiplied: the
numerators accumulate over the least common denominator and are
normalized once.  Every result is canonical, so `lgorb.exactnum` makes
values of them without normalizing again.

`lgorb.exactnum` calls them as `_kernels.mul(...)` and so on, through the
module, so that wrapping a module attribute sees every call.
"""

from math import gcd


def normalize(nums, den):
    """Canonicalize a raw value: positive denominator, content 1.  A
    denominator of 1 is canonical already."""
    if den == 1:
        return tuple(nums), 1
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = gcd(den, *nums)  # den itself when every numerator is zero
    if g > 1:
        return tuple([v // g for v in nums]), den // g
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


def _mul_nums(an, bn, rows):
    """The numerators of an * bn over the power basis: the convolution over
    the nonzero coefficients, its top coefficients folded in place."""
    phi = len(an)
    conv = [0] * (2 * phi - 1)
    support = [(j, bj) for j, bj in enumerate(bn) if bj]
    for i, ai in enumerate(an):
        if ai:
            for j, bj in support:
                conv[i + j] += ai * bj
    for e, row in enumerate(rows, phi):
        ce = conv[e]
        if ce:
            for j, rj in row:
                conv[j] += ce * rj
    del conv[phi:]
    return conv


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
    one fold and one normalization."""
    den = 1
    for _, ad, _, bd in terms:
        pd = ad * bd
        if den % pd:
            den = den // gcd(den, pd) * pd
    phi = len(terms[0][0])
    conv = [0] * (2 * phi - 1)
    for an, ad, bn, bd in terms:
        scale = den // (ad * bd)
        support = [(j, bj * scale) for j, bj in enumerate(bn) if bj]
        for i, ai in enumerate(an):
            if ai:
                for j, bj in support:
                    conv[i + j] += ai * bj
    for e, row in enumerate(rows, phi):
        ce = conv[e]
        if ce:
            for j, rj in row:
                conv[j] += ce * rj
    del conv[phi:]
    return normalize(conv, den)
