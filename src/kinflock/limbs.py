"""Exact sums of doubles in 26-bit integer limbs.

A finite double is M * 2**(e - 53) with an integer |M| < 2**53.  `split`
cuts every weight of a column, at the column's lowest bit position, into
limbs: the 26-bit digits of its two's complement, so that

    weights[i, c] == sum_l limbs[l, i, c] * 2**(base[c] + 26*l)

exactly, with every limb at most 2**26 in magnitude.  Limbs are stored
limb-major, (L, n, k), from `split` to `rounded`: the limb axis is
outermost, so each elementwise numpy operation runs over n*k contiguous
elements per limb instead of inner loops L long.  A sum of fewer than
2**26 weights then sums each limb as an integer below 2**52 in magnitude:
exact in int64, and exact in float64 in any order and grouping, a BLAS
product included.  `rounded` turns limb sums back into one double each:
the exact sum rounded once to nearest-even, which is `math.fsum`'s value,
with +0.0 for a zero sum and +-inf for a sum beyond the double range.  No
bit of any weight is dropped, so a column whose weights span a wider range
of exponents takes more limbs.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

BITS = 26
MASK = (1 << BITS) - 1
# most weights one split may hold, so that limb sums stay below 2**52
MAX_TERMS = 1 << BITS


def split(weights):
    """(limbs, base) of finite weights (n, k), n >= 1: limbs is (L, n, k)
    int64, limb-major, and base (k,) int64, with weights[i, c] the sum of
    limbs[l, i, c] * 2**(base[c] + 26*l).

    The limbs are the 26-bit digits of each weight's two's complement, the
    top limb signed: every limb but the top one lies in [0, 2**26), and the
    top one in [-2**26, 2**26).  Each stage is one numpy operation over all
    L*n*k limbs, each limb a contiguous run of n*k.
    """
    n, k = weights.shape
    if n >= MAX_TERMS:
        raise InvalidInputError(f"at most {MAX_TERMS - 1} weights can be summed exactly")
    mant, exp = np.frexp(weights)
    m = (mant * 2.0 ** 53).astype(np.int64)  # exact: |mant| < 1 has 53 bits
    live = m != 0
    # each column's lowest exponent: its lowest bit position is low - 53
    # (reduced along rows of a (k, n) copy: a reduction over axis 0 of
    # (n, k) runs inner loops k long)
    low = np.where(live, exp, 1 << 20).T.copy().min(axis=1)
    # a weight is m * 2**(base + s), and limb l holds the bits of m from
    # 26*l - s up: a left or an arithmetic right shift (numpy gives 0, or
    # the sign bits, for shifts of 64 or more)
    s = exp - low
    shift = s - _LIMB_BITS[:int(np.where(live, s, 0).max()) // BITS + 3, None, None]
    left = np.maximum(shift, 0)
    limbs = m << left
    left -= shift  # max(-shift, 0)
    limbs >>= left
    limbs[:-1] &= MASK
    return limbs, low - np.int64(53)


# frexp exponents of finite doubles lie in -1073..1024
_LIMB_BITS = BITS * np.arange((1024 + 1073) // BITS + 3)


def _carry(d):
    """Propagate carries in place along axis 0 so that every limb but the top
    one lies in [0, 2**26): two's complement with the sign in the top limb.
    The value sum_l d[l] * 2**(26*l) is unchanged.  One sweep upward
    suffices however far a carry ripples (a negative sum's -1 runs through
    every zero limb above it), as each limb takes its carry in before it
    passes its carry out."""
    for limb, above in zip(d[:-1], d[1:]):
        c = limb >> _BITS
        limb &= _MASK
        above += c


def rounded(sums, base):
    """(m, k) doubles from limb sums (L, m, k), limb-major, integers below
    2**52 in magnitude (int64, or float64 holding them):
    sum_l sums[l, i, c] * 2**(base[c] + 26*l), rounded once to nearest-even.

    The limbs are carry-normalised to two's complement, and `top` is the
    highest limb that differs from the sign.  In units of limb top - 3 the
    value is an integer A + B of at least 78 bits, A from limbs top and
    top - 1 and 0 <= B < 2**52 from limbs top - 2 and top - 3, plus a
    fraction f in [0, 1) from the limbs below.  Its halfway points between
    doubles are integers, so A + B + f rounds as A + B + f/2 does with f
    replaced by 1 if nonzero: both terms are doubles, and one float add
    rounds them.  ldexp then scales exactly: a sum of doubles is a multiple
    of 2**-1074, so a sum in the subnormal range has no bits below limb
    top - 2 and is a double already.
    """
    n_limbs, m, k = sums.shape
    # one column per sum; four zero limbs below the data keep the window in
    # range, and the two above take the carry out of the data and then the
    # sign, 0 or -1
    d = np.zeros((n_limbs + 6, m * k), np.int64)
    d[4:-2] = sums.reshape(n_limbs, m * k)
    _carry(d[4:])
    sign = d[-1]
    differs = d[:-1] != (sign & MASK)  # limbs that are not all sign bits
    differs[0] = True  # so that top = 0 for a zero sum
    top = len(d) - 2 - differs[::-1].argmax(axis=0)
    b0, b1, a0, a1 = d[top - _WINDOW, np.arange(m * k)]
    a = ((a1 + (sign << BITS)) << BITS) + a0  # the sign limbs above folded in
    # limb 0 is zero, so argmax is 0 or the lowest nonzero limb
    b = (b1 << BITS) + b0 + 0.5 * ((d != 0).argmax(axis=0) < top - 3)
    exponent = (BITS * top).reshape(m, k) + (base - 7 * BITS)
    return np.ldexp((a * 2.0 ** 52 + b).reshape(m, k), exponent)


_WINDOW = np.arange(3, -1, -1)[:, None]
_BITS, _MASK = np.int64(BITS), np.int64(MASK)
