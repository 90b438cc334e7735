"""Fixed-point tables of n^(-s) and the sigmoid weights that multiply them.

A PowerTable holds n^(-s) for n = 1..N as Python ints scaled by 2^F, with
F = context precision + 16 bits.  n^(-s) is completely multiplicative, so
exp/ln run only at primes; each composite is the rounded product of its
smallest prime factor's entry and its cofactor's.  The table is built for
|Im s| and conjugated when Im s < 0, so s and its conjugate give exactly
conjugate sums.  power_table runs this loop for every caller: the weighted
sums, the spirals, the grid solver's ladder and the zeta oracle's
Euler-Maclaurin head.

The weight 1/(1 + E_n), E_n = exp((n - c)/B), is the fixed-point int
w_n = floor(2^(2F) / (2^F + floor(E_n 2^F))).  E_n follows the recurrence
E_{n+1} = E_n q, q = exp(1/B), on integer mantissas: each step multiplies
mantissas, adds exponents and rounds to the context's precision half to
even, as mpf_mul does.  A direct exp re-anchors it at every n = 1 (mod 32),
so w_n depends on n alone and not on where a sum starts.
series.weighted_zeta sums w_n n^(-s) exactly in ints and rounds once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from mpmath import libmp

from .errors import ValidationError
from .precision import ComplexAP, PrecisionContext

_EXTRA_BITS = 16
_ANCHOR_EVERY = 32
_RND = libmp.round_nearest


def frac_bits(ctx: PrecisionContext) -> int:
    """F: the fraction bits of every fixed-point value built for ctx."""
    return ctx.prec_bits + _EXTRA_BITS


def center(s: ComplexAP, ctx: PrecisionContext):
    """c = |Im s|/pi, the weight's midpoint; even in t, so conjugates share weights."""
    mp = ctx._mp
    return abs(mp.mpf(s.im)) / mp.pi


def _exp_at(n: int, c, b, prec: int):
    """E_n = exp((n - c)/b) as a raw mpf at prec bits (c, b raw mpfs)."""
    x = libmp.mpf_div(libmp.mpf_sub(libmp.from_int(n), c, prec, _RND), b, prec, _RND)
    return libmp.mpf_exp(x, prec, _RND)


def sigmoid_weight(n: int, c, b: float, ctx: PrecisionContext):
    """1/(1 + exp((n - c)/b)) at the context's precision, by one direct exp.

    This is not the sums' w_n: they step E_n by the recurrence between
    anchors, which can differ from the direct exp in the last bits.
    """
    mp = ctx._mp
    return 1 / (1 + mp.make_mpf(_exp_at(n, c._mpf_, mp.mpf(b)._mpf_, ctx.prec_bits)))


def head_length(c, b: float, bits: int) -> int:
    """A count h of leading terms with E_n < 2^-(bits+2), so w_n = 2^bits for n <= h.

    h <= c - b(bits+2)ln 2 - 1: the spare term covers the double-precision
    rounding of c and b.
    """
    limit = float(c) - b * (bits + 2) * math.log(2)
    return math.ceil(limit) - 2 if limit > 2 else 0


def weights(c, b: float, ctx: PrecisionContext, start: int = 1):
    """Yield the fixed-point weights w_n for n = start, start + 1, ... without end."""
    bits = frac_bits(ctx)
    prec = ctx.prec_bits
    one = 1 << bits
    full = one << bits
    head = head_length(c, b, bits)
    for _ in range(start, head + 1):
        yield one
    first = max(start, head + 1)
    c_raw, b_raw = c._mpf_, ctx._mp.mpf(b)._mpf_
    _, q_man, q_exp, _ = libmp.mpf_exp(libmp.mpf_div(libmp.fone, b_raw, prec, _RND), prec, _RND)
    # walk from the anchor at or before the first term, yielding from there on
    for n in itertools.count(first - (first - 1) % _ANCHOR_EVERY):
        if (n - 1) % _ANCHOR_EVERY == 0:
            _, man, exp, _ = _exp_at(n, c_raw, b_raw, prec)
        else:
            # E_n = E_(n-1) q rounded to prec bits half to even, as mpf_mul rounds it
            man *= q_man
            exp += q_exp
            s = man.bit_length() - prec
            if s > 0:
                # floor shift of man + 2^(s-1) - 1, plus one more when the kept part is odd
                man = (man + (1 << s - 1) - 1 + (man >> s & 1)) >> s
                exp += s
        if n < first:
            continue
        if exp + man.bit_length() > bits + 1:
            # E_n >= 2^(bits+1), so floor(E_n 2^bits) > 2^(2 bits): the weight is 0
            yield 0
        else:
            shift = exp + bits
            yield full // (one + (man << shift if shift >= 0 else man >> -shift))


@dataclass(frozen=True)
class PowerTable:
    """n^(-s) = (re[n] + i im[n]) / 2^F for n = 1..n_max; index 0 holds 0."""

    ctx: PrecisionContext
    re: list[int]
    im: list[int]


def to_fixed(x, bits: int) -> int:
    """round(x * 2^bits) for a raw mpf tuple x."""
    return libmp.to_int(libmp.mpf_shift(x, bits), _RND)


def from_fixed(re: int, im: int, bits: int, ctx: PrecisionContext) -> ComplexAP:
    """(re + i im) / 2^bits rounded to the context's precision."""
    mp, prec = ctx._mp, ctx.prec_bits
    return ComplexAP(
        mp.make_mpf(libmp.from_man_exp(re, -bits, prec, _RND)),
        mp.make_mpf(libmp.from_man_exp(im, -bits, prec, _RND)),
    )


def _smallest_prime_factors(n_max: int) -> list[int]:
    spf = list(range(n_max + 1))
    for p in range(2, math.isqrt(n_max) + 1):
        if spf[p] == p:
            for k in range(p * p, n_max + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def power_table(s: ComplexAP, n_max: int, ctx: PrecisionContext) -> PowerTable:
    """n^(-s) for n = 1..n_max as fixed-point ints with frac_bits(ctx) fraction bits."""
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    mp = ctx._mp
    bits = frac_bits(ctx)
    sigma, t = mp.mpf(s.re), abs(mp.mpf(s.im))
    neg_s = (libmp.mpf_neg(sigma._mpf_), libmp.mpf_neg(t._mpf_))
    half = 1 << (bits - 1)
    spf = _smallest_prime_factors(n_max)
    re, im = [0] * (n_max + 1), [0] * (n_max + 1)
    re[1] = 1 << bits
    for n in range(2, n_max + 1):
        p = spf[n]
        if p == n:
            # the phase t ln n loses log2(t ln n) bits; an entry depends on n alone
            wp = bits + 16 + int(float(t) * math.log(n)).bit_length()
            log_n = libmp.mpf_log(libmp.from_int(n), wp, _RND)
            z_re, z_im = libmp.mpc_exp(libmp.mpc_mul_mpf(neg_s, log_n, wp, _RND), wp, _RND)
            re[n], im[n] = to_fixed(z_re, bits), to_fixed(z_im, bits)
        else:
            a_re, a_im, b_re, b_im = re[p], im[p], re[n // p], im[n // p]
            re[n] = (a_re * b_re - a_im * b_im + half) >> bits
            im[n] = (a_re * b_im + a_im * b_re + half) >> bits
    if s.im < 0:
        im = [-v for v in im]
    return PowerTable(ctx=ctx, re=re, im=im)
