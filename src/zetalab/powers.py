"""Fixed-point tables of n^(-s) and the sigmoid-weighted sums built on them.

A PowerTable holds n^(-s) for n = 1..N as Python ints scaled by 2^F, with
F = context precision + 16 bits.  n^(-s) is completely multiplicative, so
exp/ln run only at primes; each composite is the rounded product of its
smallest prime factor's entry and its cofactor's.  The table is built for
|Im s| and conjugated when Im s < 0, so s and its conjugate give exactly
conjugate sums.  One generator runs this loop; power_table keeps every
entry, and the zeta oracle streams it to sum its Euler-Maclaurin head.

The weight 1/(1 + E_n), E_n = exp((n - c)/B), enters the sums as the int
w_n = floor(2^(2F) / (2^F + floor(E_n 2^F))).  E_n follows the recurrence
E_{n+1} = E_n q, q = exp(1/B), at the context's precision, and a direct exp
re-anchors it at every n = 1 (mod 32), so w_n depends on n alone and not on
where a sum starts.  Products and running sums are exact ints; only the
final value is rounded back to the context.
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
    """1/(1 + E_n) at the context's precision, with the sums' E_n."""
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
    n = max(start, head + 1)
    c_raw, b_raw = c._mpf_, ctx._mp.mpf(b)._mpf_
    q = libmp.mpf_exp(libmp.mpf_div(libmp.fone, b_raw, prec, _RND), prec, _RND)
    anchor = n - (n - 1) % _ANCHOR_EVERY
    e = _exp_at(anchor, c_raw, b_raw, prec)
    for _ in range(anchor, n):
        e = libmp.mpf_mul(e, q, prec, _RND)
    while True:
        _, man, exp, bc = e
        if exp + bc > bits + 1:
            # E_n >= 2^(bits+1), so floor(E_n 2^bits) > 2^(2 bits): the weight is 0
            yield 0
        else:
            shift = exp + bits
            yield full // (one + (man << shift if shift >= 0 else man >> -shift))
        n += 1
        if (n - 1) % _ANCHOR_EVERY == 0:
            e = _exp_at(n, c_raw, b_raw, prec)
        else:
            e = libmp.mpf_mul(e, q, prec, _RND)


@dataclass(frozen=True)
class PowerTable:
    """n^(-s) = (re[n] + i im[n]) / 2^F for n = 1..n_max; index 0 holds 0.

    head_re[k], head_im[k] are the prefix sums over n = 1..k for
    k <= min(floor(|Im s|/pi), n_max): the terms whose weight can be exactly 1.
    """

    ctx: PrecisionContext
    re: list[int]
    im: list[int]
    head_re: list[int]
    head_im: list[int]

    @property
    def n_max(self) -> int:
        return len(self.re) - 1


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


def _power_entries(s: ComplexAP, n_max: int, ctx: PrecisionContext):
    """Yield (n, re, im), n^(-s) = (re + i im) / 2^frac_bits(ctx), for n = 1..n_max.

    Entries are built for |Im s| and conjugated as they are yielded when
    Im s < 0.  Only n <= n_max // 2 are kept: a composite n = p m has
    p, m <= n/2, so a caller that needs no table holds half of one.
    """
    mp = ctx._mp
    bits = frac_bits(ctx)
    sigma, t = mp.mpf(s.re), abs(mp.mpf(s.im))
    neg_s = (libmp.mpf_neg(sigma._mpf_), libmp.mpf_neg(t._mpf_))
    conjugate = s.im < 0
    half = 1 << (bits - 1)
    spf = _smallest_prime_factors(n_max)
    keep = n_max // 2
    re = [0] * (keep + 1)
    im = [0] * (keep + 1)
    yield 1, 1 << bits, 0
    for n in range(2, n_max + 1):
        p = spf[n]
        if p == n:
            # the phase t ln n loses log2(t ln n) bits; an entry depends on n alone
            wp = bits + 16 + int(float(t) * math.log(n)).bit_length()
            log_n = libmp.mpf_log(libmp.from_int(n), wp, _RND)
            z_re, z_im = libmp.mpc_exp(libmp.mpc_mul_mpf(neg_s, log_n, wp, _RND), wp, _RND)
            e_re, e_im = to_fixed(z_re, bits), to_fixed(z_im, bits)
        else:
            m = n // p
            a_re, a_im, b_re, b_im = re[p], im[p], re[m], im[m]
            e_re = (a_re * b_re - a_im * b_im + half) >> bits
            e_im = (a_re * b_im + a_im * b_re + half) >> bits
        if n <= keep:
            re[n], im[n] = e_re, e_im
        yield n, e_re, -e_im if conjugate else e_im


def power_table(s: ComplexAP, n_max: int, ctx: PrecisionContext) -> PowerTable:
    """n^(-s) for n = 1..n_max as fixed-point ints with frac_bits(ctx) fraction bits."""
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    re, im = [0], [0]
    for _, e_re, e_im in _power_entries(s, n_max, ctx):
        re.append(e_re)
        im.append(e_im)
    mp = ctx._mp
    head = min(int(mp.floor(abs(mp.mpf(s.im)) / mp.pi)), n_max) + 1
    return PowerTable(
        ctx=ctx,
        re=re,
        im=im,
        head_re=list(itertools.accumulate(re[:head])),
        head_im=list(itertools.accumulate(im[:head])),
    )


def weighted_sum(table: PowerTable, c, b: float, n_terms: int) -> ComplexAP:
    """sum_{n=1}^{N} w_n n^(-s), exact in ints and rounded once to the table's context.

    The leading terms with w_n = 2^F come from the table's prefix sums: the
    result is identical to summing them one by one.
    """
    if n_terms > table.n_max:
        raise ValidationError(f"table holds {table.n_max} powers, {n_terms} requested")
    bits = frac_bits(table.ctx)
    head = min(head_length(c, b, bits), n_terms, len(table.head_re) - 1)
    acc_re = table.head_re[head] << bits
    acc_im = table.head_im[head] << bits
    re, im = table.re, table.im
    for n, w in zip(range(head + 1, n_terms + 1), weights(c, b, table.ctx, head + 1)):
        if w:
            acc_re += w * re[n]
            acc_im += w * im[n]
    return from_fixed(acc_re, acc_im, 2 * bits, table.ctx)
