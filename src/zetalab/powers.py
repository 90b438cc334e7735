"""Fixed-point tables of n^(-s) and the sigmoid weights that multiply them.

A PowerTable holds n^(-s) for n = 1..N as Python ints scaled by 2^F, with
F = context precision + 16 bits.  n^(-s) is completely multiplicative, so
exp/ln run only at primes; each composite is the rounded product of its
smallest prime factor's entry and its cofactor's.  At a prime, an integer
kernel gives the entry that mpmath's ln and exp would (_prime_entries).  The
table is built for |Im s| and conjugated when Im s < 0, so s and its
conjugate give exactly conjugate sums.  power_table runs this loop for every
caller: the weighted sums, the spirals, the grid solver's ladder and the
zeta oracle's Euler-Maclaurin head.  What is the same for every s is built
once per process: one sieve (_sieve), grown to the largest table asked for
(at most N_TERMS_MAX entries: 0.1 MB at one-shot sizes, n ~ 8000; 10.3 MB
at the cap), and ln p per kernel width (_prime_logs), kept for 8 widths
(0.07-0.16 MB each at one-shot sizes; 9.4-42 MB each to the cap, P = 30-1000).

The weight 1/(1 + E_n), E_n = exp((n - c)/B), is the fixed-point int
w_n = floor(2^(2F) / (2^F + floor(E_n 2^F))), exactly 2^F through
head_length.  E_n = man 2^exp steps by E_{n+1} = E_n q, q = exp(1/B): man
times q's (F+1)-bit mantissa, F bits shifted off, rounding half up.  A direct
exp at F bits re-anchors E_n at n = head+1, head+129, ..., and man gains
under one bit a step, so it stays below F + 129 bits.  Each step is within
2^-F relative (man >= 2^(F-1)) and q within 2^-(F+1), so K < 128 steps are
within about 1.5 K 2^-F (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 3.1), a quarter of that in units of w_n.  A list
depends on (c, B, ctx) alone, so a shorter one is a prefix of a longer one.
For B > 1/ln 2, q < 2 leaves exp fixed, and the stop test E_n >= 2^(F+1)
runs once per anchor block: E_n only grows, and w_n past it is 0 anyway.
series.weighted_zeta sums w_n n^(-s) exactly in ints, one multiply per term
on the packed table (PowerTable.packed), and rounds once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from mpmath import libmp

from .errors import ValidationError
from .precision import ComplexAP, PrecisionContext

_EXTRA_BITS = 16
N_TERMS_MAX = 10**6  # the most terms a power table, and so a sum, spiral or zeta head, may hold
RE_S_MAX = 10**4  # Re s in [-RE_S_MAX, RE_S_MAX + 1], a band that s -> 1 - s maps onto itself
_ANCHOR_EVERY = 128
_RND = libmp.round_nearest
_KERNEL_EXP = 6  # past |p^-s| (1 + |sigma| ln p/2^b) = 2^6 most primes fail the rounding test


def frac_bits(ctx: PrecisionContext) -> int:
    """F: the fraction bits of every fixed-point value built for ctx."""
    return ctx.prec_bits + _EXTRA_BITS


def center(s: ComplexAP, ctx: PrecisionContext):
    """c = |Im s|/pi, the weight's midpoint; even in t, so conjugates share weights."""
    mp = ctx._mp
    return abs(mp.mpf(s.im)) / mp.pi


def _exp_at(n: int, c, b, prec: int):
    """E_n = exp((n - c)/b) as a raw mpf at prec bits (c, b raw mpfs).

    (n - c)/b carries 64 more bits: up to |n - c|/b = 2^64 its rounding moves
    E_n by under 2^-prec relative.
    """
    x = libmp.mpf_div(libmp.mpf_sub(libmp.from_int(n), c), b, prec + 64, _RND)
    return libmp.mpf_exp(x, prec, _RND)


def head_length(c, b: float, bits: int) -> int:
    """A count h of leading terms with E_n < 2^-(bits+2), so w_n = 2^bits for n <= h.

    h <= c - b(bits+2)ln 2 - 1: the spare term covers the double-precision
    rounding of c and b.
    """
    limit = float(c) - b * (bits + 2) * math.log(2)
    return math.ceil(limit) - 2 if limit > 2 else 0


def weights(c, b: float, ctx: PrecisionContext, last: int) -> tuple[int, list[int]]:
    """(head, w) with head = min(head_length(c, b, F), last): w_n = 2^F for n <= head,
    and w lists w_n for n = head+1..last, 0 from the first E_n >= 2^(F+1) on."""
    bits = frac_bits(ctx)
    one = 1 << bits
    full, half = one << bits, one >> 1
    head = min(head_length(c, b, bits), last)
    out = []
    c_raw, b_raw = c._mpf_, ctx._mp.mpf(b)._mpf_
    # q = exp(1/B) as an (F+1)-bit mantissa; a step multiplies by it and drops F bits
    _, q, dq, bc = libmp.mpf_exp(libmp.mpf_div(libmp.fone, b_raw, bits + 64, _RND), bits + 1, _RND)
    q, dq = q << bits + 1 - bc, dq + bc - 1
    for a in range(head + 1, last + 1, _ANCHOR_EVERY):
        _, man, exp, bc = _exp_at(a, c_raw, b_raw, bits)
        man, exp = man << bits - bc, exp + bc - bits
        for m in range(a, end := min(a + _ANCHOR_EVERY, last + 1)):
            if exp + man.bit_length() > bits + 1:
                # E_m >= 2^(bits+1), so floor(E_m 2^bits) > 2^(2 bits): w_m and all after are 0
                return head, out + [0] * (last + 1 - m)
            shift = exp + bits
            if not dq:  # exp holds to the block's end, and w past the test above is 0 anyway
                for _ in range(a, end):
                    out.append(full // (one + (man << shift if shift >= 0 else man >> -shift)))
                    man = man * q + half >> bits
                break
            out.append(full // (one + (man << shift if shift >= 0 else man >> -shift)))
            man = man * q + half >> bits
            exp += dq
    return head, out


@dataclass(frozen=True)
class PowerTable:
    """n^(-s) = (re[n] + i im[n]) / 2^F for n = 1..n_max; index 0 holds 0."""

    ctx: PrecisionContext
    re: list[int]
    im: list[int]

    @functools.cached_property
    def packed(self) -> tuple[int, list[int]]:
        """(K, pk), pk[n] = re[n] 2^K + im[n]: under weights 0 <= w_n <= 2^F, |sum w_n im[n]|
        < 2^(K-1), so one sum of w_n pk[n] holds both parts apart (Kronecker substitution)."""
        k = max(map(abs, self.im)).bit_length() + frac_bits(self.ctx) + len(self.im).bit_length() + 1
        return k, [(r << k) + i for r, i in zip(self.re, self.im)]


def to_fixed(x, bits: int) -> int:
    """round(x * 2^bits) for a raw mpf tuple x."""
    return libmp.to_int(libmp.mpf_shift(x, bits), _RND)


def from_fixed(re: int, im: int, bits: int, ctx: PrecisionContext) -> ComplexAP:
    """(re + i im) / 2^bits rounded to the context's precision, as libmp.from_man_exp rounds it."""
    mp, prec, a, b = ctx._mp, ctx.prec_bits, abs(re), abs(im)
    return ComplexAP(
        mp.make_mpf(libmp.normalize(int(re < 0), a, -bits, a.bit_length(), prec, _RND)),
        mp.make_mpf(libmp.normalize(int(im < 0), b, -bits, b.bit_length(), prec, _RND)),
    )


_SIEVE = ([0, 1], [])  # (spf, primes) of the largest request so far; callers only read them


def _sieve(n: int) -> tuple[list[int], list[int]]:
    """(spf, primes): the smallest prime factor of each m <= M and the primes <= M, M >= n."""
    global _SIEVE
    spf, primes = _SIEVE
    if n >= len(spf):
        spf = list(range(n + 1))
        for d in range(math.isqrt(n), 1, -1):  # the smallest divisor d > 1 of m (d^2 <= m) writes last
            spf[d * d :: d] = [d] * len(range(d * d, n + 1, d))
        primes = [p for p in range(2, n + 1) if spf[p] == p]
        _SIEVE = spf, primes
    return spf, primes


def _exp_ln_entry(p: int, neg_s, wp: int, bits: int) -> tuple[int, int]:
    """round(p^(-s) 2^bits) by mpmath's ln and exp at wp bits: the kernel's fallback."""
    log_p = libmp.mpf_log(libmp.from_int(p), wp, _RND)
    z_re, z_im = libmp.mpc_exp(libmp.mpc_mul_mpf(neg_s, log_p, wp, _RND), wp, _RND)
    return to_fixed(z_re, bits), to_fixed(z_im, bits)


@functools.lru_cache(maxsize=8)
def _constants(h: int):
    """2 pi, ln 2, and cis(2 pi a 2^-j), 2^(a 2^-j) for a < 64, j = 6, 12, 18, at h
    fraction bits: 63 steps of repeated multiplication, under 3 units each.
    A set takes 0.3-0.6 ms to build and 33-52 KiB at h = 180-446; callers
    alternate widths (zeta at P = 30 and 100, the spirals), so eight are kept."""
    wp = h + 16
    pi, ln2 = libmp.mpf_pi(wp), libmp.mpf_ln2(wp)
    levels = []
    for j in range(6, 19, 6):
        c, s = (to_fixed(x, h) for x in libmp.mpf_cos_sin(libmp.mpf_shift(pi, 1 - j), wp))
        q = to_fixed(libmp.mpf_exp(libmp.mpf_shift(ln2, -j), wp), h)
        cr, ci, mag = [1 << h], [0], [1 << h]
        for _ in range(63):
            x, y = cr[-1], ci[-1]
            cr.append((x * c - y * s) >> h)
            ci.append((x * s + y * c) >> h)
            mag.append(mag[-1] * q >> h)
        levels.append((h - j, cr, ci, mag))
    return to_fixed(libmp.mpf_shift(pi, 1), h), to_fixed(ln2, h), levels


@functools.lru_cache(maxsize=8)
def _prime_logs(width: int) -> dict[int, int]:
    """ln p at width fraction bits by prime p, filled by _prime_entries in increasing p."""
    return {2: to_fixed(libmp.mpf_ln2(width + 8), width)}


def _prime_entries(re: list[int], im: list[int], sieve: tuple, n_max: int, sigma, t, bits: int):
    """Set re[p] + i im[p] = round(p^(-sigma - it) 2^bits) for the primes p <= n_max.

    The kernel (Tang's table-driven exp, ACM TOMS 15, 1989) runs at h = bits
    + 32 fraction bits.  The top 18 bits of the turns t ln p/2pi and of f in
    -sigma log2 p = e + f pick _constants entries, the sin and sinh series
    give the rest, and v = p^(-s) 2^(bits+24) is their product times 2^e,
    within 2^11 units of 2^-h relative (the six tables give 6 3 63 of them).
    Ziv's rounding test (ACM TOMS 17, 1991): where v lies within |p^-s| 2^-9
    (1 + |sigma| ln p/2^b) F-units of a rounding boundary (the kernel's
    error plus 16 times _exp_ln_entry's, see power_table), or where |p^-s|
    (1 + |sigma| ln p/2^b) >= 2^_KERNEL_EXP, the entry is _exp_ln_entry's.
    From the first prime with e >= _KERNEL_EXP on (sigma < 0), every entry
    is _exp_ln_entry's, and the ln p chain stops.
    """
    h, (spf, primes) = bits + 32, sieve
    two_pi, ln2, levels = _constants(h)
    # ln p is within 2p (w/4 + 5) units (by induction over p -+ 1), so this
    # guard keeps t ln p/2pi and sigma log2 p within 2 units of 2^-h
    w = h + 16 + int(t).bit_length() + int(abs(sigma)).bit_length() + (n_max * h).bit_length()
    turns = to_fixed(libmp.mpf_div(t._mpf_, libmp.mpf_shift(libmp.mpf_pi(2 * w), 1), 2 * w, _RND), w)
    rate = to_fixed(libmp.mpf_div(libmp.mpf_neg(sigma._mpf_), libmp.mpf_ln2(2 * w), 2 * w, _RND), w)
    neg_s = (libmp.mpf_neg(sigma._mpf_), libmp.mpf_neg(t._mpf_))
    t_f, sigma_f, one = float(t), abs(float(sigma)), 1 << h
    # ln p at W = h + 96 >= w (w - h <= 75 within the library's limits), shared by every
    # call of that W: within 2p (W/4 + 5) units of 2^-W, so shifted to w, within the bound above
    logs = _prime_logs(width := max(h + 96, w))
    e = 0  # once e >= _KERNEL_EXP (sigma < 0) it never falls as p grows: the ln p chain and kernel stop
    for p in primes:
        if p > n_max:
            break
        # the phase t ln p loses log2(t ln p) bits; an entry depends on p alone
        log_p = math.log(p)
        b = int(t_f * log_p).bit_length()
        if e < _KERNEL_EXP:
            if p not in logs:  # ln p = (ln(p-1) + ln(p+1))/2 + atanh(1/(2p^2-1)), p -+ 1 by factors
                lg, d, k = 0, 2 * p * p - 1, 1
                for m in (p - 1, p + 1):
                    while m > 1:
                        lg += logs[spf[m]]
                        m //= spf[m]
                a = series = (1 << width) // d
                while a:
                    a //= d * d
                    k += 2
                    series += a // k
                logs[p] = (lg >> 1) + series
            lg = logs[p] >> width - w
            u = rate * lg >> 2 * w - h
            e = u >> h
        widen = 1 + sigma_f * log_p / (1 << b)
        if e < _KERNEL_EXP and math.ldexp(widen, e) < 2**_KERNEL_EXP:
            turn, f = (turns * lg >> 2 * w - h) % one, u % one
            y, x = turn % (one >> 18) * two_pi >> h, f % (one >> 18) * ln2 >> h
            y2, x2 = y * y >> h, x * x >> h
            sin, sinh, ty, tx, k = y, x, y, x, 2
            while ty or tx:
                ty, tx = -(ty * y2 >> h) // (k * k + k), (tx * x2 >> h) // (k * k + k)
                sin, sinh, k = sin + ty, sinh + tx, k + 2
            zr, zi = math.isqrt(one * one - sin * sin), sin
            mg = sinh + math.isqrt(one * one + sinh * sinh)
            for shift, cr, ci, mag in levels:
                i = turn >> shift & 63
                zr, zi = (zr * cr[i] - zi * ci[i]) >> h, (zr * ci[i] + zi * cr[i]) >> h
                mg = mg * mag[f >> shift & 63] >> h
            drop = 2 * h - bits - 24 - e
            vr, vi = zr * mg >> drop, -(zi * mg >> drop)
            tol = int(((abs(vr) + abs(vi)) >> bits + 9) * widen) + 2
            if abs(vr % (1 << 24) - (1 << 23)) > tol and abs(vi % (1 << 24) - (1 << 23)) > tol:
                re[p], im[p] = (vr >> 23) + 1 >> 1, (vi >> 23) + 1 >> 1
                continue
        re[p], im[p] = _exp_ln_entry(p, neg_s, bits + 16 + b, bits)


def require_re_s(sigma) -> None:
    """Reject Re s outside [-RE_S_MAX, RE_S_MAX + 1] with a ValidationError."""
    if not -RE_S_MAX <= float(sigma) <= RE_S_MAX + 1:
        raise ValidationError(f"Re s = {float(sigma):g} lies outside [-{RE_S_MAX}, {RE_S_MAX + 1}]")


def power_table(s: ComplexAP, n_max: int, ctx: PrecisionContext) -> PowerTable:
    """n^(-s) for n = 1..n_max as fixed-point ints with frac_bits(ctx) fraction bits.

    A prime's entry is round(p^(-s) 2^F) with p^(-s) from mpmath's ln and exp
    at wp = F + 16 + b bits, b = bitlen(floor(t ln p)), which _prime_entries
    reproduces in integers.  That route is within (2 |sigma| ln p/2^b + 3)
    2^-16 |p^-s| F-units, about |p^-s| 2^-14: the rounded ln p and -s ln p
    move the phase by 2^(b+1-wp) and the exponent by 2 |sigma| ln p 2^-wp,
    and mpc_exp is accurate to about an ulp of wp.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    if n_max > N_TERMS_MAX:
        raise ValidationError(f"n_max must be <= {N_TERMS_MAX}, got {n_max}")
    require_re_s(s.re)
    mp, bits = ctx._mp, frac_bits(ctx)
    half = 1 << (bits - 1)
    spf, primes = _sieve(n_max + 1)
    re, im = [0] * (n_max + 1), [0] * (n_max + 1)
    re[1] = 1 << bits
    _prime_entries(re, im, (spf, primes), n_max, mp.mpf(s.re), abs(mp.mpf(s.im)), bits)
    for n in range(4, n_max + 1):
        p = spf[n]
        if p != n:
            a_re, a_im, b_re, b_im = re[p], im[p], re[n // p], im[n // p]
            re[n] = (a_re * b_re - a_im * b_im + half) >> bits
            im[n] = (a_re * b_im + a_im * b_re + half) >> bits
    if s.im < 0:
        im = [-v for v in im]
    return PowerTable(ctx=ctx, re=re, im=im)
