"""Fixed-point tables of n^(-s) and the sigmoid weights that multiply them.

A PowerTable holds n^(-s) for n = 1..N as Python ints scaled by 2^F, with
F = context precision + 16 bits.  n^(-s) is completely multiplicative, so
exp/ln run only at primes; each composite is the rounded product of its
smallest prime factor's entry and its cofactor's.  At a prime, an integer
kernel gives the entry that mpmath's ln and exp would (_prime_entries).  The
table is built for |Im s| and conjugated when Im s < 0, so s and its conjugate
give exactly conjugate sums.  power_table serves the weighted sums and the grid
ladder (power_ladder: each grid row the row before times n^(-i dt)); head_sum,
zeta's Euler-Maclaurin head, builds only the entries prime to 30 and the
5-smooth ones.  A spiral needs the tables of s and 1 - s, which share
|Im s|: power_pair builds both in one sweep of the primes, with ln p and the phase
of p^(-it) taken once per prime and only the magnitude p^(-sigma), the product
and the rounding test per table; each entry is the one power_table gives, and
the pair takes about 0.8 of two builds.  What is the same for
every s is built once per process: one sieve (_sieve), grown to the largest
table asked for (at most N_TERMS_MAX entries: 0.1 MB at one-shot sizes,
n ~ 8000; 10.3 MB at the cap), and per kernel width h, kept for 8 widths,
ln p (_prime_logs: 0.07-0.16 MB each at one-shot sizes; 9.4-42 MB each to
the cap, P = 30-1000) and the kernel's tables (_constants: 0.24-0.38 MB and
1.4-4.4 ms each at h = 180-446).

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

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

from mpmath import libmp

from .errors import ValidationError
from .precision import ComplexAP, PrecisionContext, _raw, _wrap, require_complex, require_count, to_fixed

_EXTRA_BITS = 16
N_TERMS_MAX = 10**6  # the most terms a power table, and so a sum, spiral or zeta head, may hold
RE_S_MAX = 10**4  # Re s in [-RE_S_MAX, RE_S_MAX + 1], a band that s -> 1 - s maps onto itself
IM_S_MAX = 1e300  # |Im s| at most this: chi holds 10^-P to here, and 8|s| stays a finite float
_ANCHOR_EVERY = 128
_RND = libmp.round_nearest
_WHEEL = (1, 7, 11, 13, 17, 19, 23, 29)  # the residues mod 30 prime to 30
_LEVEL_BITS = 9  # the kernel's two table levels index 9 bits each, to 2^-18
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
    """2 pi, ln 2, the cis and 2^x tables and the series' divisors, at h fraction bits.

    Two levels, j = 9 and 18, of 512 entries: level j holds cis(2 pi a 2^-j)
    = cr + i ci as the lists (cr, ci - cr, cr + ci), so that a complex product
    takes three multiplications, and 2^(a 2^-j).  Each level is built by 511
    steps of repeated multiplication at h + 16 bits (under 2.5 units of
    2^-(h+16) a step, at most doubled by the 2^x levels' growth, so under 2^11
    by the last) and rounded to h bits: every entry is within 1/2 + 2^-5 units
    of 2^-h.  The divisors come in pairs ((2k)(2k+1), (2k+2)(2k+3)), two
    terms of the sin and sinh series at a time.
    A set takes 1.4-4.4 ms to build and 234-371 KiB at h = 180-446; callers
    alternate widths (zeta at P = 30 and 100, the spirals), so eight are kept."""
    guard = 16
    g, wp = h + guard, h + 2 * guard
    half, pi, ln2 = 1 << guard - 1, libmp.mpf_pi(wp), libmp.mpf_ln2(wp)
    cis, mags = [], []
    for j in (_LEVEL_BITS, 2 * _LEVEL_BITS):
        c, s = (to_fixed(x, g) for x in libmp.mpf_cos_sin(libmp.mpf_shift(pi, 1 - j), wp))
        q = to_fixed(libmp.mpf_exp(libmp.mpf_shift(ln2, -j), wp), g)
        x, y, m = 1 << g, 0, 1 << g
        cr, cd, cs, mag = [], [], [], []
        for _ in range(1 << _LEVEL_BITS):
            a, b = x + half >> guard, y + half >> guard
            cr.append(a)
            cd.append(b - a)
            cs.append(a + b)
            mag.append(m + half >> guard)
            x, y, m = (x * c - y * s) >> g, (x * s + y * c) >> g, m * q >> g
        cis.append((cr, cd, cs))
        mags.append(mag)
    # a series argument is below 2pi 2^-18, so a term is 2^30 times smaller than the one before
    pairs = [(k * k + k, k * k + 5 * k + 6) for k in range(2, h // 8, 4)]
    return to_fixed(libmp.mpf_shift(pi, 1), h), to_fixed(ln2, h), cis, mags, pairs


@functools.lru_cache(maxsize=8)
def _prime_logs(width: int) -> dict[int, int]:
    """ln p at width fraction bits by prime p, filled by _prime_entries in increasing p."""
    return {2: to_fixed(libmp.mpf_ln2(width + 8), width)}


def _prime_entries(parts: list, sieve: tuple, n_max: int, t, bits: int):
    """For each (re, im, sigma) in parts, set re[p] + i im[p] = round(p^(-sigma - it) 2^bits)
    for the primes p <= n_max.

    The kernel (Tang's table-driven exp, ACM TOMS 15, 1989) runs at h = bits
    + 32 fraction bits.  The top 18 bits of the turns t ln p/2pi and of f in
    -sigma log2 p = e + f pick _constants entries, 9 bits a level, the sin
    and sinh series give the rest, and v = p^(-s) 2^(bits+24) is their
    product times 2^e.  Before its last floor v is within 30 + h/12 units of
    2^-h relative: 14 from the turns and the rate, under 12 from the four
    table entries, the four products, the series' arguments and the two isqrt,
    and under h/12 + 3 from the series' terms (at most 19 seen at h =
    213-1110).  The rounding test below leaves the kernel |p^-s| 2^14 units of
    v, 2^22 of these units.
    The phase (ln p, the turns, the sin series and the cis levels) depends on
    t alone, so every part shares it; the magnitude (f, the sinh series and
    the 2^f levels), the product and the rounding test run per part.
    Ziv's rounding test (ACM TOMS 17, 1991): where v lies within |p^-s| 2^-9
    (1 + |sigma| ln p/2^b) F-units of a rounding boundary (the kernel's
    error plus 16 times _exp_ln_entry's, see power_table), or where |p^-s|
    (1 + |sigma| ln p/2^b) >= 2^_KERNEL_EXP, the entry is _exp_ln_entry's.
    From the first prime with e >= _KERNEL_EXP on (sigma < 0), every entry
    of that part is _exp_ln_entry's, and once that holds for every part the
    ln p chain stops.
    """
    h, (spf, primes) = bits + 32, sieve
    two_pi, ln2, ((cr1, cd1, cs1), (cr2, cd2, cs2)), (mag1, mag2), pairs = _constants(h)
    # ln p is within 2p (w/4 + 5) units (by induction over p -+ 1), so this guard, at the
    # largest |sigma|, keeps t ln p/2pi and every sigma log2 p within 2 units of 2^-h
    top = max(int(abs(sigma)).bit_length() for _, _, sigma in parts)
    w = h + 16 + int(t).bit_length() + top + (n_max * h).bit_length()
    turns = to_fixed(libmp.mpf_div(t._mpf_, libmp.mpf_shift(libmp.mpf_pi(2 * w), 1), 2 * w, _RND), w)
    ln2_w, neg_t, rows = libmp.mpf_ln2(2 * w), libmp.mpf_neg(t._mpf_), []
    for re, im, sigma in parts:  # rate = -sigma/ln 2 at w bits, and -s for the fallback
        neg = libmp.mpf_neg(sigma._mpf_)
        rate = to_fixed(libmp.mpf_div(neg, ln2_w, 2 * w, _RND), w)
        rows.append((re, im, rate, abs(float(sigma)), (neg, neg_t)))
    t_f, one = float(t), 1 << h
    top_shift, mid_shift = h - _LEVEL_BITS, h - 2 * _LEVEL_BITS
    sq, frac_mask, tail_mask, level_mask = one * one, one - 1, (1 << mid_shift) - 1, (1 << _LEVEL_BITS) - 1
    down, drop = 2 * w - h, 2 * h - bits - 24
    kexp, klim, edge_mask, mid = _KERNEL_EXP, 2.0**_KERNEL_EXP, (1 << 24) - 1, 1 << 23
    # ln p at W = max(h + 96, w), shared by every call of that W: within 2p (W/4 + 5) units of
    # 2^-W, so shifted to w, within the bound above.  W = h + 96 for the presets' |t| <= 1e6
    # (w - h <= 75) and for short tables to |t| ~ 1e19; w passes it beyond (h + 1,027 at 1e300)
    logs = _prime_logs(width := max(h + 96, w))
    log, isqrt, ldexp = math.log, math.isqrt, math.ldexp
    live = True  # some part's e < _KERNEL_EXP; e never falls as p grows, so once none is, none will be
    for p in primes[: bisect.bisect_right(primes, n_max)]:
        # the phase t ln p loses log2(t ln p) bits; an entry depends on p alone
        log_p = log(p)
        b = int(t_f * log_p).bit_length()
        if not live:
            for re, im, _, _, neg_s in rows:
                re[p], im[p] = _exp_ln_entry(p, neg_s, bits + 16 + b, bits)
            continue
        lg = logs.get(p)
        if lg is None:  # ln p = (ln(p-1) + ln(p+1))/2 + atanh(1/(2p^2-1)), p -+ 1 by factors
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
            lg = logs[p] = (lg >> 1) + series
        lg >>= width - w
        # the power-of-two moduli as masks, which give the same residue for negative ints too
        turn = turns * lg >> down & frac_mask
        y = (turn & tail_mask) * two_pi >> h
        y2 = y * y >> h
        sin = ty = y
        for d1, d2 in pairs:
            ty = (ty * y2 >> h) // d1
            sin -= ty
            ty = (ty * y2 >> h) // d2
            sin += ty
            if not ty:
                break
        zr, zi = isqrt(sq - sin * sin), sin
        # (zr + i zi)(cr + i ci) = k - zi (cr + ci) + i (k + zr (ci - cr)), k = cr (zr + zi)
        i = turn >> top_shift
        k = cr1[i] * (zr + zi)
        zr, zi = k - zi * cs1[i] >> h, k + zr * cd1[i] >> h
        i = turn >> mid_shift & level_mask
        k = cr2[i] * (zr + zi)
        zr, zi = k - zi * cs2[i] >> h, k + zr * cd2[i] >> h
        live = False
        spread = ldexp(log_p, -b)
        for re, im, rate, sigma_f, neg_s in rows:
            u = rate * lg >> down
            e = u >> h
            widen = 1 + sigma_f * spread
            if e < kexp:
                live = True
                if ldexp(widen, e) < klim:
                    f = u & frac_mask
                    x = (f & tail_mask) * ln2 >> h
                    x2 = x * x >> h
                    sinh = tx = x
                    for d1, d2 in pairs:
                        tx = (tx * x2 >> h) // d1
                        sinh += tx
                        tx = (tx * x2 >> h) // d2
                        sinh += tx
                        if not tx:
                            break
                    mg = sinh + isqrt(sq + sinh * sinh)
                    mg = mg * mag1[f >> top_shift] >> h
                    mg = mg * mag2[f >> mid_shift & level_mask] >> h
                    vr, vi = zr * mg >> drop - e, -(zi * mg >> drop - e)
                    tol = int(((abs(vr) + abs(vi)) >> bits + 9) * widen) + 2
                    if abs((vr & edge_mask) - mid) > tol and abs((vi & edge_mask) - mid) > tol:
                        re[p], im[p] = (vr >> 23) + 1 >> 1, (vi >> 23) + 1 >> 1
                        continue
            re[p], im[p] = _exp_ln_entry(p, neg_s, bits + 16 + b, bits)


def require_s(s: ComplexAP) -> None:
    """ValidationError unless s is a ComplexAP, Re s in [-RE_S_MAX, RE_S_MAX + 1], |Im s| <= IM_S_MAX."""
    require_complex("s", s)
    sigma, t = float(s.re), abs(float(s.im))
    if not -RE_S_MAX <= sigma <= RE_S_MAX + 1:
        raise ValidationError(f"Re s = {sigma:g} lies outside [-{RE_S_MAX}, {RE_S_MAX + 1}]")
    if not t <= IM_S_MAX:
        raise ValidationError(f"|Im s| = {t:g} lies past IM_S_MAX = {IM_S_MAX:g}")


def _tables(points: list[ComplexAP], n_max: int, ctx: PrecisionContext, order=None) -> list[PowerTable]:
    """Per point (all of one |Im s|) a PowerTable from one sweep of _prime_entries: its prime
    entries, and each composite n of order (4..n_max if None), after its cofactor; 0 at the rest."""
    require_count("n_max", n_max, 1, N_TERMS_MAX)
    for z in points:
        require_s(z)
    mp, bits = ctx._mp, frac_bits(ctx)
    half = 1 << (bits - 1)
    spf, primes = _sieve(n_max + 1)
    parts = [([0] * (n_max + 1), [0] * (n_max + 1), mp.mpf(z.re)) for z in points]
    _prime_entries(parts, (spf, primes), n_max, abs(mp.mpf(points[0].im)), bits)
    tables = []
    for (re, im, _), z in zip(parts, points):
        re[1] = 1 << bits
        for n in range(4, n_max + 1) if order is None else order:
            p = spf[n]
            if p != n:
                q = n // p
                a_re, a_im, b_re, b_im = re[p], im[p], re[q], im[q]
                re[n] = (a_re * b_re - a_im * b_im + half) >> bits
                im[n] = (a_re * b_im + a_im * b_re + half) >> bits
        tables.append(PowerTable(ctx=ctx, re=re, im=[-v for v in im] if z.im < 0 else im))
    return tables


def power_table(s: ComplexAP, n_max: int, ctx: PrecisionContext) -> PowerTable:
    """n^(-s) for n = 1..n_max as fixed-point ints with frac_bits(ctx) fraction bits.

    A prime's entry is round(p^(-s) 2^F) with p^(-s) from mpmath's ln and exp
    at wp = F + 16 + b bits, b = bitlen(floor(t ln p)), which _prime_entries
    reproduces in integers.  That route is within (2 |sigma| ln p/2^b + 3)
    2^-16 |p^-s| F-units, about |p^-s| 2^-14: the rounded ln p and -s ln p
    move the phase by 2^(b+1-wp) and the exponent by 2 |sigma| ln p 2^-wp,
    and mpc_exp is accurate to about an ulp of wp.
    """
    return _tables([s], n_max, ctx)[0]


def power_pair(s: ComplexAP, n_max: int, ctx: PrecisionContext) -> tuple[PowerTable, PowerTable]:
    """power_table of s and of 1 - s (rounded to ctx), both from one prime sweep at |Im s|."""
    direct, mirror = _tables([s, _wrap(1 - _raw(s, ctx))], n_max, ctx)
    return direct, mirror


def power_ladder(grid: list[ComplexAP], n_max: int, work: PrecisionContext):
    """Yield n^(-s_m) for n = 1..n_max, for each grid point in turn, as int lists
    (re, im) at frac_bits(work), index 0 holding 0.  One row is alive at a time.

    Row m is row m-1 times the node x_n = n^(-i dt), dt = t_2 - t_1, products
    rounded as power_table rounds its composites.  solver.build_grid's ordinates
    step by exactly dt below its 2^33 bound; a row with another sigma, or a
    step other than dt, restarts from its own table.  The row and node tables
    are power tables at work's precision.  A grid that starts below the real
    axis is run mirrored and its rows conjugated, so conjugate grids give
    exactly conjugate rows.
    """
    bits, mp = frac_bits(work), work._mp
    half = 1 << (bits - 1)
    flip = bool(grid) and grid[0].im < 0
    dt = node = prev = None
    for s in grid:
        if flip:
            s = s.conjugate()
        sigma, t = mp.mpf(s.re)._mpf_, mp.mpf(s.im)._mpf_
        step = libmp.mpf_sub(t, prev[1]) if prev and sigma == prev[0] else None
        if step is not None and dt is None:
            dt = libmp.mpf_sub(t, prev[1], work.prec_bits, _RND)
            node = power_table(ComplexAP(mp.zero, mp.make_mpf(dt)), n_max, work)
        if step is None or step != dt:
            table = power_table(s, n_max, work)
            re, im = table.re, table.im
        else:
            re, im = (
                [(a * c - b * d + half) >> bits for a, b, c, d in zip(re, im, node.re, node.im)],
                [(a * d + b * c + half) >> bits for a, b, c, d in zip(re, im, node.re, node.im)],
            )
        prev = sigma, t
        yield (re, [-v for v in im]) if flip else (re, im)


def head_sum(s: ComplexAP, n0: int, ctx: PrecisionContext) -> tuple[int, int, int, int]:
    """(sum re, sum im, re[N0], im[N0]) over n = 1..N0 of power_table(s, N0, ctx).

    The sum is sum_k T[k] C(N0 // k), k 5-smooth, C(x) summing T[m] over m <= x prime to 30;
    only those entries and N0's cofactors N0/k are built (as power_table builds them), and
    the exact products are rounded once.  The sums are within 5/2 N0 max(1, N0^-sigma) + 1
    units of 2^-F of power_table's: k's chain of roundings moves T[km] from T[k] T[m] 2^-F
    by at most sqrt(2) Omega(k) max(1, n^-sigma), and sum_{n <= N0} Omega(k) <= 7 N0/4.
    """
    smooth = [1]
    for p in (2, 3, 5):
        for k in smooth:  # the loop visits what it appends, so every k p^e
            if k * p <= n0:
                smooth.append(k * p)
    # capped, so that an N0 past N_TERMS_MAX reaches _tables' check before a long list
    coprime = [b + r for b in range(0, min(n0, N_TERMS_MAX) + 1, 30) for r in _WHEEL if b + r <= n0]
    table = _tables([s], n0, ctx, coprime + smooth + sorted(n0 // k for k in smooth if n0 % k == 0))[0]
    c_re, c_im = (list(itertools.accumulate(part[m] for m in coprime)) for part in (table.re, table.im))
    # C(N0 // k) is c[i] at i + 1 = the count of m <= N0 // k prime to 30
    ki = [(k, 8 * (n0 // k // 30) + bisect.bisect_right(_WHEEL, n0 // k % 30) - 1) for k in smooth]
    total_re = sum(table.re[k] * c_re[i] - table.im[k] * c_im[i] for k, i in ki)
    total_im = sum(table.re[k] * c_im[i] + table.im[k] * c_re[i] for k, i in ki)
    half = 1 << (bits := frac_bits(ctx)) - 1
    return total_re + half >> bits, total_im + half >> bits, table.re[n0], table.im[n0]
