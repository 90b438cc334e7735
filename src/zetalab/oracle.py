"""Reference evaluation of zeta, gamma, and the functional-equation prefactor.

zeta(s) uses the Euler-Maclaurin expansion: a truncated Dirichlet sum plus the
integral tail N^(1-s)/(s-1), the half-term correction, and a Bernoulli-number
correction series.  The cutoff N0 starts where a cost model of head and
correction terms puts it, in [ceil(|t|/2pi)+10, ceil(|t|/pi)+10] and at least
ceil(1.3*P), and escalates until the first neglected correction term, times
Backlund's remainder factor, certifies the digit budget.  The Dirichlet head
sums fixed-point n^(-s) entries exactly in integers (16 bits past the working
precision): a row the caller holds (the grid solver's ladder), or else
powers.head_sum, which groups the terms by their 5-smooth part.
The correction series runs on fixed-point ints too, for Im s >= 0, and
zeta(conj s) is the conjugate of that pass, bit for bit.
Below Re s = -1/2 the head's terms n^(-sigma) grow past zeta(s) itself, so
zeta reflects: zeta(s) = chi(s) zeta(1 - s), with the passes run at 1 - s.
One _chi_wide serves chi and the reflection, log2(8|s| + 16) bits past the
working precision, so chi holds 10^-P to |Im s| = powers.IM_S_MAX = 1e300.
Only zeta carries a certified schedule: gamma(s), and the gamma(1-s) factor
of chi(s), are mpmath's gamma.  All else is computed at the oracle's
working precision, ten guard digits past the budget, and all is rounded
once back to the requested budget.

Bernoulli numbers come from the tangent-number recurrence in exact integer
arithmetic (the floating-point defining recurrence cancels catastrophically),
cached process-wide as whole tables of 16, 32, 64, ... entries, never partial.
Each coefficient B_2k/(2k)! (past k = 128, below about 1000 bits, from
zeta(2k)) is cached process-wide by order and working precision.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

from mpmath import libmp

from .errors import NumericalError, ValidationError
from .powers import N_TERMS_MAX, frac_bits, head_sum, require_s
from .precision import ComplexAP, PrecisionContext, _raw, _wrap, from_fixed_pairs, require_complex
from .precision import require_count, to_fixed

_ORACLE_GUARD = 10
REFLECT_BELOW = -0.5  # zeta(s) is chi(s) zeta(1 - s) for Re s below this
_RND = libmp.round_nearest

# ---------------------------------------------------------------------------
# Bernoulli cache


@functools.cache
def _bernoulli_table(size: int) -> tuple[Fraction, ...]:
    """B_2, B_4, ..., B_{2 size} as exact fractions."""
    # tangent numbers T_1..T_size via the Brent-Harvey in-place recurrence
    t = [0] * (size + 1)
    t[1] = 1
    for k in range(2, size + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, size + 1):
        for j in range(k, size + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = []
    for n in range(1, size + 1):
        four_n = 4**n
        num = 2 * n * t[n]
        if n % 2 == 0:
            num = -num
        out.append(Fraction(num, four_n * (four_n - 1)))
    return tuple(out)


def bernoulli_even(k: int) -> Fraction:
    """Exact B_{2k} for k >= 1, from the table of size 16, 32, 64, ... that holds it."""
    require_count("k", k, 1)
    return _bernoulli_table(16 << ((k - 1) // 16).bit_length())[k - 1]


@functools.cache
def _em_coefficient(k: int, prec: int) -> tuple[int, int]:
    """B_{2k}/(2k)! = man 2^exp as (man, exp) ints at prec bits: mpf(num) /
    mpf(den * (2k)!) from the exact B_2k for k <= 128 or where zeta(2k) needs
    over 16 terms, else (-1)^(k+1) 2 sum_n (2 pi n)^(-2k) = (-1)^(k+1)
    2 zeta(2k)/(2 pi)^(2k), within 1 ulp."""
    if k <= 128 or 8 * k < prec + 20:
        b = bernoulli_even(k)
        num = libmp.from_int(b.numerator, prec, _RND)
        den = libmp.from_int(b.denominator * math.factorial(2 * k), prec, _RND)
        sign, man, exp, _ = libmp.mpf_div(num, den, prec, _RND)
    else:  # (2 pi n)^(-2k) < 2^-wp for n > 2^(wp/2k)
        wp = prec + 20 + k.bit_length()
        two_pi = libmp.mpf_shift(libmp.mpf_pi(wp), 1)
        powers = [libmp.mpf_pow_int(libmp.mpf_mul(two_pi, libmp.from_int(n)), -2 * k, wp, _RND)
                  for n in range(1, int(2 ** (wp / (2 * k))) + 1)]
        _, man, exp, _ = libmp.mpf_sum(powers, prec, _RND)
        sign, exp = 1 - k % 2, exp + 1
    return (-man if sign else man), exp


# ---------------------------------------------------------------------------
# zeta via Euler-Maclaurin


@dataclasses.dataclass(frozen=True)
class OracleResult:
    """A certified evaluation: value plus the schedule that produced it."""

    value: ComplexAP
    terms_used: int
    correction_order: int


def working_context(ctx: PrecisionContext) -> PrecisionContext:
    """The context the oracle computes in: ten guard digits past ctx's budget."""
    return PrecisionContext(ctx.digits + _ORACLE_GUARD)


def first_cutoff(s: ComplexAP, digits: int) -> int:
    """The cutoff N0 of zeta's first Euler-Maclaurin pass at s for a digit budget.

    N0 in [ceil(t/2pi)+10, ceil(t/pi)+10], at least ceil(1.3 P), minimises
    h N0 + c K (h, c: measured us per head and correction term, linear in P).
    With y = ln(2 pi N0/t), K ~ d/2y for d nats to shed, so the optimum solves
    y^2 e^y = pi c d/(h t).  ceil(t/pi)+10 stays unless Newton's method on
    ln(|T_k| |s+2k-1|/(sigma+2k-1)) finds that N0 certifies at a lower cost.
    h = 5.5 + 0.15P predates the integer prime kernel, its two-level tables, the shared ln p,
    sieve and head_sum, so overstates a head term's cost; a refit would move N0, so it stays.
    A ceil(t/pi)+10 past N_TERMS_MAX, or s outside powers.require_s's band, is a ValidationError.
    """
    require_s(s)
    t, sigma, floor = abs(float(s.im)), float(s.re), math.ceil(1.3 * digits)
    if t / math.pi > N_TERMS_MAX - 10:
        raise ValidationError(f"zeta at |Im s| = {t} needs more than {N_TERMS_MAX} head terms")
    hi, lo = max(math.ceil(t / math.pi) + 10, floor), max(math.ceil(t / math.tau) + 10, floor)
    if lo >= hi:
        return hi
    h, c, target = 5.5 + 0.15 * digits, 2.4 + 0.07 * digits, (digits + 5) * math.log(10)
    d = max(target - math.log(math.pi) - sigma * math.log(t / math.tau), 0.0)
    root = math.sqrt(math.pi * c * d / (h * t))  # y ~ root e^(-root/2)
    n0 = min(max(math.ceil(t * math.exp(root * math.exp(-root / 2)) / math.tau), lo), hi)
    # ln|T_k| = ln 2 - 2k ln 2pi + sum_{j<2k-1} ln|s+j| - (sigma+2k-1) ln N0, the
    # sum as G(a) - G(sigma-1/2) at a = sigma+2k-3/2, G(a) = a ln(a^2+t^2)/2 - a
    # + t atan(a/t) (G' = ln|a+it|); f = ln|T_k| + ln(Backlund's factor) + target
    ln_u, t2, a = math.log(math.tau * n0), t * t, sigma - 0.5
    const = target + math.log(2) + (sigma - 1) * math.log(math.tau)
    const -= 0.5 * a * math.log(a * a + t2) - a + t * math.atan2(a, t)
    k_min = max(1.0, 1 - sigma / 2)  # Backlund's factor needs sigma + 2k - 1 > 0
    k = max(k_min, d / (2 * (ln_u - math.log(t))) + 0.5)  # the order at a constant ratio
    for _ in range(12):
        a = sigma + 2 * k - 1.5
        ln_a = math.log(a * a + t2)
        f = const + 0.5 * a * ln_a - a + t * math.atan2(a, t) - (a + 0.5) * ln_u
        f += 0.5 * math.log(1 + t2 / (a + 0.5) ** 2)
        slope = ln_a - 2 * ln_u
        if slope > -0.01:
            return hi  # the terms turn before they certify
        step = f / slope
        k = max(k - step, k_min)
        if abs(step) < 1 or k == k_min:
            break
    else:
        return hi
    k_hi = d / (2 * math.log(math.tau * hi / t))  # an underestimate, so never optimistic
    return n0 if h * n0 + c * k < h * hi + c * k_hi else hi


def _euler_maclaurin(
    s: ComplexAP, n0: int, work: PrecisionContext, head, digits: int, max_order: int
):
    """One Euler-Maclaurin pass at fixed cutoff N0 for Im s >= 0, at work's precision.

    head is (sum re, sum im, last re, last im) of the fixed-point n^(-s) for
    n <= N0 at frac_bits(work); the last entry is N0^(-s).  The correction
    terms T_k = B_2k/(2k)! P_k N0^(-s-1), P_k = rising(s, 2k-1) N0^(2-2k), run
    on fixed-point ints: P_1 = s, P_{k+1} = P_k (s+2k-1)(s+2k)/N0^2, held as
    p 2^shift with shift ~ (k-1) log2(4 pi^2) so that p does not grow with k,
    and the sum of B_2k/(2k)! P_k is multiplied by N0^(-s-1) once.  Floor
    shifts and divisions round a negative part away from zero, so the pass
    would not mirror under conjugation: it takes Im s >= 0 and zeta conjugates.
    Returns (value as an mpc of work, order, certified): certified means the
    first neglected term times Backlund's factor |s+2k-1|/(sigma+2k-1) (a
    bound on the remainder for sigma+2k-1 > 0) fell to 10^-(digits+5) or below
    while terms were still shrinking, both decided on exact integers.
    """
    bits = frac_bits(work)
    head_re, head_im, l_re, l_im = head
    # |N0^(-s)| > 1 (sigma < 0) scales the series up: carry its bits as well
    fbits = bits + max(max(abs(l_re), abs(l_im)).bit_length() - bits, 0)
    one = 1 << fbits
    sw = _raw(s, work)
    sr, si = to_fixed(sw.real._mpf_, fbits), to_fixed(sw.imag._mpf_, fbits)
    si2 = si * si
    n2 = n0 * n0
    # |T_k| <= 10^-(digits+5) <=> |A_k|^2 |N0^(-s)|^2 10^(2 digits+10) <= N0^2 2^(2 fbits+2 bits),
    # i.e. mag scale <= limit; Backlund's factor multiplies the left by |s+2k-1|^2/u^2 >= 1
    scale = (l_re * l_re + l_im * l_im) * 10 ** (2 * digits + 10)
    limit = n2 << (2 * fbits + 2 * bits)
    bound = limit // scale if scale else math.inf
    prec = work.prec_bits
    p_re, p_im = sr, si
    # u = sigma + 2k - 1, and q's numerators u(u + one) - si^2 and si(2u + one), all at
    # fbits; each order adds two = 2 one to u, so they grow by 4u one + q_const (6 one^2)
    # and q_step_im (4 si one), the constant steps taken once here
    u = sr + one
    q_re, q_im = u * (u + one) - si2, si * (2 * u + one)
    two, q_const, q_step_im = 2 * one, 3 << 2 * fbits + 1, si << fbits + 2
    c_re = c_im = 0
    prev = None
    order = shift = 0
    certified = False
    for k in range(1, max_order + 1):
        man, exp = _em_coefficient(k, prec)
        r = -(exp + shift)
        a_re, a_im = (man * p_re) >> r, (man * p_im) >> r  # A_k
        mag = a_re * a_re + a_im * a_im
        if u > 0 and mag <= bound and mag * (u * u + si2) * scale <= limit * u * u:
            certified = True
            break
        if prev is not None and mag >= prev:
            break  # asymptotic series started diverging before certifying
        c_re += a_re
        c_im += a_im
        order = k
        prev = mag
        # advance to k+1: multiply by (s+2k-1)(s+2k)/N0^2 and move a power of
        # two into shift, which tracks k log2(4 pi^2), so p stays near |A_k|; the
        # product takes three multiplications, j = f_re (p_re + p_im), with the
        # integers of the four-multiplication one
        d, shift = fbits + (53 * k) // 10 - shift, (53 * k) // 10
        f_re, f_im = (q_re >> fbits) // n2, (q_im >> fbits) // n2
        j = f_re * (p_re + p_im)
        p_re, p_im = (j - p_im * (f_re + f_im)) >> d, (j + p_re * (f_im - f_re)) >> d
        q_re += (u << fbits + 2) + q_const
        q_im += q_step_im
        u += two
    # head + C N0^(-s)/N0 - N0^(-s)/2, at bits + 1 fraction bits, plus the tail N0^(1-s)/(s-1)
    corr_re = ((c_re * l_re - c_im * l_im) >> fbits) // n0
    corr_im = ((c_re * l_im + c_im * l_re) >> fbits) // n0
    re, im = 2 * (head_re + corr_re) - l_re, 2 * (head_im + corr_im) - l_im
    n_pow_ms = _raw(from_fixed_pairs([(l_re, l_im)], bits, work)[0], work)
    if n0 > abs(sw - 1) * 2 ** (bits - work.prec_bits):  # the tail's N0/|s-1| outgrows F's guard bits
        n_pow_ms = work._mp.exp(-sw * work._mp.ln(n0))
    total = _raw(from_fixed_pairs([(re, im)], bits + 1, work)[0], work) + n_pow_ms * n0 / (sw - 1)
    return total, order, certified


def _certified(s: ComplexAP, ctx: PrecisionContext, head, sign: int):
    """Euler-Maclaurin passes at Im s >= 0 with N0 escalating until one certifies.

    Returns (value as an mpc of the working context, N0, order).  head as
    for zeta, and sign -1 when it holds the entries of conj s; a pass whose
    N0 it does not cover takes powers.head_sum of s to N0 instead.  N0
    stops at N_TERMS_MAX, past which no head is built.
    """
    digits = ctx.digits
    work = working_context(ctx)
    n0 = first_cutoff(s, digits)
    for _ in range(9):
        if head is None or n0 >= len(head[0]):
            sums = head_sum(s, n0, work)
        else:
            re, im = head
            sums = (sum(re[1 : n0 + 1]), sign * sum(im[1 : n0 + 1]), re[n0], sign * im[n0])
        value, order, certified = _euler_maclaurin(s, n0, work, sums, digits, max_order=8 * n0)
        if certified:
            return value, n0, order
        n0 = math.ceil(1.5 * n0)
        if n0 > N_TERMS_MAX:
            break
    t = abs(float(s.im))
    raise NumericalError(
        f"Euler-Maclaurin schedule cannot certify {digits} digits at s with |Im s| = {t}"
    )


def _reflected(s: ComplexAP, ctx: PrecisionContext):
    """zeta(s) = chi(s) zeta(1 - s) for Re s < REFLECT_BELOW and Im s >= 0.

    zeta(1 - s) is the conjugate of the certified passes at 1 - conj s, whose
    real part 1 - sigma > 3/2 keeps every bit of sigma at the working
    precision, 33 bits wider than the context's.  Returns (value as an mpc,
    N0, order of the passes).
    """
    work = working_context(ctx)
    value, n0, order = _certified(ComplexAP(work._mp.mpf(1) - s.re, s.im), ctx, None, 1)
    return _chi_wide(s, ctx) * value.conjugate(), n0, order


def zeta(s: ComplexAP, ctx: PrecisionContext, head=None) -> OracleResult:
    """zeta(s) to the context's digit budget; pole at s = 1.

    head, if given, holds n^(-s) for n = 1..len - 1 as int lists (re, im) at
    frac_bits(working_context(ctx)), index 0 unused: a pass whose N0 it
    covers sums its head from it, a longer pass takes powers.head_sum.
    Below Re s = REFLECT_BELOW the head's terms n^(-sigma) outgrow zeta(s)
    by up to hundreds of digits, so zeta reflects (_reflected), head unread,
    and terms_used and correction_order are those of the passes at 1 - s.
    """
    require_s(s)
    if s.im == 0 and s.re == 1:
        raise NumericalError("zeta has a pole at s = 1")

    # the passes run for |Im s| and the value is conjugated back
    conjugate = s.im < 0
    upper = s.conjugate() if conjugate else s
    if upper.re < REFLECT_BELOW:
        value, n0, order = _reflected(upper, ctx)
    else:
        value, n0, order = _certified(upper, ctx, head, -1 if conjugate else 1)
    rounded = _wrap(ctx._mp.mpc(value))
    return OracleResult(rounded.conjugate() if conjugate else rounded, n0, order)


# ---------------------------------------------------------------------------
# gamma and the functional-equation prefactor


def gamma(s: ComplexAP, ctx: PrecisionContext) -> ComplexAP:
    """gamma(s) to the digit budget; poles at non-positive integers."""
    require_complex("s", s)
    if s.im == 0 and s.re <= 0 and ctx._mp.isint(s.re):
        raise NumericalError(f"gamma has a pole at s = {s.re}")
    work = working_context(ctx)
    return _wrap(ctx._mp.mpc(work._mp.gamma(_raw(s, work))))


def chi(s: ComplexAP, ctx: PrecisionContext) -> ComplexAP:
    """chi(s) = 2^s pi^(s-1) sin(pi s / 2) gamma(1 - s), from _chi_wide, rounded to ctx.

    Integer s (a zero/pole degeneracy of the product form, tested first) and s
    outside powers.require_s's band are rejected; zeta(s) = chi(s) zeta(1-s) where defined.
    """
    require_complex("s", s)
    if s.im == 0 and ctx._mp.isint(s.re):
        raise NumericalError(f"chi product form degenerates at integer s = {s.re}")
    require_s(s)
    return _wrap(ctx._mp.mpc(_chi_wide(s, ctx)))


def _chi_wide(s: ComplexAP, ctx: PrecisionContext):
    """chi(s) as an mpc, log2(8|s| + 16) bits (whole digits) past the working precision:
    the rounded arguments of 2^s, pi^(s-1) and sinpi's cosh/sinh parts each cost up to
    log2|s| bits.  sinpi reduces s/2 exactly, so the trivial zeros give exactly 0."""
    size = abs(float(s.re)) + abs(float(s.im))
    mp = PrecisionContext(working_context(ctx).digits + math.ceil(math.log10(8 * size + 16)))._mp
    z = mp.mpc(s.re, s.im)
    return mp.exp(z * mp.ln(2)) * mp.exp((z - 1) * mp.ln(mp.pi)) * mp.sinpi(z / 2) * mp.gamma(1 - z)
