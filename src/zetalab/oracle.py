"""Reference evaluation of zeta, gamma, and the functional-equation prefactor.

zeta(s) uses the Euler-Maclaurin expansion: a truncated Dirichlet sum plus the
integral tail N^(1-s)/(s-1), the half-term correction, and a Bernoulli-number
correction series.  The cutoff N0 starts at max(ceil(|t|/pi)+10, ceil(1.3*P))
and escalates until the first neglected correction term certifies the digit
budget.  The Dirichlet head streams the fixed-point n^(-s) entries of
powers.py (exp/ln at primes only, 16 bits past the working precision), sums
them exactly in integers and rounds once.  Only zeta carries a certified
schedule: gamma(s), and the gamma(1-s) factor of chi(s), are mpmath's gamma.
Everything is computed at the oracle's working precision, ten guard digits
past the budget, and rounded once back to the requested budget.

Bernoulli numbers come from the tangent-number recurrence in exact integer
arithmetic (the floating-point defining recurrence cancels catastrophically).
They and the correction coefficients B_2k/(2k)! at each working precision
are cached process-wide, a whole table or one value per entry, so readers
never observe a partial table.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

import mpmath
from mpmath import libmp

from .errors import NumericalError, ValidationError
from .powers import _power_entries, frac_bits, from_fixed
from .precision import ComplexAP, PrecisionContext, _raw, _wrap

_ORACLE_GUARD = 10
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
    if k < 1:
        raise ValidationError(f"bernoulli_even needs k >= 1, got {k}")
    return _bernoulli_table(16 << ((k - 1) // 16).bit_length())[k - 1]


@functools.cache
def _em_coefficient(k: int, prec: int):
    """B_{2k}/(2k)! as a raw mpf at prec bits, rounded as mpf(num) / mpf(den * (2k)!)."""
    b = bernoulli_even(k)
    num = libmp.from_int(b.numerator, prec, _RND)
    den = libmp.from_int(b.denominator * math.factorial(2 * k), prec, _RND)
    return libmp.mpf_div(num, den, prec, _RND)


# ---------------------------------------------------------------------------
# zeta via Euler-Maclaurin


@dataclasses.dataclass(frozen=True)
class OracleResult:
    """A certified evaluation: value plus the schedule that produced it."""

    value: ComplexAP
    terms_used: int
    correction_order: int


def _euler_maclaurin(s, n0: int, work: PrecisionContext, cutoff, max_order: int):
    """One Euler-Maclaurin pass at fixed cutoff N0 at work's precision (s an mpc of work).

    The head sum over n <= N0 streams the fixed-point power entries and is
    rounded once; the last entry, rounded alone, is N0^(-s).  Returns
    (value, order, certified): certified means the first neglected Bernoulli
    term fell below `cutoff` while terms were still shrinking.
    """
    mp = work._mp
    bits = frac_bits(work)
    head_re = head_im = 0
    for _, re, im in _power_entries(_wrap(s), n0, work):
        head_re += re
        head_im += im
    head = _raw(from_fixed(head_re, head_im, bits, work), work)
    n_pow_ms = _raw(from_fixed(re, im, bits, work), work)  # N^(-s), the last entry
    n0r = mp.mpf(n0)
    inv_n = 1 / n0r
    total = head + n_pow_ms * n0r / (s - 1) - n_pow_ms / 2

    # correction terms T_k = B_{2k}/(2k)! * rising(s, 2k-1) * N^(1-s-2k)
    rising = s
    npow = n_pow_ms * inv_n  # N^(-s-1)
    inv_n2 = inv_n * inv_n
    prev_mag = None
    order = 0
    certified = False
    for k in range(1, max_order + 1):
        term = mp.make_mpf(_em_coefficient(k, mp.prec)) * rising * npow
        mag = abs(term)
        if mag <= cutoff:
            certified = True
            break
        if prev_mag is not None and mag >= prev_mag:
            break  # asymptotic series started diverging before certifying
        total += term
        order = k
        prev_mag = mag
        # advance to k+1
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        npow *= inv_n2
    return total, order, certified


def zeta(s: ComplexAP, ctx: PrecisionContext) -> OracleResult:
    """zeta(s) to the context's digit budget; pole at s = 1."""
    if s.im == 0 and s.re == 1:
        raise NumericalError("zeta has a pole at s = 1")

    digits = ctx.digits
    work = PrecisionContext(digits + _ORACLE_GUARD)
    mp = work._mp
    sw = _raw(s, work)
    t = abs(float(s.im))
    cutoff = mp.mpf(10) ** (-(digits + 5))

    n0 = max(math.ceil(t / math.pi) + 10, math.ceil(1.3 * digits))
    for _ in range(9):
        value, order, certified = _euler_maclaurin(sw, n0, work, cutoff, max_order=8 * n0)
        if certified:
            rounded = _wrap(ctx._mp.mpc(value))
            return OracleResult(rounded, n0, order)
        n0 = math.ceil(1.5 * n0)
    raise NumericalError(
        f"Euler-Maclaurin schedule cannot certify {digits} digits at s with |Im s| = {t}"
    )


# ---------------------------------------------------------------------------
# gamma and the functional-equation prefactor


def gamma(s: ComplexAP, ctx: PrecisionContext) -> ComplexAP:
    """gamma(s) to the digit budget; poles at non-positive integers."""
    if s.im == 0 and s.re <= 0 and s.re == mpmath.floor(s.re):
        raise NumericalError(f"gamma has a pole at s = {s.re}")
    work = PrecisionContext(ctx.digits + _ORACLE_GUARD)
    return _wrap(ctx._mp.mpc(work._mp.gamma(_raw(s, work))))


def chi(s: ComplexAP, ctx: PrecisionContext) -> ComplexAP:
    """chi(s) = 2^s pi^(s-1) sin(pi s / 2) gamma(1 - s).

    Integer s hits a zero/pole degeneracy of this product form and is
    rejected; zeta(s) = chi(s) zeta(1-s) holds where defined.
    """
    if s.im == 0 and s.re == mpmath.floor(s.re):
        raise NumericalError(f"chi product form degenerates at integer s = {s.re}")

    work = PrecisionContext(ctx.digits + _ORACLE_GUARD)
    mp = work._mp
    z = _raw(s, work)
    val = mp.exp(z * mp.ln(2)) * mp.exp((z - 1) * mp.ln(mp.pi)) * mp.sin(mp.pi * z / 2)
    return _wrap(ctx._mp.mpc(val * mp.gamma(1 - z)))
