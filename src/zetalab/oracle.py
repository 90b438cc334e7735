"""Reference evaluation of zeta, gamma, and the functional-equation prefactor.

zeta(s) uses the Euler-Maclaurin expansion: a truncated Dirichlet sum plus the
integral tail N^(1-s)/(s-1), the half-term correction, and a Bernoulli-number
correction series.  The cutoff N0 starts at max(ceil(|t|/pi)+10, ceil(1.3*P))
and escalates until the first neglected correction term certifies the digit
budget.  The Dirichlet head streams the fixed-point n^(-s) entries of
powers.py (exp/ln at primes only, 16 bits past the working precision), sums
them exactly in integers and rounds once.  gamma(s) uses the Stirling series
after an upward recurrence shift, with reflection for Re s < 1/2.  Everything
is computed with ten extra guard digits and rounded back to the requested
budget.

Bernoulli numbers come from the tangent-number recurrence in exact integer
arithmetic (the floating-point defining recurrence cancels catastrophically)
and are cached once per process, as are the correction coefficients
B_2k/(2k)! at each working precision; readers never observe a partial table.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import libmp

from .errors import ChiDegenerateError, PoleError, PrecisionUnreachableError
from .powers import _power_entries, frac_bits, from_fixed
from .precision import ComplexAP, PrecisionContext, _raw, _wrap

_ORACLE_GUARD = 10
_RND = libmp.round_nearest

# ---------------------------------------------------------------------------
# Bernoulli cache


class _BernoulliTable:
    """Even-index Bernoulli numbers B_2, B_4, ... as exact fractions."""

    def __init__(self):
        self._lock = threading.Lock()
        self._table: tuple[Fraction, ...] = ()

    def even(self, k: int) -> Fraction:
        """B_{2k} for k >= 1."""
        table = self._table  # atomic snapshot
        if k <= len(table):
            return table[k - 1]
        with self._lock:
            if k > len(self._table):
                self._table = self._build(max(k, 2 * len(self._table), 16))
            return self._table[k - 1]

    @staticmethod
    def _build(m: int) -> tuple[Fraction, ...]:
        # tangent numbers T_1..T_m via the Brent-Harvey in-place recurrence
        t = [0] * (m + 1)
        t[1] = 1
        for k in range(2, m + 1):
            t[k] = (k - 1) * t[k - 1]
        for k in range(2, m + 1):
            for j in range(k, m + 1):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        out = []
        for n in range(1, m + 1):
            four_n = 4**n
            num = 2 * n * t[n]
            if n % 2 == 0:
                num = -num
            out.append(Fraction(num, four_n * (four_n - 1)))
        return tuple(out)


_BERNOULLI = _BernoulliTable()


def bernoulli_even(k: int) -> Fraction:
    """Exact B_{2k}; cached process-wide."""
    return _BERNOULLI.even(k)


class _CoefficientTables:
    """B_{2k}/(2k)! as raw mpfs, one table per working precision in bits.

    Each value is rounded exactly as mpf(B.numerator) / mpf(B.denominator
    * (2k)!) is at that precision.  Readers take an atomic snapshot of a
    table and never observe a partial one.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tables: dict[int, tuple] = {}

    def get(self, k: int, prec: int):
        """B_{2k}/(2k)! at prec bits for k >= 1."""
        table = self._tables.get(prec, ())  # atomic snapshot
        if k <= len(table):
            return table[k - 1]
        with self._lock:
            table = self._tables.get(prec, ())
            if k > len(table):
                size = max(k, 2 * len(table), 16)
                table += tuple(self._coefficient(j, prec) for j in range(len(table) + 1, size + 1))
                self._tables[prec] = table
            return table[k - 1]

    @staticmethod
    def _coefficient(k: int, prec: int):
        b = bernoulli_even(k)
        num = libmp.from_int(b.numerator, prec, _RND)
        den = libmp.from_int(b.denominator * math.factorial(2 * k), prec, _RND)
        return libmp.mpf_div(num, den, prec, _RND)


_EM_COEFFICIENTS = _CoefficientTables()


# ---------------------------------------------------------------------------
# zeta via Euler-Maclaurin


@dataclass(frozen=True)
class OracleResult:
    """A certified evaluation: value plus the schedule that produced it."""

    value: ComplexAP
    requested_digits: int
    terms_used: int
    correction_order: int


def _euler_maclaurin(s, n0: int, work: PrecisionContext, cutoff, max_order: int):
    """One Euler-Maclaurin pass at fixed cutoff N0 at work's precision (s an mpc of work).

    The head sum over n <= N0 streams the fixed-point power entries and is
    rounded once.  Returns (value, order, certified): certified means the
    first neglected Bernoulli term fell below `cutoff` while terms were
    still shrinking.
    """
    mp = work._mp
    head_re = head_im = 0
    for _, re, im in _power_entries(_wrap(s), n0, work):
        head_re += re
        head_im += im
    head = _raw(from_fixed(head_re, head_im, frac_bits(work), work), work)
    n0r = mp.mpf(n0)
    inv_n = 1 / n0r
    n_pow_ms = mp.exp(-s * mp.ln(n0r))  # N^(-s)
    total = head + n_pow_ms * n0r / (s - 1) - n_pow_ms / 2

    # correction terms T_k = B_{2k}/(2k)! * rising(s, 2k-1) * N^(1-s-2k)
    rising = s
    npow = n_pow_ms * inv_n  # N^(-s-1)
    inv_n2 = inv_n * inv_n
    prev_mag = None
    order = 0
    certified = False
    for k in range(1, max_order + 1):
        term = mp.make_mpf(_EM_COEFFICIENTS.get(k, mp.prec)) * rising * npow
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
        raise PoleError("zeta has a pole at s = 1")
    if s.im < 0:
        mirror = zeta(s.conjugate(), ctx)
        return OracleResult(
            mirror.value.conjugate(),
            mirror.requested_digits,
            mirror.terms_used,
            mirror.correction_order,
        )

    digits = ctx.digits
    work = PrecisionContext(digits, ctx.guard_digits + _ORACLE_GUARD)
    mp = work._mp
    sw = _raw(s, work)
    t = abs(float(s.im))
    cutoff = mp.mpf(10) ** (-(digits + 5))

    n0 = max(math.ceil(t / math.pi) + 10, math.ceil(1.3 * digits))
    for _ in range(9):
        value, order, certified = _euler_maclaurin(sw, n0, work, cutoff, max_order=8 * n0)
        if certified:
            rounded = _wrap(ctx._mp.mpc(value))
            return OracleResult(rounded, digits, n0, order)
        n0 = math.ceil(1.5 * n0)
    raise PrecisionUnreachableError(
        f"Euler-Maclaurin schedule cannot certify {digits} digits at s with |Im s| = {t}"
    )


# ---------------------------------------------------------------------------
# gamma via Stirling


def _lngamma_stirling(w, mp, cutoff, max_order: int):
    """ln gamma by the Stirling series; needs |w| large, Re w  > 0."""
    acc = (w - mp.mpf(1) / 2) * mp.ln(w) - w + mp.ln(2 * mp.pi) / 2
    w2 = w * w
    pw = 1 / w  # w^(1-2k) for k = 1
    prev_mag = None
    for k in range(1, max_order + 1):
        b = bernoulli_even(k)
        term = mp.mpf(b.numerator) / mp.mpf(b.denominator * (2 * k) * (2 * k - 1)) * pw
        mag = abs(term)
        if mag <= cutoff:
            return acc, True
        if prev_mag is not None and mag >= prev_mag:
            return acc, False
        acc += term
        prev_mag = mag
        pw /= w2
    return acc, False


def _gamma_at(z, work: PrecisionContext):
    """gamma(z) for an mpc z of work's type, computed at work's precision."""
    mp = work._mp
    if z.imag == 0 and z.real <= 0 and z.real == mp.floor(z.real):
        raise PoleError(f"gamma has a pole at s = {z.real}")

    if z.real < mp.mpf(1) / 2:
        # reflection: gamma(z) gamma(1-z) = pi / sin(pi z)
        return mp.pi / (mp.sin(mp.pi * z) * _gamma_one_minus(z, work))

    wp_digits = work.digits + work.guard_digits
    cutoff = mp.mpf(10) ** (-(wp_digits + 2))
    # shift along the real axis until |z+shift| ~ 0.4*wp, enough Stirling room
    target = 0.4 * wp_digits + 8
    im_part = abs(float(z.imag))
    if im_part >= target:
        shift = 0
    else:
        shift = max(0, math.ceil(math.sqrt(target**2 - im_part**2) - float(z.real)))
    zs = z + shift
    lg, certified = _lngamma_stirling(zs, mp, cutoff, max_order=4 * wp_digits)
    if not certified:
        raise PrecisionUnreachableError(
            f"Stirling series cannot certify {work.digits} digits for gamma at |z| = {abs(z)}"
        )
    val = mp.exp(lg)
    for j in range(shift):
        val /= z + j
    return val


def _gamma_one_minus(z, work: PrecisionContext):
    """gamma(1 - z) with ten more guard digits, rounded to work's precision."""
    inner = PrecisionContext(work.digits, work.guard_digits + _ORACLE_GUARD)
    return work._mp.mpc(_gamma_at(inner._mp.mpc(1 - z), inner))


def gamma(s: ComplexAP, ctx: PrecisionContext) -> ComplexAP:
    """gamma(s) to the digit budget; poles at non-positive integers."""
    work = PrecisionContext(ctx.digits, ctx.guard_digits + _ORACLE_GUARD)
    return _wrap(ctx._mp.mpc(_gamma_at(_raw(s, work), work)))


# ---------------------------------------------------------------------------
# functional-equation prefactor


def chi(s: ComplexAP, ctx: PrecisionContext) -> ComplexAP:
    """chi(s) = 2^s pi^(s-1) sin(pi s / 2) gamma(1 - s).

    Integer s hits a zero/pole degeneracy of this product form and is
    rejected; zeta(s) = chi(s) zeta(1-s) holds where defined.
    """
    if s.im == 0 and s.re == mpmath.floor(s.re):
        raise ChiDegenerateError(f"chi product form degenerates at integer s = {s.re}")

    digits = ctx.digits
    work = PrecisionContext(digits, ctx.guard_digits + _ORACLE_GUARD)
    mp = work._mp
    z = _raw(s, work)
    g = _gamma_one_minus(z, work)
    val = mp.exp(z * mp.ln(2)) * mp.exp((z - 1) * mp.ln(mp.pi)) * mp.sin(mp.pi * z / 2) * g
    return _wrap(ctx._mp.mpc(val))
