"""Arbitrary-precision real/complex arithmetic under an explicit digit budget.

Every other module computes through this layer.  A PrecisionContext reads
its mpmath context, sized to ceil(P*log2(10)) + 32 bits, from a process-wide
cache keyed by that precision, so building one costs a lookup and every
context of a budget shares one MPContext.  Nothing writes to a shared
context after it is made: no code here or in the modules above sets prec or
dps on one, and the mpmath functions they call (exp, ln, sin, gamma, fdot,
floor) read its precision without raising it for a while, as mpmath's
higher-level functions do.  Values from different budgets can be mixed: an
mpf operation rounds to its left operand's context, so
PrecisionContext(15).real(1)/3 + PrecisionContext(100).real(1)/3 is an
82-bit mpf and the swapped sum a 365-bit one.  sigmoid.fit_residual relies
on this to add P-digit coefficients into a 40-digit sum.
Public functions take and return ComplexAP, a finite-checked value; _raw
and _wrap carry it to and from the context's mpc; require_count, require_real
and require_complex check arguments and write what they reject through shown.
The heavy loops run on fixed-point ints: to_fixed rounds a raw mpf to one, and
from_fixed_pairs turns int pairs back into ComplexAP values (zeta, the weighted
sums, the spiral points, the grid's entries), skipping the finite check, as
ints are finite.  make_complex reads a ComplexAP from text or numbers and
to_string writes its P digits, whose value round_to_digits gives in integers.
Contexts and ComplexAP values are immutable and safe to share across threads;
the caches in powers and oracle fill lazily, and concurrent fills write equal
entries.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import mpmath
from mpmath import libmp
from mpmath.ctx_mp import MPContext

from .errors import NumericalError, ValidationError

_LOG2_10 = math.log2(10)
_GUARD_BITS = 32

MIN_DIGITS = 15
MAX_DIGITS = 10**6  # far past the presets' 1000; keeps digits * log2(10) a float
_NON_FINITE = (libmp.fnan, libmp.finf, libmp.fninf)  # the raw mpfs mpmath's isnan and isinf accept
_DOUBLE_LIMIT = 2**1024  # past every finite double; named, as Python recomputes 2**1024 per use
_RND = libmp.round_nearest


def shown(value, text=repr) -> str:
    """text(value) for an error message, an int past the double range shown by its bit length,
    also in a tuple or list that text cannot write: str() of an int past 4,300 digits raises."""
    if isinstance(value, int) and abs(value) >= _DOUBLE_LIMIT:
        return f"<int of {value.bit_length()} bits>"
    try:
        return text(value)
    except ValueError:
        inner = ", ".join(map(shown, value))
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"


def require_count(name: str, value, least: int, most: int | None = None) -> None:
    """ValidationError naming `name` unless value is an int, not a bool, in [least, most]."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {shown(value)}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {shown(value, str)}")
    if most is not None and value > most:
        raise ValidationError(f"{name} must be <= {most}, got {shown(value, str)}")


def require_real(name: str, value, above=None):
    """value if a finite numbers.Real, not a bool, > above if given, else a ValidationError naming
    `name`.  An mpf is finite unless NaN or infinite; any other real lies in the double range."""
    if not isinstance(value, (float, int, numbers.Real)) or isinstance(value, bool):  # ABC last (slow)
        raise ValidationError(f"{name} must be a real number, got {shown(value)}")
    if above is not None and not value > above:
        raise ValidationError(f"{name} must be > {above}, got {shown(value, str)}")
    raw = getattr(value, "_mpf_", None)
    if not (abs(value) < _DOUBLE_LIMIT if raw is None else raw not in _NON_FINITE):
        raise ValidationError(f"not a finite number: {shown(value, str)} ({name})")
    return value


def require_complex(name: str, value) -> None:
    """ValidationError naming `name` unless value is a ComplexAP."""
    if not isinstance(value, ComplexAP):
        raise ValidationError(f"{name} must be a ComplexAP, got {shown(value)}")


@functools.cache
def _mp_context(prec: int) -> MPContext:
    """The one MPContext at prec bits; callers must not change its settings."""
    mp = MPContext()
    mp.prec = prec
    return mp


@dataclass(frozen=True)
class PrecisionContext:
    """Decimal digit budget P.

    Primitives (add, mul, div, exp, ln away from branch cuts) are correct to
    within 10^(-digits) relative error; the 32 guard bits absorb rounding in
    long dot products.  Rounding is deterministic round-to-nearest-even.
    """

    digits: int
    prec_bits: int = field(init=False, repr=False, compare=False)  # _mp.prec, read per value built
    _mp: MPContext = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_count("digits", self.digits, MIN_DIGITS, MAX_DIGITS)
        prec = math.ceil(self.digits * _LOG2_10) + _GUARD_BITS
        object.__setattr__(self, "prec_bits", prec)
        object.__setattr__(self, "_mp", _mp_context(prec))

    def real(self, x) -> "mpmath.mpf":
        """Convert int/float/str/mpf to this context's precision."""
        try:
            return self._mp.mpf(x)
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"not a number: {shown(x)}") from exc


@dataclass(frozen=True)
class ComplexAP:
    """Immutable arbitrary-precision complex value (re + im*i).

    Components are mpmath reals; NaN/infinite components are rejected at
    construction, so non-finite values cannot escape an operation.
    """

    re: object
    im: object

    def __post_init__(self):
        for part in (self.re, self.im):
            raw = getattr(part, "_mpf_", None)
            if raw is None:
                bad = mpmath.isnan(part) or mpmath.isinf(part)
            else:  # nan and the infinities have mantissa 0, as zero has
                bad = not raw[1] and raw in _NON_FINITE
            if bad:
                raise NumericalError(f"non-finite component in ComplexAP: {part}")

    def conjugate(self) -> "ComplexAP":
        return ComplexAP(self.re, -self.im)


def make_complex(re: float | str, im: float | str, ctx: PrecisionContext) -> ComplexAP:
    """A ComplexAP from int/float/str/mpf components; NaN or infinity is invalid input."""
    return ComplexAP(require_real("re", ctx.real(re)), require_real("im", ctx.real(im)))


def _raw(z: ComplexAP, ctx: PrecisionContext):
    """Bridge a ComplexAP into the context's native complex type."""
    return ctx._mp.mpc(z.re, z.im)


def _wrap(v) -> ComplexAP:
    return ComplexAP(v.real, v.imag)


def to_fixed(x, bits: int) -> int:
    """round(x * 2^bits) for a raw mpf tuple x."""
    return libmp.to_int(libmp.mpf_shift(x, bits), _RND)


def from_fixed_pairs(pairs, bits: int, ctx: PrecisionContext) -> list[ComplexAP]:
    """(re + i im)/2^bits for each int pair (re, im), each part rounded to the context's
    precision half to even, as libmp.normalize rounds it.

    Parts from ints are finite, so the values skip ComplexAP's finite check: each mpf
    and ComplexAP is made with object.__new__ and its raw tuple or fields set directly.
    """
    mpf, prec, new = ctx._mp.mpf, ctx.prec_bits, object.__new__
    out = []
    for pair in pairs:
        z = new(ComplexAP)
        fields = z.__dict__
        for key, man in zip(("re", "im"), pair):
            sign = 0
            if man < 0:
                sign, man = 1, -man
            n, exp, bc = man.bit_length() - prec, -bits, prec
            if n > 0:  # keep prec bits; a tie rounds to the even mantissa
                half = man >> n - 1
                man = (half >> 1) + 1 if half & 1 and (half & 2 or man & (1 << n - 1) - 1) else half >> 1
                exp += n
            else:
                bc += n
            if not man & 1:  # strip trailing zeros; a carry to 2^prec leaves man = 1
                if man:
                    zeros = (man & -man).bit_length() - 1
                    man >>= zeros
                    exp, bc = exp + zeros, 1 if man == 1 else bc - zeros
                else:
                    sign = exp = 0
            part = new(mpf)
            part._mpf_ = (sign, man, exp, bc)
            fields[key] = part
        out.append(z)
    return out


def power_term(n: int, s: ComplexAP, ctx: PrecisionContext) -> ComplexAP:
    """n^(-s) for a positive integer n, computed as exp(-s * ln n)."""
    require_complex("s", s)
    require_count("n", n, 1)
    mp = ctx._mp
    return _wrap(mp.exp(-mp.mpc(s.re, s.im) * mp.ln(mp.mpf(n))))


def _format_real(x, digits: int) -> str:
    """An mpf as decimal text with exactly `digits` significant digits."""
    return libmp.to_str(x._mpf_, digits, strip_zeros=False)


# the ratio mpmath's to_str sizes its digit string with (not math.log2(10))
_TO_STR_LOG2_10 = math.log(10, 2)
_pow10 = functools.cache((10).__pow__)


def _round_real(x, ctx: PrecisionContext):
    """ctx.real(_format_real(x, ctx.digits))._mpf_ for a raw mpf x, computed in integers.

    _format_real truncates x to a fixed-point decimal of about digits + 3
    digits, rounds the (digits + 1)-th digit half-up, and the parse rounds
    that decimal D 10^e to the nearest mpf: both are repeated here on D and
    e.  Exponents where the parse or the formatting take another route, and
    integral decimals (e >= 0), fall back to the text round trip.
    """
    digits = ctx.digits
    sign, man, exp, bc = x
    if not man or abs(exp + bc) > 3500:
        return ctx.real(_format_real(ctx._mp.make_mpf(x), digits))._mpf_
    fixprec = max(int((digits + 3) * _TO_STR_LOG2_10) + 10 - exp - bc, 0)
    fixdps = int(fixprec / _TO_STR_LOG2_10 + 0.5)
    shift = exp + fixprec
    dec = (man << shift if shift >= 0 else man >> -shift) * _pow10(fixdps) >> fixprec
    # 10^(k-1) <= dec < 10^(k+1); the float floor is exact for bit lengths to 3e5
    k = int((dec.bit_length() - 1) / _TO_STR_LOG2_10) + 1
    dropped = k + (dec >= _pow10(k)) - digits
    e10 = -fixdps
    if dropped > 0:
        dec, last = divmod(dec // _pow10(dropped - 1), 10)
        dec += last >= 5
        e10 += dropped
    if not -400 <= e10 < 0 or e10 + digits > 400:
        return ctx.real(_format_real(ctx._mp.make_mpf(x), digits))._mpf_
    prec = ctx.prec_bits
    # a quotient of prec + 5 bits plus a sticky bit rounds as mpf division does
    den = _pow10(-e10)
    extra = max(prec - dec.bit_length() + den.bit_length() + 5, 5)
    quot, rem = divmod(dec << extra, den)
    num = quot << 1 | (rem != 0)
    return libmp.normalize(sign, num, -extra - 1, num.bit_length(), prec, _RND)


def round_to_digits(z: ComplexAP, ctx: PrecisionContext) -> ComplexAP:
    """Round both components, values of ctx, to exactly P significant decimal digits."""
    return ComplexAP(*(ctx._mp.make_mpf(_round_real(v._mpf_, ctx)) for v in (z.re, z.im)))


def to_string(z: ComplexAP, ctx: PrecisionContext) -> str:
    """Serialize as "re+im i" / "re-im i" with exactly P significant digits."""
    require_complex("z", z)
    digits = ctx.digits
    re_s = _format_real(ctx.real(z.re), digits)
    im_val = ctx.real(z.im)
    sign = "-" if im_val < 0 else "+"
    im_s = _format_real(abs(im_val), digits)
    return f"{re_s}{sign}{im_s}i"

