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
and _wrap carry it to and from the context's mpc.  The heavy loops build
values from Python integers and libmp raw tuples (from_fixed_pairs, which
powers.from_fixed, the spiral points and solver.assemble_system's entries
take, and solver._eliminate); from_fixed_pairs skips the finite check, as
its ints are finite.  make_complex reads a ComplexAP from text or numbers
and to_string writes it.  Contexts and ComplexAP values are immutable and
safe to share across threads; the caches in powers and oracle fill lazily,
and concurrent fills write equal entries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import mpmath
from mpmath.ctx_mp import MPContext
from mpmath.libmp import finf, fnan, fninf
from mpmath.libmp import to_str as _mpf_to_str

from .errors import NumericalError, ValidationError

_LOG2_10 = math.log2(10)
_GUARD_BITS = 32

MIN_DIGITS = 15
_NON_FINITE = (fnan, finf, fninf)  # the raw mpf values that mpmath's isnan and isinf accept


def require_count(name: str, value, least: int, most: int | None = None) -> None:
    """ValidationError naming `name` unless value is an int, not a bool, in [least, most]."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValidationError(f"{name} must be <= {most}, got {value}")


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
        require_count("digits", self.digits, MIN_DIGITS)
        prec = math.ceil(self.digits * _LOG2_10) + _GUARD_BITS
        object.__setattr__(self, "prec_bits", prec)
        object.__setattr__(self, "_mp", _mp_context(prec))

    def real(self, x) -> "mpmath.mpf":
        """Convert int/float/str/mpf to this context's precision."""
        try:
            return self._mp.mpf(x)
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"not a number: {x!r}") from exc


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


def make_complex(re, im, ctx: PrecisionContext) -> ComplexAP:
    """A ComplexAP from int/float/str/mpf components; NaN or infinity is invalid input."""
    parts = ctx.real(re), ctx.real(im)
    for part in parts:
        if not mpmath.isfinite(part):
            raise ValidationError(f"not a finite number: {part}")
    return ComplexAP(*parts)


def _raw(z: ComplexAP, ctx: PrecisionContext):
    """Bridge a ComplexAP into the context's native complex type."""
    return ctx._mp.mpc(z.re, z.im)


def _wrap(v) -> ComplexAP:
    return ComplexAP(v.real, v.imag)


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
    if n < 1:
        raise ValidationError(f"power_term needs n >= 1, got {n}")
    mp = ctx._mp
    return _wrap(mp.exp(-mp.mpc(s.re, s.im) * mp.ln(mp.mpf(n))))


def _format_real(x, digits: int) -> str:
    """An mpf as decimal text with exactly `digits` significant digits."""
    return _mpf_to_str(x._mpf_, digits, strip_zeros=False)


def to_string(z: ComplexAP, ctx: PrecisionContext) -> str:
    """Serialize as "re+im i" / "re-im i" with exactly P significant digits."""
    digits = ctx.digits
    re_s = _format_real(ctx.real(z.re), digits)
    im_val = ctx.real(z.im)
    sign = "-" if im_val < 0 else "+"
    im_s = _format_real(abs(im_val), digits)
    return f"{re_s}{sign}{im_s}i"

