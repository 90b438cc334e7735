"""Arbitrary-precision real/complex arithmetic under an explicit digit budget.

Every other module computes through this layer.  A PrecisionContext owns a
private mpmath context sized to ceil(P*log2(10)) + 32 bits, so a context is
never mutated after construction and values from different budgets cannot be
mixed accidentally.  Arithmetic runs on the context's mpc; ComplexAP is the
immutable, finite-checked value that public functions take and return, and
_raw/_wrap are the only bridge between the two.  make_complex reads a
ComplexAP from text or numbers and to_string writes it.  Contexts and
ComplexAP values are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
from mpmath.ctx_mp import MPContext
from mpmath.libmp import to_str as _mpf_to_str

from .errors import NumericalError, ValidationError

_LOG2_10 = math.log2(10)
_GUARD_BITS = 32

MIN_DIGITS = 15


@dataclass(frozen=True)
class PrecisionContext:
    """Decimal digit budget P.

    Primitives (add, mul, div, exp, ln away from branch cuts) are correct to
    within 10^(-digits) relative error; the 32 guard bits absorb rounding in
    long dot products.  Rounding is deterministic round-to-nearest-even.
    """

    digits: int
    _mp: MPContext = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.digits < MIN_DIGITS:
            raise ValidationError(f"digits must be >= {MIN_DIGITS}, got {self.digits}")
        mp = MPContext()
        mp.prec = math.ceil(self.digits * _LOG2_10) + _GUARD_BITS
        object.__setattr__(self, "_mp", mp)

    @property
    def prec_bits(self) -> int:
        return self._mp.prec

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
            if mpmath.isnan(part) or mpmath.isinf(part):
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

