"""High-precision linear system for finite Dirichlet-series coefficients.

The system interpolates zeta at N grid points s_m = sigma + i*t_m on a linear
ordinate ladder: a_mn = n^(-s_m), b_m = zeta(s_m).  Entries and right-hand
side are rounded to exactly P significant digits before the solve -- the digit
budget is the experimental variable, and the system is ill-conditioned enough
(condition number ~1e90 for the reference 100x100 grid) that this input
accuracy, not the elimination arithmetic, controls whether the coefficient
profile survives.  Elimination runs at context precision, whose 32 guard bits
keep solver rounding far below the input quantization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from mpmath import libmp

from .errors import (
    NearZeroRowError,
    NoCrossingError,
    ResidualTooLargeError,
    SingularMatrixError,
    ValidationError,
)
from .oracle import zeta
from .powers import frac_bits, from_fixed, power_table

# power_term has no caller here; the benchmark tracer still patches this name
from .precision import ComplexAP, PrecisionContext, _format_real, _raw, _wrap, power_term  # noqa: F401

_RND = libmp.round_nearest


def _decimal_text(value) -> str:
    """Normalize a grid parameter to decimal text (floats via shortest repr)."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class GridSpec:
    """Row grid {sigma, t1, dt, N, P} defining the linear system.

    Parameters are kept as decimal text so a spec is exactly reproducible
    and hashable regardless of the precision it is later evaluated at.
    The ordinate bound max(t_m)/pi < N is a flagged property, not a hard
    error: the instability experiments deliberately violate it.
    """

    sigma: str
    t1: str
    dt: str
    n_rows: int
    digits: int

    def __post_init__(self):
        object.__setattr__(self, "sigma", _decimal_text(self.sigma))
        object.__setattr__(self, "t1", _decimal_text(self.t1))
        object.__setattr__(self, "dt", _decimal_text(self.dt))
        ctx = PrecisionContext(max(self.digits, 15))
        if self.n_rows < 2:
            raise ValidationError(f"n_rows must be >= 2, got {self.n_rows}")
        if self.digits < 15:
            raise ValidationError(f"digits must be >= 15, got {self.digits}")
        if not ctx.real(self.t1) > 0:
            raise ValidationError(f"t1 must be > 0, got {self.t1}")
        if not ctx.real(self.dt) > 0:
            raise ValidationError(f"dt must be > 0, got {self.dt}")

    @property
    def max_ordinate(self) -> float:
        ctx = self.context()
        return float(ctx.real(self.t1) + (self.n_rows - 1) * ctx.real(self.dt))

    @property
    def ordinate_bound_ok(self) -> bool:
        """Whether max(t_m)/pi < N (coefficients can resolve every row)."""
        return self.max_ordinate / math.pi < self.n_rows

    def context(self) -> PrecisionContext:
        return PrecisionContext(self.digits)


@dataclass(frozen=True)
class CoefficientSet:
    """Solved coefficients plus solve diagnostics.

    residual_inf and im_stability are kept as arbitrary-precision reals:
    at doubled budgets they drop below the double-precision floor.
    """

    deltas: tuple[ComplexAP, ...]
    residual_inf: object
    im_stability: object
    grid: GridSpec | None = None

    def __post_init__(self):
        if self.grid is not None and len(self.deltas) != self.grid.n_rows:
            raise ValidationError(
                f"{len(self.deltas)} coefficients for a {self.grid.n_rows}-row grid"
            )


def build_grid(spec: GridSpec) -> list[ComplexAP]:
    """s_m = sigma + i*(t1 + (m-1)*dt) for m = 1..N."""
    ctx = spec.context()
    sigma = ctx.real(spec.sigma)
    t1 = ctx.real(spec.t1)
    dt = ctx.real(spec.dt)
    return [ComplexAP(sigma, t1 + m * dt) for m in range(spec.n_rows)]


# the ratio mpmath's to_str sizes its digit string with (not math.log2(10))
_TO_STR_LOG2_10 = math.log(10, 2)


def _round_real(x, digits: int, ctx: PrecisionContext):
    """ctx.real(_format_real(x, digits)) for an mpf x, computed in integers.

    _format_real truncates x to a fixed-point decimal of about digits + 3
    digits, rounds the (digits + 1)-th digit half-up, and the parse rounds
    that decimal D 10^e to the nearest mpf: both are repeated here on D and
    e.  Exponents where the parse or the formatting take another route
    fall back to the text round trip.
    """
    sign, man, exp, bc = x._mpf_
    if not man or abs(exp + bc) > 3500:
        return ctx.real(_format_real(x, digits))
    fixprec = max(int((digits + 3) * _TO_STR_LOG2_10) + 10 - exp - bc, 0)
    fixdps = int(fixprec / _TO_STR_LOG2_10 + 0.5)
    shift = exp + fixprec
    dec = (man << shift if shift >= 0 else man >> -shift) * 10**fixdps >> fixprec
    dropped = len(str(dec)) - digits
    e10 = -fixdps
    if dropped > 0:
        dec, last = divmod(dec // 10 ** (dropped - 1), 10)
        dec += last >= 5
        e10 += dropped
    if e10 < -400 or e10 + digits > 400:
        return ctx.real(_format_real(x, digits))
    prec = ctx.prec_bits
    if e10 >= 0:
        num, bin_exp = dec * 10**e10, 0
    else:
        # a quotient of prec + 5 bits plus a sticky bit rounds as mpf division does
        den = 10**-e10
        extra = max(prec - dec.bit_length() + den.bit_length() + 5, 5)
        quot, rem = divmod(dec << extra, den)
        num, bin_exp = quot << 1 | (rem != 0), -extra - 1
    return ctx._mp.make_mpf(libmp.from_man_exp(-num if sign else num, bin_exp, prec, _RND))


def _round_to_digits(z: ComplexAP, ctx: PrecisionContext) -> ComplexAP:
    """Round both components to exactly P significant decimal digits."""
    p = ctx.digits
    return ComplexAP(_round_real(ctx.real(z.re), p, ctx), _round_real(ctx.real(z.im), p, ctx))


def assemble_system(
    grid: list[ComplexAP], n_coeffs: int, ctx: PrecisionContext
) -> tuple[list[list[ComplexAP]], list[ComplexAP]]:
    """Matrix a_mn = n^(-s_m) and rhs b_m = zeta(s_m), both to P digits.

    Raises NearZeroRowError when a row ordinate passes too close to a zeta
    zero (|zeta(s_m)| <= 10^(-P/4)); the caller must perturb the grid.
    """
    p = ctx.digits
    near_zero = 10.0 ** (-p / 4)
    rhs = []
    for m, s in enumerate(grid, start=1):
        value = zeta(s, ctx).value
        modulus = abs(ctx._mp.mpc(value.re, value.im))
        if modulus <= near_zero:
            raise NearZeroRowError(m, float(modulus), near_zero)
        rhs.append(_round_to_digits(value, ctx))
    bits = frac_bits(ctx)
    matrix = []
    for s in grid:
        table = power_table(s, n_coeffs, ctx)
        row = [
            _round_to_digits(from_fixed(table.re[n], table.im[n], bits, ctx), ctx)
            for n in range(1, n_coeffs + 1)
        ]
        matrix.append(row)
    return matrix, rhs


def _eliminate(raw_matrix, raw_rhs, mp, pivot_floor):
    """In-place Gaussian elimination with partial pivoting by modulus."""
    n = len(raw_matrix)
    m = [row[:] for row in raw_matrix]
    b = raw_rhs[:]
    for k in range(n):
        piv = k
        best = abs(m[k][k])
        for r in range(k + 1, n):
            cand = abs(m[r][k])
            if cand > best:
                piv, best = r, cand
        if best < pivot_floor:
            raise SingularMatrixError(
                f"pivot modulus {float(best):.3e} below {float(pivot_floor):.3e} at column {k}"
            )
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            b[k], b[piv] = b[piv], b[k]
        inv = 1 / m[k][k]
        row_k = m[k]
        for r in range(k + 1, n):
            factor = m[r][k] * inv
            if factor == 0:
                continue
            row_r = m[r]
            for c in range(k + 1, n):
                row_r[c] -= factor * row_k[c]
            row_r[k] = mp.mpc(0)
            b[r] -= factor * b[k]
    x = [mp.mpc(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        row_r = m[r]
        for c in range(r + 1, n):
            acc -= row_r[c] * x[c]
        x[r] = acc / m[r][r]
    return x


def _residual_inf(matrix, rhs, solution, check_ctx: PrecisionContext):
    """max_m |sum_n a_mn d_n - b_m| at an elevated checking precision."""
    mp = check_ctx._mp
    n = len(matrix)
    worst = mp.mpf(0)
    sol = [_raw(z, check_ctx) for z in solution]
    for m_i in range(n):
        acc = -_raw(rhs[m_i], check_ctx)
        row = matrix[m_i]
        for c in range(n):
            acc += _raw(row[c], check_ctx) * sol[c]
        worst = max(worst, abs(acc))
    return worst


def solve_coefficients(
    matrix: list[list[ComplexAP]],
    rhs: list[ComplexAP],
    ctx: PrecisionContext,
    grid: GridSpec | None = None,
) -> CoefficientSet:
    """Solve the square system by partial-pivot elimination at precision P.

    The residual ||A d - b||_inf is measured at 2P digits; if it breaches the
    10^(-P/2) acceptance contract the system is re-eliminated once at 2P
    digits and rounded back before giving up.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValidationError("solve_coefficients expects a square system")

    p = ctx.digits
    mp = ctx._mp
    pivot_floor = mp.mpf(10) ** (5 - p)
    contract = mp.mpf(10) ** (-p / 2.0)
    check_ctx = PrecisionContext(2 * p)

    raw_m = [[_raw(e, ctx) for e in row] for row in matrix]
    raw_b = [_raw(e, ctx) for e in rhs]
    solution = [_wrap(v) for v in _eliminate(raw_m, raw_b, mp, pivot_floor)]
    residual = _residual_inf(matrix, rhs, solution, check_ctx)

    if residual >= contract:
        wide = check_ctx._mp
        raw_m2 = [[_raw(e, check_ctx) for e in row] for row in matrix]
        raw_b2 = [_raw(e, check_ctx) for e in rhs]
        retry = _eliminate(raw_m2, raw_b2, wide, wide.mpf(pivot_floor))
        solution = [_wrap(mp.mpc(v)) for v in retry]
        residual = _residual_inf(matrix, rhs, solution, check_ctx)
        if residual >= contract:
            raise ResidualTooLargeError(
                f"residual {float(residual):.3e} above 10^(-P/2) after the 2P retry"
            )

    return CoefficientSet(
        deltas=tuple(solution),
        residual_inf=residual,
        im_stability=_abs_im_sum(solution),
        grid=grid,
    )


def solve_grid(spec: GridSpec) -> CoefficientSet:
    """Build, assemble, and solve a grid in one step."""
    ctx = spec.context()
    grid = build_grid(spec)
    matrix, rhs = assemble_system(grid, spec.n_rows, ctx)
    return solve_coefficients(matrix, rhs, ctx, grid=spec)


# Separates the measured stable regime (~5e-2 for the reference grid) from
# broken ones (>1e1) by a decade either side; exposed because the right
# cutoff is configuration-dependent.
DEFAULT_STABILITY_THRESHOLD = 1.0


def stability_metric(cs: CoefficientSet):
    """|sum_n Im d_n| -- the stable-regime diagnostic."""
    return _abs_im_sum(cs.deltas)


def _abs_im_sum(deltas):
    total = 0
    for z in deltas:
        total = z.im + total
    return abs(total)


@dataclass(frozen=True)
class HalfCrossing:
    """Interpolated index where the real profile passes one half."""

    value: float
    crossings: int = field(default=1)

    @property
    def multiple(self) -> bool:
        return self.crossings > 1

    def __float__(self) -> float:
        return self.value


def half_crossing(cs: CoefficientSet) -> HalfCrossing:
    """First downward crossing of Re d_n through 1/2, linearly interpolated.

    Scans n upward for the first adjacent pair with Re d_a >= 1/2 > Re d_b
    and interpolates the line through both points.  More than one sign
    change of (Re d_n - 1/2) is reported via the crossings field.
    """
    re = [z.re for z in cs.deltas]
    half = 0.5
    value = None
    for a in range(len(re) - 1):
        if re[a] >= half and re[a + 1] < half:
            num = re[a] - half
            den = re[a] - re[a + 1]
            value = (a + 1) + float(num / den)  # 1-based index of the pair start
            break
    if value is None:
        raise NoCrossingError("real coefficient profile never passes through 1/2")

    signs = []
    for v in re:
        if v > half:
            signs.append(1)
        elif v < half:
            signs.append(-1)
    crossings = sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])
    return HalfCrossing(value=value, crossings=max(crossings, 1))
