"""High-precision linear system for finite Dirichlet-series coefficients.

The system interpolates zeta at N grid points s_m = sigma + i*t_m on a linear
ordinate ladder: a_mn = n^(-s_m), b_m = zeta(s_m).  Entries and right-hand
side are rounded to exactly P significant digits before the solve -- the digit
budget is the experimental variable, and the system is ill-conditioned enough
(condition number ~1e90 for the reference 100x100 grid) that this input
accuracy, not the elimination arithmetic, controls whether the coefficient
profile survives.  Elimination runs at context precision (32 guard bits),
bit for bit an mpc elimination (an integer sweep, with mpc steps where
mpf_add would only nudge a product), and the 2P residual sums each row
exactly (mpmath's fdot).  Its rounding is far from invisible: against the
exact solution of the same rounded system, only 18.3 (min) and 24.1 (median)
of the 100 digits printed per coefficient at P = 100 are correct.  The
digits past those are elimination rounding; iterative refinement against
the rounded system would remove them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import libmp

from .errors import NumericalError, ValidationError
from .oracle import zeta
from .powers import frac_bits, from_fixed, power_table

# power_term has no caller here; the benchmark tracer still patches this name
from .precision import ComplexAP, PrecisionContext, _format_real, _raw, _wrap, power_term  # noqa: F401

_RND = libmp.round_nearest


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
        object.__setattr__(self, "sigma", str(self.sigma))
        object.__setattr__(self, "t1", str(self.t1))
        object.__setattr__(self, "dt", str(self.dt))
        ctx = PrecisionContext(self.digits)
        if self.n_rows < 2:
            raise ValidationError(f"n_rows must be >= 2, got {self.n_rows}")
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
    e.  Exponents where the parse or the formatting take another route, and
    integral decimals (e >= 0), fall back to the text round trip.
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
    if not -400 <= e10 < 0 or e10 + digits > 400:
        return ctx.real(_format_real(x, digits))
    prec = ctx.prec_bits
    # a quotient of prec + 5 bits plus a sticky bit rounds as mpf division does
    den = 10**-e10
    extra = max(prec - dec.bit_length() + den.bit_length() + 5, 5)
    quot, rem = divmod(dec << extra, den)
    num = quot << 1 | (rem != 0)
    return ctx._mp.make_mpf(libmp.from_man_exp(-num if sign else num, -extra - 1, prec, _RND))


def _round_to_digits(z: ComplexAP, ctx: PrecisionContext) -> ComplexAP:
    """Round both components to exactly P significant decimal digits."""
    p = ctx.digits
    return ComplexAP(_round_real(ctx.real(z.re), p, ctx), _round_real(ctx.real(z.im), p, ctx))


def assemble_system(
    grid: list[ComplexAP], n_coeffs: int, ctx: PrecisionContext
) -> tuple[list[list[ComplexAP]], list[ComplexAP]]:
    """Matrix a_mn = n^(-s_m) and rhs b_m = zeta(s_m), both to P digits.

    Raises NumericalError when a row ordinate passes too close to a zeta
    zero (|zeta(s_m)| <= 10^(-P/4)); the caller must perturb the grid.
    """
    p = ctx.digits
    near_zero = 10.0 ** (-p / 4)
    rhs = []
    for m, s in enumerate(grid, start=1):
        value = zeta(s, ctx).value
        modulus = abs(ctx._mp.mpc(value.re, value.im))
        if modulus <= near_zero:
            raise NumericalError(
                f"|zeta(s_{m})| = {float(modulus):.3e} is below the row threshold "
                f"{near_zero:.3e}; perturb the grid away from the zeta zero"
            )
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


def _signed(part):
    """A raw mpf as (signed mantissa, binary exponent)."""
    sign, man, exp, _ = part
    return (-man if sign else man), exp


def _mpc_entry(row, c, mp):
    rm, rx, im, ix = row
    return mp.make_mpc((libmp.from_man_exp(rm[c], rx[c]), libmp.from_man_exp(im[c], ix[c])))


def _sweep(man, exp, f, u, g, v, e0, cols, prec):
    """man[c] 2^exp[c] -= (f u[c] + g v[c]) 2^e0 for c in cols, rounded to
    prec bits half to even twice: the product as mpc_mul rounds it, then the
    difference as mpc_sub does."""
    for c in cols:
        x = f * u[c] + g * v[c]
        s = x.bit_length() - prec
        if s > 0:
            # floor shift of x + 2^(s-1) - 1, plus one more when the kept part is odd
            x = (x + (1 << s - 1) - 1 + (x >> s & 1)) >> s
            xe = e0 + s
        else:
            xe = e0
        e = exp[c]
        d = e - xe
        if d >= 0:
            x = (man[c] << d) - x
        else:
            x = man[c] - (x << -d)
            xe = e
        s = x.bit_length() - prec
        if s > 0:
            man[c] = (x + (1 << s - 1) - 1 + (x >> s & 1)) >> s
            exp[c] = xe + s
        else:
            man[c] = x
            exp[c] = xe


def _eliminate(raw_matrix, raw_rhs, mp, pivot_floor):
    """Gaussian elimination with partial pivoting by modulus, at mp.prec bits.

    Bit for bit the mpc elimination (kept in tests/oracles.py), for entries
    that are values of mp.  The O(n^3) sweep a_rc -= f_r u_c runs on Python
    integers: each row holds signed mantissas and exponents per component;
    the pivot row u and each factor f are put on one exponent each, so a
    product component is one integer expression (_sweep).  A row step where
    mpf_add may only nudge a product instead of adding it (factor and pivot
    row components far apart in scale) runs on mpc, as the reference does.
    Pivot search, factors, the right-hand side and back substitution stay on
    mpc: O(n^2) work.  A pivot row is final once its step is done, so those
    mpc steps read U from the integer rows.
    """
    n = len(raw_matrix)
    prec = mp.prec
    rows = []  # each: re mantissas, re exponents, im mantissas, im exponents
    for raw_row in raw_matrix:
        re = [_signed(z._mpc_[0]) for z in raw_row]
        im = [_signed(z._mpc_[1]) for z in raw_row]
        rows.append([[m for m, _ in re], [e for _, e in re], [m for m, _ in im], [e for _, e in im]])
    b = raw_rhs[:]
    for k in range(n):
        col = [_mpc_entry(row, k, mp) for row in rows[k:]]
        piv = 0
        best = abs(col[0])
        for i in range(1, n - k):
            cand = abs(col[i])
            if cand > best:
                piv, best = i, cand
        if best < pivot_floor:
            raise NumericalError(
                f"pivot modulus {float(best):.3e} below {float(pivot_floor):.3e} at column {k}"
            )
        if piv:
            rows[k], rows[k + piv] = rows[k + piv], rows[k]
            b[k], b[k + piv] = b[k + piv], b[k]
            col[0], col[piv] = col[piv], col[0]
        cols = range(k + 1, n)
        rm, rx, im, ix = rows[k]
        eu = min((e for c in cols for m, e in ((rm[c], rx[c]), (im[c], ix[c])) if m), default=0)
        ur = [0] * (k + 1) + [rm[c] << rx[c] - eu if rm[c] else 0 for c in cols]
        ui = [0] * (k + 1) + [im[c] << ix[c] - eu if im[c] else 0 for c in cols]
        # mpf_add only nudges the larger operand, not the exact sum, where
        # the other's top lies more than prec + 4 bits below; that needs
        # product tops that far apart, and gap_u bounds the pivot row's share
        gap_u = max(
            (abs(ur[c].bit_length() - ui[c].bit_length()) for c in cols if ur[c] and ui[c]),
            default=0,
        )
        inv = 1 / col[0]
        for r in range(k + 1, n):
            factor = col[r - k] * inv
            if factor == 0:
                continue
            b[r] -= factor * b[k]
            (fr, efr), (fi, efi) = _signed(factor._mpc_[0]), _signed(factor._mpc_[1])
            ef = min(efr if fr else efi, efi if fi else efr)
            fr <<= efr - ef
            fi <<= efi - ef
            am, ax, bm, bx = rows[r]
            if fr and fi and abs(fr.bit_length() - fi.bit_length()) + gap_u > prec + 3:
                # mpf_add may nudge a product here: take the row's step on mpc
                for c in cols:
                    z = _mpc_entry(rows[r], c, mp) - factor * _mpc_entry(rows[k], c, mp)
                    (am[c], ax[c]), (bm[c], bx[c]) = _signed(z._mpc_[0]), _signed(z._mpc_[1])
            else:
                _sweep(am, ax, fr, ur, -fi, ui, ef + eu, cols, prec)
                _sweep(bm, bx, fr, ui, fi, ur, ef + eu, cols, prec)
    x = [mp.mpc(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= _mpc_entry(rows[r], c, mp) * x[c]
        x[r] = acc / _mpc_entry(rows[r], r, mp)
    return x


def _residual_inf(matrix, rhs, solution, check_ctx: PrecisionContext):
    """max_m |sum_n a_mn d_n - b_m|, each row summed exactly and rounded once (fdot)."""
    mp = check_ctx._mp
    sol = [_raw(z, check_ctx) for z in solution] + [mp.mpc(-1)]
    rows = ([_raw(e, check_ctx) for e in (*row, b)] for row, b in zip(matrix, rhs))
    return max(abs(mp.fdot(row, sol)) for row in rows)


def solve_coefficients(
    matrix: list[list[ComplexAP]], rhs: list[ComplexAP], ctx: PrecisionContext
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
        # the kernel reads matrix entries as raw values, the same at 2P
        wide = check_ctx._mp
        raw_b2 = [_raw(e, check_ctx) for e in rhs]
        retry = _eliminate(raw_m, raw_b2, wide, wide.mpf(pivot_floor))
        solution = [_wrap(mp.mpc(v)) for v in retry]
        residual = _residual_inf(matrix, rhs, solution, check_ctx)
        if residual >= contract:
            raise NumericalError(f"residual {float(residual):.3e} above 10^(-P/2) after the 2P retry")

    return CoefficientSet(
        deltas=tuple(solution),
        residual_inf=residual,
        im_stability=_abs_im_sum(solution),
    )


def solve_grid(spec: GridSpec) -> CoefficientSet:
    """Build, assemble, and solve a grid in one step."""
    ctx = spec.context()
    grid = build_grid(spec)
    matrix, rhs = assemble_system(grid, spec.n_rows, ctx)
    return solve_coefficients(matrix, rhs, ctx)


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
    crossings: int


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
        raise NumericalError("real coefficient profile never passes through 1/2")

    signs = [v > half for v in re if v != half]
    crossings = sum(a != b for a, b in zip(signs, signs[1:]))
    return HalfCrossing(value=value, crossings=max(crossings, 1))
