"""High-precision linear system for finite Dirichlet-series coefficients.

The system interpolates zeta at N grid points s_m = sigma + i*t_m on a linear
ordinate ladder: a_mn = n^(-s_m), b_m = zeta(s_m).  Assembly walks that
ladder once: each row of n^(-s_m), n up to max(N, N0), is the previous row
times n^(-i dt) in fixed-point ints at the oracle's working precision, and
gives both the row's matrix entries and the head of its zeta.  Entries and
right-hand side are rounded to exactly P significant digits before the solve
-- the digit budget is the experimental variable, and the system is ill-conditioned enough
(condition number ~1e90 for the reference 100x100 grid) that this input
accuracy, not the elimination arithmetic, controls whether the coefficient
profile survives.  Elimination runs at context precision (32 guard bits) on
integer rows, each row-step product part rounded once from its exact value
and each difference again; pivot search, factors and back substitution round
as mpc does (mpf_add's nudge included), only the pivot reciprocals and the
divisions on libmp.  The 2P residual sums each row as mpmath's fdot does.  The
elimination's rounding is far from invisible: by the relative error of the
complex value against a P + 150 re-elimination of the same rounded system,
only 18.3 (min) and 23.9 (median) of the 100 digits printed per coefficient
at P = 100 are correct; the rest is elimination rounding, which refinement
against that system would remove.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from mpmath import libmp, mpf

from .errors import NumericalError, ValidationError
from .oracle import first_cutoff, working_context, zeta
from .powers import frac_bits, power_table
from .precision import from_fixed_pairs, require_count

# power_term has no caller here; the benchmark tracer still patches this name
from .precision import ComplexAP, PrecisionContext, _format_real, _wrap, power_term  # noqa: F401

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
        require_count("n_rows", self.n_rows, 2)
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

    im_stability is |sum_n Im d_n|, the stable-regime diagnostic.
    residual_inf and im_stability are kept as arbitrary-precision reals:
    at doubled budgets they drop below the double-precision floor.
    """

    deltas: tuple[ComplexAP, ...]
    residual_inf: object
    im_stability: object


def build_grid(spec: GridSpec) -> list[ComplexAP]:
    """s_m = sigma + i*(t1 + (m-1)*dt) for m = 1..N, sigma, t1 and dt rounded to
    the context.  The ordinates are summed at the working precision, 33 or 34
    bits wider, so each is exact, and each step exactly dt, while
    t_N / min(t1, dt) < ~2^33."""
    ctx = spec.context()
    mp = working_context(ctx)._mp
    sigma, t1, dt = (ctx.real(v) for v in (spec.sigma, spec.t1, spec.dt))
    return [ComplexAP(sigma, mp.fadd(t1, mp.fmul(m, dt))) for m in range(spec.n_rows)]


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


def _round_to_digits(z: ComplexAP, ctx: PrecisionContext) -> ComplexAP:
    """Round both components, values of ctx, to exactly P significant decimal digits."""
    return ComplexAP(*(ctx._mp.make_mpf(_round_real(v._mpf_, ctx)) for v in (z.re, z.im)))


def _ladder(grid: list[ComplexAP], n_max: int, work: PrecisionContext):
    """Yield n^(-s_m) for n = 1..n_max, for each grid point in turn, as int lists
    (re, im) at frac_bits(work), index 0 holding 0.  One row is alive at a time.

    Row m is row m-1 times the node x_n = n^(-i dt), dt = t_2 - t_1, products
    rounded as power_table rounds its composites.  build_grid's ordinates
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


def assemble_system(
    grid: list[ComplexAP], n_coeffs: int, ctx: PrecisionContext
) -> tuple[list[list[ComplexAP]], list[ComplexAP]]:
    """Matrix a_mn = n^(-s_m) and rhs b_m = zeta(s_m), both to P digits.

    One ladder row per grid point (_ladder, at the oracle's working
    precision, to n_max = max(N, N0 of every row)) gives both that row's
    matrix entries, rounded once to the context and then to P digits, and
    the head of its zeta.  Raises NumericalError when a row ordinate passes
    too close to a zeta zero (|zeta(s_m)| <= 10^(-P/4)); the caller must
    perturb the grid.
    """
    p = ctx.digits
    near_zero = 10.0 ** (-p / 4)
    work = working_context(ctx)
    bits, mp = frac_bits(work), ctx._mp
    n_max = max([n_coeffs, *(first_cutoff(s, p) for s in grid)])
    matrix, rhs = [], []
    for m, (s, (re, im)) in enumerate(zip(grid, _ladder(grid, n_max, work)), start=1):
        value = zeta(s, ctx, head=(re, im)).value
        modulus = abs(mp.mpc(value.re, value.im))
        if modulus <= near_zero:
            raise NumericalError(
                f"|zeta(s_{m})| = {float(modulus):.3e} is below the row threshold "
                f"{near_zero:.3e}; perturb the grid away from the zeta zero"
            )
        rhs.append(_round_to_digits(value, ctx))
        entries = from_fixed_pairs(zip(re[1 : n_coeffs + 1], im[1 : n_coeffs + 1]), bits, ctx)
        matrix.append([_round_to_digits(z, ctx) for z in entries])
    return matrix, rhs


def _signed(part):
    """A raw mpf as (signed mantissa, binary exponent)."""
    sign, man, exp, _ = part
    return (-man if sign else man), exp


def _mpc_entry(row, c):
    rm, rx, im, ix = row
    return libmp.from_man_exp(rm[c], rx[c]), libmp.from_man_exp(im[c], ix[c])


def _add(xm, xe, ym, ye, prec):
    """xm 2^xe + ym 2^ye rounded to prec bits half to even, as mpf_add(x, y,
    prec) rounds: once from the exact sum, except where both are nonzero, the
    larger's top bit lies more than prec + 4 above the other's and its lowest
    set bit more than 100 above the other's.  There mpf_add only nudges the
    larger by the other's sign, 2^(prec + 4) below its lowest set bit.  For
    two values of at most prec bits that nudge rounds as the exact sum does."""
    if xm and ym:
        d = xm.bit_length() + xe - ym.bit_length() - ye
        if d < 0:
            xm, xe, ym, ye, d = ym, ye, xm, xe, -d
        if d > prec + 4:
            tx, ty = (xm & -xm).bit_length() - 1, (ym & -ym).bit_length() - 1
            if xe + tx - ye - ty > 100:
                xm, xe, ym = (xm >> tx << prec + 4) + (1 if ym > 0 else -1), xe + tx - prec - 4, 0
        if ym:
            if xe >= ye:
                xm, xe = (xm << xe - ye) + ym, ye
            else:
                xm += ym << ye - xe
    elif ym:
        xm, xe = ym, ye
    s = xm.bit_length() - prec
    if s <= 0:
        return xm, xe
    t = xm >> s - 1
    return ((t >> 1) + 1 if t & 1 and (t & 2 or xm & (1 << s - 1) - 1) else t >> 1), xe + s


def _row_step(row, fr, fi, ur, us, ud, e0, cols, prec):
    """row[c] -= (fr + i fi)(ur[c] + i ui[c]) 2^e0 for c in cols, each part
    rounded to prec bits half to even twice: the product once from its exact
    integer value, then the difference.  With h = (fr + fi) ur, us = ur + ui and
    ud = ui - ur, the exact parts are h - fi us and h + fr ud: three products.
    t = x >> s - 1 holds the half bit as t & 1; x rounds up where that bit is
    set and either a bit below it is set or t >> 1 is odd."""
    am, ax, bm, bx = row
    fs = fr + fi
    for c in cols:
        h = ur[c] * fs
        x = h - fi * us[c]
        s = x.bit_length() - prec
        if s > 0:
            t = x >> s - 1
            x = (t >> 1) + 1 if t & 1 and (t & 2 or x & (1 << s - 1) - 1) else t >> 1
            xe = e0 + s
        else:
            xe = e0
        d = ax[c] - xe
        if d >= 0:
            x = (am[c] << d) - x
        else:
            x = am[c] - (x << -d)
            xe = ax[c]
        s = x.bit_length() - prec
        if s > 0:
            t = x >> s - 1
            am[c] = (t >> 1) + 1 if t & 1 and (t & 2 or x & (1 << s - 1) - 1) else t >> 1
            ax[c] = xe + s
        else:
            am[c] = x
            ax[c] = xe
        x = h + fr * ud[c]
        s = x.bit_length() - prec
        if s > 0:
            t = x >> s - 1
            x = (t >> 1) + 1 if t & 1 and (t & 2 or x & (1 << s - 1) - 1) else t >> 1
            xe = e0 + s
        else:
            xe = e0
        d = bx[c] - xe
        if d >= 0:
            x = (bm[c] << d) - x
        else:
            x = bm[c] - (x << -d)
            xe = bx[c]
        s = x.bit_length() - prec
        if s > 0:
            t = x >> s - 1
            bm[c] = (t >> 1) + 1 if t & 1 and (t & 2 or x & (1 << s - 1) - 1) else t >> 1
            bx[c] = xe + s
        else:
            bm[c] = x
            bx[c] = xe


def _eliminate(raw_matrix, raw_rhs, mp, pivot_floor):
    """Gaussian elimination with partial pivoting by modulus, at mp.prec bits.

    Bit for bit the mpc elimination of tests/oracles.py, for entries that
    are values of mp, with each row-step product rounded once from its exact
    parts.  Every step runs on integer rows (signed mantissas and exponents
    per component, the right-hand side as column n).  The pivot is the row of
    largest exact squared modulus, mpc_abs taken only for rows within
    2^-(prec - 4) of it, so the first of equal rounded moduli still wins.  The
    pivot row u and each factor f are put on one exponent each, so each row
    step a_rc -= f_r u_c is one integer loop (_row_step; a zero factor leaves
    each value as it was).  Factors and back substitution round through _add,
    as mpc_mul and mpc_sub round; only mpc_mpf_div and mpc_div run on libmp.
    """
    n = len(raw_matrix)
    prec = mp.prec
    rows = []  # each: re mantissas, re exponents, im mantissas, im exponents
    for raw_row, b in zip(raw_matrix, raw_rhs):
        re = [_signed(z._mpc_[0]) for z in (*raw_row, b)]
        im = [_signed(z._mpc_[1]) for z in (*raw_row, b)]
        rows.append([[m for m, _ in re], [e for _, e in re], [m for m, _ in im], [e for _, e in im]])
    for k in range(n):
        col = [(rm[k], rx[k], im[k], ix[k]) for rm, rx, im, ix in rows[k:]]
        e0 = min((e for a, ea, b, eb in col for m, e in ((a, ea), (b, eb)) if m), default=0)
        sq = [(a << ea - e0 if a else 0) ** 2 + (b << eb - e0 if b else 0) ** 2 for a, ea, b, eb in col]
        top = max(sq)
        moduli = {
            r: mp.make_mpf(libmp.mpc_abs(_mpc_entry(rows[k + r], k), prec, _RND))
            for r, q in enumerate(sq)
            if top - q << prec - 4 <= top
        }
        piv = max(moduli, key=moduli.__getitem__)
        if moduli[piv] < pivot_floor:
            raise NumericalError(
                f"pivot modulus {float(moduli[piv]):.3e} below {float(pivot_floor):.3e} at column {k}"
            )
        if piv:
            rows[k], rows[k + piv] = rows[k + piv], rows[k]
        cols = range(k + 1, n + 1)
        rm, rx, im, ix = rows[k]
        eu = min((e for c in cols for m, e in ((rm[c], rx[c]), (im[c], ix[c])) if m), default=0)
        ur = [0] * (k + 1) + [rm[c] << rx[c] - eu if rm[c] else 0 for c in cols]
        ui = [0] * (k + 1) + [im[c] << ix[c] - eu if im[c] else 0 for c in cols]
        us, ud = [a + b for a, b in zip(ur, ui)], [b - a for a, b in zip(ur, ui)]
        (cr, er), (ci, ei) = map(_signed, libmp.mpc_mpf_div(libmp.fone, _mpc_entry(rows[k], k), prec, _RND))
        for r in range(k + 1, n):
            a, ea, b, eb = rows[r][0][k], rows[r][1][k], rows[r][2][k], rows[r][3][k]
            fr, efr = _add(a * cr, ea + er, -b * ci, eb + ei, prec)
            fi, efi = _add(a * ci, ea + ei, b * cr, eb + er, prec)
            ef = min(efr if fr else efi, efi if fi else efr)
            fr, fi = (fr << efr - ef if fr else 0), (fi << efi - ef if fi else 0)
            _row_step(rows[r], fr, fi, ur, us, ud, ef + eu, cols, prec)
    x, xs = [None] * n, [None] * n
    for r in range(n - 1, -1, -1):
        am, ax, bm, bx = rows[r]
        sr, er, si, ei = am[n], ax[n], bm[n], bx[n]
        for c in range(r + 1, n):
            a, ea, b, eb = am[c], ax[c], bm[c], bx[c]
            vr, evr, vi, evi = xs[c]
            pr, epr = _add(a * vr, ea + evr, -b * vi, eb + evi, prec)
            pi, epi = _add(a * vi, ea + evi, b * vr, eb + evr, prec)
            sr, er = _add(sr, er, -pr, epr, prec)
            si, ei = _add(si, ei, -pi, epi, prec)
        acc = libmp.from_man_exp(sr, er), libmp.from_man_exp(si, ei)
        x[r] = libmp.mpc_div(acc, _mpc_entry(rows[r], r), prec, _RND)
        xs[r] = (*_signed(x[r][0]), *_signed(x[r][1]))
    return [mp.make_mpc(v) for v in x]


def _parts(z: ComplexAP, prec: int):
    """z as a raw mpc, each component rounded to prec bits as _raw rounds it."""
    re, im = z.re._mpf_, z.im._mpf_
    return (
        re if re[3] <= prec else libmp.mpf_pos(re, prec, _RND),
        im if im[3] <= prec else libmp.mpf_pos(im, prec, _RND),
    )


def _product(x, y, neg=0):
    """mpf_mul(x, y) of two finite raw mpfs, negated if neg: odd mantissas
    give an odd product, so the exact tuple is already normalized."""
    man = x[1] * y[1]
    return (x[0] ^ y[0] ^ neg, man, x[2] + y[2], man.bit_length()) if man else libmp.fzero


def _residual_inf(matrix, rhs, solution, check_ctx: PrecisionContext):
    """max_m |sum_n a_mn d_n - b_m|, each row summed as fdot sums it: exact terms, one rounding."""
    prec, mp = check_ctx.prec_bits, check_ctx._mp
    sol = [_parts(z, prec) for z in solution] + [(libmp.fnone, libmp.fzero)]
    sums = []
    for row, b in zip(matrix, rhs):
        re, im = [], []
        for (ar, ai), (dr, di) in zip((_parts(e, prec) for e in (*row, b)), sol):
            re += _product(ar, dr), _product(ai, di, 1)
            im += _product(ar, di), _product(ai, dr)
        sums.append(mp.make_mpc((libmp.mpf_sum(re, prec, _RND), libmp.mpf_sum(im, prec, _RND))))
    return max(abs(z) for z in sums)


def solve_coefficients(
    matrix: list[list[ComplexAP]], rhs: list[ComplexAP], ctx: PrecisionContext
) -> CoefficientSet:
    """Solve the square system by partial-pivot elimination at precision P.

    The residual ||A d - b||_inf is measured at 2P digits; if it breaches the
    10^(-P/2) acceptance contract the system is re-eliminated once at 2P
    digits and rounded back before giving up: one loop over P and 2P, both
    passes on the same P-rounded system.  A pivot failure at P raises at once.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValidationError("solve_coefficients expects a square system")

    p, mp = ctx.digits, ctx._mp
    pivot_floor = mp.mpf(10) ** (5 - p)
    contract = mp.mpf(10) ** (-p / 2.0)
    check_ctx = PrecisionContext(2 * p)
    raw_m = [[mp.make_mpc(_parts(e, mp.prec)) for e in row] for row in matrix]
    raw_b = [mp.make_mpc(_parts(e, mp.prec)) for e in rhs]
    for wide in (mp, check_ctx._mp):
        solution = [_wrap(mp.mpc(v)) for v in _eliminate(raw_m, raw_b, wide, wide.mpf(pivot_floor))]
        residual = _residual_inf(matrix, rhs, solution, check_ctx)
        if residual < contract:
            return CoefficientSet(tuple(solution), residual, abs(sum(z.im for z in solution)))
    raise NumericalError(f"residual {float(residual):.3e} above 10^(-P/2) after the 2P retry")


def solve_grid(spec: GridSpec) -> CoefficientSet:
    """Build, assemble, and solve a grid in one step."""
    ctx = spec.context()
    grid = build_grid(spec)
    matrix, rhs = assemble_system(grid, spec.n_rows, ctx)
    return solve_coefficients(matrix, rhs, ctx)


@dataclass(frozen=True)
class HalfCrossing:
    """Interpolated index where the real profile passes one half."""

    value: float
    crossings: int


_HALF = mpf(0.5)  # an mpf: a float 1/2 would be converted at every comparison


def half_crossing(cs: CoefficientSet) -> HalfCrossing:
    """First downward crossing of Re d_n through 1/2, linearly interpolated.

    Scans n upward for the first adjacent pair with Re d_a >= 1/2 > Re d_b
    and interpolates the line through both points.  More than one sign
    change of (Re d_n - 1/2) is reported via the crossings field.
    """
    re = [z.re for z in cs.deltas]
    half = _HALF
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
