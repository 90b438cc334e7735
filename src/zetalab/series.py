"""Generalized sigmoid coefficients turning the divergent series convergent.

For s = sigma + it off the real axis, the weight of the n-th term is
1/(1 + exp((n - t/pi)/B)): close to 1 deep in the head, decaying past the
t/pi center so the weighted Dirichlet sum converges.  The scale B has no
closed form; calibrate_b recovers it per s by minimizing the absolute error
against the zeta oracle with a coarse log scan plus Brent's parabolic
refinement.  Sweeps over t and sigma feed the power-law and exponential
fits of the scaling study.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

import mpmath

from .errors import NumericalError, ValidationError
from .oracle import zeta
from .powers import N_TERMS_MAX, PowerTable, _exp_at, center, frac_bits, power_table, require_s, weights
from .precision import ComplexAP, PrecisionContext, _raw, from_fixed_pairs, require_count, require_real, shown

DEFAULT_BRACKET = (0.1, 100.0)
CALIBRATION_DIGITS = 30
COARSE_SAMPLES = 64  # log-spaced scales of the coarse scan, bracket ends included
REL_TOL = 1e-6  # refinement stops once its bracket is at most REL_TOL b wide
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # Brent's golden-section step, a share of the larger side


def _require_off_axis(s: ComplexAP):
    require_s(s)
    if s.im == 0:
        raise NumericalError("generalized coefficients are undefined for Im s = 0")


def generalized_delta(n: int, s: ComplexAP, b: float, ctx: PrecisionContext):
    """Weight 1/(1 + exp((n - t/pi)/b)) at the context's precision, by one direct exp.

    This is not the sums' w_n (powers.weights): they step E_n by the
    recurrence between anchors, which leaves w_n within 2^8 units of 2^-F of
    the exact sigmoid (13 at worst in the tests), and floor it to F fraction
    bits, so w_n is 0 wherever the weight is below 2^-F.  This value keeps
    its relative precision there: 4.95e-67 at n = 400, b = 1, s = 0.5 + 777i,
    P = 30, where w_n is 0.
    """
    _require_off_axis(s)
    require_count("n", n, 1)
    require_real("scale", b, above=0)
    mp = ctx._mp
    return 1 / (1 + mp.make_mpf(_exp_at(n, center(s, ctx)._mpf_, mp.mpf(b)._mpf_, ctx.prec_bits)))


def tail_tolerance(ctx: PrecisionContext):
    """10^-P: a float where a double holds it, an mpf of ctx below that."""
    eps = 10.0 ** (-ctx.digits)
    return eps if eps > 0 else ctx._mp.mpf(10) ** (-ctx.digits)


def truncation_length(s: ComplexAP, b: float, tail_eps: float) -> int:
    """Smallest N with weight(N) * N^(-sigma) < tail_eps, floored at ceil(t/pi)+1.

    tail_eps may be an mpf below the double range.  The test runs in log-domain
    double precision: it only gates truncation noise, which sits far below the
    measured error.  Past the floor the log-weight falls in n, and for sigma >= 0
    so does -sigma ln n; for sigma <= 0 both terms are concave in n.  Either way the
    test flips once past a failing floor, so bisect finds the first N there.  An N
    past N_TERMS_MAX, or s outside powers.require_s's band, is a ValidationError.
    """
    _require_off_axis(s)
    require_real("scale", b, above=0)
    require_real("tail_eps", tail_eps, above=0)
    sigma = float(s.re)
    c = abs(float(s.im)) / math.pi
    floor_n = math.ceil(c) + 1
    eps = float(tail_eps)
    log_eps = math.log(eps) if eps > 0 else float(mpmath.log(tail_eps))

    def below(n: int) -> bool:
        x = (n - c) / b  # > 0: n >= floor_n > c
        return -x - math.log1p(math.exp(-x)) - sigma * math.log(n) < log_eps

    n = floor_n
    if not below(n):
        n += bisect.bisect_left(range(floor_n, N_TERMS_MAX + 1), True, key=below)
    if n > N_TERMS_MAX:
        raise ValidationError(f"the tail at b = {b} needs more than {N_TERMS_MAX} terms")
    return n


def weighted_zeta(
    s: ComplexAP, b: float, n_terms: int, ctx: PrecisionContext, powers: PowerTable | None = None
) -> ComplexAP:
    """sum_{n=1}^{N} w_n n^(-s), exact in fixed-point ints and rounded once.

    `powers` is power_table(s, M, ctx) with M >= n_terms, or None for a table
    built here; its context sets the fraction bits, the weights and the
    rounding.  One sum over its packed entries gives both parts; the leading
    `head` terms have w_n = 2^F, so their entries are summed as they are.
    """
    _require_off_axis(s)
    require_count("n_terms", n_terms, 1)
    require_real("scale", b, above=0)
    if powers is None:
        powers = power_table(s, n_terms, ctx)
    if n_terms >= len(powers.re):
        raise ValidationError(f"table holds {len(powers.re) - 1} powers, {n_terms} requested")
    c, bits = center(s, ctx), frac_bits(powers.ctx)
    head, w = weights(c, b, powers.ctx, n_terms)
    k, pk = powers.packed
    acc = (sum(pk[1 : head + 1]) << bits) + sum(map(operator.mul, w, pk[head + 1 : n_terms + 1]))
    acc_im = (acc + (1 << k - 1) & (1 << k) - 1) - (1 << k - 1)
    return from_fixed_pairs([(acc - acc_im >> k, acc_im)], 2 * bits, powers.ctx)[0]


@dataclass(frozen=True)
class BCalibration:
    """Optimal scale for one s: minimizer, achieved error, and search trace."""

    b_hat: float
    err_at_opt: float
    digits_gained: float
    trace: tuple[tuple[float, float], ...]
    terms: int


def calibrate_b(
    s: ComplexAP, ctx: PrecisionContext, bracket: tuple[float, float] = DEFAULT_BRACKET
) -> BCalibration:
    """Minimize |zeta(s) - weighted sum| over the scale inside the bracket.

    A coarse logarithmic scan of COARSE_SAMPLES scales locates the valley;
    Brent's minimiser (parabolic steps, golden-section fallback) refines from
    the best point and its neighbours' known errors until that bracket is at
    most REL_TOL b wide: 6-12 sums on a smooth valley, mostly 7.  Each sum is
    truncated where its tail falls below 10^-P.  A minimum on a bracket
    endpoint raises NumericalError: widen the bracket.
    """
    _require_off_axis(s)
    lo, hi = bracket if isinstance(bracket, (tuple, list)) and len(bracket) == 2 else (None, None)
    try:
        require_real("hi/lo", float(require_real("hi", hi) / require_real("lo", lo, above=0)), above=1)
    except ValidationError:
        raise ValidationError(
            f"bracket must satisfy 0 < lo < hi for reals with hi/lo finite, got {shown(bracket, str)}"
        ) from None
    eps = tail_tolerance(ctx)

    reference = _raw(zeta(s, ctx).value, ctx)
    # the truncation length grows with b and the coarse scan evaluates hi,
    # so one table serves every evaluation
    powers = power_table(s, truncation_length(s, hi, eps), ctx)
    trace: list[tuple[float, float]] = []

    def err(b: float) -> float:
        n = truncation_length(s, b, eps)
        approx = _raw(weighted_zeta(s, b, n, ctx, powers), ctx)
        value = float(abs(reference - approx))
        trace.append((b, value))
        return value

    ratio = hi / lo
    coarse = [lo * ratio ** (j / (COARSE_SAMPLES - 1)) for j in range(COARSE_SAMPLES)]
    errors = [err(b) for b in coarse]
    best = min(range(COARSE_SAMPLES), key=lambda j: errors[j])
    if best == 0 or best == COARSE_SAMPLES - 1:
        raise NumericalError(
            f"error is monotone across the bracket {bracket}; minimum at endpoint B={coarse[best]:.4g}"
        )

    # Brent's localmin (Algorithms for Minimization without Derivatives, 1973, ch. 5):
    # x is the best point, w and v the next best; it stops once x - a, b - x <= 2 tol
    a, b, x, fx = coarse[best - 1], coarse[best + 1], coarse[best], errors[best]
    (fw, w), (fv, v) = sorted([(errors[best - 1], a), (errors[best + 1], b)])
    d = e = b - a
    while max(x - a, b - x) > (tol := REL_TOL * x / 4) * 2:
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2 * (q - r)
        p, q = (-p, q) if q > 0 else (p, -q)
        if abs(e) > tol and abs(p) < abs(q * e / 2) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q  # parabolic step, kept 2 tol inside the bracket
            if min(x + d - a, b - x - d) < 2 * tol:
                d = math.copysign(tol, (a + b) / 2 - x)
        else:
            e = (b if x < (a + b) / 2 else a) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = err(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw:  # x, w and v stay distinct, as seeded
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv:
                v, fv = u, fu

    b_hat, err_opt = min(trace, key=lambda item: item[1])
    terms = truncation_length(s, b_hat, eps)
    digits = -math.log10(err_opt) if err_opt > 0 else float(ctx.digits)
    return BCalibration(
        b_hat=b_hat,
        err_at_opt=err_opt,
        digits_gained=digits,
        trace=tuple(trace),
        terms=terms,
    )


@dataclass(frozen=True)
class ScalingFit:
    """Power law b_hat(t) = C * t^D fitted in log-log coordinates."""

    c_coef: float
    d_exp: float
    r_squared: float


def _ols(
    samples: list[tuple[float, float]], min_count: int, log_x: bool, name: str
) -> tuple[float, float, float]:
    """Least squares ln y = p + q*x over distinct abscissas; returns (p, q, r_squared).

    x is ln of each sample's abscissa when log_x, else the abscissa itself.
    Repeated abscissas are rejected outright: the rounded mean of equal
    values need not equal them, so their spread would come out tiny, not 0.
    """
    if not isinstance(samples, (tuple, list)) or len(samples) < min_count:
        raise ValidationError(f"{name} fit needs a list of at least {min_count} samples")
    points = []
    for sample in samples:
        pair = tuple(sample) if isinstance(sample, (tuple, list)) and len(sample) == 2 else (sample, None)
        label = f"{name} fit sample {shown(sample)}"
        # each part read as a double once; a NaN or infinite float is a failed computation
        x, y = (v if isinstance(v, float) else float(require_real(label, v)) for v in pair)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NumericalError(f"{name} fit requires finite values, got {shown(pair)}")
        if y <= 0 or log_x and x <= 0:
            raise NumericalError(f"log-domain fit requires positive values, got {(x, y)!r}")
        points.append((x, y))
    xs = [math.log(x) if log_x else x for x, _ in points]
    ys = [math.log(y) for _, y in points]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    try:
        sxx = sum((x - mean_x) ** 2 for x in xs)
    except OverflowError:
        raise NumericalError(f"{name} fit: the abscissas' spread overflows a double") from None
    if sxx == 0 or len(set(xs)) < n:
        raise NumericalError("fit abscissas must be distinct")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    q = sxy / sxx
    p = mean_y - q * mean_x
    ss_res = sum((y - (p + q * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return p, q, r2


def fit_power_law(samples: list[tuple[float, float]]) -> ScalingFit:
    """OLS on (ln t, ln b_hat); needs >= 2 distinct positive samples."""
    p, q, r2 = _ols(samples, 2, True, "power-law")
    try:
        c = math.exp(p)
    except OverflowError:
        raise NumericalError(f"power-law fit: c = e^{p:.6g} overflows a double") from None
    return ScalingFit(c_coef=c, d_exp=q, r_squared=r2)


@dataclass(frozen=True)
class ExponentialFit:
    """ln v = p + q*sigma; sign of q is reported, not assumed."""

    p: float
    q: float
    r_squared: float


def fit_sigma_dependence(samples: list[tuple[float, float]]) -> ExponentialFit:
    """Least squares of ln(value) against sigma over >= 3 samples."""
    return ExponentialFit(*_ols(samples, 3, False, "sigma-dependence"))
