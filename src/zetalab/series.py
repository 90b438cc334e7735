"""Generalized sigmoid coefficients turning the divergent series convergent.

For s = sigma + it off the real axis, the weight of the n-th term is
1/(1 + exp((n - t/pi)/B)): close to 1 deep in the head, decaying past the
t/pi center so the weighted Dirichlet sum converges.  The scale B has no
closed form; calibrate_b recovers it per s by minimizing the absolute error
against the zeta oracle with a coarse log scan plus golden-section
refinement.  Sweeps over t and sigma feed the power-law and exponential
fits of the scaling study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

from .errors import NumericalError, ValidationError
from .oracle import zeta
from .powers import PowerTable, center, power_table, sigmoid_weight, weighted_sum
from .precision import ComplexAP, PrecisionContext, _raw

DEFAULT_BRACKET = (0.1, 100.0)
CALIBRATION_DIGITS = 30
COARSE_SAMPLES = 64  # log-spaced scales of the coarse scan, bracket ends included
REL_TOL = 1e-6  # relative width at which golden-section refinement stops
N_TERMS_MAX = 10**6  # the most terms a weighted sum or spiral may need
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _require_off_axis(s: ComplexAP):
    if s.im == 0:
        raise NumericalError("generalized coefficients are undefined for Im s = 0")


def _require_scale(b: float):
    if not b > 0:
        raise ValidationError(f"scale must be > 0, got {b}")


def generalized_delta(n: int, s: ComplexAP, b: float, ctx: PrecisionContext):
    """Weight 1/(1 + exp((n - t/pi)/b)) as an arbitrary-precision real."""
    if n < 1:
        raise ValidationError(f"term index must be >= 1, got {n}")
    _require_off_axis(s)
    _require_scale(b)
    return sigmoid_weight(n, center(s, ctx), b, ctx)


def tail_tolerance(ctx: PrecisionContext):
    """10^-P: a float where a double holds it, an mpf of ctx below that."""
    eps = 10.0 ** (-ctx.digits)
    return eps if eps > 0 else ctx._mp.mpf(10) ** (-ctx.digits)


def truncation_length(s: ComplexAP, b: float, tail_eps) -> int:
    """Smallest N with weight(N) * N^(-sigma) < tail_eps, floored at ceil(t/pi)+1.

    tail_eps may be an mpf below the double range.  The test runs in
    log-domain double precision: it only gates truncation noise, which sits
    far below the measured error.  Past the floor the log-weight falls in n,
    and for sigma >= 0 so does -sigma ln n; for sigma <= 0 both terms are
    concave in n.  Either way the test flips once, so a galloping search plus
    bisection finds the first N.  An N past N_TERMS_MAX is a ValidationError.
    """
    _require_off_axis(s)
    _require_scale(b)
    if not tail_eps > 0:
        raise ValidationError("tail_eps must be > 0")
    sigma = float(s.re)
    c = abs(float(s.im)) / math.pi
    floor_n = max(math.ceil(c) + 1, 1)
    eps = float(tail_eps)
    log_eps = math.log(eps) if eps > 0 else float(mpmath.log(tail_eps))

    def below(n: int) -> bool:
        x = (n - c) / b
        if x > 0:
            log_w = -x - math.log1p(math.exp(-x)) if x < 700 else -x
        else:
            log_w = -math.log1p(math.exp(x))
        return log_w - sigma * math.log(n) < log_eps

    too_long = ValidationError(f"the tail at b = {b} needs more than {N_TERMS_MAX} terms")
    if below(floor_n):
        hi = floor_n
    else:
        lo, hi, step = floor_n, floor_n + 1, 1  # below(lo) is false throughout
        while not below(hi):
            if hi >= N_TERMS_MAX:
                raise too_long
            lo, step = hi, 2 * step
            hi = min(floor_n + step, N_TERMS_MAX)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if below(mid):
                hi = mid
            else:
                lo = mid
    if hi > N_TERMS_MAX:
        raise too_long
    return hi


def weighted_zeta(
    s: ComplexAP, b: float, n_terms: int, ctx: PrecisionContext, powers: PowerTable | None = None
) -> ComplexAP:
    """sum_{n=1}^{N} weight(n) * n^(-s) in fixed point, from `powers` or a table built here.

    `powers` must be power_table(s, M, ctx) with M >= n_terms.
    """
    if n_terms < 1:
        raise ValidationError(f"n_terms must be >= 1, got {n_terms}")
    _require_off_axis(s)
    _require_scale(b)
    if powers is None:
        powers = power_table(s, n_terms, ctx)
    return weighted_sum(powers, center(s, ctx), b, n_terms)


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
    the best neighborhood is refined by golden section until the interval is
    below REL_TOL relative width.  Each sum is truncated where its tail falls
    below 10^-P.  A minimum on a bracket endpoint raises
    NumericalError: widen the bracket.
    """
    _require_off_axis(s)
    lo, hi = bracket
    if not (0 < lo < hi):
        raise ValidationError(f"bracket must satisfy 0 < lo < hi, got {bracket}")
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

    a, c = coarse[best - 1], coarse[best + 1]
    x1 = c - (c - a) * _INV_PHI
    x2 = a + (c - a) * _INV_PHI
    f1, f2 = err(x1), err(x2)
    while (c - a) > REL_TOL * max(x2, 1e-300):
        if f1 < f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - (c - a) * _INV_PHI
            f1 = err(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + (c - a) * _INV_PHI
            f2 = err(x2)

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


def _ols(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Least squares y = p + q*x over distinct abscissas; returns (p, q, r_squared).

    Repeated abscissas are rejected outright: the rounded mean of equal
    values need not equal them, so their spread would come out tiny, not 0.
    """
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
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
    if len(samples) < 2:
        raise ValidationError("power-law fit needs at least 2 samples")
    for t, b in samples:
        if t <= 0 or b <= 0:
            raise NumericalError(f"log-domain fit requires positive values, got {(t, b)!r}")
    xs = [math.log(t) for t, _ in samples]
    ys = [math.log(b) for _, b in samples]
    p, q, r2 = _ols(xs, ys)
    return ScalingFit(c_coef=math.exp(p), d_exp=q, r_squared=r2)


@dataclass(frozen=True)
class ExponentialFit:
    """ln v = p + q*sigma; sign of q is reported, not assumed."""

    p: float
    q: float
    r_squared: float


def fit_sigma_dependence(samples: list[tuple[float, float]]) -> ExponentialFit:
    """Least squares of ln(value) against sigma over >= 3 samples."""
    if len(samples) < 3:
        raise ValidationError("sigma-dependence fit needs at least 3 samples")
    for sigma, value in samples:
        if value <= 0:
            raise NumericalError(f"log-domain fit requires positive values, got {(sigma, value)!r}")
    xs = [float(sig) for sig, _ in samples]
    ys = [math.log(v) for _, v in samples]
    p, q, r2 = _ols(xs, ys)
    return ExponentialFit(p=p, q=q, r_squared=r2)
