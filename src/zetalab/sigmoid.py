"""Two-parameter sigmoid model for the coefficient profile.

The model value at index n is 1/(1 + exp((n - A)/B)).  A is taken directly
from the half-crossing of the real profile (least squares would mask the
instability diagnostics) and B from the scale formula B^2 = n* - 2N/pi.
The fit residual is the signed complex sum |sum(d_n - model_n)| -- cancellation
is intrinsic to the metric, it is not an L1 norm.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import NumericalError, ValidationError
from .precision import PrecisionContext
from .solver import CoefficientSet, half_crossing

_EXP_SATURATION = 700.0  # beyond this exp over/underflows double precision


@dataclasses.dataclass(frozen=True)
class SigmoidFit:
    a_param: float
    b_param: float
    residual: float | None = None

    def __post_init__(self):
        if not self.b_param > 0:
            raise ValidationError(f"sigmoid scale must be > 0, got {self.b_param}")


def sigmoid_eval(n: float, fit: SigmoidFit) -> float:
    """Model value at index n; saturates to 0/1 outside the exp range."""
    x = (n - fit.a_param) / fit.b_param
    if x > _EXP_SATURATION:
        return 0.0
    return 1.0 / (1.0 + math.exp(x))


def scale_from_formula(n_hat_star: float, n_coeffs: int) -> float:
    """B = sqrt(n* - 2N/pi); below the floor no valid scale exists."""
    radicand = n_hat_star - 2.0 * n_coeffs / math.pi
    if radicand <= 0:
        raise NumericalError(
            f"n* = {n_hat_star} is at or below the minimum 2N/pi = {2.0 * n_coeffs / math.pi:.6f}"
        )
    return math.sqrt(radicand)


def fit_residual(cs: CoefficientSet, fit: SigmoidFit) -> float:
    """|sum_n (d_n - model_n)| with the model treated as purely real."""
    ctx = PrecisionContext(40)
    re_sum = ctx.real(0)
    im_sum = ctx.real(0)
    for idx, z in enumerate(cs.deltas, start=1):
        re_sum += z.re - ctx.real(sigmoid_eval(idx, fit))
        im_sum += z.im
    return float(abs(ctx._mp.mpc(re_sum, im_sum)))


def construct_fit(cs: CoefficientSet) -> SigmoidFit:
    """Center from the half-crossing, scale from the formula, residual filled."""
    crossing = half_crossing(cs)
    b = scale_from_formula(crossing.value, len(cs.deltas))
    fit = SigmoidFit(a_param=crossing.value, b_param=b)
    residual = fit_residual(cs, fit)
    if not math.isfinite(residual):
        raise NumericalError(f"sigmoid fit residual {residual} is not a finite double")
    return dataclasses.replace(fit, residual=residual)
