import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import (
    PrecisionContext,
    SigmoidFit,
    construct_fit,
    fit_residual,
    make_complex,
    scale_from_formula,
    sigmoid_eval,
)
from zetalab.errors import NumericalError, ValidationError
from zetalab.solver import CoefficientSet


def _cs(values, ctx=None, im=None):
    ctx = ctx or PrecisionContext(30)
    im = im or [0] * len(values)
    deltas = tuple(make_complex(v, w, ctx) for v, w in zip(values, im))
    return CoefficientSet(deltas=deltas, residual_inf=ctx.real(0), im_stability=ctx.real(0))


class TestEval:
    def test_center_is_exactly_half(self):
        fit = SigmoidFit(a_param=70.0, b_param=2.5)
        assert sigmoid_eval(70.0, fit) == 0.5

    def test_asymptotes(self):
        fit = SigmoidFit(a_param=10.0, b_param=1.0)
        assert sigmoid_eval(-1e6, fit) == 1.0
        assert sigmoid_eval(1e6, fit) == 0.0

    def test_closed_form_point(self):
        fit = SigmoidFit(a_param=70.0, b_param=2.0)
        assert sigmoid_eval(72.0, fit) == pytest.approx(1.0 / (1.0 + math.e), rel=1e-15)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValidationError, match="sigmoid scale must be > 0, got 0.0"):
            SigmoidFit(a_param=1.0, b_param=0.0)


@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(min_value=-50, max_value=150),
    b=st.floats(min_value=1e-3, max_value=50),
    x=st.floats(min_value=0, max_value=100),
)
def test_symmetry_property(a, b, x):
    fit = SigmoidFit(a_param=a, b_param=b)
    assert sigmoid_eval(a + x, fit) + sigmoid_eval(a - x, fit) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(min_value=0, max_value=100),
    b=st.floats(min_value=1e-2, max_value=20),
    n1=st.floats(min_value=-200, max_value=200),
    n2=st.floats(min_value=-200, max_value=200),
)
def test_monotonicity_property(a, b, n1, n2):
    fit = SigmoidFit(a_param=a, b_param=b)
    lo, hi = sorted((n1, n2))
    if lo < hi:
        assert sigmoid_eval(lo, fit) >= sigmoid_eval(hi, fit)


class TestScaleFormula:
    def test_reference_arithmetic(self):
        b = scale_from_formula(69.9, 100)
        assert b == pytest.approx(math.sqrt(69.9 - 200 / math.pi), rel=1e-15)
        assert b == pytest.approx(2.4976, abs=2e-4)

    def test_boundary_rejected(self):
        with pytest.raises(NumericalError, match="is at or below the minimum 2N/pi"):
            scale_from_formula(200 / math.pi, 100)

    def test_below_floor_rejected(self):
        with pytest.raises(NumericalError, match="is at or below the minimum 2N/pi"):
            scale_from_formula(60.0, 100)


class TestFitResidual:
    def test_exact_match_is_zero(self):
        fit = SigmoidFit(a_param=5.0, b_param=1.5)
        values = [repr(sigmoid_eval(n, fit)) for n in range(1, 11)]
        assert fit_residual(_cs(values), fit) < 1e-15

    def test_signed_cancellation(self):
        # +x on one coefficient, -x on another: the metric cancels by design
        fit = SigmoidFit(a_param=5.0, b_param=1.5)
        values = [sigmoid_eval(n, fit) for n in range(1, 11)]
        values[2] += 0.125
        values[7] -= 0.125
        assert fit_residual(_cs([repr(v) for v in values]), fit) < 1e-15

    def test_imaginary_parts_enter_modulus(self):
        fit = SigmoidFit(a_param=5.0, b_param=1.5)
        values = [repr(sigmoid_eval(n, fit)) for n in range(1, 11)]
        im = ["0.3"] + ["0"] * 9
        assert fit_residual(_cs(values, im=im), fit) == pytest.approx(0.3, rel=1e-12)


class TestConstructFit:
    def test_synthetic_round_trip(self):
        source = SigmoidFit(a_param=70.0, b_param=2.5)
        values = [repr(sigmoid_eval(n, source)) for n in range(1, 101)]
        fit = construct_fit(_cs(values))
        assert abs(fit.a_param - 70.0) <= 0.01
        assert abs(fit.b_param - 2.5) <= 0.05
        assert fit.residual is not None and fit.residual < 0.2

    def test_monotone_increasing_profile(self):
        with pytest.raises(NumericalError, match="never passes through 1/2"):
            construct_fit(_cs(["0.1", "0.2", "0.3", "0.9"]))


@pytest.mark.slow
class TestOnSolvedGrids:
    def test_reference_fit_finite_residual(self, fig2_solution):
        fit = construct_fit(fig2_solution)
        # measured envelope: the residual is dominated by the imaginary sum
        print(f"stable-grid fit: A={fit.a_param:.4f} B={fit.b_param:.4f} residual={fit.residual:.4e}")
        assert 0 < fit.residual < 0.1

    def test_left_grid_residual_separation(self, fig2_solution, left_solution):
        stable_fit = construct_fit(fig2_solution)
        left_fit = construct_fit(left_solution)
        assert left_fit.residual >= 10 * stable_fit.residual
