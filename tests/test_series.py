import hashlib
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import (
    PrecisionContext,
    calibrate_b,
    fit_power_law,
    fit_sigma_dependence,
    generalized_delta,
    make_complex,
    power_term,
    truncation_length,
    weighted_zeta,
    zeta,
)
from zetalab.errors import NumericalError, ValidationError
from zetalab.experiments import ExperimentConfig, run_preset
from zetalab.series import COARSE_SAMPLES, N_TERMS_MAX, REL_TOL, tail_tolerance

from .oracles import golden_calibrate_b


def _ref(dps=80):
    ref = mpmath.mp.clone()
    ref.dps = dps
    return ref


class TestGeneralizedDelta:
    def test_center_is_half(self, ctx30):
        # t = 100*pi makes n = 100 the exact center
        from zetalab.precision import ComplexAP

        s = ComplexAP(ctx30.real("0.5"), ctx30._mp.pi * 100)
        w = generalized_delta(100, s, 3.7, ctx30)
        assert abs(w - 0.5) < mpmath.mpf(10) ** (-28)

    def test_deep_left_tail(self, ctx30):
        s = make_complex("0.5", "1000", ctx30)
        w = generalized_delta(1, s, 4.05968, ctx30)
        assert 1 - w < mpmath.mpf(10) ** (-30)

    def test_monotone_decreasing(self, ctx30):
        s = make_complex("0.5", "300", ctx30)
        values = [generalized_delta(n, s, 2.0, ctx30) for n in (1, 50, 95, 96, 150, 400)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_real_axis_rejected(self, ctx30):
        with pytest.raises(NumericalError, match="undefined for Im s = 0"):
            generalized_delta(5, make_complex("0.5", 0, ctx30), 2.0, ctx30)

    def test_scale_validated(self, ctx30):
        s = make_complex("0.5", "300", ctx30)
        with pytest.raises(ValidationError, match="^scale must be > 0, got 0.0"):
            generalized_delta(5, s, 0.0, ctx30)
        with pytest.raises(ValidationError):
            generalized_delta(0, s, 1.0, ctx30)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=100000),
    t=st.floats(min_value=0.5, max_value=50000),
    b=st.floats(min_value=1e-2, max_value=100),
)
def test_weight_range_property(n, t, b):
    # open interval up to saturation: deep in the left tail the weight
    # rounds to exactly 1 at the precision floor (endorsed saturation)
    ctx = PrecisionContext(30)
    s = make_complex("0.5", repr(t), ctx)
    w = generalized_delta(n, s, b, ctx)
    assert 0 < w <= 1
    if (n - t / math.pi) / b > -80:
        assert w < 1


class TestTruncationLength:
    def test_reference_point(self, ctx30):
        s = make_complex("0.5", "1000", ctx30)
        n = truncation_length(s, 4.06, 1e-30)
        assert n == 586  # ~ t/pi + b*ln(1/eps) + sigma correction
        assert 550 <= n <= 650

    def test_floor_dominates_for_loose_eps(self, ctx30):
        s = make_complex("0.5", "1000", ctx30)
        assert truncation_length(s, 4.06, 1.0) == math.ceil(1000 / math.pi) + 1

    def test_doubling_scale_lengthens_tail(self, ctx30):
        s = make_complex("0.5", "1000", ctx30)
        assert truncation_length(s, 8.12, 1e-30) > truncation_length(s, 4.06, 1e-30)

    def test_tail_condition_holds_at_cutoff(self, ctx30):
        s = make_complex("0.3", "500", ctx30)
        n = truncation_length(s, 3.0, 1e-25)
        w_n = float(generalized_delta(n, s, 3.0, ctx30))
        assert w_n * n ** (-0.3) < 1e-25
        w_prev = float(generalized_delta(n - 1, s, 3.0, ctx30))
        assert w_prev * (n - 1) ** (-0.3) >= 1e-25

    def test_mpf_tolerance_gives_the_float_length(self, ctx30):
        s = make_complex("0.5", "1000", ctx30)
        for eps in (1e-30, 1e-300, 5e-324):
            assert truncation_length(s, 4.06, ctx30._mp.mpf(eps)) == truncation_length(s, 4.06, eps)

    def test_tolerance_below_double_range(self):
        # 10^-400 underflows a double; the tail condition still holds at the cutoff
        ctx = PrecisionContext(400)
        eps = tail_tolerance(ctx)
        assert eps > 0 and float(eps) == 0.0
        assert tail_tolerance(PrecisionContext(323)) == 1e-323  # a subnormal double
        assert tail_tolerance(PrecisionContext(324)) > 0
        s = make_complex("0.5", "200", ctx)
        n = truncation_length(s, 2.0, eps)
        mp = ctx._mp

        def tail(k):
            return generalized_delta(k, s, 2.0, ctx) * mp.mpf(k) ** mp.mpf("-0.5")

        assert tail(n) < eps <= tail(n - 1)
        assert n > truncation_length(s, 2.0, 1e-300)

    @pytest.mark.parametrize("eps", [0.0, -1e-30, float("nan")])
    def test_rejects_non_positive_tolerance(self, ctx30, eps):
        s = make_complex("0.5", "1000", ctx30)
        with pytest.raises(ValidationError, match="tail_eps must be > 0"):
            truncation_length(s, 4.06, eps)

    def test_term_cap(self, ctx30):
        # the cap is the presets' n_terms bound; the search stops there
        s = make_complex("0.5", "1000", ctx30)
        with pytest.raises(ValidationError, match=f"more than {N_TERMS_MAX} terms"):
            truncation_length(s, 1e6, 1e-30)
        with pytest.raises(ValidationError, match=f"more than {N_TERMS_MAX} terms"):
            truncation_length(make_complex("0.5", "4e6", ctx30), 1.0, 1.0)
        assert truncation_length(s, 1e4, 1e-30) < N_TERMS_MAX


class TestWeightedZeta:
    def test_step_limit_matches_partial_sum(self, ctx30):
        # a near-zero scale makes the weights an exact step at t/pi
        s = make_complex("0.5", "200", ctx30)
        n_cut = math.floor(200 / math.pi)
        ref = _ref()
        plain = ref.mpc(0)
        for n in range(1, n_cut + 1):
            plain += ref.power(n, -ref.mpc("0.5", "200"))
        stepped = weighted_zeta(s, 1e-3, n_cut, ctx30)
        assert abs(ref.mpc(stepped.re, stepped.im) - plain) < ref.mpf(10) ** (-25)

    def test_matches_oracle_at_reference_scale(self, ctx30):
        s = make_complex("0.5", "1000", ctx30)
        n = truncation_length(s, 4.05968, 1e-30)
        approx = weighted_zeta(s, 4.05968, n, ctx30)
        target = zeta(s, ctx30).value
        ref = _ref()
        err = abs(ref.mpc(approx.re, approx.im) - ref.mpc(target.re, target.im))
        assert err < ref.mpf(10) ** (-15)

    def test_unit_weights_reach_classical_series(self, ctx30):
        # with all weights forced to 1 the machinery is the plain Dirichlet
        # sum, which approaches zeta(2) in the absolutely convergent region
        ref = _ref()
        s2 = make_complex("2", "0", ctx30)
        acc = ref.mpc(0)
        n_terms = 4000
        for n in range(1, n_terms + 1):
            term = power_term(n, s2, ctx30)
            acc += ref.mpc(term.re, term.im)
        assert abs(acc - ref.pi**2 / 6) < ref.mpf(2) / n_terms

    def test_truncation_insensitivity(self, ctx30, cal1000):
        # doubling the term count changes the sum by less than 10*tail_eps
        s = make_complex("0.5", "1000", ctx30)
        b = cal1000.b_hat
        n = truncation_length(s, b, 1e-30)
        ref = _ref()
        v1 = weighted_zeta(s, b, n, ctx30)
        v2 = weighted_zeta(s, b, 2 * n, ctx30)
        delta = abs(ref.mpc(v1.re - v2.re, v1.im - v2.im))
        assert delta < 10 * ref.mpf(10) ** (-30)

    def test_validation(self, ctx30):
        s = make_complex("0.5", "100", ctx30)
        with pytest.raises(ValidationError):
            weighted_zeta(s, 1.0, 0, ctx30)
        with pytest.raises(NumericalError, match="undefined for Im s = 0"):
            weighted_zeta(make_complex("0.5", 0, ctx30), 1.0, 10, ctx30)


@pytest.mark.slow
class TestCalibration:
    def test_reference_scale_recovered(self, cal1000):
        assert abs(cal1000.b_hat - 4.05968) / 4.05968 < 0.01

    def test_achieved_error_and_terms(self, cal1000):
        assert cal1000.err_at_opt < 1e-15
        assert cal1000.digits_gained > 15
        assert cal1000.terms >= math.ceil(1000 / math.pi) + 1

    def test_optimum_beats_every_trace_sample(self, cal1000):
        assert all(cal1000.err_at_opt <= err for _, err in cal1000.trace)

    def test_optimum_interior(self, cal1000):
        lo, hi = 0.1, 100.0
        assert lo < cal1000.b_hat < hi
        coarse = cal1000.trace[:64]
        assert cal1000.b_hat != coarse[0][0] and cal1000.b_hat != coarse[-1][0]

    def test_coarse_trace_unimodal(self, cal1000):
        errs = [err for _, err in cal1000.trace[:64]]
        k = min(range(len(errs)), key=lambda j: errs[j])
        assert all(errs[i] > errs[i + 1] for i in range(k))
        assert all(errs[i] < errs[i + 1] for i in range(k, len(errs) - 1))

    def test_detuned_scales_are_much_worse(self, cal1000, ctx30):
        s = make_complex("0.5", "1000", ctx30)
        ref = _ref()
        oracle = zeta(s, ctx30).value
        target = ref.mpc(oracle.re, oracle.im)
        for b in (cal1000.b_hat / 2, cal1000.b_hat * 2):
            n = truncation_length(s, b, 1e-30)
            approx = weighted_zeta(s, b, n, ctx30)
            err = float(abs(ref.mpc(approx.re, approx.im) - target))
            assert err >= 10 * cal1000.err_at_opt

    def test_conjugate_gives_identical_scale(self, ctx30):
        up = calibrate_b(make_complex("0.5", "300", ctx30), ctx30)
        down = calibrate_b(make_complex("0.5", "-300", ctx30), ctx30)
        assert up.b_hat == down.b_hat
        assert up.err_at_opt == down.err_at_opt
        assert up.trace == down.trace

    def test_no_interior_minimum(self, ctx30):
        s = make_complex("0.5", "300", ctx30)
        with pytest.raises(NumericalError, match="error is monotone across the bracket"):
            calibrate_b(s, ctx30, bracket=(50.0, 100.0))

    def test_bracket_validated(self, ctx30):
        s = make_complex("0.5", "300", ctx30)
        with pytest.raises(ValidationError):
            calibrate_b(s, ctx30, bracket=(1.0, 0.5))

    @pytest.mark.parametrize(
        "bracket", [(0.1,), (0.1, 1.0, 10.0), ("0.1", "100")], ids=["one", "three", "text"]
    )
    def test_bracket_must_be_two_real_numbers(self, ctx30, bracket):
        s = make_complex("0.5", "300", ctx30)
        with pytest.raises(ValidationError, match="bracket must satisfy 0 < lo < hi for reals"):
            calibrate_b(s, ctx30, bracket=bracket)

    def test_bracket_ratio_must_be_finite(self, ctx30):
        # 5/1e-320 overflows to inf, which put every coarse point past the first at b = inf
        s = make_complex("0.5", "300", ctx30)
        with pytest.raises(ValidationError, match=r"bracket .*\(1e-320, 5\.0\)"):
            calibrate_b(s, ctx30, bracket=(1e-320, 5.0))


# SHA-256 of repr(trace[:64]), recorded from the golden-section code: the
# coarse scan, whose ends perfbench's calibrate check reads, must not move.
# The P = 15 digest was re-recorded when the weights moved to F-bit
# mantissas: three of its 64 errors changed in their trailing digits.
COARSE_DIGESTS = {
    (30, "1000"): "a2f8557901eeb9ecc3c100be8bee53cfc2ac9e71db46667463e323c11d8102e2",
    (15, "1000"): "8bc8a319bc6d6f5dd889e541f57aa470ed5418fe6ad6fbfe432753105896ca05",
}


def _refinement_shape(cal, max_evals):
    coarse = cal.trace[:COARSE_SAMPLES]
    best = min(range(COARSE_SAMPLES), key=lambda j: coarse[j][1])
    lo, hi = coarse[best - 1][0], coarse[best + 1][0]
    bs = [b for b, _ in cal.trace]
    assert len(set(bs)) == len(bs)  # trace.csv sorts by b
    assert all(lo < b < hi for b in bs[COARSE_SAMPLES:])
    assert len(cal.trace) <= max_evals
    assert (cal.b_hat, cal.err_at_opt) == min(cal.trace, key=lambda item: item[1])


@pytest.mark.slow
class TestBrentRefinement:
    def test_unclipped_shape(self, cal1000):
        assert hashlib.sha256(repr(cal1000.trace[:64]).encode()).hexdigest() == COARSE_DIGESTS[30, "1000"]
        assert cal1000.digits_gained < 30 - 1
        _refinement_shape(cal1000, 76)

    def test_floor_clipped_shape(self):
        # at P = 15 the valley floor is rounding noise, and Brent falls back to golden steps
        ctx = PrecisionContext(15)
        cal = calibrate_b(make_complex("0.5", "1000", ctx), ctx)
        assert hashlib.sha256(repr(cal.trace[:64]).encode()).hexdigest() == COARSE_DIGESTS[15, "1000"]
        assert cal.digits_gained > 15 - 1
        _refinement_shape(cal, 92)


def _equivalence_points():
    """32 seeded points: 26 at P = 30 and t <= 2000, 4 at P = 50, 2 at P = 100."""
    rng = random.Random(22)
    points = []
    for k in range(32):
        digits, t_hi = (30, 2000.0) if k < 26 else (50, 3000.0) if k < 30 else (100, 5000.0)
        t = math.exp(rng.uniform(math.log(100.0), math.log(t_hi)))
        points.append((digits, f"{rng.uniform(-0.4, 0.9):.3f}", f"{t:.2f}"))
    return points


@pytest.mark.slow
@pytest.mark.parametrize(("digits", "sigma", "t"), _equivalence_points())
def test_brent_matches_golden_section(digits, sigma, t):
    ctx = PrecisionContext(digits)
    s = make_complex(sigma, t, ctx)
    cal = calibrate_b(s, ctx)
    if cal.digits_gained > digits - 1:
        pytest.skip("floor-clipped: the valley floor is rounding noise")
    b_hat, err_opt, trace = golden_calibrate_b(s, ctx)
    assert cal.trace[:COARSE_SAMPLES] == tuple(trace[:COARSE_SAMPLES])
    assert abs(cal.b_hat - b_hat) <= REL_TOL * b_hat
    assert abs(cal.digits_gained - -math.log10(err_opt)) <= 1e-4
    assert len(cal.trace) <= 76


def _accuracy(tmp_path, **overrides) -> list[list[str]]:
    """The accuracy.csv rows of a fig-eps-vs-t sweep."""
    run_preset(ExperimentConfig("fig-eps-vs-t", overrides), tmp_path)
    return [line.split(",") for line in (tmp_path / "accuracy.csv").read_text().splitlines()[1:]]


@pytest.mark.slow
class TestAccuracyProfile:
    def test_singleton(self, tmp_path):
        (row,) = _accuracy(tmp_path, t_list="300")
        assert float(row[0]) == 300.0 and float(row[2]) > 8

    def test_two_sigmas_both_succeed(self, tmp_path):
        a = _accuracy(tmp_path / "a", sigma="0.5", t_list="300")[0]
        b = _accuracy(tmp_path / "b", sigma="0.9", t_list="300")[0]
        print(f"b_hat(sigma=0.5)={a[1]} b_hat(sigma=0.9)={b[1]}")
        assert float(a[1]) > 0 and float(b[1]) > 0


class TestPowerLawFit:
    def test_synthetic_exact(self):
        samples = [(t, 2.0 * t**0.4) for t in (10.0, 100.0, 1000.0, 5000.0)]
        fit = fit_power_law(samples)
        assert abs(fit.c_coef - 2.0) < 1e-10
        assert abs(fit.d_exp - 0.4) < 1e-10
        assert fit.r_squared > 1 - 1e-12

    def test_two_points_interpolate(self):
        fit = fit_power_law([(10.0, 3.0), (1000.0, 12.0)])
        assert fit.r_squared == pytest.approx(1.0)

    def test_degenerate(self):
        with pytest.raises(NumericalError, match="fit abscissas must be distinct"):
            fit_power_law([(10.0, 1.0), (10.0, 2.0), (10.0, 3.0)])
        # one repeated t is enough
        with pytest.raises(NumericalError, match="fit abscissas must be distinct"):
            fit_power_law([(100.0, 1.0), (100.0, 2.0), (300.0, 3.0)])
        # a NaN passes a y <= 0 test
        for samples in ([(1.0, math.nan), (2.0, 3.0)], [(math.inf, 1.0), (2.0, 3.0)]):
            with pytest.raises(NumericalError, match="power-law fit requires finite values"):
                fit_power_law(samples)

    def test_validation(self):
        with pytest.raises(ValidationError):
            fit_power_law([(10.0, 1.0)])
        with pytest.raises(NumericalError, match=r"requires positive values, got \(20\.0, -2\.0\)"):
            fit_power_law([(10.0, 1.0), (20.0, -2.0)])

    def test_mpf_below_the_double_range_reads_as_zero(self):
        # each sample is read as a double once, so ln of the abscissa is never taken of 0.0
        with pytest.raises(NumericalError, match=r"requires positive values, got \(0\.0, 1\.0\)"):
            fit_power_law([(mpmath.mpf("1e-400"), 1.0), (2.0, 3.0)])

    def test_overflowing_coefficient(self):
        # ln c = 713.8 > ln(max double) = 709.8, so c is no double
        with pytest.raises(NumericalError, match=r"power-law fit: c = e\^713\.8"):
            fit_power_law([(1e-10, 1e300), (1e-9, 1e301)])


class TestSigmaDependenceFit:
    def test_synthetic_exact(self):
        samples = [(sig, 3.0 * math.exp(-1.2 * sig)) for sig in (0.1, 0.3, 0.5, 0.7, 0.9)]
        fit = fit_sigma_dependence(samples)
        assert abs(fit.p - math.log(3.0)) < 1e-12
        assert abs(fit.q + 1.2) < 1e-12

    def test_constant_samples(self):
        fit = fit_sigma_dependence([(0.1, 2.0), (0.5, 2.0), (0.9, 2.0)])
        assert fit.q == 0.0
        assert fit.r_squared == 1.0

    def test_degenerate(self):
        with pytest.raises(NumericalError, match="fit abscissas must be distinct"):
            fit_sigma_dependence([(0.5, 1.0), (0.5, 2.0), (0.5, 3.0)])
        # the mean of three 0.1 is not 0.1
        with pytest.raises(NumericalError, match="fit abscissas must be distinct"):
            fit_sigma_dependence([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])
        with pytest.raises(NumericalError, match=r"sigma-dependence fit .* got \(0\.5, inf\)"):
            fit_sigma_dependence([(0.1, 1.0), (0.5, math.inf), (0.9, 2.0)])

    def test_mpf_past_the_double_range_is_not_finite(self):
        # it read as inf and gave an all-NaN fit
        with pytest.raises(NumericalError, match="sigma-dependence fit requires finite values"):
            fit_sigma_dependence([(mpmath.mpf("1e400"), 1.0), (2.0, 3.0), (3.0, 4.0)])

    def test_non_positive_reported_with_sample(self):
        with pytest.raises(NumericalError, match=r"requires positive values, got \(0\.5, 0\.0\)"):
            fit_sigma_dependence([(0.1, 1.0), (0.5, 0.0), (0.9, 2.0)])

    def test_needs_three(self):
        with pytest.raises(ValidationError):
            fit_sigma_dependence([(0.1, 1.0), (0.9, 2.0)])
