import math

import mpmath
import pytest

from zetalab import (
    chi,
    functional_residual,
    make_complex,
    raw_partial_sums,
    truncation_length,
    weighted_partial_sums,
    zeta,
)
from zetalab.errors import NumericalError, ValidationError
from zetalab.precision import ComplexAP


def _ref(dps=80):
    ref = mpmath.mp.clone()
    ref.dps = dps
    return ref


def _mod(ref, p):
    return abs(ref.mpc(p.re, p.im))


class TestTraceBasics:
    def test_single_term_is_one_minus_chi(self, ctx30):
        s = make_complex("0.5", "40", ctx30)
        trace = raw_partial_sums(s, 1, ctx30)
        ref = _ref()
        c = chi(s, ctx30)
        want = 1 - ref.mpc(c.re, c.im)
        assert abs(ref.mpc(trace.points[0].re, trace.points[0].im) - want) < ref.mpf(10) ** (-25)

    def test_incremental_consistency(self, ctx30):
        # consecutive point differences reproduce direct term evaluation
        s = make_complex("0.5", "40", ctx30)
        trace = raw_partial_sums(s, 25, ctx30)
        ref = _ref()
        ch = chi(s, ctx30)
        chr_ = ref.mpc(ch.re, ch.im)
        sr = ref.mpc("0.5", "40")
        prev = ref.mpc(0)
        for n, p in enumerate(trace.points, start=1):
            cur = ref.mpc(p.re, p.im)
            diff = cur - prev
            direct = ref.power(n, -sr) - chr_ * ref.power(n, sr - 1)
            assert abs(diff - direct) < ref.mpf(10) ** (-(30 - 4))
            prev = cur

    def test_critical_line_term_bound(self, ctx30):
        # |chi| = 1 on the critical line, so each term has modulus <= 2/sqrt(n)
        s = make_complex("0.5", "40", ctx30)
        trace = raw_partial_sums(s, 30, ctx30)
        ref = _ref()
        prev = ref.mpc(0)
        for n, p in enumerate(trace.points, start=1):
            cur = ref.mpc(p.re, p.im)
            assert abs(cur - prev) <= 2 / ref.sqrt(n) * (1 + ref.mpf(10) ** -20)
            prev = cur

    def test_validation(self, ctx30):
        s = make_complex("0.5", "40", ctx30)
        with pytest.raises(ValidationError):
            raw_partial_sums(s, 0, ctx30)
        with pytest.raises(NumericalError, match="undefined for Im s = 0"):
            raw_partial_sums(make_complex("0.5", 0, ctx30), 5, ctx30)
        with pytest.raises(ValidationError):
            weighted_partial_sums(s, 0.0, 5, ctx30)

    def test_unit_like_weights_match_raw_prefix(self, ctx30):
        # deep in the left tail the weights are 1 to working precision,
        # so the weighted trace is the raw trace there
        s = make_complex("0.5", "200", ctx30)
        raw = raw_partial_sums(s, 30, ctx30)
        wtd = weighted_partial_sums(s, 0.5, 30, ctx30)
        ref = _ref()
        for r, w in zip(raw.points, wtd.points):
            assert abs(ref.mpc(r.re - w.re, r.im - w.im)) < ref.mpf(10) ** (-25)


@pytest.mark.slow
class TestSpiralExperiment:
    def test_raw_spiral_winds_outward(self, ctx30):
        s = make_complex("0.5", "200", ctx30)
        trace = raw_partial_sums(s, 300, ctx30)
        ref = _ref()
        k_cut = math.floor(200 / math.pi)  # 63
        at_cut = _mod(ref, trace.points[k_cut - 1])
        later = max(_mod(ref, p) for p in trace.points[k_cut:])
        assert later > at_cut

    def test_weighted_damps_tail(self, ctx30, cal200):
        s = make_complex("0.5", "200", ctx30)
        b = cal200.b_hat
        n_terms = 2 * truncation_length(s, b, 1e-30)
        raw = raw_partial_sums(s, n_terms, ctx30)
        wtd = weighted_partial_sums(s, b, n_terms, ctx30)
        ref = _ref()
        k_cut = math.ceil(200 / math.pi)
        max_raw = max(_mod(ref, p) for p in raw.points[k_cut:])
        max_wtd = max(_mod(ref, p) for p in wtd.points[k_cut:])
        assert max_wtd < max_raw

    def test_prefix_agreement_at_calibrated_scale(self, ctx30, cal200):
        # weights are ~1 for n << t/pi; measured deficit ~2e-8 at b ~ 1.85
        s = make_complex("0.5", "200", ctx30)
        b = cal200.b_hat
        k_pre = math.floor(200 / (2 * math.pi))
        raw = raw_partial_sums(s, k_pre, ctx30)
        wtd = weighted_partial_sums(s, b, k_pre, ctx30)
        ref = _ref()
        dev = max(
            abs(ref.mpc(r.re - w.re, r.im - w.im))
            for r, w in zip(raw.points, wtd.points)
        )
        assert dev < 1e-6

    def test_functional_residual_is_last_point(self, ctx30, cal200):
        s = make_complex("0.5", "200", ctx30)
        b = cal200.b_hat
        n_terms = 2 * truncation_length(s, b, 1e-30)
        wtd = weighted_partial_sums(s, b, n_terms, ctx30)
        ref = _ref()
        resid = functional_residual(s, b, n_terms, ctx30)
        assert resid == pytest.approx(float(_mod(ref, wtd.points[-1])), rel=1e-12)

    def test_residual_bounded_by_calibration_error(self, ctx30, cal200):
        # residual <= 10 * (calibration error + mirrored-point error)
        s = make_complex("0.5", "200", ctx30)
        b = cal200.b_hat
        n_terms = 2 * truncation_length(s, b, 1e-30)
        resid = functional_residual(s, b, n_terms, ctx30)
        ref = _ref()
        mirror = ComplexAP(ctx30.real(1) - s.re, -s.im)
        mirror_oracle = zeta(mirror, ctx30).value
        from zetalab import weighted_zeta

        mirror_sum = weighted_zeta(mirror, b, n_terms, ctx30)
        mirror_err = float(
            abs(ref.mpc(mirror_oracle.re - mirror_sum.re, mirror_oracle.im - mirror_sum.im))
        )
        assert resid <= 10 * (cal200.err_at_opt + mirror_err)

    def test_off_line_residual_attributed_to_weights(self, ctx30):
        # the oracle functional equation is exact to working precision, so
        # the weighted residual is entirely the approximation's
        from zetalab import calibrate_b

        s = make_complex("0.3", "200", ctx30)
        cal = calibrate_b(s, ctx30)
        n_terms = 2 * truncation_length(s, cal.b_hat, 1e-30)
        resid = functional_residual(s, cal.b_hat, n_terms, ctx30)
        ref = _ref()
        z_s = zeta(s, ctx30).value
        mirror = ComplexAP(ctx30.real(1) - s.re, -s.im)
        z_m = zeta(mirror, ctx30).value
        ch = chi(s, ctx30)
        oracle_resid = float(
            abs(ref.mpc(z_s.re, z_s.im) - ref.mpc(ch.re, ch.im) * ref.mpc(z_m.re, z_m.im))
        )
        print(f"sigma=0.3 weighted residual {resid:.3e}, oracle residual {oracle_resid:.3e}")
        assert 0 < resid < 1
        assert oracle_resid < resid / 100
