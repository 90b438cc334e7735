import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import PrecisionContext, make_complex, power_term, to_string
from zetalab.errors import NumericalError, ValidationError
from zetalab.experiments import ExperimentConfig, run_preset
from zetalab.precision import ComplexAP, _raw, _wrap

from .test_golden_presets import OVERRIDES


@pytest.fixture(scope="module")
def ctx():
    return PrecisionContext(50)


def _as_ref(z, dps=130):
    ref = mpmath.mp.clone()
    ref.dps = dps
    return ref, ref.mpc(z.re, z.im)


class TestContext:
    def test_minimum_digits_enforced(self):
        with pytest.raises(ValidationError):
            PrecisionContext(14)
        PrecisionContext(15)  # boundary constructs

    def test_bits_sizing(self):
        # ceil(P*log2(10)) + 32 guard bits
        assert PrecisionContext(100).prec_bits == 333 + 32

    def test_contexts_are_values(self):
        assert PrecisionContext(40) == PrecisionContext(40)
        assert PrecisionContext(40) != PrecisionContext(41)

    def test_contexts_share_one_mpmath_context(self):
        assert PrecisionContext(40)._mp is PrecisionContext(40)._mp
        assert PrecisionContext(40)._mp is not PrecisionContext(41)._mp


def test_shared_contexts_keep_their_precision(tmp_path):
    # a grid solve with its sigmoid fit, a calibration sweep and a weighted spiral
    # leave every context of every budget they touch at its own precision
    for preset in ("fig-sigmoid", "fig-b-power-law", "fig-spiral-weighted"):
        run_preset(ExperimentConfig(preset, dict(OVERRIDES[preset])), tmp_path / preset)
    for digits in range(15, 121):
        ctx = PrecisionContext(digits)
        assert ctx._mp.prec == ctx.prec_bits == math.ceil(digits * math.log2(10)) + 32, digits


class TestFieldOps:
    def test_exp_ln_round_trip(self, ctx):
        z = make_complex("2.5", "-0.7", ctx)
        back = ctx._mp.exp(ctx._mp.ln(_raw(z, ctx)))
        ref, zr = _as_ref(z)
        err = abs(ref.mpc(back.real, back.imag) - zr) / abs(zr)
        assert err < ref.mpf(10) ** (-ctx.digits)

    def test_nan_rejected(self, ctx):
        with pytest.raises(NumericalError, match="non-finite component in ComplexAP"):
            ComplexAP(mpmath.mpf("nan"), mpmath.mpf(0))
        with pytest.raises(NumericalError, match="non-finite component in ComplexAP"):
            ComplexAP(mpmath.mpf(0), mpmath.inf)
        # an mpf part is tested on its raw value, any other part by mpmath's isnan and isinf
        with pytest.raises(NumericalError, match="non-finite component in ComplexAP: -inf"):
            ComplexAP(mpmath.mpf(1), -mpmath.inf)
        with pytest.raises(NumericalError, match="non-finite component in ComplexAP: nan"):
            ComplexAP(float("nan"), mpmath.mpf(0))
        zero = ComplexAP(mpmath.mpf(0), mpmath.mpf("-0.0"))
        assert zero.re == 0 and zero.im == 0


class TestPowerTerm:
    def test_n_one_is_identity(self, ctx):
        z = power_term(1, make_complex("0.37", "141.7", ctx), ctx)
        assert z.re == 1 and z.im == 0

    def test_two_to_minus_one(self, ctx):
        z = power_term(2, make_complex(1, 0, ctx), ctx)
        assert z.re == mpmath.mpf(0.5) and z.im == 0

    def test_requires_positive_n(self, ctx):
        with pytest.raises(ValidationError):
            power_term(0, make_complex(1, 0, ctx), ctx)

    def test_against_doubled_precision(self):
        # value at P=50 agrees with the same formula evaluated at P=100
        ctx50 = PrecisionContext(50)
        z = power_term(2, make_complex("0.5", "14.0", ctx50), ctx50)
        ref = mpmath.mp.clone()
        ref.dps = 100
        expected = ref.exp(-ref.mpc("0.5", "14.0") * ref.ln(2))
        err = abs(ref.mpc(z.re, z.im) - expected) / abs(expected)
        assert err < ref.mpf(10) ** (-50)

    def test_inverse_product(self, ctx):
        s = make_complex("0.82", "57.3", ctx)
        minus_s = ComplexAP(-s.re, -s.im)
        prod = _raw(power_term(7, s, ctx), ctx) * _raw(power_term(7, minus_s, ctx), ctx)
        ref, pr = _as_ref(_wrap(prod))
        assert abs(pr - 1) < ref.mpf(10) ** (-(ctx.digits - 2))


@settings(max_examples=60, deadline=None)
@given(
    mag=st.floats(min_value=-3.0, max_value=3.0),
    angle=st.floats(min_value=-3.1, max_value=3.1),
)
def test_round_trip_property(mag, angle):
    # |exp(ln z) - z| / |z| < 10^(-P+2) over |z| in [1e-3, 1e3]
    ctx = PrecisionContext(40)
    mp = ctx._mp
    z_raw = mp.mpf(10) ** mag * mp.exp(mp.mpc(0, angle))
    z = ComplexAP(z_raw.real, z_raw.imag)
    back = mp.exp(mp.ln(_raw(z, ctx)))
    ref, zr = _as_ref(z)
    err = abs(ref.mpc(back.real, back.imag) - zr) / abs(zr)
    assert err < ref.mpf(10) ** (-(ctx.digits - 2))


@settings(max_examples=40, deadline=None)
@given(
    re=st.floats(min_value=-50, max_value=50),
    im=st.floats(min_value=-50, max_value=50),
)
def test_precision_monotonicity(re, im):
    # recomputing at 2P and rounding back reproduces the P-digit result
    ctx = PrecisionContext(30)
    wide = PrecisionContext(60)
    z = make_complex(repr(re), repr(im), ctx)
    w = make_complex(repr(re), repr(im), wide)
    narrow = _wrap(ctx._mp.exp(_raw(z, ctx)))
    widened = _wrap(wide._mp.exp(_raw(w, wide)))
    rounded = ComplexAP(ctx.real(widened.re), ctx.real(widened.im))
    ref, a = _as_ref(narrow)
    _, b = _as_ref(rounded)
    scale = max(abs(a), ref.mpf(10) ** -300)
    assert abs(a - b) / scale < ref.mpf(10) ** (-(ctx.digits - 1))


def test_shared_context_across_threads():
    # contexts and values are immutable; concurrent use must match serial use
    import concurrent.futures

    ctx = PrecisionContext(40)
    ss = [make_complex("0.5", repr(1.5 * k + 0.25), ctx) for k in range(24)]
    serial = [to_string(power_term(7, s, ctx), ctx) for s in ss]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda s: to_string(power_term(7, s, ctx), ctx), ss))
    assert serial == parallel


class TestSerialization:
    def test_exact_digit_count(self):
        ctx = PrecisionContext(20)
        text = to_string(make_complex("0.5", "-0.25", ctx), ctx)
        assert text == "0.50000000000000000000-0.25000000000000000000i"

    def test_round_trip(self):
        ctx = PrecisionContext(30)
        z = _wrap(ctx._mp.exp(_raw(make_complex("0.3", "2.7", ctx), ctx)))
        text = to_string(z, ctx)
        re_text, sign, im_text = text[:-1].rpartition("-" if z.im < 0 else "+")
        back = make_complex(re_text, sign + im_text, ctx)
        assert to_string(back, ctx) == text

    def test_parse_exponent_forms(self):
        ctx = PrecisionContext(20)
        z = make_complex("1.5e-3", "+2.25e+1", ctx)
        assert abs(float(z.re) - 0.0015) < 1e-18
        assert abs(float(z.im) - 22.5) < 1e-12

    def test_parse_rejects_garbage(self):
        # the text boundary rejects non-numbers and non-finite numbers alike
        ctx = PrecisionContext(20)
        for bad in ("abc", "1.5i", "", "nan", "inf", "-inf", float("nan"), mpmath.inf):
            with pytest.raises(ValidationError):
                make_complex(bad, "0", ctx)
            with pytest.raises(ValidationError):
                make_complex("0", bad, ctx)
