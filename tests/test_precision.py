import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import PrecisionContext, make_complex, power_term, to_string
from zetalab.errors import NumericalError, ValidationError
from zetalab.precision import ComplexAP, _raw, _wrap


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
