import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest

from zetalab import PrecisionContext, chi, gamma, make_complex, zeta
from zetalab.errors import ChiDegenerateError, PoleError
from zetalab import oracle
from zetalab.oracle import _CoefficientTables, _euler_maclaurin, bernoulli_even
from zetalab.precision import ComplexAP, _raw

from .oracles import eta_zeta, exp_ln_euler_maclaurin


def _ref(dps=130):
    ref = mpmath.mp.clone()
    ref.dps = dps
    return ref


def _as(ref, z):
    return ref.mpc(z.re, z.im)


class TestBernoulli:
    def test_known_values(self):
        assert bernoulli_even(1) == Fraction(1, 6)
        assert bernoulli_even(2) == Fraction(-1, 30)
        assert bernoulli_even(3) == Fraction(1, 42)
        assert bernoulli_even(4) == Fraction(-1, 30)
        assert bernoulli_even(5) == Fraction(5, 66)
        assert bernoulli_even(6) == Fraction(-691, 2730)

    def test_against_library(self):
        ref = _ref(60)
        for k in (7, 25, 80, 150):
            exact = bernoulli_even(k)
            got = ref.mpf(exact.numerator) / exact.denominator
            want = ref.bernoulli(2 * k)
            assert abs(got - want) <= abs(want) * ref.mpf(10) ** -50


class TestZeta:
    def test_basel_value(self):
        ctx = PrecisionContext(100)
        result = zeta(make_complex(2, 0, ctx), ctx)
        ref = _ref()
        err = abs(_as(ref, result.value) - ref.pi**2 / 6)
        assert err < ref.mpf(10) ** (-100)

    def test_half_against_alternating_series(self):
        # independent oracle: CVZ-accelerated eta series
        ctx = PrecisionContext(60)
        result = zeta(make_complex("0.5", 0, ctx), ctx)
        ref = _ref()
        expected = eta_zeta("0.5", "0", 70)
        assert abs(_as(ref, result.value) - ref.mpc(expected)) < ref.mpf(10) ** (-60)
        # leading digits pinned independently
        assert str(result.value.re).startswith("-1.46035450880")

    def test_complex_point_against_alternating_series(self):
        ctx = PrecisionContext(40)
        s = make_complex("0.75", "8.25", ctx)
        result = zeta(s, ctx)
        ref = _ref()
        expected = eta_zeta("0.75", "8.25", 50)
        err = abs(_as(ref, result.value) - ref.mpc(expected))
        assert err < ref.mpf(10) ** (-40) * max(1, abs(ref.mpc(expected)))

    def test_first_zero_modulus(self):
        ctx = PrecisionContext(50)
        result = zeta(make_complex("0.5", "14.134725141734", ctx), ctx)
        ref = _ref()
        assert abs(_as(ref, result.value)) < ref.mpf(10) ** (-10)

    def test_pole_raises(self):
        ctx = PrecisionContext(30)
        with pytest.raises(PoleError):
            zeta(make_complex(1, 0, ctx), ctx)

    def test_conjugate_exact_at_representation(self):
        ctx = PrecisionContext(50)
        a = zeta(make_complex("0.5", "37.5", ctx), ctx).value
        b = zeta(make_complex("0.5", "-37.5", ctx), ctx).value
        assert a.re == b.re and a.im == -b.im

    def test_schedule_metadata(self):
        ctx = PrecisionContext(30)
        result = zeta(make_complex("0.5", "1000", ctx), ctx)
        assert result.terms_used >= 1000 / 3.15
        assert result.correction_order >= 1
        assert result.requested_digits == 30

    def test_doubled_cutoff_agreement(self):
        # Euler-Maclaurin at (N0, K) and (2*N0, K+2) agree to P digits
        digits = 60
        ctx = PrecisionContext(digits, guard_digits=10)
        mp = ctx._mp
        s = _raw(make_complex("0.3", "45.0", ctx), ctx)
        cutoff = mp.mpf(10) ** (-(digits + 5))
        n0 = 120
        v1, order1, cert1 = _euler_maclaurin(s, n0, ctx, cutoff, max_order=8 * n0)
        v2, order2, cert2 = _euler_maclaurin(s, 2 * n0, ctx, mp.mpf(0), max_order=order1 + 2)
        assert cert1
        assert abs(v1 - v2) < mp.mpf(10) ** (-digits) * max(1, abs(v1))


    def test_streamed_head_matches_exp_ln_head(self, monkeypatch):
        # same context-precision value and schedule as summing exp(-s ln n) per term
        rng = random.Random(6)
        points = []
        for digits in (15, 30, 100):
            for _ in range(8):
                sigma, t = rng.uniform(-0.5, 1.5), rng.choice((-1, 1)) * rng.uniform(0, 2000)
                points.append((digits, f"{sigma:.3f}", f"{t:.3f}"))
        points.append((30, "0.5", "50000"))
        for digits, sigma, t in points:
            ctx = PrecisionContext(digits)
            s = make_complex(sigma, t, ctx)
            got = zeta(s, ctx)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_euler_maclaurin", exp_ln_euler_maclaurin)
                want = zeta(s, ctx)
            assert got == want, (digits, sigma, t)


def test_coefficient_tables_under_contention():
    # every thread sees B_2k/(2k)! rounded as mpf(num) / mpf(den * (2k)!) at its precision
    tables = _CoefficientTables()
    precs = (90, 200)
    want = {}
    for prec in precs:
        ctx = mpmath.mp.clone()
        ctx.prec = prec
        for k in range(1, 121):
            b = bernoulli_even(k)
            den = b.denominator * math.factorial(2 * k)
            want[prec, k] = (ctx.mpf(b.numerator) / ctx.mpf(den))._mpf_
    wrong = []

    def reader(seed):
        rng = random.Random(seed)
        for _ in range(400):
            prec, k = rng.choice(precs), rng.randint(1, 120)
            if tables.get(k, prec) != want[prec, k]:
                wrong.append((prec, k))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


class TestGamma:
    def test_factorial(self):
        ctx = PrecisionContext(100)
        g = gamma(make_complex(5, 0, ctx), ctx)
        ref = _ref()
        assert abs(_as(ref, g) - 24) < ref.mpf(10) ** (-97)

    def test_sqrt_pi(self):
        ctx = PrecisionContext(100)
        g = gamma(make_complex("0.5", 0, ctx), ctx)
        ref = _ref()
        assert abs(_as(ref, g) - ref.sqrt(ref.pi)) < ref.mpf(10) ** (-98)

    def test_reflection_identity(self):
        # gamma(z) gamma(1-z) = pi / sin(pi z) to P-2 digits at z = 0.3+2i
        ctx = PrecisionContext(60)
        ref = _ref()
        z = make_complex("0.3", "2", ctx)
        one_minus = ComplexAP(ctx.real(1) - z.re, -z.im)
        prod = _as(ref, gamma(z, ctx)) * _as(ref, gamma(one_minus, ctx))
        target = ref.pi / ref.sin(ref.pi * ref.mpc("0.3", "2"))
        assert abs(prod - target) / abs(target) < ref.mpf(10) ** (-(60 - 2))

    def test_pole_raises(self):
        ctx = PrecisionContext(30)
        for bad in (0, -1, -7):
            with pytest.raises(PoleError):
                gamma(make_complex(bad, 0, ctx), ctx)

    def test_against_library_sample(self):
        ctx = PrecisionContext(50)
        ref = _ref()
        for re_s, im_s in (("2.5", "0"), ("0.1", "-3.7"), ("-4.2", "9.1"), ("0.5", "120")):
            g = gamma(make_complex(re_s, im_s, ctx), ctx)
            want = ref.gamma(ref.mpc(re_s, im_s))
            assert abs(_as(ref, g) - want) / abs(want) < ref.mpf(10) ** (-48)


class TestChi:
    def test_modulus_one_on_critical_line(self):
        ctx = PrecisionContext(50)
        ref = _ref()
        c = chi(make_complex("0.5", "50", ctx), ctx)
        assert abs(abs(_as(ref, c)) - 1) < ref.mpf(10) ** (-(50 - 2))

    def test_involution(self):
        ctx = PrecisionContext(50)
        ref = _ref()
        c1 = chi(make_complex("0.3", "20", ctx), ctx)
        c2 = chi(make_complex("0.7", "-20", ctx), ctx)
        assert abs(_as(ref, c1) * _as(ref, c2) - 1) < ref.mpf(10) ** (-(50 - 2))

    def test_functional_equation_point(self):
        # |zeta(s) - chi(s) zeta(1-s)| < 10^(-P+4) at s = 0.4 + 30i
        digits = 100
        ctx = PrecisionContext(digits)
        ref = _ref()
        s = make_complex("0.4", "30", ctx)
        lhs = _as(ref, zeta(s, ctx).value)
        mirror = ComplexAP(ctx.real(1) - s.re, -s.im)
        rhs = _as(ref, chi(s, ctx)) * _as(ref, zeta(mirror, ctx).value)
        assert abs(lhs - rhs) < ref.mpf(10) ** (-(digits - 4))

    def test_integer_degeneracy(self):
        ctx = PrecisionContext(30)
        for bad in (2, 3, -4, 0):
            with pytest.raises(ChiDegenerateError):
                chi(make_complex(bad, 0, ctx), ctx)


def test_functional_equation_random_strip():
    # residual < 10^(-P+4) * |zeta(s)| across the strip, 10 < t < 200
    digits = 60
    ctx = PrecisionContext(digits)
    ref = _ref()
    one = ctx.real(1)
    rng = random.Random(1234)
    threshold = ref.mpf(10) ** (-(digits - 4))
    for _ in range(100):
        sig = rng.uniform(0.05, 0.95)
        t = rng.uniform(10.0, 200.0)
        s = make_complex(repr(sig), repr(t), ctx)
        lhs = _as(ref, zeta(s, ctx).value)
        mirror = ComplexAP(one - s.re, -s.im)
        rhs = _as(ref, chi(s, ctx)) * _as(ref, zeta(mirror, ctx).value)
        assert abs(lhs - rhs) < threshold * abs(lhs)
