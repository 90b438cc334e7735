import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest

from zetalab import PrecisionContext, chi, gamma, make_complex, zeta
from zetalab.errors import NumericalError, ValidationError
from zetalab import oracle
from zetalab.oracle import _bernoulli_table, _em_coefficient, _euler_maclaurin, bernoulli_even
from zetalab.precision import ComplexAP, _raw, to_string

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

    def test_across_table_boundaries(self):
        # B_2k is read from the table of size 16, 32, 64, ... that holds k
        _bernoulli_table.cache_clear()
        for k in (129, 16, 17, 32, 33):
            assert bernoulli_even(k) == Fraction(*mpmath.bernfrac(2 * k)), k
        assert _bernoulli_table.cache_info().currsize == 4  # sizes 256, 16, 32 and 64
        assert _bernoulli_table(16) == _bernoulli_table(256)[:16]

    def test_index_below_one_rejected(self):
        for bad in (0, -3):
            with pytest.raises(ValidationError):
                bernoulli_even(bad)


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
        with pytest.raises(NumericalError, match="zeta has a pole at s = 1"):
            zeta(make_complex(1, 0, ctx), ctx)

    def test_conjugate_exact_at_representation(self):
        # zeta(conj s) runs its own pass on conjugated power entries; every
        # later step rounds to nearest, so value and schedule mirror exactly
        for digits, sigma, t in [
            (50, "0.5", "37.5"),
            (15, "2", "0.7"),
            (15, "-1.5", "1000"),
            (30, "0.5", "14.134725"),
            (30, "-1.5", "123.25"),
            (100, "2", "300"),
            (100, "0.5", "5000"),
        ]:
            ctx = PrecisionContext(digits)
            a = zeta(make_complex(sigma, t, ctx), ctx)
            b = zeta(make_complex(sigma, "-" + t, ctx), ctx)
            assert a.value.re == b.value.re and a.value.im == -b.value.im, (digits, sigma, t)
            assert (a.terms_used, a.correction_order) == (b.terms_used, b.correction_order)

    def test_schedule_metadata(self):
        ctx = PrecisionContext(30)
        result = zeta(make_complex("0.5", "1000", ctx), ctx)
        assert result.terms_used >= 1000 / 3.15
        assert result.correction_order >= 1

    def test_doubled_cutoff_agreement(self):
        # Euler-Maclaurin at (N0, K) and (2*N0, K+2) agree to P digits
        digits = 60
        ctx = PrecisionContext(digits + 10)
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
    _em_coefficient.cache_clear()
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
            if _em_coefficient(k, prec) != want[prec, k]:
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
            with pytest.raises(NumericalError, match="gamma has a pole at s = "):
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
            with pytest.raises(NumericalError, match="chi product form degenerates at integer s = "):
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


# recorded from the earlier Stirling-series gamma, at the context precision
_GOLDEN = [
        ("gamma", "2.5", "0", 50,
         "1.3293403881791370204736256125058588870981620920918"
         "+0.0i"),
        ("gamma", "0.1", "-3.7", 50,
         "0.0038966488401628077950255809112059944154500612672031"
         "-0.0021394373197762752477964897523144280314398786508362i"),
        ("gamma", "-4.2", "9.1", 100,
         "-0.00000000003071223165235279598712383401909557112376939349589445185689519413578901278437661414047882625533691097"
         "+0.00000000002536075331994246680043521620066920379159080845511781261526155716676254551753930584461055360490964241i"),
        ("gamma", "0.5", "120", 100,
         "-1.766117429589507341474949283808767465095871595405059400038806543490899242661732031310761588207921021e-82"
         "+2.951562124857455299873033517583838751334754708285019483860108669944416581451913565908463760572815467e-82i"),
        ("gamma", "0.3", "-45000", 50,
         "-5.4870204646634130716180133205292139688668408201462e-30700"
         "-8.3735693535115205649302116303671171341688824319527e-30700i"),
        ("gamma", "1.5", "45000.25", 100,
         "2.355574730500057017998667708270098879736564352410732768960168869336052846173290677157830043435078758e-30694"
         "+1.083848016393696638907475737093983757649708300476776548972606433884688155283733418001404518397561069e-30694i"),
        ("chi", "0.5", "14.134725", 50,
         "-0.95056438431206099199879661202253765070788041445123"
         "-0.31052753706786200999379102468350272565058265893042i"),
        ("chi", "0.3", "-45", 50,
         "0.57586029235847400918925519615480418512009070976167"
         "-1.3661243299917139190432706581270897084212233929156i"),
        ("chi", "-1.2", "7.5", 100,
         "0.8928970318355650756433903718481018892793126048223048694209149377061657120381623020710003067784278149"
         "+1.037736862648617952904494611505863009418014741552175773141064770579083050756239922212730601905191322i"),
        ("chi", "0.7", "-20", 100,
         "-0.5701791983107746265362054052671091973156310022225367542534348077202434873714440257245889249182450240"
         "+0.5515622628097283697145097952631530210717449828130644345411518603441814181591536050030922198952805674i"),
        ("chi", "0.3", "-45000", 50,
         "-5.5201129760006723869147262400127316579625515645847"
         "+2.0888110531892343822142515886626380081599900904395i"),
        ("chi", "0.5", "45000", 100,
         "-0.9352797042106858065867759723063960174748832904977534285644297492097034244875386754198810322895042239"
         "-0.3539094162233777954395422019816691402910964857022992294941897786915253149541451696411222242167448035i"),
]


@pytest.mark.parametrize(
    "name,re_s,im_s,digits,text",
    _GOLDEN,
    ids=[f"{name}({re_s},{im_s})-P{digits}" for name, re_s, im_s, digits, _ in _GOLDEN],
)
def test_golden_text(name, re_s, im_s, digits, text):
    ctx = PrecisionContext(digits)
    value = {"gamma": gamma, "chi": chi}[name](make_complex(re_s, im_s, ctx), ctx)
    assert to_string(value, ctx) == text
