import hashlib
import math
import random
import re
import sys
import threading
import timeit
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp

from zetalab import PrecisionContext, chi, gamma, make_complex, zeta
from zetalab.errors import NumericalError, ValidationError
from zetalab import oracle
from zetalab.oracle import (
    _bernoulli_table,
    _em_coefficient,
    _euler_maclaurin,
    bernoulli_even,
)
from zetalab import powers, series, spiral
from zetalab.powers import IM_S_MAX, N_TERMS_MAX, RE_S_MAX, power_table
from zetalab.precision import ComplexAP, to_string

from .oracles import (
    eta_zeta,
    exp_ln_euler_maclaurin,
    mpc_euler_maclaurin,
    mpmath_power_table,
    t_over_pi_cutoff,
    table_head_sum,
)


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

    def test_schedule_gives_up_after_nine_passes(self, monkeypatch):
        # no pass certifies: N0 grows by half nine times, then zeta raises
        cutoffs = []

        def never_certified(s, n0, *args, **kwargs):
            cutoffs.append(n0)
            value, order, _ = _euler_maclaurin(s, n0, *args, **kwargs)
            return value, order, False

        monkeypatch.setattr(oracle, "_euler_maclaurin", never_certified)
        ctx = PrecisionContext(15)
        s = make_complex("0.5", "100", ctx)
        with pytest.raises(NumericalError, match="cannot certify 15 digits at s with [|]Im s[|] = 100.0"):
            zeta(s, ctx)
        assert cutoffs[0] == oracle.first_cutoff(s, 15)
        assert cutoffs[1:] == [math.ceil(1.5 * n0) for n0 in cutoffs[:-1]]
        assert len(cutoffs) == 9

    def test_schedule_stops_at_the_term_cap(self, monkeypatch):
        # no pass certifies and the cap is 200 terms: N0 = 42, 63, 95, 143, then 215 would pass it
        cutoffs = []

        def never_certified(s, n0, *args, **kwargs):
            cutoffs.append(n0)
            value, order, _ = _euler_maclaurin(s, n0, *args, **kwargs)
            return value, order, False

        monkeypatch.setattr(oracle, "_euler_maclaurin", never_certified)
        monkeypatch.setattr(oracle, "N_TERMS_MAX", 200)
        ctx = PrecisionContext(15)
        with pytest.raises(NumericalError, match="cannot certify 15 digits"):
            zeta(make_complex("0.5", "100", ctx), ctx)
        assert len(cutoffs) == 4 and cutoffs[-1] <= 200 < math.ceil(1.5 * cutoffs[-1])

    @pytest.mark.parametrize("digits", [15, 30, 100])
    @pytest.mark.parametrize("im", ["1e-25", "1e-40", "1e-300", "-1e-40"])
    def test_each_component_next_to_the_pole(self, digits, im):
        # zeta(1 + it) ~ -i/t + gamma: the tail N0^(1-s)/(s-1) carries the huge
        # imaginary part, and the real part must keep its digits beside it
        ctx = PrecisionContext(digits)
        s = make_complex(1, im, ctx)
        value = zeta(s, ctx).value
        ref = _ref(digits + 40)
        expected = ref.zeta(_as(ref, s))
        for got, want in ((value.re, expected.real), (value.im, expected.imag)):
            assert abs(ref.mpf(got) / want - 1) < ref.mpf(10) ** -digits, (got, want)

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
        # the first pass certifies, with t/2pi < N0 <= ceil(t/pi) + 10
        ctx = PrecisionContext(30)
        s = make_complex("0.5", "1000", ctx)
        result = zeta(s, ctx)
        assert result.terms_used == oracle.first_cutoff(s, 30)
        assert 1000 / (2 * math.pi) < result.terms_used <= math.ceil(1000 / math.pi) + 10
        assert result.correction_order >= 1

    def test_doubled_cutoff_agreement(self):
        # Euler-Maclaurin at (N0, K) and (2*N0, K+2) agree to P digits
        digits = 60
        ctx = PrecisionContext(digits + 10)
        mp = ctx._mp
        s = make_complex("0.3", "45.0", ctx)
        n0 = 120
        head1, head2 = powers.head_sum(s, n0, ctx), powers.head_sum(s, 2 * n0, ctx)
        v1, order1, cert1 = _euler_maclaurin(s, n0, ctx, head1, digits, max_order=8 * n0)
        # a cutoff of 10^-605 runs the second pass to its last term
        v2, order2, cert2 = _euler_maclaurin(s, 2 * n0, ctx, head2, 10 * digits, max_order=order1 + 2)
        assert cert1 and not cert2
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

    def test_grouped_head_matches_table_head(self, monkeypatch):
        # same value, terms_used and correction_order as summing a whole power_table to N0,
        # reflected and escalated passes (first_cutoff at 4) included
        rng = random.Random(38)
        points = []
        for digits in (15, 30, 100):
            for _ in range(6):
                sigma, t = rng.uniform(-1.5, 3), rng.choice((-1, 1)) * math.exp(rng.uniform(0, math.log(2e4)))
                points.append((digits, f"{sigma:.4f}", f"{t:.4f}", False))
            points.append((digits, f"{rng.uniform(-1.5, 2):.4f}", f"{rng.uniform(-30, 30):.4f}", True))
        points.append((30, "0.5", "-19500.5", False))
        heads = []
        for digits, sigma, t, escalate in points:
            ctx = PrecisionContext(digits)
            s = make_complex(sigma, t, ctx)
            with monkeypatch.context() as patch:
                if escalate:
                    patch.setattr(oracle, "first_cutoff", lambda s, digits: 4)
                got = zeta(s, ctx)
                patch.setattr(oracle, "head_sum", lambda *args: heads.append(args[1]) or table_head_sum(*args))
                want = zeta(s, ctx)
            assert got == want, (digits, sigma, t)
            assert not escalate or got.terms_used > 4
        assert len(heads) > len(points) and max(heads) > 3000 and min(heads) == 4


class TestFixedPointCorrection:
    """The fixed-point correction series against the mpc loop it replaced."""

    def test_zeta_matches_mpc_loop(self, monkeypatch):
        # same value, terms_used and correction_order at seeded points
        rng = random.Random(14)
        points = []
        for digits in (15, 30, 50, 100):
            for _ in range(6):
                sigma = rng.uniform(-1.5, 2)
                t = rng.choice((-1, 1)) * math.exp(rng.uniform(math.log(0.7), math.log(5000)))
                points.append((digits, f"{sigma:.4f}", f"{t:.4f}"))
        # N0^(-s) is 0 in fixed point here, so the first term certifies
        points += [(15, "60", "3.5"), (30, "100", "-40"), (50, "60", "700"), (100, "100", "1")]
        for digits, sigma, t in points:
            ctx = PrecisionContext(digits)
            s = make_complex(sigma, t, ctx)
            got = zeta(s, ctx)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_euler_maclaurin", mpc_euler_maclaurin)
                want = zeta(s, ctx)
            assert got == want, (digits, sigma, t)

    def test_escalated_schedules_match_mpc_loop(self, monkeypatch):
        # a first N0 of 4 cannot certify: zeta escalates N0 past passes whose terms
        # start growing first
        monkeypatch.setattr(oracle, "first_cutoff", lambda s, digits: 4)
        rng = random.Random(15)
        for digits in (15, 30, 50, 100):
            ctx = PrecisionContext(digits)
            sigma, t = rng.uniform(-1.5, 2), rng.uniform(0.7, 30)
            s = make_complex(f"{sigma:.4f}", f"{t:.4f}", ctx)
            got = zeta(s, ctx)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_euler_maclaurin", mpc_euler_maclaurin)
                want = zeta(s, ctx)
            assert got.terms_used > 4
            assert got == want, (digits, sigma, t)

    def test_passes_pinned_bit_for_bit(self):
        # value, order and certified of single passes at orders 18-1,446; SHA-256 of
        # their repr, recorded from the loop that advanced p by four multiplications
        out = []
        for digits, sigma, t in (
            (30, "0.5", "45000.25"), (100, "0.5", "45000.25"), (100, "3.5", "20000"),
            (30, "-0.3", "1000"), (100, "0.5", "150"), (50, "0.5", "0.001"),
        ):
            work = oracle.working_context(PrecisionContext(digits))
            s = make_complex(sigma, t, work)
            n0 = oracle.first_cutoff(s, digits)
            head = powers.head_sum(s, n0, work)
            v, order, cert = _euler_maclaurin(s, n0, work, head, digits, max_order=8 * n0)
            out.append((v.real._mpf_, v.imag._mpf_, order, cert))
        assert [o[2] for o in out] == [829, 1446, 933, 151, 77, 18]
        digest = "7ba71d8a47093d5fa12d72d7763d5c2764dd35821020268d91661bb4d19e6184"
        assert hashlib.sha256(repr(out).encode()).hexdigest() == digest

    def test_uncertified_pass_matches_mpc_loop(self):
        # a pass at too small an N0 stops where its terms stop shrinking, in both
        for digits, sigma, t, n0 in ((30, "0.5", "40", 12), (100, "-1.5", "3", 20), (50, "2", "900", 160)):
            work = PrecisionContext(digits + 10)
            s = make_complex(sigma, t, work)
            head = powers.head_sum(s, n0, work)
            v1, order1, cert1 = _euler_maclaurin(s, n0, work, head, digits, max_order=8 * n0)
            v2, order2, cert2 = mpc_euler_maclaurin(s, n0, work, head, digits, max_order=8 * n0)
            assert order1 > 1 and not cert1 and (order1, cert1) == (order2, cert2)
            ctx = PrecisionContext(digits)
            assert ctx._mp.mpc(v1) == ctx._mp.mpc(v2)


def _cutoff_points():
    """Seeded (P, sigma, t): sigma in [-0.5, 3], +-t log-uniform in [1, 1e5]; t > 1e4 is slow."""
    rng = random.Random(19)
    points = []
    for digits in (15, 30, 50, 100, 200):
        for _ in range(6):
            sigma = rng.uniform(-0.5, 3)
            t = rng.choice((-1, 1)) * math.exp(rng.uniform(0, math.log(1e5)))
            marks = pytest.mark.slow if abs(t) > 1e4 else ()
            points.append(pytest.param(digits, f"{sigma:.6f}", f"{t:.6f}", marks=marks))
    return points


class TestCutoff:
    """first_cutoff's cost model against the ceil(|t|/pi)+10 rule it replaced."""

    @pytest.mark.parametrize("digits,sigma,t", _cutoff_points())
    def test_against_t_over_pi_rule(self, monkeypatch, digits, sigma, t):
        # the first pass certifies, N0 is no longer, and both values hold 10^-(P+5)
        ctx = PrecisionContext(digits)
        s = make_complex(sigma, t, ctx)
        got = zeta(s, ctx)
        assert got.terms_used == oracle.first_cutoff(s, digits)
        assert got.terms_used <= t_over_pi_cutoff(s, digits)
        monkeypatch.setattr(oracle, "first_cutoff", t_over_pi_cutoff)
        want = zeta(s, ctx)
        assert want.terms_used == t_over_pi_cutoff(s, digits)
        ref = _ref(digits + 30)
        assert abs(_as(ref, got.value) - _as(ref, want.value)) <= 2 * ref.mpf(10) ** -(digits + 5)

    @pytest.mark.parametrize("sigma", ["-0.4", "0.5", "2"])
    def test_backlund_stop_against_mpmath(self, sigma):
        # |T_k| |s+2k-1|/(sigma+2k-1) bounds the remainder: 10^-(P+5) holds
        ctx = PrecisionContext(15)
        result = zeta(make_complex(sigma, "20000", ctx), ctx)
        ref = _ref(60)
        want = ref.zeta(ref.mpc(sigma, "20000"))
        assert abs(_as(ref, result.value) - want) <= ref.mpf(10) ** -20 * max(1, abs(want))

    @pytest.mark.parametrize(
        "digits,sigma,t,n0",
        [
            (30, "14.357866692828878", "1974.5029090124428", 639),
            (300, "98.05014537519921", "8269.740179015464", 2643),
        ],
    )
    def test_newton_out_of_steps(self, digits, sigma, t, n0):
        # Newton's twelve steps end without converging, so ceil(t/pi) + 10 stays
        ctx = PrecisionContext(digits)
        s = make_complex(sigma, t, ctx)
        assert n0 == math.ceil(float(t) / math.pi) + 10
        assert oracle.first_cutoff(s, digits) == n0
        assert zeta(s, ctx).terms_used == n0

    def test_left_of_the_switch(self):
        # the grid solver sizes its ladder by first_cutoff at any sigma, reflected or not
        for sigma in ("-0.5", "-1", "-100"):
            ctx = PrecisionContext(30)
            s = make_complex(sigma, "3000", ctx)
            assert 3000 / (2 * math.pi) < oracle.first_cutoff(s, 30) <= t_over_pi_cutoff(s, 30)

    def test_cutoff_cost(self):
        # O(1) float work: a call costs at most two head terms with every prime
        # by mpmath's exp/ln (~20 us at P = 30), a yardstick that follows the
        # host's speed; the integer prime kernel made a library head term cheaper
        ctx = PrecisionContext(30)
        work = oracle.working_context(ctx)
        s = make_complex("0.5", "20000", ctx)
        cutoff, head = [], []
        for _ in range(20):  # round by round, so a burst of load on the host slows both sides
            cutoff.append(timeit.timeit(lambda: oracle.first_cutoff(s, 30), number=200) / 200)
            head.append(timeit.timeit(lambda: mpmath_power_table(s, 1000, work), number=1) / 1000)
        assert min(cutoff) <= 2 * min(head)


class TestLeftHalfPlane:
    """zeta for sigma < 0 against mpmath.zeta: below oracle.REFLECT_BELOW the
    head's terms n^(-sigma) outgrow zeta(s), so zeta reflects."""

    @staticmethod
    def _relative_error(sigma, t, digits, dps):
        ctx = PrecisionContext(digits)
        s = make_complex(sigma, t, ctx)
        ref = _ref(dps)
        want = ref.zeta(_as(ref, s))
        return abs(_as(ref, zeta(s, ctx).value) - want) / abs(want)

    @pytest.mark.parametrize(
        "sigma,t,digits",
        # the direct head cancels by tens of digits at each
        [("-60", "10", 15), ("-100", "0.7", 15), ("-100", "300", 100), ("-100", "0.001", 15)],
    )
    def test_cancelling_points(self, sigma, t, digits):
        assert self._relative_error(sigma, t, digits, 250) < mpmath.mpf(10) ** -digits

    def test_trivial_zeros_are_exact(self):
        for digits in (15, 30, 100):
            ctx = PrecisionContext(digits)
            for k in (1, 2, 7, 50):
                value = zeta(make_complex(-2 * k, 0, ctx), ctx).value
                assert value.re == 0 and value.im == 0, (digits, k)

    def test_seeded_draws(self):
        # half the draws near the imaginary axis, where zeta switches to reflecting
        rng = random.Random(20261019)
        for digits in (15, 30, 100):
            for j in range(12):
                sigma = -rng.uniform(0, 100 if j % 2 else 2) or -1.0
                t = rng.choice((-1, 1)) * math.exp(rng.uniform(math.log(1e-3), math.log(1e4)))
                err = self._relative_error(f"{sigma:.6f}", f"{t:.6f}", digits, digits + 40)
                assert err < mpmath.mpf(10) ** -digits, (digits, sigma, t)

    def test_both_sides_of_the_switch(self):
        ctx = PrecisionContext(50)
        below = "-0.5" + "0" * 40 + "1"
        assert make_complex(below, "7", ctx).re < oracle.REFLECT_BELOW == ctx.real("-0.5")
        for sigma in ("-0.5", below):
            assert self._relative_error(sigma, "7", 50, 90) < mpmath.mpf(10) ** -50, sigma


@pytest.mark.parametrize(
    "sigma,t,n_max",
    [("0.5", "1e16", None), ("0.5", "1e20", None), ("1", "1e300", None), ("0.5", "100", N_TERMS_MAX + 1)],
    ids=["zeta-1e16", "zeta-1e20", "zeta-1e300", "table"],
)
def test_past_the_term_cap_is_a_validation_error(monkeypatch, sigma, t, n_max):
    # these raised MemoryError and OverflowError in the sieve, ZeroDivisionError in
    # first_cutoff, and built a table of N_TERMS_MAX + 1 entries; now each stops first
    def no_sieve(n):
        raise AssertionError(f"sieve of {n} requested")

    monkeypatch.setattr(powers, "_sieve", no_sieve)
    ctx = PrecisionContext(16)
    s = make_complex(sigma, t, ctx)
    with pytest.raises(ValidationError, match=f"more than {N_TERMS_MAX} head terms|must be <= {N_TERMS_MAX}"):
        zeta(s, ctx) if n_max is None else power_table(s, n_max, ctx)


@pytest.mark.parametrize(
    "sigma, t, call",
    [
        ("1e300", "-100", "zeta"),
        ("1e300", "3e5", "spiral"),
        (f"{-RE_S_MAX - 0.5}", "5", "zeta"),
        (f"{RE_S_MAX + 1.5}", "5", "zeta"),
        (f"{RE_S_MAX + 1.5}", "5", "table"),
        (f"{-RE_S_MAX - 1}", "3", "spiral"),
        ("8.5e20", "1e400", "trunc"),
    ],
    ids=["zeta-1e300", "spiral-1e300", "zeta-below", "zeta-above", "table-above", "spiral-below", "trunc-1e400"],
)
def test_past_the_re_s_cap_is_a_validation_error(sigma, t, call):
    # the first two raised OverflowError, in first_cutoff and in to_fixed, and the last
    # in truncation_length, which read |Im s|/pi as a float before checking s
    ctx = PrecisionContext(16)
    s = make_complex(sigma, t, ctx)
    calls = {
        "zeta": lambda: zeta(s, ctx),
        "spiral": lambda: spiral.raw_partial_sums(s, 10, ctx),
        "table": lambda: power_table(s, 10, ctx),
        "trunc": lambda: series.truncation_length(s, 0.12, 1e-25),
    }
    with pytest.raises(ValidationError, match=rf"^Re s = \S+ lies outside \[-{RE_S_MAX}, {RE_S_MAX + 1}\]$"):
        calls[call]()


@pytest.mark.parametrize("sigma", [-RE_S_MAX, RE_S_MAX, RE_S_MAX + 1])
def test_re_s_at_the_cap(sigma):
    # zeta at -RE_S_MAX reflects to 1 + RE_S_MAX, and the spiral's second
    # table is for 1 - s
    ctx = PrecisionContext(16)
    s = make_complex(sigma, 5, ctx)
    ref = mpmath.mp.clone()
    ref.dps = 40
    want = ref.zeta(ref.mpc(sigma, 5))
    got = zeta(s, ctx).value
    assert abs(ref.mpc(got.re, got.im) - want) <= abs(want) * ref.mpf(10) ** -16
    assert len(spiral.raw_partial_sums(s, 3, ctx).points) == 3


@pytest.mark.parametrize(
    "sigma, t, call",
    [
        ("0.5", "1e301", "chi"),
        ("0.5", "-1e301", "zeta"),
        ("0.5", "1e301", "table"),
        ("0.5", "1e301", "spiral"),
        ("0.5", "-1e400", "weighted"),
        ("0.5", "1e400", "trunc"),
    ],
    ids=["chi", "zeta", "table", "spiral", "weighted-1e400", "trunc-1e400"],
)
def test_past_the_im_s_cap_is_a_validation_error(sigma, t, call):
    # unbounded, chi(1/2 + 1e301i) had a modulus near 10^(-2.9e268) in place
    # of 1, and the spirals raised OverflowError in to_fixed and in head_length
    ctx = PrecisionContext(15)
    s = make_complex(sigma, t, ctx)
    calls = {
        "chi": lambda: chi(s, ctx),
        "zeta": lambda: zeta(s, ctx),
        "table": lambda: power_table(s, 3, ctx),
        "spiral": lambda: spiral.raw_partial_sums(s, 3, ctx),
        "weighted": lambda: spiral.weighted_partial_sums(s, 2.0, 3, ctx),
        "trunc": lambda: series.truncation_length(s, 0.12, 1e-25),
    }
    with pytest.raises(ValidationError, match=rf"^\|Im s\| = \S+ lies past IM_S_MAX = {re.escape(f'{IM_S_MAX:g}')}$"):
        calls[call]()


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
            sign, man, exp, _ = (ctx.mpf(b.numerator) / ctx.mpf(den))._mpf_
            want[prec, k] = (-man if sign else man), exp
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


@pytest.mark.parametrize("prec", [90, 200, 420])
def test_coefficients_from_zeta_2k(prec):
    # orders 129..300 come from 2 zeta(2k)/(2 pi)^(2k): within 1 ulp of B_2k/(2k)! rounded once
    wide = mpmath.mp.clone()
    wide.prec = prec + 20
    for k in range(129, 301):
        b = bernoulli_even(k)
        den = b.denominator * math.factorial(2 * k)
        want = libmp.from_rational(b.numerator, den, prec, libmp.round_nearest)
        _, _, exp, bc = want
        got = wide.ldexp(*_em_coefficient(k, prec))
        assert abs(got - wide.make_mpf(want)) <= wide.ldexp(1, exp + bc - prec), (prec, k)


@pytest.mark.parametrize(
    "prec,digest",
    [
        (165, "8bcd948923a59e004b9e63945f93efc0ee89517806df1480dab8f09e9b8f5e04"),
        (398, "1a657e5d15f73634b64341879ca4850ecd94f2a90cf569a65c76d687252f4386"),
    ],
    ids=["165", "398"],
)
def test_coefficients_pinned_through_order_2048(prec, digest):
    # the working precisions of P = 30 and 100; a zeta pass at P = 100,
    # t = 45,000 reaches order 1,446.  SHA-256 of the (man, exp) tuple's repr,
    # recorded from whole-table reads of the coefficients for k = 1..2048
    coefs = tuple(_em_coefficient(k, prec) for k in range(1, 2049))
    assert hashlib.sha256(repr(coefs).encode()).hexdigest() == digest


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

    def test_pole_past_double_precision(self):
        # a 53-bit floor rounded -(2^53 + 1) to -2^53 and let it reach mpmath's pole
        ctx = PrecisionContext(15)
        with pytest.raises(NumericalError, match="gamma has a pole at s = "):
            gamma(make_complex(-(2**53 + 1), 0, ctx), ctx)

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

    @pytest.mark.parametrize("bad", [2**53 + 1, "6.518660e39"])
    def test_integer_past_double_precision(self, bad):
        # integers that a 53-bit floor rounds to a neighbour: they reached mpmath's gamma pole
        ctx = PrecisionContext(15)
        with pytest.raises(NumericalError, match="chi product form degenerates at integer s = "):
            chi(make_complex(bad, 0, ctx), ctx)

    @pytest.mark.parametrize("digits", [15, 30])
    def test_budget_held_to_the_im_s_cap(self, digits):
        # chi at 1/2 + it against mpmath at 3P + log10 t + 20 digits; a chi at the
        # working precision lost log10 t digits to the rounded pi t/2
        ctx = PrecisionContext(digits)
        for k in (10, 20, 30, 40, 100, 200, 300):
            ref = _ref(3 * digits + k + 20)
            s = make_complex("0.5", f"1e{k}", ctx)
            z = _as(ref, s)
            want = ref.power(2, z) * ref.power(ref.pi, z - 1) * ref.sinpi(z / 2) * ref.gamma(1 - z)
            assert abs(_as(ref, chi(s, ctx)) - want) <= abs(want) * ref.mpf(10) ** -digits, k


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
