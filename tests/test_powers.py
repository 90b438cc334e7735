"""The fixed-point power-table kernel against the direct exp/ln paths."""

import itertools
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import (
    PrecisionContext,
    chi,
    make_complex,
    raw_partial_sums,
    truncation_length,
    weighted_partial_sums,
    weighted_zeta,
)
from zetalab.errors import ValidationError
from zetalab.powers import center, frac_bits, head_length, power_table, weights

from .oracles import (
    exp_ln_spiral_sums,
    exp_ln_weighted_zeta,
    linear_truncation_length,
    mpf_mul_weights,
)


def _ref(digits):
    ref = mpmath.mp.clone()
    ref.dps = digits
    return ref


def _gap(ref, value, exact):
    return abs(ref.mpc(value.re, value.im) - exact)


@settings(max_examples=25, deadline=None)
@given(
    sigma=st.floats(min_value=0.1, max_value=0.9),
    t=st.floats(min_value=10, max_value=5000),
    negative=st.booleans(),
    b=st.floats(min_value=0.1, max_value=100),
    digits=st.sampled_from([20, 30, 50]),
)
def test_kernel_matches_exp_ln_sum(sigma, t, negative, b, digits):
    ctx = PrecisionContext(digits)
    s = make_complex(repr(sigma), repr(-t if negative else t), ctx)
    n = truncation_length(s, b, 10.0 ** (-digits))
    ref = _ref(digits + 10)
    exact = exp_ln_weighted_zeta(s, b, n, ref)
    bound = ref.mpf(10) ** (-(digits + 3)) * max(1, abs(exact))
    assert _gap(ref, weighted_zeta(s, b, n, ctx), exact) <= bound


@pytest.mark.slow
def test_error_growth_at_largest_calibration():
    # the longest sum calibration runs: t = 50000 at the bracket end B = 100
    ctx = PrecisionContext(30)
    s = make_complex("0.5", "50000", ctx)
    n = truncation_length(s, 100.0, 1e-30)
    assert n > 22000
    ref = _ref(60)
    exact = exp_ln_weighted_zeta(s, 100.0, n, ref)
    assert _gap(ref, weighted_zeta(s, 100.0, n, ctx), exact) <= ref.mpf(10) ** -33


def test_table_rows_independent_of_length_and_conjugate(ctx30):
    s = make_complex("0.7", "1234.5", ctx30)
    short, long = power_table(s, 300, ctx30), power_table(s, 900, ctx30)
    assert short.re == long.re[:301] and short.im == long.im[:301]
    mirror = power_table(make_complex("0.7", "-1234.5", ctx30), 300, ctx30)
    assert mirror.re == short.re and mirror.im == [-v for v in short.im]


def test_head_weights_are_exactly_one(ctx30):
    # the head summed straight from the table is the same as weighting its terms one by one
    s = make_complex("0.5", "2500", ctx30)
    c, b, bits = center(s, ctx30), 0.5, frac_bits(ctx30)
    head = head_length(c, b, bits)
    assert head > 700
    mp = ctx30._mp
    for n in (1, head // 2, head):
        assert mp.floor(mp.exp((n - c) / mp.mpf(b)) * mp.mpf(2) ** bits) == 0
    table = power_table(s, head + 200, ctx30)
    total_re = total_im = 0
    for n, w in zip(range(1, head + 201), weights(c, b, ctx30)):
        total_re += w * table.re[n]
        total_im += w * table.im[n]
    value = weighted_zeta(s, b, head + 200, ctx30, table)
    assert value.re == mp.mpf(total_re) / mp.mpf(2) ** (2 * bits)
    assert value.im == mp.mpf(total_im) / mp.mpf(2) ** (2 * bits)


def test_weights_do_not_depend_on_start(ctx30):
    c = center(make_complex("0.5", "300", ctx30), ctx30)
    every = [w for _, w in zip(range(200), weights(c, 3.0, ctx30))]
    for start in (2, 31, 32, 33, 64, 150):
        tail = [w for _, w in zip(range(200 - start + 1), weights(c, 3.0, ctx30, start))]
        assert tail == every[start - 1 :]


def test_weights_match_mpf_mul_recurrence():
    # bit for bit the mpf_mul recurrence, from the first term, from the end of
    # the head and from both sides of an anchor, on past the first zero weight
    rng = random.Random(20261018)
    for digits in (15, 30, 100, 400):
        ctx = PrecisionContext(digits)
        bits = frac_bits(ctx)
        # b = 100 at P = 400 would run ~10^5 terms per list
        ends = (0.05, 100.0) if digits <= 100 else (0.05,)
        for b in (*ends, *(math.exp(rng.uniform(math.log(0.05), math.log(100))) for _ in range(3))):
            t = math.exp(rng.uniform(0, math.log(1e5))) * rng.choice((1, -1))
            c = center(make_complex("0.5", repr(t), ctx), ctx)
            head = head_length(c, b, bits)
            # E_n >= 2^(bits+1) from n = c + b (bits+1) ln 2 on
            zero = math.ceil(float(c) + b * (bits + 1) * math.log(2))
            anchor = 32 * rng.randint(head // 32 + 1, max(head // 32 + 1, zero // 32))
            last = max(zero, anchor + 2) + 40
            want = list(itertools.islice(mpf_mul_weights(c, b, ctx), last))
            assert want[-1] == 0 and want[head] > 0, (digits, b, t)
            for start in (1, head + 1, anchor, anchor + 1, anchor + 2):
                got = list(itertools.islice(weights(c, b, ctx, start), last - start + 1))
                assert got == want[start - 1 :], (digits, b, t, start)
                window = got[:64]
                same_start = itertools.islice(mpf_mul_weights(c, b, ctx, start), len(window))
                assert window == list(same_start), (digits, b, t, start)


def test_table_too_short_rejected(ctx30):
    s = make_complex("0.5", "300", ctx30)
    with pytest.raises(ValidationError):
        weighted_zeta(s, 2.0, 50, ctx30, power_table(s, 40, ctx30))


@pytest.mark.parametrize("sigma,t,b", [("0.5", "-200", None), ("1.5", "90", 2.0), ("-0.5", "150", 1.5)])
def test_spiral_matches_exp_ln_sums(ctx30, sigma, t, b):
    s = make_complex(sigma, t, ctx30)
    n = truncation_length(s, b or 2.0, 1e-30) + 20
    ref = _ref(40)
    c = chi(s, ctx30)
    exact = exp_ln_spiral_sums(s, ref.mpc(c.re, c.im), b, n, ref)
    trace = raw_partial_sums(s, n, ctx30) if b is None else weighted_partial_sums(s, b, n, ctx30)
    for point, want in zip(trace.points, exact):
        assert _gap(ref, point, want) <= ref.mpf(10) ** -31 * max(1, abs(want))


def test_truncation_matches_linear_scan(ctx30):
    # the last 300 draws cover sigma down to -100, the concave branch presets accept
    rng = random.Random(20261018)
    for low, high, draws in ((-3, 1.5, 2000), (-100, -3, 300)):
        for _ in range(draws):
            sigma = rng.uniform(low, high)
            t = math.exp(rng.uniform(math.log(0.01), math.log(1e5))) * rng.choice((1, -1))
            b = math.exp(rng.uniform(math.log(0.01), math.log(100)))
            eps = 10.0 ** rng.uniform(-60, -1)
            s = make_complex(repr(sigma), repr(t), ctx30)
            want = linear_truncation_length(s, b, eps)
            assert truncation_length(s, b, eps) == want, (sigma, t, b, eps)
