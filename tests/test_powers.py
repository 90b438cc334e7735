"""The fixed-point power-table kernel against the direct exp/ln paths."""

import functools
import hashlib
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from zetalab import (
    PrecisionContext,
    chi,
    make_complex,
    raw_partial_sums,
    truncation_length,
    weighted_partial_sums,
    weighted_zeta,
)
from zetalab import powers
from zetalab.errors import ValidationError
from zetalab.oracle import working_context
from zetalab.powers import center, frac_bits, from_fixed, head_length, power_table, weights

from .oracles import (
    exp_ln_spiral_sums,
    exp_ln_weighted_zeta,
    from_man_exp_fixed,
    linear_truncation_length,
    mpmath_power_table,
    per_term_weights,
    two_sum_weighted_zeta,
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


def test_pair_equals_two_tables(monkeypatch):
    # power_pair's one sweep shares the phase of s and 1 - s and runs the magnitude per part;
    # every entry must be its own power_table's.  sigma = -3 passes the kernel stop at p = 5
    # (e = floor(3 log2 5) = 6) while 1 - sigma = 4 keeps the ln p chain and kernel running
    fallbacks = []
    route = powers._exp_ln_entry
    monkeypatch.setattr(powers, "_exp_ln_entry", lambda *args: fallbacks.append(args[:2]) or route(*args))
    rng = random.Random(20261021)
    cases = [(15, "-3", "-250.5", 700), (30, "3", "40.25", 500), (100, "0.5", "-1234.5", 400)]
    cases += [
        (digits, f"{rng.uniform(-3, 3):.4f}", f"{rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 3.5):.4f}",
         rng.randint(2, 900))
        for digits in (15, 30, 100)
        for _ in range(5)
    ]
    for digits, sigma, t, n_max in cases:
        ctx = PrecisionContext(digits)
        s = make_complex(sigma, t, ctx)
        direct, mirror = powers.power_pair(s, n_max, ctx)
        mirror_s = make_complex(ctx._mp.mpf(1) - s.re, -s.im, ctx)
        for table, want in ((direct, power_table(s, n_max, ctx)), (mirror, power_table(mirror_s, n_max, ctx))):
            assert (table.re, table.im) == (want.re, want.im), (digits, sigma, t, n_max)
    stopped = {p for p, (neg_sigma, _) in fallbacks if libmp.to_float(neg_sigma) == 3.0}
    assert stopped >= set(_primes(700)[2:]), sorted(stopped)[:5]
    # while sigma = -3 falls back, its partner 4 still takes the kernel at nearly every prime
    assert len([p for p, (neg_sigma, _) in fallbacks if libmp.to_float(neg_sigma) == -4.0]) < 3


def _head_cases():
    """(P, sigma, t, N0): N0 prime, 5-smooth, prime to 30, 4 7 11, below 30, and seeded
    sigma in [-1/2, 3], +-t log-uniform in [1, 5e4], N0 log-uniform to 2 10^4."""
    rng = random.Random(20261021)
    cases = [(30, "0.5", "-45000", 7510), (15, "-0.5", "300", 7919), (100, "3", "-20", 15625)]
    cases += [(30, "1.25", "777", 1001), (15, "0.5", "-1000", 308), (30, "0.75", "50", 210)]
    cases += [(15, "0.5", "14.1", n0) for n0 in range(1, 30)]
    for _ in range(16):
        t = rng.choice((-1, 1)) * math.exp(rng.uniform(0, math.log(5e4)))
        n0 = int(math.exp(rng.uniform(math.log(30), math.log(2e4))))
        cases.append((rng.choice((15, 30, 100)), f"{rng.uniform(-0.5, 3):.4f}", f"{t:.4f}", n0))
    return cases


def test_head_sum_matches_table_sum(monkeypatch):
    # head_sum builds, as power_table does, exactly the entries of the primes, the m prime
    # to 30, the 5-smooth k and N0's cofactors N0/k; its last entry is the table's and its
    # sums lie within the stated 5/2 N0 max(1, N0^-sigma) + 1 units of the table's
    built = []
    tables = powers._tables
    monkeypatch.setattr(powers, "_tables", lambda *args: built.append(tables(*args)[0]) or built[-1:])
    for digits, sigma, t, n0 in _head_cases():
        ctx = PrecisionContext(digits)
        s = make_complex(sigma, t, ctx)
        sum_re, sum_im, last_re, last_im = powers.head_sum(s, n0, ctx)
        part, table = built.pop(), power_table(s, n0, ctx)
        assert (last_re, last_im) == (table.re[n0], table.im[n0]), (digits, sigma, t, n0)
        bound = 2.5 * n0 * max(1, n0 ** -float(sigma)) + 1
        assert abs(sum_re - sum(table.re)) <= bound and abs(sum_im - sum(table.im)) <= bound
        smooth = {k for k in range(1, n0 + 1) if 30**15 % k == 0}  # N0 < 2^15
        want = {n for n in range(1, n0 + 1) if math.gcd(n, 30) == 1} | smooth | set(_primes(n0))
        want |= {n0 // k for k in smooth if n0 % k == 0}
        got = {n for n in range(1, n0 + 1) if (part.re[n], part.im[n]) != (0, 0)}
        assert got == want, (digits, sigma, t, n0, sorted(got ^ want)[:5])
        assert all((part.re[n], part.im[n]) == (table.re[n], table.im[n]) for n in want)


def _primes(n_max):
    return [n for n in range(2, n_max + 1) if all(n % q for q in range(2, math.isqrt(n) + 1))]


def _sweep_cases():
    """Seeded power tables: sigma in [-0.45, 3] (sigma = 0, the ladder's node
    table, and sigma >= 2 among them), t = 0 or +-t log-uniform in [1e-3, 1e5],
    n_max log-uniform to 2000 plus four to 2e4, at P = 15, 30, 100 and 200,
    plain or widened as the oracle widens them."""
    rng = random.Random(20261019)
    cases = []
    for i in range(320):
        digits = (15, 30, 100, 200)[i % 4]
        ctx = PrecisionContext(digits)
        if i % 8 >= 4:
            ctx = working_context(ctx)
        sigma = (0.0, rng.uniform(2, 3), rng.uniform(-0.45, 3), rng.uniform(-0.45, 3))[i // 4 % 4]
        t = 0.0 if i % 10 == 3 else math.exp(rng.uniform(math.log(1e-3), math.log(1e5)))
        n_max = int(math.exp(rng.uniform(0, math.log(2000)))) if i >= 4 else rng.randint(5000, 20000)
        cases.append((ctx, make_complex(repr(sigma), repr(t * rng.choice((1, -1))), ctx), n_max))
    return cases


@functools.cache
def _sweep():
    """(cases whose table differs from the mpmath route, fallbacks, prime entries)."""
    fallbacks = []
    route = powers._exp_ln_entry
    differ, primes = [], 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(powers, "_exp_ln_entry", lambda *args: fallbacks.append(args[0]) or route(*args))
        for ctx, s, n_max in _sweep_cases():
            fast, slow = power_table(s, n_max, ctx), mpmath_power_table(s, n_max, ctx)
            if fast.re != slow.re or fast.im != slow.im:
                differ.append((ctx.digits, str(s), n_max))
            primes += len(_primes(n_max))
    return differ, len(fallbacks), primes


def test_prime_kernel_matches_mpmath_route():
    assert _sweep()[0] == []


def test_prime_kernel_rarely_falls_back():
    # a kernel that always fell back would match too; the rounding test takes a few in 10^3
    _, fallbacks, primes = _sweep()
    assert primes > 20000 and fallbacks < 0.01 * primes, (fallbacks, primes)


def test_every_prime_down_the_fallback(monkeypatch):
    monkeypatch.setattr(powers, "_KERNEL_EXP", -(1 << 40))
    calls = []
    route = powers._exp_ln_entry
    monkeypatch.setattr(powers, "_exp_ln_entry", lambda *args: calls.append(args[0]) or route(*args))
    cases = ((15, "-0.45", "0", 300), (30, "0.5", "-4321.5", 600), (100, "2.5", "0.01", 200))
    for digits, sigma, t, n_max in cases:
        ctx = working_context(PrecisionContext(digits))
        s = make_complex(sigma, t, ctx)
        calls.clear()
        table, want = power_table(s, n_max, ctx), mpmath_power_table(s, n_max, ctx)
        assert table.re == want.re and table.im == want.im
        assert len(calls) == len(_primes(n_max))


@pytest.mark.parametrize(
    ("sigma", "t", "n_max", "digest"),
    [
        ("-0.5", "0.001", 20000, "2138c74c108c00a5c0786044c0435459feb9f30499dd703f3e69d8eaddc04589"),
        ("-100", "7", 2000, "0753fc78823a2426d5fb7fec4ab888b48928a8ae740e013eb7820d3010bb7bdd"),
    ],
)
def test_tables_past_the_kernel_stop(sigma, t, n_max, digest):
    # past the first prime with e >= _KERNEL_EXP every entry takes mpmath's
    # route and the ln p chain stops; SHA-256 recorded while the chain still ran to n_max
    ctx = PrecisionContext(15)
    table = power_table(make_complex(sigma, t, ctx), n_max, ctx)
    assert hashlib.sha256(repr((table.re, table.im)).encode()).hexdigest() == digest


def _cold_table(monkeypatch, s, n_max, ctx):
    """power_table with the ln p tables and the sieve emptied first."""
    powers._prime_logs.cache_clear()
    monkeypatch.setattr(powers, "_SIEVE", ([0, 1], []))
    return power_table(s, n_max, ctx)


def test_warm_tables_equal_cold_builds(monkeypatch):
    # the first table stops the ln p chain at p = 5 (e = floor(3.5 log2 5) = 8 >= 6), so the
    # cache holds ln 2, 3 and 5 when the next, longer one at sigma >= 0 fills it past 10^3;
    # the last has w - h = 16 + 81 + 13 = 110 > 96, so its ln p are built at w, not at h + 96
    cases = [
        (15, "-3.5", "40.25", 400),
        (15, "0.5", "-1234.5", 2000),
        (15, "-100", "-7", 300),
        (15, "1.5", "0.001", 500),
        (30, "0.25", "987.6", 1500),
        (30, "-1.5", "-77.7", 600),
        (30, "2.5", "-5000.5", 3000),
        (100, "0.5", "14.134725", 400),
        (100, "-0.45", "-0.01", 1200),
        (100, "0.75", "33333.3", 250),
        (15, "0.5", repr(2.0**80), 60),
    ]
    rng = random.Random(20261020)
    order = cases[:2] + rng.sample(cases[2:], len(cases) - 2)
    cold = {}
    for digits, sigma, t, n_max in cases:
        ctx = PrecisionContext(digits)
        cold[digits, sigma, t] = _cold_table(monkeypatch, make_complex(sigma, t, ctx), n_max, ctx)
        h = frac_bits(ctx) + 32
        if sigma == "-3.5":
            assert sorted(powers._prime_logs(h + 96)) == [2, 3, 5]
        if n_max == 60:
            w = h + 16 + 81 + (n_max * h).bit_length()
            assert w > h + 96 and sorted(powers._prime_logs(w)) == _primes(n_max)
            assert powers._prime_logs.cache_info().currsize == 1
    powers._prime_logs.cache_clear()
    monkeypatch.setattr(powers, "_SIEVE", ([0, 1], []))
    for digits, sigma, t, n_max in order + order[::-1]:
        ctx = PrecisionContext(digits)
        s = make_complex(sigma, t, ctx)
        warm, want = power_table(s, n_max, ctx), cold[digits, sigma, t]
        assert (warm.re, warm.im) == (want.re, want.im), (digits, sigma, t)
        if n_max <= 600:
            slow = mpmath_power_table(s, n_max, ctx)
            assert (warm.re, warm.im) == (slow.re, slow.im), (digits, sigma, t)


def test_sieve_grows_to_the_largest_request(monkeypatch, ctx30):
    # spf and the primes cover exactly 0..n_max + 1 of the largest table so far; a table
    # past N_TERMS_MAX is rejected before the sieve grows, and no caller writes to the shared one
    monkeypatch.setattr(powers, "_SIEVE", ([0, 1], []))
    monkeypatch.setattr(powers, "N_TERMS_MAX", 1000)
    s = make_complex("0.5", "100", ctx30)
    for n_max, covered in ((500, 501), (300, 501), (700, 701), (701, 702), (1000, 1001)):
        power_table(s, n_max, ctx30)
        spf, primes = powers._SIEVE
        assert len(spf) == covered + 1 and primes == _primes(covered), n_max
        assert all(spf[m] == min(q for q in primes if m % q == 0) for m in range(2, covered + 1))
    frozen = (spf[:], primes[:])
    with pytest.raises(ValidationError, match="n_max must be <= 1000, got 1001"):
        power_table(s, 1001, ctx30)
    assert powers._SIEVE == frozen
    power_table(s, 900, ctx30)
    mpmath_power_table(s, 900, ctx30)
    assert powers._SIEVE == frozen and powers._SIEVE[0] is spf
    assert powers._prime_logs.cache_info().maxsize == 8


def _fixed_ints(bits: int, prec: int, rng: random.Random) -> list[int]:
    """0, +-1, ints below 1024, exact halves at the rounding bit and 2F- to 3F-bit sums."""
    values = [0, 1, -1] + [rng.randrange(-1023, 1024) for _ in range(40)]
    for q in (1 << prec - 1, (1 << prec) - 1, rng.randrange(1 << prec - 1, 1 << prec)):
        for zeros in (0, 1, 7, bits):
            values += [(2 * q + 1) << zeros, -((2 * q + 1) << zeros)]
    for _ in range(60):
        size = rng.randint(2 * bits, 3 * bits)
        values.append(rng.choice((1, -1)) * rng.randrange(1 << size - 1, 1 << size))
    return values


@pytest.mark.parametrize("digits", [15, 30, 100])
def test_from_fixed_matches_from_man_exp(digits):
    ctx = PrecisionContext(digits)
    bits, prec = frac_bits(ctx), ctx.prec_bits
    rng = random.Random(digits)
    values = _fixed_ints(bits, prec, rng)
    for shift in (bits, 2 * bits + 1):
        for re, im in zip(values, rng.sample(values, len(values))):
            got, want = from_fixed(re, im, shift, ctx), from_man_exp_fixed(re, im, shift, ctx)
            assert (got.re._mpf_, got.im._mpf_) == (want.re._mpf_, want.im._mpf_), (re, im, shift)
            assert type(got.re._mpf_[0]) is int and type(got.im._mpf_[0]) is int


def test_mpmath_route_error_inside_rounding_margin():
    # the rounding test assumes the mpmath route within |p^-s| 2^-10 (1 + |sigma| ln p/2^b)
    # F-units, b = bitlen(floor(t ln p)); recomputed 64 bits wider, each error is 16 times inside
    rnd = libmp.round_nearest
    rng = random.Random(7)
    worst, components = 0.0, 0
    for ctx, s, n_max in _sweep_cases()[::4]:
        bits, mp = frac_bits(ctx), ctx._mp
        sigma, t = mp.mpf(s.re), abs(mp.mpf(s.im))
        neg_s = (libmp.mpf_neg(sigma._mpf_), libmp.mpf_neg(t._mpf_))
        primes = _primes(n_max)
        for p in rng.sample(primes, min(len(primes), 50)):
            b = int(float(t) * math.log(p)).bit_length()
            wp = bits + 16 + b
            logs = (libmp.mpf_log(libmp.from_int(p), prec, rnd) for prec in (wp, wp + 64))
            got, exact = (
                libmp.mpc_exp(libmp.mpc_mul_mpf(neg_s, log, prec, rnd), prec, rnd)
                for log, prec in zip(logs, (wp, wp + 64))
            )
            margin = p ** -float(sigma) * 2.0**-10 * (1 + abs(float(sigma)) * math.log(p) / 2**b)
            for g, x in zip(got, exact):
                error = abs(libmp.to_float(libmp.mpf_sub(g, x, wp + 64, rnd)) * 2.0**bits)
                worst = max(worst, error / margin)
                components += 1
    assert components >= 2000 and worst <= 1 / 16, (components, worst)


def test_head_weights_are_exactly_one(ctx30):
    # the head summed straight from the table is the same as weighting its terms one by one
    s = make_complex("0.5", "2500", ctx30)
    c, b, bits = center(s, ctx30), 0.5, frac_bits(ctx30)
    head, tail = weights(c, b, ctx30, head_length(c, b, bits) + 200)
    assert head == head_length(c, b, bits) > 700 and len(tail) == 200
    mp = ctx30._mp
    for n in (1, head // 2, head):
        assert mp.floor(mp.exp((n - c) / mp.mpf(b)) * mp.mpf(2) ** bits) == 0
    table = power_table(s, head + 200, ctx30)
    total_re = total_im = 0
    for n, w in zip(range(1, head + 201), [1 << bits] * head + tail):
        total_re += w * table.re[n]
        total_im += w * table.im[n]
    value = weighted_zeta(s, b, head + 200, ctx30, table)
    assert value.re == mp.mpf(total_re) / mp.mpf(2) ** (2 * bits)
    assert value.im == mp.mpf(total_im) / mp.mpf(2) ** (2 * bits)


def test_weighted_spiral_head_is_the_raw_spiral(ctx30):
    # w_n = 2^F through the head, so those partial sums round from the same values
    s, b = make_complex("0.5", "2000", ctx30), 0.5
    head, _ = weights(center(s, ctx30), b, ctx30, 700)
    assert head > 500
    raw, wtd = raw_partial_sums(s, 700, ctx30), weighted_partial_sums(s, b, 700, ctx30)
    assert raw.points[:head] == wtd.points[:head]
    assert raw.points[head + 100] != wtd.points[head + 100]


def _full_weights(c, b: float, ctx, last: int) -> list[int]:
    head, w = weights(c, b, ctx, last)
    assert len(w) == last - head
    return [1 << frac_bits(ctx)] * head + w


def test_shorter_weight_lists_are_prefixes(ctx30):
    # anchors sit at head+1, head+129, ..., whatever the list's length
    c, b = center(make_complex("0.5", "3000", ctx30), ctx30), 3.0
    head = head_length(c, b, frac_bits(ctx30))
    longest = _full_weights(c, b, ctx30, head + 700)
    assert head > 500 and longest[-1] == 0
    for last in (1, head - 1, head, head + 1, head + 127, head + 128, head + 129, head + 300, head + 699):
        assert _full_weights(c, b, ctx30, last) == longest[:last], last


def _sigmoid_weights(c, b: float, bits: int, last: int, ref):
    """2^bits/(1 + exp((n - c)/b)) for n = 1..last at ref's precision.

    Where exp((n - c)/b) lies outside 2^-(bits+8)..2^(bits+8) the weight is
    within 2^-8 of 2^bits or of 0, and takes that value.  Between, E_n starts
    from a direct exp and steps by exp(1/b), each step within 2^(1-prec)
    relative, so 10^5 of them stay under 2^(18-prec).
    """
    span = b * (bits + 8) * math.log(2)
    lo, hi = max(1, math.ceil(float(c) - span)), min(last, math.floor(float(c) + span))
    one = ref.mpf(2) ** bits
    out = [one] * (lo - 1)
    e, q = ref.exp((lo - ref.mpf(c)) / b), ref.exp(1 / ref.mpf(b))
    for _ in range(lo, hi + 1):
        out.append(one / (1 + e))
        e *= q
    return out + [0] * (last - len(out))


def test_weights_match_sigmoid():
    # within 2^8 units of 2^-F of the sigmoid from the first term on past the
    # first zero weight; the B that makes c - head - 1 = 1 + floor(B (F+2) ln 2)
    # equal 128 puts integer c on the second anchor, where E_c = exp(0) = 1 has
    # a one-bit mantissa; b = 1e300 makes exp(1/b) exactly 1 and b = 1e-300 a step at c
    rng = random.Random(20261019)
    for digits in (15, 30, 100, 400):
        ctx = PrecisionContext(digits)
        bits = frac_bits(ctx)
        ref = mpmath.mp.clone()
        ref.prec = 3 * bits
        on_anchor = 127.5 / ((bits + 2) * math.log(2))
        # the sigmoid spans ~1.4 b bits terms, so b = 100 at P = 400 would run 2*10^5
        top = 100.0 if digits <= 100 else 10.0
        draws = (math.exp(rng.uniform(math.log(0.05), math.log(top))) for _ in range(3))
        for b in (0.05, on_anchor, top, 1e-300, 1e300, *draws):
            t = math.exp(rng.uniform(0, math.log(1e5))) * rng.choice((1, -1))
            c = center(make_complex("0.5", repr(t), ctx), ctx)
            if b == on_anchor:
                c = ctx._mp.mpf(max(400, int(c)))
                assert c == head_length(c, b, bits) + 129
            # E_n >= 2^(bits+1) from n = c + b (bits+1) ln 2 on; at b = 1e300 E_n stays near 1
            last = (math.ceil(float(c) + b * (bits + 1) * math.log(2)) if b < 1e300 else 300) + 40
            got = _full_weights(c, b, ctx, last)
            exact = _sigmoid_weights(c, b, bits, last, ref)
            error = max(abs(w - x) for w, x in zip(got, exact))
            assert error <= 2**8, (digits, b, t, float(error))
            assert (got[-1] == 0) == (b < 1e300), (digits, b, t)


def test_weights_match_per_term_stop():
    # the per-block stop for exp(1/b) < 2 gives the lists of the per-term stop; the
    # two b at 1/ln 2 (1 -+ 1e-9) put exp(1/b) just above and just below 2
    rng = random.Random(20261020)
    boundary = 1 / math.log(2)
    cases = 0
    for digits in (15, 30, 100, 400):
        ctx = PrecisionContext(digits)
        bits = frac_bits(ctx)
        draws = [math.exp(rng.uniform(math.log(0.05), math.log(100))) for _ in range(3)]
        for b in (1e-300, 0.05, boundary * (1 - 1e-9), boundary * (1 + 1e-9), *draws, 1e300):
            for sign in (1, -1):
                t = sign * math.exp(rng.uniform(0, math.log(1e5)))
                c = center(make_complex("0.5", repr(t), ctx), ctx)
                # E_n >= 2^(bits+1) from n = c + b (bits+1) ln 2 on; at b = 1e300 E_n stays near 1
                last = (math.ceil(float(c) + b * (bits + 1) * math.log(2)) if b < 1e300 else 300)
                last += rng.randrange(1, 300)
                got = weights(c, b, ctx, last)
                assert got == per_term_weights(c, b, ctx, last), (digits, b, t, last)
                assert (got[1][-1] == 0) == (b < 1e300), (digits, b, t)
                cases += 1
    assert cases == 64


def test_packed_sum_matches_two_sums(ctx30):
    # one sum over the packed entries splits into the two exact sums, even where
    # sigma < 0 makes the entries grow; s and its conjugate stay exact conjugates
    rng = random.Random(20261021)
    for sigma in ("-3", "-0.4", "0.5", "1.5"):
        t = repr(math.exp(rng.uniform(math.log(20), math.log(3000))))
        s, conj = make_complex(sigma, t, ctx30), make_complex(sigma, "-" + t, ctx30)
        size = 10**4
        table, mirror = power_table(s, size, ctx30), power_table(conj, size, ctx30)
        for b in (1e-3, 0.7, 1.5, 40.0, 1e300):
            for n in (1, 300, rng.randrange(2, size), size - 1):
                got, want = weighted_zeta(s, b, n, ctx30, table), two_sum_weighted_zeta(s, b, n, ctx30, table)
                assert (got.re, got.im) == (want.re, want.im), (sigma, t, b, n)
                other = weighted_zeta(conj, b, n, ctx30, mirror)
                assert (other.re, other.im) == (got.re, -got.im), (sigma, t, b, n)


def test_empty_table_rejected(ctx30):
    with pytest.raises(ValidationError, match="n_max must be >= 1, got 0"):
        power_table(make_complex("0.5", "300", ctx30), 0, ctx30)


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
