"""Independent test-side oracles.

The alternating-series zeta lives here (not in the library) so the library's
Euler-Maclaurin path is cross-checked against a genuinely different method:
Cohen-Rodriguez Villegas-Zagier acceleration of the eta series, with the depth
doubled until two successive depths agree to the target.

The exp/ln weighted sum, spiral sums, mpmath exp/ln power table, from_man_exp
conversion, Euler-Maclaurin pass (exp/ln head and mpc correction series), its
whole-table head sum and its ceil(|t|/pi)+10 cutoff, per-row grid assembly,
linear truncation scan, golden-section calibration, per-term weight stop,
two-sum weighted sum, mpc elimination, four-product integer sweep and fdot
residual are the direct paths the library's fixed-point power tables, integer
prime kernel, direct normalize, fixed-point correction series, 5-smooth
grouped head sum, cost-model cutoff, grid ladder, bisection, Brent's
minimiser, per-block weight stop, packed table sum, integer elimination,
three-product row step and raw-tuple residual replaced; they stay here as the
reference those fast paths are checked against.
"""

from __future__ import annotations

import math

import mpmath

from zetalab.errors import NumericalError


def _cvz_eta(s, n: int, ref):
    """CVZ-accelerated eta(s) = sum (-1)^k (k+1)^(-s) with n terms."""
    d = (3 + 2 * ref.sqrt(2)) ** n
    d = (d + 1 / d) / 2
    b = ref.mpf(-1)
    c = -d
    acc = ref.mpc(0)
    for k in range(n):
        c = b - c
        acc += c * ref.power(k + 1, -s)
        b *= ref.mpf(2) * (k + n) * (k - n) / ((2 * k + 1) * (k + 1))
    return acc / d


def eta_zeta(s_re: str, s_im: str, digits: int):
    """zeta(s) = eta(s) / (1 - 2^(1-s)) via self-certified CVZ acceleration.

    Returns an mpc from a private high-precision mpmath clone.
    """
    ref = mpmath.mp.clone()
    ref.dps = digits + 15
    s = ref.mpc(s_re, s_im)
    tol = ref.mpf(10) ** (-digits)
    n = int(1.31 * digits) + 10
    prev = _cvz_eta(s, n, ref)
    for _ in range(8):
        n *= 2
        cur = _cvz_eta(s, n, ref)
        if abs(cur - prev) < tol * max(1, abs(cur)):
            eta = cur
            break
        prev = cur
    else:
        raise RuntimeError(f"CVZ eta failed to self-certify {digits} digits at s = {s}")
    return eta / (1 - ref.power(2, 1 - s))


# ---------------------------------------------------------------------------
# the direct exp/ln paths that the fixed-point power tables replace


def exp_ln_weighted_zeta(s, b, n_terms: int, mp):
    """sum_{n=1}^{N} n^(-s) / (1 + exp((n - |t|/pi)/b)), each term by exp/ln at mp's precision."""
    sw = mp.mpc(s.re, s.im)
    center = abs(mp.mpf(s.im)) / mp.pi
    scale = mp.mpf(b)
    total = mp.mpc(0)
    for n in range(1, n_terms + 1):
        weight = 1 / (1 + mp.exp((n - center) / scale))
        total += weight * mp.exp(-sw * mp.ln(mp.mpf(n)))
    return total


def exp_ln_spiral_sums(s, chi_s, b, n_terms: int, mp):
    """Partial sums of w_n (n^(-s) - chi_s n^(s-1)); w_n = 1 when b is None."""
    sw = mp.mpc(s.re, s.im)
    center = abs(mp.mpf(s.im)) / mp.pi
    acc = mp.mpc(0)
    points = []
    for n in range(1, n_terms + 1):
        ln_n = mp.ln(mp.mpf(n))
        term = mp.exp(-sw * ln_n) - chi_s * mp.exp((sw - 1) * ln_n)
        if b is not None:
            term /= 1 + mp.exp((n - center) / mp.mpf(b))
        acc += term
        points.append(acc)
    return points


def mpmath_power_table(s, n_max: int, ctx):
    """powers.power_table with every prime entry from mpmath's ln and exp, as
    the library built it before its integer kernel for primes."""
    from mpmath import libmp

    from zetalab.powers import PowerTable, _sieve, frac_bits, to_fixed

    rnd = libmp.round_nearest
    mp = ctx._mp
    bits = frac_bits(ctx)
    sigma, t = mp.mpf(s.re), abs(mp.mpf(s.im))
    neg_s = (libmp.mpf_neg(sigma._mpf_), libmp.mpf_neg(t._mpf_))
    half = 1 << (bits - 1)
    spf, _ = _sieve(n_max)
    re, im = [0] * (n_max + 1), [0] * (n_max + 1)
    re[1] = 1 << bits
    for n in range(2, n_max + 1):
        p = spf[n]
        if p == n:
            # the phase t ln n loses log2(t ln n) bits; an entry depends on n alone
            wp = bits + 16 + int(float(t) * math.log(n)).bit_length()
            log_n = libmp.mpf_log(libmp.from_int(n), wp, rnd)
            z_re, z_im = libmp.mpc_exp(libmp.mpc_mul_mpf(neg_s, log_n, wp, rnd), wp, rnd)
            re[n], im[n] = to_fixed(z_re, bits), to_fixed(z_im, bits)
        else:
            a_re, a_im, b_re, b_im = re[p], im[p], re[n // p], im[n // p]
            re[n] = (a_re * b_re - a_im * b_im + half) >> bits
            im[n] = (a_re * b_im + a_im * b_re + half) >> bits
    if s.im < 0:
        im = [-v for v in im]
    return PowerTable(ctx=ctx, re=re, im=im)


def from_man_exp_fixed(re: int, im: int, bits: int, ctx):
    """powers.from_fixed through libmp.from_man_exp, as the library converted
    fixed-point ints before it called normalize itself."""
    from mpmath import libmp

    from zetalab.precision import ComplexAP

    mp, prec = ctx._mp, ctx.prec_bits
    return ComplexAP(
        mp.make_mpf(libmp.from_man_exp(re, -bits, prec, libmp.round_nearest)),
        mp.make_mpf(libmp.from_man_exp(im, -bits, prec, libmp.round_nearest)),
    )


def per_term_weights(c, b: float, ctx, last: int):
    """powers.weights with the stop test E_m >= 2^(F+1) made at every term, as
    the library stepped it before the per-block test.  Returns (head, w)."""
    from mpmath import libmp

    from zetalab.powers import _ANCHOR_EVERY, _exp_at, frac_bits, head_length

    rnd = libmp.round_nearest
    bits = frac_bits(ctx)
    one = 1 << bits
    full, half = one << bits, one >> 1
    head = min(head_length(c, b, bits), last)
    out = []
    c_raw, b_raw = c._mpf_, ctx._mp.mpf(b)._mpf_
    _, q, dq, bc = libmp.mpf_exp(libmp.mpf_div(libmp.fone, b_raw, bits + 64, rnd), bits + 1, rnd)
    q, dq = q << bits + 1 - bc, dq + bc - 1
    for a in range(head + 1, last + 1, _ANCHOR_EVERY):
        _, man, exp, bc = _exp_at(a, c_raw, b_raw, bits)
        man, exp = man << bits - bc, exp + bc - bits
        for m in range(a, min(a + _ANCHOR_EVERY, last + 1)):
            if exp + man.bit_length() > bits + 1:
                return head, out + [0] * (last + 1 - m)
            shift = exp + bits
            out.append(full // (one + (man << shift if shift >= 0 else man >> -shift)))
            man = man * q + half >> bits
            exp += dq
    return head, out


def two_sum_weighted_zeta(s, b: float, n_terms: int, ctx, powers):
    """series.weighted_zeta with the real and imaginary sums taken apart, as the
    library summed them before the packed table view."""
    import operator

    from zetalab.powers import center, frac_bits, from_fixed, weights

    re, im = powers.re, powers.im
    bits = frac_bits(powers.ctx)
    head, w = weights(center(s, ctx), b, powers.ctx, n_terms)
    acc_re = (sum(re[1 : head + 1]) << bits) + sum(map(operator.mul, w, re[head + 1 : n_terms + 1]))
    acc_im = (sum(im[1 : head + 1]) << bits) + sum(map(operator.mul, w, im[head + 1 : n_terms + 1]))
    return from_fixed(acc_re, acc_im, 2 * bits, powers.ctx)


def linear_truncation_length(s, b: float, tail_eps: float) -> int:
    """The first N >= ceil(t/pi)+1 passing the log-domain tail test, by a linear scan."""
    sigma = float(s.re)
    center = abs(float(s.im)) / math.pi
    n = max(math.ceil(center) + 1, 1)
    log_eps = math.log(tail_eps)
    while True:
        x = (n - center) / b
        if x > 0:
            log_w = -x - math.log1p(math.exp(-x)) if x < 700 else -x
        else:
            log_w = -math.log1p(math.exp(x))
        if log_w - sigma * math.log(n) < log_eps:
            return n
        n += 1


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_calibrate_b(s, ctx, bracket=(0.1, 100.0)):
    """calibrate_b's search with golden-section refinement, as the library ran
    it before Brent's minimiser: the same err(b) and coarse scan, then golden
    steps from the best coarse neighbours until (c - a) <= REL_TOL x2 (28 steps
    on the default bracket).  Returns (b_hat, err_at_opt, trace)."""
    from zetalab.oracle import zeta
    from zetalab.powers import power_table
    from zetalab.precision import _raw
    from zetalab.series import COARSE_SAMPLES, REL_TOL, tail_tolerance, truncation_length, weighted_zeta

    lo, hi = bracket
    eps = tail_tolerance(ctx)
    reference = _raw(zeta(s, ctx).value, ctx)
    powers = power_table(s, truncation_length(s, hi, eps), ctx)
    trace = []

    def err(b):
        approx = _raw(weighted_zeta(s, b, truncation_length(s, b, eps), ctx, powers), ctx)
        trace.append((b, float(abs(reference - approx))))
        return trace[-1][1]

    coarse = [lo * (hi / lo) ** (j / (COARSE_SAMPLES - 1)) for j in range(COARSE_SAMPLES)]
    errors = [err(b) for b in coarse]
    best = min(range(COARSE_SAMPLES), key=lambda j: errors[j])
    a, c = coarse[best - 1], coarse[best + 1]
    x1 = c - (c - a) * _INV_PHI
    x2 = a + (c - a) * _INV_PHI
    f1, f2 = err(x1), err(x2)
    while (c - a) > REL_TOL * max(x2, 1e-300):
        if f1 < f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - (c - a) * _INV_PHI
            f1 = err(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + (c - a) * _INV_PHI
            f2 = err(x2)
    b_hat, err_opt = min(trace, key=lambda item: item[1])
    return b_hat, err_opt, trace


def table_head_sum(s, n0: int, work) -> tuple[int, int, int, int]:
    """powers.head_sum summed entry by entry over a whole power_table to N0,
    as zeta's head was before it grouped the terms by their 5-smooth part."""
    from zetalab.powers import power_table

    table = power_table(s, n0, work)
    return sum(table.re), sum(table.im), table.re[n0], table.im[n0]


def t_over_pi_cutoff(s, digits: int) -> int:
    """zeta's first cutoff before the cost model: ceil(|t|/pi)+10, at least ceil(1.3 P)."""
    return max(math.ceil(abs(float(s.im)) / math.pi) + 10, math.ceil(1.3 * digits))


def _mpc_correction(total, s, n_pow_ms, n0: int, mp, cutoff, max_order: int):
    """Add the Euler-Maclaurin correction terms to total, each on mp's mpc."""
    from zetalab.oracle import bernoulli_even

    inv_n = 1 / mp.mpf(n0)
    rising = s
    npow = n_pow_ms * inv_n  # N^(-s-1)
    inv_n2 = inv_n * inv_n
    fact = 2
    prev_mag = None
    order = 0
    certified = False
    for k in range(1, max_order + 1):
        b = bernoulli_even(k)
        coef = mp.mpf(b.numerator) / mp.mpf(b.denominator * fact)
        term = coef * rising * npow
        mag = abs(term)
        # Backlund's bound on the remainder, which holds for sigma + 2k - 1 > 0
        if s.real + 2 * k - 1 > 0 and mag * abs(s + 2 * k - 1) / (s.real + 2 * k - 1) <= cutoff:
            certified = True
            break
        if prev_mag is not None and mag >= prev_mag:
            break
        total += term
        order = k
        prev_mag = mag
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        npow *= inv_n2
        fact *= (2 * k + 1) * (2 * k + 2)
    return total, order, certified


def mpc_euler_maclaurin(s, n0: int, work, head, digits: int, max_order: int):
    """The Euler-Maclaurin pass of zetalab.oracle with its fixed-point head and
    its correction series run term by term on mpc, as the library did before
    the series moved to fixed-point ints.
    """
    from zetalab.powers import frac_bits, from_fixed

    mp = work._mp
    bits = frac_bits(work)
    head_re, head_im, l_re, l_im = head
    sw = mp.mpc(s.re, s.im)
    head_sum, last = from_fixed(head_re, head_im, bits, work), from_fixed(l_re, l_im, bits, work)
    n_pow_ms = mp.mpc(last.re, last.im)
    n0r = mp.mpf(n0)
    total = mp.mpc(head_sum.re, head_sum.im) + n_pow_ms * n0r / (sw - 1) - n_pow_ms / 2
    cutoff = mp.mpf(10) ** (-(digits + 5))
    return _mpc_correction(total, sw, n_pow_ms, n0, mp, cutoff, max_order)


def exp_ln_euler_maclaurin(s, n0: int, work, head, digits: int, max_order: int):
    """mpc_euler_maclaurin with its head summed one exp(-s ln n) at a time
    (the given head is not read) and each B_2k/(2k)! divided out per term.
    """
    mp = work._mp
    sw = mp.mpc(s.re, s.im)
    total = mp.mpf(0)
    for n in range(1, n0 + 1):
        total += mp.exp(-sw * mp.ln(mp.mpf(n)))
    n0r = mp.mpf(n0)
    n_pow_ms = mp.exp(-sw * mp.ln(n0r))
    total = total + n_pow_ms * n0r / (sw - 1) - n_pow_ms / 2
    cutoff = mp.mpf(10) ** (-(digits + 5))
    return _mpc_correction(total, sw, n_pow_ms, n0, mp, cutoff, max_order)


def mpc_eliminate(raw_matrix, raw_rhs, mp, pivot_floor, once_rounded=True):
    """Gaussian elimination with partial pivoting by modulus on mp's mpc.

    With once_rounded, each row-step product factor * u (matrix and
    right-hand side) is formed from exact fmul/fsub/fadd and each part
    rounded once, as solver._row_step rounds it; otherwise it is mpc's own
    product, whose mpf_add only nudges the larger of two exact products
    more than prec + 4 bits apart.  Every other step is plain mpc."""

    def product(f, u):
        if not once_rounded:
            return f * u
        fr, fi, ur, ui = f.real, f.imag, u.real, u.imag
        re = mp.fsub(mp.fmul(fr, ur, exact=True), mp.fmul(fi, ui, exact=True), exact=True)
        im = mp.fadd(mp.fmul(fr, ui, exact=True), mp.fmul(fi, ur, exact=True), exact=True)
        return mp.mpc(re, im)

    n = len(raw_matrix)
    m = [row[:] for row in raw_matrix]
    b = raw_rhs[:]
    for k in range(n):
        piv = k
        best = abs(m[k][k])
        for r in range(k + 1, n):
            cand = abs(m[r][k])
            if cand > best:
                piv, best = r, cand
        if best < pivot_floor:
            raise NumericalError(
                f"pivot modulus {float(best):.3e} below {float(pivot_floor):.3e} at column {k}"
            )
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            b[k], b[piv] = b[piv], b[k]
        inv = 1 / m[k][k]
        row_k = m[k]
        for r in range(k + 1, n):
            factor = m[r][k] * inv
            if factor == 0:
                continue
            row_r = m[r]
            for c in range(k + 1, n):
                row_r[c] -= product(factor, row_k[c])
            row_r[k] = mp.mpc(0)
            b[r] -= product(factor, b[k])
    x = [mp.mpc(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        row_r = m[r]
        for c in range(r + 1, n):
            acc -= row_r[c] * x[c]
        x[r] = acc / m[r][r]
    return x


def sweep(man, exp, f, u, g, v, e0, cols, prec):
    """man[c] 2^exp[c] -= (f u[c] + g v[c]) 2^e0 for c in cols, rounded to
    prec bits half to even twice: the product as mpc_mul rounds it, then the
    difference as mpc_sub does.  One component of solver._row_step, from its
    two products; the row step's real part is sweep(am, ax, fr, ur, -fi, ui,
    ...) and its imaginary part sweep(bm, bx, fr, ui, fi, ur, ...)."""
    for c in cols:
        x = f * u[c] + g * v[c]
        s = x.bit_length() - prec
        if s > 0:
            # floor shift of x + 2^(s-1) - 1, plus one more when the kept part is odd
            x = (x + (1 << s - 1) - 1 + (x >> s & 1)) >> s
            xe = e0 + s
        else:
            xe = e0
        e = exp[c]
        d = e - xe
        if d >= 0:
            x = (man[c] << d) - x
        else:
            x = man[c] - (x << -d)
            xe = e
        s = x.bit_length() - prec
        if s > 0:
            man[c] = (x + (1 << s - 1) - 1 + (x >> s & 1)) >> s
            exp[c] = xe + s
        else:
            man[c] = x
            exp[c] = xe


def fdot_residual_inf(matrix, rhs, solution, check_ctx):
    """max_m |sum_n a_mn d_n - b_m| with one mpmath fdot per row at check_ctx."""
    from zetalab.precision import _raw

    mp = check_ctx._mp
    sol = [_raw(z, check_ctx) for z in solution] + [mp.mpc(-1)]
    rows = ([_raw(e, check_ctx) for e in (*row, b)] for row, b in zip(matrix, rhs))
    return max(abs(mp.fdot(row, sol)) for row in rows)


def per_row_assemble(grid, n_coeffs: int, ctx):
    """assemble_system's matrix and rhs built row by row: one power table per
    row at the context's precision, and a zeta that builds its own head.
    """
    from zetalab.oracle import zeta
    from zetalab.powers import frac_bits, from_fixed, power_table
    from zetalab.solver import _round_to_digits

    bits = frac_bits(ctx)
    matrix = []
    for s in grid:
        table = power_table(s, n_coeffs, ctx)
        entries = (from_fixed(table.re[n], table.im[n], bits, ctx) for n in range(1, n_coeffs + 1))
        matrix.append([_round_to_digits(z, ctx) for z in entries])
    return matrix, [_round_to_digits(zeta(s, ctx).value, ctx) for s in grid]
