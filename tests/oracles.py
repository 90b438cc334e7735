"""Independent test-side oracles.

The alternating-series zeta lives here (not in the library) so the library's
Euler-Maclaurin path is cross-checked against a genuinely different method:
Cohen-Rodriguez Villegas-Zagier acceleration of the eta series, with the depth
doubled until two successive depths agree to the target.

The exp/ln weighted sum, spiral sums, Euler-Maclaurin pass, linear
truncation scan and mpc elimination are the direct paths the library's
fixed-point power tables, cached coefficients, galloping search and integer
elimination sweep replaced; they stay here as the reference those fast paths
are checked against.
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


def exp_ln_euler_maclaurin(s, n0: int, work, cutoff, max_order: int):
    """The Euler-Maclaurin pass of zetalab.oracle with its head summed one
    exp(-s ln n) at a time and each coefficient B_2k/(2k)! divided out per term.
    """
    from zetalab.oracle import bernoulli_even

    mp = work._mp
    head = mp.mpf(0)
    for n in range(1, n0 + 1):
        head += mp.exp(-s * mp.ln(mp.mpf(n)))
    n0r = mp.mpf(n0)
    inv_n = 1 / n0r
    n_pow_ms = mp.exp(-s * mp.ln(n0r))
    total = head + n_pow_ms * n0r / (s - 1) - n_pow_ms / 2
    rising = s
    npow = n_pow_ms * inv_n
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
        if mag <= cutoff:
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


def mpc_eliminate(raw_matrix, raw_rhs, mp, pivot_floor):
    """Gaussian elimination with partial pivoting by modulus, every step on mp's mpc."""
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
                row_r[c] -= factor * row_k[c]
            row_r[k] = mp.mpc(0)
            b[r] -= factor * b[k]
    x = [mp.mpc(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        row_r = m[r]
        for c in range(r + 1, n):
            acc -= row_r[c] * x[c]
        x[r] = acc / m[r][r]
    return x
