"""Partial-sum trajectories of the functional-equation combination.

The raw series sum_n {n^(-s) - chi(s) n^(s-1)} spirals outward in the complex
plane; applying the generalized sigmoid weights turns it into a spiral that
winds back down to the origin.  The modulus of the weighted trace's final
point is the functional-equation residual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ValidationError
from .oracle import chi
from .powers import center, frac_bits, from_fixed, power_table, to_fixed, weights
from .precision import ComplexAP, PrecisionContext, _raw, _wrap
from .series import _require_off_axis, _require_scale

DISPLAY_DIGITS = 20


@dataclass(frozen=True)
class SpiralTrace:
    """Ordered partial sums; points[k] - points[k-1] is exactly the k-th term."""

    points: tuple[ComplexAP, ...]


def _terms(s: ComplexAP, n_terms: int, ctx: PrecisionContext):
    """Yield n^(-s) - chi(s) n^(s-1) for n = 1..N as fixed-point int pairs scaled by 2^(2F).

    n^(s-1) = n^(-(1-s)) comes from a power table for 1 - s.
    """
    _require_off_axis(s)
    bits = frac_bits(ctx)
    chi_s = _raw(chi(s, ctx), ctx)
    chi_re, chi_im = to_fixed(chi_s.real._mpf_, bits), to_fixed(chi_s.imag._mpf_, bits)
    direct = power_table(s, n_terms, ctx)
    mirror = power_table(_wrap(1 - _raw(s, ctx)), n_terms, ctx)
    for n in range(1, n_terms + 1):
        m_re, m_im = mirror.re[n], mirror.im[n]
        yield (
            (direct.re[n] << bits) - (chi_re * m_re - chi_im * m_im),
            (direct.im[n] << bits) - (chi_re * m_im + chi_im * m_re),
        )


def _partial_sums(s: ComplexAP, n_terms: int, ctx: PrecisionContext, factors, bits: int):
    """Running sums of factor * term, each rounded once from bits-scaled ints."""
    if n_terms < 1:
        raise ValidationError(f"n_terms must be >= 1, got {n_terms}")
    acc_re = acc_im = 0
    points = []
    for (term_re, term_im), w in zip(_terms(s, n_terms, ctx), factors):
        acc_re += w * term_re
        acc_im += w * term_im
        points.append(from_fixed(acc_re, acc_im, bits, ctx))
    return tuple(points)


def raw_partial_sums(s: ComplexAP, n_terms: int, ctx: PrecisionContext) -> SpiralTrace:
    """Partial sums of the unweighted (divergent) combination."""
    points = _partial_sums(s, n_terms, ctx, itertools.repeat(1), 2 * frac_bits(ctx))
    return SpiralTrace(points)


def weighted_partial_sums(s: ComplexAP, b: float, n_terms: int, ctx: PrecisionContext) -> SpiralTrace:
    """Partial sums with each term damped by the generalized coefficient."""
    _require_scale(b)
    head, w = weights(center(s, ctx), b, ctx, n_terms)
    factors = itertools.chain(itertools.repeat(1 << frac_bits(ctx), head), w)
    points = _partial_sums(s, n_terms, ctx, factors, 3 * frac_bits(ctx))
    return SpiralTrace(points)


def functional_residual(s: ComplexAP, b: float, n_terms: int, ctx: PrecisionContext) -> float:
    """|sum w_n n^(-s) - chi(s) sum w_n n^(s-1)| = |final weighted point|."""
    trace = weighted_partial_sums(s, b, n_terms, ctx)
    last = trace.points[-1]
    return float(abs(ctx._mp.mpc(last.re, last.im)))
