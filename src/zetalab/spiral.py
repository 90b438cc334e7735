"""Partial-sum trajectories of the functional-equation combination.

The raw series sum_n {n^(-s) - chi(s) n^(s-1)} spirals outward in the complex
plane; applying the generalized sigmoid weights turns it into a spiral that
winds back down to the origin.  The modulus of the weighted trace's final
point is the functional-equation residual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .oracle import chi
from .powers import N_TERMS_MAX, center, frac_bits, power_pair, weights
from .precision import ComplexAP, PrecisionContext, _raw, from_fixed_pairs, require_count, require_real
from .precision import to_fixed
from .series import _require_off_axis

DISPLAY_DIGITS = 20


@dataclass(frozen=True)
class SpiralTrace:
    """Ordered partial sums; points[k] - points[k-1] is exactly the k-th term."""

    points: tuple[ComplexAP, ...]


def _partial_sums(s: ComplexAP, n_terms: int, ctx: PrecisionContext, factors, bits: int):
    """Running sums of factor * (n^(-s) - chi(s) n^(s-1)), each rounded once from bits-scaled ints.

    A term is a fixed-point int pair scaled by 2^(2F).  n^(s-1) = n^(-(1-s))
    comes from the table of 1 - s, built in one sweep with that of s before
    chi(s) is taken, so the tables' checks on s come first.
    """
    _require_off_axis(s)
    require_count("n_terms", n_terms, 1)
    frac = frac_bits(ctx)
    direct, mirror = power_pair(s, n_terms, ctx)
    chi_s = _raw(chi(s, ctx), ctx)
    chi_re, chi_im = to_fixed(chi_s.real._mpf_, frac), to_fixed(chi_s.imag._mpf_, frac)

    def sums():  # a generator, so no sum outlives its point
        acc_re = acc_im = 0
        terms = zip(direct.re[1:], direct.im[1:], mirror.re[1:], mirror.im[1:], factors)
        for d_re, d_im, m_re, m_im, w in terms:
            acc_re += w * ((d_re << frac) - (chi_re * m_re - chi_im * m_im))
            acc_im += w * ((d_im << frac) - (chi_re * m_im + chi_im * m_re))
            yield acc_re, acc_im

    return tuple(from_fixed_pairs(sums(), bits, ctx))


def raw_partial_sums(s: ComplexAP, n_terms: int, ctx: PrecisionContext) -> SpiralTrace:
    """Partial sums of the unweighted (divergent) combination."""
    points = _partial_sums(s, n_terms, ctx, itertools.repeat(1), 2 * frac_bits(ctx))
    return SpiralTrace(points)


def weighted_partial_sums(s: ComplexAP, b: float, n_terms: int, ctx: PrecisionContext) -> SpiralTrace:
    """Partial sums with each term damped by the generalized coefficient."""
    _require_off_axis(s)  # before the weights, whose head length reads |Im s| as a float
    require_real("scale", b, above=0)
    require_count("n_terms", n_terms, 1, N_TERMS_MAX)  # before the weights list n_terms entries
    head, w = weights(center(s, ctx), b, ctx, n_terms)
    factors = itertools.chain(itertools.repeat(1 << frac_bits(ctx), head), w)
    points = _partial_sums(s, n_terms, ctx, factors, 3 * frac_bits(ctx))
    return SpiralTrace(points)


def functional_residual(s: ComplexAP, b: float, n_terms: int, ctx: PrecisionContext) -> float:
    """|sum w_n n^(-s) - chi(s) sum w_n n^(s-1)| = |final weighted point|."""
    trace = weighted_partial_sums(s, b, n_terms, ctx)
    last = trace.points[-1]
    return float(abs(ctx._mp.mpc(last.re, last.im)))
