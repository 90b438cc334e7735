"""Acceptance gate: every criterion at its stated tolerance.

Each check prints one `ACCEPTANCE <id>: PASS|FAIL` line (run with -s or -rA
to see them all).  Heavy artifacts (the 100x100 solves, the calibrations)
come from session fixtures shared with the rest of the suite.
"""

import math
import random

import mpmath
import pytest

from zetalab import (
    PrecisionContext,
    chi,
    construct_fit,
    fit_power_law,
    functional_residual,
    half_crossing,
    make_complex,
    raw_partial_sums,
    sigmoid_eval,
    stability_metric,
    truncation_length,
    weighted_partial_sums,
    zeta,
)
from zetalab.experiments import ExperimentConfig, run_preset
from zetalab.precision import ComplexAP, _raw
from zetalab.sigmoid import SigmoidFit
from zetalab.solver import CoefficientSet

pytestmark = pytest.mark.acceptance


def _ref(dps=130):
    ref = mpmath.mp.clone()
    ref.dps = dps
    return ref


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


class TestCriterion1OracleExactness:
    def test_basel_at_hundred_digits(self):
        ctx = PrecisionContext(100)
        value = zeta(make_complex(2, 0, ctx), ctx).value
        ref = _ref()
        err = abs(ref.mpc(value.re, value.im) - ref.pi**2 / 6)
        ok = err < ref.mpf(10) ** (-100)
        assert report("1a", ok, f"zeta(2) vs pi^2/6 err = {ref.nstr(err, 3)} (tol 1e-100)")

    def test_functional_equation_twenty_random_points(self):
        ctx = PrecisionContext(100)
        ref = _ref()
        one = ctx.real(1)
        rng = random.Random(20260808)
        threshold = ref.mpf(10) ** (-96)
        worst = ref.mpf(0)
        for _ in range(20):
            sig = rng.uniform(0.1, 0.9)
            t = rng.uniform(10.0, 200.0)
            s = make_complex(repr(sig), repr(t), ctx)
            lhs = ref.mpc(*_pair(zeta(s, ctx).value))
            mirror = ComplexAP(one - s.re, -s.im)
            rhs = ref.mpc(*_pair(chi(s, ctx))) * ref.mpc(*_pair(zeta(mirror, ctx).value))
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
        ok = worst < threshold
        assert report("1b", ok, f"worst |zeta - chi*zeta(1-s)|/|zeta| = {ref.nstr(worst, 3)} (tol 1e-96)")


def _pair(z):
    return (z.re, z.im)


class TestCriterion2StableRegime:
    def test_residual_and_profile_shape(self, fig2_solution):
        cs = fig2_solution
        residual = mpmath.mpf(cs.residual_inf)
        ok_resid = residual < mpmath.mpf(10) ** (-50)
        head = [float(z.re) for z in cs.deltas[:10]]
        tail = [float(z.re) for z in cs.deltas[-10:]]
        ok_head = all(abs(v - 1) < 1e-3 for v in head)
        ok_tail = all(abs(v) < 1e-3 for v in tail)
        crossing = half_crossing(cs)
        ok_cross = crossing.crossings == 1
        ok = ok_resid and ok_head and ok_tail and ok_cross
        assert report(
            "2-shape",
            ok,
            f"residual_inf = {mpmath.nstr(residual, 3)} (tol 1e-50), head~1 {ok_head}, "
            f"tail~0 {ok_tail}, crossings = {crossing.crossings} at n* = {crossing.value:.4f}",
        )

    def test_stability_metric_below_stated_threshold(self, fig2_solution):
        # Stated tolerance 1e-6.  The metric converges to 5.277128e-2 at these
        # exact parameters (verified against an independent solver and across
        # digit budgets 100..142), so this check documents a real gap between
        # the stated threshold and the computable value.
        metric = float(stability_metric(fig2_solution))
        ok = metric < 1e-6
        assert report("2-stability", ok, f"|sum Im d_n| = {metric:.6e} (stated tol 1e-6)")


class TestCriterion3PrecisionSensitivity:
    def test_metric_ladder(self, fig2_solution, fig2_p90, fig2_p50):
        m100 = float(stability_metric(fig2_solution))
        m90 = float(stability_metric(fig2_p90))
        m50 = float(stability_metric(fig2_p50))
        ok = (m100 < m90 < m50) and m50 > 1e-2
        assert report(
            "3", ok, f"metric(P=100) = {m100:.3e} < metric(P=90) = {m90:.3e} < metric(P=50) = {m50:.3e}"
        )


class TestCriterion4SigmoidRecovery:
    def test_synthetic_recovery(self):
        ctx = PrecisionContext(30)
        source = SigmoidFit(a_param=70.0, b_param=2.5)
        deltas = tuple(
            make_complex(repr(sigmoid_eval(n, source)), 0, ctx) for n in range(1, 101)
        )
        cs = CoefficientSet(deltas=deltas, residual_inf=ctx.real(0), im_stability=ctx.real(0))
        fit = construct_fit(cs)
        ok = abs(fit.a_param - 70.0) <= 0.01 and abs(fit.b_param - 2.5) <= 0.05
        assert report(
            "4a", ok, f"recovered A = {fit.a_param:.4f} (tol 0.01), B = {fit.b_param:.4f} (tol 0.05)"
        )

    def test_residual_separation_vs_left_grid(self, fig2_solution, left_solution):
        stable = construct_fit(fig2_solution)
        left = construct_fit(left_solution)
        ok = left.residual >= 10 * stable.residual
        assert report(
            "4b",
            ok,
            f"fit residual stable = {stable.residual:.3e}, left-offset = {left.residual:.3e} "
            f"({left.residual / stable.residual:.0f}x, need >=10x)",
        )


class TestCriterion5Calibration:
    def test_reference_scale(self, cal1000):
        rel = abs(cal1000.b_hat - 4.05968) / 4.05968
        ok = rel < 0.01
        assert report(
            "5a", ok, f"b_hat(0.5+1000i) = {cal1000.b_hat:.5f} vs 4.05968 ({rel * 100:.3f}%, tol 1%)"
        )

    def test_trace_unimodal(self, cal1000):
        errs = [err for _, err in cal1000.trace[:64]]
        k = min(range(len(errs)), key=lambda j: errs[j])
        ok = all(errs[i] > errs[i + 1] for i in range(k)) and all(
            errs[i] < errs[i + 1] for i in range(k, len(errs) - 1)
        )
        assert report("5b", ok, f"coarse trace descends to sample {k} then ascends (unimodal)")


def _accuracy(preset: str, out_dir) -> list[dict]:
    """The accuracy.csv rows (t, b_hat, digits_gained) of a preset at its defaults."""
    run_preset(ExperimentConfig(preset, {}), out_dir)
    header, *rows = (out_dir / "accuracy.csv").read_text().splitlines()
    return [dict(zip(header.split(","), map(float, row.split(",")))) for row in rows]


@pytest.fixture(scope="module")
def profile(tmp_path_factory):
    # sigma = 0.5, t in {100, 300, 1000, 3000}, 30 digits, default bracket
    return _accuracy("fig-eps-vs-t", tmp_path_factory.mktemp("eps-vs-t"))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    # sigma = 0.5, t in {100, 200, 500, 1000, 2000, 5000}, 30 digits, default bracket
    return _accuracy("fig-b-power-law", tmp_path_factory.mktemp("b-power-law"))


class TestCriterion6AsymptoticAccuracy:
    def test_digits_strictly_increase(self, profile):
        digits = [p["digits_gained"] for p in profile]
        ok = all(a < b for a, b in zip(digits, digits[1:])) and digits[0] >= 2
        assert report(
            "6", ok, "digits gained over t in {100,300,1000,3000}: "
            + ", ".join(f"{d:.2f}" for d in digits)
        )


class TestCriterion7PowerLaw:
    def test_goodness_of_fit(self, sweep):
        samples = [(p["t"], p["b_hat"]) for p in sweep]
        fit = fit_power_law(samples)
        ok = fit.r_squared >= 0.99
        assert report(
            "7", ok,
            f"b_hat(t) = {fit.c_coef:.4f} * t^{fit.d_exp:.4f}, r^2 = {fit.r_squared:.6f} (need >= 0.99)",
        )


class TestCriterion8SpiralConvergence:
    def test_weighted_spiral_converges(self, ctx30, cal200):
        s = make_complex("0.5", "200", ctx30)
        b = cal200.b_hat
        n_terms = 2 * truncation_length(s, b, 1e-30)
        resid = functional_residual(s, b, n_terms, ctx30)
        raw = raw_partial_sums(s, n_terms, ctx30)
        wtd = weighted_partial_sums(s, b, n_terms, ctx30)
        ref = _ref()
        k_cut = math.ceil(200 / math.pi)
        max_raw = max(abs(ref.mpc(p.re, p.im)) for p in raw.points[k_cut:])
        max_wtd = max(abs(ref.mpc(p.re, p.im)) for p in wtd.points[k_cut:])
        ok = resid < 1e-2 and max_wtd < max_raw
        assert report(
            "8", ok,
            f"functional residual = {resid:.3e} (tol 1e-2); max modulus beyond {k_cut}: "
            f"weighted {float(max_wtd):.4f} < raw {float(max_raw):.4f}",
        )


class TestCriterion9PropertySuites:
    def test_precision_round_trip(self):
        ctx = PrecisionContext(40)
        rng = random.Random(7)
        worst = 0.0
        ref = _ref(60)
        for _ in range(25):
            mag = rng.uniform(-3, 3)
            ang = rng.uniform(-3.1, 3.1)
            raw = ctx._mp.mpf(10) ** mag * ctx._mp.exp(ctx._mp.mpc(0, ang))
            z = ComplexAP(raw.real, raw.imag)
            back = ctx._mp.exp(ctx._mp.ln(_raw(z, ctx)))
            err = abs(ref.mpc(back.real - z.re, back.imag - z.im)) / abs(ref.mpc(z.re, z.im))
            worst = max(worst, float(err))
        ok = worst < 10.0 ** (-38)
        assert report("9a", ok, f"exp(ln z) round trip worst rel err = {worst:.3e}")

    def test_conjugate_solve_symmetry(self):
        from zetalab import assemble_system, solve_coefficients

        ctx = PrecisionContext(40)
        grid = [make_complex("0.5", t, ctx) for t in ("20.1", "20.7", "21.3", "21.9")]
        m1, b1 = assemble_system(grid, 4, ctx)
        m2, b2 = assemble_system([s.conjugate() for s in grid], 4, ctx)
        cs1 = solve_coefficients(m1, b1, ctx)
        cs2 = solve_coefficients(m2, b2, ctx)
        ok = all(a.re == b.re and a.im == -b.im for a, b in zip(cs1.deltas, cs2.deltas))
        assert report("9b", ok, "conjugated grid solves to the conjugate coefficients exactly")

    def test_sigmoid_symmetry_and_weight_range(self):
        fit = SigmoidFit(a_param=40.0, b_param=3.0)
        sym_ok = all(
            abs(sigmoid_eval(40 + x, fit) + sigmoid_eval(40 - x, fit) - 1) < 1e-12
            for x in (0.0, 0.5, 3.7, 25.0, 300.0)
        )
        from zetalab import generalized_delta

        ctx = PrecisionContext(30)
        s = make_complex("0.5", "777", ctx)
        rng = random.Random(11)
        rng_ok = True
        for _ in range(50):
            n = rng.randrange(1, 5000)
            b = rng.uniform(0.05, 50)
            w = generalized_delta(n, s, b, ctx)
            rng_ok = rng_ok and 0 < w <= 1
            if (n - 777 / math.pi) / b > -80:
                rng_ok = rng_ok and w < 1
        ok = sym_ok and rng_ok
        assert report("9c", ok, "sigmoid symmetry and weight range (0,1) hold")

    def test_truncation_insensitivity(self, ctx30, cal1000):
        from zetalab import weighted_zeta

        s = make_complex("0.5", "1000", ctx30)
        n = truncation_length(s, cal1000.b_hat, 1e-30)
        ref = _ref()
        v1 = weighted_zeta(s, cal1000.b_hat, n, ctx30)
        v2 = weighted_zeta(s, cal1000.b_hat, 2 * n, ctx30)
        delta = abs(ref.mpc(v1.re - v2.re, v1.im - v2.im))
        ok = delta < 10 * ref.mpf(10) ** (-30)
        assert report("9d", ok, f"doubling terms moves the sum by {ref.nstr(delta, 3)} (< 10*tail_eps)")

    def test_preset_rerun_byte_identical(self, tmp_path):
        config = ExperimentConfig(
            preset="fig-eps-vs-b", overrides={"t": "100", "digits": "20"}
        )
        m1 = run_preset(config, tmp_path / "a")
        m2 = run_preset(config, tmp_path / "b")
        ok = m1.outputs == m2.outputs and all(
            (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            for name in m1.outputs
        )
        assert report("9e", ok, "preset rerun reproduces byte-identical outputs")
