import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import (
    PrecisionContext,
    assemble_system,
    build_grid,
    half_crossing,
    make_complex,
    solve_coefficients,
    stability_metric,
)
from zetalab import solver
from zetalab.errors import NumericalError, ValidationError
from zetalab.precision import _format_real, _raw, power_term
from zetalab.solver import (
    CoefficientSet,
    GridSpec,
    _eliminate,
    _round_real,
    _round_to_digits,
)

from .oracles import mpc_eliminate


def _ref(dps=130):
    ref = mpmath.mp.clone()
    ref.dps = dps
    return ref


def _cs_from_reals(values, ctx):
    deltas = tuple(make_complex(v, 0, ctx) for v in values)
    return CoefficientSet(deltas=deltas, residual_inf=ctx.real(0), im_stability=ctx.real(0))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(sigma="0.5", t1="0", dt="0.1", n_rows=10, digits=30)
        with pytest.raises(ValidationError):
            GridSpec(sigma="0.5", t1="10", dt="0", n_rows=10, digits=30)
        with pytest.raises(ValidationError):
            GridSpec(sigma="0.5", t1="10", dt="0.1", n_rows=1, digits=30)
        with pytest.raises(ValidationError):
            GridSpec(sigma="0.5", t1="10", dt="0.1", n_rows=10, digits=14)

    def test_ordinate_bound_flagged_not_fatal(self):
        # max t / pi beyond N constructs fine but carries the flag
        spec = GridSpec(sigma="0.5", t1="100", dt="10", n_rows=10, digits=30)
        assert not spec.ordinate_bound_ok
        ok = GridSpec(sigma="0.5", t1="188.4955592", dt="0.628318531", n_rows=100, digits=30)
        assert ok.ordinate_bound_ok

    def test_max_ordinate_reads_mpmath_text(self):
        spec = GridSpec(sigma="1/2", t1="1/3", dt="1/7", n_rows=4, digits=20)
        assert spec.max_ordinate == pytest.approx(1 / 3 + 3 / 7, rel=1e-15)
        assert spec.ordinate_bound_ok

    def test_float_parameters_normalized(self):
        spec = GridSpec(sigma=0.5, t1=10.25, dt=0.125, n_rows=4, digits=30)
        assert spec.sigma == "0.5" and spec.t1 == "10.25" and spec.dt == "0.125"


class TestBuildGrid:
    def test_reference_grid_endpoints(self):
        spec = GridSpec(sigma="0.5", t1="188.4955592", dt="0.628318531", n_rows=100, digits=100)
        grid = build_grid(spec)
        ctx = spec.context()
        assert grid[0].re == ctx.real("0.5")
        assert grid[0].im == ctx.real("188.4955592")
        # t1 + 99*dt in exact decimal arithmetic
        assert grid[99].im == ctx.real("250.699093769")

    def test_left_grid_last_ordinate(self):
        spec = GridSpec(sigma="0.5", t1="157.0796327", dt="0.785398163", n_rows=100, digits=60)
        grid = build_grid(spec)
        assert grid[99].im == spec.context().real("234.834050837")

    def test_first_point_is_sigma_plus_i_t1(self):
        spec = GridSpec(sigma="0.25", t1="31.5", dt="0.5", n_rows=2, digits=30)
        grid = build_grid(spec)
        ctx = spec.context()
        assert grid[0].re == ctx.real("0.25") and grid[0].im == ctx.real("31.5")
        assert len(grid) == 2


class TestAssemble:
    def test_two_by_two_structure(self):
        ctx = PrecisionContext(50)
        grid = [make_complex("0.5", "10", ctx), make_complex("0.5", "11", ctx)]
        matrix, rhs = assemble_system(grid, 2, ctx)
        # first column is 1 for every row
        assert matrix[0][0].re == 1 and matrix[0][0].im == 0
        assert matrix[1][0].re == 1 and matrix[1][0].im == 0
        ref = _ref()
        for m, s in enumerate(("10", "11")):
            want = ref.power(2, -ref.mpc("0.5", s))
            got = ref.mpc(matrix[m][1].re, matrix[m][1].im)
            assert abs(got - want) < ref.mpf(10) ** (-48)
            want_z = ref.zeta(ref.mpc("0.5", s))
            got_z = ref.mpc(rhs[m].re, rhs[m].im)
            assert abs(got_z - want_z) < ref.mpf(10) ** (-48)

    def test_entries_quantized_to_budget(self):
        # entries are rounded to exactly P significant digits
        ctx = PrecisionContext(20)
        grid = [make_complex("0.5", "10", ctx), make_complex("0.5", "11", ctx)]
        matrix, _ = assemble_system(grid, 2, ctx)
        entry = matrix[0][1]
        ref = _ref()
        exact = ref.power(2, -ref.mpc("0.5", "10"))
        err = abs(ref.mpc(entry.re, entry.im) - exact)
        assert err < ref.mpf(10) ** (-19)
        assert err > ref.mpf(10) ** (-25)  # quantization is really there

    def test_rows_match_exp_ln_powers(self):
        # table-built rows equal exp(-s ln n) per entry once both are rounded to P digits
        for digits, sigma, t1 in ((50, "0.5", "188.4955592"), (100, "0.3", "1000.25")):
            ctx = PrecisionContext(digits)
            dt = ctx.real("0.628318531")
            grid = [make_complex(sigma, ctx.real(t1) + m * dt, ctx) for m in range(3)]
            matrix, _ = assemble_system(grid, 60, ctx)
            for s, row in zip(grid, matrix):
                assert row == [_round_to_digits(power_term(n, s, ctx), ctx) for n in range(1, 61)]

    def test_near_zero_row(self):
        # grid through the first zeta zero ordinate
        ctx = PrecisionContext(40)
        grid = [
            make_complex("0.5", "14.134725141734", ctx),
            make_complex("0.5", "15.0", ctx),
        ]
        with pytest.raises(NumericalError, match=r"^\|zeta\(s_1\)\| = .* below the row threshold"):
            assemble_system(grid, 2, ctx)


def _near(text, ulps, ctx):
    """The mpf `ulps` units in the last place of ctx away from the decimal `text`."""
    sign, man, exp, bc = ctx.real(text)._mpf_
    shift = ctx.prec_bits - bc
    man = (man << shift) + ulps
    return ctx._mp.mpf((-man if sign else man, exp - shift))


@settings(max_examples=300, deadline=None)
@given(
    digits=st.integers(15, 120),
    data=st.data(),
    scale=st.integers(-450, 450),
    ulps=st.integers(-3, 3),
    tail=st.sampled_from(["5", "4", "49999999", "50000001", "5" + "0" * 40, "0", "9"]),
    negative=st.booleans(),
)
def test_integer_rounding_matches_text_round_trip(digits, data, scale, ulps, tail, negative):
    # P-digit leads, carries (all nines) and values next to the half-up boundary
    lead = data.draw(
        st.one_of(
            st.just(10**digits - 1),
            st.just(10 ** (digits - 1)),
            st.integers(10 ** (digits - 1), 10**digits - 1),
        )
    )
    ctx = PrecisionContext(digits)
    x = _near(f"{'-' if negative else ''}{lead}{tail}e{scale}", ulps, ctx)
    assert _round_real(x, digits, ctx)._mpf_ == ctx.real(_format_real(x, digits))._mpf_


@settings(max_examples=200, deadline=None)
@given(
    digits=st.integers(15, 120),
    man=st.integers(1, 2**500),
    exp=st.integers(-4000, 4000),
    negative=st.booleans(),
)
def test_integer_rounding_matches_text_round_trip_anywhere(digits, man, exp, negative):
    ctx = PrecisionContext(digits)
    x = ctx._mp.mpf((-man if negative else man, exp))
    assert _round_real(x, digits, ctx)._mpf_ == ctx.real(_format_real(x, digits))._mpf_


def _random_real(rng, mp, scale_bits=0):
    man = rng.getrandbits(mp.prec) * rng.choice((1, -1))
    return mp.mpf((man, -mp.prec - scale_bits))


def _random_system(n, mp, seed, scale=lambda rng, r, c: 0):
    """A seeded n x n system; scale(rng, r, c) gives an extra binary scale per component."""
    rng = random.Random(seed)
    matrix = [
        [
            mp.mpc(_random_real(rng, mp, scale(rng, r, c)), _random_real(rng, mp, scale(rng, r, c)))
            for c in range(n)
        ]
        for r in range(n)
    ]
    return matrix, [mp.mpc(_random_real(rng, mp), _random_real(rng, mp)) for _ in range(n)]


def _assert_kernel_matches_oracle(matrix, rhs, mp):
    floor = mp.mpf(2) ** (-mp.prec // 2)
    before = [row[:] for row in matrix]
    got = _eliminate(matrix, rhs, mp, floor)
    want = mpc_eliminate(matrix, rhs, mp, floor)
    assert [z._mpc_ for z in got] == [z._mpc_ for z in want]
    assert matrix == before


class TestEliminationKernel:
    """The integer sweep of _eliminate against the mpc elimination, bit for bit."""

    @pytest.mark.parametrize("digits", [15, 50, 100, 200])
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_random_systems(self, n, digits):
        mp = PrecisionContext(digits)._mp
        for seed in range(3 if n < 30 else 1):
            _assert_kernel_matches_oracle(*_random_system(n, mp, seed), mp)

    def test_zeros_in_pivot_columns(self):
        # exact zeros below a pivot skip the row (factor == 0), zero entries elsewhere
        mp = PrecisionContext(50)._mp
        for seed in range(4):
            matrix, rhs = _random_system(9, mp, seed)
            rng = random.Random(seed)
            for r in range(9):
                for c in rng.sample(range(9), 3):
                    if r != c:
                        matrix[r][c] = mp.mpc(0)
            matrix[5][0] = matrix[7][0] = matrix[8][3] = mp.mpc(0)
            _assert_kernel_matches_oracle(matrix, rhs, mp)

    def test_forced_row_swaps(self):
        # later rows are larger, so partial pivoting swaps at nearly every column
        mp = PrecisionContext(100)._mp
        matrix, rhs = _random_system(12, mp, 11, scale=lambda rng, r, c: -12 * r)
        assert max(range(12), key=lambda r: abs(matrix[r][0])) != 0
        _assert_kernel_matches_oracle(matrix, rhs, mp)

    @pytest.mark.parametrize("digits", [15, 100, 200])
    def test_entries_spanning_600_bits(self, digits):
        # components of about 1e-200 beside components of about 1, in the same rows and entries
        mp = PrecisionContext(digits)._mp
        for seed in range(3):
            matrix, rhs = _random_system(
                10, mp, seed, scale=lambda rng, r, c: rng.choice((0, 0, 664, 600 + r))
            )
            _assert_kernel_matches_oracle(matrix, rhs, mp)

    @pytest.mark.parametrize("digits", [15, 50, 100])
    def test_products_mpf_add_only_nudges(self, digits, monkeypatch):
        # off column 0, half the components are 2^-(prec + 2..9) smaller, so
        # the two products of a component with a full factor lie on either
        # side of prec + 4 bits apart, past which mpf_add may only nudge the
        # larger (it does where their last bits are also more than 100 bits
        # apart, at P = 50 and 100); _eliminate takes those row steps on mpc
        mp = PrecisionContext(digits)._mp
        sweeps = []
        sweep = solver._sweep

        def counted_sweep(*args):
            sweeps.append(args)
            sweep(*args)

        monkeypatch.setattr(solver, "_sweep", counted_sweep)

        def scale(rng, r, c):
            return 0 if c == 0 or rng.random() < 0.5 else mp.prec + rng.randrange(2, 10)

        for seed in range(8):
            _assert_kernel_matches_oracle(*_random_system(12, mp, seed, scale), mp)
        # 8 dense 12 x 12 systems take 8 * 66 row steps, each two sweeps or one mpc step
        assert 0 < len(sweeps) < 2 * 8 * 66

    def test_product_ties(self):
        # a unit pivot leaves each factor exact, and an odd factor mantissa of
        # prec bits times 3 has prec + 1 odd bits: a tie for the product rounding
        mp = PrecisionContext(50)._mp
        prec = mp.prec
        rng = random.Random(5)

        def tie_factor():
            return mp.mpf((rng.randrange(1 << prec - 1, (1 << prec + 1) // 3) | 1, -prec))

        matrix = [[mp.mpc(1)] + [mp.mpc(3)] * 7]
        for _ in range(7):
            row = [mp.mpc(_random_real(rng, mp), _random_real(rng, mp)) for _ in range(7)]
            matrix.append([mp.mpc(tie_factor(), tie_factor()), *row])
        _assert_kernel_matches_oracle(matrix, [mp.mpc(1)] * 8, mp)

    def test_ill_conditioned_grid(self):
        spec = GridSpec(sigma="0.5", t1="62.83185307", dt="0.628318531", n_rows=30, digits=50)
        ctx = spec.context()
        matrix, rhs = assemble_system(build_grid(spec), 30, ctx)
        ref = _ref(80)
        cond = ref.cond(ref.matrix([[ref.mpc(e.re, e.im) for e in row] for row in matrix]))
        assert cond >= 1e20
        raw_m = [[_raw(e, ctx) for e in row] for row in matrix]
        _assert_kernel_matches_oracle(raw_m, [_raw(e, ctx) for e in rhs], ctx._mp)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2, 3], [2, 4, 6], [3, 5, 7]],
            [[0, 1], [0, 2]],
            [[1, 1, 1], [1, 1, 1], [1, 1, 2]],
        ],
    )
    def test_singular_same_message_same_column(self, rows):
        mp = PrecisionContext(30)._mp
        matrix = [[mp.mpc(v) for v in row] for row in rows]
        rhs = [mp.mpc(1)] * len(rows)
        floor = mp.mpf(10) ** -25
        with pytest.raises(NumericalError, match="^pivot modulus .* at column") as got:
            _eliminate(matrix, rhs, mp, floor)
        with pytest.raises(NumericalError, match="^pivot modulus .* at column") as want:
            mpc_eliminate(matrix, rhs, mp, floor)
        assert str(got.value) == str(want.value)


class TestSolve:
    def test_identity_system(self):
        ctx = PrecisionContext(30)
        one = make_complex(1, 0, ctx)
        zero = make_complex(0, 0, ctx)
        matrix = [[one, zero], [zero, one]]
        rhs = [make_complex("2.5", "1.5", ctx), make_complex("-3", "0.25", ctx)]
        cs = solve_coefficients(matrix, rhs, ctx)
        for got, want in zip(cs.deltas, rhs):
            assert got.re == want.re and got.im == want.im

    def test_two_by_two_against_cramer(self):
        ctx = PrecisionContext(50)
        grid = [make_complex("0.5", "10", ctx), make_complex("0.5", "11", ctx)]
        matrix, rhs = assemble_system(grid, 2, ctx)
        cs = solve_coefficients(matrix, rhs, ctx)
        ref = _ref()
        z1, z2 = (ref.zeta(ref.mpc("0.5", t)) for t in ("10", "11"))
        p1, p2 = (ref.power(2, -ref.mpc("0.5", t)) for t in ("10", "11"))
        d2 = (z1 - z2) / (p1 - p2)
        d1 = z1 - d2 * p1
        assert abs(ref.mpc(cs.deltas[0].re, cs.deltas[0].im) - d1) < ref.mpf(10) ** (-45)
        assert abs(ref.mpc(cs.deltas[1].re, cs.deltas[1].im) - d2) < ref.mpf(10) ** (-45)
        assert ref.mpf(cs.residual_inf) < ref.mpf(10) ** (-25)

    def test_singular_matrix(self):
        ctx = PrecisionContext(30)
        one = make_complex(1, 0, ctx)
        matrix = [[one, one], [one, one]]
        rhs = [one, one]
        with pytest.raises(NumericalError, match="^pivot modulus .* at column 1"):
            solve_coefficients(matrix, rhs, ctx)

    def test_doubled_precision_retry(self):
        # nearly singular system: the huge solution (~1e40) drags the first
        # residual above 10^(-P/2), forcing the 2P re-elimination
        ctx = PrecisionContext(50)
        one = make_complex(1, 0, ctx)
        eps_row = make_complex("1.0000000000000000000000000000000000000001", 0, ctx)
        matrix = [[one, one], [one, eps_row]]
        rhs = [one, make_complex(2, 0, ctx)]
        cs = solve_coefficients(matrix, rhs, ctx)
        # a single P-digit pass leaves a residual near 1e-20 here; anything
        # this small proves the 2P re-elimination ran
        assert mpmath.mpf(cs.residual_inf) < mpmath.mpf(10) ** (-40)
        ref = _ref()
        # solution ~ +-1/eps with eps the stored (binary-rounded) 1e-40
        eps = ref.mpf(eps_row.re) - 1
        assert abs(ref.mpc(cs.deltas[1].re, cs.deltas[1].im) - 1 / eps) < ref.mpf(10) ** 20
        assert abs(ref.mpc(cs.deltas[0].re, cs.deltas[0].im) - (1 - 1 / eps)) < ref.mpf(10) ** 20

    def test_rejects_non_square(self):
        ctx = PrecisionContext(30)
        one = make_complex(1, 0, ctx)
        with pytest.raises(ValidationError):
            solve_coefficients([[one, one]], [one], ctx)

    def test_residual_contract_and_reconstruction(self):
        spec = GridSpec(sigma="0.5", t1="62.83185307", dt="0.628318531", n_rows=8, digits=40)
        ctx = spec.context()
        grid = build_grid(spec)
        matrix, rhs = assemble_system(grid, 8, ctx)
        cs = solve_coefficients(matrix, rhs, ctx)
        assert mpmath.mpf(cs.residual_inf) < mpmath.mpf(10) ** (-20)
        # reconstruction: row 0 reproduces zeta(s_0) within the contract
        ref = _ref()
        acc = ref.mpc(0)
        for n, d in enumerate(cs.deltas, start=1):
            acc += ref.mpc(d.re, d.im) * ref.power(n, -ref.mpc(grid[0].re, grid[0].im))
        assert abs(acc - ref.mpc(rhs[0].re, rhs[0].im)) < ref.mpf(10) ** (-20)

    def test_conjugate_symmetry(self):
        # solving the conjugated grid yields the conjugate coefficients exactly
        ctx = PrecisionContext(40)
        grid = [make_complex("0.5", t, ctx) for t in ("20.1", "20.7", "21.3", "21.9")]
        conj = [s.conjugate() for s in grid]
        m1, b1 = assemble_system(grid, 4, ctx)
        m2, b2 = assemble_system(conj, 4, ctx)
        cs1 = solve_coefficients(m1, b1, ctx)
        cs2 = solve_coefficients(m2, b2, ctx)
        for a, b in zip(cs1.deltas, cs2.deltas):
            assert a.re == b.re and a.im == -b.im


class TestDiagnostics:
    def test_stability_metric_zero_for_reals(self):
        ctx = PrecisionContext(30)
        cs = _cs_from_reals(["1", "0.75", "0.25", "0"], ctx)
        assert stability_metric(cs) == 0

    def test_half_crossing_midpoint(self):
        ctx = PrecisionContext(30)
        hc = half_crossing(_cs_from_reals(["1", "0.75", "0.25", "0"], ctx))
        assert hc.value == 2.5
        assert hc.crossings == 1

    def test_half_crossing_interpolation(self):
        ctx = PrecisionContext(30)
        hc = half_crossing(_cs_from_reals(["1", "0.6", "0.25", "0"], ctx))
        assert abs(hc.value - (2 + 0.1 / 0.35)) < 1e-12

    def test_half_crossing_symmetric_epsilon(self):
        ctx = PrecisionContext(30)
        for eps in ("0.1", "0.01", "0.0001"):
            up = ctx._mp.mpf("0.5") + ctx._mp.mpf(eps)
            dn = ctx._mp.mpf("0.5") - ctx._mp.mpf(eps)
            cs = _cs_from_reals(["1", str(up), str(dn), "0"], ctx)
            assert abs(half_crossing(cs).value - 2.5) < 1e-12

    def test_half_crossing_exact_half(self):
        # a profile that touches 1/2 exactly interpolates to that index
        ctx = PrecisionContext(30)
        hc = half_crossing(_cs_from_reals(["1", "0.9", "0.5", "0.1", "0"], ctx))
        assert hc.value == 3.0

    def test_no_crossing(self):
        ctx = PrecisionContext(30)
        with pytest.raises(NumericalError, match="never passes through 1/2"):
            half_crossing(_cs_from_reals(["0.1", "0.2", "0.3"], ctx))

    def test_multiple_crossings_flagged(self):
        ctx = PrecisionContext(30)
        hc = half_crossing(_cs_from_reals(["1", "0.2", "0.8", "0.1"], ctx))
        assert hc.value == pytest.approx(1 + 0.5 / 0.8)
        assert hc.crossings == 3


@pytest.mark.slow
class TestReferenceGrid:
    def test_stable_solve_shape(self, fig2_solution):
        cs = fig2_solution
        assert mpmath.mpf(cs.residual_inf) < mpmath.mpf(10) ** (-50)
        hc = half_crossing(cs)
        # crossing lands within 1% of the mean-ordinate prediction (logged)
        predicted = (188.4955592 + 99 * 0.628318531 / 2) / 3.141592653589793
        print(f"n_hat_star = {hc.value:.6f}, mean-ordinate prediction = {predicted:.6f}")
        assert abs(hc.value - predicted) / predicted < 0.01

    def test_precision_ladder_monotone(self, fig2_solution, fig2_p90, fig2_p50):
        m100 = float(stability_metric(fig2_solution))
        m90 = float(stability_metric(fig2_p90))
        m50 = float(stability_metric(fig2_p50))
        assert m100 < m90 < m50
