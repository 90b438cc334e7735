import itertools
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
    zeta,
)
from zetalab import experiments, oracle, solver
from zetalab.errors import NumericalError, ValidationError
from zetalab.powers import power_table
from zetalab.precision import _format_real, _raw, _wrap, power_term
from zetalab.solver import (
    CoefficientSet,
    GridSpec,
    _eliminate,
    _round_real,
    _round_to_digits,
    _row_step,
)

from .oracles import fdot_residual_inf, mpc_eliminate, per_row_assemble, sweep


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


def _exact_progression(spec):
    """build_grid(spec), asserting every ordinate is exactly t1 + m*dt and every
    step exactly dt, for t1 and dt as the context rounds them."""
    grid, ctx = build_grid(spec), spec.context()
    mp, t1, dt = ctx._mp, ctx.real(spec.t1), ctx.real(spec.dt)
    for m, s in enumerate(grid):
        assert s.im == mp.fadd(t1, mp.fmul(m, dt, exact=True), exact=True), m
    for a, b in zip(grid, grid[1:]):
        assert mp.fsub(b.im, a.im, exact=True) == dt
    return grid, ctx


class TestBuildGrid:
    def test_reference_grid_endpoints(self):
        spec = GridSpec(sigma="0.5", t1="188.4955592", dt="0.628318531", n_rows=100, digits=100)
        grid, ctx = _exact_progression(spec)
        assert grid[0].re == ctx.real("0.5")
        assert grid[0].im == ctx.real("188.4955592")
        # t1 + 99*dt in exact decimal arithmetic, once rounded to the context
        assert ctx.real(grid[99].im) == ctx.real("250.699093769")

    def test_left_grid_last_ordinate(self):
        # the last ordinate is t1 + 99*dt of the rounded t1 and dt, which at
        # P = 60 does not round to the exact decimal 234.834050837
        spec = GridSpec(sigma="0.5", t1="157.0796327", dt="0.785398163", n_rows=100, digits=60)
        _exact_progression(spec)

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


class TestLadder:
    """assemble_system's one ladder per grid against one power table and zeta per row."""

    def test_seeded_grids_match_per_row_assembly(self):
        rng = random.Random(14)
        for n in (20, 40):
            for digits in (30, 50, 80):
                t1, dt = f"{rng.uniform(20, 400):.7f}", f"{rng.uniform(0.2, 1.5):.9f}"
                spec = GridSpec(sigma=f"{rng.uniform(0.2, 0.8):.3f}", t1=t1, dt=dt, n_rows=n, digits=digits)
                grid, ctx = build_grid(spec), spec.context()
                assert assemble_system(grid, n, ctx) == per_row_assemble(grid, n, ctx), spec

    def test_ladder_rows_track_power_tables(self):
        # each row stays within 2^7 units of 2^-F of its own power table, and a
        # conjugate grid gets exactly conjugate rows
        spec = GridSpec(sigma="0.5", t1="188.4955592", dt="0.628318531", n_rows=100, digits=50)
        grid, work = build_grid(spec), oracle.working_context(spec.context())
        conj = solver._ladder([s.conjugate() for s in grid], 65, work)
        for m, ((re, im), (c_re, c_im)) in enumerate(zip(solver._ladder(grid, 65, work), conj)):
            assert c_re == re and c_im == [-v for v in im]
            if m % 9 == 0:
                table = power_table(grid[m], 65, work)
                assert max(abs(a - b) for a, b in zip(re + im, table.re + table.im)) < 2**7, m

    @staticmethod
    def _power_tables(monkeypatch, spec):
        """power_table calls of one assemble_system on spec's grid."""
        calls = []
        monkeypatch.setattr(solver, "power_table", lambda *args: calls.append(args) or power_table(*args))
        assemble_system(build_grid(spec), spec.n_rows, spec.context())
        return len(calls)

    def test_preset_grids_build_two_power_tables(self, monkeypatch):
        # row 1 and the node n^(-i dt): every later row of a preset grid is one step on
        for name in experiments.preset_names():
            params = experiments.ExperimentConfig(name, {}).resolved()
            if "dt" not in params:
                continue
            for t1 in params.get("t_list") or [params["t1"]]:
                spec = GridSpec(sigma=params["sigma"], t1=t1, dt=params["dt"],
                                n_rows=params["n"], digits=params["digits"])
                assert self._power_tables(monkeypatch, spec) == 2, (name, t1)

    def test_inexact_steps_restart_the_ladder(self, monkeypatch):
        # t_max/dt > 2^34: the ordinates round at the working precision, so the
        # second step differs from the first and row 3 restarts from its own table
        spec = GridSpec(sigma="0.5", t1="1000", dt="1.23456789e-8", n_rows=3, digits=15)
        grid, ctx = build_grid(spec), spec.context()
        steps = [ctx._mp.fsub(b.im, a.im, exact=True) for a, b in zip(grid, grid[1:])]
        assert steps[0] != steps[1] and ctx.real(spec.dt) not in steps
        assert self._power_tables(monkeypatch, spec) == 3
        assert assemble_system(grid, 3, ctx) == per_row_assemble(grid, 3, ctx)

    def test_rows_off_the_ladder_match_per_row_assembly(self):
        # a sigma change, an uneven step and a jump below the axis each restart the ladder
        ctx = PrecisionContext(40)
        points = [("0.5", "30.1"), ("0.5", "30.7"), ("0.5", "31.3"), ("0.6", "31.9"),
                  ("0.6", "32.5"), ("0.6", "33.4"), ("0.6", "-34"), ("0.6", "-34.6")]
        grid = [make_complex(sigma, t, ctx) for sigma, t in points]
        assert assemble_system(grid, 8, ctx) == per_row_assemble(grid, 8, ctx)

    def test_fallback_heads_match_per_row_assembly(self, monkeypatch):
        spec = GridSpec(sigma="0.5", t1="31.41592653", dt="0.62831853", n_rows=12, digits=30)
        grid, ctx = build_grid(spec), spec.context()
        first = oracle.first_cutoff
        # the ladder runs to N = 12 only, short of every row's N0 = 39; row 5's zeta
        # starts at N0 = 4, which cannot certify, escalates N0 on the ladder row,
        # and goes on past it on a power table of its own
        monkeypatch.setattr(solver, "first_cutoff", lambda s, d: 1)
        monkeypatch.setattr(oracle, "first_cutoff", lambda s, d: 4 if s == grid[4] else first(s, d))
        assert zeta(grid[4], ctx).terms_used > 12
        assert assemble_system(grid, 12, ctx) == per_row_assemble(grid, 12, ctx)


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
    assert _round_real(x._mpf_, ctx) == ctx.real(_format_real(x, digits))._mpf_


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
    assert _round_real(x._mpf_, ctx) == ctx.real(_format_real(x, digits))._mpf_


def _random_real(rng, mp, scale_bits=0):
    man = rng.getrandbits(mp.prec) * rng.choice((1, -1))
    return mp.mpf((man, -mp.prec - scale_bits))


def _random_system(n, mp, seed, scale=lambda rng, r, c: 0):
    """A seeded n x n system; scale(rng, r, c) gives an extra binary scale per
    component, the right-hand side taking it as column n."""
    rng = random.Random(seed)

    def entry(r, c):
        return mp.mpc(_random_real(rng, mp, scale(rng, r, c)), _random_real(rng, mp, scale(rng, r, c)))

    matrix = [[entry(r, c) for c in range(n)] for r in range(n)]
    return matrix, [entry(r, n) for r in range(n)]


def _assert_kernel_matches_oracle(matrix, rhs, mp):
    """Assert _eliminate equals mpc_eliminate bit for bit; return the raw solution."""
    floor = mp.mpf(2) ** (-mp.prec // 2)
    before = [row[:] for row in matrix]
    got = [z._mpc_ for z in _eliminate(matrix, rhs, mp, floor)]
    assert got == [z._mpc_ for z in mpc_eliminate(matrix, rhs, mp, floor)]
    assert matrix == before
    return got


def _signed_bits(rng, bits):
    """A random integer of exactly bits bits (0 for bits < 1), either sign."""
    return (rng.getrandbits(bits) | 1 << bits - 1) * rng.choice((1, -1)) if bits > 0 else 0


def _row_step_case(rng, prec, n_cols, ties):
    """(row, fr, fi, ur, ui, e0) for _row_step with n_cols columns after column 0.

    Bit lengths are drawn so that products of at most prec bits, shifts of a
    few bits (where ties are frequent) and of up to ~90 bits, and difference
    exponents d of both signs all occur, and any factor, pivot or row
    component may be 0.  With ties, each factor part is 0 or +-1 and the
    pivot components have a tie at shift 1, 2, 3 or 40, or are odd and of at
    most prec bits beside a row entry one bit up (a tie of the difference).
    """
    e0 = -2 * prec

    def part(lo, hi):
        return 0 if rng.random() < 0.2 else _signed_bits(rng, rng.randrange(lo, hi))

    if ties:
        fr, fi = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1)])
    else:
        fr, fi = part(1, prec + 40), part(1, prec + 40)
    top = max(fr.bit_length(), fi.bit_length(), 1)
    ur, ui, row = [0], [0], [[0], [0], [0], [0]]
    for _ in range(n_cols):
        entry = [part(1, prec + 1), e0 + rng.randrange(-60, 100), part(1, prec + 1), e0 + rng.randrange(-60, 100)]
        if not ties:
            lo = max(prec - top - 4, 1)
            hi = prec + 41 if rng.random() < 0.25 else max(prec - top, 1) + 48
            u = part(lo, hi), part(lo, hi)
        elif rng.random() < 0.5:
            s = rng.choice((1, 1, 2, 3, 40))
            u = tuple(_signed_bits(rng, prec) << s | 1 << s - 1 for _ in "ri")
        else:
            u = (_signed_bits(rng, prec - 1) | 1, _signed_bits(rng, prec - 1) | 1)
            entry = [_signed_bits(rng, prec), e0 + 1, _signed_bits(rng, prec), e0 + 1]
        for lists, v in zip((ur, ui, *row), (*u, *entry)):
            lists.append(v)
    return row, fr, fi, ur, ui, e0


def _real_part_kinds(row, fr, fi, ur, ui, e0, prec):
    """What the real part of a row step meets, column by column: products
    within prec bits, product ties by sign and shift, d < 0 and, behind an
    exact product, difference ties by sign."""
    kinds = set()
    for c in range(1, len(ur)):
        x = fr * ur[c] - fi * ui[c]
        s = x.bit_length() - prec
        if s <= 0:
            kinds.add("exact product")
        elif x & (1 << s) - 1 == 1 << s - 1:
            kinds.add(("product tie", x > 0, s == 1))
        d = row[1][c] - e0 - max(s, 0)
        if d < 0:
            kinds.add("d < 0")
        elif s <= 0:
            y = (row[0][c] << d) - x
            t = y.bit_length() - prec
            if t > 0 and y & (1 << t) - 1 == 1 << t - 1:
                kinds.add(("difference tie", y > 0))
    return kinds


class TestEliminationKernel:
    """The integer row steps of _eliminate against the mpc elimination, bit for bit."""

    @pytest.mark.parametrize(
        "n, digits", [*itertools.product([1, 2, 7, 30], [15, 50, 100, 200]), (2, 1000), (7, 1000)]
    )
    def test_random_systems(self, n, digits):
        # at 1000 digits the products pass CPython's Karatsuba cutoff (~2,100 bits)
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
        # components of about 1e-200 beside components of about 1, in the same
        # rows, entries and right-hand sides
        mp = PrecisionContext(digits)._mp
        for seed in range(3):
            matrix, rhs = _random_system(
                10, mp, seed, scale=lambda rng, r, c: rng.choice((0, 0, 664, 600 + r))
            )
            _assert_kernel_matches_oracle(matrix, rhs, mp)

    @pytest.mark.parametrize("digits", [15, 50, 100])
    def test_products_rounded_once_where_mpf_add_nudges(self, digits, monkeypatch):
        # off column 0, half the components are 2^-(prec + 2..9) smaller, so
        # the two products of a component with a full factor lie on either
        # side of prec + 4 bits apart, past which mpf_add may only nudge the
        # larger (it does where their last bits are also more than 100 bits
        # apart, at P = 50 and 100); _row_step still rounds each product part
        # once from its exact value, so plain mpc elimination differs there
        # (on 2 of the 16 systems at P = 50 and on 1 at P = 100).
        # The right-hand side (column n) is scaled so in all systems, and
        # alone in the last eight
        mp = PrecisionContext(digits)._mp
        floor = mp.mpf(2) ** (-mp.prec // 2)
        steps = []

        def counted_step(*args):
            steps.append(args)
            _row_step(*args)

        monkeypatch.setattr(solver, "_row_step", counted_step)

        def scale(rng, r, c):
            return 0 if c == 0 or rng.random() < 0.5 else mp.prec + rng.randrange(2, 10)

        def rhs_scale(rng, r, c):
            return scale(rng, r, c) if c == 12 else 0

        differ = 0
        for seed in range(16):
            matrix, rhs = _random_system(12, mp, seed, scale if seed < 8 else rhs_scale)
            once = _assert_kernel_matches_oracle(matrix, rhs, mp)
            plain = mpc_eliminate(matrix, rhs, mp, floor, once_rounded=False)
            differ += once != [z._mpc_ for z in plain]
        assert differ or digits == 15
        # 16 dense 12 x 12 systems take 16 * 66 row steps, every one _row_step
        assert len(steps) == 16 * 66

    @pytest.mark.parametrize("digits", [15, 50, 100, 200, 1000])
    def test_row_step_matches_two_sweeps(self, digits):
        prec = PrecisionContext(digits)._mp.prec
        rng = random.Random(digits)
        kinds = set()
        for case in range(24):
            row, fr, fi, ur, ui, e0 = _row_step_case(rng, prec, 60, ties=case % 3 == 2)
            kinds |= _real_part_kinds(row, fr, fi, ur, ui, e0, prec)
            kinds |= {"fr = 0"} if not fr else {"fi = 0"} if not fi else set()
            kinds |= {"zero pivot part"} if 0 in ur[1:] or 0 in ui[1:] else set()
            cols = range(1, len(ur))
            am, ax, bm, bx = want = [v[:] for v in row]
            sweep(am, ax, fr, ur, -fi, ui, e0, cols, prec)
            sweep(bm, bx, fr, ui, fi, ur, e0, cols, prec)
            us = [a + b for a, b in zip(ur, ui)]
            ud = [b - a for a, b in zip(ur, ui)]
            _row_step(row, fr, fi, ur, us, ud, e0, cols, prec)
            assert row == want, f"case {case}"
        ties = {("product tie", sign, one) for sign in (True, False) for one in (True, False)}
        assert kinds >= ties | {("difference tie", True), ("difference tie", False)}
        assert kinds >= {"exact product", "d < 0", "fr = 0", "fi = 0", "zero pivot part"}

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


def _near_singular_system(ctx):
    one = make_complex(1, 0, ctx)
    eps_row = make_complex("1.0000000000000000000000000000000000000001", 0, ctx)
    return [[one, one], [one, eps_row]], [one, make_complex(2, 0, ctx)]


def _growth_system(ctx):
    """Wilkinson's growth matrix at n = 66 (1 on the diagonal and in the last
    column, -1 below the diagonal) and a seeded rhs: partial pivoting doubles
    the last column at each step, so a P = 15 elimination leaves a residual
    above 10^(-P/2) and only the 2P re-elimination meets it."""
    n = 66
    rng = random.Random(0)
    matrix = [
        [make_complex(1 if r == c or c == n - 1 else -(r > c), 0, ctx) for c in range(n)]
        for r in range(n)
    ]
    return matrix, [make_complex(rng.uniform(-1, 1), 0, ctx) for _ in range(n)]


# residual is bound here so that a test patching solver._residual_inf still checks the original
def _assert_residual_matches_fdot(*args, residual=solver._residual_inf):
    got = residual(*args)
    assert got._mpf_ == fdot_residual_inf(*args)._mpf_
    return got


class TestResidual:
    """_residual_inf against one mpmath fdot per row, bit for bit."""

    @pytest.mark.parametrize("digits", [15, 50, 100])
    def test_seeded_systems(self, digits):
        # solved systems (rows that cancel) and random solutions, components
        # about 2^-40 and 2^-664 beside 1, at P and at 3P, wider than the 2P
        # check, which rounds them first
        check = PrecisionContext(2 * digits)

        def scale(rng, r, c):
            return rng.choice((0, 0, 40, 664))

        for seed in range(4):
            mp = PrecisionContext(digits if seed < 2 else 3 * digits)._mp
            raw_m, raw_b = _random_system(9, mp, seed, scale)
            matrix = [[_wrap(z) for z in row] for row in raw_m]
            rhs = [_wrap(z) for z in raw_b]
            solved = [_wrap(z) for z in mpc_eliminate(raw_m, raw_b, mp, 0)]
            guess = [_wrap(z) for z in _random_system(9, mp, seed + 10, scale)[1]]
            for solution in (solved, guess):
                _assert_residual_matches_fdot(matrix, rhs, solution, check)

    def test_terms_in_fdot_order(self):
        # fdot's sum drops a term more than 2 prec bits below the running sum,
        # so the term order decides: row 0, 1 + 2^-700 - 1, reads 0, not 2^-700
        ctx = PrecisionContext(15)
        one, zero = make_complex(1, 0, ctx), make_complex(0, 0, ctx)
        tiny = make_complex(ctx._mp.mpf(2) ** -700, 0, ctx)
        matrix = [[one, one], [zero, one]]
        assert _assert_residual_matches_fdot(matrix, [one, tiny], [one, tiny], PrecisionContext(30)) == 0

    @pytest.mark.parametrize(
        "system, digits, calls", [(_near_singular_system, 50, 1), (_growth_system, 15, 2)]
    )
    def test_doubled_precision_retry_inputs(self, system, digits, calls, monkeypatch):
        # the growth system's first residual breaches the contract: the second
        # call checks the 2P re-elimination's solution, rounded back to P
        checked = []

        def residual(*args):
            checked.append(args)
            return _assert_residual_matches_fdot(*args)

        monkeypatch.setattr(solver, "_residual_inf", residual)
        ctx = PrecisionContext(digits)
        cs = solve_coefficients(*system(ctx), ctx)
        assert len(checked) == calls
        assert cs.residual_inf < ctx._mp.mpf(10) ** (-digits / 2)

    def test_2p_retry_rescues_an_assembled_grid(self, monkeypatch):
        # a paper-style grid far left of the strip: the P pass leaves 6.1e-14
        # against the 1e-14 contract and the 2P re-elimination 9.7e-15
        residuals = []

        def residual(*args):
            residuals.append(_assert_residual_matches_fdot(*args))
            return residuals[-1]

        monkeypatch.setattr(solver, "_residual_inf", residual)
        cs = solver.solve_grid(GridSpec("-27.435", "22.1378", "2.80507", 8, 28))
        contract = mpmath.mpf(10) ** -14
        assert len(residuals) == 2
        assert residuals[0] >= contract > residuals[1] == cs.residual_inf


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
        # nearly singular system with a huge solution (~1e40); its P-digit
        # pass already leaves a residual of 8.7e-62, so the 2P re-elimination
        # does not run (_growth_system takes it)
        ctx = PrecisionContext(50)
        matrix, rhs = _near_singular_system(ctx)
        eps_row = matrix[1][1]
        cs = solve_coefficients(matrix, rhs, ctx)
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
    def test_im_stability_zero_on_the_real_axis(self):
        # real s gives a real system, so the solve keeps every Im d_n at exact 0
        ctx = PrecisionContext(30)
        grid = [make_complex(x, 0, ctx) for x in ("2", "2.5", "3", "3.5")]
        cs = solve_coefficients(*assemble_system(grid, 4, ctx), ctx)
        assert cs.im_stability == 0
        assert all(z.im == 0 for z in cs.deltas)

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
        m100 = float(fig2_solution.im_stability)
        m90 = float(fig2_p90.im_stability)
        m50 = float(fig2_p50.im_stability)
        assert m100 < m90 < m50
