import dataclasses
import errno
import json
import math
import os
import random
import subprocess
import sys

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import zetalab
from zetalab import cli, experiments, oracle, series, spiral
from zetalab.cli import main
from zetalab.errors import NumericalError, ValidationError


@pytest.fixture()
def runner():
    return CliRunner()


class TestZetaEval:
    def test_basel_digits(self, runner):
        result = runner.invoke(main, ["zeta", "eval", "--s", "2,0", "--digits", "30"])
        assert result.exit_code == 0
        assert result.output.strip() == "1.64493406684822643647241516665+0.0i"

    def test_pole_exits_3(self, runner):
        result = runner.invoke(main, ["zeta", "eval", "--s", "1,0", "--digits", "20"])
        assert result.exit_code == 3

    def test_uncertified_exits_3(self, runner, monkeypatch):
        euler_maclaurin = oracle._euler_maclaurin

        def never_certified(*args, **kwargs):
            value, order, _ = euler_maclaurin(*args, **kwargs)
            return value, order, False

        monkeypatch.setattr(oracle, "_euler_maclaurin", never_certified)
        result = runner.invoke(main, ["zeta", "eval", "--s", "0.5,100", "--digits", "15"])
        assert result.exit_code == 3, result.output
        assert "numerical failure: Euler-Maclaurin schedule cannot certify" in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("digits,code", [("15", 0), ("3", 2)])
    def test_module_entry_point(self, digits, code):
        # python -m zetalab.cli runs the same command group in a fresh interpreter
        src = os.path.dirname(os.path.dirname(zetalab.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        args = [sys.executable, "-m", "zetalab.cli", "zeta", "eval", "--s", "2,0", "--digits", digits]
        result = subprocess.run(args, capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        if code == 0:
            assert result.stdout.strip() == "1.64493406684823+0.0i"

    def test_bad_argument_exits_2(self, runner):
        result = runner.invoke(main, ["zeta", "eval", "--s", "nonsense", "--digits", "20"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["zeta", "eval", "--s", "2,0", "--digits", "5"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "point,digits,text",
        [
            ("0.5,14.134725", "50",
             "0.000000017674298356433245354517983702553163385619509486772"
             "-0.00000011102028894857664356480441909730415983541551246544i"),
            ("0.3,-45", "50",
             "3.1696538970143533653402051802648913058529820689323"
             "-2.4695222137042171744879816568484911212319214932525i"),
            ("2,0", "50", "1.6449340668482264364724151666460251892189499012068+0.0i"),
            ("0.5,40000", "30", "3.26966619582050948386385727757+5.92999696213917340449718493860i"),
            # next to the pole: 1/(s-1) plus Euler's gamma, as mpmath.zeta gives it
            ("1,1e-40", "15", "0.577215664901533-1.00000000000000e+40i"),
        ],
    )
    def test_golden_text(self, runner, point, digits, text):
        # recorded from the exp/ln Euler-Maclaurin head
        result = runner.invoke(main, ["zeta", "eval", "--s", point, "--digits", digits])
        assert result.exit_code == 0
        assert result.output.strip() == text

    def test_left_half_plane_digits(self, runner):
        # mpmath.zeta at 250 digits: 1.96709024662342104e72 + 7.09553800861655016e74 i
        result = runner.invoke(main, ["zeta", "eval", "--s=-100,0.001", "--digits", "15"])
        assert result.exit_code == 0
        assert result.output.strip() == "1.96709024662342e+72+7.09553800861655e+74i"

    def test_near_zero_row_exits_3(self, runner, tmp_path):
        # first grid row sits on the first zeta zero
        result = runner.invoke(
            main,
            ["solve-coeffs", "--t1", "14.134725141734", "--dt", "1", "--n", "2",
             "--digits", "40", "--output-dir", str(tmp_path)],
        )
        assert result.exit_code == 3

    def test_residual_met_by_2p_retry_exits_0(self, runner, tmp_path):
        # this grid's P pass breaches 10^(-P/2); the 2P re-elimination meets it
        keys = {"sigma": "-27.435", "t1": "22.1378", "dt": "2.80507", "n": "8", "digits": "28"}
        args = [a for k, v in keys.items() for a in ("--set", f"{k}={v}")]
        result = runner.invoke(main, ["run", "fig-coeffs-stable", *args, "--output-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output

    def test_residual_after_2p_retry_exits_3(self, runner, tmp_path):
        # at sigma = -100 the entries n^100 reach 5e47, and the residual after
        # the 2P re-elimination is still about 1e61, far above 10^(-P/2)
        result = runner.invoke(
            main,
            ["run", "fig-coeffs-stable", "--set", "n=3", "--set", "digits=15",
             "--set", "sigma=-100", "--set", "t1=10", "--output-dir", str(tmp_path)],
        )
        assert result.exit_code == 3
        assert "above 10^(-P/2) after the 2P retry" in result.output

    def test_profile_without_half_crossing(self, runner, tmp_path):
        # three coefficients at t1 = 20, dt = 2 never pass through 1/2: the
        # coefficient preset records that, the sigmoid fit cannot proceed
        keys = ["--set", "n=3", "--set", "digits=15", "--set", "t1=20", "--set", "dt=2"]
        result = runner.invoke(
            main, ["run", "fig-coeffs-stable", *keys, "--output-dir", str(tmp_path / "coeffs")]
        )
        assert result.exit_code == 0, result.output
        diag = json.loads((tmp_path / "coeffs" / "diagnostics.jsonl").read_text())
        assert diag["n_hat_star"] is None
        assert diag["crossing_error"] == "real coefficient profile never passes through 1/2"
        result = runner.invoke(
            main, ["run", "fig-sigmoid", *keys, "--output-dir", str(tmp_path / "sigmoid")]
        )
        assert result.exit_code == 3
        assert "real coefficient profile never passes through 1/2" in result.output


@pytest.mark.slow
class TestPipelines:
    def test_solve_then_fit(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "solve-coeffs",
                "--sigma", "0.5",
                "--t1", "31.41592653",
                "--dt", "0.62831853",
                "--n", "16",
                "--digits", "30",
                "--output-dir", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        diag = json.loads((tmp_path / "diagnostics.jsonl").read_text())
        assert "n_hat_star" in diag

        result = runner.invoke(
            main,
            [
                "fit-sigmoid",
                "--input", str(tmp_path / "coeffs.csv"),
                "--digits", "30",
                "--output-dir", str(tmp_path / "fit"),
            ],
        )
        assert result.exit_code == 0, result.output
        fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert fit["b_param"] > 0
        sig_lines = (tmp_path / "fit" / "sigmoid.csv").read_text().splitlines()
        assert sig_lines[0] == "n,re_delta,sigmoid_value"
        assert len(sig_lines) == 17

    def test_search_b(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["search-b", "--sigma", "0.5", "--t", "100", "--digits", "20",
             "--output-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        cal = json.loads((tmp_path / "calibration.json").read_text())
        assert cal["b_hat"] > 0
        assert cal["t"] == 100.0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["preset"] == "fig-eps-vs-b"
        trace_lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "B,err"
        assert len(trace_lines) > 64

    def test_spiral_with_scale(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["spiral", "--sigma", "0.5", "--t", "50", "--b", "1.2", "--weighted",
             "--digits", "20", "--output-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "spiral.svg").exists()
        meta = json.loads((tmp_path / "spiral.json").read_text())
        assert meta["weighted"] and meta["b_used"] == 1.2

    def test_run_preset_and_exit_codes(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["run", "fig-eps-vs-b", "--set", "t=100", "--set", "digits=20",
             "--output-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "manifest.json").exists()

        result = runner.invoke(main, ["run", "fig-nope"])
        assert result.exit_code == 2
        result = runner.invoke(
            main, ["run", "fig-eps-vs-b", "--set", "bogus=1", "--output-dir", str(tmp_path)]
        )
        assert result.exit_code == 2

    def test_scaling_law_command(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["scaling-law", "--sigma", "0.5", "--t-list", "100,200", "--digits", "20",
             "--output-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        fit = json.loads((tmp_path / "powerfit.json").read_text())
        assert fit["r_squared"] == pytest.approx(1.0)  # two points interpolate

    def test_power_law_reads_sigma_as_mpmath_text(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["run", "fig-b-power-law", "--set", "sigma=1/2", "--set", "t_list=100,200",
             "--set", "digits=20", "--output-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "powerfit.json").read_text())["sigma"] == 0.5

    def test_grid_reads_t1_as_mpmath_text(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["run", "fig-coeffs-stable", "--set", "t1=1/3", "--set", "n=4",
             "--set", "digits=20", "--output-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "diagnostics.jsonl").read_text())["ordinate_bound_ok"]

    def test_nhat_sweep_reads_dt_as_mpmath_text(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["run", "fig-nhat-sweep", "--set", "t_list=100", "--set", "dt=1/3", "--set", "n=4",
             "--set", "digits=20", "--output-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        row = (tmp_path / "nhat_sweep.csv").read_text().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(1.005)  # mean t / t1 = (100 + 1/2) / 100

    def test_sigma_law_command(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["sigma-law", "--t", "100", "--sigma-list", "0.3,0.5,0.7", "--digits", "20",
             "--output-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        fit = json.loads((tmp_path / "expfit.json").read_text())
        assert "q" in fit


@pytest.mark.slow
@pytest.mark.parametrize(
    "args",
    [
        ["run", "fig-eps-vs-b", "--set", "digits=400", "--set", "t=100", "--set", "bracket=0.5,5"],
        ["spiral", "--t", "200", "--b", "2", "--digits", "400"],
    ],
    ids=["calibration-400", "spiral-400"],
)
def test_tail_tolerance_below_double_range(runner, tmp_path, args):
    # 10^-digits underflows a double past 323 digits
    result = runner.invoke(main, [*args, "--output-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output


class TestListPresets:
    def test_blocks_parse_as_stubs(self, runner):
        result = runner.invoke(main, ["list-presets"])
        assert result.exit_code == 0
        blocks = [b for b in result.output.split("\n\n") if b.strip()]
        assert len(blocks) == 14
        for block in blocks:
            lines = block.strip().splitlines()
            pairs = dict(line.removeprefix("# ").split(" = ", 1) for line in lines)
            assert "preset" in pairs and "figure" in pairs

    def test_printed_block_runs_as_config(self, runner, tmp_path):
        blocks = runner.invoke(main, ["list-presets"]).output.split("\n\n")
        block = next(b for b in blocks if b.startswith("# preset = fig-eps-vs-b\n"))
        stub = tmp_path / "fig-eps-vs-b.cfg"
        stub.write_text(block)
        cheap = ["--set", "t=100", "--set", "digits=20", "--output-dir", str(tmp_path / "out")]
        result = runner.invoke(main, ["run", "fig-eps-vs-b", "--config", str(stub), *cheap])
        assert result.exit_code == 0, result.output


# every malformed number must surface as a validation error before any output
OUT = ["--output-dir", "{out}"]
MALFORMED = {
    "zeta-eval-s": ["zeta", "eval", "--s", "0.5,abc", "--digits", "20"],
    "run-t": ["run", "fig-eps-vs-b", "--set", "t=abc", *OUT],
    "run-t-nan": ["run", "fig-eps-vs-b", "--set", "t=nan", *OUT],
    "run-t-zero": ["run", "fig-eps-vs-b", "--set", "t=0", *OUT],
    "spiral-t-zero": ["spiral", "--t", "0", "--b", "1", "--n-terms", "10", *OUT],
    "run-bracket": ["run", "fig-eps-vs-b", "--set", "bracket=1", *OUT],
    "run-t-list": ["run", "fig-eps-vs-t", "--set", "t_list=100,,abc", *OUT],
    "run-t-list-inf": ["run", "fig-eps-vs-t", "--set", "t_list=100,inf", *OUT],
    "run-t-list-empty": ["run", "fig-eps-vs-t", "--set", "t_list=,", *OUT],
    "run-t-list-negative": [
        "run", "fig-eps-vs-t", "--set", "t_list=-5,100", "--set", "digits=20", *OUT
    ],
    "run-t-list-unsorted": ["run", "fig-eps-vs-t", "--set", "t_list=300,100", *OUT],
    "run-nhat-t-list-repeated": ["run", "fig-nhat-sweep", "--set", "t_list=180,180", *OUT],
    "run-nhat-t-list-empty": ["run", "fig-nhat-sweep", "--set", "t_list=,", *OUT],
    "run-sigma-list-empty": ["run", "fig-c-d-sigma", "--set", "sigma_list=,", *OUT],
    "run-sigma-nan": ["run", "fig-eps-vs-b", "--set", "sigma=nan", *OUT],
    "run-dt-nan": ["run", "fig-coeffs-stable", "--set", "n=4", "--set", "dt=nan", *OUT],
    "search-b-t-inf": ["search-b", "--t", "inf", *OUT],
    "search-b-t-nan": ["search-b", "--t", "nan", *OUT],
    "spiral-b-inf": ["spiral", "--t", "200", "--b", "inf", "--n-terms", "10", *OUT],
    "run-n": ["run", "fig-coeffs-stable", "--set", "n=abc", *OUT],
    "run-t1": ["run", "fig-coeffs-stable", "--set", "t1=abc", *OUT],
    "solve-coeffs-t1": ["solve-coeffs", "--t1", "abc", "--dt", "1", "--n", "4", *OUT],
    "sigma-law-list": ["sigma-law", "--t", "100", "--sigma-list", "0.3,abc,0.7", *OUT],
    "fit-sigmoid-cell": ["fit-sigmoid", "--input", "{csv}", "--digits", "20", *OUT],
    "fit-sigmoid-nan-cell": ["fit-sigmoid", "--input", "{nan_csv}", "--digits", "20", *OUT],
    "fit-sigmoid-no-im-column": ["fit-sigmoid", "--input", "{no_im_csv}", "--digits", "20", *OUT],
    "fit-sigmoid-header-only": ["fit-sigmoid", "--input", "{header_csv}", "--digits", "20", *OUT],
    "fit-sigmoid-digits-budget": [
        "fit-sigmoid", "--input", "{good_csv}", "--digits", "300000", *OUT
    ],
    "zeta-eval-s-nan": ["zeta", "eval", "--s", "nan,1", "--digits", "20"],
    "zeta-eval-s-inf": ["zeta", "eval", "--s", "inf,100", "--digits", "20"],
    "zeta-eval-t-overflow": ["zeta", "eval", "--s", "0.5,1e400", "--digits", "20"],
    "zeta-eval-t-budget": ["zeta", "eval", "--s", "0.5,1e7", "--digits", "20"],
    "zeta-eval-sigma-budget": ["zeta", "eval", "--s", "-1e6,100", "--digits", "20"],
    "zeta-eval-digits-budget": ["zeta", "eval", "--s", "0.5,10", "--digits", "100000"],
}


@pytest.mark.parametrize(
    "preset,extra,filename,text,expected",
    [
        ("fig-eps-vs-b", [], "calibration.json", "1000.5", 1000.5),
        ("fig-eps-vs-b", [], "calibration.json", "100", 100),
        ("fig-spiral-raw", ["--set", "b=1.2"], "spiral.json", "100", 100),
    ],
)
def test_run_takes_real_t(runner, tmp_path, preset, extra, filename, text, expected):
    # integral text stays an int in the output files
    result = runner.invoke(
        main,
        ["run", preset, "--set", f"t={text}", "--set", "digits=20", *extra,
         "--output-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    saved = json.loads((tmp_path / filename).read_text())["t"]
    assert saved == expected and type(saved) is type(expected)


# a malformed cell of a coefficient CSV is named by its file and line
LOCATED = {
    "fit-sigmoid-cell": "coeffs.csv:3: not a number: 'abc'",
    "fit-sigmoid-nan-cell": "nan.csv:3: not a finite number: nan",
}


@pytest.mark.parametrize("args", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_input_exits_2(runner, tmp_path, request, args):
    csv_path = tmp_path / "coeffs.csv"
    csv_path.write_text("n,re_delta,im_delta\n1,0.5,0\n2,abc,0\n")
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("n,re_delta,im_delta\n1,0.5,0\n2,nan,0\n")
    good_csv = tmp_path / "good.csv"
    good_csv.write_text("n,re_delta,im_delta\n1,0.9,0\n2,0.8,0\n3,0.7,0\n4,0.2,0\n")
    no_im_csv = tmp_path / "no_im.csv"
    no_im_csv.write_text("n,re_delta\n1,0.9\n2,0.8\n")
    header_csv = tmp_path / "header.csv"
    header_csv.write_text("n,re_delta,im_delta\n")
    paths = {"csv": csv_path, "nan_csv": nan_csv, "good_csv": good_csv, "no_im_csv": no_im_csv,
             "header_csv": header_csv, "out": tmp_path / "out"}
    result = runner.invoke(main, [arg.format(**paths) for arg in args])
    assert result.exit_code == 2, result.output
    assert "error:" in result.stderr
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()
    located = LOCATED.get(request.node.callspec.id)
    assert located is None or located in result.stderr, result.stderr


def test_fit_residual_overflow_exits_3(runner, tmp_path):
    # each cell fits the digit budget, but their sum overflows a double
    rows = [f"{n},1e400,0" for n in range(1, 46)] + [f"{n},0.1,0" for n in range(46, 61)]
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text("\n".join(["n,re_delta,im_delta", *rows]) + "\n")
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["fit-sigmoid", "--input", str(csv_path), "--digits", "20", "--output-dir", str(out)]
    )
    assert result.exit_code == 3, result.output
    assert "numerical failure: sigmoid fit residual inf" in result.stderr
    assert "Traceback" not in result.output
    assert not (out / "fit.json").exists()



def test_spiral_overflowing_a_double_exits_3(runner, tmp_path):
    # the sigma = -100 partial sums pass the double range long before 2000 terms
    out = tmp_path / "out"
    args = ["--sigma", "-100", "--t", "10", "--n-terms", "2000", "--digits", "15"]
    result = runner.invoke(main, ["spiral", *args, "--output-dir", str(out)])
    assert result.exit_code == 3, result.output
    assert "numerical failure: spiral points overflow a double" in result.stderr
    assert "Traceback" not in result.output
    assert not list(out.glob("spiral.*"))

# a 16-row coefficient profile that fits; each case breaks only its n column or its row order
_PROFILE = [(str(n), f"{1 / (1 + math.exp((n - 12) / 1.5)):.15f}") for n in range(1, 17)]
N_COLUMN = {
    "renumbered-from-0": [(str(int(n) - 1), re) for n, re in _PROFILE],
    "n-not-a-number": [("x", re) for _, re in _PROFILE],
    "rows-shuffled": random.Random(16).sample(_PROFILE, len(_PROFILE)),
}


@pytest.mark.parametrize("rows", list(N_COLUMN.values()), ids=list(N_COLUMN))
def test_fit_sigmoid_requires_n_in_row_order(runner, tmp_path, rows):
    def fit(rows, out):
        csv_path = tmp_path / "coeffs.csv"
        csv_path.write_text("n,re_delta,im_delta\n" + "".join(f"{n},{re},0\n" for n, re in rows))
        return runner.invoke(main, ["fit-sigmoid", "--input", str(csv_path), "--digits", "20",
                                    "--output-dir", str(out)])

    result = fit(_PROFILE, tmp_path / "ok")
    assert result.exit_code == 0, result.output
    result = fit(rows, tmp_path / "out")
    assert result.exit_code == 2, result.output
    first = next(k for k, (n, _) in enumerate(rows, start=1) if n != str(k))
    assert f"coeffs.csv:{first + 1}: n = {rows[first - 1][0]!r}, expected n = {first}" in result.stderr
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_config_key_set_twice_exits_2(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t = 100\n# t = 300\ndigits = 20\nt = 200\n")
    out = tmp_path / "out"
    args = ["run", "fig-eps-vs-b", "--config", str(cfg), "--output-dir", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "run.cfg: 't' set on lines 1 and 4" in result.stderr
    assert not out.exists()
    # --set still overrides a key the file sets once
    cfg.write_text("t = 100\ndigits = 20\n")
    result = runner.invoke(main, [*args, "--set", "t=200"])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "calibration.json").read_text())["t"] == 200


def test_config_with_byte_order_mark(runner, tmp_path):
    # a UTF-8 file saved with a BOM (Windows Notepad) used to read its first key as '\ufefft'
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t = 200\ndigits = 20\n", encoding="utf-8-sig")
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "fig-eps-vs-b", "--config", str(cfg), "--output-dir", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "calibration.json").read_text())["t"] == 200


def test_fit_sigmoid_reads_csv_with_byte_order_mark(runner, tmp_path):
    text = "n,re_delta,im_delta\n" + "".join(f"{n},{re},0\n" for n, re in _PROFILE)
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        csv_path = tmp_path / "coeffs.csv"
        csv_path.write_text(text, encoding=encoding)
        result = runner.invoke(main, ["fit-sigmoid", "--input", str(csv_path), "--digits", "20",
                                      "--output-dir", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
    for output in ("fit.json", "sigmoid.csv"):
        assert (tmp_path / "bom" / output).read_bytes() == (tmp_path / "plain" / output).read_bytes()

SPIRAL_WIDE_BRACKET = ["--set", "n_terms=10", "--set", "bracket=0.1,1e6", "--set", "digits=20"]

# each probe must be rejected, naming its key, before any preset work starts
PROBES = {
    "run-b-negative": ("b", ["run", "fig-spiral-raw", "--set", "b=-1"]),
    "run-set-jobs": ("jobs", ["run", "fig-eps-vs-t", "--set", "jobs=0"]),
    "run-jobs-zero": ("jobs", ["run", "fig-eps-vs-t", "--jobs", "0"]),
    "run-t-budget": ("t", ["run", "fig-eps-vs-b", "--set", "t=1e9"]),
    "search-b-t-budget": ("t", ["search-b", "--t", "1e9"]),
    "search-b-t-text": ("t", ["search-b", "--t", "1e3x"]),
    "run-sigma-list-repeated": ("sigma_list", ["run", "fig-b-sigma", "--set", "sigma_list=0.1,0.1,0.1"]),
    "run-sigma-list-short": ("sigma_list", ["run", "fig-b-sigma", "--set", "sigma_list=0.3,0.5"]),
    "run-power-law-t-list-short": ("t_list", ["run", "fig-b-power-law", "--set", "t_list=100"]),
    "run-cd-sigma-t-list-short": ("t_list", ["run", "fig-c-d-sigma", "--set", "t_list=100"]),
    "run-sigma-budget": ("sigma", ["run", "fig-eps-vs-b", "--set", "sigma=-1000"]),
    "run-sigma-list-budget": ("sigma_list", ["run", "fig-b-sigma", "--set", "sigma_list=0.1,0.5,101"]),
    # a power table of 60,121,929 entries
    "run-bracket-terms": ("bracket", ["run", "fig-eps-vs-b", "--set", "bracket=0.1,1e6"]),
    "run-sweep-bracket-terms": (
        "bracket", ["run", "fig-eps-vs-t", "--set", "t_list=100,1000", "--set", "bracket=0.1,1e6"]
    ),
    # two power tables of 60,465,464 entries
    "spiral-b-terms": ("b", ["spiral", "--weighted", "--t", "200", "--b", "5e5"]),
    # a truncation length that fits in 10^6 terms, twice of which does not
    "spiral-n-terms-twice": ("n_terms", ["spiral", "--t", "100", "--b", "25000", "--digits", "15"]),
    # a weighted spiral without b calibrates, whatever n_terms is
    "spiral-weighted-bracket-terms": ("bracket", ["run", "fig-spiral-weighted", *SPIRAL_WIDE_BRACKET]),
    # a grid whose last ordinate t1 + (n-1) dt passes T_MAX: the ladder would size
    # its rows by N0 ~ t/pi
    "run-dt-last-ordinate": ("dt", ["run", "fig-coeffs-stable", "--set", "dt=1e9", "--set", "n=2",
                                    "--set", "digits=15"]),
    "solve-coeffs-dt-last-ordinate": ("dt", ["solve-coeffs", "--t1", "100", "--dt", "1e7", "--n", "2",
                                             "--digits", "15"]),
    "run-nhat-dt-last-ordinate": ("dt", ["run", "fig-nhat-sweep", "--set", "dt=1e5"]),
}


@pytest.mark.parametrize("key,args", list(PROBES.values()), ids=list(PROBES))
def test_probe_exits_2_naming_key(runner, tmp_path, monkeypatch, key, args):
    def no_work(*args, **kwargs):
        raise AssertionError("validation must come before any calibration or solve")

    monkeypatch.setattr(experiments, "calibrate_b", no_work)
    monkeypatch.setattr(experiments, "solve_grid", no_work)
    monkeypatch.setattr(series, "power_table", no_work)
    monkeypatch.setattr(spiral, "power_pair", no_work)
    result = runner.invoke(main, [*args, "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"{key} " in result.stderr or f"'{key}'" in result.stderr, result.stderr
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_bracket_with_overflowing_ratio_exits_2(runner, tmp_path):
    # hi/lo = inf used to send every coarse point past the first to b = inf
    result = runner.invoke(main, ["run", "fig-eps-vs-b", "--set", "bracket=1e-320,5",
                                  "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "bracket must satisfy" in result.stderr and "1e-320" in result.stderr, result.stderr
    assert "b = inf" not in result.stderr and "Traceback" not in result.output


def test_raw_spiral_with_n_terms_skips_bracket(runner, tmp_path, monkeypatch):
    # it never calibrates, so a bracket too wide to calibrate with is no error
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrate_b must not run")

    monkeypatch.setattr(experiments, "calibrate_b", no_calibration)
    result = runner.invoke(
        main,
        ["run", "fig-spiral-raw", *SPIRAL_WIDE_BRACKET, "--output-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "spiral.csv").read_text().count("\n") == 11


# each shortcut and the `run --set` call it stands for
SHORTCUTS = {
    "solve-coeffs": (
        ["solve-coeffs", "--t1", "31.41592653", "--dt", "0.62831853", "--n", "12", "--digits", "30"],
        ["fig-coeffs-stable", "t1=31.41592653", "dt=0.62831853", "n=12", "digits=30"],
    ),
    "search-b": (
        ["search-b", "--t", "100", "--digits", "20"], ["fig-eps-vs-b", "t=100", "digits=20"]
    ),
    "scaling-law": (
        ["scaling-law", "--t-list", "100,200", "--digits", "20"],
        ["fig-b-power-law", "t_list=100,200", "digits=20"],
    ),
    "sigma-law": (  # decimal text as mpmath reads it, as for sigma
        ["sigma-law", "--t", "100", "--sigma-list", "1/2,0.3,0.7", "--digits", "20"],
        ["fig-b-sigma", "t=100", "sigma_list=1/2,0.3,0.7", "digits=20"],
    ),
    "spiral": (
        ["spiral", "--t", "100", "--b", "1.2", "--n-terms", "30", "--digits", "20"],
        ["fig-spiral-raw", "t=100", "b=1.2", "n_terms=30", "digits=20"],
    ),
    "spiral-weighted": (
        ["spiral", "--weighted", "--t", "100", "--b", "1.2", "--digits", "20"],
        ["fig-spiral-weighted", "t=100", "b=1.2", "digits=20"],
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("shortcut,preset_run", list(SHORTCUTS.values()), ids=list(SHORTCUTS))
def test_shortcut_matches_run(runner, tmp_path, shortcut, preset_run):
    preset, *assignments = preset_run
    run = ["run", preset, *[arg for a in assignments for arg in ("--set", a)]]
    for args, out in ((shortcut, tmp_path / "shortcut"), (run, tmp_path / "run")):
        result = runner.invoke(main, [*args, "--output-dir", str(out)])
        assert result.exit_code == 0, result.output
    manifests = [json.loads((out / "manifest.json").read_text()) for out in
                 (tmp_path / "shortcut", tmp_path / "run")]
    assert manifests[0]["preset"] == preset
    assert json.dumps(manifests[0]["config"]) == json.dumps(manifests[1]["config"])
    for name in manifests[1]["outputs"]:
        assert (tmp_path / "shortcut" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


def test_shortcut_flags_are_preset_keys():
    keys = experiments.preset_keys
    assert keys("fig-spiral-raw") == keys("fig-spiral-weighted")
    for name, (preset, required) in cli.SHORTCUTS.items():
        params = {param.name: param for param in main.commands[name].params}
        extra = {"output_dir", "weighted"} if name == "spiral" else {"output_dir"}
        assert set(params) == set(keys(preset)) | extra, name
        for key in keys(preset):
            assert params[key].opts == [f"--{key.replace('_', '-')}"]
            assert params[key].help == experiments.PARAMS[key].rule
            assert params[key].required == (key in required)


@pytest.mark.slow
def test_spiral_takes_bracket(runner, tmp_path):
    result = runner.invoke(
        main,
        ["spiral", "--weighted", "--t", "100", "--digits", "20", "--bracket", "0.5,20",
         "--output-dir", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["preset"] == "fig-spiral-weighted"
    assert manifest["config"]["bracket"] == [0.5, 20.0]


# a path of the wrong kind, or a file that is not UTF-8, is refused before any
# work; each case: (text the message must hold, arguments)
BAD_PATHS = {
    "run-config-dir": ("--config", ["run", "fig-eps-vs-b", "--config", "{dir}", *OUT]),
    "run-config-not-utf8": ("bad.cfg", ["run", "fig-eps-vs-b", "--config", "{bad_cfg}", *OUT]),
    "fit-sigmoid-input-dir": ("--input", ["fit-sigmoid", "--input", "{dir}", *OUT]),
    "fit-sigmoid-input-not-utf8": ("bad.csv", ["fit-sigmoid", "--input", "{bad_csv}", *OUT]),
    "fit-sigmoid-output-file": (
        "--output-dir", ["fit-sigmoid", "--input", "{good_csv}", "--output-dir", "{file}"]
    ),
    "run-output-file": (
        "--output-dir", ["run", "fig-eps-vs-b", "--set", "t=100", "--output-dir", "{file}"]
    ),
    "search-b-output-file": ("--output-dir", ["search-b", "--t", "100", "--output-dir", "{file}"]),
    "spiral-output-file": ("--output-dir", ["spiral", "--t", "100", "--output-dir", "{file}"]),
    # a directory under a file: refused by mkdir, not by click
    "run-output-under-file": (
        "file/sub", ["run", "fig-eps-vs-b", "--set", "t=100", "--output-dir", "{file}/sub"]
    ),
    "spiral-output-under-file": (
        "file/sub", ["spiral", "--t", "100", "--b", "1.2", "--n-terms", "10", "--digits", "20",
                     "--output-dir", "{file}/sub"]
    ),
    "fit-sigmoid-output-under-file": (
        "file/sub", ["fit-sigmoid", "--input", "{good_csv}", "--output-dir", "{file}/sub"]
    ),
    # an output file that is an existing directory: found when written, after the work
    "run-output-file-is-dir": (
        "spiral.csv", ["run", "fig-spiral-raw", "--set", "t=100", "--set", "n_terms=10",
                       "--set", "digits=20", "--output-dir", "{out}"]
    ),
    "spiral-output-file-is-dir": (
        "spiral.csv", ["spiral", "--t", "100", "--b", "1.2", "--n-terms", "10", "--digits", "20",
                       "--output-dir", "{out}"]
    ),
    "fit-sigmoid-output-file-is-dir": (
        "sigmoid.csv", ["fit-sigmoid", "--input", "{good_csv}", "--output-dir", "{out}"]
    ),
}


@pytest.mark.parametrize("named,args", list(BAD_PATHS.values()), ids=list(BAD_PATHS))
def test_bad_path_exits_2(runner, tmp_path, monkeypatch, named, args):
    def no_work(*args, **kwargs):
        raise AssertionError("paths must be checked before any calibration or solve")

    blocked = "{out}" in args
    if blocked:
        (tmp_path / "out" / named).mkdir(parents=True)
    else:
        for module, name in ((experiments, "calibrate_b"), (experiments, "solve_grid"),
                             (series, "power_table"), (spiral, "power_pair"),
                             (cli, "sigmoid_outputs")):
            monkeypatch.setattr(module, name, no_work)
    work = tmp_path / "work"
    work.mkdir()
    paths = {"dir": work, "bad_cfg": tmp_path / "bad.cfg", "bad_csv": tmp_path / "bad.csv",
             "good_csv": tmp_path / "good.csv", "file": tmp_path / "file", "out": tmp_path / "out"}
    paths["bad_cfg"].write_bytes(b"t = 100\ndigits = 2\xff0\n")
    paths["bad_csv"].write_bytes(b"n,re_delta,im_delta\n1,0.5\xe9,0\n")
    paths["good_csv"].write_text("n,re_delta,im_delta\n1,0.9,0\n2,0.8,0\n3,0.7,0\n4,0.2,0\n")
    paths["file"].write_text("kept\n")
    result = runner.invoke(main, [arg.format(**paths) for arg in args])
    assert result.exit_code == 2, result.output
    assert named in result.stderr, result.stderr
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)
    assert paths["file"].read_text() == "kept\n"
    assert list(paths["out"].iterdir()) == [paths["out"] / named] if blocked else not paths["out"].exists()
    assert list(work.iterdir()) == []


def test_unwritable_manifest_exits_2_after_outputs(runner, tmp_path):
    # the manifest is written last, through the same path as the preset's files
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    args = ["run", "fig-spiral-raw", "--set", "t=100", "--set", "n_terms=10", "--set", "digits=20"]
    result = runner.invoke(main, [*args, "--output-dir", str(out)])
    assert result.exit_code == 2, result.output
    manifest = out / "manifest.json"
    assert result.stderr.splitlines() == [f"error: output file {manifest}: {os.strerror(errno.EISDIR)}"]
    assert "Traceback" not in result.output
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "spiral.csv", "spiral.json", "spiral.svg"]
    assert list(manifest.iterdir()) == []


@pytest.fixture()
def raising_command(monkeypatch):
    errors = {"validation": ValidationError, "numerical": NumericalError, "bug": RuntimeError}

    @click.command()
    @click.argument("kind", type=click.Choice(list(errors)))
    def raises(kind):
        raise errors[kind]("raised")

    monkeypatch.setitem(main.commands, "raises", raises)


@pytest.mark.parametrize("kind,code,line", [("validation", 2, "error: raised"),
                                            ("numerical", 3, "numerical failure: raised")],
                         ids=["validation", "numerical"])
def test_main_maps_errors_of_any_command(runner, raising_command, kind, code, line):
    # no decorator on the command: main's invoke gives the exit code
    result = runner.invoke(main, ["raises", kind])
    assert result.exit_code == code, result.output
    assert result.stderr.splitlines() == [line]
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_main_lets_other_errors_through(runner, raising_command):
    # a bug is never reported as a validation or numerical failure
    result = runner.invoke(main, ["raises", "bug"])
    assert result.exit_code == 1
    assert isinstance(result.exception, RuntimeError)
    assert "error:" not in result.stderr and "numerical failure:" not in result.stderr


@pytest.fixture(scope="module")
def no_op_presets():
    return {
        name: dataclasses.replace(preset, runner=lambda params, jobs: {})
        for name, preset in experiments._PRESETS.items()
    }


@settings(max_examples=150, deadline=None)
@given(
    preset=st.sampled_from(experiments.preset_names()),
    key=st.sampled_from(sorted(experiments.PARAMS) + ["jobs", "frobnicate"]),
    text=st.text(max_size=12),
)
def test_run_exits_0_or_2(no_op_presets, tmp_path_factory, preset, key, text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_PRESETS", no_op_presets)
        out = tmp_path_factory.mktemp("run")
        result = CliRunner().invoke(main, ["run", preset, "--set", f"{key}={text}", "--output-dir", str(out)])
    assert result.exit_code in (0, 2), result.output
    assert not isinstance(result.exception, Exception) or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
