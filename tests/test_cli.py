import json

import pytest
from click.testing import CliRunner

from zetalab.cli import main


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
        ],
    )
    def test_golden_text(self, runner, point, digits, text):
        # recorded from the exp/ln Euler-Maclaurin head
        result = runner.invoke(main, ["zeta", "eval", "--s", point, "--digits", digits])
        assert result.exit_code == 0
        assert result.output.strip() == text

    def test_near_zero_row_exits_3(self, runner, tmp_path):
        # first grid row sits on the first zeta zero
        result = runner.invoke(
            main,
            ["solve-coeffs", "--t1", "14.134725141734", "--dt", "1", "--n", "2",
             "--digits", "40", "--output-dir", str(tmp_path)],
        )
        assert result.exit_code == 3


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


class TestListPresets:
    def test_blocks_parse_as_stubs(self, runner):
        result = runner.invoke(main, ["list-presets"])
        assert result.exit_code == 0
        blocks = [b for b in result.output.split("\n\n") if b.strip()]
        assert len(blocks) == 14
        for block in blocks:
            lines = block.strip().splitlines()
            pairs = dict(line.split(" = ", 1) for line in lines)
            assert "preset" in pairs and "figure" in pairs


# every malformed number must surface as a validation error before any output
OUT = ["--output-dir", "{out}"]
MALFORMED = {
    "zeta-eval-s": ["zeta", "eval", "--s", "0.5,abc", "--digits", "20"],
    "run-t": ["run", "fig-eps-vs-b", "--set", "t=abc", *OUT],
    "run-t-nan": ["run", "fig-eps-vs-b", "--set", "t=nan", *OUT],
    "run-bracket": ["run", "fig-eps-vs-b", "--set", "bracket=1", *OUT],
    "run-t-list": ["run", "fig-eps-vs-t", "--set", "t_list=100,,abc", *OUT],
    "run-t-list-inf": ["run", "fig-eps-vs-t", "--set", "t_list=100,inf", *OUT],
    "run-t-list-empty": ["run", "fig-eps-vs-t", "--set", "t_list=,", *OUT],
    "run-nhat-t-list-empty": ["run", "fig-nhat-sweep", "--set", "t_list=,", *OUT],
    "run-sigma-list-empty": ["run", "fig-c-d-sigma", "--set", "sigma_list=,", *OUT],
    "run-sigma-nan": ["run", "fig-eps-vs-b", "--set", "sigma=nan", *OUT],
    "run-stability-threshold-nan": [
        "run", "fig-coeffs-stable", "--set", "n=4", "--set", "stability_threshold=nan", *OUT
    ],
    "search-b-t-inf": ["search-b", "--t", "inf", *OUT],
    "search-b-t-nan": ["search-b", "--t", "nan", *OUT],
    "spiral-b-inf": ["spiral", "--t", "200", "--b", "inf", "--n-terms", "10", *OUT],
    "run-n": ["run", "fig-coeffs-stable", "--set", "n=abc", *OUT],
    "run-t1": ["run", "fig-coeffs-stable", "--set", "t1=abc", *OUT],
    "solve-coeffs-t1": ["solve-coeffs", "--t1", "abc", "--dt", "1", "--n", "4", *OUT],
    "sigma-law-list": ["sigma-law", "--t", "100", "--sigma-list", "0.3,abc,0.7", *OUT],
    "fit-sigmoid-cell": ["fit-sigmoid", "--input", "{csv}", "--digits", "20", *OUT],
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


@pytest.mark.parametrize("args", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_input_exits_2(runner, tmp_path, args):
    csv_path = tmp_path / "coeffs.csv"
    csv_path.write_text("n,re_delta,im_delta\n1,0.5,0\n2,abc,0\n")
    result = runner.invoke(main, [arg.format(csv=csv_path, out=tmp_path / "out") for arg in args])
    assert result.exit_code == 2, result.output
    assert "error:" in result.stderr
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()
