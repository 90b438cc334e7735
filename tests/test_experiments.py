import hashlib
import json

import pytest
from click.testing import CliRunner

from zetalab import experiments
from zetalab.cli import main
from zetalab.errors import ValidationError
from zetalab.experiments import (
    ExperimentConfig,
    _coerce,
    list_presets,
    parse_config_file,
    preset_names,
    run_preset,
)

# cheap override sets so preset machinery is exercised without the
# multiprecision heavyweights
TINY_SOLVE = {"n": "12", "digits": "30", "t1": "31.41592653", "dt": "0.62831853"}
TINY_CAL = {"t": "100", "digits": "20"}


class TestPresetTable:
    def test_fourteen_presets(self):
        assert len(preset_names()) == 14

    def test_every_preset_names_its_figure(self):
        for entry in list_presets():
            assert entry["figure"].strip()

    def test_round_trip_as_config_stub(self, tmp_path):
        # every block `list-presets` prints feeds back through --config parsing
        # and the override coercion to the preset's own defaults
        output = CliRunner().invoke(main, ["list-presets"]).output
        blocks = [block for block in output.split("\n\n") if block.strip()]
        entries = list_presets()
        assert len(blocks) == len(entries)
        for block, entry in zip(blocks, entries):
            stub = tmp_path / f"{entry['preset']}.cfg"
            stub.write_text(block)
            overrides = parse_config_file(stub)
            assert overrides.pop("preset") == entry["preset"]
            assert overrides.pop("figure") == entry["figure"]
            resolved = ExperimentConfig(preset=entry["preset"], overrides=overrides).resolved()
            for key, value in entry["parameters"].items():
                if isinstance(value, tuple):
                    assert tuple(resolved[key]) == value
                else:
                    assert resolved[key] == value


class TestConfig:
    def test_unknown_key_rejected(self):
        config = ExperimentConfig(preset="fig-coeffs-stable", overrides={"frobnicate": "1"})
        with pytest.raises(ValidationError):
            config.resolved()

    def test_key_not_used_by_preset_rejected(self):
        config = ExperimentConfig(preset="fig-coeffs-stable", overrides={"t_list": "1,2"})
        with pytest.raises(ValidationError):
            config.resolved()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(preset="fig-nope", overrides={}).resolved()

    def test_coercions(self):
        assert _coerce("n", "12") == 12
        assert _coerce("bracket", "0.5,2.5") == (0.5, 2.5)
        assert _coerce("t_list", "1,2.5,3") == [1.0, 2.5, 3.0]
        assert _coerce("sigma_list", "0.1, 0.5") == ["0.1", "0.5"]
        assert _coerce("sigma", "0.5") == "0.5"
        assert _coerce("t_list", "100,,200") == [100.0, 200.0]
        assert _coerce("stability_threshold", "0.5") == 0.5
        assert _coerce("n_terms", "30") == 30
        assert _coerce("t", 100.0) == 100.0
        assert _coerce("t", "1000.5") == 1000.5
        assert type(_coerce("t", "100")) is int

    @pytest.mark.parametrize(
        "key,raw",
        [("n", "abc"), ("t", "1e3x"), ("b", "abc"), ("bracket", "1"), ("bracket", "1,x"),
         ("t_list", "100,,abc"), ("sigma_list", "0.3,abc"), ("t", float("inf")),
         ("t", "nan"), ("b", float("nan")), ("stability_threshold", "nan"),
         ("bracket", "0.1,inf"), ("t_list", [100.0, float("nan")]), ("sigma_list", "0.3,nan"),
         ("sigma", "nan"), ("t1", "inf"), ("t_list", ","), ("sigma_list", " , "),
         ("t_list", [])],
    )
    def test_bad_coercion_names_key(self, key, raw):
        with pytest.raises(ValidationError, match=key):
            _coerce(key, raw)

    def test_seed_is_not_a_key(self):
        config = ExperimentConfig(preset="fig-eps-vs-b", overrides={"seed": "1"})
        with pytest.raises(ValidationError):
            config.resolved()

    def test_config_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nn = 12\n\ndigits=30\nt1 = 31.41592653\n")
        assert parse_config_file(cfg) == {"n": "12", "digits": "30", "t1": "31.41592653"}

    def test_config_file_rejects_garbage(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a key value line\n")
        with pytest.raises(ValidationError):
            parse_config_file(cfg)


@pytest.mark.slow
class TestRunPreset:
    def test_solve_preset_outputs(self, tmp_path):
        config = ExperimentConfig(preset="fig-coeffs-stable", overrides=dict(TINY_SOLVE))
        manifest = run_preset(config, tmp_path)
        assert (tmp_path / "coeffs.csv").exists()
        assert (tmp_path / "diagnostics.jsonl").exists()
        assert (tmp_path / "manifest.json").exists()
        header, *rows = (tmp_path / "coeffs.csv").read_text().splitlines()
        assert header == "n,re_delta,im_delta"
        assert len(rows) == 12
        diag = json.loads((tmp_path / "diagnostics.jsonl").read_text())
        assert "residual_inf" in diag and "im_stability" in diag

    def test_manifest_lists_every_output_with_checksum(self, tmp_path):
        config = ExperimentConfig(preset="fig-eps-vs-b", overrides=dict(TINY_CAL))
        manifest = run_preset(config, tmp_path)
        on_disk = {p.name for p in tmp_path.iterdir()}
        assert set(manifest.outputs) | {"manifest.json"} == on_disk
        for name, digest in manifest.outputs.items():
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        saved = json.loads((tmp_path / "manifest.json").read_text())
        assert saved["preset"] == "fig-eps-vs-b"
        assert saved["config"]["t"] == 100
        assert saved["version"]

    def test_reruns_byte_identical(self, tmp_path):
        config = ExperimentConfig(preset="fig-eps-vs-b", overrides=dict(TINY_CAL))
        first = tmp_path / "a"
        second = tmp_path / "b"
        m1 = run_preset(config, first)
        m2 = run_preset(config, second)
        assert m1.outputs == m2.outputs  # equal sha256 for every file
        for name in m1.outputs:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_spiral_preset_with_explicit_scale(self, tmp_path):
        config = ExperimentConfig(
            preset="fig-spiral-raw", overrides={"t": "50", "digits": "20", "b": "1.2"}
        )
        manifest = run_preset(config, tmp_path)
        assert "spiral.svg" in manifest.outputs
        svg = (tmp_path / "spiral.svg").read_text()
        assert svg.startswith("<?xml") and "<polyline" in svg
        header, *rows = (tmp_path / "spiral.csv").read_text().splitlines()
        assert header == "k,re,im"
        meta = json.loads((tmp_path / "spiral.json").read_text())
        assert meta["n_terms"] == len(rows)

    def test_sigmoid_preset(self, tmp_path):
        overrides = dict(TINY_SOLVE)
        config = ExperimentConfig(preset="fig-sigmoid", overrides=overrides)
        manifest = run_preset(config, tmp_path)
        assert {"coeffs.csv", "diagnostics.jsonl", "sigmoid.csv", "fit.json"} <= set(
            manifest.outputs
        )
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["b_param"] > 0

    def test_nhat_sweep_preset(self, tmp_path):
        config = ExperimentConfig(
            preset="fig-nhat-sweep",
            overrides={"n": "16", "digits": "30", "t_list": "31.41592653,37.69911184"},
        )
        run_preset(config, tmp_path)
        header, *rows = (tmp_path / "nhat_sweep.csv").read_text().splitlines()
        assert header == "t1,n_hat_star,n_hat_formula,mean_t_over_t1,im_stability"
        assert len(rows) == 2

    def test_power_law_preset_small(self, tmp_path):
        config = ExperimentConfig(
            preset="fig-b-power-law",
            overrides={"t_list": "100,200,400", "digits": "20"},
        )
        manifest = run_preset(config, tmp_path)
        fit = json.loads((tmp_path / "powerfit.json").read_text())
        assert 0 < fit["r_squared"] <= 1
        assert "accuracy.csv" in manifest.outputs

    def test_jobs_parallel_sweep_matches_serial(self, tmp_path):
        # a t sweep and a sigma sweep both go through the shared pool path
        cases = {
            "fig-eps-vs-t": {"t_list": "100,150", "digits": "20"},
            "fig-b-sigma": {"sigma_list": "0.3,0.5,0.7", "t": "100", "digits": "20"},
        }
        for preset, overrides in cases.items():
            serial = run_preset(
                ExperimentConfig(preset=preset, overrides=dict(overrides)),
                tmp_path / preset / "serial",
                jobs=1,
            )
            parallel = run_preset(
                ExperimentConfig(preset=preset, overrides=dict(overrides)),
                tmp_path / preset / "parallel",
                jobs=2,
            )
            assert serial.outputs == parallel.outputs

    @pytest.mark.parametrize(
        "preset,overrides",
        [("fig-coeffs-stable", TINY_SOLVE),
         ("fig-nhat-sweep", {"n": "12", "digits": "30", "t_list": "31.41592653"})],
        ids=["coeffs", "nhat-sweep"],
    )
    def test_crossing_bug_is_not_written_as_data(self, tmp_path, monkeypatch, preset, overrides):
        def broken(cs):
            raise RuntimeError("bug in half_crossing")

        monkeypatch.setattr(experiments, "half_crossing", broken)
        with pytest.raises(RuntimeError):
            run_preset(ExperimentConfig(preset=preset, overrides=dict(overrides)), tmp_path)

    def test_spiral_n_terms_skips_calibration(self, tmp_path, monkeypatch):
        def no_calibration(*args):
            raise AssertionError("raw spiral with n_terms must not calibrate")

        monkeypatch.setattr(experiments, "calibrate_b", no_calibration)
        config = ExperimentConfig(
            preset="fig-spiral-raw", overrides={"t": "50", "digits": "20", "n_terms": "30"}
        )
        run_preset(config, tmp_path)
        assert len((tmp_path / "spiral.csv").read_text().splitlines()) == 31
        meta = json.loads((tmp_path / "spiral.json").read_text())
        assert meta["n_terms"] == 30 and meta["b_used"] is None

    def test_two_sigma_cd_fit_reports_error(self, tmp_path):
        config = ExperimentConfig(
            preset="fig-c-d-sigma",
            overrides={"sigma_list": "0.3,0.5", "t_list": "100,200", "digits": "20"},
        )
        run_preset(config, tmp_path)
        fits = json.loads((tmp_path / "expfits.json").read_text())
        assert set(fits) == {"c_coef", "d_exp"}
        assert all("error" in fit for fit in fits.values())
