"""SHA-256 of every data file of the 14 presets at small overrides.

The digests were recorded from the code before the change that added this
file; a refactor that is meant to keep output bytes must keep them.  The
calibration presets' digests were re-recorded when Brent's minimiser
replaced golden-section refinement in calibrate_b.  The
manifest records wall time, so it is not pinned.
"""

import pytest

from zetalab.experiments import ExperimentConfig, preset_names, run_preset

_GRID = {"t1": "31.41592653", "dt": "0.62831853", "n": "16", "digits": "30"}
_CAL = {"digits": "20"}

OVERRIDES = {
    "fig-coeffs-stable": _GRID,
    "fig-coeffs-left": dict(_GRID, t1="28.27433388", dt="0.78539816"),
    "fig-coeffs-right": dict(_GRID, t1="34.55751919", dt="0.52359878"),
    "fig-precision-90": dict(_GRID, digits="25"),
    "fig-precision-50": dict(_GRID, n="12", digits="20"),
    "fig-sigmoid": _GRID,
    "fig-nhat-sweep": {"t_list": "31.41592653,34.55751919", "dt": "0.62831853", "n": "16",
                       "digits": "30"},
    "fig-eps-vs-b": dict(_CAL, t="100"),
    "fig-eps-vs-t": dict(_CAL, t_list="100,200"),
    "fig-b-power-law": dict(_CAL, t_list="100,200,300"),
    "fig-c-d-sigma": dict(_CAL, sigma_list="0.3,0.5,0.7", t_list="100,200"),
    "fig-b-sigma": dict(_CAL, sigma_list="0.3,0.5,0.7", t="100"),
    "fig-spiral-raw": dict(_CAL, t="100"),
    "fig-spiral-weighted": dict(_CAL, t="100"),
}

DIGESTS = {
    "fig-coeffs-stable": {
        "coeffs.csv": "ce8be0650b22b99ff5c0adb198ecc817661f628de1bc3302443c16b08b8e7466",
        "diagnostics.jsonl": "f0d90bd9c889035988bc5adeb6c08b963721240f86be83726d84156558861c09",
    },
    "fig-coeffs-left": {
        "coeffs.csv": "da6a6a94c59fca9c57d9501c9d998e1dd925496158a2361ba53a17c66e79dd81",
        "diagnostics.jsonl": "8e317042becfc06137a6579625939e949298a979c72f5f7a1772dbb4e4c01cdb",
    },
    "fig-coeffs-right": {
        "coeffs.csv": "b7209b295bc7fbe73a3afbe8c4bf926571f97ae337811d0f7689040ddcc28d94",
        "diagnostics.jsonl": "e3792e0d54ed6582cb36f0c83d2c14efb04b2e068e03eae2ec51e2f3d3cff687",
    },
    "fig-precision-90": {
        "coeffs.csv": "b0463ffef8d1a4553698ba85dfb75bfa0b0f3d7e3c54206de1ec60db698767d1",
        "diagnostics.jsonl": "71c2278dca0459a7d1393c6f6b6c5b802f27e6b73fda53007fc2f0927d0e3d8b",
    },
    "fig-precision-50": {
        "coeffs.csv": "e1b847abc66029ee8b3d17b681ac572baf676cd00ba3d5efa8284ec674f45233",
        "diagnostics.jsonl": "cb7803911555b6d5ab2230b44fc27d453f0586d13e99694534a0f2de14b062ee",
    },
    "fig-sigmoid": {
        "coeffs.csv": "ce8be0650b22b99ff5c0adb198ecc817661f628de1bc3302443c16b08b8e7466",
        "diagnostics.jsonl": "f0d90bd9c889035988bc5adeb6c08b963721240f86be83726d84156558861c09",
        "sigmoid.csv": "108a7ecd65f1ca7b2291e4d917550c3ce4992fa1eeb9ac8a488411e27c0a837b",
        "fit.json": "1dcda8cd52dc896b1f7933dfcbcf41a0f9c326fe3bd3b9cd05d2f10da6b9ed56",
    },
    "fig-nhat-sweep": {
        "nhat_sweep.csv": "0634005570d5d4d6f9638725a0f7ff987cebaffafd4d44c978cae59b14391294",
    },
    "fig-eps-vs-b": {
        "trace.csv": "8d643ccc6af150bf2f9c5d5889825c18acf4e872e08fdac469e28d59eb668706",
        "calibration.json": "ce76a06242eb2a7792154ab38299dc286b296135a2edfcd2c5e9d486703efde3",
    },
    "fig-eps-vs-t": {
        "accuracy.csv": "ea7e74da0ca04ffff09f1b8d9ad019cbd61f4d33072b8ed75b97b2360c16ef92",
    },
    "fig-b-power-law": {
        "accuracy.csv": "0163c5f7d1b7d60f7422ad6f5c3413abf9bc0e91abc559bb8ef013e7931f5aec",
        "powerfit.json": "a6224c35e36b1a99cb08bd28d231b44a13353d844fb91cdf73820d805578d005",
    },
    "fig-c-d-sigma": {
        "cd_sigma.csv": "6b8b0648667535586e5b1cd2f9c10f914416c92c3e0709d49466d52ce05c1e54",
        "expfits.json": "c771589dad859d9a35dd45f29a120c31f88716966f682a6d8d3ba2fe985b0f48",
    },
    "fig-b-sigma": {
        "b_sigma.csv": "a82fd36e71863cb6422b960aef47eb7c39a02487e17dcdadfd4ce065fcf95d8d",
        "expfit.json": "f715b8cf0103c73c00b79da92c3394b908b31be95dd65355388f9eca531b8f9e",
    },
    "fig-spiral-raw": {
        "spiral.csv": "db1460152d93febe8dda9d114dd50df88330007266e6477c39c79942fee5b451",
        "spiral.svg": "01c837da3e0b5b39688c7726ed4c8ff3389c46042483ba5e6a878fe62abf8f77",
        "spiral.json": "55cbb19b74804a6d485365fd3a24228313bbe76971a6f88d9ad4ca20c416138d",
    },
    "fig-spiral-weighted": {
        "spiral.csv": "d7619a53efc2cdeed5af88649f765c8674801c28fc89022ee2ef2e821803ec55",
        "spiral.svg": "16ba83a5e817ea68a0d3d21a71002dd40fd5e7d0fa38df9c0b10651a8e64fe55",
        "spiral.json": "1916bab7a5fc126135c36ba45c2fef853b6cf525de7e2059ebbd6eac43c8b1c3",
    },
}


def test_every_preset_is_pinned():
    assert sorted(OVERRIDES) == sorted(preset_names()) == sorted(DIGESTS)


@pytest.mark.parametrize("preset", list(OVERRIDES))
def test_data_files_keep_their_bytes(tmp_path, preset):
    manifest = run_preset(ExperimentConfig(preset, dict(OVERRIDES[preset])), tmp_path)
    assert manifest.outputs == DIGESTS[preset]
