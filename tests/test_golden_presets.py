"""SHA-256 of every data file of the 14 presets at small overrides.

The digests were recorded from the code before the change that added this
file; a refactor that is meant to keep output bytes must keep them.  The
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
        "trace.csv": "e157ce2c6e738fd0bb7cf34577dcfa8832654b73ada541bc19f114ca1da144b7",
        "calibration.json": "837ebbf1384f51c329b49f4ad63f5183bf9eb03a53abbf44117bb8017b787199",
    },
    "fig-eps-vs-t": {
        "accuracy.csv": "3c39749884494ca11784404d337e676ad5c6d871f229bb8a291a7c275ce43711",
    },
    "fig-b-power-law": {
        "accuracy.csv": "79f37de1523eef699080de6b2a30c622d31931631767cd7abf6568afce9dc41e",
        "powerfit.json": "e065e64b957c65f48860291189a410a275e39f1bf522fc26dba6f90db38aa8f5",
    },
    "fig-c-d-sigma": {
        "cd_sigma.csv": "e88e0d9e05eec13566489923d717c29c767da643f678ba335e3a823edfef249e",
        "expfits.json": "51215ec51049fa93953f92d86ea4a5e3348b6786941b7598f4048f109aa22398",
    },
    "fig-b-sigma": {
        "b_sigma.csv": "ef81c2c383a548ae3e681ff8cde1fdcbaf4b042897fca6848e379dfb0e84b754",
        "expfit.json": "8a9c499890bc1dfbce7e61b90baa17dcec271d10c5adad0b66ce8e84c9146a12",
    },
    "fig-spiral-raw": {
        "spiral.csv": "db1460152d93febe8dda9d114dd50df88330007266e6477c39c79942fee5b451",
        "spiral.svg": "01c837da3e0b5b39688c7726ed4c8ff3389c46042483ba5e6a878fe62abf8f77",
        "spiral.json": "55cbb19b74804a6d485365fd3a24228313bbe76971a6f88d9ad4ca20c416138d",
    },
    "fig-spiral-weighted": {
        "spiral.csv": "78527c2d201f5d0faedfa73779195ee6fd5c49ede276f574b7a4cfd6be6c89dc",
        "spiral.svg": "16ba83a5e817ea68a0d3d21a71002dd40fd5e7d0fa38df9c0b10651a8e64fe55",
        "spiral.json": "b5ec3dce3cb3e0e0b28da7d6fb800a4c7b6b621cfd4ed2bea4b0c14e0bbccd09",
    },
}


def test_every_preset_is_pinned():
    assert sorted(OVERRIDES) == sorted(preset_names()) == sorted(DIGESTS)


@pytest.mark.parametrize("preset", list(OVERRIDES))
def test_data_files_keep_their_bytes(tmp_path, preset):
    manifest = run_preset(ExperimentConfig(preset, dict(OVERRIDES[preset])), tmp_path)
    assert manifest.outputs == DIGESTS[preset]
