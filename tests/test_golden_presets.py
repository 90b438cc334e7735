"""SHA-256 of every data file of the 14 presets, at small overrides and at
their defaults.

The digests were recorded from the code before the change that added each
table; a refactor that is meant to keep output bytes must keep them.  The
calibration presets' override digests were re-recorded when Brent's
minimiser replaced golden-section refinement in calibrate_b.  The defaults
reach rows the overrides do not (grid rows past 16, calibrations at large
t), so they are pinned too; running all 14 takes about 20 s with two
workers.  The manifest records wall time, so it is not pinned.
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

DEFAULT_DIGESTS = {
    "fig-coeffs-stable": {
        "coeffs.csv": "9b02a39e85c73872504438293d05307a61c92eca44f8c0ad3aba48a70bd626c4",
        "diagnostics.jsonl": "d9c642f3aa031052fcaa78b152e14a36b7b7cebc7035953191bb60b4cac78071",
    },
    "fig-coeffs-left": {
        "coeffs.csv": "d134aa60635e395f87bcfda2d957c217ddcd418f6a4a01240182fd7c8bea5696",
        "diagnostics.jsonl": "4b5c7bf2438031f239a14ccbfba4eb1449183c09afd47d246835797ddf4483f3",
    },
    "fig-coeffs-right": {
        "coeffs.csv": "bfe83544e60986bdf446e85552b9a7d75945ee6cd54ad5b5710d858415f37ba7",
        "diagnostics.jsonl": "86a6a8d40f3d909809ca8d152fb69213b4d4d1be7ff0dc081b8135b61752869a",
    },
    "fig-precision-90": {
        "coeffs.csv": "6896a9d85f88398156c4caa737325a1d91ec6d73d64be052460441bddad82510",
        "diagnostics.jsonl": "00a5b313bf02e485c209f11c266b547da1fc5ed58012ffe4afaed73582c0bbb9",
    },
    "fig-precision-50": {
        "coeffs.csv": "705a9ddf5c448d37eb758f795bffb71bac23ab93f0d7c14cd2e6881f79e1736f",
        "diagnostics.jsonl": "66b1ba3f79730c1b75c742b3b138402ccfac691215ce1d63c2b85de775e7dbad",
    },
    "fig-sigmoid": {
        "coeffs.csv": "9b02a39e85c73872504438293d05307a61c92eca44f8c0ad3aba48a70bd626c4",
        "diagnostics.jsonl": "d9c642f3aa031052fcaa78b152e14a36b7b7cebc7035953191bb60b4cac78071",
        "sigmoid.csv": "30b0dfd9fff3912e15b69c12d4ad49ab2a574ec877534f53940bf227e39767dc",
        "fit.json": "109405faa9f2cb2d317ce148b4885b385ccc15c35da242a0a79ec22067d3206e",
    },
    "fig-nhat-sweep": {
        "nhat_sweep.csv": "793f6edfdd296e855b6df51f0596085a9c2ee08753a28845a94eefa99625ca87",
    },
    "fig-eps-vs-b": {
        "trace.csv": "95801d6c92d4da08afd660f669076e781feb1cf1169f013f401761e360559687",
        "calibration.json": "388e0b748a53640be88e7c4779c67f2f641cc42a0663e909cb43cbfdfabb9430",
    },
    "fig-eps-vs-t": {
        "accuracy.csv": "7267bf62264d0c5f1ecb7943398128379fa16a683e62b49090d335001c91f62a",
    },
    "fig-b-power-law": {
        "accuracy.csv": "609f9ec4c7e8c64be51dd47bfdda03d97d21dd4dd4bf0769df2e1b16a249ab1d",
        "powerfit.json": "af74ce4229bde84f2652937312dd6d718daef2c5371ec0e4ea0640f3d9a081d6",
    },
    "fig-c-d-sigma": {
        "cd_sigma.csv": "3bbf03e50f2c74fd07370bc00fe7d0ad2827d7cf4666f33b8fecada27cddfe39",
        "expfits.json": "b5cd439acc229054993d860500d70dc096aaa5235a0f3aa5a3821265f2a4646b",
    },
    "fig-b-sigma": {
        "b_sigma.csv": "dd030f97735b123824e4e3e14f88320c46fe45d6fd95de2343314bcdf36c7107",
        "expfit.json": "0d63713233077e0b978abef9239e586be5055d6881dfb2be301d0f657e926db3",
    },
    "fig-spiral-raw": {
        "spiral.csv": "00a4d58454befcc652843c1cbf3bb83f4d0c5e24860d6a96c5acebc75a931845",
        "spiral.svg": "620ef9d6213996b2020d9c78a537f00e7d446299aba235397b36cfda82662420",
        "spiral.json": "cc300fb5384ae541612d73cfc3d9f1692f4cf67d103e2ea88f5ffdc7af7bdb31",
    },
    "fig-spiral-weighted": {
        "spiral.csv": "736221514661d5306db75be2754c8a058cd5b78ae4cb0908a12b824e06d44371",
        "spiral.svg": "fec13220b6f53937f6033df4efa7653698a8e736cfb4fbd92fe5dd616532b2ae",
        "spiral.json": "72225000d373cdedfcd483a14449d9c33ce771add3719bb5f279e61af2e9ab15",
    },
}


def test_every_preset_is_pinned():
    assert sorted(OVERRIDES) == sorted(preset_names()) == sorted(DIGESTS) == sorted(DEFAULT_DIGESTS)


@pytest.mark.parametrize("preset", list(OVERRIDES))
def test_data_files_keep_their_bytes(tmp_path, preset):
    manifest = run_preset(ExperimentConfig(preset, dict(OVERRIDES[preset])), tmp_path)
    assert manifest.outputs == DIGESTS[preset]


@pytest.mark.slow
@pytest.mark.parametrize("preset", list(DEFAULT_DIGESTS))
def test_default_data_files_keep_their_bytes(tmp_path, preset):
    manifest = run_preset(ExperimentConfig(preset, {}), tmp_path, jobs=2)
    assert manifest.outputs == DEFAULT_DIGESTS[preset]
