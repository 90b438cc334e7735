"""Guards for names that code outside the package depends on.

The benchmark tracer in perfbench/spans.py swaps module-level names of
zetalab for timing wrappers; a refactor that drops one of them would only
fail in the traced benchmark run, so it is checked here, by file path.
The preset parameter schema is guarded against keys it does not declare
and declarations no preset uses.
"""

import importlib.util
from pathlib import Path

import zetalab
from zetalab import PrecisionContext, experiments, solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_patch_targets_resolve():
    for module, name, span, _ in _spans().LAYER_PATCHES:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name} for {span}"


def test_public_names_resolve():
    assert [name for name in zetalab.__all__ if not hasattr(zetalab, name)] == []


def test_eliminate_counts_read_a_real_call():
    # the tracer counts multiply-subtracts from the arguments after the call,
    # so the kernel must leave its first argument as it was
    mp = PrecisionContext(30)._mp
    matrix = [[mp.mpc(1 + r * c + 4 * (r == c), r - c) for c in range(3)] for r in range(3)]
    rhs = [mp.mpc(1, r) for r in range(3)]
    args = (matrix, rhs, mp, mp.mpf(10) ** -25)
    before = [row[:] for row in matrix]
    result = solver._eliminate(*args)
    assert len(result) == 3 and matrix == before
    assert _spans().eliminate_counts(result, args) == {"solver.eliminate.mulsub": 11}


def test_preset_keys_match_schema():
    used = {key for preset in experiments._PRESETS.values() for key in preset.defaults}
    assert used - set(experiments.PARAMS) == set(), "preset keys without a schema entry"
    assert set(experiments.PARAMS) - used == set(), "schema entries no preset uses"
    for name, preset in experiments._PRESETS.items():
        assert set(preset.min_entries) <= set(preset.defaults), name
