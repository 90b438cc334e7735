"""Guards for names that code outside the package depends on.

The benchmark tracer in perfbench/spans.py swaps module-level names of
zetalab for timing wrappers; a refactor that drops one of them would only
fail in the traced benchmark run, so it is checked here, by file path.
"""

import importlib.util
from pathlib import Path

import zetalab

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_patch_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, name, span, _ in spans.LAYER_PATCHES:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name} for {span}"


def test_public_names_resolve():
    assert [name for name in zetalab.__all__ if not hasattr(zetalab, name)] == []
