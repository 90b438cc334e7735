"""Guards for names that code outside the package depends on.

The benchmark tracer in perfbench/spans.py swaps module-level names of
zetalab for timing wrappers; a refactor that drops one of them would only
fail in the traced benchmark run, so it is checked here, by file path.
The calibrate workload's check in perfbench/workloads.py reads the coarse
scan's ends out of a calibration's trace, so the trace layout it assumes is
checked too.  The preset parameter schema is guarded against keys it does
not declare, declarations no preset uses, and a README key table that
drifts from it.  README's Library example may import only public names, so
an API removal cannot leave it broken.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import zetalab
from zetalab import PrecisionContext, experiments, make_complex, series, solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")
README = SPANS.parents[1] / "README.md"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_patch_targets_resolve():
    for module, name, span, _ in _spans().LAYER_PATCHES:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name} for {span}"


def test_calibrate_check_reads_the_coarse_scan_ends(monkeypatch):
    # workloads.py imports its sibling as the top-level module `spans`, and
    # its dataclasses look their own module up while it loads
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", _spans())
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads._COARSE_SAMPLES == series.COARSE_SAMPLES
    ctx = PrecisionContext(15)
    trace = series.calibrate_b(make_complex("0.5", "30", ctx), ctx).trace
    assert (trace[0][0], trace[series.COARSE_SAMPLES - 1][0]) == series.DEFAULT_BRACKET


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


def test_readme_key_table_matches_schema():
    section = README.read_text(encoding="utf-8").split("### Preset keys\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    assert sorted(rows) == sorted(experiments.PARAMS)


def test_readme_library_example_imports_public_names():
    section = README.read_text(encoding="utf-8").split("## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "zetalab"
        for alias in node.names
    ]
    assert names, "no `from zetalab import` in README's Library example"
    assert [name for name in names if name not in zetalab.__all__] == []
