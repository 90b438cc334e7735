"""Guards for names that code outside the package depends on.

The benchmark tracer in perfbench/spans.py swaps module-level names of
zetalab for timing wrappers; a refactor that drops one of them would only
fail in the traced benchmark run, so it is checked here, by file path.
The calibrate workload's check in perfbench/workloads.py reads the coarse
scan's ends out of a calibration's trace, so the trace layout it assumes is
checked too.  The preset parameter schema is guarded against keys it does
not declare, declarations no preset uses, and a README key table that
drifts from it.  README's Library example may import only public names, and
it must run, so an API change cannot leave it broken, and every `module.name`
README quotes must resolve, so a move cannot leave it naming nothing.  Only
precision.py words a check of a scalar's sign or finiteness, so no module
hand-rolls one beside require_count and require_real.  No linter is
installed, so a module that imports a name it never reads fails here.  A CLI
start loads neither concurrent.futures nor logging, which only a worker pool
needs.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _workloads(monkeypatch):
    # workloads.py imports its sibling as the top-level module `spans`, and
    # its dataclasses look their own module up while it loads
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", _spans())
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_grid_pin_matches_the_default_digests(monkeypatch):
    # grid-solve checks its paper pass against GRID_SHA256, a copy of these
    # rows: a change to grid bytes fails here, not only in the benchmark
    from .test_golden_presets import DEFAULT_DIGESTS

    pin = _workloads(monkeypatch).GRID_SHA256
    assert pin == {name: DEFAULT_DIGESTS[name] for name in pin}


def test_calibrate_check_reads_the_coarse_scan_ends(monkeypatch):
    workloads = _workloads(monkeypatch)
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


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_imports_public_names():
    code = _library_example()
    names = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "zetalab"
        for alias in node.names
    ]
    assert names, "no `from zetalab import` in README's Library example"
    assert [name for name in names if name not in zetalab.__all__] == []


def test_readme_module_names_resolve():
    # file names such as `spiral.json`, and the names README lists as removed, are no attributes
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    removed = text.split("Removed from the API", 1)[1].split("\n\n", 2)[1]
    skipped = set(re.findall(r"^- `([^`]+)`", removed, re.MULTILINE))
    modules = {path.stem for path in Path(zetalab.__file__).parent.glob("*.py")} - {"__init__"}
    missing, seen = [], 0
    for span in set(re.findall(r"`([^`]+)`", text)) - skipped:
        match = re.match(r"(?:zetalab\.)?(\w+)\.(\w+(?:\.\w+)*)", span)
        if not match or match[1] not in modules or match[2] in ("csv", "json", "jsonl", "svg"):
            continue
        seen += 1
        obj = importlib.import_module(f"zetalab.{match[1]}")
        for attr in match[2].split("."):
            obj = getattr(obj, attr, missing)
        if obj is missing:
            missing.append(span)
    assert seen > 10 and missing == []


@pytest.mark.slow
def test_readme_library_example_runs(capsys):
    # one P = 100 grid and one calibration, about 2 s
    exec(compile(_library_example(), str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_modules_read_every_name_they_import():
    # __init__ re-exports its imports; solver's power_term is the tracer's patch target
    unread = []
    for path in sorted(Path(zetalab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.name}: {name}" for name in sorted(imported - read)]
    exempt = [f"__init__.py: {name}" for name in zetalab.__all__] + ["solver.py: power_term"]
    assert [entry for entry in unread if entry not in exempt] == []


def test_cli_import_loads_no_pool_modules():
    # a fresh interpreter: this one may have loaded them for pytest itself
    code = (
        "import sys, zetalab, zetalab.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
    )
    src = str(Path(zetalab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stdout.strip()) == (0, "[]"), out.stderr


def test_only_precision_checks_a_scalar_by_hand():
    pattern = re.compile(r"must be (> |>= |finite)|not a finite number")
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(zetalab.__file__).parent.glob("*.py"))
        if path.name != "precision.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if pattern.search(line)
    ]
    assert hits == [], "route the check through precision.require_count or require_real"
