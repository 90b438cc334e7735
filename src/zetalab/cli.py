"""Command-line front end.

Exit codes: 0 success, 2 validation error (bad flags/config), 3 numerical
failure (pole, singular system, unreachable precision, ...).

The experiment subcommands, built from SHORTCUTS, are shortcuts for `run
<preset>`: one flag per preset key, passed on as text to override that key,
so each writes its preset's files and manifest.json. A flag left out keeps
the preset's default.
"""

from __future__ import annotations

import csv
import functools
import sys
from pathlib import Path

import click

from . import __version__
from .errors import NumericalError, ValidationError
from .experiments import (
    PARAMS,
    SIGMA_MAX,
    T_MAX,
    ExperimentConfig,
    list_presets,
    make_output_dir,
    parse_config_file,
    preset_keys,
    read_utf8,
    run_preset,
    sigmoid_outputs,
    split_assignment,
    write_outputs,
)
from .precision import ComplexAP, PrecisionContext, make_complex, to_string
from .oracle import zeta as zeta_eval_op
from .solver import CoefficientSet


def _numerics_exit(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _parse_s(text: str, ctx: PrecisionContext) -> ComplexAP:
    try:
        re_part, im_part = text.split(",")
    except ValueError as exc:
        raise ValidationError(f"--s expects 're,im', got {text!r}") from exc
    s = make_complex(re_part.strip(), im_part.strip(), ctx)
    if not (abs(s.re) <= SIGMA_MAX and abs(s.im) <= T_MAX):
        raise ValidationError(f"--s expects |re| <= {SIGMA_MAX} and |im| <= {T_MAX}, got {text!r}")
    return s


def _echo_outputs(checksums: dict):
    for filename, digest in sorted(checksums.items()):
        click.echo(f"  {filename}  sha256:{digest[:16]}")


def _run(preset: str, overrides: dict, output_dir, jobs: int = 1):
    manifest = run_preset(ExperimentConfig(preset=preset, overrides=overrides), output_dir, jobs)
    click.echo(f"preset {manifest.preset} done in {manifest.wall_time_s:.1f}s")
    _echo_outputs(manifest.outputs)


# each shortcut command: (the preset it runs, the keys it requires)
SHORTCUTS = {
    "solve-coeffs": ("fig-coeffs-stable", {"t1", "dt"}),
    "search-b": ("fig-eps-vs-b", {"t"}),
    "scaling-law": ("fig-b-power-law", {"t_list"}),
    "sigma-law": ("fig-b-sigma", {"t", "sigma_list"}),
    "spiral": ("fig-spiral-raw", {"t"}),  # --weighted runs fig-spiral-weighted
}

_output_dir = click.option(
    "--output-dir", default=".", show_default=True, type=click.Path(file_okay=False)
)
_input_file = click.Path(exists=True, dir_okay=False, path_type=Path)


@click.group()
@click.version_option(__version__)
def main():
    """Multiprecision laboratory for Dirichlet-series coefficients of zeta."""


@main.group()
def zeta():
    """Reference zeta evaluation."""


@zeta.command("eval")
@click.option("--s", "s_text", required=True, help="complex argument as 're,im'")
@click.option("--digits", default=50, show_default=True, help="decimal digit budget")
@_numerics_exit
def zeta_eval(s_text: str, digits: int):
    """Print zeta(s) as a decimal string with exactly P significant digits."""
    ctx = PrecisionContext(PARAMS["digits"].read("digits", str(digits)))
    result = zeta_eval_op(_parse_s(s_text, ctx), ctx)
    click.echo(to_string(result.value, ctx))


def _load_coeff_csv(path: Path, digits: int) -> CoefficientSet:
    ctx = PrecisionContext(digits)
    reader = csv.DictReader(read_utf8(path).splitlines())
    if reader.fieldnames is None or not {"n", "re_delta", "im_delta"} <= set(reader.fieldnames):
        raise ValidationError(f"{path}: expected columns n,re_delta,im_delta")
    deltas = [make_complex(row["re_delta"], row["im_delta"], ctx) for row in reader]
    if not deltas:
        raise ValidationError(f"{path}: no coefficient rows")
    return CoefficientSet(
        deltas=tuple(deltas), residual_inf=ctx.real(0), im_stability=ctx.real(0)
    )


@main.command("fit-sigmoid")
@click.option("--input", "input_path", required=True, type=_input_file)
@click.option("--digits", default=50, show_default=True, help="parse precision for the CSV")
@_output_dir
@_numerics_exit
def fit_sigmoid(input_path: Path, digits: int, output_dir):
    """Fit the sigmoid to a coefficient CSV; write sigmoid.csv + fit.json."""
    digits = PARAMS["digits"].read("digits", str(digits))
    cs = _load_coeff_csv(input_path, digits)
    out_dir = make_output_dir(output_dir)
    _echo_outputs(write_outputs(sigmoid_outputs(cs, digits), out_dir))


@main.command("run")
@click.argument("preset")
@click.option("--config", "config_path", type=_input_file, default=None)
@click.option("--set", "assignments", multiple=True, help="override as key=value (repeatable)")
@_output_dir
@click.option("--jobs", default=1, show_default=True)
@_numerics_exit
def run_cmd(preset, config_path, assignments, output_dir, jobs):
    """Run a named preset; write its outputs and manifest.json."""
    overrides = {} if config_path is None else parse_config_file(config_path)
    overrides.update(split_assignment(text, "--set") for text in assignments)
    _run(preset, overrides, output_dir, jobs)


@main.command("list-presets")
@_numerics_exit
def list_presets_cmd():
    """Print every preset with its figure and default parameters."""
    for entry in list_presets():
        click.echo(f"preset = {entry['preset']}")
        click.echo(f"figure = {entry['figure']}")
        for key, value in entry["parameters"].items():
            if isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            # a None default has no text form; leave it unset in the stub
            click.echo(f"# {key} = None" if value is None else f"{key} = {value}")
        click.echo("")


def _shortcut(name: str, preset: str, required: set):
    """Add command `name`: one text flag per key of `preset`, run as `run preset`."""

    def command(output_dir, weighted=False, **flags):
        _run("fig-spiral-weighted" if weighted else preset, flags, output_dir)

    command = _output_dir(_numerics_exit(command))
    for key in reversed(preset_keys(preset)):
        flag = f"--{key.replace('_', '-')}"
        command = click.option(flag, required=key in required, help=PARAMS[key].rule)(command)
    if name == "spiral":
        command = click.option("--weighted", is_flag=True, help="run fig-spiral-weighted")(command)
    main.command(name, help=f"Shortcut for `run {preset}`.")(command)


for _name, (_preset, _required) in SHORTCUTS.items():
    _shortcut(_name, _preset, _required)


if __name__ == "__main__":
    main()
