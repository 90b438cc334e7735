"""Command-line front end.

Exit codes: 0 success, 2 validation error (bad flags/config), 3 numerical
failure (pole, singular system, unreachable precision, ...).

The experiment subcommands are shortcuts for `run <preset>`: each passes its
flags, as text, as overrides of one preset, so it writes that preset's files
and manifest.json. A flag left out keeps the preset's default.
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
    parse_config_file,
    run_preset,
    sigmoid_outputs,
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


# options shared by the preset shortcuts; each flag is named after its preset key
# and passed on as text, so `run --set` parses it
_sigma = click.option("--sigma")
_t = click.option("--t", required=True)
_bracket = click.option("--bracket")
_digits = click.option("--digits")
_output_dir = click.option("--output-dir", default=".", show_default=True)


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


@main.command("solve-coeffs")
@_sigma
@click.option("--t1", required=True)
@click.option("--dt", required=True)
@click.option("--n")
@_digits
@click.option("--stability-threshold")
@_output_dir
@_numerics_exit
def solve_coeffs(output_dir, **flags):
    """Shortcut for `run fig-coeffs-stable`: coeffs.csv + diagnostics.jsonl."""
    _run("fig-coeffs-stable", flags, output_dir)


def _load_coeff_csv(path: Path, digits: int) -> CoefficientSet:
    ctx = PrecisionContext(digits)
    deltas = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"n", "re_delta", "im_delta"} <= set(reader.fieldnames):
            raise ValidationError(f"{path}: expected columns n,re_delta,im_delta")
        for row in reader:
            deltas.append(make_complex(row["re_delta"], row["im_delta"], ctx))
    if not deltas:
        raise ValidationError(f"{path}: no coefficient rows")
    return CoefficientSet(
        deltas=tuple(deltas), residual_inf=ctx.real(0), im_stability=ctx.real(0)
    )


@main.command("fit-sigmoid")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--digits", default=50, show_default=True, help="parse precision for the CSV")
@_output_dir
@_numerics_exit
def fit_sigmoid(input_path: Path, digits: int, output_dir):
    """Fit the sigmoid to a coefficient CSV; write sigmoid.csv + fit.json."""
    digits = PARAMS["digits"].read("digits", str(digits))
    outputs = sigmoid_outputs(_load_coeff_csv(input_path, digits), digits)
    _echo_outputs(write_outputs(outputs, output_dir))


@main.command("search-b")
@_sigma
@_t
@_bracket
@_digits
@_output_dir
@_numerics_exit
def search_b(output_dir, **flags):
    """Shortcut for `run fig-eps-vs-b`: calibration.json + trace.csv."""
    _run("fig-eps-vs-b", flags, output_dir)


@main.command("scaling-law")
@_sigma
@click.option("--t-list", required=True, help="comma-separated ordinates")
@_bracket
@_digits
@_output_dir
@_numerics_exit
def scaling_law(output_dir, **flags):
    """Shortcut for `run fig-b-power-law`: accuracy.csv + powerfit.json."""
    _run("fig-b-power-law", flags, output_dir)


@main.command("sigma-law")
@_t
@click.option("--sigma-list", required=True, help="comma-separated real parts")
@_bracket
@_digits
@_output_dir
@_numerics_exit
def sigma_law(output_dir, **flags):
    """Shortcut for `run fig-b-sigma`: b_sigma.csv + expfit.json."""
    _run("fig-b-sigma", flags, output_dir)


@main.command("spiral")
@_sigma
@_t
@click.option("--weighted", is_flag=True, default=False)
@click.option("--b", help="scale factor; calibrated when omitted")
@click.option("--n-terms", help="defaults to twice the truncation length")
@_digits
@_output_dir
@_numerics_exit
def spiral(weighted, output_dir, **flags):
    """Shortcut for `run fig-spiral-raw` (`fig-spiral-weighted` with --weighted)."""
    _run("fig-spiral-weighted" if weighted else "fig-spiral-raw", flags, output_dir)


@main.command("run")
@click.argument("preset")
@click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path), default=None)
@click.option("--set", "assignments", multiple=True, help="override as key=value (repeatable)")
@click.option("--output-dir", default=".", show_default=True)
@click.option("--jobs", default=1, show_default=True)
@_numerics_exit
def run_cmd(preset, config_path, assignments, output_dir, jobs):
    """Run a named preset; write its outputs and manifest.json."""
    overrides = {}
    if config_path is not None:
        overrides.update(parse_config_file(config_path))
    for assignment in assignments:
        if "=" not in assignment:
            raise ValidationError(f"--set expects key=value, got {assignment!r}")
        key, _, value = assignment.partition("=")
        overrides[key.strip()] = value.strip()
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


if __name__ == "__main__":
    main()
