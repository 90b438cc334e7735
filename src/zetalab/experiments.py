"""Named experiment presets with deterministic CSV/SVG/manifest output.

Every preset maps to one figure of the study and writes its data files plus
a manifest echoing the fully resolved configuration with per-file checksums.
Re-running a preset with the same configuration reproduces byte-identical
CSV/SVG outputs (the manifest records wall time and therefore differs).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import time
from collections.abc import Callable
from pathlib import Path

import mpmath

from . import __version__
from .errors import NumericalError, ValidationError
from .precision import MIN_DIGITS, PrecisionContext, _format_real, make_complex
from .sigmoid import construct_fit, sigmoid_eval
from .solver import CoefficientSet, GridSpec, half_crossing, solve_grid
from .series import (
    CALIBRATION_DIGITS,
    DEFAULT_BRACKET,
    N_TERMS_MAX,
    BCalibration,
    calibrate_b,
    fit_power_law,
    fit_sigma_dependence,
    tail_tolerance,
    truncation_length,
)
from .spiral import DISPLAY_DIGITS, raw_partial_sums, weighted_partial_sums
from .svgplot import spiral_svg

# ---------------------------------------------------------------------------
# formatting helpers (all deterministic)


def _f(x) -> str:
    return repr(float(x))


def _csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# configuration: every preset key is declared once, in PARAMS

# Work bounds. The zeta oracle's head runs |t|/2pi to |t|/pi terms and the
# weighted sums about |t|/pi, so t, the t_list entries and a grid's first and
# last ordinates are capped; elimination is O(n^3) multiplications at `digits`
# precision. A far negative sigma lengthens the weighted sums, which stop at
# powers.N_TERMS_MAX terms.
T_MAX = 10**6
N_MAX = 400
DIGITS_MAX = 1000
SIGMA_MAX = 100


class DecimalText(str):
    """A real kept as its decimal text, which each run parses at its own
    precision; `value` is the nearest float, for fits and CSV columns."""

    def __new__(cls, text: str):
        self = super().__new__(cls, text)
        self.value = float(mpmath.mpf(text))
        return self


def _ordinate(text: str) -> int | float:
    """A real ordinate; integral text stays an int, so outputs keep "t": 100."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _positive(value) -> bool:
    return 0 < value < math.inf  # nan fails both comparisons


@dataclasses.dataclass(frozen=True)
class Param:
    """One preset key: how its text parses and which values it accepts."""

    parse: Callable[[str], object]  # one entry of text to int, float or DecimalText
    accepts: Callable[[object], bool]  # each entry's number (a DecimalText's value); false on nan, inf
    rule: str  # what the key expects, as error messages state it
    shape: str = "one"  # "one", "list" (comma-separated, non-empty) or "pair"
    order: str = ""  # "increasing" or "distinct" entries

    def read(self, key: str, text):
        """The key's value parsed from text, or a ValidationError naming the key."""
        error = ValidationError(f"{key} expects {self.rule}, got {text!r}")
        if not isinstance(text, str):
            raise error
        parts = [text] if self.shape == "one" else text.split(",")
        try:
            values = [self.parse(part.strip()) for part in parts if part.strip()]
        except (ValueError, ArithmeticError):
            raise error from None
        numbers = [v.value if isinstance(v, DecimalText) else v for v in values]
        if not (
            values
            and all(self.accepts(number) for number in numbers)
            and (self.shape != "pair" or len(values) == 2)
            and (self.order != "increasing" or all(a < b for a, b in zip(numbers, numbers[1:])))
            and (self.order != "distinct" or len(set(numbers)) == len(numbers))
        ):
            raise error
        if self.shape == "one":
            return values[0]
        return tuple(values) if self.shape == "pair" else values


PARAMS: dict[str, Param] = {
    "sigma": Param(DecimalText, lambda v: abs(v) <= SIGMA_MAX, f"a real with |sigma| <= {SIGMA_MAX}"),
    "t1": Param(DecimalText, lambda v: 0 < v <= T_MAX, f"a real in (0, {T_MAX}]"),
    "dt": Param(DecimalText, _positive, "a positive real"),
    "n": Param(int, lambda v: 2 <= v <= N_MAX, f"an integer in [2, {N_MAX}]"),
    "digits": Param(
        int, lambda v: MIN_DIGITS <= v <= DIGITS_MAX, f"an integer in [{MIN_DIGITS}, {DIGITS_MAX}]"
    ),
    "t": Param(_ordinate, lambda v: 0 < abs(v) <= T_MAX, f"a nonzero real with |t| <= {T_MAX}"),
    "b": Param(float, _positive, "a positive real"),
    "n_terms": Param(int, lambda v: 1 <= v <= N_TERMS_MAX, f"an integer in [1, {N_TERMS_MAX}]"),
    "bracket": Param(float, _positive, "'lo,hi' with 0 < lo < hi", "pair", "increasing"),
    "t_list": Param(
        float, lambda v: 0 < v <= T_MAX, f"increasing reals in (0, {T_MAX}]", "list", "increasing"
    ),
    "sigma_list": Param(
        DecimalText, lambda v: abs(v) <= SIGMA_MAX, f"distinct reals with |sigma| <= {SIGMA_MAX}",
        "list", "distinct",
    ),
}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """A preset name plus text overrides (from CLI flags or key=value file)."""

    preset: str
    overrides: dict

    def resolved(self) -> dict:
        """Every key of the preset, parsed once from its override or default text.

        An override of None leaves the default in place.
        """
        preset = _preset(self.preset)
        for key in self.overrides:
            if key not in preset.defaults:
                raise ValidationError(
                    f"unknown key {key!r} for preset {self.preset!r} "
                    f"(allowed: {sorted(preset.defaults)})"
                )
        params = {}
        for key, default in preset.defaults.items():
            text = self.overrides.get(key)
            text = default if text is None else text
            params[key] = None if text is None else PARAMS[key].read(key, text)
        for key, least in preset.min_entries.items():
            if len(params[key]) < least:
                raise ValidationError(
                    f"{key} needs at least {least} entries for {self.preset!r}, "
                    f"got {len(params[key])}"
                )
        return params


def read_utf8(path: Path) -> str:
    """A file's text, less a leading byte-order mark (utf-8-sig); bytes that are
    not UTF-8 raise a ValidationError naming it."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def split_assignment(text: str, source: str) -> tuple[str, str]:
    """`key = value` text as its stripped key and value; errors name `source`."""
    if "=" not in text:
        raise ValidationError(f"{source}: expected 'key = value', got {text!r}")
    key, _, value = text.partition("=")
    return key.strip(), value.strip()


def parse_config_file(path: Path) -> dict:
    """Flat `key = value` lines; blank lines and # comments ignored, a key set twice invalid."""
    overrides, lines = {}, {}
    for lineno, line in enumerate(read_utf8(path).splitlines(), start=1):
        if line.strip() and not line.strip().startswith("#"):
            key, value = split_assignment(line, f"{path}:{lineno}")
            if key in lines:
                raise ValidationError(f"{path}: {key!r} set on lines {lines[key]} and {lineno}")
            overrides[key], lines[key] = value, lineno
    return overrides


# ---------------------------------------------------------------------------
# shared output builders

# The cutoff of the `stable` flag in a grid run's diagnostics: it separates the
# measured stable regime (~5e-2 for the reference grid) from broken ones (>1e1).
STABILITY_THRESHOLD = 1.0


def _coeff_outputs(params: dict):
    (spec,) = _grids(params)
    cs = solve_grid(spec)
    digits = spec.digits
    rows = [
        [str(i), _format_real(z.re, digits), _format_real(z.im, digits)]
        for i, z in enumerate(cs.deltas, start=1)
    ]
    diag = {
        "residual_inf": _format_real(cs.residual_inf, 12),
        "im_stability": _format_real(cs.im_stability, 12),
        "stable": bool(cs.im_stability < STABILITY_THRESHOLD),
        "stability_threshold": STABILITY_THRESHOLD,
        "ordinate_bound_ok": spec.ordinate_bound_ok,
    }
    try:
        crossing = half_crossing(cs)
        diag["n_hat_star"] = crossing.value
        diag["crossings"] = crossing.crossings
    except NumericalError as exc:  # profile may be too broken to cross once
        diag["n_hat_star"] = None
        diag["crossing_error"] = str(exc)
    outputs = {
        "coeffs.csv": _csv(["n", "re_delta", "im_delta"], rows),
        "diagnostics.jsonl": json.dumps(diag, sort_keys=True) + "\n",
    }
    return outputs, cs


def sigmoid_outputs(cs: CoefficientSet, digits: int) -> dict:
    """sigmoid.csv + fit.json for a coefficient profile printed at `digits`."""
    fit = construct_fit(cs)
    rows = [
        [str(i), _format_real(z.re, digits), _f(sigmoid_eval(i, fit))]
        for i, z in enumerate(cs.deltas, start=1)
    ]
    return {
        "sigmoid.csv": _csv(["n", "re_delta", "sigmoid_value"], rows),
        "fit.json": _json(dataclasses.asdict(fit)),
    }


def _calibration(args) -> BCalibration:
    """calibrate_b at s = sigma + it, for args (sigma, t, digits, bracket)."""
    sigma, t, digits, bracket = args
    ctx = PrecisionContext(digits)
    return calibrate_b(make_complex(sigma, t, ctx), ctx, bracket)


def _points(params: dict) -> list[tuple]:
    """(sigma, t, digits, bracket) of each calibration, sigma-major, in input order."""
    return [
        (sigma, t, params["digits"], params["bracket"])
        for sigma in params.get("sigma_list") or [params["sigma"]]
        for t in params.get("t_list") or [params["t"]]
    ]


def _grids(params: dict) -> list[GridSpec]:
    """The grid of a grid preset, or one grid per t_list entry (fig-nhat-sweep)."""
    return [
        GridSpec(params["sigma"], t1, params["dt"], params["n"], params["digits"])
        for t1 in params.get("t_list") or [params["t1"]]
    ]


def _calibrates(params: dict, weighted: bool) -> bool:
    """Whether a run calibrates b: b is unset and it is weighted or sizes n_terms from b."""
    return params.get("b") is None and (weighted or params["n_terms"] is None)


def _check_work(params: dict, weighted: bool = True):
    """Before any work: each grid's last ordinate, else each calibration's bracket, else b's terms."""
    if "dt" in params:
        for spec in _grids(params):
            if spec.max_ordinate > T_MAX:
                raise ValidationError(
                    f"dt = {params['dt']} puts the last ordinate t1 + (n-1) dt = "
                    f"{spec.max_ordinate} past {T_MAX} at t1 = {spec.t1}"
                )
    elif _calibrates(params, weighted):
        ctx, hi = PrecisionContext(params["digits"]), params["bracket"][1]
        for sigma, t, _, _ in _points(params):
            try:
                truncation_length(make_complex(sigma, t, ctx), hi, tail_tolerance(ctx))
            except ValidationError as exc:
                raise ValidationError(f"bracket upper end {hi}: {exc} at t = {t}") from None
    else:
        _spiral_terms(params, params["b"])


def _nhat_row(spec: GridSpec) -> list[str]:
    """One nhat_sweep.csv row: the grid solved, and its half crossing."""
    cs = solve_grid(spec)
    t1 = float(spec.t1)
    mean_t = t1 + (spec.n_rows - 1) * DecimalText(spec.dt).value / 2.0
    try:
        n_hat_star = half_crossing(cs).value
    except NumericalError:
        n_hat_star = float("nan")
    return [
        _f(t1), _f(n_hat_star), _f(mean_t / math.pi), _f(mean_t / t1),
        _format_real(cs.im_stability, 12),
    ]


def _pool_map(fn, items: list, jobs: int) -> list:
    """fn over items in input order, in min(jobs, len(items)) worker processes when that is > 1."""
    workers = min(jobs, len(items))
    if workers > 1:
        import concurrent.futures  # here, not at the top: it loads logging, which a serial run never needs

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# preset runners


def _run_coeffs(params: dict, jobs: int) -> dict:
    return _coeff_outputs(params)[0]


def _run_sigmoid(params: dict, jobs: int) -> dict:
    outputs, cs = _coeff_outputs(params)
    outputs.update(sigmoid_outputs(cs, params["digits"]))
    return outputs


def _run_nhat_sweep(params: dict, jobs: int) -> dict:
    return {
        "nhat_sweep.csv": _csv(
            ["t1", "n_hat_star", "n_hat_formula", "mean_t_over_t1", "im_stability"],
            _pool_map(_nhat_row, _grids(params), jobs),
        )
    }


def _run_eps_vs_b(params: dict, jobs: int) -> dict:
    (cal,) = _pool_map(_calibration, _points(params), jobs)
    trace_rows = [[_f(b), _f(e)] for b, e in sorted(cal.trace)]
    return {
        "trace.csv": _csv(["B", "err"], trace_rows),
        "calibration.json": _json(
            {
                "sigma": params["sigma"],
                "t": params["t"],
                "b_hat": cal.b_hat,
                "err_at_opt": cal.err_at_opt,
                "digits_gained": cal.digits_gained,
                "terms": cal.terms,
            }
        ),
    }


def _accuracy_csv(column: str, xs: list, cals: list[BCalibration]) -> str:
    """One (x, b_hat, digits_gained) row per calibration; column names x."""
    rows = [[_f(x), _f(cal.b_hat), _f(cal.digits_gained)] for x, cal in zip(xs, cals)]
    return _csv([column, "b_hat", "digits_gained"], rows)


def _run_eps_vs_t(params: dict, jobs: int) -> dict:
    cals = _pool_map(_calibration, _points(params), jobs)
    return {"accuracy.csv": _accuracy_csv("t", params["t_list"], cals)}


def _run_power_law(params: dict, jobs: int) -> dict:
    t_list = params["t_list"]
    cals = _pool_map(_calibration, _points(params), jobs)
    fit = fit_power_law([(t, cal.b_hat) for t, cal in zip(t_list, cals)])
    return {
        "accuracy.csv": _accuracy_csv("t", t_list, cals),
        "powerfit.json": _json({"sigma": params["sigma"].value, **dataclasses.asdict(fit)}),
    }


def _run_cd_sigma(params: dict, jobs: int) -> dict:
    sigmas, t_list = [sigma.value for sigma in params["sigma_list"]], params["t_list"]
    b_hats, k = [cal.b_hat for cal in _pool_map(_calibration, _points(params), jobs)], len(t_list)
    fits = [fit_power_law(list(zip(t_list, b_hats[i * k : (i + 1) * k]))) for i in range(len(sigmas))]
    rows = [[_f(sigma), *map(_f, dataclasses.astuple(fit))] for sigma, fit in zip(sigmas, fits)]
    expfits = {}
    for label in ("c_coef", "d_exp"):
        try:
            samples = [(sigma, getattr(fit, label)) for sigma, fit in zip(sigmas, fits)]
            expfits[label] = dataclasses.asdict(fit_sigma_dependence(samples))
        except (NumericalError, ValidationError) as exc:
            # d_exp may go non-positive, or too few sigmas to fit; report, don't abort
            expfits[label] = {"error": str(exc)}
    return {
        "cd_sigma.csv": _csv(["sigma", "c_coef", "d_exp", "r_squared"], rows),
        "expfits.json": _json(expfits),
    }


def _run_b_sigma(params: dict, jobs: int) -> dict:
    sigmas = [sigma.value for sigma in params["sigma_list"]]
    cals = _pool_map(_calibration, _points(params), jobs)
    fit = fit_sigma_dependence([(sigma, cal.b_hat) for sigma, cal in zip(sigmas, cals)])
    return {
        "b_sigma.csv": _accuracy_csv("sigma", sigmas, cals),
        "expfit.json": _json(dataclasses.asdict(fit)),
    }


def _spiral_terms(params: dict, b: float) -> int:
    """A spiral's n_terms; when unset, twice the truncation length at b."""
    if params["n_terms"] is not None:
        return params["n_terms"]
    ctx = PrecisionContext(params["digits"])
    s = make_complex(params["sigma"], params["t"], ctx)
    n_terms = 2 * truncation_length(s, b, tail_tolerance(ctx))
    if n_terms > N_TERMS_MAX:
        raise ValidationError(f"n_terms (twice the truncation length at b = {b}) passes {N_TERMS_MAX}")
    return n_terms


def _run_spiral(params: dict, jobs: int, weighted: bool) -> dict:
    ctx = PrecisionContext(params["digits"])
    s = make_complex(params["sigma"], params["t"], ctx)
    b = params["b"]
    if _calibrates(params, weighted):
        b = calibrate_b(s, ctx, params["bracket"]).b_hat
    n_terms = _spiral_terms(params, b)
    if weighted:
        trace = weighted_partial_sums(s, b, n_terms, ctx)
    else:
        trace = raw_partial_sums(s, n_terms, ctx)
    rows = [
        [str(k), _format_real(p.re, DISPLAY_DIGITS), _format_real(p.im, DISPLAY_DIGITS)]
        for k, p in enumerate(trace.points, start=1)
    ]
    points_f = [(float(p.re), float(p.im)) for p in trace.points]
    return {
        "spiral.csv": _csv(["k", "re", "im"], rows),
        "spiral.svg": spiral_svg(points_f),
        "spiral.json": _json(
            {
                "sigma": params["sigma"],
                "t": params["t"],
                "weighted": weighted,
                "b_used": b if weighted else None,
                "n_terms": n_terms,
            }
        ),
    }


# ---------------------------------------------------------------------------
# preset table


@dataclasses.dataclass(frozen=True)
class _Preset:
    figure: str
    defaults: dict  # key: text, or None for a value the runner works out
    runner: object
    min_entries: dict = dataclasses.field(default_factory=dict)  # list keys a fit needs filled
    check: Callable[[dict], None] = _check_work  # work bounds, checked before any output


_STABLE_GRID = {
    "sigma": "0.5",
    "t1": "188.4955592",
    "dt": "0.628318531",
    "n": "100",
    "digits": "100",
}

_CALIBRATION = {"digits": str(CALIBRATION_DIGITS), "bracket": ",".join(map(str, DEFAULT_BRACKET))}

_SIGMA_LADDER = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"

_SPIRAL = {"sigma": "0.5", "t": "200", **_CALIBRATION, "b": None, "n_terms": None}


_PRESETS: dict[str, _Preset] = {
    "fig-coeffs-stable": _Preset(
        "coefficient profile, stable reference grid", dict(_STABLE_GRID), _run_coeffs
    ),
    "fig-coeffs-left": _Preset(
        "coefficient profile deformed left (smaller t1, larger dt)",
        dict(_STABLE_GRID, t1="157.0796327", dt="0.785398163"),
        _run_coeffs,
    ),
    "fig-coeffs-right": _Preset(
        "coefficient profile deformed right (larger t1, smaller dt)",
        dict(_STABLE_GRID, t1="209.4395102", dt="0.523598776"),
        _run_coeffs,
    ),
    "fig-precision-90": _Preset(
        "stable grid at a slightly reduced digit budget",
        dict(_STABLE_GRID, digits="90"),
        _run_coeffs,
    ),
    "fig-precision-50": _Preset(
        "stable grid at half the digit budget (profile destroyed)",
        dict(_STABLE_GRID, digits="50"),
        _run_coeffs,
    ),
    "fig-sigmoid": _Preset(
        "sigmoid model overlaid on the real coefficient profile",
        dict(_STABLE_GRID),
        _run_sigmoid,
    ),
    "fig-nhat-sweep": _Preset(
        "half-crossing index versus the first ordinate t1",
        {
            "sigma": "0.5",
            "dt": "0.628318531",
            "n": "100",
            "digits": "100",
            "t_list": "175.9291886,182.2123739,188.4955592,194.7787445,201.0619298",
        },
        _run_nhat_sweep,
    ),
    "fig-eps-vs-b": _Preset(
        "reconstruction error versus the scale factor at s = 0.5 + 1000i",
        {"sigma": "0.5", "t": "1000", **_CALIBRATION},
        _run_eps_vs_b,
    ),
    "fig-eps-vs-t": _Preset(
        "digits gained versus the ordinate t",
        {"sigma": "0.5", "t_list": "100.0,300.0,1000.0,3000.0", **_CALIBRATION},
        _run_eps_vs_t,
    ),
    "fig-b-power-law": _Preset(
        "power law of the calibrated scale factor over t",
        {"sigma": "0.5", "t_list": "100.0,200.0,500.0,1000.0,2000.0,5000.0", **_CALIBRATION},
        _run_power_law,
        {"t_list": 2},
    ),
    "fig-c-d-sigma": _Preset(
        "power-law coefficients C and D versus sigma",
        {"sigma_list": _SIGMA_LADDER, "t_list": "100.0,300.0,1000.0", **_CALIBRATION},
        _run_cd_sigma,
        {"t_list": 2},
    ),
    "fig-b-sigma": _Preset(
        "calibrated scale factor versus sigma at fixed t",
        {"sigma_list": _SIGMA_LADDER, "t": "50000", **_CALIBRATION},
        _run_b_sigma,
        {"sigma_list": 3},
    ),
    "fig-spiral-raw": _Preset(
        "divergent partial-sum spiral of the functional-equation combination",
        dict(_SPIRAL),
        functools.partial(_run_spiral, weighted=False),
        check=functools.partial(_check_work, weighted=False),
    ),
    "fig-spiral-weighted": _Preset(
        "sigmoid-weighted spiral converging to the origin",
        dict(_SPIRAL),
        functools.partial(_run_spiral, weighted=True),
        check=functools.partial(_check_work, weighted=True),
    ),
}


def _preset(name: str) -> _Preset:
    if name not in _PRESETS:
        raise ValidationError(f"unknown preset {name!r}; see list-presets")
    return _PRESETS[name]


def preset_names() -> list[str]:
    return list(_PRESETS)


def preset_keys(name: str) -> list[str]:
    """The keys a preset takes, in declaration order; no default is parsed."""
    return list(_preset(name).defaults)


def list_presets() -> list[dict]:
    """Static table of (preset, figure, resolved default parameters)."""
    return [
        {"preset": name, "figure": preset.figure, "parameters": ExperimentConfig(name, {}).resolved()}
        for name, preset in _PRESETS.items()
    ]


# ---------------------------------------------------------------------------
# runner


@dataclasses.dataclass(frozen=True)
class RunManifest:
    preset: str
    figure: str
    config: dict
    version: str
    outputs: dict
    wall_time_s: float

    def to_json(self) -> str:
        return _json(dataclasses.asdict(self))


def run_preset(config: ExperimentConfig, output_dir: str | Path = ".", jobs: int = 1) -> RunManifest:
    """Execute the preset pipeline and write outputs + manifest.json.

    Up to `jobs` worker processes (at least 1) run the points of a sweep:
    the grids of fig-nhat-sweep and the calibrations of fig-eps-vs-t,
    fig-b-power-law, fig-c-d-sigma and fig-b-sigma.
    """
    if not (isinstance(jobs, int) and jobs >= 1):
        raise ValidationError(f"jobs must be an integer >= 1, got {jobs!r}")
    preset = _preset(config.preset)
    params = config.resolved()
    preset.check(params)
    out_dir = make_output_dir(output_dir)

    start = time.perf_counter()
    outputs = preset.runner(params, jobs)
    wall = time.perf_counter() - start

    manifest = RunManifest(
        preset=config.preset,
        figure=preset.figure,
        config=params,
        version=__version__,
        outputs=write_outputs(outputs, out_dir),
        wall_time_s=wall,
    )
    write_outputs({"manifest.json": manifest.to_json()}, out_dir)
    return manifest


def make_output_dir(output_dir: str | Path) -> Path:
    """output_dir, made with its parents if missing; a path that cannot be a directory is invalid."""
    out_dir = Path(output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"output directory {out_dir}: {exc.strerror}") from None
    return out_dir


def write_outputs(outputs: dict, out_dir: Path) -> dict:
    """Write {filename: text} into the existing out_dir; return {filename: sha256}."""
    checksums = {}
    for filename, content in outputs.items():
        data = content.encode("utf-8")
        try:
            (out_dir / filename).write_bytes(data)
        except OSError as exc:  # a file that cannot be written is invalid
            raise ValidationError(f"output file {out_dir / filename}: {exc.strerror}") from None
        checksums[filename] = hashlib.sha256(data).hexdigest()
    return checksums
