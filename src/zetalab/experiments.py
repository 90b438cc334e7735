"""Named experiment presets with deterministic CSV/SVG/manifest output.

Every preset maps to one figure of the study and writes its data files plus
a manifest echoing the fully resolved configuration with per-file checksums.
Re-running a preset with the same configuration reproduces byte-identical
CSV/SVG outputs (the manifest records wall time and therefore differs).
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import mpmath

from . import __version__
from .errors import NumericalError, ValidationError
from .precision import PrecisionContext, _format_real, make_complex
from .sigmoid import construct_fit, sigmoid_eval
from .solver import (
    DEFAULT_STABILITY_THRESHOLD,
    CoefficientSet,
    GridSpec,
    half_crossing,
    solve_grid,
)
from .series import (
    CALIBRATION_DIGITS,
    DEFAULT_BRACKET,
    calibrate_b,
    fit_power_law,
    fit_sigma_dependence,
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
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """A preset name plus raw string overrides (from CLI flags or key=value file)."""

    preset: str
    overrides: dict

    def resolved(self) -> dict:
        preset = _preset(self.preset)
        params = dict(preset.defaults)
        for key, raw in self.overrides.items():
            if key not in preset.defaults and key not in _GLOBAL_KEYS:
                raise ValidationError(
                    f"unknown key {key!r} for preset {self.preset!r} "
                    f"(allowed: {sorted(preset.defaults) + sorted(_GLOBAL_KEYS)})"
                )
            params[key] = _coerce(key, raw)
        return params


_GLOBAL_KEYS = {"jobs"}
_INT_KEYS = {"n", "digits", "jobs", "n_terms"}
_REAL_KEYS = {"t", "b", "stability_threshold"}
_DECIMAL_KEYS = {"sigma", "t1", "dt"}  # real values kept as decimal text


def _number(key: str, text: str, kind):
    try:
        return kind(text)
    except ValueError as exc:
        raise ValidationError(f"{key} expects {kind.__name__} values, got {text!r}") from exc


def _finite(key: str, raw, parse=float):
    """A finite real: text is parsed, a number keeps its type."""
    try:
        value = parse(raw) if isinstance(raw, str) else raw
        finite = math.isfinite(value)
    except (ValueError, TypeError):
        finite = False
    if not finite:
        raise ValidationError(f"{key} expects a finite number, got {raw!r}")
    return value


def _coerce(key: str, raw):
    """Turn an override into the preset's value type; reals must be finite.

    Text is parsed; other values (click numbers, Python API values) keep
    their type, but a real-valued key rejects NaN and infinity either way.
    """
    if raw is None:
        return raw
    if key in _INT_KEYS:
        return _number(key, raw, int) if isinstance(raw, str) else raw
    if key == "t" and isinstance(raw, str):
        # a real ordinate; integral text stays an int, so outputs keep "t": 100
        try:
            return int(raw)
        except ValueError:
            pass
    if key in _REAL_KEYS:
        return _finite(key, raw)
    if key in _DECIMAL_KEYS:
        _finite(key, raw, mpmath.mpf)  # parsed later at the run's precision
        return raw
    parts = raw
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",") if part.strip()]
    if key in ("t_list", "sigma_list") and not parts:
        raise ValidationError(f"{key} needs at least one entry, got {raw!r}")
    if key == "bracket":
        if len(parts) != 2:
            raise ValidationError(f"bracket expects 'lo,hi', got {raw!r}")
        return tuple(_finite(key, part) for part in parts)
    if key == "t_list":
        return [_finite(key, part) for part in parts]
    if key == "sigma_list":
        for part in parts:
            _finite(key, part)
        return list(parts)
    return raw


def parse_config_file(path: Path) -> dict:
    """Flat `key = value` lines; blank lines and # comments ignored."""
    overrides = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


# ---------------------------------------------------------------------------
# shared output builders


def _coeff_outputs(params: dict):
    spec = GridSpec(
        sigma=params["sigma"], t1=params["t1"], dt=params["dt"],
        n_rows=params["n"], digits=params["digits"],
    )
    cs = solve_grid(spec)
    digits = spec.digits
    threshold = params["stability_threshold"]
    rows = [
        [str(i), _format_real(z.re, digits), _format_real(z.im, digits)]
        for i, z in enumerate(cs.deltas, start=1)
    ]
    diag = {
        "residual_inf": _format_real(cs.residual_inf, 12),
        "im_stability": _format_real(cs.im_stability, 12),
        "stable": bool(cs.im_stability < threshold),
        "stability_threshold": threshold,
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
        "fit.json": _json(
            {"a_param": fit.a_param, "b_param": fit.b_param, "residual": fit.residual}
        ),
    }


def _calibration_point(sigma: str, t: float, digits: int, bracket) -> dict:
    ctx = PrecisionContext(digits)
    s = make_complex(sigma, t, ctx)
    cal = calibrate_b(s, ctx, bracket)
    return {
        "t": t,
        "b_hat": cal.b_hat,
        "err_at_opt": cal.err_at_opt,
        "digits_gained": cal.digits_gained,
        "terms": cal.terms,
    }


def _star_calibration(args):
    return _calibration_point(*args)


# ---------------------------------------------------------------------------
# preset runners


def _run_coeffs(params: dict, jobs: int) -> dict:
    outputs, _ = _coeff_outputs(params)
    return outputs


def _run_sigmoid(params: dict, jobs: int) -> dict:
    outputs, cs = _coeff_outputs(params)
    outputs.update(sigmoid_outputs(cs, params["digits"]))
    return outputs


def _run_nhat_sweep(params: dict, jobs: int) -> dict:
    rows = []
    for t1 in params["t_list"]:
        spec = GridSpec(
            sigma=params["sigma"], t1=repr(float(t1)), dt=params["dt"],
            n_rows=params["n"], digits=params["digits"],
        )
        cs = solve_grid(spec)
        n = spec.n_rows
        mean_t = float(spec.t1) + (n - 1) * float(spec.context().real(spec.dt)) / 2.0
        n_hat_formula = mean_t / math.pi
        try:
            n_hat_star = half_crossing(cs).value
        except NumericalError:
            n_hat_star = float("nan")
        rows.append(
            [
                _f(t1),
                _f(n_hat_star),
                _f(n_hat_formula),
                _f(mean_t / float(spec.t1)),
                _format_real(cs.im_stability, 12),
            ]
        )
    return {
        "nhat_sweep.csv": _csv(
            ["t1", "n_hat_star", "n_hat_formula", "mean_t_over_t1", "im_stability"], rows
        )
    }


def _run_eps_vs_b(params: dict, jobs: int) -> dict:
    ctx = PrecisionContext(params["digits"])
    s = make_complex(params["sigma"], params["t"], ctx)
    cal = calibrate_b(s, ctx, params["bracket"])
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


def _sweep_rows(points: list, params: dict, jobs: int) -> list[dict]:
    """Calibrate each (sigma, t) point in input order, in a process pool if jobs > 1."""
    items = [(sigma, float(t), params["digits"], params["bracket"]) for sigma, t in points]
    if jobs > 1 and len(items) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_star_calibration, items))
    return [_star_calibration(item) for item in items]


def _t_sweep(params: dict, jobs: int) -> list[dict]:
    return _sweep_rows([(params["sigma"], t) for t in params["t_list"]], params, jobs)


def _accuracy_csv(points: list[dict]) -> str:
    rows = [[_f(p["t"]), _f(p["b_hat"]), _f(p["digits_gained"])] for p in points]
    return _csv(["t", "b_hat", "digits_gained"], rows)


def _run_eps_vs_t(params: dict, jobs: int) -> dict:
    return {"accuracy.csv": _accuracy_csv(_t_sweep(params, jobs))}


def _run_power_law(params: dict, jobs: int) -> dict:
    points = _t_sweep(params, jobs)
    sigma = float(PrecisionContext(params["digits"]).real(params["sigma"]))
    fit = fit_power_law([(p["t"], p["b_hat"]) for p in points], sigma=sigma)
    return {
        "accuracy.csv": _accuracy_csv(points),
        "powerfit.json": _json(
            {
                "sigma": sigma,
                "c_coef": fit.c_coef,
                "d_exp": fit.d_exp,
                "r_squared": fit.r_squared,
            }
        ),
    }


def _run_cd_sigma(params: dict, jobs: int) -> dict:
    rows = []
    c_samples, d_samples = [], []
    for sigma in params["sigma_list"]:
        points = _t_sweep(dict(params, sigma=sigma), jobs)
        fit = fit_power_law([(p["t"], p["b_hat"]) for p in points], sigma=float(sigma))
        rows.append([_f(sigma), _f(fit.c_coef), _f(fit.d_exp), _f(fit.r_squared)])
        c_samples.append((float(sigma), fit.c_coef))
        d_samples.append((float(sigma), fit.d_exp))
    outputs = {"cd_sigma.csv": _csv(["sigma", "c_coef", "d_exp", "r_squared"], rows)}
    fits = {}
    for label, samples in (("c_coef", c_samples), ("d_exp", d_samples)):
        try:
            efit = fit_sigma_dependence(samples)
            fits[label] = {"p": efit.p, "q": efit.q, "r_squared": efit.r_squared}
        except (NumericalError, ValidationError) as exc:
            # d_exp may go non-positive, or too few sigmas to fit; report, don't abort
            fits[label] = {"error": str(exc)}
    outputs["expfits.json"] = _json(fits)
    return outputs


def _run_b_sigma(params: dict, jobs: int) -> dict:
    points = _sweep_rows([(sigma, params["t"]) for sigma in params["sigma_list"]], params, jobs)
    rows = [
        [_f(sigma), _f(p["b_hat"]), _f(p["digits_gained"])]
        for sigma, p in zip(params["sigma_list"], points)
    ]
    fit = fit_sigma_dependence(
        [(float(sigma), p["b_hat"]) for sigma, p in zip(params["sigma_list"], points)]
    )
    return {
        "b_sigma.csv": _csv(["sigma", "b_hat", "digits_gained"], rows),
        "expfit.json": _json({"p": fit.p, "q": fit.q, "r_squared": fit.r_squared}),
    }


def _run_spiral(params: dict, jobs: int, weighted: bool) -> dict:
    ctx = PrecisionContext(params["digits"])
    s = make_complex(params["sigma"], params["t"], ctx)
    b, n_terms = params["b"], params["n_terms"]
    if b is None and (weighted or n_terms is None):
        b = calibrate_b(s, ctx, params["bracket"]).b_hat
    if n_terms is None:
        n_terms = 2 * truncation_length(s, b, 10.0 ** (-ctx.digits))
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


@dataclass(frozen=True)
class _Preset:
    figure: str
    defaults: dict
    runner: object


_STABLE_GRID = {
    "sigma": "0.5",
    "t1": "188.4955592",
    "dt": "0.628318531",
    "n": 100,
    "digits": 100,
    "stability_threshold": DEFAULT_STABILITY_THRESHOLD,
}

_SIGMA_LADDER = ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9"]

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
        dict(_STABLE_GRID, digits=90),
        _run_coeffs,
    ),
    "fig-precision-50": _Preset(
        "stable grid at half the digit budget (profile destroyed)",
        dict(_STABLE_GRID, digits=50),
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
            "n": 100,
            "digits": 100,
            "t_list": [175.9291886, 182.2123739, 188.4955592, 194.7787445, 201.0619298],
        },
        _run_nhat_sweep,
    ),
    "fig-eps-vs-b": _Preset(
        "reconstruction error versus the scale factor at s = 0.5 + 1000i",
        {
            "sigma": "0.5",
            "t": 1000,
            "digits": CALIBRATION_DIGITS,
            "bracket": DEFAULT_BRACKET,
        },
        _run_eps_vs_b,
    ),
    "fig-eps-vs-t": _Preset(
        "digits gained versus the ordinate t",
        {
            "sigma": "0.5",
            "t_list": [100.0, 300.0, 1000.0, 3000.0],
            "digits": CALIBRATION_DIGITS,
            "bracket": DEFAULT_BRACKET,
        },
        _run_eps_vs_t,
    ),
    "fig-b-power-law": _Preset(
        "power law of the calibrated scale factor over t",
        {
            "sigma": "0.5",
            "t_list": [100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0],
            "digits": CALIBRATION_DIGITS,
            "bracket": DEFAULT_BRACKET,
        },
        _run_power_law,
    ),
    "fig-c-d-sigma": _Preset(
        "power-law coefficients C and D versus sigma",
        {
            "sigma_list": list(_SIGMA_LADDER),
            "t_list": [100.0, 300.0, 1000.0],
            "digits": CALIBRATION_DIGITS,
            "bracket": DEFAULT_BRACKET,
        },
        _run_cd_sigma,
    ),
    "fig-b-sigma": _Preset(
        "calibrated scale factor versus sigma at fixed t",
        {
            "sigma_list": list(_SIGMA_LADDER),
            "t": 50000,
            "digits": CALIBRATION_DIGITS,
            "bracket": DEFAULT_BRACKET,
        },
        _run_b_sigma,
    ),
    "fig-spiral-raw": _Preset(
        "divergent partial-sum spiral of the functional-equation combination",
        {
            "sigma": "0.5",
            "t": 200,
            "digits": CALIBRATION_DIGITS,
            "bracket": DEFAULT_BRACKET,
            "b": None,
            "n_terms": None,
        },
        lambda params, jobs: _run_spiral(params, jobs, weighted=False),
    ),
    "fig-spiral-weighted": _Preset(
        "sigmoid-weighted spiral converging to the origin",
        {
            "sigma": "0.5",
            "t": 200,
            "digits": CALIBRATION_DIGITS,
            "bracket": DEFAULT_BRACKET,
            "b": None,
            "n_terms": None,
        },
        lambda params, jobs: _run_spiral(params, jobs, weighted=True),
    ),
}


def _preset(name: str) -> _Preset:
    if name not in _PRESETS:
        raise ValidationError(f"unknown preset {name!r}; see list-presets")
    return _PRESETS[name]


def preset_names() -> list[str]:
    return list(_PRESETS)


def list_presets() -> list[dict]:
    """Static table of (preset, figure, parameters), parseable as config stubs."""
    table = []
    for name, preset in _PRESETS.items():
        table.append({"preset": name, "figure": preset.figure, "parameters": dict(preset.defaults)})
    return table


# ---------------------------------------------------------------------------
# runner


@dataclass(frozen=True)
class RunManifest:
    preset: str
    figure: str
    config: dict
    version: str
    outputs: dict
    wall_time_s: float

    def to_json(self) -> str:
        payload = {
            "preset": self.preset,
            "figure": self.figure,
            "config": self.config,
            "version": self.version,
            "outputs": self.outputs,
            "wall_time_s": self.wall_time_s,
        }
        return _json(payload)


def run_preset(config: ExperimentConfig, output_dir: str | Path = ".", jobs: int = 1) -> RunManifest:
    """Execute the preset pipeline and write outputs + manifest.json."""
    preset = _preset(config.preset)
    params = config.resolved()
    jobs = int(params.get("jobs", jobs) or jobs)
    runner_params = {k: v for k, v in params.items() if k not in _GLOBAL_KEYS}

    start = time.perf_counter()
    outputs = preset.runner(runner_params, jobs)
    wall = time.perf_counter() - start

    manifest = RunManifest(
        preset=config.preset,
        figure=preset.figure,
        config=params,
        version=__version__,
        outputs=write_outputs(outputs, output_dir),
        wall_time_s=wall,
    )
    (Path(output_dir) / "manifest.json").write_text(manifest.to_json())
    return manifest


def write_outputs(outputs: dict, output_dir: str | Path) -> dict:
    """Write {filename: text} into output_dir; return {filename: sha256}."""
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checksums = {}
    for filename, content in outputs.items():
        data = content.encode("utf-8")
        (out_dir / filename).write_bytes(data)
        checksums[filename] = hashlib.sha256(data).hexdigest()
    return checksums
