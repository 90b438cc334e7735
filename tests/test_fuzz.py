"""Fuzzes of the public library: only package errors may escape.

The seeded s-plane fuzz draws reals log-uniform up to 10^307.5 in magnitude,
small halves and quarters, and edge values (integers past 2^53, the Re s
band's and IM_S_MAX's edges, 10^400).  Sizes are bounded instead of limited:
n is at most 40, and zeta is not drawn for 3e4 < |t| < 4e6, where its head
would grow past 10^4 entries (past about 3.14e6 it raises before building any).

The signature fuzz reads every public callable's annotations: each number,
count, s, bracket or sample parameter is swapped in turn for each malformed
value of a fixed list, the others held valid.  A public callable whose
parameters it can neither swap nor finds listed as skipped fails the test,
so a new public function is fuzzed without editing it.
"""

import inspect
import math
import random
import re
import traceback

import pytest

import zetalab
from zetalab import (
    GridSpec,
    PrecisionContext,
    SigmoidFit,
    assemble_system,
    build_grid,
    calibrate_b,
    chi,
    fit_power_law,
    fit_sigma_dependence,
    functional_residual,
    gamma,
    generalized_delta,
    make_complex,
    power_term,
    scale_from_formula,
    sigmoid_eval,
    zeta,
)
from zetalab.errors import NumericalError, ValidationError
from zetalab.experiments import ExperimentConfig, run_preset
from zetalab.oracle import bernoulli_even
from zetalab.powers import N_TERMS_MAX, power_table
from zetalab.precision import shown
from zetalab.series import truncation_length, weighted_zeta
from zetalab.solver import CoefficientSet
from zetalab.spiral import raw_partial_sums, weighted_partial_sums

_EDGES = [
    "0", "1", "-1", "2", "-2", "0.5", "-0.5", "-4",
    str(2**53 + 1), str(-(2**53 + 1)), "6.518660e39",
    "10000", "-10000", "10001", "10001.5", "-10000.5",
    "1e300", "-1e300", "1.0000001e300", "1e307", "1e400", "-1e400", "1e-400",
]


def _real(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.3:
        return rng.choice(_EDGES)
    if r < 0.5:
        return str(rng.randint(-50, 50) / rng.choice([1, 2, 4]))
    top = 307.5 if r < 0.75 else 5
    return f"{rng.choice('+-')}{10 ** rng.uniform(-3, top):.6e}"


def test_only_package_errors_escape():
    rng = random.Random(20261020)
    escapes = []
    for _ in range(15000):
        digits = rng.randint(15, 40)
        ctx = PrecisionContext(digits)
        s = make_complex(_real(rng), _real(rng), ctx)
        n, b = rng.randint(1, 40), 10 ** rng.uniform(-3, 6)
        name = rng.choice(["chi", "gamma", "zeta", "raw", "weighted", "table", "trunc", "wzeta", "delta"])
        if name == "zeta" and 3e4 < abs(float(s.im)) < 4e6:
            continue
        call = {
            "chi": lambda: chi(s, ctx),
            "gamma": lambda: gamma(s, ctx),
            "zeta": lambda: zeta(s, ctx),
            "raw": lambda: raw_partial_sums(s, n, ctx),
            "weighted": lambda: weighted_partial_sums(s, b, n, ctx),
            "table": lambda: power_table(s, n, ctx),
            "trunc": lambda: truncation_length(s, b, 10.0 ** -digits),
            "wzeta": lambda: weighted_zeta(s, b, n, ctx),
            "delta": lambda: generalized_delta(n, s, b, ctx),
        }[name]
        try:
            call()
        except (ValidationError, NumericalError):
            pass
        except Exception:
            where = traceback.format_exc().splitlines()[-1]
            escapes.append(f"{name} P={digits} s={s.re},{s.im} n={n} b={b}: {where}")
    assert not escapes, "\n".join(escapes[:10])


_CTX = PrecisionContext(30)
_S = make_complex("0.5", "100", _CTX)
_GRID = {"sigma": "0.5", "t1": "10", "dt": "1", "n_rows": 3, "digits": 30}

# (the argument the message must name, a call given a directory to write to)
_MALFORMED_COUNTS = {
    "context-float": ("digits", lambda out: PrecisionContext(15.5)),
    "context-text": ("digits", lambda out: PrecisionContext("30")),
    "context-none": ("digits", lambda out: PrecisionContext(None)),
    "table-float": ("n_max", lambda out: power_table(_S, 10.5, _CTX)),
    "table-bool": ("n_max", lambda out: power_table(_S, True, _CTX)),
    "wzeta-text": ("n_terms", lambda out: weighted_zeta(_S, 1.0, "5", _CTX)),
    "raw-float": ("n_terms", lambda out: raw_partial_sums(_S, 2.0, _CTX)),
    "weighted-text": ("n_terms", lambda out: weighted_partial_sums(_S, 1.0, "5", _CTX)),
    "grid-rows-text": ("n_rows", lambda out: GridSpec(**{**_GRID, "n_rows": "3"})),
    "grid-rows-float": ("n_rows", lambda out: GridSpec(**{**_GRID, "n_rows": 3.0})),
    "grid-digits-float": ("digits", lambda out: GridSpec(**{**_GRID, "digits": 15.5})),
    "bernoulli-float": ("k", lambda out: bernoulli_even(1.5)),
    "jobs-bool": ("jobs", lambda out: run_preset(ExperimentConfig("fig-eps-vs-b", {}), out, jobs=True)),
}


@pytest.mark.parametrize("name,call", _MALFORMED_COUNTS.values(), ids=_MALFORMED_COUNTS)
def test_count_that_is_no_integer_is_a_validation_error(tmp_path, name, call):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
        call(tmp_path)


# (what the message must name, a call that escaped as TypeError, OverflowError,
# ValueError or AttributeError, or, for the GridSpec cases, was accepted)
_ESCAPES = {
    "trunc-b-huge": ("scale", lambda: truncation_length(_S, 10**400, 1e-30)),
    "trunc-eps-huge": ("tail_eps", lambda: truncation_length(_S, 1.0, 10**400)),
    "trunc-b-text": ("scale", lambda: truncation_length(_S, "1.0", 1e-30)),
    "trunc-eps-none": ("tail_eps", lambda: truncation_length(_S, 1.0, None)),
    "wzeta-b-text": ("scale", lambda: weighted_zeta(_S, "1.0", 5, _CTX)),
    "wzeta-b-huge": ("scale", lambda: weighted_zeta(_S, 10**400, 5, _CTX)),
    "weighted-b-huge": ("scale", lambda: weighted_partial_sums(_S, 10**400, 5, _CTX)),
    "residual-b-huge": ("scale", lambda: functional_residual(_S, 10**400, 5, _CTX)),
    "delta-n-text": ("n", lambda: generalized_delta("3", _S, 1.0, _CTX)),
    "delta-n-inf": ("n", lambda: generalized_delta(math.inf, _S, 1.0, _CTX)),
    "delta-n-nan": ("n", lambda: generalized_delta(math.nan, _S, 1.0, _CTX)),
    "delta-b-text": ("scale", lambda: generalized_delta(3, _S, "1", _CTX)),
    "formula-huge": ("n_hat_star", lambda: scale_from_formula(10**400, 100)),
    "formula-text": ("n_hat_star", lambda: scale_from_formula("70", 100)),
    "formula-count-text": ("n_coeffs", lambda: scale_from_formula(70.0, "100")),
    "bracket-huge": ("bracket", lambda: calibrate_b(_S, _CTX, (1, 10**400))),
    "power-law-flat": ("power-law fit", lambda: fit_power_law([1, 2, 3])),
    "power-law-triples": ("power-law fit", lambda: fit_power_law([(1, 2, 3), (2, 3, 4)])),
    "power-law-huge": ("power-law fit", lambda: fit_power_law([(1.0, 10**400), (2.0, 3.0)])),
    "sigma-text": (
        "sigma-dependence fit", lambda: fit_sigma_dependence([(0.1, "1"), (0.5, 2.0), (0.9, 3.0)])
    ),
    "sigmoid-scale-text": ("sigmoid scale", lambda: SigmoidFit(1.0, "2")),
    "sigmoid-eval-text": ("n", lambda: sigmoid_eval("3", SigmoidFit(1.0, 2.0))),
    "power-term-text": ("n", lambda: power_term("3", _S, _CTX)),
    "zeta-float": ("s", lambda: zeta(0.5, _CTX)),
    "chi-float": ("s", lambda: chi(0.5, _CTX)),
    "gamma-float": ("s", lambda: gamma(0.5, _CTX)),
    "grid-sigma-nan": ("sigma", lambda: GridSpec(**{**_GRID, "sigma": "nan"})),
    "grid-t1-inf": ("t1", lambda: GridSpec(**{**_GRID, "t1": "inf"})),
    "grid-dt-inf": ("dt", lambda: GridSpec(**{**_GRID, "dt": "inf"})),
    # an int past Python's 4,300-digit limit, which str() cannot write into a message
    "context-digit-limit": ("digits", lambda: PrecisionContext(10**5000)),
    "trunc-b-digit-limit": ("scale", lambda: truncation_length(_S, 10**5000, 1e-15)),
    "wzeta-n-digit-limit": ("n_max", lambda: weighted_zeta(_S, 1.0, 10**5000, _CTX)),
    "bracket-digit-limit": ("bracket", lambda: calibrate_b(_S, _CTX, (1, 10**5000))),
    "power-law-digit-limit": ("power-law fit", lambda: fit_power_law([(1.0, 10**5000), (2.0, 3.0)])),
    "sigmoid-center-digit-limit": ("sigmoid center", lambda: SigmoidFit(10**5000, 1.0)),
    "sigmoid-eval-digit-limit": ("(n)", lambda: sigmoid_eval(10**5000, SigmoidFit(1.0, 2.0))),
    "formula-count-digit-limit": ("n_coeffs", lambda: scale_from_formula(1.0, 10**5000)),
    "grid-t1-digit-limit": ("t1", lambda: GridSpec(**{**_GRID, "t1": 10**5000})),
    "grid-rows-digit-limit": ("n_rows", lambda: GridSpec(**{**_GRID, "n_rows": 10**5000})),
    "grid-rows-past-max": ("n_rows", lambda: GridSpec(**{**_GRID, "n_rows": N_TERMS_MAX + 1})),
}


@pytest.mark.parametrize("name,call", _ESCAPES.values(), ids=_ESCAPES)
def test_malformed_scalar_is_a_validation_error(name, call):
    with pytest.raises(ValidationError, match=re.escape(name)):
        call()


_MALFORMED = [
    "text", None, True, math.nan, math.inf, -math.inf, -1, 0, 10**400, 10**5000, 1e308, [], (1,), object(), 2.5,
    1 + 1j,
]

# annotations of the parameters the signature fuzz swaps: numbers (GridSpec
# reads its reals as text), counts, s, the bracket and fit samples
_SWAPPED = {
    "int", "float", "float | None", "float | str", "str", "ComplexAP",
    "tuple[float, float]", "list[tuple[float, float]]",
}

# parameters held at their valid value, with the reason
_SKIPPED = {
    "ctx": "a PrecisionContext, which the library does not check (README, Errors)",
    "cs": "a CoefficientSet the solver returns",
    "fit": "a SigmoidFit, fuzzed through its own constructor",
    "spec": "a GridSpec, fuzzed through its own constructor",
    "powers": "a PowerTable that powers.power_table builds",
    "grid": "the list of s that build_grid returns",
    "matrix": "the system that assemble_system returns",
    "rhs": "the system that assemble_system returns",
    "head": "zeta's feed from a grid row of powers.power_ladder, which only the solver passes",
}

# public callables the fuzz does not call, with the reason
_NOT_CALLED = {
    "ZetaLabError": "an exception class",
    "ValidationError": "an exception class",
    "NumericalError": "an exception class",
    "ComplexAP": "the value type: its parts are mpmath reals, and make_complex reads numbers into one",
    "OracleResult": "a result record the library fills",
    "CoefficientSet": "a result record the library fills",
    "HalfCrossing": "a result record the library fills",
    "BCalibration": "a result record the library fills",
    "ScalingFit": "a result record the library fills",
    "ExponentialFit": "a result record the library fills",
    "SpiralTrace": "a result record the library fills",
}


def _valid() -> dict:
    """A valid value for each parameter name of the public callables (P = 15, s = 1/2 + 30i)."""
    ctx = PrecisionContext(15)
    spec = GridSpec("0.5", "10", "1", 2, 15)
    grid = build_grid(spec)
    matrix, rhs = assemble_system(grid, 2, ctx)
    s = make_complex("0.5", "30", ctx)
    profile = [make_complex(1 / (1 + math.exp((n - 70) / 2)), 0, ctx) for n in range(1, 101)]
    return {
        "ctx": ctx, "spec": spec, "grid": grid, "matrix": matrix, "rhs": rhs, "s": s, "z": s,
        "cs": CoefficientSet(tuple(profile), ctx.real(0), ctx.real(0)), "fit": SigmoidFit(70.0, 2.0),
        "powers": None, "head": None, "digits": 15, "re": "0.5", "im": "30",
        "sigma": "0.5", "t1": "10", "dt": "1", "n_rows": 2, "n_coeffs": 2, "n": 3, "n_terms": 3,
        "a_param": 70.0, "b_param": 2.0, "residual": None, "n_hat_star": 70.0, "b": 2.0,
        "tail_eps": 1e-15, "bracket": (0.1, 100.0), "samples": [(0.1, 1.0), (0.5, 2.0), (0.9, 3.0)],
    }


def _public_callables():
    for name in zetalab.__all__:
        obj = getattr(zetalab, name)
        if callable(obj) and name not in _NOT_CALLED:
            yield name, obj, list(inspect.signature(obj).parameters.values())


def test_every_public_callable_is_fuzzed_or_listed():
    names = {name for name in zetalab.__all__ if callable(getattr(zetalab, name))}
    valid = _valid()
    unknown = [
        f"{name}({param.name}: {param.annotation})"
        for name, _, params in _public_callables()
        for param in params
        if param.name not in _SKIPPED and (param.annotation not in _SWAPPED or param.name not in valid)
    ]
    assert unknown == [], "give each a kind and a valid value, or list it in _SKIPPED with a reason"
    used = {param.name for _, _, params in _public_callables() for param in params}
    assert set(_SKIPPED) - used == set() and set(_NOT_CALLED) - names == set()


def _variants(param_name: str, good):
    yield from _MALFORMED
    if param_name == "bracket":
        for bad in _MALFORMED:
            yield (bad, good[1])
            yield (good[0], bad)
    elif param_name == "samples":
        for bad in _MALFORMED:
            yield [(bad, good[0][1]), *good[1:]]
            yield [(good[0][0], bad), *good[1:]]


def test_malformed_arguments_raise_only_package_errors():
    # about 700 calls, the valid ones among them at P = 15 and s = 1/2 + 30i
    valid = _valid()
    escapes, calls = [], 0
    for name, func, params in _public_callables():
        args = {param.name: valid[param.name] for param in params}
        func(**args)  # the valid arguments are valid
        for param in params:
            if param.name in _SKIPPED:
                continue
            for bad in _variants(param.name, args[param.name]):
                calls += 1
                try:
                    func(**{**args, param.name: bad})
                except (ValidationError, NumericalError):
                    pass
                except Exception:
                    where = traceback.format_exc().splitlines()[-1]
                    escapes.append(f"{name}({param.name}={shown(bad):.40}): {where}")
    assert calls > 500 and not escapes, "\n".join(escapes)
