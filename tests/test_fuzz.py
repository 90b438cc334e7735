"""A seeded fuzz of the public s-plane and series functions: only package errors may escape.

Reals are drawn log-uniform up to 10^307.5 in magnitude, small halves and
quarters, and edge values (integers past 2^53, the Re s band's and IM_S_MAX's
edges, 10^400).  Sizes are bounded instead of limited: n is at most 40, and
zeta is not drawn for 3e4 < |t| < 4e6, where its head would grow past 10^4
entries (past about 3.14e6 it raises before building any).
"""

import random
import traceback

import pytest

from zetalab import PrecisionContext, chi, gamma, make_complex, zeta
from zetalab.errors import NumericalError, ValidationError
from zetalab.experiments import ExperimentConfig, run_preset
from zetalab.oracle import bernoulli_even
from zetalab.powers import power_table
from zetalab.series import generalized_delta, truncation_length, weighted_zeta
from zetalab.solver import GridSpec
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
