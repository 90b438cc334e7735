"""Machine-speed probe: corrects op times for a shared host's drifting speed.

On a shared host the speed of pure-Python arithmetic drifts by 20% and more
over seconds to minutes, whatever the benchmark runs.  While the timed loop
runs, a SIGALRM timer fires every PROBE_INTERVAL_S and runs a fixed
reference computation: mpmath's own multiply-adds at 100 digits over a
working set of about 2 MB, the kind of work the package does.  Its duration at
each moment measures how fast the machine is then.

An op's time, less the probes that ran inside it, is scaled by
REFERENCE_PROBE_S / (mean probe duration around the op).  The result is the
op's time at the reference speed, at which one probe takes REFERENCE_PROBE_S;
the probe is sized to take about that long on a quiet 2.1 GHz Xeon.  The
probe lives in the benchmark and calls only mpmath, so no change to zetalab
can change it.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
import time

from mpmath.libmp import fzero, from_str, mpf_add, mpf_mul, round_nearest

PROBE_INTERVAL_S = 0.1
REFERENCE_PROBE_S = 0.001
# an op's speed is the mean over probes within WINDOW_S around its midpoint,
# or over the whole op if it is longer
WINDOW_S = 1.0

_PREC = 340  # bits: 100 decimal digits
_WORKING_SET = 10000  # mpf values, about 2 MB: the probe also feels cache contention
_STEPS = 200
_STRIDE = 7919  # prime to _WORKING_SET: the walk visits every value


class SpeedProbe:
    """Probe samples (start, end) taken while `running()` is active."""

    def __init__(self):
        rng = random.Random(0)
        self._data = [from_str(f"{rng.random():.30f}", _PREC) for _ in range(_WORKING_SET)]
        self._scale = from_str("0.98765432109876543210987654321", _PREC)
        self._pos = 0
        self.samples: list[tuple[float, float]] = []

    def _reference(self):
        data, scale, pos, acc = self._data, self._scale, self._pos, fzero
        for _ in range(_STEPS):
            pos = (pos + _STRIDE) % _WORKING_SET
            acc = mpf_add(acc, mpf_mul(data[pos], scale, _PREC, round_nearest), _PREC, round_nearest)
        self._pos = pos
        return acc

    def sample(self, count: int = 5) -> float:
        """Mean duration of `count` probes run now."""
        start = time.perf_counter()
        for _ in range(count):
            self._reference()
        return (time.perf_counter() - start) / count

    def _fire(self, signum, frame):
        start = time.perf_counter()
        self._reference()
        self.samples.append((start, time.perf_counter()))

    @contextlib.contextmanager
    def running(self):
        for _ in range(20):  # warm-up, untimed
            self._reference()
        self._fire(None, None)  # so that there is always a sample
        previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, start: float, end: float) -> float:
        """Seconds of probing that ran inside [start, end]."""
        return sum(e - s for s, e in self.samples if start <= s and e <= end)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the machine's speed around [start, end]."""
        middle = (start + end) / 2
        lo, hi = min(start, middle - WINDOW_S / 2), max(end, middle + WINDOW_S / 2)
        durations = [e - s for s, e in self.samples if lo <= s and e <= hi]
        if not durations:  # no probe near: take the nearest one
            s, e = min(self.samples, key=lambda sample: abs(sample[0] - middle))
            durations = [e - s]
        return REFERENCE_PROBE_S / statistics.fmean(durations)
