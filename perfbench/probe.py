"""Machine-speed probe: a fixed calibration loop, independent of housingrisk.

The benchmark runs it between operations and reports its median and
quartiles beside each set of runs, so drift of the host can be told apart
from a regression of the program. Nothing is gated on it.
"""

from __future__ import annotations

import time

import numpy as np

_ARRAY = np.random.default_rng(0).standard_normal(1 << 20)


def probe_ms() -> float:
    """Milliseconds for a fixed pure-Python loop plus one numpy reduction."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    total = float(np.sort(_ARRAY).sum()) + acc
    elapsed = (time.perf_counter() - t0) * 1e3
    if total != total:  # consume the result; never true
        raise RuntimeError("probe result is NaN")
    return elapsed
