"""Jump detection on quarterly returns.

A return is tested against the bipower variation of the returns strictly
preceding it: L = R_t / sqrt(B), where B averages products of adjacent
absolute returns over a trailing window and is robust to the jumps it is
screening for. L * sqrt(2/pi) is asymptotically unit normal when there is
no jump, so |scaled L| > 1.65 flags a jump at the two-tailed 10% level and
> 2.0 flags a big one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientHistoryError, UndefinedStatisticError

__all__ = [
    "JumpSeries",
    "SCALE",
    "JUMP_THRESHOLD",
    "BIG_THRESHOLD",
    "MIN_BIPOWER_WINDOW",
    "bipower_variation",
    "lm_statistic",
    "lm_series",
    "jump_incidence",
]

SCALE = float(np.sqrt(2.0 / np.pi))
JUMP_THRESHOLD = 1.65
BIG_THRESHOLD = 2.0
MIN_BIPOWER_WINDOW = 8


@dataclass(frozen=True)
class JumpSeries:
    """Per-quarter L statistics and flags for one MSA.

    Arrays cover the MSA's full return range (``quarter_codes``); the first
    ``bipower_window`` quarters and any quarter whose trailing bipower
    variation is zero are untestable (L is NaN there, flags are False).
    """

    msa_id: str
    quarter_codes: np.ndarray
    L: np.ndarray
    L_scaled: np.ndarray
    jump_flag: np.ndarray
    big_flag: np.ndarray
    testable: np.ndarray
    bipower_window: int

    @property
    def n_quarters(self) -> int:
        return len(self.quarter_codes)


def bipower_variation(returns: np.ndarray) -> float:
    """B = (1/(T-1)) * sum_{t=2..T} |R_t| * |R_{t-1}| over the window."""
    r = np.asarray(returns, dtype=float)
    if r.size < 2:
        raise InsufficientHistoryError(
            f"bipower variation needs at least 2 returns, got {r.size}"
        )
    if not np.all(np.isfinite(r)):
        raise ValueError("returns must be finite")
    a = np.abs(r)
    return float(np.sum(a[1:] * a[:-1]) / (r.size - 1))


def lm_statistic(next_return: float, trailing: np.ndarray) -> tuple[float, float]:
    """L and scaled-L for one return against its trailing window."""
    b = bipower_variation(trailing)
    if b == 0.0:
        raise UndefinedStatisticError(
            "bipower variation of the trailing window is zero"
        )
    L = float(next_return) / float(np.sqrt(b))
    return L, L * SCALE


def lm_series(
    returns: np.ndarray,
    bipower_window: int = 20,
    msa_id: str = "",
    start_code: int = 0,
    jump_threshold: float = JUMP_THRESHOLD,
    big_threshold: float = BIG_THRESHOLD,
) -> JumpSeries:
    """Rolling jump test over a full return series.

    Each quarter from index ``bipower_window`` on is tested against the
    ``bipower_window`` returns before it; flags compare |scaled L| to the
    thresholds.
    """
    if bipower_window < MIN_BIPOWER_WINDOW:
        raise ConfigError(
            f"bipower window must be at least {MIN_BIPOWER_WINDOW}, got {bipower_window}"
        )
    r = np.asarray(returns, dtype=float)
    n = r.size
    if n <= bipower_window:
        raise InsufficientHistoryError(
            f"{msa_id or 'series'}: need more than {bipower_window} returns, got {n}"
        )
    if not np.all(np.isfinite(r)):
        raise ValueError("returns must be finite")
    W = bipower_window
    L = np.full(n, np.nan)
    testable = np.zeros(n, dtype=bool)

    a = np.abs(r)
    prods = a[1:] * a[:-1]
    csum = np.concatenate([[0.0], np.cumsum(prods)])
    # Trailing window r[t-W : t] holds products prods[t-W : t-1].
    t = np.arange(W, n)
    b = (csum[t - 1] - csum[t - W]) / (W - 1)
    ok = b > 0.0
    testable[t[ok]] = True
    L[t[ok]] = r[t[ok]] / np.sqrt(b[ok])

    L_scaled = L * SCALE
    basis = np.abs(L_scaled)
    with np.errstate(invalid="ignore"):
        jump = testable & (basis > jump_threshold)
        big = testable & (basis > big_threshold)
    return JumpSeries(
        msa_id=msa_id,
        quarter_codes=np.arange(start_code, start_code + n),
        L=L,
        L_scaled=L_scaled,
        jump_flag=jump,
        big_flag=big,
        testable=testable,
        bipower_window=W,
    )


def jump_incidence(
    series: list[JumpSeries] | tuple[JumpSeries, ...],
    flag: str = "big",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-quarter percentage of testable MSAs carrying the given flag.

    Returns (quarter codes, pct, n flagged, n testable); quarters with no
    testable MSA are omitted. Pass a filtered series list for cohorts.
    """
    if flag not in ("jump", "big"):
        raise ValueError(f"flag must be 'jump' or 'big', not {flag!r}")
    if not series:
        raise ValueError("no jump series supplied")
    lo = min(int(s.quarter_codes[0]) for s in series)
    hi = max(int(s.quarter_codes[-1]) for s in series)
    n_q = hi - lo + 1
    testable = np.zeros(n_q, dtype=int)
    flagged = np.zeros(n_q, dtype=int)
    for s in series:
        offset = int(s.quarter_codes[0]) - lo
        sl = slice(offset, offset + s.n_quarters)
        testable[sl] += s.testable
        flags = s.big_flag if flag == "big" else s.jump_flag
        flagged[sl] += flags
    keep = testable > 0
    codes = np.arange(lo, hi + 1)[keep]
    pct = 100.0 * flagged[keep] / testable[keep]
    return codes, pct, flagged[keep], testable[keep]
