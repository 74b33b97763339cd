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
from numpy.lib.stride_tricks import sliding_window_view

from .core import QuarterIndex, ReturnPanel
from .errors import ConfigError, InsufficientHistoryError

__all__ = [
    "JumpSeries",
    "SCALE",
    "JUMP_THRESHOLD",
    "BIG_THRESHOLD",
    "MIN_BIPOWER_WINDOW",
    "lm_series",
    "jump_incidence",
]

SCALE = float(np.sqrt(2.0 / np.pi))
JUMP_THRESHOLD = 1.65
BIG_THRESHOLD = 2.0
MIN_BIPOWER_WINDOW = 8


@dataclass(frozen=True, eq=False)
class JumpSeries:
    """L statistics and flags of every testable MSA on the return panel's grid.

    Arrays are (quarters, MSAs): row t is quarter ``start + t`` and column k
    is MSA ``ids[k]``, whose first return is in row ``first_offsets[k]``.
    A quarter is untestable (L is NaN, flags are False) when fewer than
    ``bipower_window`` of its MSA's returns precede it or when their bipower
    variation is zero. ``skipped`` holds ``(msa_id, reason)`` for each MSA
    too short to test.
    """

    ids: tuple[str, ...]
    start: QuarterIndex
    first_offsets: np.ndarray
    L: np.ndarray
    L_scaled: np.ndarray
    jump_flag: np.ndarray
    big_flag: np.ndarray
    testable: np.ndarray
    skipped: tuple[tuple[str, str], ...]


def lm_series(
    panel: ReturnPanel,
    bipower_window: int = 20,
    jump_threshold: float = JUMP_THRESHOLD,
    big_threshold: float = BIG_THRESHOLD,
) -> JumpSeries:
    """Rolling jump test over every MSA of a return panel at once.

    Each quarter from an MSA's return ``bipower_window`` on is tested
    against the ``bipower_window`` returns before it; flags compare
    |scaled L| to the thresholds. MSAs with no more than ``bipower_window``
    returns are skipped; InsufficientHistoryError if every MSA is.
    """
    W = bipower_window
    if W < MIN_BIPOWER_WINDOW:
        raise ConfigError(f"bipower window must be at least {MIN_BIPOWER_WINDOW}, got {W}")
    if np.isinf(panel.values).any():
        raise ValueError("returns must be finite")
    n_returns = panel.n_quarters - panel.first_offsets
    keep = n_returns > W
    skipped = tuple((m.msa_id, f"need more than {W} returns, got {n}")
                    for m, n in zip(panel.msas, n_returns.tolist()) if n <= W)
    if not keep.any():
        msa_id, reason = skipped[0]
        raise InsufficientHistoryError(f"no MSA could take the jump test; first skip: {msa_id}: {reason}")
    offsets = panel.first_offsets[keep]
    r = np.nan_to_num(panel.values[:, keep])
    a = np.abs(r)
    # Each window's W - 1 adjacent products are summed on their own, along a
    # contiguous row as a one-window sum adds them: a difference of running
    # sums would lose a quiet window's digits after a volatile stretch.
    prod = np.ascontiguousarray((a[1:] * a[:-1]).T)  # (MSA, quarter)
    b = np.zeros(r.shape)
    windows = sliding_window_view(prod, W - 1, axis=1)[:, : len(r) - W]
    b[W:] = windows.sum(axis=-1).T / (W - 1)  # the window r[t-W : t]
    testable = (np.arange(len(r))[:, None] >= offsets + W) & (b > 0.0)
    L = np.full(r.shape, np.nan)
    L[testable] = r[testable] / np.sqrt(b[testable])
    L_scaled = L * SCALE
    with np.errstate(invalid="ignore"):
        jump = testable & (np.abs(L_scaled) > jump_threshold)
        big = testable & (np.abs(L_scaled) > big_threshold)
    ids = tuple(m.msa_id for m, ok in zip(panel.msas, keep) if ok)
    return JumpSeries(ids, panel.start, offsets, L, L_scaled, jump, big, testable, skipped)


def jump_incidence(
    series: JumpSeries,
    columns,
    flag: str = "big",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-quarter percentage of testable MSAs carrying the given flag.

    ``columns`` are the column indices in ``series`` of the MSAs to count,
    such as a cohort's. Returns (quarter codes, pct, n flagged, n testable);
    quarters where none of them is testable are omitted.
    """
    if flag not in ("jump", "big"):
        raise ValueError(f"flag must be 'jump' or 'big', not {flag!r}")
    if not len(columns):
        raise ValueError("no MSA columns supplied")
    flags = series.big_flag if flag == "big" else series.jump_flag
    testable = series.testable[:, columns].sum(axis=1)
    flagged = flags[:, columns].sum(axis=1)
    keep = np.flatnonzero(testable)
    return series.start.code + keep, 100.0 * flagged[keep] / testable[keep], flagged[keep], testable[keep]
