"""Equal-weighted portfolio construction, rolling risk, diversification.

Diversification is the share of average member risk removed by pooling:
(average member rolling sigma - portfolio rolling sigma) / average member
rolling sigma, per 20-quarter window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import QuarterIndex, ReturnPanel
from .errors import InsufficientHistoryError

__all__ = [
    "PortfolioSeries",
    "portfolio_returns",
    "rolling_sigma",
    "diversification_series",
    "series_correlation",
]


@dataclass(frozen=True)
class PortfolioSeries:
    """Equal-weighted portfolio path and per-window risk decomposition."""

    members: tuple[str, ...]
    return_codes: np.ndarray
    returns: np.ndarray
    window: int
    sigma_codes: np.ndarray
    portfolio_sigma: np.ndarray
    avg_member_sigma: np.ndarray
    diversification: np.ndarray
    dropped_quarters: tuple[int, ...]


def _member_returns(panel: ReturnPanel, members):
    """(sorted members, quarter codes where every member reports, the members'
    returns in those quarters, the other quarter codes)."""
    members = tuple(sorted(members))
    if not members:
        raise ValueError("portfolio membership is empty")
    V = np.column_stack([panel.values[:, panel.column(m)] for m in members])
    full = np.all(np.isfinite(V), axis=1)
    if not np.any(full):
        raise InsufficientHistoryError("no quarter has all members present")
    codes = np.arange(panel.start.code, panel.start.code + panel.n_quarters)
    return members, codes[full], V[full], tuple(codes[~full].tolist())


def portfolio_returns(
    panel: ReturnPanel, members
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Equal-weighted mean return per quarter where every member reports.

    Returns (quarter codes, returns, dropped quarter codes).
    """
    _, codes, common, dropped = _member_returns(panel, members)
    return codes, common.mean(axis=1), dropped


def rolling_sigma(series: np.ndarray, window: int = 20) -> np.ndarray:
    """Sample standard deviation over each trailing window, window-end
    stamped: output[i] covers series[i..i+window-1]."""
    s = np.asarray(series, dtype=float)
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")
    if s.size < window:
        raise InsufficientHistoryError(
            f"need at least {window} observations, got {s.size}"
        )
    return sliding_window_view(s, window).std(axis=1, ddof=1)


def diversification_series(
    panel: ReturnPanel, members, window: int = 20
) -> PortfolioSeries:
    """Portfolio sigma vs average member sigma per window-end quarter.

    All sigmas are computed over the quarters where every member reports,
    so member and portfolio windows line up exactly. Diversification lies in
    [0, 1]. It is exactly 0 where the members are equal over the window, and
    where the member and portfolio sigmas are both 0. Otherwise it is NaN
    where the average member sigma is at most ``window * sqrt(eps)`` times
    the largest |return| in the window: a computed sigma carries a rounding
    error of up to about ``window * eps`` times that (Higham 2002, ch. 1),
    so below the floor the ratio keeps fewer than half its digits. Above it,
    the clip into [0, 1] trims only rounding.
    """
    members, codes, common, dropped = _member_returns(panel, members)
    port = common.mean(axis=1)
    port_sigma = rolling_sigma(port, window)
    member_sigmas = np.column_stack(
        [rolling_sigma(common[:, c], window) for c in range(common.shape[1])]
    )
    avg_sigma = member_sigmas.mean(axis=1)
    scale = sliding_window_view(np.abs(common).max(axis=1), window).max(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        diversification = np.where(
            avg_sigma > window * np.sqrt(np.finfo(float).eps) * scale,
            (avg_sigma - port_sigma) / avg_sigma, np.nan
        )
        # Members equal over a whole window give avg == port in exact arithmetic,
        # but the mean of three or more equal values can round; make the zero exact.
        same = sliding_window_view((common == common[:, :1]).all(axis=1), window).all(axis=1)
        diversification = np.where(same | (avg_sigma == port_sigma), 0.0, diversification)
    # Pooling never adds risk, so the ratio lies in [0, 1] up to rounding.
    diversification = np.clip(diversification, 0.0, 1.0)
    return PortfolioSeries(
        members=members,
        return_codes=codes,
        returns=port,
        window=window,
        sigma_codes=codes[window - 1 :],
        portfolio_sigma=port_sigma,
        avg_member_sigma=avg_sigma,
        diversification=diversification,
        dropped_quarters=dropped,
    )


def series_correlation(
    codes_a, values_a, codes_b, values_b,
    start: QuarterIndex | None = None,
    end: QuarterIndex | None = None,
) -> tuple[float, int]:
    """Pearson correlation of two quarter-stamped series over their overlap
    (optionally clipped to [start, end]). Returns (r, n); r is NaN when
    either series is constant over the overlap. Each series' quarter codes
    must be sorted and unique.
    """
    codes_a = np.asarray(codes_a, dtype=int)
    codes_b = np.asarray(codes_b, dtype=int)
    common = np.intersect1d(codes_a, codes_b, assume_unique=True)
    if start is not None:
        common = common[common >= start.code]
    if end is not None:
        common = common[common <= end.code]
    if common.size < 8:
        raise InsufficientHistoryError(
            f"need at least 8 overlapping quarters, got {common.size}"
        )
    a = np.asarray(values_a, dtype=float)[np.searchsorted(codes_a, common)]
    b = np.asarray(values_b, dtype=float)[np.searchsorted(codes_b, common)]
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt(np.sum(da**2) * np.sum(db**2))
    if denom == 0.0:
        return float("nan"), int(common.size)
    return float(np.sum(da * db) / denom), int(common.size)
