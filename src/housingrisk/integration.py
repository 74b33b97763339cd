"""Rolling-window factor model and integration summaries.

An MSA's integration with the national market is the R-square of its
(optionally pre-whitened) quarterly returns regressed on the common factor
set over a moving window, stamped at the window-end quarter. Summary
statistics, ranks, quintile minima, cohort averages, and factor-beta
averages all derive from those paths, held on one grid of window ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import AlignedDataset, FactorTable, QuarterIndex, ReturnPanel, align
from .errors import AlignmentError, ConfigError, InsufficientHistoryError
from .regress import PrewhitenResult, _fit_stack, ar1_prewhiten, trend_fit

__all__ = [
    "IntegrationSummary",
    "PanelIntegration",
    "CHARACTERISTICS",
    "CROSS_STATS",
    "rolling_factor_model",
    "integrate_panel",
    "integration_summary",
    "cohort_average",
    "beta_average",
]

#: Summary characteristics, in report-column order.
CHARACTERISTICS = (
    "mean_return",
    "sigma",
    "final_r_square",
    "change_r_square",
    "trend_t_stat",
)

#: The rows of ``IntegrationSummary.cross``, in order.
CROSS_STATS = ("mean", "sd", "min", "max")

MIN_PREWHITEN_OBS = 10
MIN_SUMMARY_WINDOWS = 3


@dataclass(frozen=True, eq=False)
class PanelIntegration:
    """Rolling R-square and coefficient paths of every fitted MSA on one window grid.

    Column s of ``r_square`` (N, S) and ``beta`` (N, S, k) is the window
    ending in quarter ``ends[s]``; row c is MSA ``ids[c]`` (panel order),
    whose first window is column ``first[c]``. Every MSA's windows run to the
    last column, and its cells before ``first[c]`` are NaN. ``beta`` holds
    the intercept, then the factors, in ``names`` order. ``skipped`` holds
    ``(msa_id, reason)`` for each MSA that was not fitted, in panel order, and
    ``prewhiten`` each pre-whitened MSA's AR(1) result.
    """

    ids: tuple[str, ...]
    names: tuple[str, ...]
    ends: np.ndarray
    first: np.ndarray
    r_square: np.ndarray
    beta: np.ndarray
    skipped: tuple[tuple[str, str], ...]
    prewhiten: dict[str, PrewhitenResult]

    @property
    def series(self) -> tuple[str, ...]:
        # perfbench/tracing.py counts the fitted MSAs as len(result.series).
        return self.ids


def _check_window(k: int, window: int) -> None:
    if window < k + 2:
        raise ConfigError(
            f"window of {window} leaves too few degrees of freedom for "
            f"{k} regressors; minimum window is {k + 2}"
        )


def _span_fits(X: np.ndarray, Y: np.ndarray, window: int, names: tuple[str, ...]):
    """Fit every column of Y on ``[1 | X]`` over each ``window``-row span of
    the rows: one ``regress._fit_stack`` call, so one Householder QR of
    ``[1 | X | Y]`` per span serves all columns."""
    Xy = np.column_stack([np.ones(X.shape[0]), X, Y])
    return _fit_stack(sliding_window_view(Xy, window, axis=0).transpose(0, 2, 1), names)


def rolling_factor_model(dataset: AlignedDataset, window: int = 20) -> PanelIntegration:
    """Fit the factor model over every ``window``-row span of an aligned MSA.

    Windows slide one row at a time; each fit's R-square and coefficient
    vector are stamped at the quarter of the window's last row, in a
    one-row ``PanelIntegration``. All windows are fitted in one stacked
    Householder QR (``regress._fit_stack``). A badly conditioned window is
    refitted by pivoted QR, so the first rank-deficient window raises the
    same ``SingularDesignError`` as a per-window pivoted QR.
    """
    names = ("const",) + tuple(dataset.factor_ids)
    _check_window(len(names), window)
    n = dataset.n_rows
    if n < window:
        raise AlignmentError(
            f"{dataset.msa_id}: {n} aligned rows < window of {window}"
        )
    fit = _span_fits(dataset.X, dataset.y[:, None], window, names)
    if fit.failed:
        raise fit.failed[min(fit.failed)]
    return PanelIntegration(
        ids=(dataset.msa_id,), names=names, ends=dataset.quarter_codes[window - 1 :].copy(),
        first=np.zeros(1, dtype=int), r_square=np.ascontiguousarray(fit.r_square.T),
        beta=np.ascontiguousarray(fit.beta.transpose(1, 0, 2)), skipped=(), prewhiten={},
    )


def integrate_panel(
    returns: ReturnPanel,
    factors: FactorTable,
    window: int = 20,
    prewhiten: bool = True,
) -> PanelIntegration:
    """Run the rolling factor model for every MSA in the panel.

    Pre-whitening (AR(1) residuals, per-MSA, applied before alignment)
    consumes one leading observation when lag 1 is selected. MSAs that are
    too short to pre-whiten, align, or fill a single window, and MSAs with a
    rank-deficient window, are skipped with a logged reason rather than
    failing the panel; InsufficientHistoryError if every MSA is.

    Every MSA regresses on the same factors, so its aligned rows are the
    tail of one grid: the panel's quarters where every factor is present,
    from its first (pre-whitened) return on. Each window is keyed by the
    grid row it starts on, and one ``_span_fits`` call fits every MSA over
    every span, with the MSAs' returns as the responses (zeros before an
    MSA enters). Seemingly unrelated regressions with identical regressors
    reduce to OLS one equation at a time (Zellner 1962), so the span fits
    are the result's columns. A rank-deficient span skips every MSA that
    holds it, with the error of the MSA's first such window, as
    ``rolling_factor_model`` raises it. Skips are listed in panel order.
    """
    datasets = []
    skipped = []
    pw_info: dict[str, PrewhitenResult] = {}
    for msa_id in returns.msa_ids():
        start, values = returns.series(msa_id)
        if prewhiten:
            if values.size < MIN_PREWHITEN_OBS:
                skipped.append(
                    (msa_id, f"too short to pre-whiten ({values.size} < {MIN_PREWHITEN_OBS} obs)")
                )
                continue
            pw = ar1_prewhiten(values)
            pw_info[msa_id] = pw
            values = pw.residuals
            start = start + pw.offset
        quarters = np.arange(start.code, start.code + values.size)
        try:
            dataset = align(msa_id, quarters, values, factors)
        except AlignmentError as exc:
            skipped.append((msa_id, str(exc)))
            continue
        if dataset.n_rows < window:
            skipped.append((msa_id, f"{dataset.n_rows} aligned rows < window of {window}"))
            continue
        datasets.append(dataset)

    kept = []
    if datasets:
        names = ("const",) + tuple(factors.factor_ids)
        _check_window(len(names), window)
        # A panel series has no gap, and pre-whitening leaves a series either
        # free of NaN or all NaN (which align rejects), so every MSA's aligned
        # rows are the tail of the longest MSA's: the grid of the span fits.
        grid = max(datasets, key=lambda d: d.n_rows)
        Y = np.zeros((grid.n_rows, len(datasets)))
        for c, d in enumerate(datasets):
            Y[grid.n_rows - d.n_rows :, c] = d.y
        fit = _span_fits(grid.X, Y, window, names)
        first = np.array([grid.n_rows - d.n_rows for d in datasets])  # the grid row of its first window
        failed = sorted(fit.failed)
        for c, d in enumerate(datasets):
            bad = [s for s in failed if s >= first[c]]
            if bad:
                skipped.append((d.msa_id, str(fit.failed[bad[0]])))
            else:
                kept.append(c)
        order = {msa_id: i for i, msa_id in enumerate(returns.msa_ids())}
        skipped.sort(key=lambda skip: order[skip[0]])
    if not kept:
        msa_id, reason = skipped[0]
        raise InsufficientHistoryError(f"no MSA could be integrated; first skip: {msa_id}: {reason}")
    # MSA-major, so each MSA's path is one contiguous row, as trend_fit reads it.
    r_square = np.ascontiguousarray(fit.r_square.T[kept])
    beta = np.ascontiguousarray(fit.beta.transpose(1, 0, 2)[kept])
    first = first[kept]
    before = np.arange(r_square.shape[1]) < first[:, None]
    r_square[before] = np.nan
    beta[before] = np.nan
    ids = tuple(datasets[c].msa_id for c in kept)
    return PanelIntegration(
        ids, names, grid.quarter_codes[window - 1 :], first, r_square, beta, tuple(skipped), pw_info
    )


@dataclass(frozen=True)
class IntegrationSummary:
    """Per-MSA characteristics with cross-MSA ranks, moments and quintiles.

    Row k of ``values`` and ``ranks`` is MSA ``ids[k]`` (ids sorted) and
    column c is ``CHARACTERISTICS[c]``. A rank runs 1..N lowest to highest
    within its column, ties broken by MSA id. ``cross`` has one row per
    ``CROSS_STATS`` entry. Row q of ``quintile_minima`` is the minimum of
    rank-quintile bucket q + 1 (bucket sizes ceil(N/5) with the remainder in
    the last; an empty trailing bucket inherits the previous minimum, so the
    five values are always defined and non-decreasing).
    """

    ids: tuple[str, ...]
    values: np.ndarray  # (N, 5)
    ranks: np.ndarray  # (N, 5) int
    cross: np.ndarray  # (4, 5)
    quintile_minima: np.ndarray  # (5, 5)
    excluded: tuple[tuple[str, str], ...]

    @property
    def n(self) -> int:
        return len(self.ids)


def _quintile_minima(sorted_values: np.ndarray) -> tuple[float, ...]:
    n = sorted_values.size
    size = -(-n // 5)  # ceil
    minima = []
    for q in range(5):
        lo = min(q * size, n)
        hi = min((q + 1) * size, n) if q < 4 else n
        if hi > lo:
            minima.append(float(sorted_values[lo:hi].min()))
        else:
            minima.append(minima[-1])
    return tuple(minima)


def integration_summary(integration: PanelIntegration, returns: ReturnPanel) -> IntegrationSummary:
    """Summarise integration across MSAs (mean/sigma of raw returns, final
    and change in R-square, trend t-stat, ranks, quintiles).

    MSAs with fewer than 3 windows are excluded (a trend fit needs 3
    points); exclusions are logged on the result.
    """
    ids, rows, excluded = [], [], []
    for c in sorted(range(len(integration.ids)), key=integration.ids.__getitem__):
        msa_id, path = integration.ids[c], integration.r_square[c, integration.first[c] :]
        if path.size < MIN_SUMMARY_WINDOWS:
            excluded.append((msa_id, f"only {path.size} windows (< {MIN_SUMMARY_WINDOWS})"))
            continue
        _, r = returns.series(msa_id)
        ids.append(msa_id)
        rows.append((
            float(r.mean()),
            float(r.std(ddof=1)) if r.size > 1 else 0.0,
            float(path[-1]),
            float(path[-1] - path[0]),
            trend_fit(path).slope_t_stat,
        ))
    if not rows:
        raise InsufficientHistoryError("no MSA has enough windows to summarise")

    values = np.array(rows)
    # Stable over rows in id order, so a tie is broken by MSA id.
    order = np.argsort(values, axis=0, kind="stable")
    ranks = order.argsort(axis=0) + 1  # the inverse permutations
    # Each column sorted as a contiguous 1-D array: a reduction along axis 0
    # of ``values`` would sum in another order. min() and max() rather than
    # the end elements, which differ from them in sign on a 0.0/-0.0 tie.
    ranked = [values[order[:, c], c] for c in range(len(CHARACTERISTICS))]
    cross = np.array([(v.mean(), v.std(ddof=1) if v.size > 1 else 0.0, v.min(), v.max()) for v in ranked]).T
    quintiles = np.array([_quintile_minima(v) for v in ranked]).T
    return IntegrationSummary(tuple(ids), values, ranks, cross, quintiles, tuple(excluded))


def _common_average(
    integration: PanelIntegration,
    members,
    start: QuarterIndex | None,
    paths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Average rows ``paths[c]`` of ``members`` over the window ends they all report."""
    if not members:
        raise ValueError("cohort membership is empty")
    row = {msa_id: c for c, msa_id in enumerate(integration.ids)}
    missing = [m for m in members if m not in row]
    if missing:
        raise KeyError(f"no integration series for cohort members: {', '.join(missing)}")
    rows = [row[m] for m in sorted(members)]
    # Every MSA's windows run to the last column, so the ends all members
    # report start at their latest first window.
    lo = int(integration.first[rows].max())
    if start is not None:
        for c in rows:
            if int(integration.ends[integration.first[c]]) > start.code:
                raise AlignmentError(
                    f"{integration.ids[c]} has no window ending by cohort start {start}"
                )
        lo = max(lo, int(np.searchsorted(integration.ends, start.code)))
    if lo == integration.ends.size:
        raise AlignmentError("cohort members share no common window-end quarters")
    acc = np.zeros(integration.ends.size - lo)
    for c in rows:
        acc += paths[c, lo:]
    return integration.ends[lo:], acc / len(rows)


def cohort_average(
    integration: PanelIntegration,
    members,
    start: QuarterIndex | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Average R-square across cohort members, over quarters they all report.

    Returns (quarter codes, averages). If ``start`` is given, every member
    must already be reporting by that quarter and the output begins there.
    """
    return _common_average(integration, list(members), start, integration.r_square)


def beta_average(integration: PanelIntegration, factor_id: str) -> tuple[np.ndarray, np.ndarray]:
    """Average one factor's rolling coefficient across all MSAs, over quarters they all report."""
    if not factor_id:
        raise ValueError("factor id is empty")
    if factor_id not in integration.names:
        raise KeyError(f"the integration has no factor {factor_id!r}")
    return _common_average(
        integration, integration.ids, None, integration.beta[:, :, integration.names.index(factor_id)]
    )
