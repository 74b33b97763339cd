"""Rolling-window factor model and integration summaries.

An MSA's integration with the national market is the R-square of its
(optionally pre-whitened) quarterly returns regressed on the common factor
set over a moving window, stamped at the window-end quarter. Summary
statistics, ranks, quintile minima, cohort averages, and factor-beta
averages all derive from those per-MSA series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import AlignedDataset, FactorTable, QuarterIndex, ReturnPanel, align
from .errors import AlignmentError, ConfigError
from .regress import PrewhitenResult, _fit_stack, ar1_prewhiten, trend_fit

__all__ = [
    "IntegrationSeries",
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


@dataclass(frozen=True)
class IntegrationSeries:
    """Rolling R-square and coefficient paths for one MSA.

    ``betas`` has one row per window and one column per regressor
    (intercept first, then factors, in ``names`` order). ``window_ends``
    holds quarter codes.
    """

    msa_id: str
    window_ends: np.ndarray
    r_squares: np.ndarray
    betas: np.ndarray
    names: tuple[str, ...]
    window: int

    @property
    def n_windows(self) -> int:
        return len(self.window_ends)

    def beta_series(self, name: str) -> np.ndarray:
        return self.betas[:, self.names.index(name)]

    @property
    def change_r_square(self) -> float:
        return float(self.r_squares[-1] - self.r_squares[0])


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


def rolling_factor_model(dataset: AlignedDataset, window: int = 20) -> IntegrationSeries:
    """Fit the factor model over every ``window``-row span of an aligned MSA.

    Windows slide one row at a time; each fit's R-square and coefficient
    vector are stamped at the quarter of the window's last row. All windows
    are fitted in one stacked Householder QR (``regress._fit_stack``). A
    badly conditioned window is refitted by pivoted QR, so the first
    rank-deficient window raises the same ``SingularDesignError`` as a
    per-window pivoted QR.
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
    return IntegrationSeries(
        msa_id=dataset.msa_id,
        window_ends=dataset.quarter_codes[window - 1 :].copy(),
        r_squares=fit.r_square[:, 0],
        betas=fit.beta[:, 0],
        names=names,
        window=window,
    )


@dataclass(frozen=True)
class PanelIntegration:
    """All per-MSA integration series plus the skip log."""

    series: tuple[IntegrationSeries, ...]
    skipped: tuple[tuple[str, str], ...]
    prewhiten: dict[str, PrewhitenResult]

    def by_msa(self, msa_id: str) -> IntegrationSeries:
        for s in self.series:
            if s.msa_id == msa_id:
                return s
        raise KeyError(f"no integration series for {msa_id!r}")


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
    failing the panel.

    Every MSA regresses on the same factors, so its aligned rows are the
    tail of one grid: the panel's quarters where every factor is present,
    from its first (pre-whitened) return on. Each window is keyed by the
    grid row it starts on, and one ``_span_fits`` call fits every MSA over
    every span, with the MSAs' returns as the responses (zeros before an
    MSA enters). Seemingly unrelated regressions with identical regressors
    reduce to OLS one equation at a time (Zellner 1962), so each series is
    sliced out of the span fits. A rank-deficient span skips every MSA that
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

    series = []
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
        failed = sorted(fit.failed)
        ends = grid.quarter_codes[window - 1 :]
        # One contiguous row of windows per MSA, as rolling_factor_model gives.
        r_squares = np.ascontiguousarray(fit.r_square.T)
        betas = np.ascontiguousarray(fit.beta.transpose(1, 0, 2))
        for c, d in enumerate(datasets):
            off = grid.n_rows - d.n_rows  # the grid row of its first window
            bad = [s for s in failed if s >= off]
            if bad:
                skipped.append((d.msa_id, str(fit.failed[bad[0]])))
            else:
                series.append(IntegrationSeries(
                    d.msa_id, ends[off:], r_squares[c, off:], betas[c, off:], names, window
                ))
        order = {msa_id: i for i, msa_id in enumerate(returns.msa_ids())}
        skipped.sort(key=lambda skip: order[skip[0]])
    return PanelIntegration(tuple(series), tuple(skipped), pw_info)


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


def integration_summary(
    series: list[IntegrationSeries] | tuple[IntegrationSeries, ...],
    returns: ReturnPanel,
) -> IntegrationSummary:
    """Summarise integration across MSAs (mean/sigma of raw returns, final
    and change in R-square, trend t-stat, ranks, quintiles).

    MSAs with fewer than 3 windows are excluded (a trend fit needs 3
    points); exclusions are logged on the result.
    """
    ids, rows, excluded = [], [], []
    for s in sorted(series, key=lambda s: s.msa_id):
        if s.n_windows < MIN_SUMMARY_WINDOWS:
            excluded.append(
                (s.msa_id, f"only {s.n_windows} windows (< {MIN_SUMMARY_WINDOWS})")
            )
            continue
        _, r = returns.series(s.msa_id)
        ids.append(s.msa_id)
        rows.append((
            float(r.mean()),
            float(r.std(ddof=1)) if r.size > 1 else 0.0,
            float(s.r_squares[-1]),
            s.change_r_square,
            trend_fit(s.r_squares).slope_t_stat,
        ))
    if not rows:
        raise ValueError("no MSA has enough windows to summarise")

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
    series: list[IntegrationSeries],
    members: list[str] | tuple[str, ...],
    start: QuarterIndex | None,
    extract,
) -> tuple[np.ndarray, np.ndarray]:
    if not members:
        raise ValueError("cohort membership is empty")
    by_id = {s.msa_id: s for s in series}
    missing = [m for m in members if m not in by_id]
    if missing:
        raise KeyError(f"no integration series for cohort members: {', '.join(missing)}")
    chosen = [by_id[m] for m in sorted(members)]
    # Each member's window ends are distinct, so a code every member reports
    # appears once per member.
    codes, counts = np.unique(np.concatenate([s.window_ends for s in chosen]), return_counts=True)
    common = codes[counts == len(chosen)]
    if start is not None:
        for s in chosen:
            if int(s.window_ends[0]) > start.code:
                raise AlignmentError(
                    f"{s.msa_id} has no window ending by cohort start {start}"
                )
        common = common[common >= start.code]
    if common.size == 0:
        raise AlignmentError("cohort members share no common window-end quarters")
    acc = np.zeros(common.size)
    for s in chosen:
        # window_ends are sorted, so searchsorted recovers member positions.
        pos = np.searchsorted(s.window_ends, common)
        acc += extract(s)[pos]
    return common, acc / len(chosen)


def cohort_average(
    series: list[IntegrationSeries] | tuple[IntegrationSeries, ...],
    members,
    start: QuarterIndex | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Average R-square across cohort members, over quarters they all report.

    Returns (quarter codes, averages). If ``start`` is given, every member
    must already be reporting by that quarter and the output begins there.
    """
    return _common_average(list(series), list(members), start, lambda s: s.r_squares)


def beta_average(
    series: list[IntegrationSeries] | tuple[IntegrationSeries, ...],
    factor_id: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Average one factor's rolling coefficient across all MSAs, over quarters they all report."""
    if not factor_id:
        raise ValueError("factor id is empty")
    series = list(series)
    for s in series:
        if factor_id not in s.names:
            raise KeyError(f"{s.msa_id} has no factor {factor_id!r}")
    return _common_average(
        series, [s.msa_id for s in series], None, lambda s: s.beta_series(factor_id)
    )
