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

# align and ar1_prewhiten are not called here since the panel is aligned and
# pre-whitened as a whole; perfbench/tracing.py still wraps them in this module.
from .core import AlignedDataset, FactorTable, QuarterIndex, ReturnPanel, align  # noqa: F401
from .errors import AlignmentError, ConfigError, InsufficientHistoryError
from .regress import MIN_PREWHITEN_OBS, _ar1_rows, _fit_stack, ar1_prewhiten, trend_fit  # noqa: F401

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

MIN_SUMMARY_WINDOWS = 3


@dataclass(frozen=True, eq=False)
class PanelIntegration:
    """Rolling R-square and coefficient paths of every fitted MSA on one window grid.

    Column s of ``r_square`` (N, S) and ``beta`` (N, S, k) is the window
    ending in quarter ``ends[s]``; row c is MSA ``ids[c]`` (panel order),
    whose first window is column ``first[c]``. Every MSA's windows run to the
    last column, and its cells before ``first[c]`` are NaN. ``beta`` holds
    the intercept, then the factors, in ``names`` order. ``skipped`` holds
    ``(msa_id, reason)`` for each MSA that was not fitted, in panel order.
    ``order``, ``phi`` and ``near_unit_root`` hold each MSA's
    ``ar1_prewhiten`` choice; without pre-whitening, 0, 0.0 and False.
    """

    ids: tuple[str, ...]
    names: tuple[str, ...]
    ends: np.ndarray
    first: np.ndarray
    r_square: np.ndarray
    beta: np.ndarray
    skipped: tuple[tuple[str, str], ...]
    order: np.ndarray
    phi: np.ndarray
    near_unit_root: np.ndarray

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
    ``[1 | X]`` per span serves all columns, and each column gets the bits
    it gets alone."""
    Xy = np.column_stack([np.ones(X.shape[0]), X, Y])
    return _fit_stack(sliding_window_view(Xy, window, axis=0).transpose(0, 2, 1), names, diagnostics=False)


def rolling_factor_model(dataset: AlignedDataset, window: int = 20) -> PanelIntegration:
    """Fit the factor model over every ``window``-row span of an aligned MSA.

    Windows slide one row at a time; each fit's R-square and coefficient
    vector are stamped at the quarter of the window's last row, in a
    one-row ``PanelIntegration``. All windows are fitted in one stacked
    Householder QR (``regress._fit_stack``); the first rank-deficient window
    raises its ``SingularDesignError``, which names the dependent columns in
    declared order.
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
        beta=np.ascontiguousarray(fit.beta.transpose(1, 0, 2)), skipped=(),
        order=np.zeros(1, dtype=int), phi=np.zeros(1), near_unit_root=np.zeros(1, dtype=bool),
    )


def integrate_panel(
    returns: ReturnPanel,
    factors: FactorTable,
    window: int = 20,
    prewhiten: bool = True,
) -> PanelIntegration:
    """Run the rolling factor model for every MSA in the panel.

    A window too small for the factor count raises ConfigError first. MSAs
    too short to pre-whiten, align, or fill a single window, and MSAs with a
    rank-deficient window, are skipped with a logged reason, in panel order;
    InsufficientHistoryError if every MSA is.

    Pre-whitening takes AR(1) residuals of each MSA's returns, one quarter
    shorter when lag 1 is selected, in one ``regress._ar1_rows`` call per
    entry quarter. One mask of the quarters where every factor is present
    then aligns every MSA: its rows are the masked quarters from its first
    (pre-whitened) return on, the tail of one grid. One ``_span_fits`` call
    fits every MSA over every window span of that grid, zeros before an MSA
    enters: with identical regressors, seemingly unrelated regressions are
    OLS one equation at a time (Zellner 1962). A rank-deficient span skips
    every MSA that holds it, with the error of its first such window, as
    ``rolling_factor_model`` raises it.
    """
    names = ("const",) + tuple(factors.factor_ids)
    _check_window(len(names), window)
    ids = returns.msa_ids()
    entry = returns.first_offsets
    n_q, n_msas = returns.values.shape
    skip: dict[int, str] = {}  # panel column -> reason
    Y = returns.values.copy()  # each MSA's series, pre-whitened in place
    order, phi, near = np.zeros(n_msas, dtype=int), np.zeros(n_msas), np.zeros(n_msas, dtype=bool)
    if prewhiten:
        for e in sorted(set(entry.tolist())):
            cols = np.flatnonzero(entry == e)
            if n_q - e < MIN_PREWHITEN_OBS:
                skip.update((j, f"too short to pre-whiten ({n_q - e} < {MIN_PREWHITEN_OBS} obs)") for j in cols)
            else:
                resid, phi[cols], order[cols], near[cols] = _ar1_rows(returns.values[e:, cols].T)
                Y[e:, cols] = resid.T
    start = entry + order  # the panel row of each MSA's first aligned return

    codes = returns.start.code + np.arange(n_q)
    f_rows = codes - factors.start.code
    in_range = (f_rows >= 0) & (f_rows < factors.n_quarters)
    complete = in_range.copy()
    complete[in_range] = ~np.isnan(factors.values[f_rows[in_range]]).any(axis=1)
    # The in-range and the complete quarters from each MSA's start on.
    n_over = np.cumsum(in_range[::-1])[::-1][start]
    n_rows = np.cumsum(complete[::-1])[::-1][start]
    for j in np.flatnonzero(n_rows < window):
        skip.setdefault(j, f"{n_rows[j]} aligned rows < window of {window}" if n_rows[j]
                        else f"all {n_over[j]} overlapping quarters of {ids[j]} are incomplete" if n_over[j]
                        else f"no overlap between returns of {ids[j]} and the factor table")

    cols = np.array(sorted(set(range(n_msas)) - skip.keys()), dtype=int)
    if cols.size:
        grid = np.flatnonzero(complete & (np.arange(n_q) >= start[cols].min()))
        Yg = np.where(grid[:, None] >= start[cols], Y[grid][:, cols], 0.0)
        fit = _span_fits(factors.values[f_rows[grid]], Yg, window, names)
        first = grid.size - n_rows[cols]  # the grid row of its first window
        failed = np.array(sorted(fit.failed), dtype=int)
        at = np.searchsorted(failed, first)  # its first rank-deficient span, if any
        for c in np.flatnonzero(at < failed.size):
            skip[cols[c]] = str(fit.failed[failed[at[c]]])
    skipped = tuple((ids[j], skip[j]) for j in sorted(skip))
    if len(skip) == n_msas:
        raise InsufficientHistoryError(f"no MSA could be integrated; first skip: {': '.join(skipped[0])}")
    kept = np.flatnonzero(at == failed.size)
    # MSA-major, so each MSA's path is one contiguous row, as trend_fit reads it.
    r_square = np.ascontiguousarray(fit.r_square.T[kept])
    beta = np.ascontiguousarray(fit.beta.transpose(1, 0, 2)[kept])
    first = first[kept]
    before = np.arange(r_square.shape[1]) < first[:, None]
    r_square[before] = np.nan
    beta[before] = np.nan
    cols = cols[kept]
    return PanelIntegration(
        tuple(ids[j] for j in cols), names, codes[grid[window - 1 :]], first, r_square, beta,
        skipped, order[cols], phi[cols], near[cols],
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
    # Every path runs to the last window, so paths of one length start
    # together and are trend-fitted as one stack.
    size = integration.ends.size - integration.first
    trend_t = np.empty(size.size)
    for length in sorted(n for n in set(size.tolist()) if n >= MIN_SUMMARY_WINDOWS):
        at = np.flatnonzero(size == length)
        trend_t[at] = trend_fit(integration.r_square[at, -length:]).slope_t_stat
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
            float(trend_t[c]),
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
