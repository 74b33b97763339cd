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
from .errors import AlignmentError, ConfigError, SingularDesignError
from .regress import PrewhitenResult, _fit_stack, ar1_prewhiten, trend_fit

__all__ = [
    "IntegrationSeries",
    "MsaSummary",
    "IntegrationSummary",
    "PanelIntegration",
    "CHARACTERISTICS",
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


def rolling_factor_model(dataset: AlignedDataset, window: int = 20) -> IntegrationSeries:
    """Fit the factor model over every ``window``-row span of an aligned MSA.

    Windows slide one row at a time; each fit's R-square and coefficient
    vector are stamped at the quarter of the window's last row. All windows
    are fitted in one stacked Householder QR of ``[X | y]``
    (``regress._fit_stack``). A badly conditioned window is refitted by
    pivoted QR, so the first rank-deficient window raises the same
    ``SingularDesignError`` as a per-window pivoted QR.
    """
    k = len(dataset.factor_ids) + 1
    if window < k + 2:
        raise ConfigError(
            f"window of {window} leaves too few degrees of freedom for "
            f"{k} regressors; minimum window is {k + 2}"
        )
    n = dataset.n_rows
    if n < window:
        raise AlignmentError(
            f"{dataset.msa_id}: {n} aligned rows < window of {window}"
        )
    names = ("const",) + tuple(dataset.factor_ids)
    Xy = np.column_stack([np.ones(n), dataset.X, dataset.y])
    fit = _fit_stack(sliding_window_view(Xy, window, axis=0).transpose(0, 2, 1), names)
    if fit.failed:
        raise fit.failed[min(fit.failed)]
    ends = dataset.quarter_codes[window - 1 :].copy()
    return IntegrationSeries(
        msa_id=dataset.msa_id,
        window_ends=ends,
        r_squares=fit.r_square,
        betas=fit.beta,
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
    """
    series = []
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
            if dataset.n_rows < window:
                skipped.append(
                    (msa_id, f"{dataset.n_rows} aligned rows < window of {window}")
                )
                continue
            series.append(rolling_factor_model(dataset, window))
        except (AlignmentError, SingularDesignError) as exc:
            skipped.append((msa_id, str(exc)))
    return PanelIntegration(tuple(series), tuple(skipped), pw_info)


@dataclass(frozen=True)
class MsaSummary:
    msa_id: str
    mean_return: float
    sigma: float
    final_r_square: float
    change_r_square: float
    trend_t_stat: float

    def value(self, characteristic: str) -> float:
        return getattr(self, characteristic)


@dataclass(frozen=True)
class IntegrationSummary:
    """Per-MSA characteristics with cross-MSA ranks, moments, and quintiles.

    ``ranks[c][msa_id]`` runs 1..N lowest-to-highest with ties broken by
    MSA id. ``quintile_minima[c]`` is the minimum of each rank-quintile
    bucket (bucket sizes ceil(N/5) with the remainder in the last; an empty
    trailing bucket inherits the previous minimum so the five values are
    always defined and non-decreasing).
    """

    rows: tuple[MsaSummary, ...]
    ranks: dict[str, dict[str, int]]
    cross: dict[str, dict[str, float]]
    quintile_minima: dict[str, tuple[float, ...]]
    excluded: tuple[tuple[str, str], ...]

    @property
    def n(self) -> int:
        return len(self.rows)


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
    rows = []
    excluded = []
    for s in sorted(series, key=lambda s: s.msa_id):
        if s.n_windows < MIN_SUMMARY_WINDOWS:
            excluded.append(
                (s.msa_id, f"only {s.n_windows} windows (< {MIN_SUMMARY_WINDOWS})")
            )
            continue
        _, r = returns.series(s.msa_id)
        tf = trend_fit(s.r_squares)
        rows.append(
            MsaSummary(
                msa_id=s.msa_id,
                mean_return=float(r.mean()),
                sigma=float(r.std(ddof=1)) if r.size > 1 else 0.0,
                final_r_square=float(s.r_squares[-1]),
                change_r_square=s.change_r_square,
                trend_t_stat=tf.slope_t_stat,
            )
        )
    if not rows:
        raise ValueError("no MSA has enough windows to summarise")

    ranks: dict[str, dict[str, int]] = {}
    cross: dict[str, dict[str, float]] = {}
    quintiles: dict[str, tuple[float, ...]] = {}
    for c in CHARACTERISTICS:
        order = sorted(rows, key=lambda m: (m.value(c), m.msa_id))
        ranks[c] = {m.msa_id: i + 1 for i, m in enumerate(order)}
        vals = np.array([m.value(c) for m in order])
        cross[c] = {
            "mean": float(vals.mean()),
            "sd": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            "min": float(vals.min()),
            "max": float(vals.max()),
        }
        quintiles[c] = _quintile_minima(vals)
    return IntegrationSummary(
        rows=tuple(rows),
        ranks=ranks,
        cross=cross,
        quintile_minima=quintiles,
        excluded=tuple(excluded),
    )


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
    members=None,
    start: QuarterIndex | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Average one factor's rolling coefficient across MSAs (all by default)."""
    if not factor_id:
        raise ValueError("factor id is empty")
    series = list(series)
    if members is None:
        members = [s.msa_id for s in series]
    for s in series:
        if factor_id not in s.names:
            raise KeyError(f"{s.msa_id} has no factor {factor_id!r}")
    return _common_average(
        series, list(members), start, lambda s: s.beta_series(factor_id)
    )
