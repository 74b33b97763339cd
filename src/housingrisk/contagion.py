"""Spatial contagion regressions.

A satellite MSA's returns are regressed on the contemporaneous and lagged
returns of a primary coastal MSA; a Durbin-Watson check (policy ``auto``)
re-fits via Cochrane-Orcutt when first-order serial correlation cannot be
ruled out at 5%. The interacted variant adds each source lag multiplied by
the contemporaneous boom/bust residual of a log index's time trend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError,
    ConfigError,
    DomainError,
    HousingRiskError,
    InsufficientHistoryError,
)
from .regress import (
    _StackFit,
    _cochrane_orcutt_stack,
    _fit_stack,
    _t_stats,
    _too_few_for_cochrane_orcutt,
    _too_few_for_ols,
    trend_fit,
)
# Unused here since the fits are stacked; perfbench/tracing.py still wraps
# these names in this module, so they stay importable from it.
from .regress import cochrane_orcutt, ols_fit  # noqa: F401

__all__ = [
    "ContagionFit",
    "ContagionFits",
    "SERIAL_POLICIES",
    "PRIMARY_CITY_MENU",
    "dw_bounds",
    "dw_rejects",
    "contagion_fits",
    "contagion_fit",
    "contagion_fit_interacted",
    "boombust_residual",
]

SERIAL_POLICIES = ("auto", "never", "always")

#: Default primary coastal cities and their satellite targets, as name
#: fragments matched case-insensitively against MSA names at run time.
PRIMARY_CITY_MENU = {
    "Los Angeles": (
        "Bakersfield",
        "Fresno",
        "Oxnard",
        "Riverside",
        "San Diego",
        "Santa Ana",
        "Santa Barbara",
    ),
    "San Francisco": (
        "Merced",
        "Modesto",
        "Napa",
        "Oakland",
        "Sacramento",
        "Salinas",
        "San Jose",
        "Santa Cruz",
        "Santa Rosa",
        "Stockton",
        "Vallejo",
    ),
    "Santa Barbara": ("Oxnard", "San Luis Obispo"),
}

# Five-percent Durbin-Watson significance bounds (dL, dU), indexed by the
# number of slope regressors (intercept excluded) and sample size. Values
# between tabulated sample sizes are linearly interpolated; outside the
# table the nearest row applies.
_DW_NS = (15, 20, 25, 30, 40, 50, 70, 100, 150, 200)
_DW_TABLE = {
    1: ((1.08, 1.36), (1.20, 1.41), (1.29, 1.45), (1.35, 1.49), (1.44, 1.54),
        (1.50, 1.59), (1.58, 1.64), (1.65, 1.69), (1.72, 1.75), (1.76, 1.78)),
    2: ((0.95, 1.54), (1.10, 1.54), (1.21, 1.55), (1.28, 1.57), (1.39, 1.60),
        (1.46, 1.63), (1.55, 1.67), (1.63, 1.72), (1.71, 1.76), (1.75, 1.79)),
    3: ((0.82, 1.75), (1.00, 1.68), (1.12, 1.66), (1.21, 1.65), (1.34, 1.66),
        (1.42, 1.67), (1.52, 1.70), (1.61, 1.74), (1.69, 1.77), (1.74, 1.80)),
    4: ((0.69, 1.97), (0.90, 1.83), (1.04, 1.77), (1.14, 1.74), (1.29, 1.72),
        (1.38, 1.72), (1.49, 1.74), (1.59, 1.76), (1.68, 1.79), (1.73, 1.81)),
    5: ((0.56, 2.21), (0.79, 1.99), (0.95, 1.89), (1.07, 1.83), (1.23, 1.79),
        (1.34, 1.77), (1.46, 1.77), (1.57, 1.78), (1.66, 1.80), (1.72, 1.82)),
    6: ((0.45, 2.47), (0.69, 2.16), (0.87, 2.01), (1.00, 1.91), (1.18, 1.85),
        (1.29, 1.82), (1.43, 1.80), (1.55, 1.80), (1.65, 1.82), (1.71, 1.83)),
    7: ((0.34, 2.73), (0.60, 2.34), (0.78, 2.14), (0.93, 2.00), (1.12, 1.92),
        (1.25, 1.87), (1.40, 1.84), (1.53, 1.83), (1.64, 1.83), (1.70, 1.84)),
    8: ((0.25, 2.98), (0.50, 2.52), (0.70, 2.26), (0.87, 2.09), (1.07, 1.98),
        (1.21, 1.92), (1.37, 1.87), (1.51, 1.85), (1.62, 1.85), (1.69, 1.85)),
    9: ((0.17, 3.22), (0.41, 2.69), (0.62, 2.39), (0.80, 2.18), (1.02, 2.05),
        (1.16, 1.97), (1.34, 1.91), (1.48, 1.87), (1.61, 1.86), (1.68, 1.86)),
}


def dw_bounds(n: int, k_slopes: int) -> tuple[float, float]:
    """(dL, dU) at 5% for n observations and k_slopes slope regressors."""
    if k_slopes < 1 or k_slopes > max(_DW_TABLE):
        raise ConfigError(
            f"no Durbin-Watson bounds for {k_slopes} slope regressors"
        )
    rows = _DW_TABLE[k_slopes]
    if n <= _DW_NS[0]:
        return rows[0]
    if n >= _DW_NS[-1]:
        return rows[-1]
    hi = next(i for i, nn in enumerate(_DW_NS) if nn >= n)
    lo = hi - 1
    w = (n - _DW_NS[lo]) / (_DW_NS[hi] - _DW_NS[lo])
    dl = rows[lo][0] + w * (rows[hi][0] - rows[lo][0])
    du = rows[lo][1] + w * (rows[hi][1] - rows[lo][1])
    return dl, du


def dw_rejects(dw, n: int, k_slopes: int):
    """True when no-serial-correlation is rejected (or inconclusive) at 5%.

    Both tails are checked by folding: min(DW, 4-DW) below dU means the
    test rejects or is inconclusive; treating inconclusive as rejection is
    the conservative choice (it triggers the Cochrane-Orcutt re-fit). A NaN
    statistic never rejects. ``dw`` may be an array of statistics that
    share n and k_slopes.
    """
    dw = np.asarray(dw, dtype=float)
    _, du = dw_bounds(n, k_slopes)
    return np.minimum(dw, 4.0 - dw) < du


@dataclass(frozen=True)
class ContagionFit:
    """Lagged-spillover regression record.

    ``names`` is ("const", "lag0", ..) plus ("ix_lag0", ..) when
    interacted; columns dropped as identically zero carry coefficient 0
    with NaN standard error and t-stat.
    """

    names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_stats: np.ndarray
    r_square: float
    durbin_watson: float
    n_obs: int
    n_lags: int
    method: str
    rho: float | None
    interacted: bool = False
    dropped_columns: tuple[str, ...] = ()

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])

    def lag_coefficients(self) -> np.ndarray:
        return np.array([self.coefficient(f"lag{l}") for l in range(self.n_lags + 1)])


@dataclass(frozen=True)
class ContagionFits:
    """Fits of m targets on one source over one overlap, held in columns.

    Row i of every array belongs to target i; ``names`` is as in
    ``ContagionFit``. A target whose fit failed has its exception in
    ``errors[i]``, method "" and NaN in every numeric column.
    """

    names: tuple[str, ...]
    coefficients: np.ndarray  # (m, len(names))
    standard_errors: np.ndarray
    t_stats: np.ndarray
    r_square: np.ndarray  # (m,)
    durbin_watson: np.ndarray
    n_obs: np.ndarray
    rho: np.ndarray  # NaN where method is "ols"
    methods: tuple[str, ...]
    errors: tuple[HousingRiskError | None, ...]
    n_lags: int
    interacted: bool
    dropped_columns: tuple[str, ...]

    def fit(self, i: int) -> ContagionFit:
        """Target i's record; raises its exception if its fit failed."""
        if self.errors[i] is not None:
            raise self.errors[i]
        method = self.methods[i]
        return ContagionFit(
            names=self.names,
            coefficients=self.coefficients[i].copy(),
            standard_errors=self.standard_errors[i].copy(),
            t_stats=self.t_stats[i].copy(),
            r_square=float(self.r_square[i]),
            durbin_watson=float(self.durbin_watson[i]),
            n_obs=int(self.n_obs[i]),
            n_lags=self.n_lags,
            method=method,
            rho=float(self.rho[i]) if method == "cochrane_orcutt" else None,
            interacted=self.interacted,
            dropped_columns=self.dropped_columns,
        )


def min_history(n_lags: int) -> int:
    """The fewest aligned quarters a fit on source lags 0..n_lags takes:
    eight rows of its design."""
    return n_lags + 8


def _design(targets, source, residual, n_lags: int):
    """One group's (X, names, Y, all_names, dropped): the design on source
    lags 0..n_lags (and their interactions with ``residual``), the names of
    its columns, the targets' rows it is fitted to, the names of a full
    record and the interaction columns dropped as identically zero."""
    targets = np.asarray(targets, dtype=float)
    source = np.asarray(source, dtype=float)
    if targets.ndim != 2 or source.ndim != 1 or targets.shape[1] != source.size:
        raise ValueError("target and source must be equal-length 1-d arrays")
    T = source.size
    if T < min_history(n_lags):
        raise InsufficientHistoryError(f"need at least {min_history(n_lags)} aligned quarters, got {T}")
    n = T - n_lags
    X = np.column_stack([np.ones(n)] + [source[n_lags - l : T - l] for l in range(n_lags + 1)])
    names = ("const",) + tuple(f"lag{l}" for l in range(n_lags + 1))
    all_names, dropped = names, ()
    if residual is not None:
        residual = np.asarray(residual, dtype=float)
        if residual.shape != source.shape:
            raise AlignmentError("residual series must align with the target returns")
        ix_cols = X[:, 1:] * residual[n_lags:, None]
        keep = np.any(ix_cols != 0.0, axis=0)
        ix_names = tuple(f"ix_lag{l}" for l in range(n_lags + 1))
        all_names = names + ix_names
        dropped = tuple(name for name, kept in zip(ix_names, keep) if not kept)
        X = np.column_stack([X, ix_cols[:, keep]])
        names = names + tuple(name for name, kept in zip(ix_names, keep) if kept)
    return X, names, targets[:, n_lags:], all_names, dropped


def contagion_fits(groups, n_lags: int = 3, serial: str = "auto") -> list[ContagionFits]:
    """Regress every target of every group on its source's lags 0..n_lags.

    ``groups`` holds (targets, source, residual) triples: ``targets`` is
    (m, T), each row aligned with the (T,) ``source``. With a ``residual``
    (T,) the group's fits are interacted: each source lag times the
    contemporaneous boom/bust residual joins the design, and interaction
    columns that are identically zero (e.g. a zero residual series) are
    dropped for every target of the group, reported with coefficient 0.

    The targets of a group share one design, so one stacked QR fits them all
    by OLS and Durbin-Watson is one array reduction. Under ``auto`` the
    targets whose Durbin-Watson statistic rejects (``dw_rejects``), and under
    ``always`` all targets, are re-fitted by Cochrane-Orcutt, with the rounds
    of every group in lockstep (``regress._cochrane_orcutt_stack``). A
    target's fit does not depend on the other targets or groups. A target
    whose fit fails keeps its exception in ``errors`` while the others still
    fit. Returns one ``ContagionFits`` per group, in order.
    """
    if serial not in SERIAL_POLICIES:
        raise ConfigError(f"serial policy must be one of {SERIAL_POLICIES}, got {serial!r}")
    designs = [_design(targets, source, residual, n_lags) for targets, source, residual in groups]
    starts, co_groups, gated = [], [], []
    for X, names, Y, _, _ in designs:
        (n, k), m = X.shape, len(Y)
        short = (_too_few_for_cochrane_orcutt if serial == "always" and n < k + 3
                 else _too_few_for_ols if n < k + 2 else None)
        if short is None:
            fit = _fit_stack(X[None], Y[None], names).responses()
        else:
            fit = _StackFit(*(np.full(shape, np.nan) for shape in ((m, k), (m, k), m, m)),
                           {i: short(n, k) for i in range(m)})
        redo = dw_rejects(fit.durbin_watson, n, k - 1) if serial == "auto" else np.full(m, serial == "always")
        redo[list(fit.failed)] = False
        at = np.flatnonzero(redo)
        if n < k + 3:
            fit.failed.update((int(i), _too_few_for_cochrane_orcutt(n, k)) for i in at)
            at = at[:0]
        if at.size:
            co_groups.append((X, Y[at], names, _StackFit(*(a[at] for a in fit[:4]), {})))
        starts.append(fit)
        gated.append(at)
    co = iter(_cochrane_orcutt_stack(co_groups))

    out = []
    for (X, names, Y, all_names, dropped), fit, at, (_, _, residual) in zip(designs, starts, gated, groups):
        m = len(Y)
        failed = fit.failed
        methods = np.full(m, "ols", dtype=object)
        rho = np.full(m, np.nan)
        n_obs = np.full(m, X.shape[0])
        if at.size:
            fits, rho[at], n_obs[at], _ = next(co)
            for a, b in zip(fit[:4], fits[:4]):
                a[at] = b
            failed.update((int(at[j]), exc) for j, exc in fits.failed.items())
            methods[at] = "cochrane_orcutt"
        cols = [all_names.index(name) for name in names]
        coef = np.zeros((m, len(all_names)))
        se = np.full((m, len(all_names)), np.nan)
        t = np.full((m, len(all_names)), np.nan)
        coef[:, cols] = fit.beta
        se[:, cols] = fit.se
        t[:, cols] = _t_stats(fit.beta, fit.se)
        rows = list(failed)
        for a in (coef, se, t, fit.r_square, fit.durbin_watson, rho):
            a[rows] = np.nan
        methods[rows] = ""
        out.append(ContagionFits(
            names=all_names,
            coefficients=coef,
            standard_errors=se,
            t_stats=t,
            r_square=fit.r_square,
            durbin_watson=fit.durbin_watson,
            n_obs=n_obs,
            rho=rho,
            methods=tuple(methods),
            errors=tuple(failed.get(i) for i in range(m)),
            n_lags=n_lags,
            interacted=residual is not None,
            dropped_columns=dropped,
        ))
    return out


def contagion_fit(
    target,
    source,
    n_lags: int = 3,
    serial: str = "auto",
) -> ContagionFit:
    """Regress aligned target returns on source lags 0..n_lags."""
    [batch] = contagion_fits([(np.asarray(target, dtype=float)[None], source, None)], n_lags, serial)
    return batch.fit(0)


def boombust_residual(index_levels) -> np.ndarray:
    """Residuals of a linear time-trend fit to the log index relative to the
    power of two of its first level.

    Positive values mark boom quarters (index above its log-linear trend),
    negative values bust quarters. The log index is each level's log
    mantissa plus its binary exponent's distance from the first level's
    exponent, times ln 2. A power-of-two scale of the levels leaves every
    bit of the residuals, and no ratio of levels is formed that could
    overflow.
    """
    levels = np.asarray(index_levels, dtype=float)
    if levels.size < 12:
        raise InsufficientHistoryError(
            f"need at least 12 index observations, got {levels.size}"
        )
    if np.any(~np.isnan(levels) & (levels <= 0.0)):
        raise DomainError("index levels must be positive")
    mantissa, e = np.frexp(levels)
    return trend_fit(np.log(mantissa) + (e - e[0]) * np.log(2.0)).residuals


def contagion_fit_interacted(
    target,
    source,
    residual,
    n_lags: int = 3,
    serial: str = "auto",
) -> ContagionFit:
    """Contagion fit plus boom/bust interactions source_{t-l} * resid_t.

    The residual is contemporaneous for every lag term. Interaction columns
    that are identically zero (e.g. a zero residual series) are dropped
    before fitting and reported with coefficient 0, leaving the base
    coefficients identical to the plain fit's.
    """
    [batch] = contagion_fits([(np.asarray(target, dtype=float)[None], source, residual)], n_lags, serial)
    return batch.fit(0)
