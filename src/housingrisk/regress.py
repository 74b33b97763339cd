"""Shared regression engine.

OLS with classical diagnostics, Durbin-Watson, iterative Cochrane-Orcutt
correction, AR(1) pre-whitening with BIC order selection, and linear trend
fits. All functions are pure and use a fixed summation order, so repeated
fits are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DegreesOfFreedomError,
    HousingRiskError,
    InsufficientHistoryError,
    NonStationaryError,
    SingularDesignError,
    UndefinedStatisticError,
)

__all__ = [
    "RegressionFit",
    "TrendFit",
    "PrewhitenResult",
    "ols_fit",
    "durbin_watson",
    "cochrane_orcutt",
    "ar1_prewhiten",
    "trend_fit",
    "add_intercept",
]


#: Stacked solves whose R has at least this Frobenius condition number are
#: redone by pivoted QR (see ``_solve_stacked``). Far below the ~2e14 at
#: which pivoted QR finds a rank deficiency, it also keeps the pivoted-QR
#: beta of badly conditioned but full-rank problems, where the two differ by
#: about cond * eps.
RANK_SCREEN_COND = 1e8

#: The fewest observations ``ar1_prewhiten`` takes.
MIN_PREWHITEN_OBS = 10


def add_intercept(X: np.ndarray) -> np.ndarray:
    """Prepend a column of ones."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return np.column_stack([np.ones(X.shape[0]), X])


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares fit with classical diagnostics.

    ``durbin_watson`` is NaN when the fit is exact (all residuals zero).
    ``rho`` is populated only for the cochrane_orcutt method.
    """

    names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_stats: np.ndarray
    r_square: float
    residuals: np.ndarray
    n_obs: int
    durbin_watson: float
    method: str = "ols"
    rho: float | None = None

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])

    def t_stat(self, name: str) -> float:
        return float(self.t_stats[self.names.index(name)])

    def to_dict(self) -> dict:
        """JSON-ready summary keyed by regressor id."""
        out = {
            "coefficients": {n: float(c) for n, c in zip(self.names, self.coefficients)},
            "standard_errors": {
                n: float(s) for n, s in zip(self.names, self.standard_errors)
            },
            "t_stats": {n: float(t) for n, t in zip(self.names, self.t_stats)},
            "n": self.n_obs,
            "r_square": self.r_square,
            "dw": self.durbin_watson,
            "method": self.method,
            "rho": self.rho,
        }
        return out


@dataclass(frozen=True)
class TrendFit:
    """OLS of a series on (1, t) with t = 0, 1, 2, ..."""

    intercept: float
    slope: float
    slope_t_stat: float
    residuals: np.ndarray


def _solve_ls(X: np.ndarray, y: np.ndarray, names: tuple[str, ...]):
    """Pivoted-QR least squares.

    Returns (beta, residuals, diag of (X'X)^-1). Raises SingularDesignError
    naming the pivoted-out columns when X is rank deficient.
    """
    from scipy import linalg as sla  # only this fallback needs scipy

    n, k = X.shape
    Q, R, piv = sla.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = max(n, k) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank < k:
        dependent = [names[piv[i]] for i in range(rank, k)]
        raise SingularDesignError(
            f"design matrix is rank deficient (rank {rank} of {k}); "
            f"dependent columns: {', '.join(dependent)}",
            columns=dependent,
        )
    beta_p = sla.solve_triangular(R, Q.T @ y)
    beta = np.empty(k)
    beta[piv] = beta_p
    resid = y - X @ beta
    r_inv = sla.solve_triangular(R, np.eye(k))
    xtx_inv_diag_p = np.sum(r_inv * r_inv, axis=1)
    xtx_inv_diag = np.empty(k)
    xtx_inv_diag[piv] = xtx_inv_diag_p
    return beta, resid, xtx_inv_diag


def _solve_stacked(Xy: np.ndarray, names: tuple[str, ...]):
    """Least squares for a stack of problems ``Xy = [X | Y]``, shape
    (s, n, k + m): each of the m columns of Y regressed on the same X, whose
    k columns ``names`` labels.

    One Householder QR factors the whole stack; the top k rows of the last
    m columns of each R are Q'Y, so Q is never formed (Golub & Van Loan,
    *Matrix Computations*, §5.3). One back-substitution over the k columns
    then solves ``R [B | R^-1] = [Q'Y | I]`` for every problem and response
    at once.

    A problem whose R has ``cond_F(R) >= RANK_SCREEN_COND`` (or a NaN
    condition number) is redone by ``_solve_ls``, in stack order, one
    response at a time. The screen catches every problem pivoted QR calls
    rank deficient: that needs ``cond_2(X) >= 1 / (max(n, k) * eps)``,
    about 2e14, and ``cond_F(R) >= cond_2(R) = cond_2(X)``. Rank is a
    property of X alone, so a rank-deficient problem fails for every
    response.

    Returns (beta, diag of (X'X)^-1, failed): arrays of shape (s, m, k) and
    (s, k), and a dict from stack position to the ``SingularDesignError``
    of each rank-deficient problem, whose rows hold NaN.
    """
    k = len(names)
    m = Xy.shape[2] - k
    Ra = np.linalg.qr(Xy, mode="r")
    R = Ra[:, :k, :k]
    rhs = np.concatenate([Ra[:, :k, k:], np.broadcast_to(np.eye(k), R.shape)], axis=2)
    sol = np.empty_like(rhs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(k - 1, -1, -1):
            done = np.einsum("wj,wjc->wc", R[:, i, i + 1 :], sol[:, i + 1 :])
            sol[:, i] = (rhs[:, i] - done) / R[:, i, i, None]
        r_inv = sol[:, :, m:]
        cond = np.sqrt(np.einsum("wij,wij->w", R, R) * np.einsum("wij,wij->w", r_inv, r_inv))
        diag = np.einsum("wij,wij->wi", r_inv, r_inv)
    beta = np.ascontiguousarray(sol[:, :, :m].transpose(0, 2, 1))
    failed = {}
    for s in np.flatnonzero(~(cond < RANK_SCREEN_COND)):
        try:
            for c in range(m):
                beta[s, c], _, diag[s] = _solve_ls(Xy[s, :, :k], Xy[s, :, k + c], names)
        except SingularDesignError as exc:
            beta[s] = diag[s] = np.nan
            failed[int(s)] = exc
    return beta, diag, failed


class _StackFit(NamedTuple):
    """OLS fits of a stack of problems; see ``_fit_stack``.

    Each array has a response axis after the stack axis, which ``single``
    drops for a one-response stack.
    """

    beta: np.ndarray  # (s, m, k)
    se: np.ndarray | None  # (s, m, k); None without diagnostics
    r_square: np.ndarray  # (s, m)
    durbin_watson: np.ndarray | None  # (s, m); NaN for an exact fit; None without diagnostics
    failed: dict[int, HousingRiskError]  # stack position -> error; its rows hold NaN

    def single(self) -> "_StackFit":
        """This fit of a one-response stack, without the response axis."""
        return _StackFit(*(a[:, 0] for a in self[:4]), self.failed)


def _fit_stack(Xy: np.ndarray, names: tuple[str, ...], diagnostics: bool = True) -> _StackFit:
    """``_fit_core``'s estimates and diagnostics for every problem and
    response of a stack ``[X | Y]`` of shape (s, n, k + m), where X has the
    k columns ``names`` labels, from one ``_solve_stacked``. Without
    ``diagnostics`` only beta and R-square are computed, and ``se`` and
    ``durbin_watson`` are None."""
    n, k = Xy.shape[1], len(names)
    X, Y = Xy[:, :, :k], Xy[:, :, k:].transpose(0, 2, 1)
    beta, diag, failed = _solve_stacked(Xy, names)
    resid = Y - np.einsum("wtj,wcj->wct", X, beta)
    ssr = np.sum(resid**2, axis=2)
    sst = np.sum((Y - Y.mean(axis=2, keepdims=True)) ** 2, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # A constant response (SST = 0) has R-square 0.
        r2 = np.where(sst == 0.0, 0.0, 1.0 - ssr / sst)
        if not diagnostics:
            return _StackFit(beta, None, r2, None, failed)
        se = np.sqrt(np.maximum((ssr / (n - k))[:, :, None] * diag[:, None, :], 0.0))
        dw = np.where(ssr > 0, np.sum(np.diff(resid, axis=2) ** 2, axis=2) / ssr, np.nan)
    return _StackFit(beta, se, r2, dw, failed)


def _t_stats(beta: np.ndarray, se: np.ndarray) -> np.ndarray:
    t = np.zeros_like(beta)
    pos = se > 0
    t[pos] = beta[pos] / se[pos]
    exact = ~pos & (beta != 0)
    t[exact] = np.sign(beta[exact]) * np.inf
    return t


def _fit_core(X, y, names, method, rho) -> RegressionFit:
    """Fit without the public df guard (needs only n >= k + 1)."""
    n, k = X.shape
    if n < k + 1:
        raise DegreesOfFreedomError(
            f"need at least {k + 1} observations for {k} regressors, got {n}"
        )
    beta, resid, xtx_inv_diag = _solve_ls(X, y, names)
    ssr = float(np.sum(resid**2))
    sigma2 = ssr / (n - k)
    se = np.sqrt(np.maximum(sigma2 * xtx_inv_diag, 0.0))
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if sst == 0.0 else 1.0 - ssr / sst  # a constant response has R-square 0
    dw = float(np.sum(np.diff(resid) ** 2) / ssr) if ssr > 0 else float("nan")
    return RegressionFit(
        names=names,
        coefficients=beta,
        standard_errors=se,
        t_stats=_t_stats(beta, se),
        r_square=r2,
        residuals=resid,
        n_obs=n,
        durbin_watson=dw,
        method=method,
        rho=rho,
    )


def ols_fit(X: np.ndarray, y: np.ndarray, names=None, method: str = "ols",
            rho: float | None = None) -> RegressionFit:
    """Classical OLS on a design matrix that already includes its intercept.

    Requires n >= k + 2 so the error-variance estimate has at least two
    degrees of freedom.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, k) and y (n,)")
    n, k = X.shape
    if n < k + 2:
        raise _too_few_for_ols(n, k)
    if names is None:
        names = tuple(f"x{j}" for j in range(k))
    else:
        names = tuple(names)
        if len(names) != k:
            raise ValueError("names must match the number of columns")
    return _fit_core(X, y, names, method, rho)


def durbin_watson(residuals: np.ndarray) -> float:
    """DW = sum_{t>=2}(e_t - e_{t-1})^2 / sum e_t^2, in [0, 4]."""
    e = np.asarray(residuals, dtype=float)
    if e.size < 2:
        raise ValueError("need at least 2 residuals")
    denom = float(np.sum(e**2))
    if denom == 0.0:
        raise UndefinedStatisticError("Durbin-Watson undefined for all-zero residuals")
    return float(np.sum(np.diff(e) ** 2) / denom)


def _rho_estimate(resid: np.ndarray) -> float:
    """Lag-1 serial-correlation estimate sum(e_t e_{t-1}) / sum(e_{t-1}^2)."""
    denom = float(np.sum(resid[:-1] ** 2))
    if denom == 0.0:
        return 0.0
    return float(np.sum(resid[1:] * resid[:-1]) / denom)


def _quasi_difference_fit(X, y, rho, names) -> RegressionFit:
    """Fit on rho-differenced data, reporting original-scale coefficients.

    The transformed intercept column is replaced by ones; the estimated
    intercept and its standard error are rescaled by 1/(1-rho) afterwards.
    """
    ys = y[1:] - rho * y[:-1]
    Xs = X[1:, :] - rho * X[:-1, :]
    Xs[:, 0] = 1.0
    fit = ols_fit(Xs, ys, names=names, method="cochrane_orcutt", rho=rho)
    scale = 1.0 / (1.0 - rho)
    coef = fit.coefficients.copy()
    se = fit.standard_errors.copy()
    coef[0] *= scale
    se[0] *= abs(scale)
    return replace(fit, coefficients=coef, standard_errors=se, t_stats=_t_stats(coef, se))


def cochrane_orcutt(
    X: np.ndarray,
    y: np.ndarray,
    names=None,
    tol: float = 1e-6,
    max_iter: int = 50,
    fixed_rho: float | None = None,
) -> RegressionFit:
    """Iterative AR(1) serial-correlation correction.

    Alternates an OLS fit with a lag-1 rho estimate from the original-scale
    residuals, quasi-differencing until |delta rho| < tol. The returned fit
    is the one estimated under the converged rho; when rho converges at the
    first pass (negligible serial correlation) that is plain OLS on all rows.

    ``fixed_rho`` skips the iteration and fits the transformation once.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if n < k + 3:
        raise _too_few_for_cochrane_orcutt(n, k)
    if names is None:
        names = tuple(f"x{j}" for j in range(k))
    else:
        names = tuple(names)

    if fixed_rho is not None:
        if abs(fixed_rho) >= 1.0:
            raise NonStationaryError(f"|rho| >= 1: {fixed_rho}")
        return _quasi_difference_fit(X, y, fixed_rho, names)

    rho_prev = 0.0
    fit = ols_fit(X, y, names=names, method="cochrane_orcutt", rho=0.0)
    last_rho = 0.0
    for _ in range(max_iter):
        resid_orig = y - X @ fit.coefficients
        rho_new = _rho_estimate(resid_orig)
        if abs(rho_new) >= 1.0:
            raise _rho_left_unit_interval(rho_new)
        last_rho = rho_new
        if abs(rho_new - rho_prev) < tol:
            return replace(fit, rho=rho_new)
        fit = _quasi_difference_fit(X, y, rho_new, names)
        rho_prev = rho_new
    raise _rho_did_not_converge(max_iter, last_rho, fit)


def _too_few_for_ols(n: int, k: int) -> DegreesOfFreedomError:
    return DegreesOfFreedomError(
        f"need at least {k + 2} observations for {k} regressors, got {n}"
    )


def _too_few_for_cochrane_orcutt(n: int, k: int) -> DegreesOfFreedomError:
    return DegreesOfFreedomError(
        f"need at least {k + 3} observations for Cochrane-Orcutt with "
        f"{k} regressors, got {n}"
    )


def _rho_left_unit_interval(rho: float) -> NonStationaryError:
    return NonStationaryError(f"serial-correlation estimate left the unit interval: {rho:.4f}")


def _rho_did_not_converge(max_iter: int, last_rho: float, last_fit=None) -> ConvergenceError:
    return ConvergenceError(
        f"rho did not converge within {max_iter} iterations (last {last_rho:.6f})",
        last_fit=last_fit,
        last_rho=last_rho,
    )


def _cochrane_orcutt_stack(
    Xy: np.ndarray,
    names: tuple[str, ...],
    start: _StackFit,
    tol: float = 1e-6,
    max_iter: int = 50,
) -> tuple[_StackFit, np.ndarray, np.ndarray]:
    """``cochrane_orcutt`` for a stack of problems ``[X | y]``, in lockstep.

    ``start`` is the stack's OLS fit (``_fit_stack(Xy, names).single()``),
    which is also the first iterate, as in ``cochrane_orcutt``. Each round
    takes the rho estimate of every problem still iterating and fits all their
    quasi-differenced problems in one stacked solve. A problem leaves the
    round when its rho converges (|delta rho| < tol), when rho leaves the
    unit interval, when its quasi-differenced design is rank deficient, or
    after ``max_iter`` rounds; the last three fail with the same exception
    message as ``cochrane_orcutt``. As there, the first column of X is the
    intercept; the caller checks n >= k + 3.

    Returns (fit, rho, n_obs) with one row per problem.
    """
    n, k = Xy.shape[1], Xy.shape[2] - 1
    X, y = Xy[:, :, :k], Xy[:, :, k]
    beta, se, r2, dw = (a.copy() for a in start[:4])
    failed = dict(start.failed)
    rho = np.zeros(len(Xy))
    rho_prev = np.zeros(len(Xy))
    n_obs = np.full(len(Xy), n)
    live = np.ones(len(Xy), dtype=bool)
    live[list(failed)] = False
    for _ in range(max_iter):
        at = np.flatnonzero(live)
        if not at.size:
            break
        resid = y[at] - np.einsum("wtj,wj->wt", X[at], beta[at])
        denom = np.sum(resid[:, :-1] ** 2, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho_new = np.where(denom == 0.0, 0.0, np.sum(resid[:, 1:] * resid[:, :-1], axis=1) / denom)
        rho[at] = rho_new
        live[at] = False
        for i in at[np.abs(rho_new) >= 1.0]:
            failed[int(i)] = _rho_left_unit_interval(rho[i])
        go = at[(np.abs(rho_new) < 1.0) & ~(np.abs(rho_new - rho_prev[at]) < tol)]
        if not go.size:
            continue
        r = rho[go]
        Xys = Xy[go, 1:, :] - r[:, None, None] * Xy[go, :-1, :]
        Xys[:, :, 0] = 1.0
        fit = _fit_stack(Xys, names).single()
        scale = 1.0 / (1.0 - r)
        fit.beta[:, 0] *= scale
        fit.se[:, 0] *= np.abs(scale)
        beta[go], se[go], r2[go], dw[go] = fit.beta, fit.se, fit.r_square, fit.durbin_watson
        n_obs[go] = n - 1
        rho_prev[go] = r
        live[go] = True
        for j, exc in fit.failed.items():
            failed[int(go[j])] = exc
            live[go[j]] = False
    for i in np.flatnonzero(live):
        failed[int(i)] = _rho_did_not_converge(max_iter, float(rho[i]))
    rows = list(failed)
    for a in (beta, se, r2, dw, rho):
        a[rows] = np.nan
    return _StackFit(beta, se, r2, dw, failed), rho, n_obs


@dataclass(frozen=True)
class PrewhitenResult:
    """AR pre-whitening output; residuals keep the series mean so scale is
    preserved. ``offset`` is how many leading observations were consumed."""

    residuals: np.ndarray
    phi: float
    order: int
    offset: int
    near_unit_root: bool = False


def _ar1_rows(x: np.ndarray):
    """``ar1_prewhiten`` of every row of ``x`` (m, n), with n >= 10, at once.

    Every statistic is a reduction along the contiguous last axis, which
    numpy sums row by row in the pairwise order of a 1-D call, so each row
    gets the bits of its own one-row call. Returns (residuals, phi, order,
    near_unit_root): row i of ``residuals`` (m, n) holds the pre-whitened
    series of row i from column ``order[i]`` on, and NaN before it; ``phi``
    is 0 where AR(0) is chosen.
    """
    x = np.ascontiguousarray(x, dtype=float)
    n_eff = x.shape[1] - 1
    y, x_lag = x[:, 1:], x[:, :-1]
    dy = y - y.mean(axis=1, keepdims=True)
    lag_mean = x_lag.mean(axis=1, keepdims=True)
    lx = x_lag - lag_mean

    # AR(0): mean-only model on the common sample (observations 2..n).
    ssr0 = np.sum(dy**2, axis=1)

    # AR(1) by conditional least squares. A lag of zero variance gets phi 0:
    # then AR(1) has AR(0)'s SSR and one more parameter, so AR(0) is chosen.
    denom = np.sum(lx**2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 for a flat lag
        phi = np.where(denom == 0.0, 0.0, np.sum(dy * lx, axis=1) / denom)[:, None]
    c = y.mean(axis=1, keepdims=True) - phi * lag_mean
    resid1 = y - c - phi * x_lag
    ssr1 = np.sum(resid1**2, axis=1)

    # BIC and AIC of AR(0) (column 0, one parameter) and AR(1) (column 1, two).
    k = np.array([1, 2])
    ll = n_eff * np.log(np.maximum(np.column_stack([ssr0, ssr1]) / n_eff, np.finfo(float).tiny))
    bic, aic = ll + k * np.log(n_eff), ll + 2 * k
    ar1 = (bic[:, 1] < bic[:, 0]) | ((bic[:, 1] == bic[:, 0]) & (aic[:, 1] < aic[:, 0]))
    # AR(0): residual is the demeaned series, so +mean gives the series back.
    residuals = x.copy()
    residuals[ar1, 0] = np.nan
    residuals[ar1, 1:] = resid1[ar1] + x[ar1].mean(axis=1, keepdims=True)
    phi = np.where(ar1, phi[:, 0], 0.0)
    return residuals, phi, ar1.astype(int), ar1 & (np.abs(phi) >= 1.0)


def ar1_prewhiten(series: np.ndarray) -> PrewhitenResult:
    """Remove AR(1) serial correlation if an information criterion asks for it.

    Fits mean-only AR(0) and conditional-least-squares AR(1) on the common
    sample (observations 2..n), picks the lower BIC (AIC breaks ties), and
    returns residuals with the series mean re-added. A |phi| >= 1 estimate
    flags near_unit_root instead of raising. This is ``_ar1_rows`` of one row.
    """
    x = np.asarray(series, dtype=float).reshape(1, -1)
    if x.size < MIN_PREWHITEN_OBS:
        raise InsufficientHistoryError(
            f"pre-whitening needs at least {MIN_PREWHITEN_OBS} observations, got {x.size}"
        )
    residuals, phi, order, near_unit_root = _ar1_rows(x)
    k = int(order[0])
    return PrewhitenResult(residuals[0, k:], float(phi[0]), k, k, bool(near_unit_root[0]))


def trend_fit(series: np.ndarray) -> TrendFit:
    """OLS of a series on (1, t), t = 0..n-1, with the slope t-statistic.

    ``[1, t]`` has full rank for n >= 3, so no pivoting is needed. The QR of
    ``[t | 1]`` and the order of every operation below are those of the
    pivoted QR in ``_solve_ls``, which takes t first, so the results are the
    same to the bit without loading scipy.
    """
    y = np.asarray(series, dtype=float)
    n = y.size
    if n < 3:
        raise DegreesOfFreedomError(f"need at least 3 observations, got {n}")
    if not np.isfinite(y).all():
        raise ValueError("array must not contain infs or NaNs")
    t = np.arange(n, dtype=float)
    X = np.column_stack([np.ones(n), t])
    Q, R = np.linalg.qr(X[:, ::-1])
    qty = np.asfortranarray(Q).T @ y  # a C-order Q would sum in another order
    intercept = qty[1] / R[1, 1]
    slope = (qty[0] - R[0, 1] * intercept) / R[0, 0]
    beta = np.array([intercept, slope])
    resid = y - X @ beta
    # diag of (X'X)^-1 from R^-1 = [[i00, i01], [0, i11]] of [t | 1]
    i11 = 1.0 / R[1, 1]
    i00 = 1.0 / R[0, 0]
    i01 = (0.0 - R[0, 1] * i11) * i00
    xtx_inv_diag = np.array([i11 * i11, i00 * i00 + i01 * i01])
    sigma2 = float(np.sum(resid**2)) / (n - 2)
    se = np.sqrt(np.maximum(sigma2 * xtx_inv_diag, 0.0))
    return TrendFit(
        intercept=float(intercept),
        slope=float(slope),
        slope_t_stat=float(_t_stats(beta, se)[1]),
        residuals=resid,
    )
