"""Scalar reference implementations of OLS and Cochrane-Orcutt, for tests.

The library fits every regression through its stacked kernels
(``regress._fit_stack``, ``regress._cochrane_orcutt_stack``), including the
one-problem calls ``ols_fit`` and ``cochrane_orcutt``. These are the
independent per-problem versions those kernels are checked against: one
pivoted-QR solve per fit and a plain loop over Cochrane-Orcutt rounds.
They raise the library's exceptions with the same messages.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from housingrisk.errors import DegreesOfFreedomError, NonStationaryError
from housingrisk.regress import (
    RegressionFit,
    _rho_did_not_converge,
    _rho_left_unit_interval,
    _solve_ls,
    _t_stats,
    _too_few_for_cochrane_orcutt,
    _too_few_for_ols,
)


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
