"""Scalar reference implementations, for tests.

The library fits every regression through its stacked kernels
(``regress._fit_stack``, ``regress._cochrane_orcutt_stack``), including the
one-problem calls ``ols_fit`` and ``cochrane_orcutt``. These are the
independent per-problem versions those kernels are checked against: one
scipy pivoted-QR solve per fit (``_solve_ls``) and a plain loop over
Cochrane-Orcutt rounds. They raise the library's exceptions with the same
messages, except that ``_solve_ls`` names the columns pivoted out, where
the library names dependent columns in declared order.

``bipower_variation`` and ``lm_statistic`` are the one-window jump
statistics that ``jumps.lm_series`` is checked against, and
``add_intercept`` builds the tests' designs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import linalg as sla

from housingrisk.errors import (
    DegreesOfFreedomError,
    HousingRiskError,
    InsufficientHistoryError,
    NonStationaryError,
    SingularDesignError,
)
from housingrisk.jumps import SCALE
from housingrisk.regress import (
    RegressionFit,
    _rho_did_not_converge,
    _rho_left_unit_interval,
    _t_stats,
    _too_few_for_cochrane_orcutt,
    _too_few_for_ols,
)


def add_intercept(X: np.ndarray) -> np.ndarray:
    """Prepend a column of ones."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return np.column_stack([np.ones(X.shape[0]), X])


def _solve_ls(X: np.ndarray, y: np.ndarray, names: tuple[str, ...]):
    """Pivoted-QR least squares.

    Returns (beta, residuals, diag of (X'X)^-1). Raises SingularDesignError
    naming the pivoted-out columns when X is rank deficient.
    """
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


class UndefinedStatisticError(HousingRiskError):
    """``lm_statistic`` has no value: the trailing bipower variation is zero."""


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


def declared_order_dependent(X: np.ndarray) -> list[int]:
    """The columns of X, in declared order, whose residual on the earlier
    kept columns is at most ``_solve_ls``'s rank tolerance,
    ``max(n, k) * eps * (largest column norm)``: classical Gram-Schmidt,
    run twice against each column."""
    n, k = X.shape
    tol = max(n, k) * np.finfo(float).eps * max(np.linalg.norm(X, axis=0), default=0.0)
    basis, dependent = np.empty((n, 0)), []
    for j in range(k):
        v = X[:, j]
        for _ in range(2):
            v = v - basis @ (basis.T @ v)
        norm = np.linalg.norm(v)
        if norm > tol:
            basis = np.column_stack([basis, v / norm])
        else:
            dependent.append(j)
    return dependent


def _fit_core(X, y, names) -> RegressionFit:
    """Fit without the public df guard (needs only n >= k + 1).

    A rank-deficient X raises with ``_solve_ls``'s rank and the dependent
    columns in declared order (``declared_order_dependent``), as the
    library names them.
    """
    n, k = X.shape
    if n < k + 1:
        raise DegreesOfFreedomError(
            f"need at least {k + 1} observations for {k} regressors, got {n}"
        )
    try:
        beta, resid, xtx_inv_diag = _solve_ls(X, y, names)
    except SingularDesignError as exc:
        dependent = [names[j] for j in declared_order_dependent(X)]
        raise SingularDesignError(
            f"design matrix is rank deficient (rank {k - len(exc.columns)} of {k}); "
            f"dependent columns: {', '.join(dependent)}",
            columns=dependent,
        ) from None
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
    )


def ols_fit(X: np.ndarray, y: np.ndarray, names=None) -> RegressionFit:
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
    return _fit_core(X, y, names)


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
    fit = replace(ols_fit(Xs, ys, names=names), method="cochrane_orcutt", rho=rho)
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
    fit = replace(ols_fit(X, y, names=names), method="cochrane_orcutt", rho=0.0)
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
