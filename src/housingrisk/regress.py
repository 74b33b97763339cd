"""Shared regression engine.

OLS with classical diagnostics, Durbin-Watson, iterative Cochrane-Orcutt
correction, AR(1) pre-whitening with BIC order selection, and linear trend
fits. All functions are pure and use a fixed summation order, so repeated
fits are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DegreesOfFreedomError,
    HousingRiskError,
    InsufficientHistoryError,
    NonStationaryError,
    SingularDesignError,
)

__all__ = [
    "RegressionFit",
    "TrendFit",
    "PrewhitenResult",
    "ols_fit",
    "cochrane_orcutt",
    "ar1_prewhiten",
    "trend_fit",
]

#: The fewest observations ``ar1_prewhiten`` takes.
MIN_PREWHITEN_OBS = 10


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


@dataclass(frozen=True)
class TrendFit:
    """OLS of a series on (1, t) with t = 0, 1, 2, ...; for a stack of m
    series, each field has a leading axis of m."""

    intercept: float
    slope: float
    slope_t_stat: float
    residuals: np.ndarray


def _dependent_columns(X: np.ndarray, tol: float) -> list[int]:
    """The columns of X, in declared order, whose residual on the earlier
    kept columns is at most ``tol``: each column is taken in turn, and the
    last diagonal entry of the R of the kept columns plus it is that
    residual's norm."""
    kept, dependent = [], []
    for j in range(X.shape[1]):
        r = np.linalg.qr(X[:, kept + [j]], mode="r")
        (kept if abs(r[-1, -1]) > tol else dependent).append(j)
    return dependent


def _r_and_qty(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R (s, k, k) of the Householder QR of each problem's X (s, n, k), and
    Q'y (s, m, k) for each of its m responses, the rows of Y (s, m, n).

    LAPACK factors X alone and forms its Q (n, k), which is orthonormal to
    working precision, so Q'y is as accurate as applying X's reflectors to y
    (Higham 2002, ch. 19 and 20). Each entry of Q'y is a sum along that
    response's own row, so a response gets the bits it gets alone. A QR of
    the whole ``[X | Y]`` does not give that: the kernels that apply its
    reflectors depend on the number of columns, which moves the last bits
    of every column.
    """
    Q, R = np.linalg.qr(X)
    # Q has the layout of X; Q' as a C array makes every sum along n the same.
    return R, np.einsum("skn,smn->smk", np.ascontiguousarray(Q.transpose(0, 2, 1)), Y)


def _solve_stacked(X: np.ndarray, Y: np.ndarray, names: tuple[str, ...], rows=None):
    """Least squares for a stack of problems: each of the m rows of Y
    (s, m, n) regressed on the same X (s, n, k), whose k columns ``names``
    labels. ``rows`` (s,), when given, is the row count of the taller
    problem each member stands for (``_cochrane_orcutt_stack`` solves such
    reduced problems), which the rank tolerance then takes for n.

    ``_r_and_qty`` gives each problem's R and Q'y, each response's bits
    independent of the other responses. One back-substitution over the k
    columns then solves ``R [B | R^-1] = [Q'Y | I]`` for every problem and
    response at once.

    A problem is rank deficient when, in declared order, some column's
    residual on the earlier kept columns is at most
    ``max(n, k) * eps * (largest column norm)``. Column j of R has the norm
    of column j of X, and ``|R[j, j]|`` is its residual on all the earlier
    columns, so a problem whose diagonal stays above that bound is full rank.
    Any other is re-factored one column at a time by ``_dependent_columns``,
    which names its dependent columns; if it names none, the problem is full
    rank after all (a residual within rounding of the bound can fall on
    either side of it in the two factorizations). A full-rank problem keeps
    the stack's solution. Rank is a property of X alone, so a rank-deficient
    problem fails for every response.

    Returns (beta, diag of (X'X)^-1, failed): arrays of shape (s, m, k) and
    (s, k), and a dict from stack position to the ``SingularDesignError``
    of each rank-deficient problem, whose rows hold NaN.
    """
    n, k = X.shape[1] if rows is None else rows, len(names)
    m = Y.shape[1]
    R, qty = _r_and_qty(X, Y)
    rhs = np.concatenate([qty.transpose(0, 2, 1), np.broadcast_to(np.eye(k), R.shape)], axis=2)
    sol = np.empty_like(rhs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(k - 1, -1, -1):
            done = np.einsum("wj,wjc->wc", R[:, i, i + 1 :], sol[:, i + 1 :])
            sol[:, i] = (rhs[:, i] - done) / R[:, i, i, None]
        r_inv = sol[:, :, m:]
        diag = np.einsum("wij,wij->wi", r_inv, r_inv)
    beta = np.ascontiguousarray(sol[:, :, :m].transpose(0, 2, 1))
    tol = np.maximum(n, k) * np.finfo(float).eps * np.sqrt(np.sum(R * R, axis=1)).max(axis=1)
    failed = {}
    for s in np.flatnonzero(~(np.abs(np.diagonal(R, axis1=1, axis2=2)) > tol[:, None]).all(axis=1)):
        dependent = [names[j] for j in _dependent_columns(X[s], tol[s])]
        if dependent:
            beta[s] = diag[s] = np.nan
            failed[int(s)] = SingularDesignError(
                f"design matrix is rank deficient (rank {k - len(dependent)} of {k}); "
                f"dependent columns: {', '.join(dependent)}",
                columns=dependent,
            )
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

    def responses(self) -> "_StackFit":
        """This fit of a one-problem stack, with its responses as the stack
        axis; the problem's error, if any, is every response's."""
        return _StackFit(*(a[0] for a in self[:4]), dict.fromkeys(range(self.beta.shape[1]), self.failed[0])
                         if self.failed else {})


def _exponent(v: np.ndarray, axis: int) -> np.ndarray:
    """The exponent e, along ``axis`` of ``v``, of the power of two 2^-e that
    brings the largest |value| into [0.5, 1); 0 where every value is 0.
    It is held to [-1021, 1023] so that 2^-e and 2^e are both floats, and
    one multiply scales: a subnormal largest value is brought into
    [2^-53, 0.5) instead, and one of 2^1023 or more into [1, 2). Scaling by a
    power of two is exact wherever the result stays normal (Higham 2002,
    §2.1)."""
    return np.clip(np.frexp(np.abs(v).max(axis=axis, initial=0.0))[1], -1021, 1023)


def _fit_stack(Xy: np.ndarray, names: tuple[str, ...], diagnostics: bool = True) -> _StackFit:
    """OLS estimates and ``RegressionFit``'s diagnostics for every problem and
    response of a stack ``[X | Y]`` of shape (s, n, k + m), where X has the
    k columns ``names`` labels, from one ``_solve_stacked``. Without
    ``diagnostics`` only beta and R-square are computed, and ``se`` and
    ``durbin_watson`` are None.

    Each response of each problem is fitted scaled by the power of two 2^-e
    of ``_exponent``, so that the squares of its residuals and centred
    values stay in the float range, and its beta and se are scaled back by
    2^e. A power of two scales every step of the fit exactly, so beta and se
    scale with the response, and R-square, Durbin-Watson and t do not depend
    on it. A coefficient past the largest float is +-inf.
    """
    n, k = Xy.shape[1], len(names)
    e = _exponent(Xy[:, :, k:], axis=1)  # (s, m)
    # X and the scaled responses, each response's rows contiguous, are C
    # arrays whatever the layout of Xy, so that every sum has the order it
    # has when that response is fitted alone.
    X = np.ascontiguousarray(Xy[:, :, :k])
    Y = np.multiply(Xy[:, :, k:].transpose(0, 2, 1), np.ldexp(1.0, -e)[:, :, None], order="C")
    beta, diag, failed = _solve_stacked(X, Y, names)
    se = dw = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        resid = Y - np.einsum("wtj,wcj->wct", X, beta)
        ssr = np.sum(resid**2, axis=2)
        sst = np.sum((Y - Y.mean(axis=2, keepdims=True)) ** 2, axis=2)
        # A constant response (SST = 0) has R-square 0.
        r2 = np.where(sst == 0.0, 0.0, 1.0 - ssr / sst)
        up = np.ldexp(1.0, e)[:, :, None]
        if diagnostics:
            se = np.sqrt(np.maximum((ssr / (n - k))[:, :, None] * diag[:, None, :], 0.0)) * up
            dw = np.where(ssr > 0, np.sum(np.diff(resid, axis=2) ** 2, axis=2) / ssr, np.nan)
        beta *= up
    return _StackFit(beta, se, r2, dw, failed)


def _t_stats(beta: np.ndarray, se: np.ndarray) -> np.ndarray:
    t = np.zeros_like(beta)
    pos = se > 0
    t[pos] = beta[pos] / se[pos]
    exact = ~pos & (beta != 0)
    t[exact] = np.sign(beta[exact]) * np.inf
    return t


def _quasi_difference_stack(Xy: np.ndarray, names: tuple[str, ...], rho: np.ndarray) -> _StackFit:
    """``_fit_stack`` of each problem of ``Xy`` on its rows quasi-differenced
    by its ``rho``, z_t - rho z_{t-1}, with the first column (the intercept)
    reset to ones. The intercept and its standard error are then rescaled to
    the original scale by 1 / (1 - rho)."""
    Xys = Xy[:, 1:, :] - rho[:, None, None] * Xy[:, :-1, :]
    Xys[:, :, 0] = 1.0
    fit = _fit_stack(Xys, names).single()
    scale = 1.0 / (1.0 - rho)
    fit.beta[:, 0] *= scale
    fit.se[:, 0] *= np.abs(scale)
    return fit


def _regression_fit(Xy, names, fit: _StackFit, i: int, method: str = "ols", rho=None,
                    differenced_by=None) -> RegressionFit:
    """Problem i of ``fit``, a fit of the stack ``Xy``, as a RegressionFit.

    Its residuals are those of the regression fitted: y - X beta, or for a
    fit on rows quasi-differenced by ``differenced_by``, e_t - rho e_{t-1}
    of those original-scale residuals e, which is the transformed residual.
    A residual past the largest float is +-inf.
    """
    with np.errstate(over="ignore"):
        resid = Xy[i, :, -1] - Xy[i, :, :-1] @ fit.beta[i]
        if differenced_by is not None:
            resid = resid[1:] - differenced_by * resid[:-1]
    beta, se = fit.beta[i].copy(), fit.se[i].copy()
    return RegressionFit(names, beta, se, _t_stats(beta, se), float(fit.r_square[i]), resid,
                         resid.size, float(fit.durbin_watson[i]), method, rho)


def _one_problem(X, y, names) -> tuple[np.ndarray, tuple[str, ...]]:
    """The one-problem stack ``[X | y]``, shape (1, n, k + 1), and the names
    of X's k columns (x0, x1, ... by default)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, k) and y (n,)")
    names = tuple(f"x{j}" for j in range(X.shape[1])) if names is None else tuple(names)
    if len(names) != X.shape[1]:
        raise ValueError("names must match the number of columns")
    Xy = np.column_stack([X, y])[None]
    if not np.isfinite(Xy).all():
        raise ValueError("array must not contain infs or NaNs")
    return Xy, names


def ols_fit(X: np.ndarray, y: np.ndarray, names=None) -> RegressionFit:
    """Classical OLS on a design matrix that already includes its intercept.

    Requires n >= k + 2 so the error-variance estimate has at least two
    degrees of freedom. This is ``_fit_stack`` of one problem. A residual
    past the largest float (of a response near it) is returned as +-inf;
    the coefficients and diagnostics stay finite.
    """
    Xy, names = _one_problem(X, y, names)
    n, k = Xy.shape[1], len(names)
    if n < k + 2:
        raise _too_few_for_ols(n, k)
    fit = _fit_stack(Xy, names).single()
    if fit.failed:
        raise fit.failed[0]
    return _regression_fit(Xy, names, fit, 0)


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
    Its residuals are those of the quasi-differenced regression.

    ``fixed_rho`` skips the iteration and fits the transformation once. This
    is ``_cochrane_orcutt_stack`` (or ``_quasi_difference_stack``) of one
    problem.
    """
    Xy, names = _one_problem(X, y, names)
    n, k = Xy.shape[1], len(names)
    if n < k + 3:
        raise _too_few_for_cochrane_orcutt(n, k)
    if fixed_rho is not None:
        if np.isnan(fixed_rho):
            raise ValueError("fixed_rho must not be NaN")
        if abs(fixed_rho) >= 1.0:
            raise NonStationaryError(f"|rho| >= 1: {fixed_rho}")
        fit = _quasi_difference_stack(Xy, names, np.array([float(fixed_rho)]))
        rho, differenced_by = fixed_rho, fixed_rho
    else:
        start = _fit_stack(Xy, names).single()
        [(fit, rhos, n_obs, rho_fitted)] = _cochrane_orcutt_stack([(Xy[0, :, :k], Xy[:, :, k], names, start)],
                                                                  tol, max_iter)
        rho, differenced_by = float(rhos[0]), rho_fitted[0] if n_obs[0] < n else None
    if fit.failed:
        raise fit.failed[0]
    return _regression_fit(Xy, names, fit, 0, "cochrane_orcutt", rho, differenced_by)


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


def _lag1_rho(resid: np.ndarray) -> np.ndarray:
    """The lag-1 estimate sum e_t e_{t-1} / sum e_{t-1}^2 of each row of
    ``resid``, 0 where the denominator is 0. Each row is first scaled by the
    power of two of ``_exponent``: that scales both sums exactly, so the
    ratio keeps its bits, and no square of a very small or very large
    residual leaves the float range."""
    e = np.ldexp(resid, -_exponent(resid, axis=1)[:, None])
    denom = np.sum(e[:, :-1] ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom == 0.0, 0.0, np.sum(e[:, 1:] * e[:, :-1], axis=1) / denom)


def _stack(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The stack ``[X | y]``, shape (m, n, k + 1), of the m rows y of Y (m, n)
    on the one design X (n, k)."""
    return np.concatenate([np.broadcast_to(X, (len(Y),) + X.shape), Y[:, :, None]], axis=2)


def _differencing_factors(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, QY), of shapes (2k - 1, 2k - 1) and (m, 2k - 1, 2), such that the
    quasi-differenced problem ``[1, X_1 - rho X_0 | y_1 - rho y_0]`` of row
    i of Y (m, n) on the design X (n, k), whose first column is the
    intercept, is ``Q [R_1 - rho R_0 | QY[i, :, 0] - rho QY[i, :, 1]]`` for
    one Q with orthonormal columns.

    X_1 and X_0 are the rows 1..n-1 and 0..n-2. ``W = [1, X_1 slopes, X_0
    slopes] = Q R`` is one reduced QR of the design, which every row of Y
    shares; R_1 is R's first k columns, R_0 a zero intercept column beside
    R's last k - 1, and QY holds Q'y_1 and Q'y_0. A design of fewer than
    2k rows gives a Q of n - 1 columns, and R and QY are padded with zero
    rows, which change no fit.
    """
    n, k = X.shape
    Q, R = np.linalg.qr(np.column_stack([np.ones(n - 1), X[1:, 1:], X[:-1, 1:]]))
    c = 2 * k - 1
    QY = np.zeros((len(Y), c, 2))
    QY[:, : len(R), 0] = np.einsum("wt,tc->wc", Y[:, 1:], Q)
    QY[:, : len(R), 1] = np.einsum("wt,tc->wc", Y[:, :-1], Q)
    return np.concatenate([R, np.zeros((c - len(R), c))]), QY


def _cochrane_orcutt_stack(groups, tol: float = 1e-6, max_iter: int = 50):
    """``cochrane_orcutt`` for groups of problems, in lockstep.

    Each group is (X, Y, names, start): one problem per row y of Y (m, n)
    on the design X (n, k), whose k columns ``names`` labels and whose first
    column is the intercept, and ``start``, their OLS fit
    (``_fit_stack(...).single()``), which is also the first iterate. The
    caller checks n >= k + 3.

    Each round takes the lag-1 rho estimate (``_lag1_rho``) of every problem
    still iterating from its original-scale residuals y - X beta. A problem
    leaves the rounds when its rho converges (|delta rho| < tol), keeping its
    previous iterate; when rho leaves the unit interval; when its
    quasi-differenced design is rank deficient; or after ``max_iter`` rounds,
    with a ``ConvergenceError`` that carries its last iterate.

    A round does not touch the n rows of a problem. The problem
    quasi-differenced by rho is Q times a problem of 2k - 1 rows
    (``_differencing_factors``), and Q has orthonormal columns, so that
    small problem has its least-squares fit and its column norms (Golub &
    Van Loan, *Matrix Computations*, §5.3). The rounds of every group with
    the same ``names`` solve those small problems in one ``_solve_stacked``,
    whose rank screen takes each problem's own n - 1 rows. After the last
    round each group's problems are fitted once, at the rho their last
    iterate was quasi-differenced by, with ``_quasi_difference_stack``, which
    gives the fit that is returned.

    Returns, per group, (fit, rho, n_obs, rho_fitted) with one row per
    problem: rho is the last estimate, and rho_fitted the rho the fit's rows
    were quasi-differenced by (0 for the OLS start, whose n_obs is n).
    """
    out = [None] * len(groups)
    by_names: dict[tuple[str, ...], list[int]] = {}
    for g, group in enumerate(groups):
        by_names.setdefault(group[2], []).append(g)
    for members in by_names.values():
        for g, result in zip(members, _co_lockstep([groups[g] for g in members], tol, max_iter)):
            out[g] = result
    return out


def _co_lockstep(groups, tol: float, max_iter: int):
    """``_cochrane_orcutt_stack`` of groups that share their names."""
    names = groups[0][2]
    k = len(names)
    at = np.cumsum([0] + [len(Y) for _, Y, _, _ in groups])  # group g's problems are at[g]:at[g + 1]
    beta = np.concatenate([start.beta for *_, start in groups])
    rows = np.repeat([len(X) - 1 for X, *_ in groups], np.diff(at))
    R, QY = zip(*(_differencing_factors(X, Y) for X, Y, _, _ in groups))
    R, QY = np.stack(R), np.concatenate(QY)
    rho = np.zeros(at[-1])
    fitted = np.zeros(at[-1])
    moved = np.zeros(at[-1], dtype=bool)  # the last iterate is quasi-differenced (by fitted)
    live = np.ones(at[-1], dtype=bool)
    failed = {}
    for g, (*_, start) in enumerate(groups):
        failed.update((int(at[g] + i), exc) for i, exc in start.failed.items())
    live[list(failed)] = False
    for _ in range(max_iter):
        now = np.flatnonzero(live)
        if not now.size:
            break
        cut = np.searchsorted(now, at)
        for g, (X, Y, _, _) in enumerate(groups):
            i = now[cut[g] : cut[g + 1]]
            if i.size:
                rho[i] = _lag1_rho(Y[i - at[g]] - np.einsum("tj,wj->wt", np.ascontiguousarray(X), beta[i]))
        live[now] = False
        for i in now[np.abs(rho[now]) >= 1.0]:
            failed[int(i)] = _rho_left_unit_interval(rho[i])
        go = now[(np.abs(rho[now]) < 1.0) & ~(np.abs(rho[now] - fitted[now]) < tol)]
        if not go.size:
            continue
        r = rho[go, None]
        small = np.empty((go.size, 2 * k - 1, k))
        cut = np.searchsorted(go, at)
        for g in np.flatnonzero(np.diff(cut)):
            part = slice(cut[g], cut[g + 1])
            small[part] = R[g, :, :k]
            small[part, :, 1:k] -= r[part, :, None] * R[g, :, k:]
        b, _, bad = _solve_stacked(small, (QY[go, :, 0] - r * QY[go, :, 1])[:, None], names, rows[go])
        beta[go] = b[:, 0]
        beta[go, 0] *= 1.0 / (1.0 - rho[go])  # the intercept on the original scale
        fitted[go] = rho[go]
        moved[go] = live[go] = True
        for j, exc in bad.items():
            failed[int(go[j])] = exc
            live[go[j]] = False

    out = []
    for g, (X, Y, _, start) in enumerate(groups):
        a, b = at[g], at[g + 1]
        fit = _StackFit(*(v.copy() for v in start[:4]), {int(i - a): exc for i, exc in failed.items() if a <= i < b})
        redo = np.array([i for i in np.flatnonzero(moved[a:b]) if i not in fit.failed], dtype=int)
        if redo.size:
            last = _quasi_difference_stack(_stack(X, Y[redo]), names, fitted[a + redo])
            for v, w in zip(fit[:4], last[:4]):
                v[redo] = w
            fit.failed.update((int(redo[j]), exc) for j, exc in last.failed.items())
        for i in np.flatnonzero(live[a:b]):
            if i not in fit.failed:
                last = _regression_fit(_stack(X, Y), names, fit, i, "cochrane_orcutt", float(fitted[a + i]),
                                       fitted[a + i] if moved[a + i] else None)
                fit.failed[int(i)] = _rho_did_not_converge(max_iter, float(rho[a + i]), last)
        rho_g = rho[a:b].copy()
        for v in (*fit[:4], rho_g):
            v[list(fit.failed)] = np.nan
        out.append((fit, rho_g, np.where(moved[a:b], len(X) - 1, len(X)), fitted[a:b]))
    return out


@dataclass(frozen=True)
class PrewhitenResult:
    """AR pre-whitening output; residuals keep the series mean so scale is
    preserved. ``order`` is the AR order chosen, which is also how many
    leading observations were consumed."""

    residuals: np.ndarray
    phi: float
    order: int
    near_unit_root: bool = False


def _ar1_rows(x: np.ndarray):
    """``ar1_prewhiten`` of every row of ``x`` (m, n), with n >= 10, at once.

    Every statistic is a reduction along the contiguous last axis, which
    numpy sums row by row in the pairwise order of a 1-D call, so each row
    gets the bits of its own one-row call. Returns (residuals, phi, order,
    near_unit_root): row i of ``residuals`` (m, n) holds the pre-whitened
    series of row i from column ``order[i]`` on, and NaN before it; ``phi``
    is 0 where AR(0) is chosen.

    Each row is fitted scaled by the power of two 2^-e of ``_exponent``, as
    ``_fit_stack`` does, and its residuals are formed on that scaled copy and
    scaled back by 2^e, which is exact wherever a residual is normal; phi and
    the order do not depend on scale. A residual past the largest float is
    +-inf.
    """
    x = np.ascontiguousarray(x, dtype=float)
    e = _exponent(x, axis=1)[:, None]
    xs = x * np.ldexp(1.0, -e)
    n_eff = x.shape[1] - 1
    y, x_lag = xs[:, 1:], xs[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dy = y - y.mean(axis=1, keepdims=True)
        lag_mean = x_lag.mean(axis=1, keepdims=True)
        lx = x_lag - lag_mean

        # AR(0): mean-only model on the common sample (observations 2..n).
        ssr0 = np.sum(dy**2, axis=1)

        # AR(1) by conditional least squares. A lag of zero variance gets phi
        # 0 (not 0/0): then AR(1) has AR(0)'s SSR and one more parameter, so
        # AR(0) is chosen.
        denom = np.sum(lx**2, axis=1)
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
        residuals[ar1, 1:] = ((resid1 + xs.mean(axis=1, keepdims=True)) * np.ldexp(1.0, e))[ar1]
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
    return PrewhitenResult(residuals[0, k:], float(phi[0]), k, bool(near_unit_root[0]))


def trend_fit(series: np.ndarray) -> TrendFit:
    """OLS of a series on (1, t), t = 0..n-1, with the slope t-statistic.

    ``series`` is one series (n,) or a stack of equal-length series (m, n),
    fitted as ``_fit_stack`` of ``[1, t | y]``; for a stack each field gains
    a leading axis of m, and each row keeps the bits of its own call.

    A slope at rounding level, ``|slope| * ||t - mean(t)|| <= n * eps *
    ||y||``, has t-stat 0, the value ``_t_stats`` gives a zero slope with a
    zero standard error. The bound is n rounding errors of a backward-stable
    solve, each ``eps * ||y||`` (Higham 2002, ch. 2 and 20). ``_fit_stack``
    fits each series scaled by the power of two of ``_exponent``, so no
    error of underflow is added, and the rule is tested on that scale, where
    neither y * y nor ||y|| can leave the float range. Without it a flat
    series gets a t-stat of rounding noise, or +-inf.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError("series must be (n,) or (m, n)")
    n = y.shape[-1]
    if n < 3:
        raise DegreesOfFreedomError(f"need at least 3 observations, got {n}")
    if not np.isfinite(y).all():
        raise ValueError("array must not contain infs or NaNs")
    Y = y.reshape(-1, n)
    t = np.arange(n, dtype=float)
    Xy = np.empty((len(Y), n, 3))
    Xy[:, :, 0], Xy[:, :, 1], Xy[:, :, 2] = 1.0, t, Y
    fit = _fit_stack(Xy, ("const", "t")).single()
    intercept, slope = fit.beta[:, 0], fit.beta[:, 1]
    t_stat = _t_stats(fit.beta, fit.se)[:, 1]
    down = np.ldexp(1.0, -_exponent(Y, axis=1))
    spread_t = np.sqrt(np.sum((t - t.mean()) ** 2))
    norm_y = np.sqrt(np.sum((Y * down[:, None]) ** 2, axis=1))
    t_stat[np.abs(slope * down) * spread_t <= n * np.finfo(float).eps * norm_y] = 0.0
    with np.errstate(over="ignore"):  # a residual past the largest float is +-inf
        resid = Y - (intercept[:, None] + slope[:, None] * t)
    if y.ndim == 1:
        return TrendFit(float(intercept[0]), float(slope[0]), float(t_stat[0]), resid[0])
    return TrendFit(intercept, slope, t_stat, resid)
