"""OLS, Durbin-Watson, Cochrane-Orcutt, AR(1) pre-whitening, trend fits.

Oracle policy: coefficient paths are checked against explicit normal-equation
solves done inline with plain numpy, never against the implementation's own
solver; iterative-procedure targets come from seeded Monte Carlo.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from housingrisk import (
    ConvergenceError,
    DegreesOfFreedomError,
    InsufficientHistoryError,
    NonStationaryError,
    SingularDesignError,
    UndefinedStatisticError,
    add_intercept,
    ar1_prewhiten,
    cochrane_orcutt,
    durbin_watson,
    ols_fit,
    trend_fit,
)
from housingrisk.regress import _ar1_rows, _fit_core


def normal_equations(X, y):
    """Independent textbook solve: beta, se, r2, residuals."""
    XtX = X.T @ X
    beta = np.linalg.solve(XtX, X.T @ y)
    resid = y - X @ beta
    n, k = X.shape
    s2 = resid @ resid / (n - k)
    se = np.sqrt(np.diag(np.linalg.inv(XtX)) * s2)
    sst = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - (resid @ resid) / sst
    return beta, se, r2, resid


def test_exact_line_recovered():
    x = np.arange(10.0)
    y = 1.0 + 2.0 * x
    fit = ols_fit(add_intercept(x[:, None]), y, names=("const", "x"))
    assert_allclose(fit.coefficients, [1.0, 2.0], atol=1e-10)
    assert_allclose(fit.residuals, np.zeros(10), atol=1e-9)
    assert fit.r_square == pytest.approx(1.0, abs=1e-12)
    assert fit.coefficient("x") == fit.coefficients[1]


def test_ols_matches_normal_equations(rng):
    n, k = 60, 4
    X = add_intercept(rng.normal(size=(n, k)))
    y = X @ np.array([0.5, -1.0, 2.0, 0.0, 0.3]) + rng.normal(size=n)
    fit = ols_fit(X, y)
    beta, se, r2, resid = normal_equations(X, y)
    assert_allclose(fit.coefficients, beta, rtol=1e-10)
    assert_allclose(fit.standard_errors, se, rtol=1e-10)
    assert fit.r_square == pytest.approx(r2, rel=1e-10)
    assert_allclose(fit.residuals, resid, atol=1e-10)
    assert_allclose(fit.t_stats, beta / se, rtol=1e-10)
    assert fit.n_obs == n


def test_singular_design_names_columns(rng):
    x = rng.normal(size=30)
    X = np.column_stack([np.ones(30), x, 2.0 * x])
    with pytest.raises(SingularDesignError) as exc:
        ols_fit(X, rng.normal(size=30), names=("const", "a", "a_twice"))
    # either member of the collinear pair is a fair culprit; "const" is not
    assert exc.value.columns and set(exc.value.columns) <= {"a", "a_twice"}


def test_degrees_of_freedom_guard(rng):
    X = add_intercept(rng.normal(size=(3, 2)))  # n = k + 0
    with pytest.raises(DegreesOfFreedomError):
        ols_fit(X, rng.normal(size=3))


def test_zero_response_zero_t():
    X = add_intercept(np.arange(8.0)[:, None])
    fit = ols_fit(X, np.zeros(8))
    assert_array_equal(fit.coefficients, [0.0, 0.0])
    assert_array_equal(fit.t_stats, [0.0, 0.0])


def test_constant_response_r_square_zero():
    # SST = 0 convention: R^2 reported as 0, not NaN
    X = add_intercept(np.arange(12.0)[:, None])
    fit = ols_fit(X, np.full(12, 5.0))
    assert fit.r_square == 0.0


def test_serialization_shape(rng):
    X = add_intercept(rng.normal(size=(20, 1)))
    fit = ols_fit(X, rng.normal(size=20), names=("const", "x"))
    d = fit.to_dict()
    assert d["n"] == 20 and d["method"] == "ols"
    assert set(d["coefficients"]) == {"const", "x"}
    assert d["rho"] is None


# --- Durbin-Watson ----------------------------------------------------------

def test_dw_alternating_is_3_2():
    # e = (1,-1,1,-1,1): num = 4*4 = 16, den = 5
    assert durbin_watson(np.array([1.0, -1.0, 1.0, -1.0, 1.0])) == pytest.approx(3.2)


def test_dw_smooth_near_zero():
    assert durbin_watson(np.ones(10) * 1e-3 + np.arange(10) * 1e-9) < 0.1


def test_dw_iid_near_two(rng):
    e = rng.normal(size=4000)
    assert durbin_watson(e) == pytest.approx(2.0, abs=0.1)


def test_dw_guards():
    with pytest.raises(UndefinedStatisticError):
        durbin_watson(np.zeros(10))
    with pytest.raises(ValueError):
        durbin_watson(np.array([1.0]))


# --- Cochrane-Orcutt --------------------------------------------------------

def ar1_noise(rng, n, rho, sigma=1.0):
    e = np.empty(n)
    e[0] = rng.normal(scale=sigma / np.sqrt(1 - rho**2))
    for t in range(1, n):
        e[t] = rho * e[t - 1] + rng.normal(scale=sigma)
    return e


def test_co_zero_rho_fixed_point():
    # Residuals (1, 0, -1, 0) have exactly zero lag-1 autocovariance, so the
    # first rho estimate is 0 < tol and the plain full-sample OLS fit is kept
    # (no quasi-differencing, no row lost).
    X = np.ones((4, 1))
    y = np.array([1.0, 0.0, -1.0, 0.0])
    co = cochrane_orcutt(X, y, names=("const",))
    fit = ols_fit(X, y, names=("const",))
    assert co.rho == 0.0
    assert co.n_obs == 4
    assert_allclose(co.coefficients, fit.coefficients, atol=1e-10)
    assert_array_equal(co.residuals, fit.residuals)


def test_co_white_noise_stays_close_to_ols(rng):
    X = add_intercept(rng.normal(size=(80, 2)))
    y = X @ np.array([1.0, 0.5, -0.5]) + rng.normal(size=80)
    co = cochrane_orcutt(X, y)
    fit = ols_fit(X, y)
    assert abs(co.rho if co.rho is not None else 0.0) < 0.25
    assert_allclose(co.coefficients, fit.coefficients, atol=0.1)


def test_co_fixed_rho_zero_is_ols_on_tail(rng):
    X = add_intercept(rng.normal(size=(40, 2)))
    y = rng.normal(size=40)
    co = cochrane_orcutt(X, y, fixed_rho=0.0)
    tail = ols_fit(X[1:], y[1:])
    assert_array_equal(co.coefficients, tail.coefficients)
    assert_array_equal(co.standard_errors, tail.standard_errors)


def test_co_recovers_rho_monte_carlo():
    # planted AR(1) rho = 0.6, n = 140; mean rho-hat over seeds lands near 0.6
    rhos = []
    betas = []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        X = add_intercept(rng.normal(size=(140, 1)))
        y = X @ np.array([2.0, 1.5]) + ar1_noise(rng, 140, 0.6, 0.5)
        fit = cochrane_orcutt(X, y)
        rhos.append(fit.rho)
        betas.append(fit.coefficients)
    assert np.mean(rhos) == pytest.approx(0.6, abs=0.15)
    assert np.std(rhos) < 0.15
    assert_allclose(np.mean(betas, axis=0), [2.0, 1.5], atol=0.1)


def test_co_intercept_back_on_original_scale(rng):
    X = add_intercept(rng.normal(size=(200, 1)))
    y = X @ np.array([3.0, 1.0]) + ar1_noise(rng, 200, 0.5)
    fit = cochrane_orcutt(X, y, names=("const", "x"))
    assert fit.method == "cochrane_orcutt"
    assert fit.n_obs == 199  # one row lost to quasi-differencing
    assert fit.coefficient("const") == pytest.approx(3.0, abs=0.8)
    assert fit.rho == pytest.approx(0.5, abs=0.2)


def test_co_nonstationary_rho_rejected(rng):
    X = add_intercept(rng.normal(size=(30, 1)))
    with pytest.raises(NonStationaryError):
        cochrane_orcutt(X, rng.normal(size=30), fixed_rho=1.0)


def test_co_max_iter_zero_errors(rng):
    X = add_intercept(rng.normal(size=(30, 1)))
    y = X[:, 1] + ar1_noise(rng, 30, 0.7)
    with pytest.raises(ConvergenceError) as exc:
        cochrane_orcutt(X, y, max_iter=0)
    assert exc.value.last_fit is not None


def test_co_needs_one_extra_row(rng):
    X = add_intercept(rng.normal(size=(4, 2)))  # k + 1 rows: OLS ok, CO not
    with pytest.raises(DegreesOfFreedomError):
        cochrane_orcutt(X, rng.normal(size=4))


# --- AR(1) pre-whitening ----------------------------------------------------

def test_prewhiten_white_noise_prefers_lag0():
    chosen = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        res = ar1_prewhiten(rng.normal(size=140))
        chosen.append(res.order)
    assert np.mean(np.array(chosen) == 0) > 0.70


def test_prewhiten_ar1_phi_recovered():
    phis = []
    for seed in range(40):
        rng = np.random.default_rng(seed + 1000)
        x = ar1_noise(rng, 500, 0.8)
        res = ar1_prewhiten(x)
        assert res.order == 1
        phis.append(res.phi)
    assert np.mean(phis) == pytest.approx(0.8, abs=0.1)


def test_prewhiten_lag0_series_untouched():
    rng = np.random.default_rng(7)
    x = rng.normal(size=140)
    res = ar1_prewhiten(x)
    if res.order == 0:
        assert_array_equal(res.residuals, x)
        assert res.phi == 0.0
        assert res.offset == 0


def test_prewhiten_constant_series():
    x = np.full(20, 3.25)
    res = ar1_prewhiten(x)
    assert res.order == 0
    assert_array_equal(res.residuals, x)


def test_prewhiten_preserves_mean_scale():
    rng = np.random.default_rng(11)
    x = 5.0 + ar1_noise(rng, 300, 0.7)
    res = ar1_prewhiten(x)
    assert res.order == 1
    assert np.mean(res.residuals) == pytest.approx(np.mean(x[res.offset:]), abs=0.2)


def test_prewhiten_near_unit_root_flag():
    x = 1.05 ** np.arange(60)  # explosive growth
    res = ar1_prewhiten(x)
    assert res.near_unit_root


def test_prewhiten_min_obs():
    with pytest.raises(InsufficientHistoryError):
        ar1_prewhiten(np.arange(9.0) + 1.0)


def scalar_ar1(x):
    """(residuals, phi, order, near_unit_root) of AR(0)/AR(1) by BIC, AIC
    breaking ties, one 1-D series at a time in plain float arithmetic."""
    y, x_lag, n_eff = x[1:], x[:-1], x.size - 1
    lx = x_lag - x_lag.mean()
    denom = float(np.sum(lx**2))
    if denom == 0.0:
        return x, 0.0, 0, False
    phi = float(np.sum((y - y.mean()) * lx) / denom)
    resid1 = y - (y.mean() - phi * x_lag.mean()) - phi * x_lag
    ic = []
    for ssr, k in ((float(np.sum((y - y.mean()) ** 2)), 1), (float(np.sum(resid1**2)), 2)):
        ll = n_eff * np.log(max(ssr / n_eff, np.finfo(float).tiny))
        ic.append((ll + k * np.log(n_eff), ll + 2 * k))
    if ic[1] < ic[0]:  # BIC first, then AIC
        return resid1 + float(x.mean()), phi, 1, abs(phi) >= 1.0
    return x, 0.0, 0, False


@settings(max_examples=80, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(("noise", "ar1", "walk", "explosive", "flat", "flat lag")),
                   min_size=1, max_size=6),
    n=st.integers(10, 90),
    scale=st.sampled_from((1e-6, 1.0, 1e6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_ar1_kernel_block_equals_one_row_calls(kinds, n, scale, seed):
    """Each row of a block gets the bits of its own ``ar1_prewhiten`` call,
    and those of the scalar arithmetic."""
    rng = np.random.default_rng(seed)
    x = np.empty((len(kinds), n))
    for i, kind in enumerate(kinds):
        if kind in ("flat", "flat lag"):  # zero lag variance: phi's 0/0
            x[i] = rng.normal()
            x[i, -1] += kind == "flat lag"
        else:
            phi = {"noise": 0.0, "ar1": 0.8, "walk": 1.0, "explosive": 1.2}[kind]
            x[i] = rng.normal(size=n)
            for t in range(1, n):
                x[i, t] += phi * x[i, t - 1]
    x *= scale
    residuals, phi, order, near_unit_root = _ar1_rows(x)
    for i in range(len(kinds)):
        one = ar1_prewhiten(x[i])
        assert one.offset == one.order == order[i]
        assert np.isnan(residuals[i, : one.offset]).all()
        assert_array_equal(residuals[i, one.offset :], one.residuals)
        assert_array_equal(phi[i], one.phi)
        assert near_unit_root[i] == one.near_unit_root
        want = scalar_ar1(x[i])
        assert_array_equal(one.residuals, want[0])
        assert (one.phi, one.order, one.near_unit_root) == want[1:]


# --- trend fits -------------------------------------------------------------

def test_trend_exact_line_three_points():
    fit = trend_fit(np.array([1.0, 3.0, 5.0]))
    assert fit.intercept == pytest.approx(1.0, abs=1e-10)
    assert fit.slope == pytest.approx(2.0, abs=1e-10)
    assert_allclose(fit.residuals, 0.0, atol=1e-9)


def test_trend_flat_series_zero_slope(rng):
    fit = trend_fit(np.full(30, 2.0) + rng.normal(scale=1e-6, size=30))
    assert fit.slope == pytest.approx(0.0, abs=1e-6)


def test_trend_t_stat_sign(rng):
    down = trend_fit(-0.5 * np.arange(40.0) + rng.normal(size=40))
    assert down.slope_t_stat < -5


def test_trend_needs_three_points():
    with pytest.raises(DegreesOfFreedomError):
        trend_fit(np.array([1.0, 2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trend_rejects_a_non_finite_series(bad):
    with pytest.raises(ValueError):
        trend_fit(np.array([1.0, bad, 2.0]))


SERIES = st.one_of(
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=80),
    st.tuples(st.floats(-1e3, 1e3), st.integers(3, 80)).map(lambda c: [c[0]] * c[1]),  # constant
)


@settings(max_examples=300, deadline=None)
@given(values=SERIES)
def test_trend_equals_the_pivoted_qr_fit_bit_for_bit(values):
    y = np.array(values)
    X = np.column_stack([np.ones(y.size), np.arange(y.size, dtype=float)])
    ref = _fit_core(X, y, ("const", "t"), "ols", None)
    fit = trend_fit(y)
    assert (fit.intercept, fit.slope) == tuple(ref.coefficients)
    assert fit.slope_t_stat == ref.t_stats[1] or (np.isnan(fit.slope_t_stat) and np.isnan(ref.t_stats[1]))
    assert_array_equal(fit.residuals, ref.residuals)
