"""OLS, Durbin-Watson, Cochrane-Orcutt, AR(1) pre-whitening, trend fits.

Oracle policy: coefficient paths are checked against explicit normal-equation
solves done inline with plain numpy, never against the implementation's own
solver; iterative-procedure targets come from seeded Monte Carlo. The public
one-problem calls are also checked against the scalar estimators of
``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose, assert_array_equal

from housingrisk import (
    ConvergenceError,
    DegreesOfFreedomError,
    HousingRiskError,
    InsufficientHistoryError,
    NonStationaryError,
    SingularDesignError,
    ar1_prewhiten,
    cochrane_orcutt,
    ols_fit,
    trend_fit,
)
from housingrisk.regress import _ar1_rows, _cochrane_orcutt_stack, _fit_stack, _solve_stacked, _t_stats

from . import oracles
from .oracles import add_intercept


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


# --- Durbin-Watson ----------------------------------------------------------

def dw_of(e):
    """The Durbin-Watson of an OLS fit whose residuals are e up to rounding:
    e regressed on the column (e1, -e0, 0, ...), which is orthogonal to it."""
    x = np.zeros_like(e)
    x[:2] = e[1], -e[0]
    return ols_fit(x[:, None], e).durbin_watson


def test_dw_alternating_is_3_2():
    # e = (1,-1,1,-1,1): num = 4*4 = 16, den = 5
    assert dw_of(np.array([1.0, -1.0, 1.0, -1.0, 1.0])) == pytest.approx(3.2)


def test_dw_smooth_near_zero():
    assert dw_of(np.ones(10) * 1e-3 + np.arange(10) * 1e-9) < 0.1


def test_dw_iid_near_two(rng):
    e = rng.normal(size=4000)
    assert dw_of(e) == pytest.approx(2.0, abs=0.1)


def test_dw_guards():
    # All-zero residuals have no Durbin-Watson: NaN, not an error.
    X = add_intercept(np.arange(10.0)[:, None])
    assert np.isnan(ols_fit(X, np.zeros(10)).durbin_watson)
    with pytest.raises(DegreesOfFreedomError):
        ols_fit(X[:3], np.zeros(3))


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
    assert fit.coefficients[0] == pytest.approx(3.0, abs=0.8)
    assert fit.rho == pytest.approx(0.5, abs=0.2)


def test_co_nonstationary_rho_rejected(rng):
    X = add_intercept(rng.normal(size=(30, 1)))
    with pytest.raises(NonStationaryError):
        cochrane_orcutt(X, rng.normal(size=30), fixed_rho=1.0)


def test_co_nan_rho_is_a_value_error(rng):
    # A NaN rho is bad input, as NaN data is; it must not reach the fit and
    # come back as a rank-deficient design.
    X = add_intercept(rng.normal(size=(30, 1)))
    with pytest.raises(ValueError, match="NaN"):
        cochrane_orcutt(X, rng.normal(size=30), fixed_rho=float("nan"))


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


def outcome(fit, *args, **kwargs):
    """(result, None) or (None, the HousingRiskError raised)."""
    try:
        return fit(*args, **kwargs), None
    except HousingRiskError as exc:
        return None, exc


def assert_same_fit(fit, ref):
    assert (fit.names, fit.method, fit.n_obs) == (ref.names, ref.method, ref.n_obs)
    for field in ("coefficients", "standard_errors", "t_stats", "durbin_watson"):
        assert_allclose(getattr(fit, field), getattr(ref, field), rtol=1e-9)
    # An intercept-only fit has R-square 0 up to rounding.
    assert_allclose(fit.r_square, ref.r_square, rtol=1e-9, atol=1e-12)
    assert (fit.rho is None) == (ref.rho is None)
    if ref.rho is not None:
        assert_allclose(fit.rho, ref.rho, rtol=1e-9)
    scale = np.max(np.abs(ref.residuals))
    assert_allclose(fit.residuals, ref.residuals, rtol=1e-9, atol=1e-9 * scale)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 5),
    extra_rows=st.sampled_from([1, 2, 3, 4, 8, 30, 100]),
    phi=st.sampled_from([0.0, 0.3, 0.9, 0.99, -0.6]),
    collinear=st.sampled_from([False] * 9 + [True]),
    fixed_rho=st.sampled_from([None] * 4 + [0.0, 0.5, -0.95, 1.0, -1.5]),
    max_iter=st.sampled_from([0, 1, 50]),
)
def test_public_fits_equal_the_scalar_oracles(seed, k, extra_rows, phi, collinear, fixed_rho, max_iter):
    # n = k + 1 fails both calls, n = k + 2 fails only Cochrane-Orcutt.
    rng = np.random.default_rng(seed)
    n = k + extra_rows
    X = add_intercept(rng.normal(size=(n, k - 1)))
    if collinear and k > 1:
        X[:, -1] = 2.0 * X[:, 1] if k > 2 else 3.0
    y = X @ rng.normal(size=k) + ar1_noise(rng, n, phi)
    kwargs = {"fixed_rho": fixed_rho, "max_iter": max_iter}
    for public, oracle, options in ((ols_fit, oracles.ols_fit, {}),
                                    (cochrane_orcutt, oracles.cochrane_orcutt, kwargs)):
        fit, exc = outcome(public, X, y, **options)
        ref, ref_exc = outcome(oracle, X, y, **options)
        if ref_exc is None:
            assert exc is None
            assert_same_fit(fit, ref)
            continue
        assert type(exc) is type(ref_exc)
        assert str(exc) == str(ref_exc)
        if isinstance(ref_exc, ConvergenceError):
            assert_allclose(exc.last_rho, ref_exc.last_rho, rtol=1e-9)
            assert_same_fit(exc.last_fit, ref_exc.last_fit)


@pytest.mark.parametrize("fit", [ols_fit, cochrane_orcutt])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["X", "y"])
def test_public_fits_reject_a_non_finite_input(rng, fit, bad, where):
    X = add_intercept(rng.normal(size=(20, 2)))
    y = rng.normal(size=20)
    if where == "X":
        X[5, 1] = bad
    else:
        y[5] = bad
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        fit(X, y)


# --- rank and the stacked solve ---------------------------------------------

DESIGN_COLUMNS = ("normal", "intercept", "zero", "const", "copy", "scaled", "sum", "near")


def design(rng, kinds, n, shuffle=False):
    """An (n, len(kinds)) design whose columns are built in ``kinds`` order.

    ``copy``, ``scaled`` and ``sum`` are exactly dependent on earlier
    columns, ``zero`` and ``const`` on nothing or the intercept, and
    ``near`` is an earlier column plus 1e-9 noise: full rank, badly
    conditioned. A kind with too few earlier columns is ``normal``.
    """
    cols = []
    for kind in kinds:
        if (kind in ("copy", "scaled", "near") and not cols) or (kind == "sum" and len(cols) < 2):
            kind = "normal"
        size = rng.uniform(0.25, 4.0) * rng.choice([-1.0, 1.0])
        if kind == "normal":
            col = size * rng.normal(size=n)
        elif kind == "intercept":
            col = np.ones(n)
        elif kind == "zero":
            col = np.zeros(n)
        elif kind == "const":
            col = np.full(n, size)
        elif kind == "sum":
            i, j = rng.choice(len(cols), 2, replace=False)
            col = cols[i] + cols[j]
        else:
            col = cols[rng.integers(len(cols))]
            col = {"copy": col, "scaled": size * col, "near": col + 1e-9 * rng.normal(size=n)}[kind]
        cols.append(col)
    X = np.column_stack(cols)
    return X[:, rng.permutation(X.shape[1])] if shuffle else X


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(DESIGN_COLUMNS), min_size=1, max_size=6),
    extra_rows=st.integers(2, 40),
    shuffle=st.booleans(),
)
def test_rank_rule_finds_the_pivoted_qr_rank(seed, kinds, extra_rows, shuffle):
    # The stacked solve's rule (in declared order, a column whose residual on
    # the earlier kept columns is at rounding level is dependent) finds the
    # rank of scipy's pivoted QR, and names the columns Gram-Schmidt does.
    rng = np.random.default_rng(seed)
    k = len(kinds)
    X = design(rng, kinds, k + extra_rows, shuffle)
    names = tuple(f"x{j}" for j in range(k))
    y = rng.normal(size=X.shape[0])
    try:
        oracles._solve_ls(X, y, names)
        rank = k
    except SingularDesignError as exc:
        rank = k - len(exc.columns)
    _, _, failed = _solve_stacked(X[None], y[None, None], names)
    dependent = failed[0].columns if failed else ()
    assert k - len(dependent) == rank
    assert dependent == tuple(names[j] for j in oracles.declared_order_dependent(X))


def stack_of_designs(rng, s, n, k, m, phi=0.0):
    """X (s, n, k) and Y (s, m, n): an intercept and k - 1 random ``design``
    columns per problem, about one problem in three rank deficient, and
    AR(1) noise of coefficient ``phi`` in the responses."""
    X, Y = np.empty((s, n, k)), np.empty((s, m, n))
    for i in range(s):
        pool = DESIGN_COLUMNS if rng.random() < 0.3 else ("normal", "near")
        X[i] = design(rng, ["intercept", *rng.choice(pool, k - 1)], n)
        noise = np.column_stack([ar1_noise(rng, n, phi) for _ in range(m)])
        Y[i] = (X[i] @ rng.normal(size=(k, m)) + noise).T
    return X, Y


def assert_same_stack_rows(whole, alone, at):
    """Row ``at`` of every array of ``whole`` equals row 0 of ``alone`` to
    the bit, and so does its error, if any."""
    for a, b in zip(whole, alone):
        if isinstance(a, dict):
            assert str(a.get(at)) == str(b.get(0))
        elif a is not None:
            assert_array_equal(a[at], b[0])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(2, 8),
    k=st.integers(1, 5),
    m=st.integers(1, 3),
    extra_rows=st.sampled_from([3, 4, 8, 30]),
    phi=st.sampled_from([0.0, 0.5, 0.9, 0.99]),
    spread=st.sampled_from([0, 900]),
)
def test_a_problem_has_the_same_bits_alone_and_in_a_stack(seed, s, k, m, extra_rows, phi, spread):
    # The lockstep Cochrane-Orcutt rounds and byte-identical artifacts rely on
    # a problem's fit not depending on the stack it is solved in. Each
    # response is scaled by its own power of two within 2^+-spread, so that
    # one stack can mix responses that square in range with ones that would
    # not.
    rng = np.random.default_rng(seed)
    n = k + extra_rows
    names = tuple(f"x{j}" for j in range(k))
    X, Y = stack_of_designs(rng, s, n, k, m, phi)
    Z = Y.copy()
    scale = rng.integers(-spread, spread + 1, size=(s, m, 1))
    Y = np.ldexp(Y, scale)
    alone = [_fit_stack(X[i : i + 1], Y[i : i + 1], names) for i in range(s)]
    whole = _fit_stack(X, Y, names)
    for i, fit in enumerate(alone):
        assert_same_stack_rows(whole, fit, i)
    # Nor on the scale of the other responses of its problem: the first
    # response scaled anew leaves the bits of every other.
    scale[:, 0] = rng.integers(-spread, spread + 1, size=(s, 1))
    for a, b in zip(whole[:4], _fit_stack(X, np.ldexp(Z, scale), names)[:4]):
        if a is not None:
            assert_array_equal(a[:, 1:], b[:, 1:])
    part = rng.choice(s, rng.integers(1, s + 1), replace=False)  # any sub-stack, in any order
    some = _fit_stack(X[part], Y[part], names)
    for j, i in enumerate(part):
        assert_same_stack_rows(some, alone[i], j)
    # Cochrane-Orcutt runs groups of different n in one lockstep; each
    # problem has the bits of its own one-problem call.
    groups = []
    for _ in range(s):
        X, Y = stack_of_designs(rng, 1, k + rng.choice([3, 4, 8, 30]), k, m, phi)
        X, Y = X[0], np.ldexp(Y[0], rng.integers(-spread, spread + 1, size=(m, 1)))
        fit = _fit_stack(X[None], Y[None], names).responses()
        groups.append((X, Y, names, fit, np.arange(0 if fit.failed else m)))  # a failed start is not iterated
    for (X, Y, _, co, _), rest in zip(groups, _cochrane_orcutt_stack(groups)):
        for j in range(m):
            co_j = _fit_stack(X[None], Y[None, j : j + 1], names).responses()
            [rest_j] = _cochrane_orcutt_stack([(X, Y[j : j + 1], names, co_j, np.arange(0 if co_j.failed else 1))])
            assert_same_stack_rows(co, co_j, j)
            for a, b in zip(rest, rest_j):
                assert_array_equal(a[j : j + 1], b)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 4),
    k=st.integers(1, 13),
    m=st.integers(2, 40),
    extra_rows=st.sampled_from([2, 3, 8, 30]),
)
def test_a_response_has_the_same_bits_alone_and_among_others(seed, s, k, m, extra_rows):
    # The integration spans fit every MSA of a panel as one response of the
    # same problems, so an MSA's bits must not depend on how many others
    # there are, nor on where it stands among them.
    rng = np.random.default_rng(seed)
    names = tuple(f"x{j}" for j in range(k))
    n = k + extra_rows
    X, Y = stack_of_designs(rng, s, n, k, m)
    whole = _fit_stack(X, Y, names, diagnostics=False)
    part = rng.choice(m, rng.integers(1, m + 1), replace=False)
    some = _fit_stack(X, Y[:, part], names, diagnostics=False)
    assert_array_equal(whole.beta[:, part], some.beta)
    assert_array_equal(whole.r_square[:, part], some.r_square)
    assert str(whole.failed) == str(some.failed)
    # Nor on the layout of the arrays: the kernel takes its callers' views
    # as they are. Step-2 slices of wider arrays, and the windows of such a
    # slice and of a grid that holds the responses as columns (as the
    # integration spans do), have the bits of their C copies.
    wide, tall = np.zeros((s, n, 2 * k)), np.zeros((s, m, 2 * n))
    wide[:, :, ::2], tall[:, :, ::2] = X, Y
    w = k + 2
    windows = (sliding_window_view(wide[0, :, ::2], w, axis=0).transpose(0, 2, 1),
               sliding_window_view(np.ascontiguousarray(Y[0].T), w, axis=0))
    for Xv, Yv in ((wide[:, :, ::2], tall[:, :, ::2]), windows):
        assert not (Xv.flags.c_contiguous or Yv.flags.c_contiguous)
        view, copy = _fit_stack(Xv, Yv, names), _fit_stack(*map(np.ascontiguousarray, (Xv, Yv)), names)
        for a, b in zip(view[:4], copy[:4]):
            assert_array_equal(a, b)
        assert str(view.failed) == str(copy.failed)


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
    assert np.mean(res.residuals) == pytest.approx(np.mean(x[res.order:]), abs=0.2)


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
        assert one.order == order[i]
        assert np.isnan(residuals[i, : one.order]).all()
        assert_array_equal(residuals[i, one.order :], one.residuals)
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


def series_of(n):
    return st.one_of(
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
        st.floats(-1e3, 1e3).map(lambda c: [c] * n),  # constant
    )


STACKS = st.integers(3, 80).flatmap(lambda n: st.lists(series_of(n), min_size=1, max_size=6))

#: How far trend_fit's fitted line may lie from the pivoted-QR oracle's, in
#: units of n * (eps * ||y|| + eta), eta the smallest subnormal: both solves
#: are backward stable. Over 6,000 examples the largest seen was 0.68, and
#: the slope t-stats differed by at most 2.3e-15 * (1 + |t|).
TREND_TOL = 4.0


@settings(max_examples=300, deadline=None)
@given(rows=STACKS, i=st.integers(0, 5))
def test_trend_equals_its_stack_row_and_the_stacked_fit_bit_for_bit(rows, i):
    Y = np.array(rows)
    i %= len(Y)
    y, n = Y[i], Y.shape[1]
    fit, stack = trend_fit(y), trend_fit(Y)
    assert (fit.intercept, fit.slope, fit.slope_t_stat) == (stack.intercept[i], stack.slope[i], stack.slope_t_stat[i])
    assert_array_equal(fit.residuals, stack.residuals[i])

    X = np.column_stack([np.ones(n), np.arange(n, dtype=float)])
    one = _fit_stack(X[None], y[None, None], ("const", "t")).responses()
    assert (fit.intercept, fit.slope) == tuple(one.beta[0])
    assert fit.slope_t_stat in (0.0, _t_stats(one.beta, one.se)[0, 1])

    ref = oracles._fit_core(X, y, ("const", "t"))
    a = np.max(np.abs(y))
    norm_y = a * np.linalg.norm(y / a) if a > 0 else 0.0  # no underflow in y * y
    info = np.finfo(float)
    assert np.max(np.abs(fit.residuals - ref.residuals)) <= TREND_TOL * n * (info.eps * norm_y + info.smallest_subnormal)
    ssr = np.sum(ref.residuals**2)
    if ssr > 1e-12 * np.sum(y * y) and ssr > 1e-280:  # t-stat well above rounding and underflow
        assert_allclose(fit.slope_t_stat, ref.t_stats[1], rtol=1e-9, atol=1e-9)


@settings(max_examples=300, deadline=None)
@given(c=st.floats(-1e3, 1e3), n=st.integers(3, 80))
def test_a_constant_path_has_trend_t_stat_zero(c, n):
    with np.errstate(all="raise", under="ignore"):
        assert trend_fit(np.full(n, c)).slope_t_stat == 0.0


# --- scale ------------------------------------------------------------------

def rescalings(draw, n):
    """(y, y * 2^d, d): a response and the same one scaled by a power of two,
    with every nonzero value of both normal. The exponents reach from the
    smallest normal to the largest float."""
    mantissas = draw(st.lists(st.floats(-1e3, 1e3) | st.just(0.0), min_size=n, max_size=n))
    m = np.array(mantissas)
    exps = np.frexp(m[m != 0])[1]
    lo, hi = (-1021 - exps.min(), 1024 - exps.max()) if exps.size else (0, 0)
    s1, s2 = draw(st.integers(lo, hi)), draw(st.integers(lo, hi))
    return np.ldexp(m, s1), np.ldexp(m, s2), s2 - s1


def full_bits(*pairs) -> np.ndarray:
    """Where each (a, b) pair is normal in both or zero in both: a subnormal
    result keeps fewer bits than the fit computed, a zero may be one that
    underflowed and an infinity one that overflowed."""
    info = np.finfo(float)

    def normal(v):
        return (info.tiny <= np.abs(v)) & (np.abs(v) <= info.max)

    return np.all([(normal(a) & normal(b)) | ((np.asarray(a) == 0) & (np.asarray(b) == 0)) for a, b in pairs],
                  axis=0)


def assert_scaled(a, b, d):
    """``b`` is ``a`` scaled by 2^d, exactly, where both keep full bits."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    full = full_bits((a, b))
    assert_array_equal(np.ldexp(a[full], d), b[full])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(5, 30), p=st.integers(0, 2))
def test_ols_scales_exactly_with_a_power_of_two(data, n, p):
    # Scaling y by 2^d scales beta and se by 2^d and leaves t, R-square and
    # Durbin-Watson as they are, bit for bit, however small or large y is.
    X = add_intercept(np.array(data.draw(st.lists(st.lists(st.floats(-10, 10), min_size=p, max_size=p),
                                                  min_size=n, max_size=n))).reshape(n, p))
    y1, y2, d = rescalings(data.draw, n)
    try:
        a, b = ols_fit(X, y1), ols_fit(X, y2)
    except SingularDesignError:
        return
    assert_scaled(a.coefficients, b.coefficients, d)
    assert_scaled(a.standard_errors, b.standard_errors, d)
    assert_array_equal([a.r_square, a.durbin_watson], [b.r_square, b.durbin_watson])  # DW is NaN for an exact fit
    full = full_bits((a.coefficients, b.coefficients), (a.standard_errors, b.standard_errors))
    assert_array_equal(a.t_stats[full], b.t_stats[full])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(3, 30))
def test_trend_scales_exactly_with_a_power_of_two(data, n):
    y1, y2, d = rescalings(data.draw, n)
    a, b = trend_fit(y1), trend_fit(y2)
    X = add_intercept(np.arange(n, dtype=float))
    se = [_fit_stack(X[None], y[None, None], ("const", "t")).se[0, 0, 1] for y in (y1, y2)]
    assert_scaled([a.intercept, a.slope], [b.intercept, b.slope], d)
    if full_bits((a.slope, b.slope), se):
        assert a.slope_t_stat == b.slope_t_stat


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(6, 30), p=st.integers(0, 2))
def test_cochrane_orcutt_scales_exactly_with_a_power_of_two(data, n, p):
    # Scaling y by 2^d leaves rho, t, R-square and Durbin-Watson as they are
    # and scales beta and se by 2^d, bit for bit. The values are kept within
    # 2^+-910, where no residual of the rounds is subnormal and no
    # quasi-differenced value overflows.
    X = add_intercept(np.array(data.draw(st.lists(st.lists(st.floats(-10, 10), min_size=p, max_size=p),
                                                  min_size=n, max_size=n))).reshape(n, p))
    mantissa = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3) | st.just(0.0)
    y = np.array(data.draw(st.lists(mantissa, min_size=n, max_size=n)))
    s1, s2 = data.draw(st.integers(-900, 900)), data.draw(st.integers(-900, 900))
    (a, exc_a), (b, exc_b) = outcome(cochrane_orcutt, X, np.ldexp(y, s1)), outcome(cochrane_orcutt, X, np.ldexp(y, s2))
    assert (type(exc_a), str(exc_a)) == (type(exc_b), str(exc_b))
    if exc_a is not None:
        return
    d = s2 - s1
    assert (a.rho, a.n_obs) == (b.rho, b.n_obs)
    assert_scaled(a.coefficients, b.coefficients, d)
    assert_scaled(a.standard_errors, b.standard_errors, d)
    assert_scaled(a.residuals, b.residuals, d)
    assert_array_equal([a.r_square, a.durbin_watson], [b.r_square, b.durbin_watson])
    full = full_bits((a.coefficients, b.coefficients), (a.standard_errors, b.standard_errors))
    assert_array_equal(a.t_stats[full], b.t_stats[full])


@st.composite
def rescaled(draw, min_size, max_size):
    """``rescalings`` of a response of min_size to max_size values."""
    return rescalings(draw, draw(st.integers(min_size, max_size)))


def rescaled_example(y, d):
    y = np.array(y, dtype=float)
    return y, np.ldexp(y, d), d


@settings(max_examples=300, deadline=None)
@given(case=rescaled(10, 40))
# Both scales of each series are fitted on the same scaled copy. Their
# residuals must be formed on that copy and scaled back: an intercept and mean
# scaled back into the subnormal range lose bits, and residuals formed from
# them differ in the last.
@example(case=rescaled_example([0.0] * 5 + [364.0, -479.0] + [0.0] * 4, -1026))
@example(case=rescaled_example([0.0] * 4 + [7.583441881879172e-306] * 3 + [0.0] * 3, -6))
def test_prewhiten_scales_exactly_with_a_power_of_two(case):
    # The AR order and phi do not depend on the series' scale, and the
    # residuals scale with it exactly, however small or large the series is.
    y1, y2, d = case
    a, b = ar1_prewhiten(y1), ar1_prewhiten(y2)
    assert (a.order, a.phi, a.near_unit_root) == (b.order, b.phi, b.near_unit_root)
    assert_scaled(a.residuals, b.residuals, d)


def test_overflowing_residuals_are_infinite_without_a_warning():
    # The residual of -1000 * 2^1014 from the mean is -2^1024, past the largest float.
    fit = ols_fit(np.ones((5, 1)), np.array([0, 0, 120, 1000, -1000]) * 2.0**1014)
    assert np.isfinite(fit.coefficients).all() and np.isfinite(fit.t_stats).all()
    assert fit.residuals[-1] == -np.inf


def test_tiny_responses_get_the_t_stats_of_their_scaled_copies():
    # Their squared residuals underflow; they used to give t = +-inf.
    X = add_intercept(np.arange(5.0))
    tiny, unit = ols_fit(X, [0, 0, 0, 0, 1e-200]), ols_fit(X, [0, 0, 0, 0, 1e-200 * 2.0**600])
    assert_array_equal(tiny.t_stats, unit.t_stats)
    assert tiny.durbin_watson == unit.durbin_watson
    assert np.isfinite(trend_fit([0.0, 0.0, 1.0164774188143886e-214]).slope_t_stat)
