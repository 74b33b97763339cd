"""Lagged source-return regressions, serial-correlation policy, interactions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from housingrisk import (
    ConfigError,
    HousingRiskError,
    InsufficientHistoryError,
    NonStationaryError,
    SingularDesignError,
    boombust_residual,
    contagion_fit,
    contagion_fit_interacted,
)
from housingrisk.contagion import (
    PRIMARY_CITY_MENU,
    SERIAL_POLICIES,
    contagion_fits,
    dw_bounds,
    dw_rejects,
)

from .oracles import cochrane_orcutt, ols_fit


def ar1(rng, n, rho, sigma=1.0):
    e = np.empty(n)
    e[0] = rng.normal(scale=sigma / np.sqrt(1 - rho * rho))
    for t in range(1, n):
        e[t] = rho * e[t - 1] + rng.normal(scale=sigma)
    return e


# --- bounds table -----------------------------------------------------------

def test_dw_bounds_node_and_interp():
    # bounds are a (dL, dU) pair with dL < dU < 2
    for dl, du in (dw_bounds(15, 1), dw_bounds(20, 1), dw_bounds(25, 3)):
        assert 0 < dl < du < 2
    # midpoint n interpolates linearly between the bracketing rows
    d_30, d_40 = dw_bounds(30, 2), dw_bounds(40, 2)
    d_35 = dw_bounds(35, 2)
    assert d_35[0] == pytest.approx((d_30[0] + d_40[0]) / 2, abs=1e-9)
    assert d_35[1] == pytest.approx((d_30[1] + d_40[1]) / 2, abs=1e-9)


def test_dw_bounds_clamped_outside_table():
    assert dw_bounds(5, 1) == dw_bounds(15, 1)
    assert dw_bounds(10_000, 1) == dw_bounds(200, 1)


def test_dw_bounds_monotone_in_k():
    # more regressors widen the inconclusive region (dU grows)
    dus = [dw_bounds(50, k)[1] for k in range(1, 10)]
    assert all(a < b for a, b in zip(dus, dus[1:]))


def test_dw_bounds_k_range():
    with pytest.raises(ConfigError):
        dw_bounds(50, 10)


def test_dw_rejects_decision():
    du = dw_bounds(60, 4)[1]
    assert dw_rejects(0.8, 60, 4)              # strong positive serial corr
    assert dw_rejects(4.0 - 0.8, 60, 4)        # symmetric upper tail
    assert not dw_rejects(2.0, 60, 4)          # dead center never rejects
    assert dw_rejects(du - 0.01, 60, 4)        # inconclusive counts as reject
    assert not dw_rejects(du + 0.01, 60, 4)
    assert not dw_rejects(float("nan"), 60, 4)


# --- base fits --------------------------------------------------------------

def test_lag_alignment_recovers_planted_lag(rng):
    n = 120
    src = rng.normal(size=n)
    tgt = np.zeros(n)
    tgt[2:] = 2.0 * src[:-2]             # target_t = 2 * source_{t-2}
    tgt += 0.01 * rng.normal(size=n)
    fit = contagion_fit(tgt, src, n_lags=3, serial="never")
    lags = fit.lag_coefficients()
    assert lags[2] == pytest.approx(2.0, abs=0.01)
    assert max(abs(lags[0]), abs(lags[1]), abs(lags[3])) < 0.02
    assert fit.names == ("const", "lag0", "lag1", "lag2", "lag3")
    assert fit.n_obs == n - 3


def test_policy_never_is_plain_ols(rng):
    src = rng.normal(size=60)
    tgt = 0.5 * src + rng.normal(size=60)
    fit = contagion_fit(tgt, src, serial="never")
    assert fit.method == "ols"
    assert fit.rho is None


def test_policy_always_forces_co(rng):
    src = rng.normal(size=60)
    tgt = 0.5 * src + rng.normal(size=60)
    fit = contagion_fit(tgt, src, serial="always")
    assert fit.method == "cochrane_orcutt"


def test_policy_auto_triggers_on_planted_ar1():
    hits = 0
    rhos = []
    for seed in range(25):
        rng = np.random.default_rng(seed)
        src = rng.normal(size=160)
        tgt = 0.6 * src + ar1(rng, 160, 0.6, 0.5)
        fit = contagion_fit(tgt, src, serial="auto")
        if fit.method == "cochrane_orcutt":
            hits += 1
            rhos.append(fit.rho)
    assert hits >= 20      # DW rejects nearly always under rho = 0.6
    assert np.mean(rhos) == pytest.approx(0.6, abs=0.15)


def test_auto_on_clean_errors_often_keeps_ols(rng):
    kept = 0
    for seed in range(25):
        g = np.random.default_rng(1000 + seed)
        src = g.normal(size=160)
        tgt = 0.6 * src + g.normal(size=160)
        if contagion_fit(tgt, src, serial="auto").method == "ols":
            kept += 1
    # inconclusive-as-rejection is deliberately trigger-happy, but the
    # clean-error case should still keep plain OLS most of the time
    assert kept >= 15


def test_overlap_guard(rng):
    with pytest.raises(InsufficientHistoryError):
        contagion_fit(rng.normal(size=10), rng.normal(size=10), n_lags=3)


def test_bad_policy_rejected(rng):
    with pytest.raises(ConfigError):
        contagion_fit(rng.normal(size=60), rng.normal(size=60), serial="sometimes")


def test_fit_accessors(rng):
    src = rng.normal(size=80)
    tgt = 0.3 * src + rng.normal(size=80)
    fit = contagion_fit(tgt, src, serial="never")
    assert fit.coefficient("lag0") == fit.lag_coefficients()[0]
    assert not fit.interacted


# --- boom/bust residual -----------------------------------------------------

def test_boombust_pure_trend_residual_zero():
    t = np.arange(40.0)
    index = 100.0 * np.exp(0.01 * t)     # exact exponential trend
    resid = boombust_residual(index)
    assert_allclose(resid, 0.0, atol=1e-10)


def test_boombust_recovers_cycle():
    t = np.arange(80.0)
    cycle = 0.05 * np.sin(2 * np.pi * t / 40)
    index = 100.0 * np.exp(0.008 * t + cycle)
    resid = boombust_residual(index)
    # residual tracks the planted cycle up to the trend fit of the cycle itself
    assert np.corrcoef(resid, cycle)[0, 1] > 0.9
    assert abs(resid.mean()) < 1e-10


def test_boombust_guards():
    with pytest.raises(InsufficientHistoryError):
        boombust_residual(np.full(11, 100.0))
    with pytest.raises(Exception):
        boombust_residual(np.array([100.0] * 12 + [-1.0] + [100.0] * 5))


# --- interacted fits --------------------------------------------------------

def test_interacted_zero_residual_equals_base_bitwise(rng):
    src = rng.normal(size=100)
    tgt = 0.5 * src + rng.normal(size=100)
    base = contagion_fit(tgt, src, serial="never")
    inter = contagion_fit_interacted(tgt, src, np.zeros(100), serial="never")
    assert inter.interacted
    # all-zero interaction columns are dropped pre-fit, so the base part of
    # the solve sees the identical design matrix
    assert_array_equal(inter.lag_coefficients(), base.lag_coefficients())
    assert_array_equal(inter.coefficient("const"), base.coefficient("const"))
    assert set(inter.dropped_columns) == {"ix_lag0", "ix_lag1", "ix_lag2", "ix_lag3"}
    assert_array_equal([inter.coefficient(f"ix_lag{l}") for l in range(4)], np.zeros(4))


def test_interacted_recovers_state_dependence(rng):
    n = 400
    src = rng.normal(size=n)
    resid = rng.normal(size=n)           # known conditioning series
    noise = 0.1 * rng.normal(size=n)
    tgt = 0.5 * src + 0.3 * src * resid + noise
    fit = contagion_fit_interacted(tgt, src, resid, serial="never")
    assert fit.coefficient("lag0") == pytest.approx(0.5, abs=0.05)
    assert fit.coefficient("ix_lag0") == pytest.approx(0.3, abs=0.05)
    assert abs(fit.coefficient("ix_lag2")) < 0.05


def test_interacted_length_mismatch(rng):
    from housingrisk import AlignmentError

    with pytest.raises(AlignmentError):
        contagion_fit_interacted(
            rng.normal(size=50), rng.normal(size=50), np.zeros(49)
        )


# --- the built-in source/target menu ---------------------------------------

def test_primary_city_menu_shape():
    assert set(PRIMARY_CITY_MENU) == {"Los Angeles", "San Francisco", "Santa Barbara"}
    assert "Oxnard" in PRIMARY_CITY_MENU["Los Angeles"]
    assert "Sacramento" in PRIMARY_CITY_MENU["San Francisco"]
    assert PRIMARY_CITY_MENU["Santa Barbara"] == ("Oxnard", "San Luis Obispo")


# --- the stacked batch kernel ------------------------------------------------

def scalar_fit(target, source, residual, n_lags, serial):
    """The per-target fit the batch kernel stands for, built from the scalar
    regress functions: (RegressionFit, None) or (None, exception)."""
    T = source.size
    y = target[n_lags:]
    X = np.column_stack([np.ones(T - n_lags)] + [source[n_lags - l : T - l] for l in range(n_lags + 1)])
    names = ("const",) + tuple(f"lag{l}" for l in range(n_lags + 1))
    if residual is not None:
        ix = X[:, 1:] * residual[n_lags:, None]
        for l in range(n_lags + 1):
            if np.any(ix[:, l] != 0.0):
                X = np.column_stack([X, ix[:, l]])
                names += (f"ix_lag{l}",)
    try:
        if serial == "always":
            return cochrane_orcutt(X, y, names=names), None
        fit = ols_fit(X, y, names=names)
        if serial == "auto" and dw_rejects(fit.durbin_watson, fit.n_obs, len(names) - 1):
            return cochrane_orcutt(X, y, names=names), None
        return fit, None
    except HousingRiskError as exc:
        return None, exc


def assert_batch_matches_scalar(targets, source, residual, serial, n_lags=3):
    [batch] = contagion_fits([(targets, source, residual)], n_lags, serial)
    fitted = 0
    for i, target in enumerate(targets):
        ref, exc = scalar_fit(target, source, residual, n_lags, serial)
        if exc is not None:
            assert type(batch.errors[i]) is type(exc)
            assert str(batch.errors[i]) == str(exc)
            assert batch.methods[i] == ""
            assert np.isnan(batch.coefficients[i]).all()
            continue
        fitted += 1
        assert batch.errors[i] is None
        assert batch.methods[i] == ref.method
        assert batch.n_obs[i] == ref.n_obs
        at = [batch.names.index(name) for name in ref.names]
        assert_allclose(batch.coefficients[i, at], ref.coefficients, rtol=1e-9)
        assert_allclose(batch.standard_errors[i, at], ref.standard_errors, rtol=1e-9)
        assert_allclose(batch.t_stats[i, at], ref.t_stats, rtol=1e-9)
        assert_allclose(batch.r_square[i], ref.r_square, rtol=1e-9)
        assert_allclose(batch.durbin_watson[i], ref.durbin_watson, rtol=1e-9)
        if ref.rho is None:
            assert np.isnan(batch.rho[i])
        else:
            assert_allclose(batch.rho[i], ref.rho, rtol=1e-9)
        dropped = [c for c in range(len(batch.names)) if c not in at]
        assert (batch.coefficients[i, dropped] == 0.0).all()
        assert np.isnan(batch.standard_errors[i, dropped]).all()
    return batch, fitted


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 6),
    T=st.integers(15, 60),
    serial=st.sampled_from(SERIAL_POLICIES),
    variant=st.sampled_from(["base", "interacted", "zero-residual"]),
    flat_source=st.sampled_from([False] * 9 + [True]),
)
def test_batch_equals_scalar_fits(seed, m, T, serial, variant, flat_source):
    rng = np.random.default_rng(seed)
    source = np.zeros(T) if flat_source else rng.normal(size=T)
    phis = rng.choice([0.0, 0.3, 0.6, 0.9, 0.99, -0.6], size=m)
    targets = np.array([0.5 * source + 0.3 * np.roll(source, 1) + ar1(rng, T, phi) for phi in phis])
    residual = {"base": None, "interacted": rng.normal(size=T), "zero-residual": np.zeros(T)}[variant]
    assert_batch_matches_scalar(targets, source, residual, serial)


def assert_same_fits(a, b, rows=slice(None)):
    """``a``'s rows ``rows`` hold ``b``'s fits to the bit, and the same errors."""
    for field in ("coefficients", "standard_errors", "t_stats", "r_square", "durbin_watson", "n_obs", "rho"):
        assert_array_equal(getattr(a, field)[rows], getattr(b, field))
    assert a.methods[rows] == b.methods
    assert [(type(e), str(e)) for e in a.errors[rows]] == [(type(e), str(e)) for e in b.errors]
    assert (a.names, a.dropped_columns, a.interacted) == (b.names, b.dropped_columns, b.interacted)


def menu_group(rng, variant):
    """(targets, source, residual) of one group: 1 to 4 targets of AR(1)
    noise on a source of 11 to 60 quarters, some of them failing."""
    T = int(rng.integers(11, 61))
    source = np.zeros(T) if rng.random() < 0.1 else rng.normal(size=T)  # a flat source fails every target
    phis = rng.choice([0.0, 0.6, 0.9, 0.99, -0.6], size=rng.integers(1, 5))
    targets = np.array([0.5 * source + 0.3 * np.roll(source, 1) + ar1(rng, T, phi) for phi in phis])
    if rng.random() < 0.2:
        targets[-1] = 1.3 ** np.arange(T)  # rho leaves the unit interval
    residual = {"base": None, "interacted": rng.normal(size=T), "zero-residual": np.zeros(T)}.get(variant)
    if variant == "one-dropped":
        # Nonzero only where the source is zero: ix_lag0 is dropped, ix_lag1..3 kept.
        residual = np.zeros(T)
        at = rng.choice(np.arange(4, T), 3, replace=False)
        residual[at], source[at] = rng.normal(size=3), 0.0
    return targets, source, residual


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    variants=st.lists(st.sampled_from(["base", "interacted", "zero-residual", "one-dropped"]), min_size=2, max_size=6),
    serial=st.sampled_from(SERIAL_POLICIES),
)
def test_a_group_has_the_same_bits_alone_and_in_a_menu(seed, variants, serial):
    # One call fits every group of a menu, with the Cochrane-Orcutt rounds of
    # all of them in lockstep; each group, and each target, gets the bits and
    # the errors of its own call.
    rng = np.random.default_rng(seed)
    groups = [menu_group(rng, variant) for variant in variants]
    for (targets, source, residual), together in zip(groups, contagion_fits(groups, 3, serial)):
        [alone] = contagion_fits([(targets, source, residual)], 3, serial)
        assert_same_fits(together, alone)
        for i, target in enumerate(targets):
            [one] = contagion_fits([(target[None], source, residual)], 3, serial)
            assert_same_fits(together, one, slice(i, i + 1))


def test_batch_failing_target_leaves_its_group_mates_fitted(rng):
    T = 30
    source = rng.normal(size=T)
    explosive = 1.3 ** np.arange(T)           # OLS residuals grow: rho-hat > 1
    targets = np.array([0.5 * source + rng.normal(size=T), explosive, 0.4 * source + ar1(rng, T, 0.6)])
    batch, fitted = assert_batch_matches_scalar(targets, source, None, "always")
    assert fitted == 2
    assert isinstance(batch.errors[1], NonStationaryError)
    with pytest.raises(NonStationaryError, match="left the unit interval"):
        batch.fit(1)


def test_batch_flat_source_skips_every_target(rng):
    source = np.zeros(40)
    targets = rng.normal(size=(3, 40))
    batch, fitted = assert_batch_matches_scalar(targets, source, rng.normal(size=40), "auto")
    assert fitted == 0
    assert all(isinstance(e, SingularDesignError) for e in batch.errors)
    assert str(batch.errors[0]).startswith("design matrix is rank deficient (rank 1 of 5)")


def test_batch_too_short_a_design_skips_with_the_scalar_message(rng):
    # The interacted design has k = 9 columns: 11 quarters leave 8 rows, too
    # few for OLS (k + 2); 14 leave 11, enough for OLS but not for
    # Cochrane-Orcutt (k + 3).
    source = rng.normal(size=14)
    targets = rng.normal(size=(2, 14))
    residual = rng.normal(size=14)
    batch, fitted = assert_batch_matches_scalar(targets[:, 3:], source[3:], residual[3:], "never")
    assert fitted == 0 and str(batch.errors[0]) == "need at least 11 observations for 9 regressors, got 8"
    batch, fitted = assert_batch_matches_scalar(targets, source, residual, "always")
    assert fitted == 0 and "Cochrane-Orcutt with 9 regressors, got 11" in str(batch.errors[1])
    batch, fitted = assert_batch_matches_scalar(targets, source, residual, "never")
    assert fitted == 2
