"""Rolling factor-model R-square series and cross-MSA summaries."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from housingrisk import (
    AlignmentError,
    ConfigError,
    InsufficientHistoryError,
    PanelIntegration,
    SingularDesignError,
    align,
    beta_average,
    cohort_average,
    integrate_panel,
    integration_summary,
    rolling_factor_model,
)
from housingrisk.integration import CHARACTERISTICS, CROSS_STATS, MIN_SUMMARY_WINDOWS
from housingrisk.regress import _solve_ls, add_intercept, ar1_prewhiten, ols_fit
from .conftest import Q0, factor_table, panel_from_returns


def aligned(y, F, msa_id="A"):
    table = factor_table(np.asarray(F, dtype=float))
    quarters = [Q0 + k for k in range(len(y))]
    return align(msa_id, quarters, y, table)


def window_r2_oracle(y, F, window):
    """Plain lstsq R-square per window, written independently."""
    out = []
    for end in range(window, len(y) + 1):
        yy = y[end - window:end]
        X = np.column_stack([np.ones(window), F[end - window:end]])
        beta, *_ = np.linalg.lstsq(X, yy, rcond=None)
        resid = yy - X @ beta
        sst = np.sum((yy - yy.mean()) ** 2)
        out.append(1.0 - resid @ resid / sst)
    return np.array(out)


def test_windows_stamped_at_their_end(rng):
    n, w = 30, 20
    y = rng.normal(size=n)
    F = rng.normal(size=(n, 2))
    result = rolling_factor_model(aligned(y, F), window=w)
    assert result.ids == ("A",) and result.first.tolist() == [0]
    assert result.r_square.shape == (1, n - w + 1)
    assert result.ends[0] == (Q0 + w - 1).code
    assert result.ends[-1] == (Q0 + n - 1).code


def test_r_square_matches_lstsq_oracle(rng):
    n, w = 45, 20
    F = rng.normal(size=(n, 3))
    y = F @ np.array([0.5, -0.2, 0.1]) + rng.normal(size=n)
    result = rolling_factor_model(aligned(y, F), window=w)
    assert_allclose(result.r_square[0], window_r2_oracle(y, F, w), atol=1e-10)


def test_perfect_fit_r_square_one(rng):
    F = rng.normal(size=(25, 1))
    y = 2.0 + 3.0 * F[:, 0]
    result = rolling_factor_model(aligned(y, F), window=20)
    assert_allclose(result.r_square, 1.0, atol=1e-10)
    assert_allclose(result.beta[0, :, result.names.index("F0")], 3.0, atol=1e-8)


def test_betas_recorded_per_window(rng):
    n = 40
    F = rng.normal(size=(n, 2))
    y = F @ np.array([1.0, -1.0]) + 0.01 * rng.normal(size=n)
    result = rolling_factor_model(aligned(y, F), window=20)
    assert result.names == ("const", "F0", "F1")
    assert_allclose(result.beta[0, :, 2], -1.0, atol=0.02)
    assert result.beta.shape == (1, n - 20 + 1, 3)


@settings(max_examples=60, deadline=None)
@given(
    n_factors=st.integers(1, 6),
    extra_rows=st.integers(0, 6),
    extra_windows=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_window_equals_a_single_ols_fit(n_factors, extra_rows, extra_windows, seed):
    w = n_factors + 3 + extra_rows  # window >= k + 2 with the intercept
    n = w + extra_windows
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(n, n_factors))
    y = F @ rng.normal(size=n_factors) + rng.normal(size=n)
    result = rolling_factor_model(aligned(y, F), window=w)
    assert result.r_square.shape == (1, n - w + 1)
    for s in range(n - w + 1):
        fit = ols_fit(add_intercept(F[s : s + w]), y[s : s + w])
        assert_allclose(result.beta[0, s], fit.coefficients, rtol=1e-10)
        assert_allclose(result.r_square[0, s], fit.r_square, rtol=1e-10, atol=1e-12)


def first_solve_ls_error(ds, window):
    names = ("const",) + ds.factor_ids
    X = add_intercept(ds.X)
    for s in range(ds.n_rows - window + 1):
        try:
            _solve_ls(X[s : s + window], ds.y[s : s + window], names)
        except SingularDesignError as exc:
            return exc
    raise AssertionError("no window is rank deficient")


def test_rank_deficient_window_raises_as_pivoted_qr(rng):
    n, w = 80, 20
    F = rng.normal(size=(n, 3))
    # Constant over 25 quarters: windows 17..22 are singular. A later stretch
    # names another column, so raising on a later window would show.
    F[17:42, 1] = 0.75
    F[50:75, 2] = 3.0
    ds = aligned(rng.normal(size=n), F)
    expected = first_solve_ls_error(ds, w)
    assert expected.columns == ("F1",)
    with pytest.raises(SingularDesignError) as caught:
        rolling_factor_model(ds, window=w)
    assert str(caught.value) == str(expected)
    assert caught.value.columns == expected.columns


def test_near_collinear_window_keeps_pivoted_qr_beta(rng):
    n, w = 30, 20
    F = rng.normal(size=(n, 2))
    F[:, 1] = F[:, 0] + 1e-9 * rng.normal(size=n)  # full rank, badly conditioned
    y = F[:, 0] + rng.normal(size=n)
    ds = aligned(y, F)
    result = rolling_factor_model(ds, window=w)
    X = add_intercept(F)
    for s in range(n - w + 1):
        beta, _, _ = _solve_ls(X[s : s + w], y[s : s + w], result.names)
        assert_array_equal(result.beta[0, s], beta)


def test_window_shorter_than_params_rejected(rng):
    ds = aligned(rng.normal(size=30), rng.normal(size=(30, 12)))
    with pytest.raises(ConfigError):
        rolling_factor_model(ds, window=13)  # needs k + 2 = 15


def test_too_few_rows_rejected(rng):
    ds = aligned(rng.normal(size=10), rng.normal(size=(10, 1)))
    with pytest.raises(AlignmentError):
        rolling_factor_model(ds, window=20)


def test_change_r_square_is_last_minus_first(rng):
    n = 50
    y = rng.normal(size=n)
    result = rolling_factor_model(aligned(y, rng.normal(size=(n, 1))), window=20)
    summary = integration_summary(result, panel_from_returns({"A": y}))
    assert summary.values[0, column("change_r_square")] == pytest.approx(
        result.r_square[0, -1] - result.r_square[0, 0]
    )


def test_mechanical_r_square_baseline():
    """Pure-noise R-square concentrates at k/(window-1) regressor slopes."""
    rng = np.random.default_rng(99)
    k, w = 3, 20
    vals = []
    for _ in range(300):
        y = rng.normal(size=w)
        X = np.column_stack([np.ones(w), rng.normal(size=(w, k))])
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta
        vals.append(1.0 - resid @ resid / np.sum((y - y.mean()) ** 2))
    assert np.mean(vals) == pytest.approx(k / (w - 1), abs=0.02)


# --- panel-level driver -----------------------------------------------------

def test_integrate_panel_skips_short_series(rng):
    panel = panel_from_returns({
        "LONG": rng.normal(size=30),
        "TINY": rng.normal(size=8),
    })
    table = factor_table(rng.normal(size=(30, 1)), start=Q0)
    result = integrate_panel(panel, table, window=20, prewhiten=True)
    assert result.ids == ("LONG",)
    assert [m for m, _ in result.skipped] == ["TINY"]


def test_integrate_panel_skips_a_rank_deficient_msa(rng):
    n = 80
    F = rng.normal(size=(n, 2))
    F[:25, 1] = 0.75  # constant over the first 25 quarters
    panel = panel_from_returns({
        "EARLY": rng.normal(size=n),
        "LATE": rng.normal(size=n - 30),  # starts after the constant stretch
    })
    table = factor_table(F, start=Q0)
    result = integrate_panel(panel, table, window=20, prewhiten=False)
    assert result.ids == ("LATE",)
    with pytest.raises(SingularDesignError) as caught:
        rolling_factor_model(aligned(panel.series("EARLY")[1], F), window=20)
    assert result.skipped == (("EARLY", str(caught.value)),)


def test_integrate_panel_prewhiten_toggle(rng):
    e = rng.normal(size=(60, 2))
    ar = np.zeros(60)
    for t in range(1, 60):
        ar[t] = 0.8 * ar[t - 1] + e[t, 0]
    panel = panel_from_returns({"AR": ar, "FLAT": np.zeros(60), "NOISE": e[:, 1]})
    table = factor_table(rng.normal(size=(60, 2)), start=Q0)
    raw = integrate_panel(panel, table, window=20, prewhiten=False)
    assert raw.ids == ("AR", "FLAT", "NOISE")
    assert raw.order.tolist() == [0, 0, 0] and raw.phi.tolist() == [0.0, 0.0, 0.0]
    assert raw.near_unit_root.tolist() == [False, False, False]
    white = integrate_panel(panel, table, window=20, prewhiten=True)
    assert white.ids == raw.ids
    fits = [ar1_prewhiten(panel.series(msa_id)[1]) for msa_id in white.ids]
    assert white.order.tolist() == [1, 0, 0] == [pw.order for pw in fits]
    assert_array_equal(white.phi, [pw.phi for pw in fits])
    assert 0.6 < white.phi[0] < 1.0 and white.phi[1] == white.phi[2] == 0.0
    assert white.near_unit_root.tolist() == [False, False, False]
    # AR's first window starts a quarter later, on its first residual.
    assert white.first.tolist() == [1, 0, 0] and raw.first.tolist() == [0, 0, 0]


def test_integrate_panel_offsets_late_starter(rng):
    """A late-starting MSA's windows begin where its data does."""
    panel = panel_from_returns({
        "EARLY": rng.normal(size=40),
        "LATE": rng.normal(size=25),
    })
    table = factor_table(rng.normal(size=(40, 1)), start=Q0)
    result = integrate_panel(panel, table, window=20, prewhiten=False)
    assert result.ids == ("EARLY", "LATE")
    assert result.r_square.shape == (2, 21)
    assert result.first.tolist() == [0, 15]  # LATE holds the last 6 windows
    # LATE's first window ends 19 quarters after its own first return
    assert result.ends[result.first[1]] == (Q0 + 15 + 19).code


def per_msa_integration(panel, table, window, prewhiten):
    """``integrate_panel`` one MSA at a time: pre-whiten, align, and one
    ``rolling_factor_model`` call per MSA. Returns (one-row results, with
    the MSA's ``ar1_prewhiten`` choice in their pre-whitening columns, and
    skipped)."""
    series, skipped = [], []
    for msa_id in panel.msa_ids():
        start, values = panel.series(msa_id)
        pw = None
        if prewhiten:
            if values.size < 10:
                skipped.append((msa_id, f"too short to pre-whiten ({values.size} < 10 obs)"))
                continue
            pw = ar1_prewhiten(values)
            values, start = pw.residuals, start + pw.offset
        try:
            ds = align(msa_id, np.arange(start.code, start.code + values.size), values, table)
            if ds.n_rows < window:
                skipped.append((msa_id, f"{ds.n_rows} aligned rows < window of {window}"))
                continue
            one = rolling_factor_model(ds, window)
        except (AlignmentError, SingularDesignError) as exc:
            skipped.append((msa_id, str(exc)))
            continue
        if pw is not None:
            one = replace(one, order=np.array([pw.order]), phi=np.array([pw.phi]),
                          near_unit_root=np.array([pw.near_unit_root]))
        series.append(one)
    return series, skipped


def assert_same_integration(result, series, skipped):
    assert result.skipped == tuple(skipped)
    assert result.ids == tuple(want.ids[0] for want in series)
    for c, want in enumerate(series):
        lo = result.first[c]
        assert result.names == want.names
        assert_array_equal(result.ends[lo:], want.ends)
        assert_allclose(result.beta[c, lo:], want.beta[0], rtol=1e-10)
        assert_allclose(result.r_square[c, lo:], want.r_square[0], rtol=1e-10, atol=1e-12)
    for name in ("order", "phi", "near_unit_root"):
        assert_array_equal(getattr(result, name), [getattr(want, name)[0] for want in series])


def no_msa_integrated(skipped):
    msa_id, reason = skipped[0]
    return f"no MSA could be integrated; first skip: {msa_id}: {reason}"


@settings(max_examples=60, deadline=None)
@given(
    n_factors=st.integers(1, 4),
    extra_rows=st.integers(0, 4),
    n_quarters=st.integers(0, 30),
    entries=st.lists(st.integers(0, 60), min_size=1, max_size=6),
    factor_shift=st.integers(-3, 3),
    nan_rows=st.lists(st.integers(0, 60), max_size=3),
    short=st.lists(st.sampled_from(("9 returns", "10 returns", "1 window", "2 windows")), max_size=3),
    flat=st.lists(st.sampled_from(("zeros", "zero lag")), max_size=2),
    prewhiten=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_panel_equals_one_rolling_fit_per_msa(n_factors, extra_rows, n_quarters, entries,
                                              factor_shift, nan_rows, short, flat, prewhiten, seed):
    """Staggered entries, MSAs just long enough or too short to pre-whiten,
    to fill a window or to be summarised, flat returns, factor rows missing
    mid-sample and a factor table offset from the panel: the span fits give
    each MSA the series, pre-whitening choice and skip reason of its own
    rolling fit, and the summary leaves out the same MSAs."""
    window = n_factors + 3 + extra_rows
    n_q = window + n_quarters
    rng = np.random.default_rng(seed)
    returns = {f"M{k}": rng.normal(size=max(n_q - e, 1)) for k, e in enumerate(entries)}
    lengths = {"9 returns": 9, "10 returns": 10, "1 window": window, "2 windows": window + 1}
    returns.update((f"S{k}", rng.normal(size=lengths[kind])) for k, kind in enumerate(short))
    for k, kind in enumerate(flat):  # a flat lag takes the AR(0) path of a zero lag variance
        returns[f"Z{k}"] = np.zeros(n_q)
        if kind == "zero lag":
            returns[f"Z{k}"][-1] = rng.normal()
    F = rng.normal(size=(n_q + 3, n_factors))
    F[[r % len(F) for r in nan_rows], rng.integers(0, n_factors)] = np.nan
    panel = panel_from_returns(returns)
    table = factor_table(F, start=Q0 + factor_shift)
    series, skipped = per_msa_integration(panel, table, window, prewhiten)
    if not series:
        with pytest.raises(InsufficientHistoryError) as caught:
            integrate_panel(panel, table, window=window, prewhiten=prewhiten)
        assert str(caught.value) == no_msa_integrated(skipped)
        return
    result = integrate_panel(panel, table, window=window, prewhiten=prewhiten)
    assert_same_integration(result, series, skipped)
    few = sorted((want.ids[0], want.ends.size) for want in series if want.ends.size < MIN_SUMMARY_WINDOWS)
    if len(few) < len(series):
        summary = integration_summary(result, panel)
        assert summary.excluded == tuple((m, f"only {n} windows (< 3)") for m, n in few)


@pytest.mark.parametrize("prewhiten", [True, False])
def test_window_too_small_for_the_factors_fails_before_any_msa(rng, prewhiten):
    # Both MSAs are too short to pre-whiten, but the window is wrong for every MSA.
    panel = panel_from_returns({"A": rng.normal(size=8), "B": rng.normal(size=8)})
    table = factor_table(rng.normal(size=(8, 3)), start=Q0)
    with pytest.raises(ConfigError) as caught:
        integrate_panel(panel, table, window=3, prewhiten=prewhiten)
    assert str(caught.value) == (
        "window of 3 leaves too few degrees of freedom for 4 regressors; minimum window is 6"
    )


def test_rank_deficient_spans_skip_the_msas_that_hold_them(rng):
    n = 100
    F = rng.normal(size=(n, 3))
    # Two constant stretches naming different columns: an MSA that enters
    # between them fails on the second, with its own message.
    F[17:42, 1] = 0.75
    F[50:75, 2] = 3.0
    panel = panel_from_returns({
        "EARLY": rng.normal(size=n),
        "MID": rng.normal(size=n - 45),
        "LATE": rng.normal(size=n - 76),
    })
    table = factor_table(F, start=Q0)
    result = integrate_panel(panel, table, window=20, prewhiten=False)
    series, skipped = per_msa_integration(panel, table, 20, False)
    assert [m for m, _ in skipped] == ["EARLY", "MID"]
    assert "dependent columns: F1" in skipped[0][1]
    assert skipped[1][1] != skipped[0][1]
    assert_same_integration(result, series, skipped)


def test_badly_conditioned_spans_take_the_pivoted_fallback(rng):
    n, w = 40, 20
    F = rng.normal(size=(n, 2))
    F[:, 1] = F[:, 0] + 1e-9 * rng.normal(size=n)  # full rank, badly conditioned
    returns = {"A": F[:, 0] + rng.normal(size=n), "B": rng.normal(size=n - 12)}
    panel = panel_from_returns(returns)
    result = integrate_panel(panel, factor_table(F, start=Q0), window=w, prewhiten=False)
    X = add_intercept(F)
    for c, (msa_id, y) in enumerate(returns.items()):
        off = n - y.size
        assert result.ids[c] == msa_id and result.first[c] == off
        for s in range(y.size - w + 1):
            beta, _, _ = _solve_ls(X[off + s : off + s + w], y[s : s + w], result.names)
            assert_array_equal(result.beta[c, off + s], beta)


def staggered_integration(rng, entries=(0, 7, 3, 12), n=40, w=12, k=2):
    """``integrate_panel`` of MSAs M0.. entering ``entries`` quarters late."""
    panel = panel_from_returns({f"M{c}": rng.normal(size=n - e) for c, e in enumerate(entries)})
    table = factor_table(rng.normal(size=(n, k)), start=Q0)
    return integrate_panel(panel, table, window=w, prewhiten=False)


def test_cells_before_an_msas_first_window_are_nan(rng):
    result = staggered_integration(rng)
    assert result.first.tolist() == [0, 7, 3, 12]
    before = np.arange(result.ends.size) < result.first[:, None]
    assert np.isnan(result.r_square[before]).all() and np.isnan(result.beta[before]).all()
    assert np.isfinite(result.r_square[~before]).all() and np.isfinite(result.beta[~before]).all()


def test_series_counts_the_fitted_msas(rng):
    # perfbench/tracing.py counts the fitted MSAs as len(result.series).
    result = staggered_integration(rng)
    assert len(result.series) == len(result.ids) == 4


def test_every_msa_too_short_raises_one_line(rng):
    panel = panel_from_returns({"A": rng.normal(size=12), "B": rng.normal(size=15)})
    table = factor_table(rng.normal(size=(15, 1)), start=Q0)
    with pytest.raises(InsufficientHistoryError) as caught:
        integrate_panel(panel, table, window=20, prewhiten=False)
    assert str(caught.value) == "no MSA could be integrated; first skip: A: 12 aligned rows < window of 20"


def test_every_msa_holding_a_rank_deficient_span_raises_one_line(rng):
    n = 60
    F = rng.normal(size=(n, 2))
    F[30:55, 1] = 0.75  # every MSA's windows run over the constant stretch
    panel = panel_from_returns({"A": rng.normal(size=n), "B": rng.normal(size=n - 10)})
    table = factor_table(F, start=Q0)
    _, skipped = per_msa_integration(panel, table, 20, False)
    assert [m for m, _ in skipped] == ["A", "B"]
    with pytest.raises(InsufficientHistoryError) as caught:
        integrate_panel(panel, table, window=20, prewhiten=False)
    assert str(caught.value) == no_msa_integrated(skipped)
    assert "\n" not in str(caught.value) and "dependent columns: F1" in str(caught.value)


# --- summaries --------------------------------------------------------------

def grid_of(paths, names=("const",), beta=None):
    """A ``PanelIntegration`` holding each R-square path of ``paths`` (id ->
    values) as the tail of one grid of window ends from Q0; ``beta`` (N, S,
    k) or zeros, NaN before each MSA's first window."""
    ids = tuple(paths)
    S = max(len(v) for v in paths.values())
    first = np.array([S - len(v) for v in paths.values()])
    before = np.arange(S) < first[:, None]
    r_square = np.full((len(ids), S), np.nan)
    r_square[~before] = np.concatenate([np.asarray(v, dtype=float) for v in paths.values()])
    beta = np.zeros((len(ids), S, len(names))) if beta is None else np.array(beta, dtype=float)
    beta[before] = np.nan
    n = len(ids)
    return PanelIntegration(ids, names, Q0.code + np.arange(S), first, r_square, beta, (),
                            np.zeros(n, dtype=int), np.zeros(n), np.zeros(n, dtype=bool))


def column(name):
    return CHARACTERISTICS.index(name)


def test_summary_characteristics_and_ranks(rng):
    panel = panel_from_returns({
        "A": np.array([1.0, -1.0, 1.0, -1.0]),
        "B": np.array([2.0, 2.0, 2.0, 2.0]),
    })
    summary = integration_summary(grid_of({"A": [0.1, 0.2, 0.5], "B": [0.6, 0.55, 0.7]}), panel)
    assert summary.ids == ("A", "B")
    a, b = summary.values
    # sample sd with ddof=1: sd(1,-1,1,-1) = sqrt(4/3)
    assert a[column("sigma")] == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-12)
    assert a[column("mean_return")] == pytest.approx(0.0)
    assert b[column("sigma")] == 0.0
    assert b[column("mean_return")] == 2.0
    assert a[column("final_r_square")] == 0.5
    assert a[column("change_r_square")] == pytest.approx(0.4)
    assert summary.ranks[:, column("final_r_square")].tolist() == [1, 2]
    assert summary.ranks[:, column("mean_return")].tolist() == [1, 2]
    assert summary.values.shape == summary.ranks.shape == (2, len(CHARACTERISTICS))


def test_summary_rank_ties_break_by_id():
    panel = panel_from_returns({
        "X": np.ones(4), "Y": np.ones(4),
    })
    summary = integration_summary(grid_of({"Y": [0.5, 0.5, 0.5], "X": [0.5, 0.5, 0.5]}), panel)
    assert summary.ids == ("X", "Y")
    assert summary.ranks[:, column("final_r_square")].tolist() == [1, 2]


def test_summary_excludes_under_three_windows():
    panel = panel_from_returns({"A": np.ones(4), "B": np.ones(4)})
    summary = integration_summary(grid_of({"A": [0.1, 0.2, 0.3], "B": [0.9, 0.8]}), panel)
    assert summary.ids == ("A",)
    assert summary.excluded[0][0] == "B"
    assert "2" in summary.excluded[0][1]


def test_summary_single_msa_quintiles_collapse():
    panel = panel_from_returns({"A": np.ones(4)})
    summary = integration_summary(grid_of({"A": [0.2, 0.3, 0.4]}), panel)
    assert summary.quintile_minima[:, column("final_r_square")].tolist() == [0.4] * 5


def test_summary_quintile_minima_nondecreasing(rng):
    ids = [f"M{i:02d}" for i in range(17)]
    panel = panel_from_returns({i: rng.normal(size=5) for i in ids})
    summary = integration_summary(grid_of({i: rng.uniform(0, 1, size=4) for i in ids}), panel)
    assert summary.quintile_minima.shape == (5, len(CHARACTERISTICS))
    assert (np.diff(summary.quintile_minima, axis=0) >= 0).all()


def test_summary_cross_moments(rng):
    panel = panel_from_returns({"A": np.ones(5), "B": np.ones(5), "C": np.ones(5)})
    summary = integration_summary(
        grid_of({"A": [0.1, 0.1, 0.2], "B": [0.3, 0.3, 0.4], "C": [0.5, 0.5, 0.9]}), panel
    )
    cross = dict(zip(CROSS_STATS, summary.cross[:, column("final_r_square")]))
    assert cross["mean"] == pytest.approx(np.mean([0.2, 0.4, 0.9]))
    assert cross["sd"] == pytest.approx(np.std([0.2, 0.4, 0.9], ddof=1))
    assert cross["min"] == 0.2 and cross["max"] == 0.9


# Values with ties and both zeros. An R-square path (a, a, b) gives the
# final R-square b and the change b - a, which is -0.0 for b = -0.0, a = 0.0.
SUMMARY_VALUE = st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5])


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.lists(SUMMARY_VALUE, min_size=1, max_size=3), SUMMARY_VALUE, SUMMARY_VALUE),
    min_size=1, max_size=13,
))
def test_summary_ranks_cross_and_quintiles_over_ties(msas):
    ids = [f"M{k:02d}" for k in range(len(msas))]
    panel = panel_from_returns({i: np.array(r) for i, (r, _, _) in zip(ids, msas)})
    paths = {i: [a, a, b] for i, (_, a, b) in zip(ids, msas)}
    summary = integration_summary(grid_of(dict(reversed(paths.items()))), panel)
    assert summary.ids == tuple(ids)
    for c in range(len(CHARACTERISTICS)):
        values = summary.values[:, c]
        order = sorted(range(len(ids)), key=lambda k: (values[k], ids[k]))
        assert [summary.ranks[k, c] for k in order] == list(range(1, len(ids) + 1))
        # min() and max() of the column in that order; str() tells -0.0 from 0.0.
        ranked = np.array([values[k] for k in order])
        cross = dict(zip(CROSS_STATS, summary.cross[:, c]))
        assert str(cross["min"]) == str(ranked.min()) and str(cross["max"]) == str(ranked.max())
        assert (np.diff(summary.quintile_minima[:, c]) >= 0).all()


# --- cohort and beta averages -----------------------------------------------

def test_cohort_average_constant_members():
    codes, avg = cohort_average(grid_of({"A": [0.5] * 6, "B": [0.7] * 6}), ["A", "B"])
    assert_allclose(avg, 0.6)
    assert len(codes) == 6


def test_cohort_average_single_member_identity():
    integ = grid_of({"A": [0.2, 0.4, 0.6]})
    codes, avg = cohort_average(integ, ["A"])
    assert_array_equal(codes, integ.ends)
    assert_array_equal(avg, integ.r_square[0])


def test_cohort_average_common_quarters_only():
    integ = grid_of({"A": [0.2, 0.4, 0.6, 0.8], "B": [1.0, 1.0]})  # B from Q0 + 2
    codes, avg = cohort_average(integ, ["A", "B"])
    assert_array_equal(codes, [Q0.code + 2, Q0.code + 3])
    assert_allclose(avg, [0.8, 0.9])


def test_cohort_average_start_filter():
    codes, avg = cohort_average(grid_of({"A": [0.2, 0.4, 0.6, 0.8]}), ["A"], start=Q0 + 2)
    assert codes[0] == (Q0 + 2).code
    assert_allclose(avg, [0.6, 0.8])


def test_cohort_average_empty_membership():
    with pytest.raises(ValueError):
        cohort_average(grid_of({"A": [0.5] * 3}), [])


def test_beta_average_identical_members(rng):
    b = rng.normal(size=5)
    beta = np.stack([np.column_stack([np.ones(5), b])] * 2)
    codes, avg = beta_average(grid_of({"A": np.zeros(5), "B": np.zeros(5)}, ("const", "F"), beta), "F")
    assert_allclose(avg, b)


def test_beta_average_bad_factor():
    integ = grid_of({"A": [0.5] * 3})
    with pytest.raises(ValueError):
        beta_average(integ, "")
    with pytest.raises(KeyError):
        beta_average(integ, "NOT_A_FACTOR")


def member_loop_average(integ, members, paths, start=None):
    """Each member's own (window ends, path), summed member by member in id
    order over the ends all of them report from ``start`` on."""
    own = {m: (integ.ends[integ.first[c]:], paths[c, integ.first[c]:])
           for c, m in enumerate(integ.ids)}
    common = own[members[0]][0]
    for m in members:
        common = np.intersect1d(common, own[m][0])
    if start is not None:
        common = common[common >= start.code]
    acc = np.zeros(common.size)
    for m in sorted(members):
        ends, path = own[m]
        acc += path[np.searchsorted(ends, common)]
    return common, acc / len(members)


def test_averages_equal_a_member_loop_in_id_order(rng):
    integ = staggered_integration(rng, entries=(5, 0, 9, 2, 14, 3), k=3)
    for members, start in ((["M3", "M0", "M2"], None), (["M5", "M1", "M4", "M0"], None),
                           (["M3", "M1", "M0"], Q0 + 30), (list(integ.ids), Q0 + 27)):
        want = member_loop_average(integ, members, integ.r_square, start)
        got = cohort_average(integ, members, start)
        assert_array_equal(got[0], want[0])
        assert_array_equal(got[1], want[1])
    for j, factor_id in enumerate(integ.names[1:], start=1):
        want = member_loop_average(integ, list(integ.ids), integ.beta[:, :, j])
        got = beta_average(integ, factor_id)
        assert_array_equal(got[0], want[0])
        assert_array_equal(got[1], want[1])


def test_cohort_start_before_a_members_first_window_fails(rng):
    integ = staggered_integration(rng)
    late_end = Q0.code + 12 + 11  # M3 enters 12 quarters late; window 12
    assert integ.ends[integ.first[3]] == late_end
    with pytest.raises(AlignmentError, match="M3 has no window ending by cohort start"):
        cohort_average(integ, ["M0", "M3"], start=Q0 + 22)
    codes, _ = cohort_average(integ, ["M0", "M3"], start=Q0 + 23)
    assert codes[0] == late_end
