"""Equal-weighted portfolios, rolling dispersion, diversification ratio."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from housingrisk import (
    InsufficientHistoryError,
    diversification_series,
    portfolio_returns,
    series_correlation,
)
from housingrisk.portfolio import rolling_sigma
from .conftest import Q0, panel_from_returns


def test_portfolio_mean_of_members(rng):
    a = rng.normal(size=30)
    b = rng.normal(size=30)
    panel = panel_from_returns({"A": a, "B": b})
    codes, rets, dropped = portfolio_returns(panel, ["A", "B"])
    assert_allclose(rets, (a + b) / 2.0)
    assert len(codes) == 30
    assert not dropped


def test_portfolio_drops_incomplete_quarters(rng):
    panel = panel_from_returns({"A": rng.normal(size=30), "B": rng.normal(size=20)})
    codes, rets, dropped = portfolio_returns(panel, ["A", "B"])
    # B starts 10 quarters late; those quarters can't be equal-weighted
    assert len(codes) == 20
    assert codes[0] == Q0.code + 10
    assert len(dropped) == 10


def test_portfolio_single_member_is_identity(rng):
    a = rng.normal(size=25)
    panel = panel_from_returns({"A": a, "B": rng.normal(size=25)})
    _, rets, _ = portfolio_returns(panel, ["A"])
    assert_allclose(rets, a)


def test_portfolio_unknown_member(rng):
    panel = panel_from_returns({"A": rng.normal(size=25)})
    with pytest.raises(KeyError):
        portfolio_returns(panel, ["A", "GHOST"])


def test_rolling_sigma_matches_loop(rng):
    x = rng.normal(size=40)
    w = 8
    got = rolling_sigma(x, window=w)
    want = np.array([np.std(x[i - w + 1:i + 1], ddof=1) for i in range(w - 1, 40)])
    assert_allclose(got, want, rtol=1e-12)
    assert len(got) == 40 - w + 1


def test_rolling_sigma_needs_window():
    with pytest.raises(InsufficientHistoryError):
        rolling_sigma(np.ones(5), window=8)


def test_diversification_identical_members_exact_zero(rng):
    a = rng.normal(size=60)
    panel = panel_from_returns({"A": a, "B": a.copy()})
    ps = diversification_series(panel, ["A", "B"], window=20)
    assert_array_equal(ps.diversification, np.zeros(len(ps.diversification)))
    assert_allclose(ps.portfolio_sigma, ps.avg_member_sigma, rtol=1e-12)


def test_diversification_uncorrelated_pair_long_run():
    rng = np.random.default_rng(8)
    n = 3000
    panel = panel_from_returns({"A": rng.normal(size=n), "B": rng.normal(size=n)})
    ps = diversification_series(panel, ["A", "B"], window=20)
    # sigma_port = sigma/sqrt(2) for equal uncorrelated members
    assert np.mean(ps.diversification) == pytest.approx(1 - 1 / np.sqrt(2), abs=0.02)


def test_diversification_stamps_match_sigma_windows(rng):
    panel = panel_from_returns({"A": rng.normal(size=30), "B": rng.normal(size=30)})
    ps = diversification_series(panel, ["A", "B"], window=20)
    assert ps.window == 20
    assert ps.sigma_codes[0] == Q0.code + 19
    assert len(ps.sigma_codes) == 11
    assert ps.members == ("A", "B")
    assert len(ps.return_codes) == 30


def test_diversification_positive_for_imperfect_correlation(rng):
    base = rng.normal(size=200)
    panel = panel_from_returns({
        "A": base + 0.5 * rng.normal(size=200),
        "B": base + 0.5 * rng.normal(size=200),
    })
    ps = diversification_series(panel, ["A", "B"], window=20)
    assert ps.diversification.min() >= 0.0
    assert 0.0 < np.mean(ps.diversification) < 1 - 1 / np.sqrt(2)


# --- cross-series correlation ----------------------------------------------

def test_series_correlation_aligns_codes(rng):
    x = rng.normal(size=30)
    codes_a = np.arange(100, 130)
    codes_b = np.arange(110, 140)      # 20-quarter overlap
    y = np.empty(30)
    y[:20] = x[10:]                    # matches on the overlap
    y[20:] = rng.normal(size=10)
    r, n = series_correlation(codes_a, x, codes_b, y)
    assert n == 20
    assert r == pytest.approx(1.0)


def test_series_correlation_range_filter(rng):
    codes = np.arange(50)
    x = rng.normal(size=50)
    y = x + 0.1 * rng.normal(size=50)
    from housingrisk import QuarterIndex

    lo, hi = QuarterIndex.from_code(10), QuarterIndex.from_code(29)
    r_full, n_full = series_correlation(codes, x, codes, y)
    r_sub, n_sub = series_correlation(codes, x, codes, y, start=lo, end=hi)
    assert n_full == 50 and n_sub == 20
    assert r_sub == pytest.approx(np.corrcoef(x[10:30], y[10:30])[0, 1], rel=1e-10)


def test_series_correlation_too_short(rng):
    with pytest.raises(InsufficientHistoryError):
        series_correlation(np.arange(5), rng.normal(size=5),
                           np.arange(5), rng.normal(size=5))


def test_series_correlation_constant_is_nan(rng):
    codes = np.arange(20)
    r, n = series_correlation(codes, np.ones(20), codes, rng.normal(size=20))
    assert np.isnan(r) and n == 20


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 5), n=st.integers(8, 40), identical=st.booleans())
def test_diversification_lies_in_unit_interval(data, k, n, identical):
    window = data.draw(st.integers(2, n))
    columns = data.draw(st.lists(arrays(float, n, elements=st.floats(-50, 50)), min_size=k, max_size=k))
    if identical:
        columns = [columns[0]] * k
    ids = [f"M{i}" for i in range(k)]
    ps = diversification_series(panel_from_returns(dict(zip(ids, columns))), ids, window)
    d = ps.diversification[~np.isnan(ps.diversification)]
    assert np.all(d >= -1e-12) and np.all(d <= 1.0 + 1e-12), d
    if identical:
        assert np.all(d == 0.0), d


@pytest.mark.parametrize("n, window, at", [(7, 7, 0), (8, 5, 3)])
def test_diversification_is_nan_at_rounding_level_sigmas(n, window, at):
    # Two constant members and one with a single tiny entry: every sigma is
    # rounding noise, and the ratio of two of them can be anything (-3.8e32
    # at (7, 7, 0), 1 at (8, 5, 3)).
    tiny = np.zeros(n)
    tiny[at] = 2e-47
    columns = {"A": np.zeros(n), "B": np.full(n, 19.70417623), "C": tiny}
    ps = diversification_series(panel_from_returns(columns), list(columns), window)
    assert np.isnan(ps.diversification).all(), ps.diversification
