"""Jump statistics: bipower variation, L series, incidence."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from housingrisk import (
    ConfigError,
    InsufficientHistoryError,
    UndefinedStatisticError,
    bipower_variation,
    jump_incidence,
    lm_series,
    lm_statistic,
)
from housingrisk.jumps import BIG_THRESHOLD, JUMP_THRESHOLD, SCALE, JumpSeries


def test_bipower_hand_values():
    # (|1||2| + |2||3|) / 2 = 4
    assert bipower_variation(np.array([1.0, 2.0, 3.0])) == pytest.approx(4.0)
    # sign-invariant
    assert bipower_variation(np.array([-1.0, 2.0, -3.0])) == pytest.approx(4.0)


def test_bipower_zero_interleaved():
    # a zero between the two spikes kills every adjacent product...
    assert bipower_variation(np.array([1.0, 0.0, 1.0])) == 0.0
    # ...but adjacent spikes do not
    assert bipower_variation(np.array([1.0, 1.0, 0.0])) == pytest.approx(0.5)


def test_bipower_guards():
    with pytest.raises(InsufficientHistoryError):
        bipower_variation(np.array([1.0]))
    with pytest.raises(ValueError):
        bipower_variation(np.array([1.0, np.nan, 2.0]))


def test_lm_statistic_scaling():
    trailing = np.full(20, 2.0)  # B = 4 exactly
    L, Ls = lm_statistic(6.0, trailing)
    assert L == pytest.approx(3.0)
    assert Ls == pytest.approx(3.0 * SCALE)
    with pytest.raises(UndefinedStatisticError):
        lm_statistic(1.0, np.zeros(20))


def test_series_matches_scalar_loop(rng):
    """The vectorized series must equal a naive per-quarter loop built on
    the scalar primitives."""
    r = rng.normal(scale=1.5, size=120)
    W = 20
    series = lm_series(r, bipower_window=W)
    for t in range(len(r)):
        if t < W:
            assert not series.testable[t]
            assert np.isnan(series.L[t])
            continue
        L, Ls = lm_statistic(r[t], r[t - W:t])
        assert series.L[t] == pytest.approx(L, rel=1e-12)
        assert series.L_scaled[t] == pytest.approx(Ls, rel=1e-12)
        assert series.jump_flag[t] == (abs(Ls) > JUMP_THRESHOLD)
        assert series.big_flag[t] == (abs(Ls) > BIG_THRESHOLD)


def test_series_quarter_codes_and_window(rng):
    series = lm_series(rng.normal(size=30), bipower_window=8, start_code=100, msa_id="A")
    assert series.msa_id == "A"
    assert_array_equal(series.quarter_codes, np.arange(100, 130))
    assert series.bipower_window == 8
    assert not series.testable[:8].any()
    assert series.testable[8:].all()


def test_series_zero_window_untestable():
    r = np.zeros(40)
    r[30] = 5.0
    series = lm_series(r, bipower_window=20)
    # trailing windows of zeros: B = 0, so even the spike is untestable
    assert not series.testable[30]
    assert np.isnan(series.L[30])
    assert not series.jump_flag.any()


def test_planted_spike_flagged(rng):
    r = rng.normal(scale=1.0, size=100)
    r[60] = 8.0  # ~8 sigma against a clean window
    series = lm_series(r, bipower_window=20)
    assert series.big_flag[60]
    assert series.jump_flag[60]


def test_window_floor_and_length_guards(rng):
    with pytest.raises(ConfigError):
        lm_series(rng.normal(size=50), bipower_window=7)
    with pytest.raises(InsufficientHistoryError):
        lm_series(rng.normal(size=20), bipower_window=20)


def test_null_flag_rate_near_ten_percent():
    rng = np.random.default_rng(314)
    r = rng.normal(size=50_000)
    series = lm_series(r, bipower_window=20)
    rate = series.jump_flag.sum() / series.testable.sum()
    # 1.65 two-tail nominal 10%, mildly inflated by bipower estimation noise
    assert 0.08 < rate < 0.13


# --- incidence --------------------------------------------------------------

def flags_series(msa_id, start, testable, big):
    n = len(testable)
    t = np.asarray(testable, dtype=bool)
    b = np.asarray(big, dtype=bool)
    return JumpSeries(
        msa_id=msa_id,
        quarter_codes=np.arange(start, start + n),
        L=np.where(t, 1.0, np.nan),
        L_scaled=np.where(t, 1.0, np.nan),
        jump_flag=b,
        big_flag=b,
        testable=t,
        bipower_window=8,
    )


def test_incidence_counts():
    a = flags_series("A", 0, [True, True, True], [True, False, False])
    b = flags_series("B", 0, [False, True, True], [False, True, False])
    codes, pct, flagged, testable = jump_incidence([a, b], flag="big")
    assert_array_equal(codes, [0, 1, 2])
    assert_allclose(pct, [100.0, 50.0, 0.0])
    assert_array_equal(flagged, [1, 1, 0])
    assert_array_equal(testable, [1, 2, 2])


def test_incidence_omits_untestable_quarters():
    a = flags_series("A", 5, [False, True], [False, True])
    codes, pct, _, _ = jump_incidence([a])
    assert_array_equal(codes, [6])
    assert_allclose(pct, [100.0])


def test_incidence_staggered_starts():
    a = flags_series("A", 0, [True, True], [False, False])
    b = flags_series("B", 1, [True, True], [True, True])
    codes, pct, _, testable = jump_incidence([a, b])
    assert_array_equal(codes, [0, 1, 2])
    assert_allclose(pct, [0.0, 50.0, 100.0])


def test_incidence_guards():
    with pytest.raises(ValueError):
        jump_incidence([])
    a = flags_series("A", 0, [True], [False])
    with pytest.raises(ValueError):
        jump_incidence([a], flag="huge")
