"""Jump statistics: bipower variation, L series, incidence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from housingrisk import (
    ConfigError,
    InsufficientHistoryError,
    QuarterIndex,
    jump_incidence,
    lm_series,
)
from housingrisk.jumps import BIG_THRESHOLD, JUMP_THRESHOLD, SCALE, JumpSeries

from .conftest import panel_from_returns
from .oracles import UndefinedStatisticError, bipower_variation, lm_statistic


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


@settings(max_examples=80, deadline=None)
@given(
    window=st.integers(8, 12),
    msas=st.lists(
        st.tuples(st.integers(1, 40), st.integers(0, 39), st.integers(0, 25)),
        min_size=1, max_size=6,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_series_matches_scalar_loop(window, msas, seed):
    """On a ragged panel (staggered entries, MSAs too short to test, stretches
    of zero returns), every L and flag equals a per-quarter loop built on the
    scalar primitives, and incidence equals a direct count."""
    rng = np.random.default_rng(seed)
    returns = {}
    for k, (n, zero_at, zero_len) in enumerate(msas):
        r = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
        r[zero_at : zero_at + zero_len] = 0.0
        returns[f"M{k}"] = r
    panel = panel_from_returns(returns)
    W = window
    ids = panel.msa_ids()
    long_enough = [m for m in ids if returns[m].size > W]
    if not long_enough:
        with pytest.raises(InsufficientHistoryError):
            lm_series(panel, bipower_window=W)
        return
    series = lm_series(panel, bipower_window=W)
    assert series.ids == tuple(long_enough)
    assert [m for m, _ in series.skipped] == [m for m in ids if m not in long_enough]
    n_q = panel.n_quarters
    ref_testable = np.zeros((n_q, len(long_enough)), dtype=bool)
    ref_jump = np.zeros_like(ref_testable)
    ref_big = np.zeros_like(ref_testable)
    for k, msa_id in enumerate(long_enough):
        r = returns[msa_id]
        off = n_q - r.size
        assert series.first_offsets[k] == off
        for t in range(n_q):
            i = t - off  # index into the MSA's own returns
            try:
                L, Ls = lm_statistic(r[i], r[i - W : i]) if i >= W else (None, None)
            except UndefinedStatisticError:  # zero bipower variation
                L = None
            if L is None:
                assert not series.testable[t, k]
                assert np.isnan(series.L[t, k])
                continue
            ref_testable[t, k] = True
            ref_jump[t, k] = abs(Ls) > JUMP_THRESHOLD
            ref_big[t, k] = abs(Ls) > BIG_THRESHOLD
            assert series.L[t, k] == pytest.approx(L, rel=1e-12)
            assert series.L_scaled[t, k] == pytest.approx(Ls, rel=1e-12)
    assert_array_equal(series.testable, ref_testable)
    assert_array_equal(series.jump_flag, ref_jump)
    assert_array_equal(series.big_flag, ref_big)

    columns = np.flatnonzero(rng.random(len(long_enough)) < 0.6)
    if not columns.size:
        columns = np.array([0])
    codes, pct, flagged, testable = jump_incidence(series, columns, flag="jump")
    want = [
        (series.start.code + t, sum(ref_jump[t, k] for k in columns), sum(ref_testable[t, k] for k in columns))
        for t in range(n_q)
    ]
    want = [row for row in want if row[2] > 0]
    assert codes.tolist() == [c for c, _, _ in want]
    assert flagged.tolist() == [f for _, f, _ in want]
    assert testable.tolist() == [n for _, _, n in want]
    assert pct.tolist() == [100.0 * f / n for _, f, n in want]


def test_quiet_window_after_a_volatile_stretch_keeps_its_digits():
    # Each window is summed on its own: a difference of running sums would
    # leave 1e-14-sized windows at the rounding of 30 * 1e4.
    r = np.r_[np.full(30, 100.0), np.full(30, 1e-7)]
    series = lm_series(panel_from_returns({"A": r}), bipower_window=20)
    assert series.testable[55, 0]
    for t in range(20, 60):
        L, Ls = lm_statistic(r[t], r[t - 20 : t])
        assert series.testable[t, 0]
        assert series.L[t, 0] == L and series.L_scaled[t, 0] == Ls


def test_series_quarter_codes_and_window(rng):
    panel = panel_from_returns({"A": rng.normal(size=30)}, start=QuarterIndex.from_code(100))
    series = lm_series(panel, bipower_window=8)
    assert series.ids == ("A",)
    assert series.start.code == 100
    assert_array_equal(series.first_offsets, [0])
    assert series.L.shape == (30, 1)
    assert not series.testable[:8].any()
    assert series.testable[8:].all()


def test_series_zero_window_untestable():
    r = np.zeros(40)
    r[30] = 5.0
    series = lm_series(panel_from_returns({"A": r}), bipower_window=20)
    # trailing windows of zeros: B = 0, so even the spike is untestable
    assert not series.testable[30, 0]
    assert np.isnan(series.L[30, 0])
    assert not series.jump_flag.any()


def test_planted_spike_flagged(rng):
    r = rng.normal(scale=1.0, size=100)
    r[60] = 8.0  # ~8 sigma against a clean window
    series = lm_series(panel_from_returns({"A": r}), bipower_window=20)
    assert series.big_flag[60, 0]
    assert series.jump_flag[60, 0]


def test_window_floor_and_length_guards(rng):
    with pytest.raises(ConfigError):
        lm_series(panel_from_returns({"A": rng.normal(size=50)}), bipower_window=7)
    with pytest.raises(InsufficientHistoryError):
        lm_series(panel_from_returns({"A": rng.normal(size=20)}), bipower_window=20)


def test_null_flag_rate_near_ten_percent():
    rng = np.random.default_rng(314)
    r = rng.normal(size=50_000)
    series = lm_series(panel_from_returns({"A": r}), bipower_window=20)
    rate = series.jump_flag.sum() / series.testable.sum()
    # 1.65 two-tail nominal 10%, mildly inflated by bipower estimation noise
    assert 0.08 < rate < 0.13


# --- incidence --------------------------------------------------------------

def flags_grid(start, testable, big):
    """A JumpSeries with one column per list in ``testable``/``big``."""
    t = np.asarray(testable, dtype=bool).T
    b = np.asarray(big, dtype=bool).T
    return JumpSeries(
        ids=tuple(f"M{k}" for k in range(t.shape[1])),
        start=QuarterIndex.from_code(start),
        first_offsets=np.zeros(t.shape[1], dtype=int),
        L=np.where(t, 1.0, np.nan),
        L_scaled=np.where(t, 1.0, np.nan),
        jump_flag=b,
        big_flag=b,
        testable=t,
        skipped=(),
    )


def test_incidence_counts():
    s = flags_grid(0, [[True, True, True], [False, True, True]],
                   [[True, False, False], [False, True, False]])
    codes, pct, flagged, testable = jump_incidence(s, [0, 1], flag="big")
    assert_array_equal(codes, [0, 1, 2])
    assert_allclose(pct, [100.0, 50.0, 0.0])
    assert_array_equal(flagged, [1, 1, 0])
    assert_array_equal(testable, [1, 2, 2])


def test_incidence_omits_untestable_quarters():
    s = flags_grid(5, [[False, True]], [[False, True]])
    codes, pct, _, _ = jump_incidence(s, [0])
    assert_array_equal(codes, [6])
    assert_allclose(pct, [100.0])


def test_incidence_staggered_starts():
    s = flags_grid(0, [[True, True, False], [False, True, True]],
                   [[False, False, False], [False, True, True]])
    codes, pct, _, testable = jump_incidence(s, [0, 1])
    assert_array_equal(codes, [0, 1, 2])
    assert_allclose(pct, [0.0, 50.0, 100.0])


def test_incidence_guards():
    s = flags_grid(0, [[True]], [[False]])
    with pytest.raises(ValueError):
        jump_incidence(s, [])
    with pytest.raises(ValueError):
        jump_incidence(s, [0], flag="huge")
