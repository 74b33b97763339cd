"""Pairwise return/jump correlations, summaries, division cohort report."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from housingrisk import (
    ConfigError,
    PairSet,
    cohort_correlation_report,
    correlation_summary,
    jump_pair_correlations,
    lm_series,
    return_pair_correlations,
)
from housingrisk.correlations import DIVISION_STATES, division_for_state
from .conftest import Q0, panel_from_returns


# --- census division mapping ------------------------------------------------

def test_division_membership_spot_checks():
    assert division_for_state("CA") == "CA"       # California stands alone
    assert division_for_state("WA") == "D1"
    assert division_for_state("TX") == "D4"
    assert division_for_state("NY") == "D8"
    assert division_for_state("MA") == "D9"
    with pytest.raises(ConfigError):
        division_for_state("PR")


def test_divisions_cover_states_once():
    seen = [s for states in DIVISION_STATES.values() for s in states]
    assert len(seen) == len(set(seen))
    assert "CA" in DIVISION_STATES["CA"] and len(DIVISION_STATES["CA"]) == 1
    # 50 states + DC, with CA pulled out into its own bucket
    assert len(seen) == 51


# --- return pair correlations -----------------------------------------------

def index_of(pairs):
    """{(msa_i, msa_j): position of that pair in the set's columns}."""
    return {
        (pairs.ids[a], pairs.ids[b]): k
        for k, (a, b) in enumerate(zip(pairs.i.tolist(), pairs.j.tolist()))
    }


def test_pair_count_contemporaneous(rng):
    n_msas = 10
    panel = panel_from_returns(
        {f"M{i:02d}": rng.normal(size=30) for i in range(n_msas)}
    )
    pairs, omitted = return_pair_correlations(panel)
    assert len(pairs) == n_msas * (n_msas - 1) // 2  # 45
    assert not omitted
    assert (pairs.i < pairs.j).all()
    assert pairs.kind == "return" and pairs.timing == "contemporaneous"


def test_pair_count_lead_includes_self(rng):
    n_msas = 6
    panel = panel_from_returns(
        {f"M{i}": rng.normal(size=30) for i in range(n_msas)}
    )
    pairs, _ = return_pair_correlations(panel, timing="lead")
    assert len(pairs) == n_msas * n_msas  # ordered, self-pairs included
    assert (pairs.i == pairs.j).any()


def test_correlation_values_match_corrcoef(rng):
    panel = panel_from_returns({
        "A": rng.normal(size=40),
        "B": rng.normal(size=40),
        "C": rng.normal(size=25),  # late starter
    })
    pairs, _ = return_pair_correlations(panel)
    at = index_of(pairs)
    _, a = panel.series("A")
    _, b = panel.series("B")
    _, c = panel.series("C")
    assert pairs.r[at["A", "B"]] == pytest.approx(np.corrcoef(a, b)[0, 1], rel=1e-10)
    # A/C overlap only on C's range (the last 25 quarters)
    assert pairs.r[at["A", "C"]] == pytest.approx(np.corrcoef(a[-25:], c)[0, 1], rel=1e-10)
    assert pairs.n[at["A", "C"]] == 25


def test_lead_correlation_definition(rng):
    x = rng.normal(size=40)
    follower = np.empty(40)
    follower[1:] = x[:-1]          # follower_t+1 = x_t exactly
    follower[0] = rng.normal()
    panel = panel_from_returns({"LEADER": x, "FOLLOW": follower})
    pairs, _ = return_pair_correlations(panel, timing="lead")
    at = index_of(pairs)
    assert pairs.r[at["LEADER", "FOLLOW"]] == pytest.approx(1.0)
    assert abs(pairs.r[at["FOLLOW", "LEADER"]]) < 0.5


def test_pair_t_stat_formula(rng):
    panel = panel_from_returns({"A": rng.normal(size=30), "B": rng.normal(size=30)})
    pairs, _ = return_pair_correlations(panel)
    assert len(pairs) == 1
    r, n = pairs.r[0], pairs.n[0]
    assert pairs.t[0] == pytest.approx(r * np.sqrt((n - 2) / (1.0 - r**2)), rel=1e-12)


def test_min_overlap_omits_short_pairs(rng):
    panel = panel_from_returns({"A": rng.normal(size=30), "B": rng.normal(size=5)})
    pairs, omitted = return_pair_correlations(panel, min_overlap=8)
    assert not pairs
    assert omitted[0][:2] == ("A", "B")


def test_perfect_correlation_infinite_t(rng):
    x = rng.normal(size=20)
    panel = panel_from_returns({"A": x, "B": 2.0 * x})
    pairs, _ = return_pair_correlations(panel)
    assert len(pairs) == 1
    assert pairs.r[0] == pytest.approx(1.0)
    assert np.isinf(pairs.t[0])


@settings(max_examples=200, deadline=None)
@given(c=st.floats(-1e3, 1e3), d=st.floats(-1e3, 1e3), n=st.integers(9, 200),
       timing=st.sampled_from(["contemporaneous", "lead"]), seed=st.integers(0, 2**32 - 1))
@example(c=0.0, d=1.7178627028130735e-160, n=12, timing="contemporaneous", seed=0)  # its squares underflow
def test_a_constant_column_has_zero_variance_over_overlap(c, d, n, timing, seed):
    # Whatever its value, a constant column is omitted against a random
    # column and against another constant, never kept on the sign of the
    # rounding in N·Q − S².
    x = np.random.default_rng(seed).normal(size=n)
    pairs, omitted = return_pair_correlations(panel_from_returns({"A": np.full(n, c), "B": x, "C": np.full(n, d)}), timing)
    assert {(pairs.ids[i], pairs.ids[j]) for i, j in zip(pairs.i, pairs.j)} <= {("B", "B")}
    assert {reason for a, b, reason in omitted} == {"zero variance over overlap"}


# --- jump correlations ------------------------------------------------------

def make_jump_series(rng, n_msas=6, n_quarters=160, jump_every=0):
    returns = {}
    for i in range(n_msas):
        r = rng.normal(size=n_quarters)
        if jump_every:
            r[30 + i::jump_every] += 9.0
        returns[f"M{i}"] = r
    return lm_series(panel_from_returns(returns, start=Q0), bipower_window=20)


def jump_corr_oracle(series, a, b, lead=False):
    """Direct per-pair recompute from the flag columns (independent loop).

    A quarter counts when one side's masked value is nonzero while the
    other side is testable; norms and n are both taken over exactly that
    restricted set.
    """
    ja = np.where(series.big_flag[:, a], series.L[:, a], 0.0)
    ta = series.testable[:, a]
    jb = np.where(series.big_flag[:, b], series.L[:, b], 0.0)
    tb = series.testable[:, b]
    if lead:
        ja, ta = ja[:-1], ta[:-1]
        jb, tb = jb[1:], tb[1:]
    mask = ((ja != 0) & tb) | ((jb != 0) & ta)
    n_eff = int(mask.sum())
    if n_eff == 0:
        return None, 0
    ja, jb = ja[mask], jb[mask]
    na, nb = np.sqrt(ja @ ja), np.sqrt(jb @ jb)
    if na == 0 or nb == 0:
        return None, n_eff
    return float(ja @ jb / (na * nb)), n_eff


def test_jump_correlations_match_loop_oracle(rng):
    series = make_jump_series(rng, jump_every=37)
    pairs, _ = jump_pair_correlations(series)
    assert pairs.kind == "jump"
    checked = 0
    at = index_of(pairs)
    ids = series.ids
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            want, n_eff = jump_corr_oracle(series, i, j)
            key = (ids[i], ids[j])
            if want is None or n_eff < 4:
                assert key not in at
                continue
            assert pairs.r[at[key]] == pytest.approx(want, rel=1e-10)
            assert pairs.n[at[key]] == n_eff
            checked += 1
    assert checked >= 10


def test_jump_lead_correlations_match_loop_oracle(rng):
    series = make_jump_series(rng, jump_every=23)
    pairs, _ = jump_pair_correlations(series, timing="lead")
    at = index_of(pairs)
    checked = 0
    ids = series.ids
    for a in range(len(ids)):
        for b in range(len(ids)):
            want, n_eff = jump_corr_oracle(series, a, b, lead=True)
            key = (ids[a], ids[b])
            if want is None or n_eff < 4:
                assert key not in at
                continue
            assert pairs.r[at[key]] == pytest.approx(want, rel=1e-10)
            assert pairs.n[at[key]] == n_eff
            checked += 1
    assert checked >= 10


def test_jump_identical_series_correlate_one(rng):
    import dataclasses

    series = make_jump_series(rng, n_msas=1, jump_every=25)
    twin = dataclasses.replace(
        series, ids=("M0", "TWIN"), first_offsets=np.repeat(series.first_offsets, 2),
        **{f: np.repeat(getattr(series, f), 2, axis=1)
           for f in ("L", "L_scaled", "jump_flag", "big_flag", "testable")},
    )
    pairs, _ = jump_pair_correlations(twin)
    assert len(pairs) == 1
    assert pairs.r[0] == pytest.approx(1.0)


def test_jump_no_flags_omitted(rng):
    import dataclasses

    series = make_jump_series(rng, n_msas=3, n_quarters=60, jump_every=0)
    # strip whatever noise flags occurred so the masked series is all zeros
    quiet = dataclasses.replace(series, big_flag=np.zeros_like(series.big_flag))
    pairs, omitted = jump_pair_correlations(quiet)
    assert not pairs
    assert len(omitted) == 3


def test_jump_min_quarter_floor(rng):
    series = make_jump_series(rng, n_msas=2, jump_every=29)
    pairs_loose, _ = jump_pair_correlations(series, min_quarters=4)
    pairs_tight, _ = jump_pair_correlations(series, min_quarters=10**6)
    assert len(pairs_tight) == 0 and len(pairs_loose) >= 0


# --- summaries --------------------------------------------------------------

def mk_set(rs, n=50, kind="return", timing="contemporaneous", ts=None):
    """A set of pairs (M0, M1), (M1, M2), ... with the given r; t from r and n."""
    rs = np.asarray(rs, dtype=float)
    if ts is None:
        ts = rs * np.sqrt((n - 2) / (1 - rs * rs))
    k = np.arange(rs.size)
    ids = tuple(f"M{m}" for m in range(rs.size + 1))
    return PairSet(kind, timing, ids, k, k + 1, rs, np.full(rs.size, n), np.asarray(ts, dtype=float))


def test_summary_single_pair_sigma_zero():
    (s,) = [x for x in correlation_summary(mk_set([0.4]), thresholds=(None,))]
    assert s.n == 1
    assert s.mean == pytest.approx(0.4)
    assert s.sigma == 0.0          # population convention
    assert np.isnan(s.t_stat)
    assert s.max == s.min == pytest.approx(0.4)


def test_summary_two_pairs_hand_values():
    (s,) = correlation_summary(mk_set([0.5, 0.1]), thresholds=(None,))
    assert s.mean == pytest.approx(0.3)
    assert s.sigma == pytest.approx(0.2)  # population sd of {0.5, 0.1}
    # T = mean / (sigma / sqrt(N))
    assert s.t_stat == pytest.approx(0.3 / (0.2 / np.sqrt(2)), rel=1e-12)


def test_summary_threshold_filters_are_signed():
    rows = correlation_summary(mk_set([0.8, -0.8, 0.05]), thresholds=(None, 2.0))
    all_row = next(r for r in rows if r.threshold is None)
    sig_row = next(r for r in rows if r.threshold == 2.0)
    assert all_row.n == 3
    # signed filter keeps only the strongly positive pair
    assert sig_row.n == 1
    assert sig_row.mean == pytest.approx(0.8)


def test_summary_empty_threshold_bucket():
    rows = correlation_summary(mk_set([0.01]), thresholds=(3.0,))
    assert rows[0].n == 0
    assert np.isnan(rows[0].mean) and np.isnan(rows[0].t_stat)


def test_summary_labels_follow_the_input_set():
    # one homogeneous set in, its kind/timing labels out
    pairs = mk_set([0.2, 0.4], n=30, kind="jump", timing="lead", ts=[1.1, 2.6])
    rows = correlation_summary(pairs, thresholds=(None, 2.0))
    assert all(r.kind == "jump" and r.timing == "lead" for r in rows)
    assert [r.threshold for r in rows] == [None, 2.0]


def test_summary_empty_input_rejected():
    with pytest.raises(ValueError):
        correlation_summary(mk_set([]))


# --- division report --------------------------------------------------------

def test_division_report_within_division_only(rng):
    states = {"A": "CA", "B": "CA", "C": "TX", "D": "TX", "E": "NY"}
    panel = panel_from_returns(
        {m: rng.normal(size=40) for m in states}, states=states
    )
    pairs, _ = return_pair_correlations(panel)
    rows = cohort_correlation_report([pairs], states, sig_t=5.0)
    by_div = {r.division: r for r in rows}
    assert by_div["CA"].n == 1      # only (A,B)
    assert by_div["D4"].n == 1      # only (C,D)
    assert by_div["D8"].n == 0      # E has no in-division partner
    assert np.isnan(by_div["D8"].mean_r)
    assert set(by_div) == {"CA", "D4", "D8"}


def test_division_report_significance_count():
    pairs = PairSet(
        "return", "contemporaneous", ("A", "B", "C"),
        np.array([0, 0, 1]), np.array([1, 2, 2]),
        np.array([0.9, 0.1, 0.5]), np.full(3, 40), np.array([12.7, 0.6, 3.6]),
    )
    states = {"A": "CA", "B": "CA", "C": "CA"}
    rows = cohort_correlation_report([pairs], states, sig_t=2.0)
    (row,) = rows
    assert row.n == 3
    assert row.n_significant == 2
    assert row.pct_significant == pytest.approx(100 * 2 / 3)
    assert row.mean_r == pytest.approx(np.mean([0.9, 0.1, 0.5]))


def test_division_report_counts_a_pair_only_with_both_states(rng):
    panel = panel_from_returns({m: rng.normal(size=40) for m in "ABCD"})
    contemp, _ = return_pair_correlations(panel)
    lead, _ = return_pair_correlations(panel, timing="lead")
    # every jump pair touches D, which has no state: no jump rows at all
    jump = PairSet("jump", "lead", ("A", "D"), np.array([0]), np.array([1]),
                   np.array([0.5]), np.array([30]), np.array([3.0]))
    states = {"A": "CA", "B": "CA", "C": "TX"}
    rows = cohort_correlation_report([contemp, lead, jump], states)
    assert {(r.division, r.kind, r.timing): r.n for r in rows} == {
        ("CA", "return", "contemporaneous"): 1,   # (A,B)
        ("CA", "return", "lead"): 4,              # AA, AB, BA, BB
        ("D4", "return", "contemporaneous"): 0,
        ("D4", "return", "lead"): 1,              # CC
    }
    with pytest.raises(ValueError):
        cohort_correlation_report([contemp, contemp], states)


def test_division_report_counts_a_member_in_no_division_nowhere(rng):
    states = {"A": "CA", "B": "CA", "C": "TX", "D": "TX"}
    panel = panel_from_returns({m: rng.normal(size=40) for m in "ABCDE"})
    pairs, _ = return_pair_correlations(panel)
    rows = cohort_correlation_report([pairs], dict(states, E="PR"))
    assert rows == cohort_correlation_report([pairs], states)
    assert [(r.division, r.n) for r in rows] == [("D4", 1), ("CA", 1)]


# --- pair set invariants ------------------------------------------------------

def check_pair_set(pairs, omitted, n_ids, timing, floor):
    r, n, t = pairs.r, pairs.n, pairs.t
    assert pairs.timing == timing
    assert (np.abs(r) <= 1.0).all()
    assert (n >= floor).all()
    inner = np.abs(r) < 1.0
    assert_allclose(t[inner], r[inner] * np.sqrt(n[inner] - 2.0) / np.sqrt(1.0 - r[inner] ** 2),
                    rtol=1e-12)
    assert (t[~inner] == np.sign(r[~inner]) * np.inf).all()
    if timing == "contemporaneous":
        assert len(pairs) + len(omitted) == n_ids * (n_ids - 1) // 2
        assert (pairs.i < pairs.j).all()
    else:
        assert len(pairs) + len(omitted) == n_ids * n_ids


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(10, 40), min_size=2, max_size=8),
    twin=st.one_of(st.none(), st.floats(0.1, 10.0)),
    floor=st.integers(3, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_sets_hold_the_t_formula_and_counts(lengths, twin, floor, seed):
    rng = np.random.default_rng(seed)
    returns = {f"M{k}": rng.normal(size=m) for k, m in enumerate(lengths)}
    for v in returns.values():
        v[rng.random(v.size) < 0.1] += 8.0  # spikes, so some quarters are big jumps
    if twin is not None:  # a scaled copy: r = 1 and infinite t, or |r| just below 1
        returns["M1"] = returns["M0"][-lengths[1]:] * twin
    panel = panel_from_returns(returns)
    series = lm_series(panel, bipower_window=8)
    for timing in ("contemporaneous", "lead"):
        pairs, omitted = return_pair_correlations(panel, timing, min_overlap=floor)
        check_pair_set(pairs, omitted, len(lengths), timing, floor)
        pairs, omitted = jump_pair_correlations(series, timing, min_quarters=floor)
        check_pair_set(pairs, omitted, len(lengths), timing, floor)
