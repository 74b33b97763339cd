"""Quarter arithmetic, panel containers, returns, transforms, alignment."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from housingrisk import (
    AlignmentError,
    DomainError,
    FactorTable,
    IndexPanel,
    InsufficientHistoryError,
    MsaInfo,
    QuarterIndex,
    QuarterParseError,
    ReturnPanel,
    align,
    compute_returns,
    default_factor_transforms,
    parse_quarter,
    transform_factor,
)
from .conftest import Q0, factor_table, index_panel, levels_from_returns


# --- quarters ---------------------------------------------------------------

def test_parse_quarter_accepts_both_spellings():
    assert parse_quarter("1975:Q1") == QuarterIndex(1975, 1)
    assert parse_quarter("1975Q4") == QuarterIndex(1975, 4)


@pytest.mark.parametrize("bad", ["1975:Q5", "1975:Q0", "75:Q1", "1975:4", "1975", "Q1:1975", ""])
def test_parse_quarter_rejects(bad):
    with pytest.raises(QuarterParseError):
        parse_quarter(bad)


def test_quarter_code_round_trip():
    for q in (QuarterIndex(1975, 1), QuarterIndex(1999, 4), QuarterIndex(2023, 2)):
        assert QuarterIndex.from_code(q.code) == q


def test_quarter_arithmetic():
    q = QuarterIndex(1999, 4)
    assert q + 1 == QuarterIndex(2000, 1)
    assert q + 4 == QuarterIndex(2000, 4)
    assert (q + 7) - q == 7
    assert str(q) == "1999:Q4"


def test_quarter_ordering():
    assert QuarterIndex(1990, 4) < QuarterIndex(1991, 1)
    assert sorted([QuarterIndex(2000, 2), QuarterIndex(1999, 3)])[0].year == 1999


def test_bad_quarter_number_rejected():
    with pytest.raises(QuarterParseError):
        QuarterIndex(1990, 5)


# --- returns ----------------------------------------------------------------

def test_returns_are_log_percent():
    panel = index_panel({"A": np.array([100.0, 110.0, 99.0])})
    rets = compute_returns(panel)
    _, r = rets.series("A")
    assert_allclose(r, [100 * math.log(1.1), 100 * math.log(99 / 110)], rtol=1e-12)
    assert rets.start == Q0 + 1


def test_an_msa_with_a_single_level_has_no_return():
    levels = np.array([[100.0, np.nan], [110.0, np.nan], [99.0, 100.0]])  # B starts in the last quarter
    panel = IndexPanel([MsaInfo("A", "A", ""), MsaInfo("B", "B", "")], Q0, levels)
    with pytest.raises(InsufficientHistoryError, match="MSA B has a single index level"):
        compute_returns(panel)


def test_return_symmetry_up_down():
    # 90 -> 100 -> 90 gives +/- 10.536052 and the exact negation.
    panel = index_panel({"A": np.array([90.0, 100.0, 90.0])})
    _, r = compute_returns(panel).series("A")
    assert_allclose(r[0], 10.536051565782635, rtol=1e-12)
    assert_allclose(r[1], -r[0], rtol=1e-12)


def test_flat_index_zero_returns():
    panel = index_panel({"A": np.full(8, 123.45)})
    _, r = compute_returns(panel).series("A")
    assert_array_equal(r, np.zeros(7))


def test_returns_round_trip_levels():
    rng = np.random.default_rng(3)
    rets = rng.normal(0.5, 2.0, size=40)
    panel = index_panel({"A": levels_from_returns(rets)})
    _, r = compute_returns(panel).series("A")
    assert_allclose(r, rets, atol=1e-10)


# --- panels -----------------------------------------------------------------

def test_panel_sorted_ids_and_offsets():
    panel = IndexPanel([MsaInfo("A", "A", ""), MsaInfo("B", "B", "")], Q0,
                       [[100.0, np.nan], [100.0, np.nan], [100.0, 100.0], [100.0, 101.0]])
    assert panel.msa_ids() == ["A", "B"]
    assert panel.start == Q0
    assert panel.n_quarters == 4
    first_b, vals_b = panel.series("B")
    assert first_b == Q0 + 2
    assert len(vals_b) == 2
    # leading cells for the late starter are missing
    assert np.isnan(panel.values[0, panel.column("B")])


def test_panel_rejects_nonpositive_levels():
    with pytest.raises(DomainError):
        index_panel({"A": np.array([100.0, -1.0, 100.0])})


def test_panel_unknown_msa():
    panel = index_panel({"A": np.full(4, 100.0)})
    with pytest.raises(KeyError):
        panel.series("NOPE")


def first_layout_fault(ids, columns, start):
    """The layout fault a scan of one MSA after another meets first, or None."""
    for msa_id, column in zip(ids, columns):
        present = [not math.isnan(v) for v in column]
        if not any(present):
            return f"MSA {msa_id} has no observations"
        first = present.index(True)
        if not all(present[first:]):
            gap = present.index(False, first)
            return f"MSA {msa_id} missing quarter {start + gap} inside its range"
    return None


@st.composite
def panel_columns(draw):
    """Columns of one panel: late entries, interior gaps and all-NaN columns."""
    n_q = draw(st.integers(1, 8))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        entry = draw(st.integers(0, n_q))  # n_q: no observation at all
        holes = draw(st.sets(st.integers(entry + 1, n_q - 1), max_size=2)) if entry < n_q - 1 else set()
        columns.append([math.nan if t < entry or t in holes else 100.0 + t for t in range(n_q)])
    return columns


@pytest.mark.parametrize("panel_type", [IndexPanel, ReturnPanel])
@settings(max_examples=200, deadline=None)
@given(columns=panel_columns())
def test_panel_layout_check_reports_the_first_fault_of_a_per_msa_scan(panel_type, columns):
    ids = [f"M{j}" for j in range(len(columns))]
    msas = [MsaInfo(i, i, "") for i in ids]
    fault = first_layout_fault(ids, columns, Q0)
    values = np.array(columns).T
    if fault is None:
        panel = panel_type(msas, Q0, values)
        assert panel.first_offsets.tolist() == [int(np.argmax(~np.isnan(c))) for c in values.T]
    else:
        with pytest.raises(ValueError) as exc:
            panel_type(msas, Q0, values)
        assert str(exc.value) == fault


# --- factor transforms ------------------------------------------------------

def test_transform_log_pct_change():
    out = transform_factor([1.0, 2.0], "log_pct_change")
    assert_allclose(out, [100 * math.log(2.0)], rtol=1e-12)  # 69.3147...


def test_transform_log_level():
    out = transform_factor([math.e, 0.25], "log_level")
    assert_allclose(out, [1.0, math.log(0.25)], rtol=1e-12)  # ln .25 = -1.386294


def test_transform_rejects_nonpositive():
    with pytest.raises(DomainError):
        transform_factor([1.0, 0.0, 2.0], "log_level")
    with pytest.raises(ValueError):
        transform_factor([1.0, 2.0], "cube_root")


def test_transform_keeps_missing_missing():
    out = transform_factor([1.0, np.nan, 4.0], "log_level")
    assert np.isnan(out[1]) and out[2] == math.log(4.0)


def test_default_transform_menu():
    base = default_factor_transforms()
    assert base["INCOME"] == "log_pct_change"
    assert default_factor_transforms(income_as_level=True)["INCOME"] == "log_level"
    # rate-like series enter in log levels, activity series as growth
    assert base["FEDFUNDS"] == "log_level"
    assert base["UNRATE"] == "log_level"
    assert base["PAYEMS"] == "log_pct_change"
    assert len(base) == 12


# --- alignment --------------------------------------------------------------

def test_align_trims_to_common_range():
    table = factor_table(np.arange(1.0, 11.0), start=Q0 + 3)
    quarters = [Q0 + k for k in range(1, 9)]
    rets = np.arange(8, dtype=float)
    ds = align("A", quarters, rets, table)
    # overlap runs Q0+3 .. Q0+8
    assert ds.quarter_codes[0] == (Q0 + 3).code
    assert ds.n_rows == 6
    assert_array_equal(ds.y, rets[2:])
    assert ds.factor_ids == ("F0",)


def test_align_drops_missing_factor_rows_with_reasons():
    vals = np.arange(1.0, 9.0)
    vals[3] = np.nan
    table = factor_table(vals, start=Q0)
    quarters = [Q0 + k for k in range(8)]
    ds = align("A", quarters, np.ones(8), table)
    assert ds.n_rows == 7
    assert len(ds.dropped) == 1
    q, reason = ds.dropped[0]
    assert q == Q0 + 3
    assert "F0" in reason


def test_align_dropped_reasons_in_quarter_order():
    F = np.arange(1.0, 17.0).reshape(8, 2)
    F[2, 1] = np.nan
    F[5, :] = np.nan
    y = np.arange(8.0)
    y[4] = y[5] = np.nan
    ds = align("A", [Q0 + k for k in range(8)], y, factor_table(F, start=Q0))
    assert ds.dropped == (
        (Q0 + 2, "missing factor F1"),
        (Q0 + 4, "missing return"),
        (Q0 + 5, "missing return; missing factor F0,F1"),
    )
    assert_array_equal(ds.quarter_codes, [(Q0 + k).code for k in (0, 1, 3, 6, 7)])
    assert_array_equal(ds.y, [0.0, 1.0, 3.0, 6.0, 7.0])


def test_align_no_overlap_raises():
    table = factor_table(np.arange(1.0, 5.0), start=Q0 + 50)
    with pytest.raises(AlignmentError):
        align("A", [Q0, Q0 + 1], [1.0, 2.0], table)


def test_align_accepts_codes_and_is_idempotent():
    table = factor_table(np.arange(1.0, 9.0), start=Q0)
    codes = [(Q0 + k).code for k in range(8)]
    ds = align("A", codes, np.arange(8.0), table)
    ds2 = align("A", ds.quarter_codes, ds.y, table)
    assert_array_equal(ds.y, ds2.y)
    assert_array_equal(ds.X, ds2.X)
    assert ds2.dropped == ()


def test_factor_table_rejects_duplicates_and_bad_shape():
    with pytest.raises(ValueError):
        FactorTable(["F", "F"], Q0, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        FactorTable(["F"], Q0, np.zeros((4, 2)))


def test_msainfo_fields():
    m = MsaInfo("12345", "Testville, CA", "CA")
    assert (m.msa_id, m.state) == ("12345", "CA")
