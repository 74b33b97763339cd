"""CSV/JSON ingestion and deterministic output."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from housingrisk import IngestionError, QuarterIndex
from housingrisk.io import (
    format_value,
    load_factor_table,
    load_hpi_panel,
    load_transform_config,
    write_csv_atomic,
    write_factor_csv,
    write_hpi_csv,
    write_json_atomic,
)
from .conftest import Q0, index_panel


HPI_TEXT = """msa_id,msa_name,state,quarter,index
10420,"Akron, OH",OH,1990:Q1,100.0
10420,"Akron, OH",OH,1990:Q2,101.5
31080,"Los Angeles, CA",CA,1990:Q2,200.0
"""


def test_hpi_round_trip(tmp_path):
    panel = index_panel({
        "A": np.array([100.0, 101.0, 103.0]),
        "B": np.array([50.0, 51.0, 52.0]),
    }, states={"A": "OH", "B": "CA"})
    path = tmp_path / "hpi.csv"
    write_hpi_csv(path, panel)
    back = load_hpi_panel(path)
    assert back.msa_ids() == ["A", "B"]
    assert back.start == Q0
    assert_allclose(back.values, panel.values)
    assert back.info("B").state == "CA"


def test_hpi_staggered_starts(tmp_path):
    path = tmp_path / "hpi.csv"
    path.write_text(HPI_TEXT)
    panel = load_hpi_panel(path)
    first_a, vals_a = panel.series("10420")
    first_b, vals_b = panel.series("31080")
    assert first_a == QuarterIndex(1990, 1) and len(vals_a) == 2
    assert first_b == QuarterIndex(1990, 2) and len(vals_b) == 1
    assert panel.info("31080").name == "Los Angeles, CA"


@pytest.mark.parametrize("mutate,fragment", [
    (lambda t: t.replace("1990:Q2,101.5", "1990:Q3,101.5"), "missing quarter"),
    (lambda t: t + '10420,"Akron, OH",OH,1990:Q1,99.0\n', "duplicate"),
    (lambda t: t.replace("101.5", "-3.0"), "non-positive"),
    (lambda t: t.replace("101.5", "abc"), "bad index value"),
    (lambda t: t.replace("1990:Q1", "1990:Q7"), ""),
    (lambda t: t.replace("msa_id", "id"), "header"),
])
def test_hpi_rejects_malformed(tmp_path, mutate, fragment):
    path = tmp_path / "hpi.csv"
    path.write_text(mutate(HPI_TEXT))
    with pytest.raises(IngestionError) as exc:
        load_hpi_panel(path)
    assert fragment in str(exc.value)


def test_hpi_interior_gap_names_the_quarter(tmp_path):
    text = HPI_TEXT + '10420,"Akron, OH",OH,1990:Q4,102.0\n'
    path = tmp_path / "hpi.csv"
    path.write_text(text)
    with pytest.raises(IngestionError) as exc:
        load_hpi_panel(path)
    assert "1990:Q3" in str(exc.value)


def test_hpi_empty_file(tmp_path):
    path = tmp_path / "hpi.csv"
    path.write_text("msa_id,msa_name,state,quarter,index\n")
    with pytest.raises(IngestionError):
        load_hpi_panel(path)


# --- factors ----------------------------------------------------------------

FACTOR_TEXT = """quarter,FEDFUNDS,SP500
1990:Q1,8.25,330.2
1990:Q2,8.15,358.0
1990:Q3,8.10,315.4
"""


def test_factor_transforms_applied(tmp_path):
    path = tmp_path / "factors.csv"
    path.write_text(FACTOR_TEXT)
    table = load_factor_table(path, {"FEDFUNDS": "log_level", "SP500": "log_pct_change"})
    assert table.factor_ids == ("FEDFUNDS", "SP500")
    assert table.start == QuarterIndex(1990, 1)
    assert_allclose(table.values[0, 0], math.log(8.25), rtol=1e-12)
    # growth transform loses its first observation
    assert np.isnan(table.values[0, 1])
    assert_allclose(table.values[1, 1], 100 * math.log(358.0 / 330.2), rtol=1e-12)


def test_factor_missing_cell_stays_missing(tmp_path):
    path = tmp_path / "factors.csv"
    path.write_text("quarter,GS10\n1990:Q1,8.0\n1990:Q2,\n1990:Q3,7.5\n")
    table = load_factor_table(path, {"GS10": "log_level"})
    assert np.isnan(table.values[1, 0])
    assert np.isfinite(table.values[2, 0])


def test_factor_unconfigured_column_rejected(tmp_path):
    path = tmp_path / "factors.csv"
    path.write_text(FACTOR_TEXT)
    with pytest.raises(IngestionError) as exc:
        load_factor_table(path, {"FEDFUNDS": "log_level"})
    assert "SP500" in str(exc.value)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_factor_non_finite_cell_rejected(tmp_path, cell):
    path = tmp_path / "factors.csv"
    path.write_text(FACTOR_TEXT.replace("358.0", cell))
    with pytest.raises(IngestionError) as exc:
        load_factor_table(path, {"FEDFUNDS": "log_level", "SP500": "log_level"})
    assert f"factors.csv:3: non-finite value {cell!r} in column SP500" in str(exc.value)


def test_factor_missing_quarter_row_rejected(tmp_path):
    path = tmp_path / "factors.csv"
    path.write_text("quarter,GS10\n1990:Q1,8.0\n1990:Q3,7.5\n")
    with pytest.raises(IngestionError) as exc:
        load_factor_table(path, {"GS10": "log_level"})
    assert "1990:Q2" in str(exc.value)


def test_factor_round_trip_raw(tmp_path):
    raw = np.array([[8.25, 330.2], [8.15, 358.0]])
    path = tmp_path / "factors.csv"
    write_factor_csv(path, ["FEDFUNDS", "SP500"], Q0, raw)
    table = load_factor_table(path, {"FEDFUNDS": "log_level", "SP500": "log_level"})
    assert_allclose(table.values, np.log(raw), rtol=1e-12)


def test_transform_config_round_trip(tmp_path):
    path = tmp_path / "transforms.json"
    path.write_text(json.dumps({"GS10": "log_level"}))
    assert load_transform_config(path) == {"GS10": "log_level"}
    path.write_text(json.dumps({"GS10": 3}))
    with pytest.raises(IngestionError):
        load_transform_config(path)


# --- output formatting ------------------------------------------------------

def test_format_value():
    assert format_value(float("nan")) == ""
    assert format_value(0.1 + 0.2) == "0.3"
    assert format_value(1.0) == "1"
    assert format_value(np.float64(2.5)) == "2.5"
    assert format_value(True) == "1"
    assert format_value(np.False_) == "0"
    assert format_value("text") == "text"
    assert format_value(7) == "7"


def test_write_csv_atomic_no_temp_left(tmp_path):
    path = tmp_path / "out" / "x.csv"
    write_csv_atomic(path, ["a", "b"], [[1.5, float("nan")], [2, "z"]])
    assert path.read_text() == "a,b\n1.5,\n2,z\n"
    assert [p.name for p in path.parent.iterdir()] == ["x.csv"]


def test_write_csv_atomic_failure_leaves_no_partial(tmp_path):
    def rows():
        yield [1.0]
        raise RuntimeError("boom")

    path = tmp_path / "x.csv"
    with pytest.raises(RuntimeError):
        write_csv_atomic(path, ["a"], rows())
    assert list(tmp_path.iterdir()) == []


def test_write_json_atomic_canonical(tmp_path):
    path = tmp_path / "x.json"
    write_json_atomic(path, {"b": 1, "a": [1, 2]})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')  # sorted keys
    write_json_atomic(path, {"b": 1, "a": [1, 2]})
    assert path.read_text() == text  # rewrite is byte-stable
