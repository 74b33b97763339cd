"""CSV/JSON ingestion and deterministic output."""

from __future__ import annotations

import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from housingrisk import IndexPanel, IngestionError, MsaInfo, QuarterIndex
from housingrisk import io as hio
from housingrisk.io import (
    Labels,
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


HEADER = "msa_id,msa_name,state,quarter,index\n"


@pytest.mark.parametrize("records,message", [
    # duplicate at record 4 before a bad float at record 6
    ("A,a,CA,1990:Q1,1\nA,a,CA,1990:Q2,1\nA,a,CA,1990:Q1,2\nB,b,CA,1990:Q1,1\nB,b,CA,1990:Q2,x\n",
     "4: duplicate (A, 1990:Q1) observation"),
    # bad float at record 3 before a duplicate at record 5
    ("A,a,CA,1990:Q1,1\nA,a,CA,1990:Q2,x\nB,b,CA,1990:Q1,1\nB,b,CA,1990:Q1,1\n",
     "3: bad index value 'x'"),
    # a blank record still counts; the short record 4 wins over the bad quarter at 5
    ("A,a,CA,1990:Q1,1\n , ,\nA,a,CA,1990:Q2\nA,a,CA,1990:Q9,1\n",
     "4: expected 5 fields, got 4"),
    # within one record the quarter is checked before the level
    ("A,a,CA,1990:Q5,x\n", "2: quarter out of range 1..4 in '1990:Q5'"),
    # within one record the level is checked before the duplicate
    ("A,a,CA,1990:Q1,1\nA,a,CA,1990:Q1,-1\n", "3: non-positive index level -1.0 for A"),
    # a gap in A is reported only once every record has passed
    ("A,a,CA,1990:Q1,1\nA,a,CA,1990:Q3,1\nB,b,CA,1990:Q1,0\n", "4: non-positive index level 0.0 for B"),
    # line numbers count csv records, not the physical lines of a quoted name
    ('A,"North\nEast",CA,1990:Q1,1\nA,a,CA,1990:Q2,1\nA,a,CA,1990:Q3,nan\n',
     "4: non-positive index level nan for A"),
    # the duplicate at 5 (of record 2) wins over the bad float at 6
    ("A,a,CA,1990:Q1,1\nA,a,CA,1990:Q2,1\nB,b,CA,1990:Q1,1\nA,a,CA,1990:Q1,1\nB,b,CA,1990:Q2,x\n",
     "5: duplicate (A, 1990:Q1) observation"),
    # the bad float at 4 wins over the duplicate at 6
    ("A,a,CA,1990:Q1,1\nA,a,CA,1990:Q2,1\nB,b,CA,1990:Q1,y\nB,b,CA,1990:Q2,1\nA,a,CA,1990:Q1,1\n",
     "4: bad index value 'y'"),
    # an id of white space alone is empty, and is checked before the quarter
    ("A,a,CA,1990:Q1,1\n  ,b,CA,1990:Q9,1\n", "3: empty msa_id"),
    # of two duplicates, the earlier second record wins
    ("A,a,CA,1990:Q1,1\nA,a,CA,1990:Q2,1\nB,b,CA,1990:Q1,1\nB,b,CA,1990:Q1,1\nA,a,CA,1990:Q1,1\n",
     "5: duplicate (B, 1990:Q1) observation"),
])
def test_hpi_reports_the_earliest_fault(tmp_path, records, message):
    path = tmp_path / "hpi.csv"
    path.write_text(HEADER + records)
    with pytest.raises(IngestionError) as exc:
        load_hpi_panel(path)
    assert str(exc.value) == f"{path}:{message}"


def test_hpi_record_fault_comes_before_a_later_reader_error(tmp_path):
    huge = "n" * (csv.field_size_limit() + 1)
    path = tmp_path / "hpi.csv"
    path.write_text(HEADER + f"A,a,CA,1990:Q1,1\nA,a,CA,1990:Q2,x\nA,a,CA,1990:Q3,1\nA,{huge},CA,1990:Q4,1\n")
    with pytest.raises(IngestionError) as exc:
        load_hpi_panel(path)
    assert str(exc.value) == f"{path}:3: bad index value 'x'"
    path.write_text(HEADER + f"A,a,CA,1990:Q1,1\nA,{huge},CA,1990:Q2,1\nA,a,CA,1990:Q3,x\n")
    with pytest.raises(IngestionError) as exc:
        load_hpi_panel(path)
    assert str(exc.value) == f"{path}:3: field larger than field limit ({csv.field_size_limit()})"


MANY_RECORDS = "".join(f"A,a,CA,{1900 + k // 4}:Q{k % 4 + 1},1\n" for k in range(3000)).encode()


@pytest.mark.parametrize("records,message", [
    pytest.param(b"A,a,CA,1990:Q1,1\nA,a\xff,CA,1990:Q2,1\n", "3: not valid UTF-8", id="byte"),
    pytest.param(b"A,a,CA,1990:Q1,x\nA,\xffa,CA,1990:Q2,1\n", "2: bad index value 'x'", id="fault-first"),
    pytest.param(b"A,\xffa,CA,1990:Q1,1\nA,a,CA,1990:Q2,x\n", "2: not valid UTF-8", id="byte-first"),
    # far beyond the first chunk that the decoder reads
    pytest.param(MANY_RECORDS + b"A,\xe9,CA,2900:Q1,1\n", "3002: not valid UTF-8", id="late-byte"),
])
def test_hpi_names_the_record_that_is_not_utf8(tmp_path, records, message):
    path = tmp_path / "hpi.csv"
    path.write_bytes(HEADER.encode() + records)
    with pytest.raises(IngestionError) as exc:
        load_hpi_panel(path)
    assert str(exc.value) == f"{path}:{message}"


# File separator to unit separator: str.strip() drops them, float() keeps them.
PADDING = ["\x1c", "\x1d", "\x1e", "\x1f"]


@pytest.mark.parametrize("pad", PADDING, ids=repr)
def test_padded_cells_load(tmp_path, pad):
    path = tmp_path / "hpi.csv"
    path.write_text(HEADER + f"{pad}A,a,CA,{pad}1990:Q1,{pad}1.5{pad}\nA,a,CA,1990:Q2,2.5{pad}\n")
    panel = load_hpi_panel(path)
    assert panel.msa_ids() == ["A"] and panel.start == QuarterIndex(1990, 1)
    assert panel.values[:, 0].tolist() == [1.5, 2.5]
    path = tmp_path / "factors.csv"
    path.write_text(f"quarter,GS10\n{pad}1990:Q1,{pad}8.0{pad}\n1990:Q2,{pad}\n1990:Q3,7.5{pad}\n")
    table = load_factor_table(path, {"GS10": "log_level"})
    assert np.array_equal(table.values[:, 0], np.log([8.0, np.nan, 7.5]), equal_nan=True)


def test_hpi_keeps_the_first_name_and_state(tmp_path):
    path = tmp_path / "hpi.csv"
    path.write_text(HEADER + "A,first,CA,1990:Q1,1\nA,second,OH,1990:Q2,1\n")
    assert load_hpi_panel(path).info("A") == MsaInfo("A", "first", "CA")


# Text that csv must quote, kept as it is by strip().
FIELD = st.text(st.sampled_from(list('ab ,"\'\n\ré')), max_size=6).filter(lambda t: t == t.strip())
LEVEL = st.floats(1e-6, 1e9).map(lambda x: float(f"{x:.10g}"))  # what %.10g writes back exactly


@st.composite
def hpi_panels(draw):
    ids = sorted(draw(st.lists(FIELD.filter(bool), min_size=1, max_size=5, unique=True)))
    n_q = draw(st.integers(1, 8))
    values = np.full((n_q, len(ids)), np.nan)
    for j in range(len(ids)):
        first = draw(st.integers(0, n_q - 1))  # staggered first quarters, one common end
        values[first:, j] = draw(st.lists(LEVEL, min_size=n_q - first, max_size=n_q - first))
    values = values[np.isnan(values).all(axis=1).argmin():]  # the panel starts at its first level
    infos = [MsaInfo(msa_id, draw(FIELD), draw(st.sampled_from(["CA", "OH", ""]))) for msa_id in ids]
    return IndexPanel(infos, QuarterIndex(1990, 1), values)


@settings(max_examples=150, deadline=None)
@given(panel=hpi_panels())
def test_hpi_written_by_the_package_loads_back_equal(panel):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hpi.csv"
        write_hpi_csv(path, panel)
        back = load_hpi_panel(path)
    assert back.msas == panel.msas
    assert back.start == panel.start
    assert np.array_equal(back.values, panel.values, equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(ids=st.lists(FIELD.filter(bool), min_size=1, max_size=4, unique=True),
       n_q=st.integers(1, 6), data=st.data())
def test_factors_written_by_the_package_load_back_equal(ids, n_q, data):
    cells = st.lists(LEVEL | st.just(float("nan")), min_size=n_q * len(ids), max_size=n_q * len(ids))
    raw = np.array(data.draw(cells)).reshape(n_q, len(ids))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "factors.csv"
        write_factor_csv(path, ids, Q0, raw)
        table = load_factor_table(path, {f: "log_level" for f in ids})
    assert table.factor_ids == tuple(ids)
    assert table.start == Q0
    assert np.array_equal(table.values, np.log(raw), equal_nan=True)


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



OVERSIZED = b"8" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("text,message", [
    pytest.param(b"quarter,GS10\n1990:Q1,8.0\n1990:Q2,\xff7.5\n", "3: not valid UTF-8", id="cell"),
    pytest.param(b"quarter,GS1\xb0\n1990:Q1,8.0\n", "1: not valid UTF-8", id="header"),
    pytest.param(b"quarter,GS10\n1990:Q1," + OVERSIZED + b"\n",
                 f"2: field larger than field limit ({csv.field_size_limit()})", id="oversized-field"),
    pytest.param(b"quarter,GS10\n1990:Q1,8.0\n\n , \n1990:Q2,x\n", "5: bad value 'x' in column GS10",
                 id="blank-records-count"),
    pytest.param(b'quarter,GS10\n1990:Q1,"8.0\n"\n1990:Q2,x\n', "3: bad value 'x' in column GS10",
                 id="multi-line-cell-is-one-record"),
    pytest.param(b"quarter,GS10\n1990:Q9\n", "2: expected 2 fields, got 1", id="field-count-before-quarter"),
    pytest.param(b"quarter,GS10\n1990:Q9,x\n", "2: quarter out of range 1..4 in '1990:Q9'",
                 id="quarter-before-cells"),
    pytest.param(b"quarter,GS10\n1990:Q1,8.0\n1990Q1,x\n", "3: duplicate quarter 1990:Q1",
                 id="duplicate-quarter-before-cells"),
    pytest.param(b"quarter,GS10,SP500\n1990:Q1,x,inf\n", "2: bad value 'x' in column GS10",
                 id="bad-cell-before-a-later-non-finite-one"),
    pytest.param(b"quarter,GS10,SP500\n1990:Q1,nan,x\n", "2: non-finite value 'nan' in column GS10",
                 id="non-finite-cell-before-a-later-bad-one"),
    pytest.param(b"quarter,GS10\n1990:Q1,x\n1990:Q2,\xff\n", "2: bad value 'x' in column GS10",
                 id="fault-before-a-later-byte"),
    pytest.param(b"quarter,GS10\n1990:Q1,8.0\n1990:Q1,8.0\n1990:Q2," + OVERSIZED + b"\n",
                 "3: duplicate quarter 1990:Q1", id="fault-before-a-later-oversized-field"),
])
def test_factor_reader_fault_names_the_record(tmp_path, text, message):
    path = tmp_path / "factors.csv"
    path.write_bytes(text)
    with pytest.raises(IngestionError) as exc:
        load_factor_table(path, {"GS10": "log_level", "SP500": "log_level"})
    assert str(exc.value) == f"{path}:{message}"


@pytest.mark.parametrize("text", [b'{"GS10": "log_level"', b'{"GS10": "log_level\xff"}', b""],
                         ids=["truncated", "byte", "empty"])
def test_transform_config_that_is_not_json_names_the_path(tmp_path, text):
    path = tmp_path / "transforms.json"
    path.write_bytes(text)
    with pytest.raises(IngestionError) as exc:
        load_transform_config(path)
    assert str(exc.value).startswith(f"{path}: not UTF-8 JSON: ")

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
    write_csv_atomic(path, ["a", "b"], [[1.5, 2], [float("nan"), "z"]])
    assert path.read_text() == "a,b\n1.5,\n2,z\n"
    assert [p.name for p in path.parent.iterdir()] == ["x.csv"]


def test_write_csv_atomic_failure_leaves_no_partial(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("boom")

    # The bad cell sits in the second block, after the first has been written.
    column = [1.0] * hio.WRITE_BLOCK_ROWS + [Unprintable()]
    path = tmp_path / "x.csv"
    with pytest.raises(RuntimeError):
        write_csv_atomic(path, ["a"], [column])
    assert list(tmp_path.iterdir()) == []


def test_write_csv_atomic_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="2 header names but 1 columns"):
        write_csv_atomic(tmp_path / "x.csv", ["a", "b"], [[1]])
    with pytest.raises(ValueError, match="differ in length"):
        write_csv_atomic(tmp_path / "x.csv", ["a", "b"], [[1], [1, 2]])
    assert list(tmp_path.iterdir()) == []


# Cells that need csv quoting or that format specially.
TEXT = st.text(st.sampled_from(list('ab ,"\'\n\r\t;é')) | st.characters(blacklist_categories=("Cs",)),
               max_size=6)
FLOAT = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 1e300])
INT = st.integers(-2**63, 2**63 - 1)


@st.composite
def columns(draw, n_rows):
    """One column of n_rows and the reference cells format_value gives for it."""
    kind = draw(st.sampled_from(["float", "int", "bool", "labels", "quarters", "other"]))
    if kind == "float":
        column = np.array(draw(st.lists(FLOAT, min_size=n_rows, max_size=n_rows)), dtype=float)
    elif kind == "int":
        column = np.array(draw(st.lists(INT, min_size=n_rows, max_size=n_rows)), dtype=np.int64)
    elif kind == "bool":
        column = np.array(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)), dtype=bool)
    elif kind == "labels":
        values = draw(st.lists(TEXT, min_size=1, max_size=4))
        codes = draw(st.lists(st.integers(0, len(values) - 1), min_size=n_rows, max_size=n_rows))
        column = Labels(np.array(codes, dtype=int), values)
        return column, [format_value(values[c]) for c in codes]
    elif kind == "quarters":
        codes = draw(st.lists(st.integers(7600, 8100), min_size=n_rows, max_size=n_rows))
        return hio.quarter_labels(codes), [str(QuarterIndex.from_code(c)) for c in codes]
    else:
        column = draw(st.lists(TEXT | FLOAT | INT | st.booleans() | st.none(), min_size=n_rows, max_size=n_rows))
    return column, [format_value(v) for v in column]


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 12))
    cols = draw(st.lists(columns(n_rows), min_size=1, max_size=5))
    header = draw(st.lists(TEXT, min_size=len(cols), max_size=len(cols)))
    return header, [c for c, _ in cols], [cells for _, cells in cols]


def csv_writer_text(rows) -> str:
    """csv.writer's text for ``rows`` with LF line ends, quoting a field that
    holds a CR as Python 3.12+ does: each row is written with a CRLF line end,
    which makes any Python quote CR and LF, and the CRLF is then cut to LF."""
    lines = []
    for row in rows:
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(row)
        lines.append(line.getvalue()[:-2] + "\n")
    return "".join(lines)


def test_csv_writer_text_quotes_cr():
    assert csv_writer_text([["North\rEast", "a,b", 'q"'], [""]]) == '"North\rEast","a,b","q"""\n""\n'


@settings(max_examples=300, deadline=None)
@given(table=tables(), block_rows=st.integers(1, 5))
def test_write_csv_atomic_matches_csv_writer(table, block_rows):
    header, cols, cells = table
    expected = csv_writer_text([header, *zip(*cells)])
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(hio, "WRITE_BLOCK_ROWS", block_rows)
        path = Path(tmp) / "x.csv"
        write_csv_atomic(path, header, cols)
        assert path.read_bytes() == expected.encode("utf-8")


def test_name_with_a_carriage_return_loads_back(tmp_path):
    panel = IndexPanel([MsaInfo("A", "North\rEast", "CA"), MsaInfo("B", "South", "OH")], Q0,
                       [[100.0, 50.0], [101.0, 51.0]])
    path = tmp_path / "hpi.csv"
    write_hpi_csv(path, panel)
    assert b'"North\rEast"' in path.read_bytes()
    back = load_hpi_panel(path)
    assert back.msas == panel.msas
    assert np.array_equal(back.values, panel.values)


def test_write_csv_atomic_zero_rows(tmp_path):
    path = tmp_path / "x.csv"
    write_csv_atomic(path, ["a", "b,c"], [np.empty(0), Labels(np.empty(0, dtype=int), ["x"])])
    assert path.read_text() == 'a,"b,c"\n'


def test_write_json_atomic_canonical(tmp_path):
    path = tmp_path / "x.json"
    write_json_atomic(path, {"b": 1, "a": [1, 2]})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')  # sorted keys
    write_json_atomic(path, {"b": 1, "a": [1, 2]})
    assert path.read_text() == text  # rewrite is byte-stable
