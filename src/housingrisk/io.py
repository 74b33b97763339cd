"""CSV ingestion and deterministic file output.

Input schemas:

* HPI CSV: header ``msa_id,msa_name,state,quarter,index``, one row per
  (MSA, quarter), quarter as ``YYYY:Qn``.
* Factor CSV: header ``quarter,<factor_id>,...`` wide format, empty cell =
  missing raw observation, non-finite cells (``inf``, ``nan``) rejected; a
  companion config maps factor_id -> transform.

All emitted files are UTF-8 with LF line endings, '.' decimal separator,
and no thousands separators.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import tempfile
from array import array
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import (
    FactorTable,
    IndexPanel,
    MsaInfo,
    QuarterIndex,
    TRANSFORMS,
    parse_quarter,
    transform_factor,
)
from .errors import IngestionError, QuarterParseError
from .schema import ANY_KEY, Key, faults, read_json

HPI_HEADER = ["msa_id", "msa_name", "state", "quarter", "index"]


_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, as surrogateescape reads it


def _records(path: Path):
    """The header of the csv file ``path``, then ``(record number, fields)`` for each record that is not blank.

    The header is record 1, and a blank record (white space only) is
    skipped but counted. A record holding a byte that is not UTF-8, or one
    that csv cannot read (a field over the field size limit), raises an
    IngestionError naming the path and the record number.
    """
    number = 0
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            for number, row in enumerate(csv.reader(fh), start=1):
                text = "".join(row)
                if not text.isascii() and _NOT_UTF8.search(text):
                    raise IngestionError(f"{path}:{number}: not valid UTF-8")
                if number == 1:
                    yield row
                elif text.strip():
                    yield number, row
        except csv.Error as exc:
            raise IngestionError(f"{path}:{number + 1}: {exc}") from None


class _Parsed(dict):
    """Cell text -> ``parse(text)``, each distinct text parsed once."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, text: str):
        value = self[text] = self.parse(text)
        return value


def _quarter_code(cell: str) -> int:
    """The code of a quarter cell; QuarterParseError names its stripped text."""
    return parse_quarter(cell.strip()).code


class _RecordFault(Exception):
    """A record breaks a rule of its file; the loader reports it as ``path:N: <message>``."""


def load_hpi_panel(path: str | Path) -> IndexPanel:
    """Load an index panel from the HPI CSV schema.

    Leading missingness is allowed (series start late); interior gaps and
    duplicate (MSA, quarter) keys are hard errors. Records are checked in
    file order, so the first faulty record is the one reported, by its csv
    record number; a gap is reported, by the panel's layout check, only
    once every record has passed. An MSA keeps the name and state of its
    first record.
    """
    path = Path(path)
    with closing(_records(path)) as records:
        header = next(records, None)
        if header is None or [h.strip() for h in header] != HPI_HEADER:
            raise IngestionError(
                f"{path}: expected header {','.join(HPI_HEADER)!r}, got {header}"
            )
        infos: dict[str, MsaInfo] = {}
        msa_of = _Parsed(str.strip)  # msa id cell -> msa id, one string per id
        quarter_of = _Parsed(_quarter_code)
        seen: dict[str, set[int]] = {}  # msa id -> the quarter codes read for it
        msa_ids, codes, levels = [], array("q"), array("d")
        try:
            for number, row in records:
                if len(row) != 5:
                    raise _RecordFault(f"expected 5 fields, got {len(row)}")
                msa, name, state, code, level = row
                msa = msa_of[msa]
                if not msa:
                    raise _RecordFault("empty msa_id")
                code, level = quarter_of[code], level.strip()
                try:
                    value = float(level)  # of the stripped text: float() keeps \x1c-\x1f padding
                except ValueError:
                    raise _RecordFault(f"bad index value {level!r}") from None
                if not (math.isfinite(value) and value > 0):
                    raise _RecordFault(f"non-positive index level {value} for {msa}")
                if msa not in infos:
                    infos[msa], seen[msa] = MsaInfo(msa, name.strip(), state.strip()), set()
                if code in seen[msa]:
                    raise _RecordFault(f"duplicate ({msa}, {QuarterIndex.from_code(code)}) observation")
                seen[msa].add(code)
                msa_ids.append(msa)
                codes.append(code)
                levels.append(value)
        except (_RecordFault, QuarterParseError) as exc:
            raise IngestionError(f"{path}:{number}: {exc}") from None
    if not infos:
        raise IngestionError(f"{path}: no data rows")

    ids = sorted(infos)
    column = {msa_id: j for j, msa_id in enumerate(ids)}
    codes = np.frombuffer(codes, dtype=np.int64)
    start = int(codes.min())
    values = np.full((int(codes.max()) + 1 - start, len(ids)), np.nan)
    values[codes - start, list(map(column.__getitem__, msa_ids))] = np.frombuffer(levels)
    try:
        return IndexPanel([infos[m] for m in ids], QuarterIndex.from_code(start), values)
    except ValueError as exc:  # the first MSA in id order with a missing quarter inside its range
        raise IngestionError(f"{path}: {exc}") from None


def load_factor_table(path: str | Path, transforms: Mapping[str, str]) -> FactorTable:
    """Load and transform a wide factor CSV.

    Every factor column must have an entry in ``transforms``. Records are
    checked in file order, as in ``load_hpi_panel``. Raw missing cells stay
    missing after transformation (and log_pct_change also loses its first
    available observation).
    """
    path = Path(path)
    with closing(_records(path)) as records:
        header = next(records, None)
        if not header or header[0].strip() != "quarter" or len(header) < 2:
            raise IngestionError(f"{path}: expected header 'quarter,<factor_id>...'")
        factor_ids = [h.strip() for h in header[1:]]
        if len(set(factor_ids)) != len(factor_ids):
            raise IngestionError(f"{path}: duplicate factor column")
        missing_spec = [f for f in factor_ids if f not in transforms]
        if missing_spec:
            raise IngestionError(
                f"{path}: no transform configured for {', '.join(missing_spec)}"
            )
        quarter_of = _Parsed(_quarter_code)
        rows: dict[int, list[float]] = {}
        try:
            for number, row in records:
                if len(row) != len(factor_ids) + 1:
                    raise _RecordFault(f"expected {len(factor_ids) + 1} fields, got {len(row)}")
                code = quarter_of[row[0]]
                if code in rows:
                    raise _RecordFault(f"duplicate quarter {QuarterIndex.from_code(code)}")
                rows[code] = vals = []
                for fid, cell in zip(factor_ids, row[1:]):
                    cell = cell.strip()
                    try:
                        value = float(cell) if cell else np.nan  # an empty cell is missing
                    except ValueError:
                        raise _RecordFault(f"bad value {cell!r} in column {fid}") from None
                    if cell and not math.isfinite(value):
                        raise _RecordFault(f"non-finite value {cell!r} in column {fid}")
                    vals.append(value)
        except (_RecordFault, QuarterParseError) as exc:
            raise IngestionError(f"{path}:{number}: {exc}") from None
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    start_code, end_code = min(rows), max(rows)
    missing_q = [c for c in range(start_code, end_code + 1) if c not in rows]
    if missing_q:
        raise IngestionError(
            f"{path}: missing quarter row {QuarterIndex.from_code(missing_q[0])}"
        )
    raw = np.array([rows[c] for c in range(start_code, end_code + 1)], dtype=float)

    n_q = raw.shape[0]
    out = np.full((n_q, len(factor_ids)), np.nan)
    for j, fid in enumerate(factor_ids):
        spec = transforms[fid]
        col = raw[:, j]
        try:
            transformed = transform_factor(col, spec)
        except Exception as exc:
            raise IngestionError(f"{path}: column {fid}: {exc}") from exc
        if transformed.shape[0] == n_q:
            out[:, j] = transformed
        else:  # log_pct_change loses the first observation
            out[1:, j] = transformed
    return FactorTable(factor_ids, QuarterIndex.from_code(start_code), out)


# A transforms file maps each factor id to the name of its transform.
TRANSFORM_KEYS = {ANY_KEY: Key(f"one of {TRANSFORMS}", TRANSFORMS.__contains__)}


def load_transform_config(path: str | Path) -> dict[str, str]:
    """Read a JSON factor_id -> transform mapping."""
    try:
        cfg = read_json(path)
    except ValueError as exc:
        raise IngestionError(f"{path}: not UTF-8 JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise IngestionError(f"{path}: transform config must map factor ids to kinds")
    problems = faults(TRANSFORM_KEYS, cfg)
    if problems:
        raise IngestionError(f"{path}: " + "; ".join(problems))
    return cfg


def format_value(x) -> str:
    """Canonical cell rendering: floats as ``%.10g`` (10 significant digits), blank NaN."""
    if isinstance(x, (float, np.floating)):
        if np.isnan(x):
            return ""
        return format(float(x), ".10g")
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    return str(x)


@dataclass(frozen=True)
class Labels:
    """A text column held as ``values[codes]``: each distinct value is formatted once."""

    codes: np.ndarray  # one index into values per row
    values: Sequence

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows) -> "Labels":
        return Labels(self.codes[rows], self.values)

    @classmethod
    def repeat(cls, values: Sequence, counts) -> "Labels":
        """``values[0]`` ``counts[0]`` times, then ``values[1]`` ``counts[1]`` times, and so on."""
        return cls(np.repeat(np.arange(len(values)), np.asarray(counts, dtype=int)), values)


def quarter_labels(codes) -> Labels:
    """A quarter column: one ``YYYY:Qn`` text per code from the lowest code to the highest."""
    codes = np.asarray(codes, dtype=int)
    lo, hi = (int(codes.min()), int(codes.max())) if codes.size else (0, -1)
    return Labels(codes - lo, [str(QuarterIndex.from_code(c)) for c in range(lo, hi + 1)])


WRITE_BLOCK_ROWS = 2048  # rows formatted and written together by write_csv_atomic
_QUOTED_CHARS = frozenset(',"\r\n')  # a field with none of these is written as it is


def _csv_field(text: str) -> str:
    """``text`` as one field of a csv row of more than one field.

    A field holding a comma, quote, CR or LF is quoted, its quotes doubled,
    as ``csv.writer`` does on Python 3.12+. (On 3.11 ``csv.writer`` with an
    LF line end leaves a lone CR unquoted, and ``csv.reader`` then ends the
    record there.)
    """
    if _QUOTED_CHARS.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _float_cells(values: np.ndarray) -> list[str]:
    cells = list(map("%.10g".__mod__, values.tolist()))
    for k in np.flatnonzero(np.isnan(values)).tolist():
        cells[k] = ""
    return cells


def _cell_formatter(column):
    """A function giving the csv fields of a slice of rows of ``column``."""
    if isinstance(column, Labels):
        fields = np.array([_csv_field(format_value(v)) for v in column.values], dtype=object)
        return lambda rows: fields[column.codes[rows]].tolist()
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":
        return lambda rows: _float_cells(column[rows])
    if kind in ("i", "u"):
        return lambda rows: list(map(str, column[rows].tolist()))
    if kind == "b":
        return lambda rows: ["1" if v else "0" for v in column[rows].tolist()]
    return lambda rows: [_csv_field(format_value(v)) for v in column[rows]]


def _write_atomic(path: str | Path, newline: str, write) -> None:
    """Call ``write(fh)`` on a temp file beside ``path``, then rename it to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline=newline, encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write a CSV, one column per header name, via temp-file-then-rename.

    Each column is formatted as a whole, in blocks of ``WRITE_BLOCK_ROWS``
    rows: a float array as ``%.10g`` with NaN blank, an int array with
    ``str``, a bool array as 1/0, a :class:`Labels` column through one
    formatted text per distinct value, and any other sequence through
    ``format_value`` cell by cell. The bytes are those of ``csv.writer``
    (LF line ends) over ``format_value`` cells, with a field that holds a
    CR quoted as on Python 3.12+ (see ``_csv_field``).
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names but {len(columns)} columns")
    n_rows = len(columns[0]) if columns else 0
    if any(len(column) != n_rows for column in columns):
        raise ValueError("columns differ in length")
    cells = [_cell_formatter(column) for column in columns]

    def text(records) -> str:
        lines = [",".join(fields) for fields in records]
        if len(cells) == 1:  # a lone empty field is quoted
            lines = [line or '""' for line in lines]
        return "\n".join(lines) + "\n"

    def write(fh):
        fh.write(text([[_csv_field(str(name)) for name in header]]))
        for lo in range(0, n_rows, WRITE_BLOCK_ROWS):
            rows = slice(lo, lo + WRITE_BLOCK_ROWS)
            fh.write(text(zip(*(f(rows) for f in cells))))

    _write_atomic(path, "", write)


def write_json_atomic(path: str | Path, obj) -> None:
    """Write canonical JSON (sorted keys, LF) via temp-then-rename."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    _write_atomic(path, "\n", lambda fh: fh.write(text))


def write_hpi_csv(path: str | Path, panel: IndexPanel) -> None:
    """Emit an index panel in the HPI CSV schema."""
    present = ~np.isnan(panel.values.T)  # MSA-major, so rows come MSA by MSA
    msa, t = np.nonzero(present)
    write_csv_atomic(path, HPI_HEADER, [
        Labels(msa, [m.msa_id for m in panel.msas]),
        Labels(msa, [m.name for m in panel.msas]),
        Labels(msa, [m.state for m in panel.msas]),
        quarter_labels(panel.start.code + t),
        panel.values.T[present],
    ])


def write_factor_csv(path: str | Path, factor_ids: Sequence[str],
                     start: QuarterIndex, raw_values: np.ndarray) -> None:
    """Emit raw factor levels in the wide factor CSV schema."""
    raw_values = np.asarray(raw_values, dtype=float)
    quarters = quarter_labels(start.code + np.arange(raw_values.shape[0]))
    write_csv_atomic(path, ["quarter"] + list(factor_ids), [quarters, *raw_values.T])
