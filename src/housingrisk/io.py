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
import tempfile
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import (
    FactorTable,
    IndexPanel,
    MsaInfo,
    QuarterIndex,
    parse_quarter,
    transform_factor,
)
from .errors import IngestionError, QuarterParseError

HPI_HEADER = ["msa_id", "msa_name", "state", "quarter", "index"]


READ_BLOCK_ROWS = 4096  # records parsed together by load_hpi_panel


def _record_blocks(reader, size: int):
    """Lists of up to ``size`` records from ``reader``.

    An error in the reader is raised only after the records read before it
    have been yielded, so a fault in one of those records is reported first.
    """
    block = []
    try:
        for row in reader:
            block.append(row)
            if len(block) == size:
                yield block
                block = []
    except (csv.Error, ValueError):  # ValueError covers UnicodeDecodeError
        yield block
        raise
    if block:
        yield block


def load_hpi_panel(path: str | Path) -> IndexPanel:
    """Load an index panel from the HPI CSV schema.

    Leading missingness is allowed (series start late); interior gaps and
    duplicate (MSA, quarter) keys are hard errors. A record's error names
    its csv record number, the earliest faulty record wins, and a gap is
    reported only once every record has passed. An MSA keeps the name and
    state of its first record. Records are checked in blocks: each distinct
    id and quarter cell is parsed once, and the levels are converted and
    checked as arrays.
    """
    path = Path(path)
    infos: dict[str, MsaInfo] = {}
    msa_of: dict[str, str] = {}  # msa id cell -> msa id
    quarter_of: dict[str, int | QuarterParseError] = {}  # quarter cell -> code
    seen: set[tuple[str, int]] = set()
    msa_ids, codes, levels = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != HPI_HEADER:
            raise IngestionError(
                f"{path}: expected header {','.join(HPI_HEADER)!r}, got {header}"
            )
        line = 2
        for block in _record_blocks(reader, READ_BLOCK_ROWS):
            kept = list(map(str.strip, map("".join, block)))  # "" for a blank record
            lines = list(compress(range(line, line + len(block)), kept))
            rows = list(compress(block, kept))
            line += len(block)
            # Each check sees only the records before the earliest fault found
            # so far, so the first faulty record wins and a record's checks
            # keep their order.
            n, fault = len(rows), None
            widths = list(map(len, rows))
            if widths.count(5) < n:
                n = next(k for k, width in enumerate(widths) if width != 5)
                fault = f"expected 5 fields, got {widths[n]}"
            msa, name, state, q_text, level_text = zip(*rows[:n]) if n else [()] * 5
            for text in set(msa).difference(msa_of):
                msa_of[text] = text.strip()
            msa = list(map(msa_of.__getitem__, msa))
            texts = set(q_text)
            for text in texts.difference(quarter_of):
                try:
                    quarter_of[text] = parse_quarter(text.strip()).code
                except QuarterParseError as exc:
                    quarter_of[text] = exc
            code = list(map(quarter_of.__getitem__, q_text))
            if not all(isinstance(quarter_of[text], int) for text in texts):
                n = next(k for k, c in enumerate(code) if not isinstance(c, int))
                fault = str(code[n])
            try:
                level = np.fromiter(map(float, level_text[:n]), float, count=n)
            except ValueError:  # a bad level, or padding float() keeps and strip() drops
                level_text = [text.strip() for text in level_text[:n]]
                for bad, text in enumerate(level_text):
                    try:
                        float(text)
                    except ValueError:
                        n, fault = bad, f"bad index value {text!r}"
                        break
                level = np.fromiter(map(float, level_text[:n]), float, count=n)
            bad = np.flatnonzero(~(np.isfinite(level) & (level > 0)))
            if bad.size:
                n = int(bad[0])
                fault = f"non-positive index level {float(level[n])} for {msa[n]}"
            keys = list(zip(msa[:n], code[:n]))
            fresh = set(keys)
            if len(fresh) < n or not seen.isdisjoint(fresh):
                for n, key in enumerate(keys):  # stops at the first repeated key
                    if key in seen:
                        break
                    seen.add(key)
                fault = f"duplicate ({msa[n]}, {QuarterIndex.from_code(code[n])}) observation"
            if fault is not None:
                raise IngestionError(f"{path}:{lines[n]}: {fault}")
            seen |= fresh
            # Reversed, so each MSA's first record of the block is the one kept.
            for msa_id, (first_name, first_state) in dict(zip(msa[::-1], zip(name[::-1], state[::-1]))).items():
                if msa_id not in infos:
                    infos[msa_id] = MsaInfo(msa_id, first_name.strip(), first_state.strip())
            msa_ids += msa
            codes += code
            levels.append(level)
    if not infos:
        raise IngestionError(f"{path}: no data rows")

    ids = sorted(infos)
    column = {msa_id: j for j, msa_id in enumerate(ids)}
    codes = np.array(codes)
    start = int(codes.min())
    values = np.full((int(codes.max()) + 1 - start, len(ids)), np.nan)
    values[codes - start, list(map(column.__getitem__, msa_ids))] = np.concatenate(levels)
    present = ~np.isnan(values)
    holes = ~present & (np.cumsum(present, axis=0) > 0)  # missing after the MSA's first quarter
    if holes.any():
        j, t = map(int, np.argwhere(holes.T)[0])  # the first MSA in id order, its first hole
        raise IngestionError(
            f"{path}: MSA {ids[j]} missing quarter "
            f"{QuarterIndex.from_code(start + t)} inside its range"
        )
    return IndexPanel([infos[m] for m in ids], QuarterIndex.from_code(start), values)


def load_factor_table(path: str | Path, transforms: Mapping[str, str]) -> FactorTable:
    """Load and transform a wide factor CSV.

    Every factor column must have an entry in ``transforms``. Raw missing
    cells stay missing after transformation (and log_pct_change also loses
    its first available observation).
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
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
        rows: dict[int, list[float]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(factor_ids) + 1:
                raise IngestionError(
                    f"{path}:{lineno}: expected {len(factor_ids) + 1} fields, got {len(row)}"
                )
            try:
                q = parse_quarter(row[0].strip())
            except QuarterParseError as exc:
                raise IngestionError(f"{path}:{lineno}: {exc}") from exc
            if q.code in rows:
                raise IngestionError(f"{path}:{lineno}: duplicate quarter {q}")
            vals = []
            for j, cell in enumerate(row[1:]):
                cell = cell.strip()
                if not cell:
                    vals.append(np.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise IngestionError(
                        f"{path}:{lineno}: bad value {cell!r} in column {factor_ids[j]}"
                    ) from None
                if not math.isfinite(value):
                    raise IngestionError(
                        f"{path}:{lineno}: non-finite value {cell!r} in column {factor_ids[j]}"
                    )
                vals.append(value)
            rows[q.code] = vals
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
    return FactorTable(
        factor_ids,
        QuarterIndex.from_code(start_code),
        out,
        {f: transforms[f] for f in factor_ids},
    )


def load_transform_config(path: str | Path) -> dict[str, str]:
    """Read a JSON factor_id -> transform mapping."""
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in cfg.items()
    ):
        raise IngestionError(f"{path}: transform config must map factor ids to kinds")
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
