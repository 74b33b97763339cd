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
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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


def load_hpi_panel(path: str | Path) -> IndexPanel:
    """Load an index panel from the HPI CSV schema.

    Leading missingness is allowed (series start late); interior gaps and
    duplicate (MSA, quarter) keys are hard errors reported with row numbers.
    """
    path = Path(path)
    series: dict[str, dict[int, float]] = {}
    infos: dict[str, MsaInfo] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != HPI_HEADER:
            raise IngestionError(
                f"{path}: expected header {','.join(HPI_HEADER)!r}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 5:
                raise IngestionError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            msa_id, name, state, q_text, level_text = (c.strip() for c in row)
            try:
                q = parse_quarter(q_text)
            except QuarterParseError as exc:
                raise IngestionError(f"{path}:{lineno}: {exc}") from exc
            try:
                level = float(level_text)
            except ValueError:
                raise IngestionError(
                    f"{path}:{lineno}: bad index value {level_text!r}"
                ) from None
            if level <= 0 or not np.isfinite(level):
                raise IngestionError(
                    f"{path}:{lineno}: non-positive index level {level} for {msa_id}"
                )
            per = series.setdefault(msa_id, {})
            if q.code in per:
                raise IngestionError(
                    f"{path}:{lineno}: duplicate ({msa_id}, {q}) observation"
                )
            per[q.code] = level
            infos.setdefault(msa_id, MsaInfo(msa_id, name, state))
    if not series:
        raise IngestionError(f"{path}: no data rows")

    end_code = max(max(per) for per in series.values())
    contiguous: dict[str, tuple[QuarterIndex, list[float]]] = {}
    for msa_id in sorted(series):
        per = series[msa_id]
        first = min(per)
        for code in range(first, end_code + 1):
            if code not in per:
                raise IngestionError(
                    f"{path}: MSA {msa_id} missing quarter "
                    f"{QuarterIndex.from_code(code)} inside its range"
                )
        contiguous[msa_id] = (
            QuarterIndex.from_code(first),
            [per[c] for c in range(first, end_code + 1)],
        )
    return IndexPanel.from_series(contiguous, infos)


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


def write_csv_atomic(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV via temp-file-then-rename so readers never see partials."""
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(c) for c in row])

    _write_atomic(path, "", write)


def write_json_atomic(path: str | Path, obj) -> None:
    """Write canonical JSON (sorted keys, LF) via temp-then-rename."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    _write_atomic(path, "\n", lambda fh: fh.write(text))


def write_hpi_csv(path: str | Path, panel: IndexPanel) -> None:
    """Emit an index panel in the HPI CSV schema."""
    def rows():
        for msa in panel.msas:
            first, values = panel.series(msa.msa_id)
            for k, v in enumerate(values):
                yield [msa.msa_id, msa.name, msa.state, str(first + k), format_value(v)]

    write_csv_atomic(path, HPI_HEADER, rows())


def write_factor_csv(path: str | Path, factor_ids: Sequence[str],
                     start: QuarterIndex, raw_values: np.ndarray) -> None:
    """Emit raw factor levels in the wide factor CSV schema."""
    def rows():
        for t in range(raw_values.shape[0]):
            yield [str(start + t)] + [format_value(v) for v in raw_values[t]]

    write_csv_atomic(path, ["quarter"] + list(factor_ids), rows())
