"""Quarterly calendar, panel containers, returns, factor transforms, alignment.

Conventions used throughout the toolkit:

* Quarters are identified by ``QuarterIndex`` and rendered as ``"YYYY:Qn"``.
* Returns are log quarterly differences in percent:
  ``100 * ln(level_t / level_{t-1})``, stamped at quarter ``t``.
* Panels store one column per MSA on a shared quarterly grid; cells before
  an MSA's first available quarter are NaN, and each series is contiguous
  from its first observation to the end of the grid.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DomainError,
    IngestionError,
    InsufficientHistoryError,
    QuarterParseError,
)

__all__ = [
    "QuarterIndex",
    "parse_quarter",
    "is_quarter",
    "MsaInfo",
    "IndexPanel",
    "ReturnPanel",
    "FactorTable",
    "AlignedDataset",
    "compute_returns",
    "transform_factor",
    "align",
    "LOG_PCT_CHANGE",
    "LOG_LEVEL",
    "TRANSFORMS",
    "DEFAULT_FACTOR_TRANSFORMS",
]

_QUARTER_RE = re.compile(r"^(\d{4}):?Q([0-9])$")

LOG_PCT_CHANGE = "log_pct_change"
LOG_LEVEL = "log_level"
TRANSFORMS = (LOG_LEVEL, LOG_PCT_CHANGE)  # the names transform_factor knows

# Canonical transform per national factor series. INCOME defaults to the
# differenced form so a trending nominal aggregate does not enter the
# regressions as a non-stationary level; pass income_as_level=True to
# default_factor_transforms() to keep it as a log level instead.
DEFAULT_FACTOR_TRANSFORMS: dict[str, str] = {
    "CNP16OV": LOG_PCT_CHANGE,
    "CPILFESL": LOG_PCT_CHANGE,
    "INDPRO": LOG_PCT_CHANGE,
    "PAYEMS": LOG_PCT_CHANGE,
    "PPIITM": LOG_PCT_CHANGE,
    "SP500": LOG_PCT_CHANGE,
    "FEDFUNDS": LOG_LEVEL,
    "GS10": LOG_LEVEL,
    "PERMIT1": LOG_LEVEL,
    "UMCSENT": LOG_LEVEL,
    "UNRATE": LOG_LEVEL,
    "INCOME": LOG_PCT_CHANGE,
}


def default_factor_transforms(income_as_level: bool = False) -> dict[str, str]:
    """Canonical factor-id -> transform map, with the INCOME variant toggle."""
    transforms = dict(DEFAULT_FACTOR_TRANSFORMS)
    if income_as_level:
        transforms["INCOME"] = LOG_LEVEL
    return transforms


@dataclass(frozen=True, order=True)
class QuarterIndex:
    """A calendar quarter, totally ordered, successor of (y, 4) is (y+1, 1)."""

    year: int
    quarter: int

    def __post_init__(self):
        if not 1 <= self.quarter <= 4:
            raise QuarterParseError(f"quarter out of range 1..4: {self.quarter!r}")

    @property
    def code(self) -> int:
        """Integer position on the quarterly grid (year*4 + quarter-1)."""
        return self.year * 4 + self.quarter - 1

    @classmethod
    def from_code(cls, code: int) -> "QuarterIndex":
        return cls(code // 4, code % 4 + 1)

    def __add__(self, n: int) -> "QuarterIndex":
        return QuarterIndex.from_code(self.code + int(n))

    def __sub__(self, other):
        if isinstance(other, QuarterIndex):
            return self.code - other.code
        return QuarterIndex.from_code(self.code - int(other))

    def __str__(self) -> str:
        return f"{self.year:04d}:Q{self.quarter}"

    def __repr__(self) -> str:
        return f"QuarterIndex({self})"


def parse_quarter(text: str) -> QuarterIndex:
    """Parse ``"YYYY:Qn"`` or ``"YYYYQn"`` into a :class:`QuarterIndex`.

    Formatting the result with ``str()`` reproduces the canonical
    ``"YYYY:Qn"`` form.
    """
    m = _QUARTER_RE.match(text.strip())
    if m is None:
        raise QuarterParseError(f"malformed quarter string: {text!r}")
    year, q = int(m.group(1)), int(m.group(2))
    if not 1 <= q <= 4:
        raise QuarterParseError(f"quarter out of range 1..4 in {text!r}")
    return QuarterIndex(year, q)


def is_quarter(value) -> bool:
    """True for a string that ``parse_quarter`` accepts."""
    try:
        return isinstance(value, str) and parse_quarter(value) is not None
    except QuarterParseError:
        return False


@dataclass(frozen=True)
class MsaInfo:
    """Identifier, display name, and two-letter state for one MSA."""

    msa_id: str
    name: str
    state: str


class _Panel:
    """Shared storage for index and return panels.

    ``values`` is (n_quarters, n_msas) with NaN strictly before each MSA's
    first observation; every series runs through the last grid quarter.
    Construction checks this layout, one MSA after another in column
    order, and raises ValueError at the first MSA that breaks it.
    """

    def __init__(self, msas: Sequence[MsaInfo], start: QuarterIndex, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(msas):
            raise ValueError("values must be (n_quarters, n_msas)")
        ids = [m.msa_id for m in msas]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate msa_id in panel")
        self.msas = tuple(msas)
        self.start = start
        self.values = values
        self._col = {m.msa_id: j for j, m in enumerate(self.msas)}
        self.first_offsets = self._check_contiguity()

    def _check_contiguity(self) -> np.ndarray:
        n_q = self.values.shape[0]
        offsets = np.empty(len(self.msas), dtype=int)
        for j, msa in enumerate(self.msas):
            present = ~np.isnan(self.values[:, j])
            if not present.any():
                raise ValueError(f"MSA {msa.msa_id} has no observations")
            first = int(np.argmax(present))
            if not present[first:].all():
                gap = first + int(np.argmin(present[first:]))
                raise ValueError(
                    f"MSA {msa.msa_id} missing quarter {self.start + gap} inside its range"
                )
            offsets[j] = first
        if n_q == 0:
            raise ValueError("empty panel")
        return offsets

    @property
    def n_quarters(self) -> int:
        return self.values.shape[0]

    @property
    def n_msas(self) -> int:
        return len(self.msas)

    @property
    def end(self) -> QuarterIndex:
        return self.start + (self.n_quarters - 1)

    def msa_ids(self) -> list[str]:
        return [m.msa_id for m in self.msas]

    def column(self, msa_id: str) -> int:
        try:
            return self._col[msa_id]
        except KeyError:
            raise KeyError(f"unknown MSA id {msa_id!r}") from None

    def info(self, msa_id: str) -> MsaInfo:
        return self.msas[self.column(msa_id)]

    def first_quarter(self, msa_id: str) -> QuarterIndex:
        return self.start + int(self.first_offsets[self.column(msa_id)])

    def series(self, msa_id: str) -> tuple[QuarterIndex, np.ndarray]:
        """(first quarter, contiguous values) for one MSA."""
        j = self.column(msa_id)
        off = int(self.first_offsets[j])
        return self.start + off, self.values[off:, j]


class IndexPanel(_Panel):
    """Quarterly house-price index levels per MSA; all stored levels > 0."""

    def __init__(self, msas, start, values):
        super().__init__(msas, start, values)
        bad = np.asarray(self.values <= 0) & ~np.isnan(self.values)
        if bad.any():
            t, j = map(int, np.argwhere(bad)[0])
            raise DomainError(
                f"non-positive index level for MSA {self.msas[j].msa_id} "
                f"at {self.start + t}: {self.values[t, j]}"
            )


class ReturnPanel(_Panel):
    """Log quarterly returns in percent; one fewer observation per MSA than
    its index series."""


def compute_returns(panel: IndexPanel) -> ReturnPanel:
    """Per-MSA log quarterly returns in percent.

    ``return_t = 100 * ln(level_t / level_{t-1})`` for each consecutive pair
    within an MSA's available range, stamped at quarter ``t``. An MSA with a
    single level has no return and raises InsufficientHistoryError; a level
    ratio that overflows or underflows raises IngestionError.
    """
    single = np.flatnonzero(panel.first_offsets == panel.n_quarters - 1)
    if single.size:
        raise InsufficientHistoryError(
            f"MSA {panel.msas[single[0]].msa_id} has a single index level ({panel.end}), so no return"
        )
    levels = panel.values
    with np.errstate(all="ignore"):
        rets = 100.0 * np.log(levels[1:] / levels[:-1])
    bad = np.isinf(rets)
    if bad.any():
        t, j = map(int, np.argwhere(bad)[0])
        raise IngestionError(
            f"MSA {panel.msas[j].msa_id}: return at {panel.start + t + 1} is out of float range "
            f"(levels {levels[t, j]} then {levels[t + 1, j]})"
        )
    return ReturnPanel(panel.msas, panel.start + 1, rets)


def transform_factor(raw: Sequence[float], spec: str) -> np.ndarray:
    """Apply one factor transform to a raw series.

    ``log_pct_change`` yields ``100*ln(x_t/x_{t-1})`` (one fewer value);
    ``log_level`` yields ``ln(x_t)``. Missing raw observations (NaN) yield
    missing transformed observations, never a silent zero. A ratio that
    overflows or underflows raises DomainError.
    """
    x = np.asarray(raw, dtype=float)
    bad = (x <= 0) & ~np.isnan(x)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"non-positive value {x[i]} at position {i} under {spec}")
    if spec == LOG_LEVEL:
        with np.errstate(invalid="ignore"):
            return np.log(x)
    if spec == LOG_PCT_CHANGE:
        if x.size < 2:
            raise DomainError("log_pct_change needs at least 2 observations")
        with np.errstate(all="ignore"):
            out = 100.0 * np.log(x[1:] / x[:-1])
        bad = np.isinf(out)
        if bad.any():
            i = int(np.argmax(bad)) + 1
            raise DomainError(
                f"value {x[i]} at position {i} after {x[i - 1]} is out of float range under {spec}"
            )
        return out
    raise ValueError(f"unknown transform spec {spec!r}")


class FactorTable:
    """Transformed national factor series on a shared quarterly grid.

    ``values`` is (n_quarters, n_factors); NaN marks missing observations.
    """

    def __init__(self, factor_ids: Sequence[str], start: QuarterIndex, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(factor_ids):
            raise ValueError("values must be (n_quarters, n_factors)")
        if len(set(factor_ids)) != len(factor_ids):
            raise ValueError("duplicate factor id")
        self.factor_ids = tuple(factor_ids)
        self.start = start
        self.values = values

    @property
    def n_quarters(self) -> int:
        return self.values.shape[0]

    @property
    def end(self) -> QuarterIndex:
        return self.start + (self.n_quarters - 1)


@dataclass(frozen=True)
class AlignedDataset:
    """One MSA's returns paired row-wise with the factor matrix.

    Rows cover the quarters of the common range where the return and every
    factor are present; ``dropped`` logs each excluded quarter and why.
    """

    msa_id: str
    quarter_codes: np.ndarray
    y: np.ndarray
    X: np.ndarray
    factor_ids: tuple[str, ...]
    dropped: tuple[tuple[QuarterIndex, str], ...] = field(default=())

    @property
    def n_rows(self) -> int:
        return self.y.shape[0]


def align(
    msa_id: str,
    return_quarters: Sequence[QuarterIndex] | np.ndarray,
    returns: Sequence[float],
    factors: FactorTable,
) -> AlignedDataset:
    """Pair one MSA's returns with the factor matrix over their common range.

    ``return_quarters`` may be QuarterIndex objects or integer codes and does
    not need to be contiguous (so an already-aligned dataset can be aligned
    again; doing so drops zero rows).
    """
    if isinstance(return_quarters, np.ndarray) and return_quarters.dtype.kind in "iu":
        codes = return_quarters.astype(int)
    else:
        codes = np.asarray(
            [q.code if isinstance(q, QuarterIndex) else int(q) for q in return_quarters],
            dtype=int,
        )
    y = np.asarray(returns, dtype=float)
    if codes.shape != y.shape:
        raise ValueError("return_quarters and returns must have equal length")
    f_start, f_end = factors.start.code, factors.end.code
    in_range = (codes >= f_start) & (codes <= f_end)
    if not in_range.any():
        raise AlignmentError(
            f"no overlap between returns of {msa_id} and the factor table"
        )
    codes = codes[in_range]
    y = y[in_range]
    F = factors.values[codes - f_start, :]

    y_missing = np.isnan(y)
    f_missing = np.isnan(F)
    keep = ~(y_missing | f_missing.any(axis=1))
    dropped: list[tuple[QuarterIndex, str]] = []
    for i in np.flatnonzero(~keep):
        reasons = ["missing return"] if y_missing[i] else []
        if f_missing[i].any():
            missing_ids = [factors.factor_ids[j] for j in np.flatnonzero(f_missing[i])]
            reasons.append("missing factor " + ",".join(missing_ids))
        dropped.append((QuarterIndex.from_code(int(codes[i])), "; ".join(reasons)))
    if not keep.any():
        raise AlignmentError(
            f"all {codes.size} overlapping quarters of {msa_id} are incomplete"
        )
    return AlignedDataset(
        msa_id=msa_id,
        quarter_codes=codes[keep],
        y=y[keep],
        X=F[keep, :],
        factor_ids=factors.factor_ids,
        dropped=tuple(dropped),
    )
