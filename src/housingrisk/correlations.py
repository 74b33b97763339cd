"""Pairwise return and jump correlations across MSAs.

Contemporaneous return pairs are unordered (i < j); lead pairs correlate
r_i,t with r_j,t+1 over all ordered pairs including i = j. Jump pairs use
the uncentered cosine of jump-masked L statistics (L where the big flag is
set, else zero) over quarters both MSAs are testable and at least one is
nonzero. All pair grids are evaluated with sufficient-statistic matrix
products, so full 384-MSA panels take well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import ReturnPanel
from .errors import ConfigError
from .jumps import JumpSeries
from .regress import _exponent

__all__ = [
    "PairSet",
    "CorrelationSummary",
    "DivisionRow",
    "DIVISION_STATES",
    "DIVISIONS",
    "division_for_state",
    "return_pair_correlations",
    "jump_pair_correlations",
    "correlation_summary",
    "cohort_correlation_report",
]

#: Census-division state lists, California broken out of division 1.
DIVISION_STATES = {
    "D1": ("AK", "HI", "OR", "WA"),
    "D2": ("AZ", "CO", "ID", "MT", "NM", "NV", "UT", "WY"),
    "D3": ("IA", "KS", "MN", "MO", "ND", "NE", "SD"),
    "D4": ("AR", "LA", "OK", "TX"),
    "D5": ("IL", "IN", "MI", "OH", "WI"),
    "D6": ("AL", "KY", "MS", "TN"),
    "D7": ("DC", "DE", "FL", "GA", "MD", "NC", "SC", "VA", "WV"),
    "D8": ("NJ", "NY", "PA"),
    "D9": ("CT", "MA", "ME", "NH", "RI", "VT"),
    "CA": ("CA",),
}

DIVISIONS = tuple(DIVISION_STATES)

_STATE_TO_DIVISION = {
    state: div for div, states in DIVISION_STATES.items() for state in states
}


def division_for_state(state: str) -> str:
    try:
        return _STATE_TO_DIVISION[state.upper()]
    except KeyError:
        raise ConfigError(f"state {state!r} is not in the census-division map") from None


@dataclass(frozen=True, eq=False)
class PairSet:
    """The kept pairs of one kind and timing, held as columns.

    Pair k correlates ``ids[i[k]]`` with ``ids[j[k]]``: ``r`` is clipped to
    [-1, 1], ``n`` is the number of quarters it is measured over and ``t``
    its t statistic. ``len()`` is the number of pairs.
    """

    kind: str  # return | jump
    timing: str  # contemporaneous | lead
    ids: tuple[str, ...]
    i: np.ndarray
    j: np.ndarray
    r: np.ndarray
    n: np.ndarray
    t: np.ndarray

    def __len__(self) -> int:
        return self.r.size


@dataclass(frozen=True)
class CorrelationSummary:
    """Cross-pair moments after an optional per-pair |t| filter.

    ``t_stat`` = mean/(sigma/sqrt(N)); it and the moments are NaN when the
    filtered set is empty or (for t) the sigma is zero.
    """

    kind: str
    timing: str
    threshold: float | None
    n: int
    mean: float
    sigma: float
    t_stat: float
    max: float
    min: float


@dataclass(frozen=True)
class DivisionRow:
    division: str
    kind: str
    timing: str
    n: int
    n_significant: int
    pct_significant: float
    mean_r: float


def _pair_t(r: np.ndarray, n: np.ndarray) -> np.ndarray:
    """t = r * sqrt(n-2) / sqrt(1-r^2); +/-inf at |r| = 1, NaN for n < 3."""
    r = np.clip(r, -1.0, 1.0)
    t = np.full(r.shape, np.nan)
    ok = n >= 3
    with np.errstate(divide="ignore", invalid="ignore"):
        t[ok] = r[ok] * np.sqrt(n[ok] - 2.0) / np.sqrt(1.0 - r[ok] ** 2)
    return t


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-against-column sums with a fixed (non-BLAS) reduction order,
    so outputs are byte-identical regardless of thread count."""
    return np.einsum("ti,tj->ij", a, b, optimize=False)


def _pearson_grids(Za, Ma, Zb, Mb):
    """All-pairs Pearson correlations: (overlap counts, r, ok).

    ``Za``/``Zb`` are zero-filled value arrays, ``Ma``/``Mb`` the matching
    presence masks (floats); column i of the a-side is correlated with
    column j of the b-side over rows where both are present. ``ok`` is
    False where either side's variance over the overlap is zero up to
    rounding.
    """
    N = _mm(Ma, Mb)
    Sa = _mm(Za, Mb)
    Sb = _mm(Ma, Zb)
    Qa = _mm(Za * Za, Mb)
    Qb = _mm(Ma, Zb * Zb)
    P = _mm(Za, Zb)
    with np.errstate(divide="ignore", invalid="ignore"):
        cov = N * P - Sa * Sb
        var_a = N * Qa - Sa**2
        var_b = N * Qb - Sb**2
        r = cov / np.sqrt(var_a * var_b)
    # N·Q and S² each carry a rounding error of up to about N·eps·N·Q (Higham,
    # *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 1 and §4.2),
    # so a variance of at most twice that is zero up to rounding: a constant
    # column must not be kept on the sign of its rounding. Written as "not <="
    # so that a NaN variance keeps its pair.
    floor = 2.0 * np.finfo(float).eps * N * N
    ok = ~((var_a <= floor * Qa) | (var_b <= floor * Qb))
    return N, r, ok


def _pair_set(kind, timing, ids, N, r, ok, floor, short_reason, bad_reason):
    """Split a pair grid into the kept pairs and the omitted ones.

    Contemporaneous pairs are i < j; lead pairs are every ordered pair.
    Both are enumerated in row-major order. A pair is kept when its count
    ``N`` reaches ``floor`` and ``ok`` holds; an omitted pair gets
    ``short_reason`` (formatted with ``n`` and ``floor``) when it is short,
    else ``bad_reason``.
    """
    m = len(ids)
    if timing == "contemporaneous":
        i, j = np.triu_indices(m, 1)
    else:
        i, j = np.divmod(np.arange(m * m), m)
    n = N[i, j].astype(int)
    short = n < floor
    keep = ~short & ok[i, j]
    omitted = []
    for k in np.flatnonzero(~keep).tolist():
        reason = short_reason.format(n=n[k], floor=floor) if short[k] else bad_reason
        omitted.append((ids[i[k]], ids[j[k]], reason))
    r, n = r[i, j][keep], n[keep]
    pairs = PairSet(kind, timing, tuple(ids), i[keep], j[keep], np.clip(r, -1.0, 1.0), n, _pair_t(r, n))
    return pairs, omitted


def return_pair_correlations(
    panel: ReturnPanel,
    timing: str = "contemporaneous",
    min_overlap: int = 8,
) -> tuple[PairSet, list[tuple[str, str, str]]]:
    """Pearson correlations for every MSA pair; returns (pairs, omitted).

    Pairs whose overlap is below ``min_overlap`` or degenerate (zero
    variance) are omitted with a reason.
    """
    if timing not in ("contemporaneous", "lead"):
        raise ValueError(f"unknown timing {timing!r}")
    V = panel.values
    M = np.isfinite(V)
    Z = np.where(M, V, 0.0)
    # Each column over the power of two of regress._exponent, so that no
    # square under- or overflows: r does not depend on a column's scale, and
    # a power of two scales every sum exactly.
    Z = np.ldexp(Z, -_exponent(Z, axis=0))
    Mf = M.astype(float)
    if timing == "contemporaneous":
        N, r, ok = _pearson_grids(Z, Mf, Z, Mf)
    else:
        N, r, ok = _pearson_grids(Z[:-1], Mf[:-1], Z[1:], Mf[1:])
    return _pair_set(
        "return", timing, panel.msa_ids(), N, r, ok, min_overlap,
        "overlap {n} < {floor}", "zero variance over overlap",
    )


def jump_pair_correlations(
    series: JumpSeries,
    timing: str = "contemporaneous",
    min_quarters: int = 4,
) -> tuple[PairSet, list[tuple[str, str, str]]]:
    """Correlations of jump-masked L statistics; returns (pairs, omitted).

    The masked series is L where the big flag is set, else 0. A pair is
    measured over quarters where both MSAs are testable, counting only
    quarters where at least one masked value is nonzero; it needs at least
    ``min_quarters`` such quarters and a positive norm on both sides.
    """
    if timing not in ("contemporaneous", "lead"):
        raise ValueError(f"unknown timing {timing!r}")
    J = np.where(series.big_flag, np.nan_to_num(series.L), 0.0)
    T = series.testable.astype(float)
    A = (J != 0.0).astype(float)
    if timing == "contemporaneous":
        JA, TA, AA = J, T, A
        JB, TB, AB = J, T, A
    else:
        JA, TA, AA = J[:-1], T[:-1], A[:-1]
        JB, TB, AB = J[1:], T[1:], A[1:]

    # Sums over the restricted set equal sums over the common testable
    # range, because excluded quarters contribute only zeros.
    n_eff = _mm(AA, TB) + _mm(TA, AB) - _mm(AA, AB)
    P = _mm(JA, JB)
    Qa = _mm(JA * JA, TB)
    Qb = _mm(TA, JB * JB)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = P / np.sqrt(Qa * Qb)
    return _pair_set(
        "jump", timing, series.ids, n_eff, r, (Qa > 0.0) & (Qb > 0.0),
        min_quarters, "{n} usable quarters < {floor}", "degenerate masked series",
    )


def correlation_summary(
    pairs: PairSet,
    thresholds=(None, 2.0, 3.0),
) -> list[CorrelationSummary]:
    """Cross-pair moment summaries, one per t-stat threshold filter."""
    if not len(pairs):
        raise ValueError("no pairs to summarise")
    out = []
    for thr in thresholds:
        sel = pairs.r if thr is None else pairs.r[pairs.t > thr]
        n = sel.size
        if n == 0:
            out.append(
                CorrelationSummary(pairs.kind, pairs.timing, thr, 0, *(float("nan"),) * 5)
            )
            continue
        mean = float(sel.mean())
        sigma = float(sel.std())
        t = mean / (sigma / np.sqrt(n)) if sigma > 0 else float("nan")
        out.append(
            CorrelationSummary(
                kind=pairs.kind,
                timing=pairs.timing,
                threshold=thr,
                n=n,
                mean=mean,
                sigma=sigma,
                t_stat=float(t),
                max=float(sel.max()),
                min=float(sel.min()),
            )
        )
    return out


def cohort_correlation_report(
    sets: Sequence[PairSet],
    states: Mapping[str, str],
    sig_t: float = 5.0,
) -> list[DivisionRow]:
    """Within-division pair counts, significance shares, and mean r.

    ``states`` maps MSA ids to their states. A pair counts only in the
    division holding both members, so no pair is double-counted, and a
    pair with a member missing from ``states`` counts nowhere. Each set
    is one kind and timing; it gets rows when at least one of its pairs
    has both members in ``states``.
    """
    code = {m: DIVISIONS.index(division_for_state(s)) for m, s in states.items()}
    by_combo = {}  # (kind, timing) -> (division code of each pair or -1, r, t)
    for pairs in sets:
        if (pairs.kind, pairs.timing) in by_combo:
            raise ValueError(f"two pair sets for {pairs.kind}/{pairs.timing}")
        div = np.array([code.get(m, -1) for m in pairs.ids], dtype=int)
        di, dj = div[pairs.i], div[pairs.j]
        if np.any((di >= 0) & (dj >= 0)):
            by_combo[(pairs.kind, pairs.timing)] = (np.where(di == dj, di, -1), pairs.r, pairs.t)
    rows = []
    for d in sorted(set(code.values())):
        for (kind, timing), (pair_div, r, t) in sorted(by_combo.items()):
            sel = pair_div == d
            n = int(sel.sum())
            n_sig = int((t[sel] > sig_t).sum())
            rows.append(
                DivisionRow(
                    division=DIVISIONS[d],
                    kind=kind,
                    timing=timing,
                    n=n,
                    n_significant=n_sig,
                    pct_significant=100.0 * n_sig / n if n else float("nan"),
                    mean_r=float(np.mean(r[sel])) if n else float("nan"),
                )
            )
    return rows
