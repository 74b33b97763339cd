"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from housingrisk import (
    FactorTable,
    IndexPanel,
    MsaInfo,
    QuarterIndex,
    ReturnPanel,
)

Q0 = QuarterIndex(1990, 1)


def panel_from_returns(returns: dict[str, np.ndarray], start: QuarterIndex = Q0,
                       states: dict[str, str] | None = None) -> ReturnPanel:
    """Build a ReturnPanel directly from percent log returns (one shared start)."""
    ids = sorted(returns)
    n = max(len(v) for v in returns.values())
    values = np.full((n, len(ids)), np.nan)
    for j, msa_id in enumerate(ids):
        v = np.asarray(returns[msa_id], dtype=float)
        values[n - len(v):, j] = v  # late starters lead with NaN
    msas = [MsaInfo(i, i, (states or {}).get(i, "")) for i in ids]
    return ReturnPanel(msas, start, values)


def levels_from_returns(rets: np.ndarray, base: float = 100.0) -> np.ndarray:
    """Index levels whose percent log returns are exactly `rets`."""
    levels = np.empty(len(rets) + 1)
    levels[0] = base
    levels[1:] = base * np.exp(np.cumsum(rets) / 100.0)
    return levels


def index_panel(series: dict[str, np.ndarray], start: QuarterIndex = Q0,
                states: dict[str, str] | None = None) -> IndexPanel:
    """An IndexPanel of equal-length level series (one shared start), ids sorted."""
    ids = sorted(series)
    values = np.column_stack([np.asarray(series[i], dtype=float) for i in ids])
    return IndexPanel([MsaInfo(i, i, (states or {}).get(i, "")) for i in ids], start, values)


def factor_table(values: np.ndarray, start: QuarterIndex = Q0,
                 ids: list[str] | None = None) -> FactorTable:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and values.shape[1] > 1 and ids is None:
        values = values.T
    if ids is None:
        ids = [f"F{j}" for j in range(values.shape[1])]
    return FactorTable(ids, start, values)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(autouse=True)
def floating_point_errors_raise(request):
    """Run the CLI and input-fuzz tests with every numpy floating-point error
    raised: a run may write nothing to stderr but its one-line error, so a
    step that makes an inf or NaN on purpose must say so under its own
    ``np.errstate``. A forked writer inherits the setting."""
    if request.path.name in ("test_cli.py", "test_input_fuzz.py"):
        with np.errstate(all="raise"):
            yield
    else:
        yield


# Verdict lines pushed by the acceptance tests; printed after the run so
# they stay visible under pytest's output capture.
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
