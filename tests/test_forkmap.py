"""Fork-based map: order, splitting, errors and cleanup of its workers."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from housingrisk import HousingRiskError
from housingrisk import forkmap
from housingrisk.forkmap import fork_map, runs


@pytest.fixture
def workers(monkeypatch):
    """Set the usable CPU count; returns the list of forked runs' sizes."""
    started = []
    start = forkmap._start

    def counted(fn, chunk, children):
        started.append(len(chunk))
        start(fn, chunk, children)

    monkeypatch.setattr(forkmap, "_start", counted)

    def set_cpus(n):
        monkeypatch.setattr(forkmap, "usable_cpus", lambda: n)
        return started

    yield set_cpus
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 50), max_size=12), n_runs=st.integers(0, 6))
def test_runs_are_contiguous_non_empty_and_cover_every_item(sizes, n_runs):
    parts = runs(sizes, n_runs)
    assert [i for part in parts for i in part] == list(range(len(sizes)))
    assert len(parts) <= max(1, n_runs)
    assert all(len(part) for part in parts) or parts == [range(0)]


def test_runs_split_equal_groups_evenly():
    assert runs([40] * 32, 2) == [range(0, 16), range(16, 32)]
    assert [sum([2, 1, 3, 4][i] for i in part) for part in runs([2, 1, 3, 4], 3)] == [3, 3, 4]


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_results_come_back_in_item_order(workers, cpus):
    started = workers(cpus)
    items = list(range(23))
    assert fork_map(lambda x: [x, x * x], items, [1 + x % 4 for x in items], 1) == [[x, x * x] for x in items]
    assert len(started) == min(cpus, len(items)) - 1


def test_small_work_stays_in_this_process(workers):
    started = workers(4)
    assert fork_map(str, range(10), [1] * 10, 6) == [str(x) for x in range(10)]
    assert started == []


def test_the_earliest_failing_run_is_the_one_raised(workers):
    started = workers(3)

    def fn(x):
        if x in (5, 8):
            raise HousingRiskError(f"item {x}")
        return x

    with pytest.raises(HousingRiskError, match="^item 5$"):
        fork_map(fn, range(9), [1] * 9, 1)
    assert started == [3, 3]


class Unrebuildable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.mark.parametrize("exc, raised, message", [
    (Unrebuildable(1, 2), RuntimeError, "^Unrebuildable: 1 and 2$"),
    (HousingRiskError("plain"), HousingRiskError, "^plain$"),
])
def test_a_worker_error_comes_back_even_when_it_does_not_pickle(workers, exc, raised, message):
    workers(2)

    def fn(x):
        if x == 3:
            raise exc
        return x

    with pytest.raises(raised, match=message):
        fork_map(fn, range(4), [1] * 4, 1)


def test_a_worker_that_dies_fails_the_map(workers):
    workers(2)

    def fn(x):
        if x == 3:
            os._exit(7)
        return x

    with pytest.raises(ChildProcessError, match="exited with status 7"):
        fork_map(fn, range(4), [1] * 4, 1)


def test_an_error_here_kills_the_workers(workers):
    started = workers(3)

    def fn(x):
        if x == 0:
            raise KeyboardInterrupt
        if x > 0:
            os.pause()  # the workers wait until they are killed
        return x

    with pytest.raises(KeyboardInterrupt):
        fork_map(fn, range(3), [1] * 3, 1)
    assert started == [1, 1]


def test_a_failed_fork_leaves_its_run_to_this_process(workers, monkeypatch):
    started = workers(3)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(forkmap.os, "fork", no_fork)
    assert fork_map(lambda x: -x, range(6), [1] * 6, 1) == [-x for x in range(6)]
    assert started == [2]  # tried once, then every later run stayed here
