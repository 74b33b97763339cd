"""Mutated input files never end a run in a traceback.

Small valid HPI, factor, transforms, run config and scenario files are
mutated (byte flips, truncation, inserted 0xff, NUL, quotes, CRs and an
oversized field) and run through ``ingest`` or ``synth`` in-process, in a
fresh directory that the run config names its files in. The status is 0 or
2; on 2, stderr is one ``housingrisk: error:`` line and the directory holds
just what it held before. Generated HPI panels with levels from 1e-300 to
1e300, flat and constant-growth MSAs and histories too short for three
windows run through ``all`` the same way, under either interaction
residual, and no artifact of a run that exits 0 holds ``nan`` or ``inf``
text outside the one column whose README documents it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from housingrisk.cli import main

HPI = b"""msa_id,msa_name,state,quarter,index
A1,"Alpha, CA",CA,1990:Q1,100.0
A1,"Alpha, CA",CA,1990:Q2,101.5
A1,"Alpha, CA",CA,1990:Q3,99.25
B2,Beta,TX,1990:Q2,200.0
B2,Beta,TX,1990:Q3,202.0
"""
FACTORS = b"""quarter,F1,F2
1990:Q1,8.25,330.2
1990:Q2,8.15,
1990:Q3,8.0,358.0
"""
TRANSFORMS = b'{"F1": "log_level", "F2": "log_pct_change"}'
# Every section and most keys, so a mutation can reach each part of the config table.
CONFIG = json.dumps({
    "inputs": {"hpi": "hpi.csv", "factors": "factors.csv", "transforms": "transforms.json"},
    "window": 3, "bipower_window": 8, "prewhiten": False, "serial": "auto", "seed": 1,
    "thresholds": {"jump": 1.65, "big": 2.0, "pair_sig_t": 5.0}, "pairs": {"min_overlap": 3, "jump_floor": 3},
    "cohorts": {"time": {"c1": "1990:Q2"}, "ca_coastal": ["Alpha"]}, "contagion": {"A1": ["B2"]},
    "portfolios": {"ca": {"state": "CA", "available_from": "1990:Q2"}, "ab": {"members": ["A1", "B2"]}},
    "sub_ranges": {"early": ["1990:Q1", "1990:Q3"]},
}).encode()
SCENARIO = json.dumps({
    "n_msas": 3, "n_quarters": 12, "n_factors": 1, "seed": 5, "start": "1990:Q1",
    "loadings": {"kind": "ramp", "start": 0.2, "end": 1.0},
    "idio_sigma": [1.0, 0.5, 2.0], "phi": 0.3, "mu": 0.1, "states": ["CA", "TX", "NY"],
    "jumps": [{"quarter": "1991:Q2", "msas": [0, "S003"], "magnitude": 6.0}],
    "contagion": [{"source": 0, "target": 1, "weights": [0.5]}],
}).encode()

INSERTS = (b"\xff", b"\x00", b'"', b"\r", b"\r\n", b"x" * (csv.field_size_limit() + 1))


@st.composite
def mutated(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        kind = draw(st.sampled_from(("flip", "truncate", "insert")))
        if kind == "flip" and data:
            data = data[:pos] + bytes([data[pos] ^ draw(st.integers(1, 255))]) + data[pos + 1 :]
        elif kind == "truncate":
            data = data[:pos]
        else:
            data = data[:pos] + draw(st.sampled_from(INSERTS)) + data[pos:]
    return data


def assert_exits_0_or_2_cleanly(command: str, files: dict[str, bytes]) -> dict[str, bytes]:
    """Run ``command`` with ``config.json`` in a fresh directory holding
    ``files``; the files it wrote to ``out``, if it exited 0."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        before = sorted(os.listdir(tmp))
        err = io.StringIO()
        # A warning would print a second stderr line, so it fails here too.
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")
                status = main([command, "--config", "config.json"])
        finally:
            os.chdir(cwd)
        err = err.getvalue()
        assert status in (0, 2), err
        if status == 2:
            assert err.startswith("housingrisk: error: "), err
            assert err.count("\n") == 1 and err.endswith("\n") and "\r" not in err, err
            assert sorted(os.listdir(tmp)) == before
            return {}
        assert err == ""
        return {p.name: p.read_bytes() for p in (Path(tmp) / "out").iterdir()}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("hpi.csv", "factors.csv", "transforms.json", "config.json")).flatmap(
    lambda name: st.tuples(st.just(name), mutated({"hpi.csv": HPI, "factors.csv": FACTORS,
                                                   "transforms.json": TRANSFORMS, "config.json": CONFIG}[name]))
))
def test_ingest_of_a_mutated_input_exits_0_or_2(mutation):
    name, data = mutation
    files = {"hpi.csv": HPI, "factors.csv": FACTORS, "transforms.json": TRANSFORMS, "config.json": CONFIG, name: data}
    assert_exits_0_or_2_cleanly("ingest", files)


@settings(max_examples=40, deadline=None)
@given(mutated(SCENARIO))
def test_synth_of_a_mutated_scenario_exits_0_or_2(data):
    config = b'{"synth_scenario": "scenario.json"}'
    assert_exits_0_or_2_cleanly("synth", {"scenario.json": data, "config.json": config})


def quarter(q: int) -> str:
    """The label of quarter q from 1990:Q1 on."""
    return f"{1990 + q // 4}:Q{q % 4 + 1}"


@st.composite
def extreme_panels(draw) -> bytes:
    """An HPI file of 2-5 MSAs over 3-40 quarters, some entering late. Each
    MSA is flat, grows at a constant rate or walks, from a base level drawn
    in 1e-300..1e300, and its levels stay in that range."""
    n_quarters = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = ["msa_id,msa_name,state,quarter,index"]
    for j in range(draw(st.integers(2, 5))):
        t = np.arange(draw(st.integers(0, n_quarters - 2)), n_quarters)
        kind = draw(st.sampled_from(("flat", "growth", "walk")))
        step = np.clip({"flat": np.zeros(t.size), "growth": np.full(t.size, draw(st.floats(-40, 40))),
                        "walk": rng.normal(0, draw(st.sampled_from((1e-9, 0.01, 1.0, 60.0))), t.size)}[kind],
                       -300, 300)  # log10 steps: a level ratio stays a float
        log10 = np.clip(draw(st.floats(-300, 300)) + np.cumsum(step) - step[0], -300, 300)
        state = draw(st.sampled_from(("CA", "TX")))
        lines += [f"M{j},M{j},{state},{quarter(q)},{v!r}" for q, v in zip(t.tolist(), (10.0 ** log10).tolist())]
    return ("\n".join(lines) + "\n").encode()


ALL_FACTORS = ("quarter,F1,F2\n" + "".join(
    f"{quarter(q)},{100 + 7 * np.sin(q):.6f},{50 * 1.01 ** q + 3 * np.cos(3 * q):.6f}\n" for q in range(40)
)).encode()
ALL_CONFIG = {
    "inputs": {"hpi": "hpi.csv", "factors": "factors.csv", "transforms": "transforms.json"},
    "window": 6, "bipower_window": 8, "pairs": {"min_overlap": 3, "jump_floor": 3},
}


@settings(max_examples=15, deadline=None)
@given(extreme_panels(), st.sampled_from(("coastal", "ca-equal-weighted")))
def test_all_on_an_extreme_panel_exits_0_or_2_and_writes_no_stray_inf_or_nan(hpi, residual):
    config = json.dumps(dict(ALL_CONFIG, interaction_residual=residual)).encode()
    out = assert_exits_0_or_2_cleanly("all", {"hpi.csv": hpi, "factors.csv": ALL_FACTORS,
                                              "transforms.json": TRANSFORMS, "config.json": config})
    for name, data in out.items():
        if not name.endswith(".csv"):
            continue
        header, *rows = csv.reader(io.StringIO(data.decode()))
        # README: a pair whose |r| is 1 has a t of inf or -inf.
        allowed = header.index("t") if name == "pair_correlations.csv" else None
        for row in rows:
            for k, cell in enumerate(row):
                assert k == allowed or cell.lower() not in ("nan", "inf", "-inf"), (name, header[k], row)
