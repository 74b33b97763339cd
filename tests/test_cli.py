"""Command-line driver: config layering, artifacts, manifest, error paths."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from housingrisk import ConfigError
from housingrisk.cli import _CONFIG_KEYS, RunConfig, _build_parser, build_config, main, run

SCENARIO = {
    "n_msas": 8,
    "n_quarters": 120,
    "n_factors": 2,
    "loadings": 0.5,
    "idio_sigma": 1.0,
    "phi": 0.2,
    "mu": 0.6,
    "seed": 21,
    "jumps": [{"quarter": 50, "msas": [1, 4], "magnitude": 6.0}],
    "contagion": [{"source": 0, "target": 2, "weights": [0.5, 0.25]}],
}

EXPECTED_ALL = {
    "hpi_synth.csv", "factors_synth.csv", "transforms_synth.json",
    "ground_truth.json", "panel_summary.csv",
    "integration_series.csv", "integration_summary.csv", "cohort_averages.csv",
    "jump_series.csv", "jump_incidence.csv",
    "pair_correlations.csv", "correlation_summary.csv", "division_report.csv",
    "contagion_fits.csv", "portfolio_series.csv", "series_correlations.csv",
    "table1.csv", "table2.csv", "table3.csv", "table4.csv",
    "table5.csv", "table6.csv",
    "fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv",
    "run_manifest.json",
}


def write_scenario(tmp_path, out_name="out", **overrides):
    scenario = dict(SCENARIO, **overrides)
    spath = tmp_path / f"scenario_{out_name}.json"
    spath.write_text(json.dumps(scenario))
    rpath = tmp_path / f"run_{out_name}.json"
    rpath.write_text(json.dumps({
        "synth_scenario": str(spath),
        "out": str(tmp_path / out_name),
    }))
    return rpath, tmp_path / out_name


def csv_config(tmp_path, synth_out, out):
    """A run config reading the CSV inputs a synth run wrote to ``synth_out``."""
    cfg = tmp_path / f"run_{Path(out).name}.json"
    cfg.write_text(json.dumps({
        "inputs": {
            "hpi": str(synth_out / "hpi_synth.csv"),
            "factors": str(synth_out / "factors_synth.csv"),
            "transforms": str(synth_out / "transforms_synth.json"),
        },
        "out": str(out),
    }))
    return cfg


def parse(argv):
    return _build_parser().parse_args(argv)


# --- config layering --------------------------------------------------------

def test_defaults():
    cfg = build_config(parse(["integrate"]), env={})
    assert cfg.window == 20
    assert cfg.bipower_window == 20
    assert cfg.prewhiten is True
    assert cfg.serial == "auto"
    assert cfg.interaction_residual == "coastal"
    assert cfg.out == "out"


def test_file_overrides_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"window": 30, "serial": "never"}))
    cfg = build_config(parse(["integrate", "--config", str(p)]), env={})
    assert cfg.window == 30 and cfg.serial == "never"


def test_env_overrides_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"window": 30}))
    env = {"HOUSINGRISK_WINDOW": "40", "HOUSINGRISK_SEED": "5"}
    cfg = build_config(parse(["integrate", "--config", str(p)]), env=env)
    assert cfg.window == 40 and cfg.seed == 5


def test_flag_overrides_env(tmp_path):
    env = {"HOUSINGRISK_WINDOW": "40"}
    cfg = build_config(parse(["integrate", "--window", "50"]), env=env)
    assert cfg.window == 50


def test_env_config_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"window": 33}))
    cfg = build_config(parse(["integrate"]), env={"HOUSINGRISK_CONFIG": str(p)})
    assert cfg.window == 33


def test_no_prewhiten_flag_and_env(tmp_path, capsys, monkeypatch):
    assert build_config(parse(["integrate", "--no-prewhiten"]), env={}).prewhiten is False
    for text, prewhiten in [("1", False), ("true", False), ("TRUE", False), ("Yes", False),
                            ("0", True), ("false", True), ("False", True), ("NO", True)]:
        env = {"HOUSINGRISK_NO_PREWHITEN": text}
        assert build_config(parse(["integrate"]), env=env).prewhiten is prewhiten, text
    for text in ["off", "on", "2", "y"]:
        with pytest.raises(ConfigError) as exc:
            build_config(parse(["integrate"]), env={"HOUSINGRISK_NO_PREWHITEN": text})
        assert str(exc.value) == (
            f"HOUSINGRISK_NO_PREWHITEN must be one of 1/0, true/false, yes/no, got {text!r}")
    rpath, out = write_scenario(tmp_path)
    monkeypatch.setenv("HOUSINGRISK_NO_PREWHITEN", "off")
    assert main(["all", "--config", str(rpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("housingrisk: error: HOUSINGRISK_NO_PREWHITEN") and err.count("\n") == 1
    assert not out.exists()


def test_validate_rejects_bad_values(tmp_path):
    cfg = RunConfig(serial="sometimes")
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = RunConfig(window=2)
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = RunConfig(hpi=str(tmp_path / "missing.csv"))
    with pytest.raises(ConfigError):
        cfg.validate()


# --- end-to-end runs --------------------------------------------------------

def test_all_produces_every_artifact(tmp_path):
    rpath, out = write_scenario(tmp_path)
    assert main(["all", "--config", str(rpath)]) == 0
    assert {p.name for p in out.iterdir()} == EXPECTED_ALL


def test_manifest_hashes_verify(tmp_path):
    rpath, out = write_scenario(tmp_path)
    main(["all", "--config", str(rpath)])
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["tool"] == "housingrisk"
    assert manifest["command"] == "all"
    for name, digest in manifest["outputs"].items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digest, name
    # inputs cover the scenario plus the materialized synthetic files
    assert any("scenario_out.json" in k for k in manifest["inputs"])


def test_rerun_byte_identical(tmp_path):
    rpath1, out1 = write_scenario(tmp_path, out_name="out1")
    rpath2, out2 = write_scenario(tmp_path, out_name="out2")
    main(["all", "--config", str(rpath1)])
    main(["all", "--config", str(rpath2)])
    for p in sorted(out1.iterdir()):
        if p.name == "run_manifest.json":
            a = json.loads(p.read_text())
            b = json.loads((out2 / p.name).read_text())
            assert a["outputs"] == b["outputs"]
            continue
        assert p.read_bytes() == (out2 / p.name).read_bytes(), p.name


def test_synth_command_materializes_inputs(tmp_path):
    rpath, out = write_scenario(tmp_path)
    assert main(["synth", "--config", str(rpath)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"hpi_synth.csv", "factors_synth.csv",
                     "transforms_synth.json", "ground_truth.json",
                     "run_manifest.json"}
    truth = json.loads((out / "ground_truth.json").read_text())
    assert truth["contagion"][0]["source"] == "S001"


def test_seed_flag_overrides_scenario(tmp_path):
    rpath, out = write_scenario(tmp_path)
    main(["synth", "--config", str(rpath), "--seed", "99"])
    first = (out / "hpi_synth.csv").read_bytes()
    main(["synth", "--config", str(rpath)])
    assert (out / "hpi_synth.csv").read_bytes() != first


def test_single_command_on_real_csv_inputs(tmp_path):
    # materialize synthetic inputs, then run a command against them as files
    rpath, out = write_scenario(tmp_path)
    main(["synth", "--config", str(rpath)])
    cfg2 = csv_config(tmp_path, out, tmp_path / "out2")
    assert main(["integrate", "--config", str(cfg2)]) == 0
    names = {p.name for p in (tmp_path / "out2").iterdir()}
    assert "integration_series.csv" in names
    assert "integration_summary.csv" in names


# --- error paths ------------------------------------------------------------

def test_missing_input_file_clean_failure(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({
        "inputs": {"hpi": str(tmp_path / "nope.csv"),
                   "factors": str(tmp_path / "nope2.csv")},
        "out": str(out),
    }))
    rc = main(["all", "--config", str(cfg)])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.startswith("housingrisk: error:")
    assert "\n" == err[-1] and err.count("\n") == 1  # single line
    # no partial outputs left behind
    assert not out.exists() or not any(out.iterdir())


def test_no_inputs_at_all(tmp_path, capsys):
    rc = main(["integrate", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "housingrisk: error:" in capsys.readouterr().err


def test_synth_without_scenario(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_run_rejects_unknown_command():
    with pytest.raises(ConfigError):
        run("frobnicate", RunConfig())


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_corrupt_config_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    rc = main(["integrate", "--config", str(p)])
    assert rc == 2
    assert "housingrisk: error:" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    pytest.param({"window": "20"}, id="window-string"),
    pytest.param({"window": 20.0}, id="window-float"),
    pytest.param({"bipower_window": 5}, id="bipower-window-below-8"),
    pytest.param({"bipower_window": "20"}, id="bipower-window-string"),
    pytest.param({"pairs": {"min_overlap": 8.5}}, id="min-overlap-float"),
    pytest.param({"pairs": {"jump_floor": True}}, id="jump-floor-bool"),
    pytest.param({"seed": "3"}, id="seed-string"),
    pytest.param({"seed": True}, id="seed-bool"),
    pytest.param({"thresholds": {"jump": "1.65"}}, id="jump-threshold-string"),
    pytest.param({"thresholds": {"big": True}}, id="big-threshold-bool"),
    pytest.param({"thresholds": {"pair_sig_t": None}}, id="pair-sig-t-null"),
    pytest.param({"thresholds": {"jump": 1e999}}, id="jump-threshold-infinite"),
    pytest.param({"thresholds": {"big": 1e999}}, id="big-threshold-infinite"),
    pytest.param({"thresholds": {"pair_sig_t": 1e999}}, id="pair-sig-t-infinite"),
    pytest.param({"windw": 5}, id="unknown-top-level-key"),
    pytest.param({"inputs": {"hpi_csv": "hpi.csv"}}, id="unknown-inputs-key"),
    pytest.param({"thresholds": {"jmp": 1.65}}, id="unknown-thresholds-key"),
    pytest.param({"pairs": {"min_overlp": 8}}, id="unknown-pairs-key"),
    pytest.param({"cohorts": {"tim": {}}}, id="unknown-cohorts-key"),
    pytest.param({"pairs": 8}, id="pairs-not-an-object"),
    pytest.param({"sub_ranges": {"x": ["2000:Q5", "2001:Q1"]}}, id="sub-range-bad-quarter"),
    pytest.param({"sub_ranges": {"x": ["2000:Q1"]}}, id="sub-range-one-quarter"),
    pytest.param({"cohorts": {"time": {"c1": "1990:Q9"}}}, id="time-cohort-bad-quarter"),
    pytest.param({"cohorts": {"time": ["1990:Q1"]}}, id="time-cohorts-list"),
    pytest.param({"cohorts": {"ca_coastal": "Los Angeles"}}, id="ca-coastal-string"),
    pytest.param({"cohorts": {"ca_coastal": [1]}}, id="ca-coastal-number"),
    pytest.param({"portfolios": {"p": {"available_from": "bad"}}}, id="portfolio-bad-quarter"),
    pytest.param({"portfolios": {"p": ["x"]}}, id="portfolio-list"),
    pytest.param({"portfolios": {"p": {"members": [1, 2]}}}, id="portfolio-member-numbers"),
    pytest.param({"portfolios": {"p": {"members": ["S001", "NOPE"]}}}, id="portfolio-unknown-member"),
    pytest.param({"portfolios": {"p": {"members": ["S001", "S002", "S001"]}}}, id="portfolio-duplicate-member"),
    pytest.param({"portfolios": {"p": {"member": ["S001"]}}}, id="portfolio-unknown-key"),
    pytest.param({"contagion": {"Nowhere": ["S002"]}}, id="contagion-unknown-source"),
    pytest.param({"contagion": {"S001": [2]}}, id="contagion-target-number"),
    pytest.param({"contagion": ["Los Angeles"]}, id="contagion-list"),
    pytest.param({"prewhiten": "no"}, id="prewhiten-string"),
    pytest.param({"income_as_level": 1}, id="income-as-level-number"),
    pytest.param({"seed": -1}, id="seed-negative"),
    pytest.param({"out": 5}, id="out-number"),
    pytest.param({"out": ""}, id="out-empty"),
    pytest.param({"inputs": {"transforms": 3}}, id="transforms-number"),
    pytest.param({"window": 1000}, id="window-beyond-history"),
    pytest.param({"bipower_window": 1000}, id="bipower-window-beyond-history"),
])
def test_bad_config_fails_before_any_write(tmp_path, capsys, monkeypatch, overrides):
    monkeypatch.chdir(tmp_path)
    rpath, out = write_scenario(tmp_path)
    rpath.write_text(json.dumps(dict(json.loads(rpath.read_text()), **overrides)))
    before = sorted(tmp_path.iterdir())
    assert main(["all", "--config", str(rpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("housingrisk: error:")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert sorted(tmp_path.iterdir()) == before  # no out/, no stage left behind


@pytest.mark.parametrize("text", [b'{"window": 20', b'{"window": "\xff"}'], ids=["truncated", "byte"])
def test_config_file_that_is_not_utf8_json_is_named(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert main(["ingest", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"housingrisk: error: config file {path} is not UTF-8 JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("reads", ["config", "scenario", "transforms"])
@pytest.mark.parametrize("text", [b"[" * 100000, b"[" + b"9" * 5000 + b"]"], ids=["deep", "long-integer"])
def test_json_the_decoder_cannot_take_fails_before_any_write(tmp_path, capsys, monkeypatch, reads, text):
    # json raises RecursionError for deep nesting and a plain ValueError for an integer
    # past int's digit limit (Python >= 3.10.7); neither may end a run in a traceback.
    monkeypatch.chdir(tmp_path)
    Path("hpi.csv").write_text("msa_id,msa_name,state,quarter,index\nA,Alpha,CA,2000:Q1,1.0\nA,Alpha,CA,2000:Q2,2.0\n")
    Path("factors.csv").write_text("quarter,SP500\n2000:Q1,1.0\n2000:Q2,2.0\n")
    Path("bad.json").write_bytes(text)
    Path("run.json").write_text(json.dumps({
        "scenario": {"synth_scenario": "bad.json"},
        "transforms": {"inputs": {"hpi": "hpi.csv", "factors": "factors.csv", "transforms": "bad.json"}},
    }.get(reads, {})))
    before = sorted(os.listdir())
    assert main(["ingest", "--config", "bad.json" if reads == "config" else "run.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("housingrisk: error:") and err.count("\n") == 1
    assert sorted(os.listdir()) == before


def scenario_bytes(**overrides) -> bytes:
    return json.dumps(dict(json.loads(json.dumps(SCENARIO)), **overrides)).encode()


@pytest.mark.parametrize("text,named", [
    pytest.param(scenario_bytes(n_msas="x"), ": invalid scenario: n_msas must be", id="n-msas-string"),
    pytest.param(scenario_bytes(jumps=[{"quarter": 50, "msas": [1]}]),
                 ": invalid scenario: jumps[0].magnitude is missing", id="jump-without-magnitude"),
    pytest.param(scenario_bytes()[:-1], " is not UTF-8 JSON:", id="invalid-json"),
    pytest.param(scenario_bytes().replace(b'"seed"', b'"s\xffeed"'), " is not UTF-8 JSON:", id="not-utf8"),
    pytest.param(scenario_bytes(loadings={"kind": "ramp", "end": 1.0}),
                 ": invalid scenario: loadings.start is missing", id="ramp-without-start"),
    pytest.param(scenario_bytes(seed=-1), ": invalid scenario: seed must be", id="seed-negative"),
    pytest.param(scenario_bytes(loadings=[[0.5, 0.5], [0.5]]), ": invalid scenario: loadings must be",
                 id="ragged-loadings"),
    pytest.param(scenario_bytes(mu=float("nan")), ": invalid scenario: mu must be", id="mu-nan"),
    pytest.param(scenario_bytes(mu=1e9), ": invalid scenario: index levels leave", id="levels-overflow"),
])
def test_malformed_scenario_fails_before_any_write(tmp_path, capsys, monkeypatch, text, named):
    monkeypatch.chdir(tmp_path)
    rpath, _ = write_scenario(tmp_path)
    spath = tmp_path / "scenario_out.json"
    spath.write_bytes(text)
    before = sorted(tmp_path.iterdir())
    assert main(["synth", "--config", str(rpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"housingrisk: error: scenario file {spath}{named}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("obj,key", [
    ({"windw": 5}, "'windw'"),
    ({"thresholds": {"jump": 1.0, "bigg": 2.0}}, "'thresholds.bigg'"),
    ({"pairs": {"floor": 4}, "windw": 5}, "'pairs.floor', 'windw'"),
])
def test_unknown_config_key_is_named(tmp_path, obj, key):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(obj))
    with pytest.raises(ConfigError) as exc:
        build_config(parse(["integrate", "--config", str(p)]), env={})
    assert str(exc.value) == f"config file {p}: unknown key {key}"


def rewrite_factor_cells(path, rows, column, value):
    """Set ``column`` of the given data rows (0 = first) of a factor CSV to ``value``."""
    lines = path.read_text().splitlines()
    for row in rows:
        cells = lines[row + 1].split(",")
        cells[column] = value
        lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_non_finite_factor_cell_fails_before_any_write(tmp_path, capsys):
    rpath, synth_out = write_scenario(tmp_path)
    main(["synth", "--config", str(rpath)])
    rewrite_factor_cells(synth_out / "factors_synth.csv", [4], 1, "inf")
    out = tmp_path / "out2"
    capsys.readouterr()
    assert main(["integrate", "--config", str(csv_config(tmp_path, synth_out, out))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("housingrisk: error:") and err.count("\n") == 1
    assert "factors_synth.csv:6: non-finite value 'inf' in column F01" in err
    assert not out.exists()


@pytest.mark.parametrize("levels,raw,named", [
    pytest.param([1e-300, 1e300, 1.0], [1.0, 2.0, 3.0],
                 "MSA A: return at 2000:Q2 is out of float range (levels 1e-300 then 1e+300)",
                 id="hpi-overflow"),
    pytest.param([1e300, 1e-300, 1.0], [1.0, 2.0, 3.0],
                 "MSA A: return at 2000:Q2 is out of float range (levels 1e+300 then 1e-300)",
                 id="hpi-underflow"),
    pytest.param([1.0, 2.0, 3.0], [1e-300, 1e300, 1.0],
                 "factors.csv: column SP500: value 1e+300 at position 1 after 1e-300 is out of "
                 "float range under log_pct_change", id="factor-overflow"),
])
def test_level_ratio_out_of_float_range_fails_before_any_write(tmp_path, capsys, levels, raw, named):
    quarters = ["2000:Q1", "2000:Q2", "2000:Q3"]
    hpi, factors, out = tmp_path / "hpi.csv", tmp_path / "factors.csv", tmp_path / "out"
    hpi.write_text("msa_id,msa_name,state,quarter,index\n"
                   + "".join(f"A,Alpha,CA,{q},{v!r}\n" for q, v in zip(quarters, levels)))
    factors.write_text("quarter,SP500\n" + "".join(f"{q},{v!r}\n" for q, v in zip(quarters, raw)))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"inputs": {"hpi": str(hpi), "factors": str(factors)}, "out": str(out)}))
    assert main(["ingest", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("housingrisk: error:") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


def test_panel_with_no_usable_msa_fails_before_any_write(tmp_path, capsys):
    # One factor held constant over 40 quarters makes a window of every MSA
    # rank deficient, so every MSA is skipped.
    rpath, synth_out = write_scenario(tmp_path)
    main(["synth", "--config", str(rpath)])
    rewrite_factor_cells(synth_out / "factors_synth.csv", range(1, 41), 1, "2.5")
    out = tmp_path / "out2"
    capsys.readouterr()
    assert main(["all", "--config", str(csv_config(tmp_path, synth_out, out))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("housingrisk: error: no MSA could be integrated; first skip: S001: ")
    assert "rank deficient" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("name", ["WINDOW", "BIPOWER_WINDOW", "SEED"])
def test_non_integer_env_fails_before_any_write(tmp_path, capsys, monkeypatch, name):
    rpath, out = write_scenario(tmp_path)
    monkeypatch.setenv("HOUSINGRISK_" + name, "abc")
    assert main(["all", "--config", str(rpath)]) == 2
    err = capsys.readouterr().err
    assert err == f"housingrisk: error: HOUSINGRISK_{name} must be an integer, got 'abc'\n"
    assert not out.exists()


def test_no_msa_can_take_the_jump_test_fails_before_any_write(tmp_path, capsys):
    rpath, out = write_scenario(tmp_path)
    assert main(["jumps", "--config", str(rpath), "--bipower-window", "1000"]) == 2
    err = capsys.readouterr().err
    assert err == ("housingrisk: error: no MSA could take the jump test; first skip: "
                   "S001: need more than 1000 returns, got 120\n")
    assert not out.exists()


def test_cohorts_with_no_common_quarter_fail_before_any_write(tmp_path, capsys):
    # With 22 quarters and a 20-quarter window, the cohorts' members share no
    # window-end quarter; integrate fails after two of its artifacts are staged.
    rpath, out = write_scenario(tmp_path, n_msas=4, n_quarters=22, jumps=[], contagion=[])
    assert main(["integrate", "--config", str(rpath)]) == 2
    err = capsys.readouterr().err
    assert err == "housingrisk: error: cohort members share no common window-end quarters\n"
    assert not out.exists()
    assert not list(tmp_path.glob(".out.*"))


def test_no_msa_with_enough_windows_to_summarise_fails_before_any_write(tmp_path, capsys):
    # 21 raw returns and a 20-quarter window give every MSA two windows, one short of a summary.
    rpath, out = write_scenario(tmp_path, n_msas=3, n_quarters=21, jumps=[], contagion=[])
    assert main(["integrate", "--no-prewhiten", "--config", str(rpath)]) == 2
    err = capsys.readouterr().err
    assert err == "housingrisk: error: no MSA has enough windows to summarise\n"
    assert not out.exists()
    assert not list(tmp_path.glob(".out.*"))


@pytest.mark.parametrize("flags", [[], ["--no-prewhiten"]], ids=["prewhiten", "no-prewhiten"])
def test_window_too_small_for_the_factors_fails_with_one_line(tmp_path, capsys, flags):
    # 9 returns are too short to pre-whiten, but a 3-quarter window is too
    # small for 3 factors and the intercept whichever way the run goes.
    rpath, out = write_scenario(tmp_path, n_msas=2, n_quarters=9, n_factors=3, jumps=[], contagion=[])
    assert main(["integrate", "--window", "3", *flags, "--config", str(rpath)]) == 2
    err = capsys.readouterr().err
    assert err == ("housingrisk: error: window of 3 leaves too few degrees of freedom for "
                   "4 regressors; minimum window is 6\n")
    assert not out.exists()


def test_failed_run_leaves_existing_out_as_it_was(tmp_path, capsys):
    rpath, out = write_scenario(tmp_path)
    out.mkdir()
    (out / "old.csv").write_bytes(b"kept,as,it,was\n")
    # jumps fails after ingest and integrate have staged their artifacts
    assert main(["all", "--config", str(rpath), "--bipower-window", "1000"]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == ["old.csv"]
    assert (out / "old.csv").read_bytes() == b"kept,as,it,was\n"
    assert not list(tmp_path.glob(".out.*"))
    # A run that succeeds adds its artifacts beside the old file and leaves no stage.
    assert main(["all", "--config", str(rpath)]) == 0
    assert {p.name for p in out.iterdir()} == EXPECTED_ALL | {"old.csv"}
    assert not list(tmp_path.glob(".out.*"))


def test_directory_in_the_way_of_an_artifact_leaves_out_as_it_was(tmp_path, capsys):
    rpath, out = write_scenario(tmp_path)
    (out / "table1.csv").mkdir(parents=True)
    assert main(["all", "--config", str(rpath)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out / "table1.csv") in err
    assert [p.name for p in out.iterdir()] == ["table1.csv"]
    assert not list((out / "table1.csv").iterdir())
    assert not list(tmp_path.glob(".out.*"))


def test_failed_run_removes_the_parents_it_made(tmp_path):
    rpath, _ = write_scenario(tmp_path)
    out = tmp_path / "new" / "dir" / "out"
    assert main(["all", "--config", str(rpath), "--out", str(out), "--window", "1000"]) == 2
    assert not (tmp_path / "new").exists()
    assert main(["synth", "--config", str(rpath), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.parent.iterdir()) == ["out"]


def test_contagion_menu_ignores_stale_ground_truth(tmp_path):
    # A CSV-input run takes planted pairs only from its own synth step, so a
    # ground_truth.json left in out/ by an earlier run does not pick pairs.
    rpath, synth_out = write_scenario(tmp_path)
    main(["synth", "--config", str(rpath)])
    out = tmp_path / "out2"
    out.mkdir()
    (out / "ground_truth.json").write_text(json.dumps(
        {"contagion": [{"source": "S005", "target": "S006", "weights": [0.5]}]}))
    cfg = csv_config(tmp_path, synth_out, out)
    assert main(["contagion", "--config", str(cfg)]) == 0
    lines = (out / "contagion_fits.csv").read_text().splitlines()[1:]
    fitted = {tuple(line.split(",")[:2]) for line in lines}
    assert fitted == {("S002", "S001"), ("S003", "S001"), ("S004", "S001")}


SKIP_MENU = {"S001": ["S002", "S003"], "S004": ["S002"]}


def flat_s001(rows):
    """HPI rows with S001's index held at 100: a flat source."""
    return [r[:4] + ["100"] if r[0] == "S001" else r for r in rows]


def short_s002(rows):
    """HPI rows with S002's last 13 levels only: 12 quarters of returns overlap each source."""
    return [r for r in rows if r[0] != "S002"] + [r for r in rows if r[0] == "S002"][-13:]


def contagion_csv_rows(tmp_path, capsys, edit=None):
    """contagion_fits.csv rows of a `contagion` run on the CLI-test panel,
    with its HPI rows passed through ``edit`` first."""
    text = contagion_csv_bytes(tmp_path, capsys, edit).decode("utf-8")
    return list(csv.reader(io.StringIO(text, newline="")))[1:]


def contagion_config(tmp_path, edit=None, menu=SKIP_MENU):
    """(config path, out dir) of a `contagion` run with ``menu`` on the
    CLI-test panel, with its HPI rows passed through ``edit`` first."""
    rpath, synth_out = write_scenario(tmp_path)
    if not synth_out.exists():
        main(["synth", "--config", str(rpath)])
    hpi = synth_out / "hpi_synth.csv"
    source = hpi
    if edit is not None:
        with open(hpi, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        source = tmp_path / "hpi_edited.csv"
        with open(source, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *edit(rows)])
    out = tmp_path / ("edited" if edit else "plain")
    cfg = json.loads(csv_config(tmp_path, synth_out, out).read_text())
    cfg["inputs"]["hpi"] = str(source)
    cfg["contagion"] = menu
    cpath = tmp_path / "contagion.json"
    cpath.write_text(json.dumps(cfg))
    return cpath, out


def contagion_csv_bytes(tmp_path, capsys, edit=None, menu=SKIP_MENU):
    """contagion_fits.csv of a successful `contagion_config` run."""
    cpath, out = contagion_config(tmp_path, edit, menu)
    capsys.readouterr()
    assert main(["contagion", "--config", str(cpath)]) == 0
    assert capsys.readouterr().err == ""
    return (out / "contagion_fits.csv").read_bytes()


def test_flat_source_skips_only_its_pairs(tmp_path, capsys):
    plain = contagion_csv_rows(tmp_path, capsys)
    rows = contagion_csv_rows(tmp_path, capsys, flat_s001)
    reason = "design matrix is rank deficient (rank 1 of 5); dependent columns: lag0, lag1, lag2, lag3"
    assert [r[:5] for r in rows[:4]] == [
        [t, "S001", "skipped", "120", f"{v}: {reason}"]
        for t in ("S002", "S003") for v in ("base", "interacted")]
    assert all(cell == "" for r in rows[:4] for cell in r[5:])
    assert len(rows) == len(plain) == 6
    assert rows[4:] == plain[4:]  # S004's fits do not see S001


def test_short_overlap_skips_only_the_failing_variants(tmp_path, capsys):
    plain = contagion_csv_rows(tmp_path, capsys)
    rows = contagion_csv_rows(tmp_path, capsys, short_s002)
    too_few = "interacted: need at least 11 observations for 9 regressors, got 9"
    assert [r[:5] for r in rows] == [
        ["S002", "S001", "skipped", "12", "base: rho did not converge within 50 iterations (last 0.880877)"],
        ["S002", "S001", "skipped", "12", too_few],
        plain[2][:5], plain[3][:5],
        ["S002", "S004", "skipped", "12", "base: serial-correlation estimate left the unit interval: -1.1003"],
        ["S002", "S004", "skipped", "12", too_few],
    ]
    assert rows[2:4] == plain[2:4]


def test_a_pair_named_twice_is_fitted_once(tmp_path, capsys):
    once = contagion_csv_bytes(tmp_path, capsys)
    # Each pair again, by id and by a name fragment (the CLI-test names are the ids).
    twice = {"S001": ["S002", "s002", "S003", "S003"], "S004": ["S002"], "s004": ["S002", "s002"]}
    assert contagion_csv_bytes(tmp_path, capsys, menu=twice) == once
    assert once.count(b"\n") == 1 + 2 * 3  # the header, then base and interacted for each pair


# Four source groups of 2, 1, 3 and 4 targets, including the pairs that
# the two tests above skip.
FORK_MENU = dict(SKIP_MENU, S005=["S002", "S006", "S007"], S008=["S001", "S002", "S003", "S006"])


def force_workers(monkeypatch, n):
    """Let ``n`` fit workers share any menu; returns the list of forked runs' sizes."""
    import housingrisk.cli as cli
    import housingrisk.forkmap as forkmap

    started = []
    start = forkmap._start

    def counted(fn, chunk, children):
        started.append(len(chunk))
        start(fn, chunk, children)

    monkeypatch.setattr(forkmap, "usable_cpus", lambda: n)
    monkeypatch.setattr(cli, "CONTAGION_TARGETS_PER_WORKER", 1)
    monkeypatch.setattr(forkmap, "_start", counted)
    return started


@pytest.mark.parametrize("edit", [None, flat_s001, short_s002], ids=["plain", "flat-source", "short-overlap"])
def test_fit_workers_write_the_same_bytes(tmp_path, capsys, monkeypatch, edit):
    serial = contagion_csv_bytes(tmp_path, capsys, edit, FORK_MENU)
    assert (b",skipped," in serial) == (edit is not None)
    for n in (2, 3):
        with monkeypatch.context() as mp:
            started = force_workers(mp, n)
            assert contagion_csv_bytes(tmp_path, capsys, edit, FORK_MENU) == serial, n
        assert len(started) == n - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_worker_fails_the_run_like_the_serial_path(tmp_path, capsys, monkeypatch):
    import housingrisk.cli as cli
    from housingrisk import HousingRiskError

    fits = cli.contagion_fits

    def failing(targets, *args):
        if len(targets) == 4:  # only S008's group has four targets
            raise HousingRiskError("no fit for the four-target group")
        return fits(targets, *args)

    monkeypatch.setattr(cli, "contagion_fits", failing)
    cpath, out = contagion_config(tmp_path, menu=FORK_MENU)
    out.mkdir()
    (out / "old.csv").write_bytes(b"kept\n")
    errors = []
    for n in (1, 2, 3):
        with monkeypatch.context() as mp:
            started = force_workers(mp, n)
            capsys.readouterr()
            assert main(["contagion", "--config", str(cpath)]) == 2
            errors.append(capsys.readouterr().err)
        assert len(started) == n - 1
        assert [p.name for p in out.iterdir()] == ["old.csv"]
        assert not list(tmp_path.glob(".plain.*"))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert errors == ["housingrisk: error: no fit for the four-target group\n"] * 3


def test_fit_workers_are_fork_safe_with_and_without_blas_threads(tmp_path):
    # A menu large enough to fork, run once with the BLAS thread pool at its
    # default size and once pinned to one thread: a fork taken while a pool
    # is live must neither hang, nor warn, nor change a byte.
    import subprocess
    import sys

    import housingrisk
    from housingrisk.cli import CONTAGION_TARGETS_PER_WORKER
    from housingrisk.forkmap import usable_cpus

    ids = [f"S{i:03d}" for i in range(1, 25)]
    menu = {s: [t for t in ids if t != s] for s in ids}
    n_targets = len(ids) * (len(ids) - 1)
    assert n_targets >= 2 * CONTAGION_TARGETS_PER_WORKER
    rpath, _ = write_scenario(tmp_path, n_msas=len(ids), n_quarters=60)
    cfg = json.loads(rpath.read_text())
    rpath.write_text(json.dumps(dict(cfg, contagion=menu)))
    src = str(Path(housingrisk.__file__).resolve().parent.parent)
    code = ("import sys, housingrisk.forkmap as fm; started = []; start = fm._start; "
            "fm._start = lambda *args: (started.append(1), start(*args)); "
            "from housingrisk.cli import main; status = main(sys.argv[1:]); "
            "print(len(started)); sys.exit(status)")
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = src
    outputs = []
    for name, extra in (("default", {}), ("pinned", dict.fromkeys(blas, "1"))):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-c", code, "contagion", "--config", str(rpath), "--out", str(out)],
                              env=dict(env, **extra), capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, ""), name
        assert int(proc.stdout) == min(usable_cpus(), n_targets // CONTAGION_TARGETS_PER_WORKER) - 1
        outputs.append((out / "contagion_fits.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 1 + 2 * n_targets


def test_integration_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The span fits factor matrices as wide as the factors plus every MSA;
    # a panel this wide reaches BLAS paths that criterion 7's scenario does not.
    import subprocess
    import sys

    import housingrisk

    src = str(Path(housingrisk.__file__).resolve().parent.parent)
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas and not k.startswith("HOUSINGRISK_")}
    env["PYTHONPATH"] = src
    code = "import sys; from housingrisk.cli import main; sys.exit(main())"
    outputs = []
    for threads in ("1", "4"):
        run_dir = tmp_path / f"threads{threads}"
        run_dir.mkdir()
        # Relative paths, so the manifests of the two runs can match too.
        (run_dir / "scenario.json").write_text(json.dumps(dict(SCENARIO, n_msas=64, n_quarters=80, n_factors=4)))
        (run_dir / "run.json").write_text(json.dumps({"synth_scenario": "scenario.json"}))
        proc = subprocess.run([sys.executable, "-c", code, "integrate", "--config", "run.json", "--out", "out"],
                              cwd=run_dir, env=dict(env, **dict.fromkeys(blas, threads)),
                              capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, ""), threads
        outputs.append({p.name: p.read_bytes() for p in sorted((run_dir / "out").iterdir())})
    assert "integration_series.csv" in outputs[0]
    assert outputs[0] == outputs[1]


def test_all_computes_each_result_once(tmp_path, monkeypatch):
    import housingrisk.cli as cli
    import housingrisk.integration as integration

    calls = {}
    sources = set()

    def count(name):
        fn = getattr(cli, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if name == "contagion_fits":  # (targets, source, ...): one source per call
                sources.add(np.asarray(args[1]).tobytes())
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)

    for name in ("lm_series", "return_pair_correlations", "jump_pair_correlations",
                 "integration_summary", "diversification_series",
                 "boombust_residual", "contagion_fits"):
        count(name)
    kernel = integration._fit_stack

    def counted_kernel(*args, **kwargs):
        calls["integration._fit_stack"] = calls.get("integration._fit_stack", 0) + 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(integration, "_fit_stack", counted_kernel)
    rpath, _ = write_scenario(tmp_path)
    assert main(["all", "--config", str(rpath)]) == 0
    assert calls["integration._fit_stack"] == 1  # every MSA's windows in one span fit
    assert calls["lm_series"] == 1
    assert calls["return_pair_correlations"] == 2
    assert calls["jump_pair_correlations"] == 2
    assert calls["integration_summary"] == 1
    assert calls["diversification_series"] == len(RunConfig().portfolios)
    assert sources and calls["boombust_residual"] == len(sources)


def test_report_alone_writes_the_same_views_as_all(tmp_path):
    rpath_all, out_all = write_scenario(tmp_path, out_name="all")
    rpath_rep, out_rep = write_scenario(tmp_path, out_name="report")
    assert main(["all", "--config", str(rpath_all)]) == 0
    assert main(["report", "--config", str(rpath_rep)]) == 0
    views = [f"table{i}.csv" for i in range(1, 7)] + [f"fig{i}.csv" for i in range(2, 6)]
    for name in views:
        assert (out_rep / name).read_bytes() == (out_all / name).read_bytes(), name


def test_cli_import_leaves_scipy_signal_out():
    import os
    import subprocess
    import sys

    import housingrisk

    src = str(Path(housingrisk.__file__).resolve().parent.parent)
    code = ("import sys, housingrisk.cli; "
            "sys.exit(any(m in sys.modules for m in ('scipy.signal', 'scipy.linalg')))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_all_leaves_scipy_linalg_unloaded(tmp_path):
    import subprocess
    import sys

    import housingrisk

    rpath, out = write_scenario(tmp_path)
    src = str(Path(housingrisk.__file__).resolve().parent.parent)
    code = ("import sys; from housingrisk.cli import main; status = main(['all', '--config', sys.argv[1]]); "
            "sys.exit(status or 3 * ('scipy.linalg' in sys.modules) or 4 * ('numpy.ma' in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, str(rpath)], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode != 3, "housingrisk all imported scipy.linalg"
    assert proc.returncode != 4, "housingrisk all imported numpy.ma"
    assert proc.returncode == 0, proc.stderr
    assert (out / "run_manifest.json").is_file()


# --- any config value --------------------------------------------------------

FUZZ_SCENARIO = dict(SCENARIO, n_msas=4, n_quarters=60, n_factors=1, jumps=[],
                     contagion=[{"source": 0, "target": 1, "weights": [0.5]}])
SETTINGS = dataclasses.fields(RunConfig)
KNOWN_KEYS = [tuple(f.metadata["key"].rpartition(".")[::2]) for f in SETTINGS]  # (section or "", key)
SECTIONS = {section for section, _ in KNOWN_KEYS if section}
PATH_KEYS = {("", "out"), ("inputs", "hpi"), ("inputs", "factors"),
             ("inputs", "transforms"), ("", "synth_scenario")}
# Small numbers, ids, quarters and choices the pipeline knows let some
# values get past validation and reach the analyses.
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.integers(-2, 40) | st.floats(0, 8)
    | st.sampled_from(["S001", "S002", "1979:Q4", "1995:Q3", "CA", "auto", "members"])
)
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=8) | st.sampled_from(["S001", "members", "state", "available_from"]),
        inner, max_size=3),
    max_leaves=8,
)
# A path-valued key gets a non-string or a plain name, so a run stays in its directory.
LOCAL_NAMES = st.text(min_size=1, max_size=8).filter(lambda t: "/" not in t and not t.startswith("."))
PATH_VALUES = JSON_VALUES.filter(lambda v: not isinstance(v, str)) | LOCAL_NAMES
UNKNOWN_KEYS = st.tuples(st.sampled_from(["", *sorted(SECTIONS)]), st.text(max_size=8)).filter(
    lambda k: k not in KNOWN_KEYS and k[1] not in SECTIONS)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(KNOWN_KEYS) | UNKNOWN_KEYS, data=st.data())
def test_any_config_value_exits_0_or_2_and_a_failure_writes_nothing(tmp_path, monkeypatch, key, data):
    monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
    value = data.draw(PATH_VALUES if key in PATH_KEYS else JSON_VALUES)
    Path("scenario.json").write_text(json.dumps(FUZZ_SCENARIO))
    config = {"synth_scenario": "scenario.json"}
    section, name = key
    (config.setdefault(section, {}) if section else config)[name] = value
    Path("run.json").write_text(json.dumps(config))
    before = sorted(os.listdir())
    status = main(["all", "--config", "run.json"])
    assert status in (0, 2)
    if status == 2:
        assert sorted(os.listdir()) == before


# --- one declaration per setting ---------------------------------------------

# A valid value other than the default for every config key; FILE stands for an existing file.
FILE = object()
NON_DEFAULT = {
    "inputs.hpi": FILE, "inputs.factors": FILE, "inputs.transforms": {"GS10": "log_level"},
    "out": "elsewhere", "window": 12, "bipower_window": 10, "prewhiten": False, "serial": "never",
    "interaction_residual": "ca-equal-weighted", "seed": 5, "income_as_level": True, "synth_scenario": FILE,
    "thresholds.jump": 1.5, "thresholds.big": 3.0, "thresholds.pair_sig_t": 4.0,
    "pairs.min_overlap": 9, "pairs.jump_floor": 5,
    "cohorts.time": {"c1": "1990:Q1"}, "cohorts.ca_coastal": ["Oakland"], "contagion": {"S001": ["S002"]},
    "portfolios": {"tx": {"state": "TX"}}, "sub_ranges": {"1990s": ["1990:Q1", "1999:Q4"]},
}
# The option name of the seven settings a flag and an environment variable can also set.
OPTIONS = {"out": "out", "window": "window", "bipower_window": "bipower_window", "prewhiten": "no_prewhiten",
           "serial": "serial", "interaction_residual": "interaction_residual", "seed": "seed"}
README_KEY_TABLE = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").split(
    "| key | valid values |")[1].split("\n\n")[0]


@pytest.mark.parametrize("setting", SETTINGS, ids=lambda f: f.name)
def test_each_setting_is_declared_by_its_field(tmp_path, setting):
    key = setting.metadata["key"]
    section, _, name = key.rpartition(".")
    p = tmp_path / "cfg.json"
    value = str(p) if NON_DEFAULT[key] is FILE else NON_DEFAULT[key]
    assert getattr(RunConfig(), setting.name) != value

    # Its key in a config file sets its field and no other.
    p.write_text(json.dumps({section: {name: value}} if section else {name: value}))
    cfg = build_config(parse(["ingest", "--config", str(p)]), env={})
    cfg.validate()
    assert dataclasses.asdict(cfg) == dict(dataclasses.asdict(RunConfig()), **{setting.name: value})

    # The config key table holds its valid values in its section, and holds the 22 keys of the fields only.
    assert (_CONFIG_KEYS[section].keys if section else _CONFIG_KEYS)[name] is setting.metadata["valid"]
    held = [(s, k) for s in SECTIONS for k in _CONFIG_KEYS[s].keys]
    held += [("", k) for k in _CONFIG_KEYS if k not in SECTIONS]
    assert sorted(held) == sorted(KNOWN_KEYS) and len(held) == 22

    # Only the seven options have a flag and an environment variable.
    option = OPTIONS.get(setting.name, setting.name)
    flag, env_name = "--" + option.replace("_", "-"), "HOUSINGRISK_" + option.upper()
    if setting.name in OPTIONS:
        argv = ["ingest", flag] if value is False else ["ingest", flag, str(value)]
        assert getattr(build_config(parse(argv), env={}), setting.name) == value
        env = {env_name: "1" if value is False else str(value)}
        assert getattr(build_config(parse(["ingest"]), env=env), setting.name) == value
    else:
        with pytest.raises(SystemExit):
            parse(["ingest", flag, "1"])
        assert build_config(parse(["ingest"]), env={env_name: "1"}) == RunConfig()

    # README's key table names it.
    assert f"`{key}`" in README_KEY_TABLE
