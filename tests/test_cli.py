"""Command-line driver: config layering, artifacts, manifest, error paths."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import inspect
import io
import json
import os
import re
import tempfile
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from housingrisk import (ConfigError, HousingRiskError, QuarterIndex, cohort_average, cohort_correlation_report,
                         compute_returns, contagion_fits, integrate_panel, jump_incidence, jump_pair_correlations,
                         lm_series, load_factor_table, load_hpi_panel, return_pair_correlations)
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

# The scenario README shows: twelve metros, of which S001 and S011 are in CA.
README_SCENARIO = dict(n_msas=12, n_quarters=140, n_factors=3, loadings=0.55, phi=0.3, mu=0.8, seed=11,
                       jumps=[{"quarter": 60, "msas": [2, 5], "magnitude": 6.0}],
                       contagion=[{"source": 0, "target": 1, "weights": [0.5, 0.25]}])

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


def resolve(argv, env):
    """``build_config`` of the command line ``argv`` in an environment that holds ``env`` alone."""
    with mock.patch.dict(os.environ, env, clear=True):
        return build_config(parse(argv))


# --- config layering --------------------------------------------------------

def test_defaults():
    cfg = resolve(["integrate"], {})
    assert cfg.window == 20
    assert cfg.bipower_window == 20
    assert cfg.prewhiten is True
    assert cfg.serial == "auto"
    assert cfg.interaction_residual == "coastal"
    assert cfg.out == "out"


def test_a_setting_that_feeds_a_library_parameter_has_its_default():
    # Each paper parameter has one value: the library's default, which the
    # RunConfig field that passes it restates.
    for fn, parameter, setting in [
        (integrate_panel, "window", "window"),
        (integrate_panel, "prewhiten", "prewhiten"),
        (lm_series, "bipower_window", "bipower_window"),
        (lm_series, "jump_threshold", "jump_threshold"),
        (lm_series, "big_threshold", "big_threshold"),
        (return_pair_correlations, "min_overlap", "min_overlap"),
        (jump_pair_correlations, "min_quarters", "jump_pair_floor"),
        (cohort_correlation_report, "sig_t", "pair_sig_t"),
        (contagion_fits, "serial", "serial"),
    ]:
        default = inspect.signature(fn).parameters[parameter].default
        value = getattr(RunConfig(), setting)
        assert (type(value), value) == (type(default), default), (fn.__name__, parameter)


def test_file_overrides_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"window": 30, "serial": "never"}))
    cfg = resolve(["integrate", "--config", str(p)], {})
    assert cfg.window == 30 and cfg.serial == "never"


def test_env_overrides_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"window": 30}))
    env = {"HOUSINGRISK_WINDOW": "40", "HOUSINGRISK_SEED": "5"}
    cfg = resolve(["integrate", "--config", str(p)], env)
    assert cfg.window == 40 and cfg.seed == 5


def test_flag_overrides_env(tmp_path):
    env = {"HOUSINGRISK_WINDOW": "40"}
    cfg = resolve(["integrate", "--window", "50"], env)
    assert cfg.window == 50


def test_env_config_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"window": 33}))
    cfg = resolve(["integrate"], {"HOUSINGRISK_CONFIG": str(p)})
    assert cfg.window == 33


def test_a_relative_path_in_a_config_file_is_read_from_its_directory(tmp_path, monkeypatch):
    # The config and everything it names sit in one directory, and the run
    # starts in another. A relative path from a flag or the environment
    # stays with the working directory.
    rpath, inputs = write_scenario(tmp_path)
    assert main(["synth", "--config", str(rpath)]) == 0
    (inputs / "run.json").write_text(json.dumps({
        "inputs": {"hpi": "hpi_synth.csv", "factors": "factors_synth.csv", "transforms": "transforms_synth.json"},
        "out": "ingested",
    }))
    (inputs / "scenario.json").write_text(json.dumps(SCENARIO))
    (inputs / "synth.json").write_text(json.dumps({"synth_scenario": "scenario.json", "out": "generated"}))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    config = str(inputs / "run.json")
    assert main(["ingest", "--config", config]) == 0
    assert (inputs / "ingested" / "panel_summary.csv").is_file()
    assert main(["synth", "--config", str(inputs / "synth.json")]) == 0
    assert (inputs / "generated" / "hpi_synth.csv").is_file()
    assert main(["ingest", "--config", config, "--out", "flagged"]) == 0
    monkeypatch.setenv("HOUSINGRISK_OUT", "from_env")
    assert main(["ingest", "--config", config]) == 0
    assert sorted(os.listdir()) == ["flagged", "from_env"]


def test_no_prewhiten_flag_and_env(tmp_path, capsys, monkeypatch):
    assert resolve(["integrate", "--no-prewhiten"], {}).prewhiten is False
    for text, prewhiten in [("1", False), ("true", False), ("TRUE", False), ("Yes", False),
                            ("0", True), ("false", True), ("False", True), ("NO", True)]:
        env = {"HOUSINGRISK_NO_PREWHITEN": text}
        assert resolve(["integrate"], env).prewhiten is prewhiten, text
    for text in ["off", "on", "2", "y"]:
        with pytest.raises(ConfigError) as exc:
            resolve(["integrate"], {"HOUSINGRISK_NO_PREWHITEN": text})
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

SYNTH_FILES = {"hpi_synth.csv", "factors_synth.csv", "transforms_synth.json", "ground_truth.json"}
# What each command writes besides the synthetic inputs and run_manifest.json.
COMMAND_ARTIFACTS = {
    "synth": set(),
    "ingest": {"panel_summary.csv"},
    "integrate": {"integration_series.csv", "integration_summary.csv", "cohort_averages.csv"},
    "jumps": {"jump_series.csv", "jump_incidence.csv"},
    "correlate": {"pair_correlations.csv", "correlation_summary.csv", "division_report.csv"},
    "contagion": {"contagion_fits.csv"},
    "portfolio": {"portfolio_series.csv", "series_correlations.csv"},
    "report": {f"table{i}.csv" for i in range(1, 7)} | {f"fig{i}.csv" for i in range(2, 6)},
}


@pytest.mark.parametrize("command", [*COMMAND_ARTIFACTS, "all"])
def test_each_command_writes_exactly_its_artifacts(tmp_path, command):
    rpath, out = write_scenario(tmp_path)
    assert main([command, "--config", str(rpath)]) == 0
    expected = EXPECTED_ALL if command == "all" else SYNTH_FILES | COMMAND_ARTIFACTS[command] | {"run_manifest.json"}
    assert {p.name for p in out.iterdir()} == expected


def test_readme_lists_each_commands_artifacts_in_table_order():
    from housingrisk.cli import ARTIFACTS

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command | artifacts |\n|---|---|\n")[1].split("\n\n")[0]
    listed = [(cells[1].strip("` "), [a.strip("` ") for a in cells[2].split(",")])
              for cells in (line.split("|") for line in table.splitlines())]
    declared = {}
    for name, command, _ in ARTIFACTS:
        declared.setdefault(command, []).append(name)
    assert len({name for name, _, _ in ARTIFACTS}) == len(ARTIFACTS)  # each file declared once
    assert listed == list(declared.items())
    assert {c: set(names) for c, names in listed} == {c: a for c, a in COMMAND_ARTIFACTS.items() if a}


def test_readme_lists_the_integration_family_in_table_order():
    from housingrisk.cli import ARTIFACTS, INTEGRATION_FAMILY

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    bullet = readme.split("- The child computes and writes the integration family:")[1].split("\n- ")[0]
    listed = re.findall(r"`([^`]+\.csv)`", bullet)
    assert listed == [name for name, _, _ in ARTIFACTS if name in INTEGRATION_FAMILY]


def csv_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_report_views_show_their_sources(tmp_path):
    rpath, out = write_scenario(tmp_path)
    assert main(["all", "--config", str(rpath)]) == 0
    assert (out / "table3.csv").read_bytes() == (out / "correlation_summary.csv").read_bytes()
    assert (out / "table4.csv").read_bytes() == (out / "division_report.csv").read_bytes()
    fig_header = ["series", "quarter", "value"]
    assert csv_rows(out / "fig2.csv") == [fig_header] + csv_rows(out / "cohort_averages.csv")[1:]
    assert csv_rows(out / "fig4.csv") == [fig_header] + [row[:3] for row in csv_rows(out / "jump_incidence.csv")[1:]]

    header, *rows = csv_rows(out / "integration_summary.csv")
    assert header[:2] == ["row_type", "key"] and header[-1] == "note"
    assert csv_rows(out / "table1.csv") == [["msa_id"] + header[2:-1]] + [
        row[1:-1] for row in rows if row[0] == "msa"]

    header, *rows = csv_rows(out / "contagion_fits.csv")
    for name, variant in (("table5.csv", "base"), ("table6.csv", "interacted")):
        keep = [k for k, h in enumerate(header) if h != "variant" and not (variant == "base" and h.startswith("ix_"))]
        shown = [[row[k] for k in keep] for row in [header] + rows if row is header or row[2] == variant]
        assert len(shown) > 1 and csv_rows(out / name) == shown, name


def test_a_duplicated_msa_has_an_infinite_pair_t(tmp_path, capsys):
    # |r| = 1 gives t = inf, which README documents as that cell's text.
    rpath, synth_out = write_scenario(tmp_path)
    main(["synth", "--config", str(rpath)])
    hpi = synth_out / "hpi_synth.csv"
    header, *rows = csv_rows(hpi)
    with open(hpi, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows, *(["S999"] + r[1:] for r in rows if r[0] == "S001")])
    out = tmp_path / "out2"
    capsys.readouterr()
    assert main(["correlate", "--config", str(csv_config(tmp_path, synth_out, out))]) == 0
    assert capsys.readouterr().err == ""
    rows = csv_rows(out / "pair_correlations.csv")
    assert ["S001", "S999", "return", "contemporaneous", "1", "120", "inf"] in rows
    assert any(row[:3] == ["S001", "S999", "jump"] and row[-1] == "inf" for row in rows)
    assert all(row[-1] != "inf" for row in rows if "S999" not in row[:2])


# --- a panel with California metro names -------------------------------------

# The CLI scenario's metros renamed: coastal and inland CA metros that the
# default city menu and coastal list name, and two outside CA. Redding keeps
# only its last ten levels, too few to integrate, to fill a 20-quarter
# window or to give the CA residual a trend. The factors stop at 2004:Q4 and
# Denver's levels start there: it fills one window but is not integrated.
CA_METROS = {
    "S001": ("Los Angeles-Long Beach, CA", "CA"),
    "S002": ("San Francisco, CA", "CA"),
    "S003": ("Riverside, CA", "CA"),
    "S004": ("Fresno, CA", "CA"),
    "S005": ("Oakland, CA", "CA"),
    "S006": ("Redding, CA", "CA"),
    "S007": ("Boston, MA", "MA"),
    "S008": ("Denver, CO", "CO"),
}


def ca_config(tmp_path, out_name, state="CA", **settings):
    """A run config on the CLI scenario's inputs with CA_METROS's names and
    states (``state`` in place of CA), plus ``settings``."""
    rpath, synth_out = write_scenario(tmp_path, out_name=f"{out_name}_inputs")
    main(["synth", "--config", str(rpath)])
    first = {"S006": "2007:Q3", "S008": "2004:Q4"}
    hpi, factors = synth_out / "hpi_synth.csv", synth_out / "factors_synth.csv"
    header, *rows = csv_rows(hpi)
    with open(hpi, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + [
            [row[0], name, state if st == "CA" else st, *row[3:]]
            for row in rows
            for name, st in [CA_METROS[row[0]]]
            if row[3] >= first.get(row[0], "")
        ])
    header, *rows = csv_rows(factors)
    with open(factors, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + [row for row in rows if row[0] <= "2004:Q4"])
    cfg = csv_config(tmp_path, synth_out, tmp_path / out_name)
    cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), **settings)))
    return cfg


def column_values(path, column) -> list[str]:
    """The distinct values of one column of a CSV artifact, in row order."""
    header, *rows = csv_rows(path)
    return list(dict.fromkeys(row[header.index(column)] for row in rows))


def test_a_ca_panel_gets_the_ca_cohorts_the_city_menu_and_drops_what_it_cannot_fit(tmp_path, capsys):
    portfolios = {"us": {"available_from": "1983:Q4"}, "ca": {"state": "CA", "available_from": "1994:Q4"},
                  "nv": {"state": "NV"}, "redding": {"members": ["S006"]}, "denver": {"members": ["S008"]}}
    cfg = ca_config(tmp_path, "out", portfolios=portfolios,
                    sub_ranges={"2000s": ["2000:Q1", "2009:Q4"], "late": ["2008:Q2", "2009:Q4"]})
    assert main(["all", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    out = tmp_path / "out"
    assert column_values(out / "cohort_averages.csv", "cohort") == ["us", "cohort2", "ca_coastal", "ca_inland"]
    assert column_values(out / "jump_incidence.csv", "cohort") == ["us", "ca", "ca_coastal", "ca_inland"]
    # No contagion menu is configured, so the default city menu picks the pairs.
    header, *rows = csv_rows(out / "contagion_fits.csv")
    assert [tuple(row[:3]) for row in rows] == [
        (target, source, variant)
        for target, source in (("S003", "S001"), ("S004", "S001"), ("S005", "S002"))
        for variant in ("base", "interacted")
    ]
    # A portfolio with no member, and one too short for a window, are dropped.
    assert column_values(out / "portfolio_series.csv", "portfolio") == ["ca", "denver", "us"]
    # A portfolio with no integrated member has no series correlations, nor
    # does a sub-range past the last window.
    assert column_values(out / "series_correlations.csv", "portfolio") == ["ca", "us"]
    assert column_values(out / "series_correlations.csv", "range") == ["full", "2000s"]


LISTED = ["S001", "S002", "S007", "S008"]  # CA, CA, MA and CO; S008's first return is in 2005:Q1


@pytest.mark.parametrize("spec, kept, digests", [
    pytest.param({"members": LISTED}, LISTED, ["bc85be584cdc8d6fb93d781e0a11e55d60586eb80581fae4771f54b5d3b20594",
                                               "647e10c4b8b6d9837f44739bb2963ca5d439cf23296f01b18f797b3e8381afef"],
                 id="members"),
    pytest.param({"members": LISTED, "state": "ca"}, ["S001", "S002"], None, id="members-in-a-state"),
    pytest.param({"members": LISTED, "available_from": "2004:Q4"}, ["S001", "S002", "S007"], None,
                 id="members-available-by-a-quarter"),
    pytest.param({"members": [*LISTED, "S006"], "state": "CA", "available_from": "2004:Q4"}, ["S001", "S002"],
                 None, id="members-in-a-state-available-by-a-quarter"),
])
def test_a_portfolio_keeps_its_listed_members_in_its_state_available_by_its_quarter(tmp_path, spec, kept, digests):
    cfg = ca_config(tmp_path, "out", portfolios={"p": spec, "q": {"members": kept}})
    assert main(["portfolio", "--config", str(cfg)]) == 0
    out, names = tmp_path / "out", ["portfolio_series.csv", "series_correlations.csv"]
    for name in names:
        rows = csv_rows(out / name)[1:]
        assert [row[1:] for row in rows if row[0] == "p"] == [row[1:] for row in rows if row[0] == "q"]
    assert column_values(out / "portfolio_series.csv", "portfolio") == ["p", "q"]
    if digests:
        assert [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names] == digests


def quarter_rows(codes, *columns) -> list[list[str]]:
    """The cells an artifact writes for each quarter: a float as %.10g, NaN blank, an integer as is."""
    return [[str(QuarterIndex.from_code(int(code))),
             *("" if v != v else f"{v:.10g}" if isinstance(v, float) else str(v) for v in values)]
            for code, *values in zip(codes, *columns)]


def test_the_ca_split_rows_are_those_of_its_members(tmp_path):
    rpath, out = write_scenario(tmp_path, **README_SCENARIO)
    rpath.write_text(json.dumps(dict(json.loads(rpath.read_text()), cohorts={"ca_coastal": ["S001"]})))
    assert main(["all", "--config", str(rpath)]) == 0
    returns = compute_returns(load_hpi_panel(out / "hpi_synth.csv"))
    factors = load_factor_table(out / "factors_synth.csv", json.loads((out / "transforms_synth.json").read_text()))
    integration, jumps = integrate_panel(returns, factors), lm_series(returns)
    cohorts = {"ca": ["S001", "S011"], "ca_coastal": ["S001"], "ca_inland": ["S011"]}

    averages = csv_rows(out / "cohort_averages.csv")[1:]
    for name in ("ca_coastal", "ca_inland"):
        expected = quarter_rows(*cohort_average(integration, cohorts[name]))
        assert [row[1:] for row in averages if row[0] == name] == expected != []
    incidence = csv_rows(out / "jump_incidence.csv")[1:]
    for name, members in cohorts.items():
        expected = quarter_rows(*jump_incidence(jumps, [jumps.ids.index(m) for m in members], flag="big"))
        assert [row[1:] for row in incidence if row[0] == name] == expected != []


def test_a_metro_whose_state_is_in_no_census_division_is_counted_in_none(tmp_path, capsys):
    reports = []
    for state in ("PR", ""):  # S004's
        states = ["CA", "TX", "NY", state, "IL", "WA", "MA", "CO", "GA", "MN", "CA", "TX"]
        rpath, out = write_scenario(tmp_path, out_name=f"out{state}", **dict(README_SCENARIO, states=states))
        assert main(["all", "--config", str(rpath)]) == 0
        reports.append((out / "division_report.csv").read_bytes())
    assert capsys.readouterr().err == ""
    assert reports[0] == reports[1]


def test_a_ca_equal_weighted_residual_too_short_gives_base_fits_only(tmp_path):
    # Every CA metro reports only in Redding's last ten quarters, too few
    # for the residual's trend fit.
    cfg = ca_config(tmp_path, "out", interaction_residual="ca-equal-weighted")
    assert main(["contagion", "--config", str(cfg)]) == 0
    assert column_values(tmp_path / "out" / "contagion_fits.csv", "variant") == ["base"]


def test_a_ca_equal_weighted_residual_needs_a_ca_metro(tmp_path, capsys):
    cfg = ca_config(tmp_path, "out", state="NV", interaction_residual="ca-equal-weighted")
    capsys.readouterr()
    assert main(["contagion", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "housingrisk: error: interaction_residual=ca-equal-weighted needs MSAs with state CA\n")
    assert not (tmp_path / "out").exists()


def test_a_ca_equal_weighted_index_out_of_float_range_fails_before_any_write(tmp_path, capsys):
    # The one CA metro's levels run from 1e-300 to 1e300 over 40 quarters,
    # each ratio a float, but the index rebuilt from their returns passes the
    # largest float in 1995:Q1.
    quarters = [f"{1990 + q // 4}:Q{q % 4 + 1}" for q in range(40)]
    levels = {"A": np.logspace(-300, 300, 40), **{f"T{j}": 100 * 1.01 ** np.arange(40) + j for j in range(5)}}
    hpi, factors, out = tmp_path / "hpi.csv", tmp_path / "factors.csv", tmp_path / "out"
    hpi.write_text("msa_id,msa_name,state,quarter,index\n" + "".join(
        f"{m},{m},{'CA' if m == 'A' else 'TX'},{q},{v!r}\n" for m, v in levels.items() for q, v in zip(quarters, v.tolist())))
    factors.write_text("quarter,F1,F2\n" + "".join(
        f"{q},{100 + 7 * np.sin(t):.6f},{50 * 1.01 ** t + 3 * np.cos(3 * t):.6f}\n" for t, q in enumerate(quarters)))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"inputs": {"hpi": str(hpi), "factors": str(factors), "transforms":
                                          {"F1": "log_level", "F2": "log_level"}},
                               "out": str(out), "interaction_residual": "ca-equal-weighted",
                               "window": 8, "bipower_window": 8}))
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(["contagion", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == ("housingrisk: error: interaction_residual=ca-equal-weighted: the CA "
                                       "equal-weighted index at 1995:Q1 is out of float range\n")
    assert sorted(tmp_path.iterdir()) == before


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


# --- metamorphic invariants -------------------------------------------------
# Changes of input that should not matter must leave the artifacts' bytes as
# they were, on small panels where each MSA enters after a drawn number of
# quarters.

LOCAL_SCENARIO = dict(SCENARIO, n_msas=6, n_quarters=80)
LOCAL_ENTRY = st.lists(st.integers(0, 30), min_size=7, max_size=7)  # quarters each MSA is late


def ragged_hpi(directory, seed, late, n_msas):
    """(header, rows) of the HPI file of a synth run of ``LOCAL_SCENARIO``
    with ``n_msas`` MSAs at ``seed`` into ``directory/syn``, with the first
    ``late[i]`` levels of MSA i dropped; ``all_on`` reads the factors and
    transforms that run wrote."""
    (directory / "scenario.json").write_text(json.dumps(dict(LOCAL_SCENARIO, n_msas=n_msas, seed=seed)))
    (directory / "synth.json").write_text(json.dumps({"synth_scenario": "scenario.json", "out": "syn"}))
    assert main(["synth", "--config", str(directory / "synth.json")]) == 0
    with open(directory / "syn" / "hpi_synth.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    ids = sorted({r[0] for r in rows})
    seen = dict.fromkeys(ids, 0)
    kept = []
    for r in rows:
        seen[r[0]] += 1
        if seen[r[0]] > late[ids.index(r[0])]:
            kept.append(r)
    return header, kept


def all_on(directory, header, rows) -> dict[str, bytes]:
    """Every file `all` writes from these HPI rows and the synth factors in
    ``directory``. Each run reads one HPI path and writes one out path, so
    that two runs can differ only through the rows."""
    with open(directory / "hpi.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    config = directory / "run.json"
    config.write_text(json.dumps({"inputs": {"hpi": "hpi.csv", "factors": "syn/factors_synth.csv",
                                             "transforms": "syn/transforms_synth.json"}, "out": "out"}))
    out = directory / "out"
    if out.exists():
        for p in out.iterdir():
            p.unlink()
    assert main(["all", "--config", str(config)]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


def assert_same_but_the_hpi_hash(first: dict[str, bytes], second: dict[str, bytes]) -> None:
    """Two ``all_on`` outputs are byte-identical, but for the HPI file's hash in the manifest."""
    manifests = [json.loads(out.pop("run_manifest.json")) for out in (first, second)]
    assert first == second
    for manifest in manifests:
        [hpi] = [name for name in manifest["inputs"] if Path(name).name == "hpi.csv"]
        del manifest["inputs"][hpi]
    assert manifests[0] == manifests[1]


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**16), late=LOCAL_ENTRY, order=st.integers(0, 2**32 - 1))
def test_the_order_of_the_hpi_records_does_not_change_out(tmp_path, seed, late, order):
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    header, rows = ragged_hpi(directory, seed, late, LOCAL_SCENARIO["n_msas"])
    first = all_on(directory, header, rows)
    second = all_on(directory, header, [rows[i] for i in np.random.default_rng(order).permutation(len(rows))])
    assert_same_but_the_hpi_hash(first, second)


def lines_without(data: bytes, msa_id: str, id_fields: int) -> list[bytes]:
    """The lines of a CSV artifact none of whose first ``id_fields`` fields is ``msa_id``."""
    return [line for line in data.splitlines() if msa_id.encode() not in line.split(b",")[:id_fields]]


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**16), late=LOCAL_ENTRY, added=st.integers(0, LOCAL_SCENARIO["n_msas"]))
@example(seed=226, late=[0] * 7, added=0)
def test_an_added_msa_leaves_the_rows_of_every_other_msa_as_they_were(tmp_path, seed, late, added):
    # Locality: no fit, scaling or stacking may tie one MSA's bits to the
    # other MSAs of the panel.
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    header, rows = ragged_hpi(directory, seed, late, LOCAL_SCENARIO["n_msas"] + 1)
    new = f"S{added + 1:03d}"
    without = all_on(directory, header, [r for r in rows if r[0] != new])
    with_new = all_on(directory, header, rows)
    for name, id_fields in [("panel_summary.csv", 1), ("integration_series.csv", 1), ("jump_series.csv", 1),
                            ("pair_correlations.csv", 2)]:
        assert lines_without(with_new[name], new, id_fields) == without[name].splitlines(), name
        assert with_new[name] != without[name], name


@settings(max_examples=7, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**16), late=LOCAL_ENTRY,
       powers=st.lists(st.integers(-1000, 1000), min_size=LOCAL_SCENARIO["n_msas"], max_size=LOCAL_SCENARIO["n_msas"]))
@example(seed=4, late=[0, 4, 8, 0, 2, 12, 0], powers=[37, 0, 0, 0, 0, 0])
def test_a_power_of_two_scale_of_any_msas_levels_does_not_change_out(tmp_path, seed, late, powers):
    # MSA i's levels times 2**powers[i] (0 leaves it as it was), written
    # exactly; S001, the first MSA, is the contagion source of the fallback
    # menu, and its boom/bust residual feeds every interacted fit.
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    header, rows = ragged_hpi(directory, seed, late, LOCAL_SCENARIO["n_msas"])
    ids = sorted({r[0] for r in rows})
    scaled = [[*r[:-1], repr(float(r[-1]) * 2.0 ** powers[ids.index(r[0])])] for r in rows]
    first = all_on(directory, header, rows)
    second = all_on(directory, header, scaled)
    assert_same_but_the_hpi_hash(first, second)


@settings(max_examples=7, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**16), late=LOCAL_ENTRY,
       labels=st.lists(st.text("ABCXYZ0189", min_size=1, max_size=6), unique=True,
                       min_size=LOCAL_SCENARIO["n_msas"], max_size=LOCAL_SCENARIO["n_msas"]))
def test_an_order_preserving_relabelling_of_ids_changes_only_the_id_cells(tmp_path, seed, late, labels):
    # The ids (and the names, which are the ids in a synth panel) are
    # replaced by others that sort in the same order.
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    header, rows = ragged_hpi(directory, seed, late, LOCAL_SCENARIO["n_msas"])
    relabel = dict(zip(sorted({r[0] for r in rows}), sorted(labels)))
    assert all(r[0] == r[1] for r in rows)
    first = all_on(directory, header, rows)
    second = all_on(directory, header, [[relabel[r[0]], relabel[r[1]], *r[2:]] for r in rows])
    del first["run_manifest.json"], second["run_manifest.json"]  # it holds the outputs' hashes
    old = {k.encode(): v.encode() for k, v in relabel.items()}
    for name, data in first.items():
        lines = [b",".join(old.get(f, f) for f in line.split(b",")) for line in data.splitlines()]
        assert second[name].splitlines() == lines, name


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
    pytest.param({"pairs": {"min_overlap": 2}}, id="min-overlap-below-3"),
    pytest.param({"pairs": {"min_overlap": -5}}, id="min-overlap-negative"),
    pytest.param({"pairs": {"jump_floor": 2}}, id="jump-floor-below-3"),
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
    pytest.param({"sub_ranges": {"x": ["2009:Q4", "2000:Q1"]}}, id="sub-range-reversed"),
    pytest.param({"cohorts": {"time": {"c1": "1990:Q9"}}}, id="time-cohort-bad-quarter"),
    pytest.param({"cohorts": {"time": ["1990:Q1"]}}, id="time-cohorts-list"),
    pytest.param({"cohorts": {"ca_coastal": "Los Angeles"}}, id="ca-coastal-string"),
    pytest.param({"cohorts": {"ca_coastal": [1]}}, id="ca-coastal-number"),
    pytest.param({"cohorts": {"ca_coastal": [""]}}, id="ca-coastal-blank"),
    pytest.param({"portfolios": {"p": {"available_from": "bad"}}}, id="portfolio-bad-quarter"),
    pytest.param({"portfolios": {"p": ["x"]}}, id="portfolio-list"),
    pytest.param({"portfolios": {"p": {"members": [1, 2]}}}, id="portfolio-member-numbers"),
    pytest.param({"portfolios": {"p": {"members": ["S001", "NOPE"]}}}, id="portfolio-unknown-member"),
    pytest.param({"portfolios": {"p": {"members": ["S001", "S002", "S001"]}}}, id="portfolio-duplicate-member"),
    pytest.param({"portfolios": {"p": {"member": ["S001"]}}}, id="portfolio-unknown-key"),
    pytest.param({"contagion": {"Nowhere": ["S002"]}}, id="contagion-unknown-source"),
    pytest.param({"contagion": {"S001": [2]}}, id="contagion-target-number"),
    pytest.param({"contagion": ["Los Angeles"]}, id="contagion-list"),
    pytest.param({"contagion": {"": ["S002"]}}, id="contagion-blank-source"),
    pytest.param({"contagion": {"S001": [" \t"]}}, id="contagion-blank-target"),
    pytest.param({"prewhiten": "no"}, id="prewhiten-string"),
    pytest.param({"income_as_level": 1}, id="income-as-level-number"),
    pytest.param({"seed": -1}, id="seed-negative"),
    pytest.param({"out": 5}, id="out-number"),
    pytest.param({"out": ""}, id="out-empty"),
    pytest.param({"inputs": {"transforms": 3}}, id="transforms-number"),
    pytest.param({"cohorts": {"time": {"us": "1990:Q1"}}}, id="time-cohort-named-us"),
    pytest.param({"cohorts": {"time": {"ca_coastal": "1990:Q1"}}}, id="time-cohort-named-ca-coastal"),
    pytest.param({"cohorts": {"time": {"ca_inland": "1990:Q1"}}}, id="time-cohort-named-ca-inland"),
    pytest.param({"sub_ranges": {"full": ["2000:Q1", "2009:Q4"]}}, id="sub-range-named-full"),
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


@pytest.mark.parametrize("declared,message", [
    pytest.param("transforms.json", "transforms.json: CNP16OV must be one of ('log_level', 'log_pct_change'), "
                 "got 'log_levl'", id="file"),
    pytest.param({"CNP16OV": "log_levl"}, "inputs.transforms.CNP16OV must be one of ('log_level', "
                 "'log_pct_change'), got 'log_levl'", id="inline"),
])
def test_a_misspelt_transform_is_named_where_it_is_declared(tmp_path, capsys, monkeypatch, declared, message):
    monkeypatch.chdir(tmp_path)
    Path("hpi.csv").write_text("msa_id,msa_name,state,quarter,index\nA,Alpha,CA,2000:Q1,1.0\nA,Alpha,CA,2000:Q2,2.0\n")
    Path("factors.csv").write_text("quarter,CNP16OV\n2000:Q1,1.0\n2000:Q2,2.0\n")
    Path("transforms.json").write_text(json.dumps({"CNP16OV": "log_levl"}))
    Path("run.json").write_text(json.dumps({"inputs": {"hpi": "hpi.csv", "factors": "factors.csv",
                                                       "transforms": declared}}))
    before = sorted(os.listdir())
    assert main(["ingest", "--config", "run.json"]) == 2
    assert capsys.readouterr().err == f"housingrisk: error: {message}\n"
    assert sorted(os.listdir()) == before


@pytest.mark.parametrize("config,message", [
    pytest.param(None, "config file not found: {path}", id="missing"),
    pytest.param([1, 2], "config file {path} must hold a JSON object", id="not-an-object"),
    pytest.param({"inputs": {"hpi": "hpi.csv"}}, "inputs.factors is required alongside inputs.hpi",
                 id="hpi-without-factors"),
])
def test_a_config_no_run_can_start_from_fails_before_any_write(tmp_path, capsys, monkeypatch, config, message):
    monkeypatch.chdir(tmp_path)
    Path("hpi.csv").write_text("msa_id,msa_name,state,quarter,index\nA,Alpha,CA,2000:Q1,1.0\nA,Alpha,CA,2000:Q2,2.0\n")
    path = tmp_path / "run.json"
    if config is not None:
        path.write_text(json.dumps(config))
    before = sorted(os.listdir())
    assert main(["all", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"housingrisk: error: {message.format(path=path)}\n"
    assert sorted(os.listdir()) == before  # no out/, no stage left behind


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
    pytest.param(scenario_bytes(idio_sigma=[1.0, 1.0]),
                 ": invalid scenario: idio_sigma must be a scalar or length-8, got shape (2,)", id="idio-sigma-short"),
    pytest.param(scenario_bytes(idio_sigma=-1), ": invalid scenario: idio_sigma must be non-negative",
                 id="idio-sigma-negative"),
    pytest.param(scenario_bytes(idio_sigma=[[1.0], [1.0, 2.0]]),
                 ": invalid scenario: idio_sigma must be a number or a regular nested list of numbers",
                 id="idio-sigma-ragged"),
    pytest.param(scenario_bytes(phi=1.0), ": invalid scenario: phi must satisfy |phi| < 1", id="phi-unit-root"),
    pytest.param(scenario_bytes(loadings=[0.5, 0.5], n_factors=3),
                 ": invalid scenario: loadings shape (2,) is none of a scalar, (3,), (8, 3) or (120, 8, 3)",
                 id="loadings-shape"),
    pytest.param(scenario_bytes(states=["CA"]), ": invalid scenario: states must have 8 entries, got 1",
                 id="states-short"),
    pytest.param(scenario_bytes(jumps=[{"quarter": 10000, "msas": [1], "magnitude": 6.0}]),
                 ": invalid scenario: jump quarter 10000 outside the return range", id="jump-past-the-end"),
    pytest.param(scenario_bytes(contagion=[{"source": 2, "target": 2, "weights": [0.5]}]),
                 ": invalid scenario: contagion plan maps S003 onto itself", id="contagion-onto-itself"),
    pytest.param(scenario_bytes(contagion=[{"source": "ZZZ", "target": 2, "weights": [0.5]}]),
                 ": invalid scenario: contagion plan: unknown MSA 'ZZZ'", id="contagion-unknown-source"),
    pytest.param(scenario_bytes(contagion=[{"source": 99, "target": 2, "weights": [0.5]}]),
                 ": invalid scenario: contagion plan: MSA index 99 out of range", id="contagion-source-index"),
    pytest.param(scenario_bytes(contagion=[{"source": 0, "target": 2, "weights": []}]),
                 ": invalid scenario: contagion weights must have between 1 and n_quarters entries",
                 id="contagion-no-weights"),
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
        resolve(["integrate", "--config", str(p)], {})
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


def s002_last_11(rows):
    """HPI rows with S002's last 11 levels only: 10 quarters of returns overlap each source."""
    return [r for r in rows if r[0] != "S002"] + [r for r in rows if r[0] == "S002"][-11:]


def s001_from_41(rows):
    """HPI rows without S001's first 40 levels; S001 is the panel's one CA MSA."""
    return [r for r in rows if r[0] != "S001"] + [r for r in rows if r[0] == "S001"][40:]


@pytest.mark.parametrize("edit, settings, leading, digests", [
    # S002's overlap with either source is under n_lags + 8 = 11 quarters.
    (s002_last_11, {}, [
        ["S002", "S001", "skipped", "10", "insufficient overlap"],
        ["S003", "S001", "base", "117", "ols"],
        ["S003", "S001", "interacted", "116", "cochrane_orcutt"],
        ["S002", "S004", "skipped", "10", "insufficient overlap"],
    ], ["b9579bdcf98affe5e6b589e135e1b2f246d1f5f9a993ec479a967ff304fc72b4",
        "16fe10199f2bf8bdd7b9b0cb9842b1af772907edc14a652ac1670f410f8c2532",
        "cdcc9b6543f2e2d969b9b06ea12a321f649a13e727ebdd094b41f205c3f6a26c"]),
    # The CA index starts with S001, 40 quarters after S004 and S002 do, so
    # S004 -> S002 has no residual over its overlap and gets a base fit only.
    (s001_from_41, {"interaction_residual": "ca-equal-weighted"}, [
        ["S002", "S001", "base", "76", "cochrane_orcutt"],
        ["S002", "S001", "interacted", "76", "cochrane_orcutt"],
        ["S003", "S001", "base", "76", "cochrane_orcutt"],
        ["S003", "S001", "interacted", "76", "cochrane_orcutt"],
        ["S002", "S004", "base", "116", "cochrane_orcutt"],
    ], ["75dfdfe8f6a2385f491c36cab9605838daccc2d90bb20f1b1ea4b79e8f919038",
        "55f528ab8b622c07d1486b49215d16fbb2141a98ba3d03aba9cc82f148929526",
        "8eb133b20c960f8bce18de8dbad3e2087ee838fa14faacdabd02f60c2a40911a"]),
], ids=["short-overlap", "late-residual"])
def test_contagion_tables_of_unfitted_pairs_and_uncovered_residuals(tmp_path, capsys, edit, settings, leading, digests):
    cpath, out = contagion_config(tmp_path, edit)
    cpath.write_text(json.dumps(dict(json.loads(cpath.read_text()), **settings)))
    for command in ("contagion", "report"):
        assert main([command, "--config", str(cpath)]) == 0
    assert capsys.readouterr().err == ""
    assert [row[:5] for row in csv_rows(out / "contagion_fits.csv")[1:]] == leading
    names = ["contagion_fits.csv", "table5.csv", "table6.csv"]
    assert [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names] == digests


def test_a_pair_named_twice_is_fitted_once(tmp_path, capsys):
    once = contagion_csv_bytes(tmp_path, capsys)
    # Each pair again, by id and by a name fragment (the CLI-test names are the ids).
    twice = {"S001": ["S002", "s002", "S003", "S003"], "S004": ["S002"], "s004": ["S002", "s002"]}
    assert contagion_csv_bytes(tmp_path, capsys, menu=twice) == once
    assert once.count(b"\n") == 1 + 2 * 3  # the header, then base and interacted for each pair


@pytest.mark.parametrize("command", ["contagion", "all"])
def test_a_one_msa_panel_writes_a_header_only_contagion_table(tmp_path, capsys, command):
    # The default menu needs a second MSA, so there is no contagion pair to
    # fit; only the lead pair of the MSA with itself is correlated.
    rpath, out = write_scenario(tmp_path, n_msas=1, n_quarters=40, n_factors=1, jumps=[], contagion=[])
    assert main([command, "--config", str(rpath)]) == 0
    views = ["table5.csv", "table6.csv"] if command == "all" else []
    for name in ["contagion_fits.csv"] + views:
        assert (out / name).read_bytes().count(b"\n") == 1, name
    if command == "all":
        assert {p.name for p in out.iterdir()} == EXPECTED_ALL
        rows = list(csv.reader(io.StringIO((out / "pair_correlations.csv").read_text())))
        assert [r[:4] for r in rows[1:]] == [["S001", "S001", "return", "lead"]]


NO_PAIR = "contagion menu resolves to no pair of distinct source and target MSAs"


@pytest.mark.parametrize("command", ["contagion", "all"])
@pytest.mark.parametrize("menu, message", [
    ({"S001": ["S001"]}, NO_PAIR),
    ({}, NO_PAIR),
    ({"S001": ["S002"], "Nowhere": ["S002"]}, "contagion source 'Nowhere' matches no MSA"),
    ({"S001": ["S002", "Nowhere"]}, "contagion target 'Nowhere' matches no MSA"),
], ids=["self-pair", "empty", "unknown-source", "unknown-target"])
def test_a_menu_that_names_no_pair_fails_before_any_write(tmp_path, capsys, command, menu, message):
    cpath, out = contagion_config(tmp_path, menu=menu)
    out.mkdir()
    (out / "old.csv").write_bytes(b"kept\n")
    capsys.readouterr()
    assert main([command, "--config", str(cpath)]) == 2
    assert capsys.readouterr().err == f"housingrisk: error: {message}\n"
    assert [p.name for p in out.iterdir()] == ["old.csv"]
    assert not list(tmp_path.glob(".plain.*"))


def test_a_failing_fit_fails_the_run_and_writes_nothing(tmp_path, capsys, monkeypatch):
    import housingrisk.cli as cli
    from housingrisk import HousingRiskError

    fits = cli.contagion_fits

    def failing(groups, *args):
        if any(len(targets) == 1 for targets, _, _ in groups):  # S004's group has one target
            raise HousingRiskError("no fit for the one-target group")
        return fits(groups, *args)

    monkeypatch.setattr(cli, "contagion_fits", failing)
    cpath, out = contagion_config(tmp_path)
    out.mkdir()
    (out / "old.csv").write_bytes(b"kept\n")
    capsys.readouterr()
    assert main(["contagion", "--config", str(cpath)]) == 2
    assert capsys.readouterr().err == "housingrisk: error: no fit for the one-target group\n"
    assert [p.name for p in out.iterdir()] == ["old.csv"]
    assert not list(tmp_path.glob(".plain.*"))


def test_contagion_bytes_do_not_depend_on_blas_threads(tmp_path):
    # An all-pairs menu of 552 targets, run once with the BLAS thread pool at
    # its default size and once pinned to one thread: the stacked solves of
    # 23-target groups must give the same bytes either way.
    import subprocess
    import sys

    import housingrisk

    ids = [f"S{i:03d}" for i in range(1, 25)]
    menu = {s: [t for t in ids if t != s] for s in ids}
    n_targets = len(ids) * (len(ids) - 1)
    rpath, _ = write_scenario(tmp_path, n_msas=len(ids), n_quarters=60)
    cfg = json.loads(rpath.read_text())
    rpath.write_text(json.dumps(dict(cfg, contagion=menu)))
    src = str(Path(housingrisk.__file__).resolve().parent.parent)
    code = "import sys; from housingrisk.cli import main; sys.exit(main())"
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = src
    outputs = []
    for name, extra in (("default", {}), ("pinned", dict.fromkeys(blas, "1"))):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-c", code, "contagion", "--config", str(rpath), "--out", str(out)],
                              env=dict(env, **extra), capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, ""), name
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


def usable_cpus(monkeypatch, n):
    """Report n usable CPUs: with 2, ``all`` and ``report`` fork their integration writer on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_all_computes_each_result_once(tmp_path, monkeypatch):
    # The integration family is computed in a forked child, so each call is
    # logged as a (pid, name) line in a file that both processes append to.
    import housingrisk.cli as cli
    import housingrisk.integration as integration

    log = tmp_path / "calls.txt"

    def record(*fields):
        with open(log, "a") as fh:
            fh.write(" ".join(map(str, (os.getpid(), *fields))) + "\n")

    def count(module, name, label):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            record(label)
            if name == "contagion_fits":  # (targets, source, residual) groups
                for _, source, _ in args[0]:
                    record("source", hashlib.sha256(np.asarray(source).tobytes()).hexdigest())
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("lm_series", "return_pair_correlations", "jump_pair_correlations",
                 "integration_summary", "diversification_series",
                 "boombust_residual", "contagion_fits"):
        count(cli, name, name)
    count(integration, "_fit_stack", "integration._fit_stack")
    usable_cpus(monkeypatch, 2)
    rpath, _ = write_scenario(tmp_path)
    assert main(["all", "--config", str(rpath)]) == 0
    lines = [line.split() for line in log.read_text().splitlines()]
    calls = {}
    pids = {}
    for pid, name, *_ in lines:
        calls[name] = calls.get(name, 0) + 1
        pids.setdefault(name, set()).add(pid)
    sources = {fields[2] for fields in lines if fields[1] == "source"}
    assert calls["integration._fit_stack"] == 1  # every MSA's windows in one span fit
    assert calls["lm_series"] == 1
    assert calls["return_pair_correlations"] == 2
    assert calls["jump_pair_correlations"] == 2
    assert calls["integration_summary"] == 1
    assert calls["diversification_series"] == len(RunConfig().portfolios)
    assert sources and calls["boombust_residual"] == len(sources)
    assert calls["contagion_fits"] == 1  # both variants of every source group
    # Each result is computed in one process: the integration family's in the
    # child, every other one in this process.
    assert all(len(p) == 1 for p in pids.values())
    in_child = {name for name, p in pids.items() if p != {str(os.getpid())}}
    assert in_child == {"integration._fit_stack", "integration_summary", "diversification_series"}


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


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py replaces names in the cli, integration, contagion
    # and regress modules; one that is gone makes a traced benchmark run die.
    import subprocess
    import sys

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_all_leaves_scipy_linalg_unloaded(tmp_path):
    # Each process that writes artifacts, the forked integration writer too,
    # logs the heavy modules it holds once its entries are written.
    import subprocess
    import sys

    import housingrisk

    rpath, out = write_scenario(tmp_path)
    log = tmp_path / "modules.txt"
    src = str(Path(housingrisk.__file__).resolve().parent.parent)
    code = (
        "import os, sys\n"
        "import housingrisk.cli as cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "write = cli._write_entries\n"
        "def logged(r, entries):\n"
        "    failure = write(r, entries)\n"
        "    held = [m for m in ('scipy.linalg', 'numpy.ma') if m in sys.modules]\n"
        "    with open(sys.argv[2], 'a') as fh:\n"
        "        fh.write(' '.join([str(os.getpid()), *held]) + '\\n')\n"
        "    return failure\n"
        "cli._write_entries = logged\n"
        "status = cli.main(['all', '--config', sys.argv[1]])\n"
        "sys.exit(status or 3 * ('scipy.linalg' in sys.modules) or 4 * ('numpy.ma' in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(rpath), str(log)], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode != 3, "housingrisk all imported scipy.linalg"
    assert proc.returncode != 4, "housingrisk all imported numpy.ma"
    assert proc.returncode == 0, proc.stderr
    assert (out / "run_manifest.json").is_file()
    held = [line.split() for line in log.read_text().splitlines()]
    assert len(held) == 2 and held[0][0] != held[1][0]  # this process and its child
    assert held == [[pid] for pid, *_ in held], held


# --- the forked integration writer -------------------------------------------

def test_the_integration_family_is_the_entries_that_read_the_integration(tmp_path):
    # And no result is read by an entry of each side, so the two processes
    # never compute one result twice.
    import housingrisk.cli as cli

    rpath, _ = write_scenario(tmp_path)
    stage = tmp_path / "stage"
    stage.mkdir()
    runner = cli._Runner(build_config(parse(["all", "--config", str(rpath)])), stage)
    runner.load()
    inputs = dict(runner.results)
    used = {True: set(), False: set()}
    for name, _, build in cli.ARTIFACTS:
        runner.results = dict(inputs)
        runner.call(build)
        in_family = "integration" in runner.results
        assert in_family == (name in cli.INTEGRATION_FAMILY), name
        used[in_family] |= set(runner.results) - set(inputs)
    assert not used[True] & used[False]
    assert cli.INTEGRATION_FAMILY <= {name for name, _, _ in cli.ARTIFACTS}


@pytest.mark.parametrize("command", ["all", "report"])
def test_the_forked_writer_writes_the_bytes_of_a_serial_run(tmp_path, monkeypatch, command):
    rpath, out = write_scenario(tmp_path)
    outputs = []
    for n in (1, 2):
        usable_cpus(monkeypatch, n)
        assert main([command, "--config", str(rpath)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        for p in out.iterdir():
            p.unlink()
    assert "run_manifest.json" in outputs[0] and "table1.csv" in outputs[0]
    assert outputs[0] == outputs[1]


def unpicklable_error() -> HousingRiskError:
    import threading

    error = HousingRiskError("no integration under lock")
    error.lock = threading.Lock()  # an error that could not cross a process boundary by pickle
    return error


@pytest.mark.parametrize("error", [HousingRiskError("no integration today"),
                                   OSError(28, "No space left on device", "integration_series.csv"),
                                   unpicklable_error()],
                         ids=["HousingRiskError", "OSError", "unpicklable"])
def test_a_failure_in_the_forked_writer_fails_the_run_and_writes_nothing(tmp_path, capsys, monkeypatch, error):
    import housingrisk.cli as cli

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "integrate_panel", failing)
    usable_cpus(monkeypatch, 2)
    rpath, out = write_scenario(tmp_path)
    capsys.readouterr()
    assert main(["all", "--config", str(rpath)]) == 2
    assert capsys.readouterr().err == f"housingrisk: error: {error}\n"
    assert not out.exists()
    assert not list(tmp_path.glob(".out.*"))
    with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("where", ["before-any-write", "in-a-write"])
def test_a_forked_writer_killed_in_the_child_leaves_the_bytes_of_a_serial_run(tmp_path, capsys, monkeypatch, where):
    # The child is only a speed-up: killed from outside (by the OOM killer,
    # say), its entries are written by the parent instead. Killed in the
    # middle of a write, it leaves a temp file in the stage.
    import signal

    import housingrisk.cli as cli
    import housingrisk.io as hio

    rpath, out = write_scenario(tmp_path)
    usable_cpus(monkeypatch, 1)
    assert main(["all", "--config", str(rpath)]) == 0
    serial = {p.name: p.read_bytes() for p in out.iterdir()}
    for p in out.iterdir():
        p.unlink()
    parent = os.getpid()
    module, name = (cli, "integrate_panel") if where == "before-any-write" else (hio, "_float_cells")
    fn = getattr(module, name)

    def killed_in_child(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, killed_in_child)
    usable_cpus(monkeypatch, 2)
    capsys.readouterr()
    assert main(["all", "--config", str(rpath)]) == 0
    assert capsys.readouterr().err == ""
    assert {p.name: p.read_bytes() for p in out.iterdir()} == serial
    assert not list(out.glob("*.tmp"))
    assert not list(tmp_path.glob(".out.*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_run_that_fails_in_both_processes_gives_the_serial_message(tmp_path, capsys, monkeypatch):
    # The integration entries (the child's) fail on the window, the jump
    # entries (this process's) on the bipower window; the first in table
    # order is an integration entry.
    rpath, out = write_scenario(tmp_path)
    flags = ["--window", "1000", "--bipower-window", "1000"]
    errors = []
    for n in (1, 2):
        usable_cpus(monkeypatch, n)
        capsys.readouterr()
        assert main(["all", "--config", str(rpath), *flags]) == 2
        errors.append(capsys.readouterr().err)
        assert not out.exists() and not list(tmp_path.glob(".out.*"))
    assert errors[0] == errors[1] and errors[0].count("\n") == 1
    assert "window" in errors[0] and "bipower" not in errors[0]


def test_an_interrupt_kills_and_reaps_the_forked_writer_before_the_stage_goes(tmp_path, monkeypatch):
    import time

    import housingrisk.cli as cli

    def slow(*args, **kwargs):
        time.sleep(60)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "integrate_panel", slow)
    monkeypatch.setattr(cli, "lm_series", interrupted)
    usable_cpus(monkeypatch, 2)
    rpath, out = write_scenario(tmp_path)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["all", "--config", str(rpath)])
    assert time.monotonic() - began < 30
    assert not out.exists() and not list(tmp_path.glob(".out.*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("entry", ["console-script", "module"])
def test_a_fork_that_warns_writes_nothing_on_stderr(tmp_path, entry):
    # Python 3.12+ warns with a DeprecationWarning, in the module that calls
    # os.fork, when a process that has threads forks; under ``python -m`` that
    # module is __main__, whose DeprecationWarnings are shown by default. A
    # sitecustomize gives every fork that warning, with BLAS threads unpinned.
    import subprocess
    import sys

    import housingrisk

    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        "import os, warnings\n"
        "fork = os.fork\n"
        "def warned():\n"
        "    warnings.warn('This process is multi-threaded, use of fork() may lead to deadlocks in the child.',\n"
        "                  DeprecationWarning, stacklevel=2)\n"
        "    return fork()\n"
        "os.fork = warned\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n")
    rpath, out = write_scenario(tmp_path)
    src = str(Path(housingrisk.__file__).resolve().parent.parent)
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas and not k.startswith("HOUSINGRISK_")}
    env["PYTHONPATH"] = os.pathsep.join([str(site), src])
    start = (["-c", "import sys; from housingrisk.cli import main; sys.exit(main())"] if entry == "console-script"
             else ["-m", "housingrisk.cli"])
    proc = subprocess.run([sys.executable, *start, "all", "--config", str(rpath)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert {p.name for p in out.iterdir()} == EXPECTED_ALL


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

    # Its key in a config file sets its field and no other; a relative path
    # is read from the config file's directory.
    p.write_text(json.dumps({section: {name: value}} if section else {name: value}))
    cfg = resolve(["ingest", "--config", str(p)], {})
    cfg.validate()
    read = os.path.join(tmp_path, value) if (section, name) in PATH_KEYS and isinstance(value, str) else value
    assert dataclasses.asdict(cfg) == dict(dataclasses.asdict(RunConfig()), **{setting.name: read})

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
        assert getattr(resolve(argv, {}), setting.name) == value
        env = {env_name: "1" if value is False else str(value)}
        assert getattr(resolve(["ingest"], env), setting.name) == value
    else:
        with pytest.raises(SystemExit):
            parse(["ingest", flag, "1"])
        assert resolve(["ingest"], {env_name: "1"}) == RunConfig()

    # README's key table names it.
    assert f"`{key}`" in README_KEY_TABLE
