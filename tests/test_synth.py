"""Synthetic panel generator: determinism, planted structure, ground truth."""

from __future__ import annotations

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from housingrisk import (
    ConfigError,
    ContagionPlan,
    JumpPlan,
    QuarterIndex,
    ScenarioConfig,
    compute_returns,
    generate_panel,
    ground_truth_report,
    loading_for_signal_share,
    scenario_from_json,
)
from housingrisk.cli import main


def small_config(**kw):
    base = dict(n_msas=4, n_quarters=60, n_factors=2, loadings=0.5,
                idio_sigma=1.0, phi=0.0, mu=0.5, seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


def test_same_seed_same_panel():
    p1, f1, _ = generate_panel(small_config())
    p2, f2, _ = generate_panel(small_config())
    assert_array_equal(p1.values, p2.values)
    assert_array_equal(f1.values, f2.values)


def test_different_seed_different_panel():
    p1, _, _ = generate_panel(small_config(seed=1))
    p2, _, _ = generate_panel(small_config(seed=2))
    assert not np.array_equal(p1.values, p2.values)


def test_phi_change_does_not_reshuffle_factors():
    # pre-sample AR state is always drawn, so factors are identical across phi
    _, f1, _ = generate_panel(small_config(phi=0.0))
    _, f2, _ = generate_panel(small_config(phi=0.6))
    assert_array_equal(f1.values, f2.values)


def test_panel_shape_and_levels():
    cfg = small_config()
    panel, table, _ = generate_panel(cfg)
    assert panel.msa_ids() == ["S001", "S002", "S003", "S004"]
    assert panel.n_quarters == 61         # levels carry one extra base quarter
    assert table.n_quarters == 60
    assert panel.start == QuarterIndex(1980, 1)
    assert table.start == QuarterIndex(1980, 2)
    _, levels = panel.series("S001")
    assert levels[0] == 100.0


def test_returns_round_trip_levels():
    cfg = small_config()
    panel, _, _ = generate_panel(cfg)
    rets = compute_returns(panel)
    _, r = rets.series("S002")
    assert len(r) == 60
    assert np.isfinite(r).all()


def test_mean_return_matches_mu():
    cfg = small_config(n_msas=40, n_quarters=2000, loadings=0.0, mu=0.8)
    panel, _, _ = generate_panel(cfg)
    rets = compute_returns(panel)
    assert np.nanmean(rets.values) == pytest.approx(0.8, abs=0.02)


def test_flat_scenario_all_hundred():
    cfg = small_config(loadings=0.0, idio_sigma=0.0, mu=0.0)
    panel, _, _ = generate_panel(cfg)
    assert_allclose(panel.values, 100.0)


def test_ar1_idio_autocorrelation():
    cfg = small_config(n_msas=1, n_quarters=20_000, loadings=0.0, phi=0.7, mu=0.0)
    panel, _, _ = generate_panel(cfg)
    _, r = compute_returns(panel).series("S001")
    ac1 = np.corrcoef(r[1:], r[:-1])[0, 1]
    assert ac1 == pytest.approx(0.7, abs=0.02)
    # stationary start: variance sigma^2 / (1 - phi^2), no burn-in drift
    assert np.var(r) == pytest.approx(1.0 / (1 - 0.49), rel=0.05)
    assert np.std(r[:2000]) == pytest.approx(np.std(r[-2000:]), rel=0.1)


def test_signal_share_loading_round_trip():
    beta = loading_for_signal_share(0.8, n_factors=3, idio_sigma=1.0)
    # |beta|^2 * 3 / (|beta|^2 * 3 + 1) = 0.8
    assert 3 * beta * beta / (3 * beta * beta + 1) == pytest.approx(0.8, rel=1e-12)
    cfg = small_config(n_msas=2, n_quarters=200, n_factors=3, loadings=beta)
    _, _, truth = generate_panel(cfg)
    assert truth.msa_ids[0] == "S001"
    assert truth.signal_share[0] == pytest.approx(0.8, rel=1e-9)


def test_signal_share_empirical():
    beta = loading_for_signal_share(0.8, n_factors=2, idio_sigma=1.0)
    cfg = small_config(n_msas=1, n_quarters=20_000, n_factors=2,
                       loadings=beta, mu=0.0, seed=3)
    panel, table, _ = generate_panel(cfg)
    _, r = compute_returns(panel).series("S001")
    X = np.column_stack([np.ones(len(r)), table.values])
    beta_hat, *_ = np.linalg.lstsq(X, r, rcond=None)
    resid = r - X @ beta_hat
    r2 = 1 - resid @ resid / np.sum((r - r.mean()) ** 2)
    assert r2 == pytest.approx(0.8, abs=0.01)


def test_zero_signal_share_when_flat():
    cfg = small_config(loadings=0.0, idio_sigma=0.0, mu=0.3)
    _, _, truth = generate_panel(cfg)
    assert_array_equal(truth.signal_share, np.zeros(4))


# --- planted jumps ----------------------------------------------------------

def test_jump_magnitude_in_stationary_sigma_units():
    jump_q = 30
    cfg = small_config(
        n_msas=2, loadings=0.0, idio_sigma=1.0, phi=0.6, mu=0.0,
        jumps=(JumpPlan(quarter=jump_q, msas=(0,), magnitude=6.0),),
    )
    panel, _, truth = generate_panel(cfg)
    base_cfg = small_config(n_msas=2, loadings=0.0, idio_sigma=1.0, phi=0.6, mu=0.0)
    base_panel, _, _ = generate_panel(base_cfg)
    _, r_jump = compute_returns(panel).series("S001")
    _, r_base = compute_returns(base_panel).series("S001")
    stat_sd = 1.0 / np.sqrt(1 - 0.36)
    assert r_jump[jump_q] - r_base[jump_q] == pytest.approx(6.0 * stat_sd, rel=1e-9)
    # only the planted quarter differs
    diff = np.flatnonzero(np.abs(r_jump - r_base) > 1e-9)
    assert_array_equal(diff, [jump_q])
    assert [code for m, code, _ in truth.jumps if m == "S001"] == [(QuarterIndex(1980, 1) + 1 + jump_q).code]


def test_jump_on_all_listed_msas():
    cfg = small_config(
        loadings=0.0, mu=0.0,
        jumps=(JumpPlan(quarter=10, msas=(1, 3), magnitude=-5.0),),
    )
    _, _, truth = generate_panel(cfg)
    jumped = {m for m, _, _ in truth.jumps}
    assert {"S002", "S004"} <= jumped and "S001" not in jumped


# --- planted contagion ------------------------------------------------------

def test_contagion_adds_weighted_source_base():
    cfg = small_config(
        n_msas=2, loadings=0.0, mu=0.0,
        contagion=(ContagionPlan(source=0, target=1, weights=(0.6, 0.3)),),
    )
    panel, _, _ = generate_panel(cfg)
    base_cfg = small_config(n_msas=2, loadings=0.0, mu=0.0)
    base_panel, _, _ = generate_panel(base_cfg)
    _, src = compute_returns(base_panel).series("S001")
    _, tgt0 = compute_returns(base_panel).series("S002")
    _, tgt = compute_returns(panel).series("S002")
    expect = tgt0.copy()
    expect += 0.6 * src
    expect[1:] += 0.3 * src[:-1]
    assert_allclose(tgt, expect, atol=1e-9)


def test_contagion_source_unchanged():
    cfg = small_config(
        n_msas=2, loadings=0.0,
        contagion=(ContagionPlan(source=0, target=1, weights=(0.5,)),),
    )
    panel, _, _ = generate_panel(cfg)
    base_panel, _, _ = generate_panel(small_config(n_msas=2, loadings=0.0))
    _, a = panel.series("S001")
    _, b = base_panel.series("S001")
    assert_array_equal(a, b)


# --- config plumbing --------------------------------------------------------

def test_config_problems_collected():
    # shape-level problems are reported together in one error...
    with pytest.raises(ConfigError) as exc:
        generate_panel(ScenarioConfig(
            n_msas=0, n_quarters=-5, n_factors=1, idio_sigma=-1.0, seed=0
        ))
    msg = str(exc.value)
    assert "n_msas" in msg and "n_quarters" in msg
    # ...and value-level problems surface once the shapes are valid
    with pytest.raises(ConfigError, match="idio_sigma"):
        generate_panel(small_config(idio_sigma=-1.0))
    # ...and a scenario too large to build is refused before anything of its size is allocated
    with pytest.raises(ConfigError, match=r"n_msas \* n_quarters \* max\(n_factors, 1\) must be at most"):
        generate_panel(small_config(n_factors=10**20, loadings=0.0))


def test_scenario_json_round_trip():
    obj = {
        "n_msas": 3, "n_quarters": 50, "n_factors": 2, "loadings": 0.4,
        "idio_sigma": 1.5, "phi": 0.2, "mu": 0.6, "seed": 9,
        "jumps": [{"quarter": 12, "msas": [0, 2], "magnitude": 4.0}],
        "contagion": [{"source": 0, "target": 1, "weights": [0.5, 0.2]}],
    }
    cfg = scenario_from_json(obj)
    assert cfg.n_msas == 3 and cfg.seed == 9
    assert cfg.jumps[0].magnitude == 4.0
    assert cfg.contagion[0].weights == (0.5, 0.2)
    panel, _, truth = generate_panel(cfg)
    assert panel.n_msas == 3


def test_scenario_json_names_every_bad_key():
    with pytest.raises(ConfigError) as exc:
        scenario_from_json({"n_msas": "x", "n_quarters": 10, "phi": [0.1, None]})
    assert str(exc.value) == (
        "invalid scenario: n_factors is missing; n_msas must be an integer at least 1, got 'x'; "
        "phi must be a number or a list of numbers, got [0.1, None]"
    )
    obj = {"n_msas": 2, "n_quarters": 10, "n_factors": 1,
           "jumps": [{"quarter": "1990:Q9", "msas": [0]}], "contagion": [{"source": 0, "weights": []}]}
    with pytest.raises(ConfigError) as exc:
        scenario_from_json(obj)
    assert str(exc.value) == (
        "invalid scenario: jumps[0].magnitude is missing; jumps[0].quarter must be an integer or a quarter, "
        "got '1990:Q9'; contagion[0].target is missing"
    )


TOO_LARGE = "n_msas * n_quarters * max(n_factors, 1) must be at most 10,000,000"


def test_misspelt_scenario_key_fails_before_any_write(tmp_path, capsys):
    spath, rpath, out = tmp_path / "scenario.json", tmp_path / "run.json", tmp_path / "out"
    rpath.write_text(json.dumps({"synth_scenario": str(spath), "out": str(out)}))
    ramp = {"kind": "ramp", "start": 0.0, "end": 1.0}
    for scenario, fault in [
        # An unknown key is named, so a misspelt idio_sigma cannot leave the default sigma of 1.0 in place.
        ({"n_msas": 3, "n_quarters": 40, "n_factors": 1, "idio_sgima": 9.0}, "unknown key 'idio_sgima'"),
        # A scenario too large to build is refused by its size, before anything of that size is allocated.
        ({"n_msas": 3, "n_quarters": 12, "n_factors": 10**20}, TOO_LARGE),
        ({"n_msas": 3, "n_quarters": 10**20, "n_factors": 1}, TOO_LARGE),
        ({"n_msas": 10**8, "n_quarters": 12, "n_factors": 1}, TOO_LARGE),
        ({"n_msas": 3, "n_quarters": 12, "n_factors": 10**20, "loadings": ramp}, TOO_LARGE),
    ]:
        spath.write_text(json.dumps(scenario))
        assert main(["synth", "--config", str(rpath)]) == 2
        assert capsys.readouterr().err == f"housingrisk: error: scenario file {spath}: invalid scenario: {fault}\n"
        assert not out.exists()


def test_deeply_nested_loadings_are_named_not_a_recursion_error():
    deep = []
    for _ in range(900):
        deep = [deep]
    with pytest.raises(ConfigError, match="loadings must be a number or a regular nested list of numbers"):
        generate_panel(scenario_from_json({"n_msas": 3, "n_quarters": 12, "n_factors": 1, "loadings": deep}))


def test_scenario_json_ramp_loadings():
    obj = {
        "n_msas": 2, "n_quarters": 30, "n_factors": 2, "seed": 1,
        "loadings": {"kind": "ramp", "start": 0.0, "end": 1.0},
    }
    cfg = scenario_from_json(obj)
    assert np.asarray(cfg.loadings).shape == (30, 2, 2)
    assert_allclose(np.asarray(cfg.loadings)[0], 0.0)
    assert_allclose(np.asarray(cfg.loadings)[-1], 1.0)
    generate_panel(cfg)  # shape accepted end to end


def test_ground_truth_report_shape():
    cfg = small_config(
        jumps=(JumpPlan(quarter=5, msas=(0,), magnitude=3.0),),
        contagion=(ContagionPlan(source=0, target=1, weights=(0.4,)),),
    )
    _, _, truth = generate_panel(cfg)
    report = ground_truth_report(truth)
    assert set(report) == {"signal_share", "jumps", "contagion"}
    assert report["jumps"][0]["msa_id"] == "S001"
    assert report["contagion"][0] == {
        "source": "S001", "target": "S002", "weights": [0.4],
    }
    assert set(report["signal_share"]) == {"S001", "S002", "S003", "S004"}


def test_states_cycle_for_synthetic_msas():
    cfg = small_config(n_msas=12)
    panel, _, _ = generate_panel(cfg)
    states = [panel.info(m).state for m in panel.msa_ids()]
    assert states[0] == "CA" and states[10] == "CA"
    assert len(set(states)) == 10


def test_ar1_noise_matches_lfilter_reference():
    # The AR(1) recursion y[0] = x[0] + phi*e0, y[t] = x[t] + phi*y[t-1]
    # must reproduce scipy.signal.lfilter with the stationary start as its
    # initial state, bit for bit.
    from scipy.signal import lfilter

    phi = np.array([0.0, 0.3, -0.6, 0.95, 0.7])
    sigma = np.array([1.0, 0.5, 2.0, 1.5, 0.8])
    cfg = small_config(n_msas=5, n_quarters=200, loadings=0.0, mu=0.0,
                       phi=phi.tolist(), idio_sigma=sigma.tolist(), seed=13)
    panel, _, _ = generate_panel(cfg)

    rng = np.random.default_rng(13)
    rng.standard_normal((200, 2))  # factors
    pre = rng.standard_normal(5)
    eta = rng.standard_normal((200, 5))
    idio = np.empty((200, 5))
    for i in range(5):
        e0 = sigma[i] / np.sqrt(1.0 - phi[i] ** 2) * pre[i]
        idio[:, i] = lfilter([1.0], [1.0, -phi[i]], sigma[i] * eta[:, i],
                             zi=np.array([phi[i] * e0]))[0]
    levels = np.empty((201, 5))
    levels[0] = 100.0
    levels[1:] = 100.0 * np.exp(np.cumsum(idio, axis=0) / 100.0)
    assert_array_equal(panel.values, levels)
