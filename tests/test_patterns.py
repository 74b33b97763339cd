"""End-to-end patterns: generated panels flowing through the full analysis
chain must surface the qualitative behaviour they were built to carry."""

from __future__ import annotations

import numpy as np
from scipy import stats

from housingrisk import (
    JumpPlan,
    ScenarioConfig,
    beta_average,
    cohort_average,
    compute_returns,
    diversification_series,
    generate_panel,
    integrate_panel,
    jump_incidence,
    lm_series,
    trend_fit,
)


def ramp_config(n_msas, n_quarters, seed, top=1.2):
    """Loadings rising linearly from 0 to `top` over the sample."""
    path = np.linspace(0.0, top, n_quarters)[:, None, None] * np.ones(
        (n_quarters, n_msas, 1)
    )
    return ScenarioConfig(
        n_msas=n_msas, n_quarters=n_quarters, n_factors=1,
        loadings=path, idio_sigma=1.0, phi=0.0, mu=0.0, seed=seed,
    )


def integrated(config, window=20):
    panel, factors, truth = generate_panel(config)
    returns = compute_returns(panel)
    return returns, truth, integrate_panel(
        returns, factors, window=window, prewhiten=False
    )


def test_rising_integration_has_positive_trend():
    _, _, integ = integrated(ramp_config(6, 140, seed=31))
    assert len(integ.series) == 6
    for s in integ.series:
        assert trend_fit(s.r_squares).slope_t_stat > 2.0


def test_small_negative_loading_recovered_by_beta_average():
    # Planted F01 loading of -0.02 next to a dominant F02 of 0.7. One
    # scenario's estimate wobbles with its shared factor path, so average
    # six seeds and check the Monte Carlo CI covers the planted value.
    means = []
    for seed in range(32, 38):
        cfg = ScenarioConfig(
            n_msas=40, n_quarters=201, n_factors=2,
            loadings=np.array([-0.02, 0.7]), idio_sigma=1.0,
            phi=0.0, mu=0.0, seed=seed,
        )
        _, _, integ = integrated(cfg)
        _, avg = beta_average(integ.series, "F01")
        means.append(float(np.mean(avg)))
    grand = float(np.mean(means))
    half_ci = 2.0 * float(np.std(means, ddof=1)) / np.sqrt(len(means))
    assert grand < 0.0
    assert abs(grand - (-0.02)) <= half_ci


def test_jumps_in_seventy_pct_of_members_show_as_seventy():
    cfg = ScenarioConfig(
        n_msas=10, n_quarters=80, n_factors=1, loadings=0.0,
        idio_sigma=1.0, phi=0.0, mu=0.0, seed=33,
        jumps=(JumpPlan(quarter=40, msas=tuple(range(7)), magnitude=6.0),),
        states=("CA",) * 10,
    )
    panel, _, truth = generate_panel(cfg)
    series = lm_series(compute_returns(panel), bipower_window=20)
    codes, pct, flagged, testable = jump_incidence(series, range(10), flag="big")
    planted_code = truth.jumps[0][1]
    at = int(np.searchsorted(codes, planted_code))
    assert codes[at] == planted_code
    assert testable[at] == 10
    assert flagged[at] == 7
    assert pct[at] == 70.0


def test_integration_ramp_depresses_diversification():
    returns, _, integ = integrated(ramp_config(8, 160, seed=34))
    members = [s.msa_id for s in integ.series]
    codes_i, avg_i = cohort_average(integ.series, members)
    ps = diversification_series(returns, members, window=20)
    common = np.intersect1d(codes_i, ps.sigma_codes)
    assert common.size > 100
    integration = avg_i[np.searchsorted(codes_i, common)]
    diversification = ps.diversification[np.searchsorted(ps.sigma_codes, common)]
    rho = stats.spearmanr(integration, diversification).statistic
    assert rho < -0.5
