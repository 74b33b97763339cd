"""Housing-market integration, jump, contagion, and diversification
analytics for quarterly metropolitan house-price index panels."""

__version__ = "0.1.0"

from .core import (
    AlignedDataset,
    FactorTable,
    IndexPanel,
    MsaInfo,
    QuarterIndex,
    ReturnPanel,
    align,
    compute_returns,
    default_factor_transforms,
    parse_quarter,
    transform_factor,
)
from .errors import (
    AlignmentError,
    ConfigError,
    ConvergenceError,
    DegreesOfFreedomError,
    DomainError,
    HousingRiskError,
    IngestionError,
    InsufficientHistoryError,
    NonStationaryError,
    QuarterParseError,
    SingularDesignError,
)
from .regress import (
    PrewhitenResult,
    RegressionFit,
    TrendFit,
    ar1_prewhiten,
    cochrane_orcutt,
    ols_fit,
    trend_fit,
)
from .integration import (
    IntegrationSummary,
    PanelIntegration,
    beta_average,
    cohort_average,
    integrate_panel,
    integration_summary,
    rolling_factor_model,
)
from .jumps import (
    JumpSeries,
    jump_incidence,
    lm_series,
)
from .correlations import (
    PairSet,
    cohort_correlation_report,
    correlation_summary,
    jump_pair_correlations,
    return_pair_correlations,
)
from .contagion import (
    ContagionFit,
    ContagionFits,
    boombust_residual,
    contagion_fit,
    contagion_fit_interacted,
    contagion_fits,
)
from .portfolio import (
    PortfolioSeries,
    diversification_series,
    portfolio_returns,
    series_correlation,
)
from .synth import (
    ContagionPlan,
    GroundTruth,
    JumpPlan,
    ScenarioConfig,
    generate_panel,
    ground_truth_report,
    loading_for_signal_share,
    scenario_from_json,
)
from .io import (
    load_factor_table,
    load_hpi_panel,
    load_transform_config,
    write_csv_atomic,
    write_factor_csv,
    write_hpi_csv,
    write_json_atomic,
)
