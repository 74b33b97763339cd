"""Exception types shared across the toolkit."""


class HousingRiskError(Exception):
    """Base class for all toolkit errors."""


class QuarterParseError(HousingRiskError):
    """Malformed quarter string."""


class DomainError(HousingRiskError):
    """Input value outside the mathematical domain of an operation."""


class IngestionError(HousingRiskError):
    """CSV schema violation, duplicate key, or interior gap in a series."""


class AlignmentError(HousingRiskError):
    """Empty overlap between a return series and the factor table."""


class SingularDesignError(HousingRiskError):
    """Rank-deficient design matrix.

    ``columns`` names the dependent columns when they could be identified.
    """

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = tuple(columns)


class DegreesOfFreedomError(HousingRiskError):
    """Too few observations for the requested fit."""


class InsufficientHistoryError(HousingRiskError):
    """Series too short for the requested trailing window."""


class NonStationaryError(HousingRiskError):
    """Serial-correlation estimate left the stationary region (|rho| >= 1)."""


class ConvergenceError(HousingRiskError):
    """Iterative fit failed to converge.

    ``last_fit`` and ``last_rho`` carry the final iterate when available.
    """

    def __init__(self, message, last_fit=None, last_rho=None):
        super().__init__(message)
        self.last_fit = last_fit
        self.last_rho = last_rho


class ConfigError(HousingRiskError):
    """Invalid run or scenario configuration."""
