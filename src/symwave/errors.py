"""Exception taxonomy shared by all modules.

Exit-code mapping used by the CLI: configuration and domain errors exit
with 2, inconclusive-integral errors with 3.
"""


class SymwaveError(Exception):
    """Base class for all library errors."""


class ConfigError(SymwaveError):
    """Invalid or unsupported configuration (bad grid, unknown key, ...)."""


class UnsupportedConfigurationError(ConfigError):
    """Root-system family/rank outside the supported desk-scale table."""


class ConfigurationTooLargeError(ConfigError):
    """Enumeration would exceed a hard size cap."""


class DomainError(SymwaveError):
    """Argument outside the mathematical domain of an operation."""


class ChamberError(DomainError):
    """Vector required to lie in the closed positive chamber does not."""


class NoCriticalPointError(DomainError):
    """Phase has no critical point for the requested (A, t)."""


class PoleError(DomainError):
    """Exponent sigma too close to a pole of the regularizing Gamma factor."""


class OutOfRangeError(DomainError):
    """Parameter beyond the range covered by the implemented formulas."""


class DataError(SymwaveError):
    """Input data unusable for the requested fit or report."""


class InconclusiveIntegralError(SymwaveError):
    """Quadrature tail control failed; carries the offending tail estimate."""

    def __init__(self, message: str, tail_bound: float = float("nan"),
                 accumulated: float = float("nan")):
        super().__init__(message)
        self.tail_bound = tail_bound
        self.accumulated = accumulated


class ResolutionError(SymwaveError):
    """Spectral grid does not resolve the data to the required tail level."""


class DivergenceError(SymwaveError):
    """Fixed-point iteration failed to contract or to converge within
    max_iter; carries the data norm."""

    def __init__(self, message: str, data_norm: float = float("nan")):
        super().__init__(message)
        self.data_norm = data_norm
