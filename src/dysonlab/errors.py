"""Exception types shared across the package."""


class DysonLabError(Exception):
    """Base class for all package errors."""


class KernelParameterError(DysonLabError, ValueError):
    """Kernel constructed with parameters outside the documented ranges."""


class KernelValidityError(DysonLabError):
    """Windowed operator violates the Hermitian / [0,1]-spectrum hypotheses."""


class DegenerateProjectionError(DysonLabError):
    """An eigenvalue is at (or numerically at) 1, so the resolvent-type
    kernel lambda/(1-lambda) is undefined."""


class SingularConfigurationError(DysonLabError):
    """Operation requires pairwise-distinct points but received a tie."""


class IntegrationFailureError(DysonLabError):
    """Adaptive SDE step underflowed without reaching the hit threshold."""


class SamplingError(DysonLabError):
    """Rejection/retry budget exhausted while drawing a sample."""


class ConfigError(DysonLabError, ValueError):
    """Experiment configuration failed validation."""
