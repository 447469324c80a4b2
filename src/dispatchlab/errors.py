"""Exception types shared across the package."""


class DispatchLabError(Exception):
    """Base class for package-specific failures."""


class InfeasibleInstanceError(DispatchLabError, ValueError):
    """Instance parameters admit no valid state (e.g. more drivers than total capacity)."""


class SizeLimitError(DispatchLabError, RuntimeError):
    """State-space or matrix size exceeds the configured cap."""


class IterationLimitError(DispatchLabError, RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class HorizonTooShortError(DispatchLabError, RuntimeError):
    """The mixing horizon ended above the requested tolerance; carries the partial curve."""

    def __init__(self, message: str, d_curve=None):
        super().__init__(message)
        self.d_curve = d_curve


class OutOfScopeError(DispatchLabError, ValueError):
    """Requested analysis lies outside the regime where the method is valid."""


class ContractionFailure(DispatchLabError, RuntimeError):
    """A coupled step failed to contract the pair metric where contraction was required."""

    def __init__(self, message: str, pairs=None):
        super().__init__(message)
        self.pairs = pairs or []


class FitFailureError(DispatchLabError, ValueError):
    """A curve fit had no usable points."""


class SchemaError(DispatchLabError, ValueError):
    """An input file does not carry the required columns."""
