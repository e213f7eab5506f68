"""Exception types shared across the package."""


class DegenerateStateError(ValueError):
    """Photon subtraction from a state with zero subtraction weight (zero-norm result)."""


class UnphysicalCovarianceError(ValueError):
    """Covariance matrix violates the uncertainty bound."""

