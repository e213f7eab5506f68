"""Exception types shared across the package."""


class DegenerateStateError(ValueError):
    """Photon subtraction from a state with zero subtraction weight (zero-norm result)."""


class UnphysicalCovarianceError(ValueError):
    """Covariance matrix violates the uncertainty bound."""


class QuadratureConvergenceError(RuntimeError):
    """Adaptive integration failed to reach the requested tolerance."""

    def __init__(self, message, achieved_tol):
        super().__init__(f"{message} (achieved relative tolerance {achieved_tol:.3e})")
        self.achieved_tol = achieved_tol
