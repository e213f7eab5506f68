"""Metrological entanglement-witness simulator for two-mode photon-subtracted states."""

from .errors import DegenerateStateError, UnphysicalCovarianceError
from .estimator import (
    BinnedHistogram,
    HellingerFit,
    ReplicateSummary,
    SampleSet,
    WitnessEstimate,
    bin_samples,
    default_half_range,
    default_theta_grid,
    estimate_fi,
    estimate_witness,
    hellinger_sq,
    load_samples_csv,
    parabola_fit,
    replicate,
    sample,
    save_samples_csv,
)
from .fisher import (
    AngleScanResult,
    NONLOCAL_SATURATING_BASIS,
    angle_grid_scan,
    fi_continuous,
    optimize_angles,
    qfi_pure,
)
from .moments import (
    GeneratorSpec,
    displacement_direction,
    generator_covariance,
    generator_total_variance,
    generator_variance,
    quad_moment,
)
from .state import (
    JointDensity,
    P_BASIS,
    PolyGaussianState,
    QuadratureBasis,
    StateSpec,
    X_BASIS,
    apply_loss,
    build_state,
    evolve,
    measurement_pdf,
    squeezing_db,
    squeezing_r,
)
from .witness import (
    SeparabilityVerdict,
    cos_2z,
    displacement_ridge_r_b,
    displacement_ridge_value,
    eq_displacement,
    eq_phase,
    eq_shear,
    eq_squeeze,
    gaussian_separability_check,
    shear_ridge_r_b,
    shear_ridge_value,
    witness_value,
)

__version__ = "0.1.0"
