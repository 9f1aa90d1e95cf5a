"""Risk-sensitive (exponential-criterion) filtering for general Gaussian signals."""

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    FactorizationFailure,
    FilteringError,
    InconsistentRecursion,
    InfeasibleCondition,
    NegativeVariance,
    NoConvergence,
    NotPositiveSemidefinite,
    OverflowDominated,
    SingularConditioning,
    SingularInnovationMatrix,
    TransformDiverges,
)
from .model import (
    GaussianModel,
    RiskSpec,
    Trajectory,
    build_ar1,
    build_ar1_noise,
    build_general,
    build_ma1,
    build_ma1_observations,
    build_vector_model,
    model_from_config,
    risk_from_config,
    sample,
    sample_paths,
)
from .volterra import (
    VolterraSolution,
    ar1_riccati,
    ma1_gamma,
    solve_volterra,
    solve_volterra_correlated,
    solve_volterra_matrix,
    sufficient_condition_positive_mu,
)
from .filtering import (
    AffineFilter,
    FilterRun,
    ar1_filter,
    filter_correlated,
    leg_affine,
    leg_filter,
    ma1_filter,
    optimal_risk,
    risk_neutral_filter,
    z_h,
    z_tilde,
)
from .cameron_martin import (
    CMDecomposition,
    CMGeneralResult,
    InfoStateDensity,
    cm_decompose,
    cm_general,
    exact_martingale_expectation,
    info_state,
    martingale_expectation_check,
)
from .oracle import (
    AugmentedSystem,
    BackwardRiccati,
    JointGaussian,
    assemble_joint,
    augmented_system,
    backward_riccati,
    condition,
    conditional_exp_quadratic,
    expected_exp_quadratic,
    gaussian_pair_exp,
    leg_vs_rs_example,
    minimize_affine_risk,
)
from .sim import ComparisonReport, ExperimentConfig, RiskEstimate, compare_filters, estimate_risk

__version__ = "0.1.0"
