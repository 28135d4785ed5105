"""Census tools for Gaussian two-mode states.

Covariance-matrix standard forms, separability and classicality
verdicts, prior measures (information-metric weights and monotone
volume elements from discretized kernels), Gaussian fidelities with the
finite-difference Bures metric, and deterministic weighted Monte Carlo
drivers over all of it.
"""

from .tolerances import DEFAULT, Tolerances
from .states import (
    OMEGA,
    ComplexRootError,
    DegenerateError,
    NoConvergenceError,
    SolverFailure,
    StandardFormI,
    StandardFormII,
    SqueezedThermalParams,
    entropy,
    is_physical,
    is_positive_definite,
    purity,
    squeezed_thermal_covariance,
    symplectic_eigenvalues,
    to_standard_form_one,
    to_standard_form_two,
)
from .criteria import (
    MIRROR,
    OracleDisagreementError,
    VarianceReport,
    Verdict,
    classify,
    disagrees,
    is_classical,
    is_separable_duan,
    is_separable_ppt,
    total_variance,
)
from .measures import (
    GridDrawError,
    GridSpec,
    KernelMatrix,
    NonPositiveSpectrumError,
    SampleDiscarded,
    SingularBlockError,
    VolumeEstimate,
    discretize,
    jeffreys_log_weight,
    log_volume_element,
    random_grid,
    regular_grid,
    robust_volume,
    robust_volume_multi,
    schroedinger_kernel,
)
from .fidelity import (
    BURES_MARGINALS,
    DomainError,
    MarginalDensity,
    ShapeError,
    StepError,
    bures_distance_sq,
    fidelity_one_mode,
    fidelity_two_mode_diagonal,
    improperness_probe,
    marginal_f,
    marginal_g,
    metric_by_finite_difference,
)
from .montecarlo import (
    CensusAccumulator,
    CensusResult,
    EntropyReport,
    LogSumExp,
    OneModePoint,
    SamplerConfig,
    iter_accepted,
    run_bures_census,
    run_classical_census,
    run_entropy_probe,
    run_one_mode_classicality,
    sample_matrix,
)

__version__ = "0.1.0"
