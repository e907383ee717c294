"""Sensor fault estimation filters from plant input-output data.

The package identifies predictor Markov parameters from closed-loop
records, inverts the fault-to-residual dynamics with a stabilized
reduced-order filter (either from a known model or directly from the
identified parameters), and benchmarks the result against a moving
horizon least squares baseline.
"""
from .errors import (
    ExcitationError,
    FaultDirectionError,
    FaultFilterError,
    NumericalError,
    RiccatiError,
    StabilizationError,
    ValidationError,
    WindowRankError,
)
from .lti_core import (
    IOData,
    LinearSystem,
    PredictorModel,
    StateSpaceModel,
    block_hankel,
    block_toeplitz,
    dare_fixed_point,
    extended_observability,
    lti_recursion,
    markov_from_ss,
    markov_parameters,
    psd_factor,
    sensor_fault_channel,
    sensor_fault_plant,
    spectral_radius,
    to_predictor,
)
from .sysid_markov import (
    IdentifiedXi,
    identify_xi,
    xi_from_predictor,
)
from .inverse_filter import (
    FaultEstimationFilter,
    InverseMatrices,
    invariant_zeros_stable,
    left_inverse,
    open_loop_inverse,
    reduced_filter,
    residual_generator,
    run_filter,
    stabilizing_gain,
)
from .markov_design import (
    DesignConfig,
    assemble_filter,
    convolve_Q,
    convolve_R,
    design_filter_from_xi,
    fault_markov,
    ho_kalman,
    inverse_markov,
    predictor_from_xi,
    realize,
    z_markov,
)
from .mhe_baseline import (
    MheProblem,
    build_mhe,
    mhe_estimate,
    run_mhe,
)
from .bench_cli import (
    AlgorithmResult,
    BenchConfig,
    EllipseStats,
    ExperimentReport,
    FaultScenario,
    FeedbackController,
    closed_loop_sim,
    collect_identification_data,
    ellipse_stats,
    get_plant,
    run_comparison,
)

__version__ = "0.1.0"
