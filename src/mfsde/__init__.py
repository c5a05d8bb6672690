"""Pathwise solver and verification harness for SDEs driven by Wiener
noise, rough fractional noise, and finite-activity jumps.

The package splits into driver generation (`noise`), the pathwise
integral machinery (`fractional`, `norms`), the jump-restart Euler
solver (`solver`), coefficient models with their closed forms where
known (`models`), Monte Carlo verification suites (`analysis`), and a
config-driven CLI (`config`, `cli`).  Values on a uniform grid, whether a
driver, a fractional derivative or an Ito integral path, are one type,
`GridFunction(left, right, values)`.
"""

from .analysis import (
    DEFAULT_THRESHOLDS,
    Ensemble,
    JumpMomentReport,
    KernelReport,
    LemmaReport,
    MomentTable,
    SelfSimReport,
    TailReport,
    Thresholds,
    estimate_moments,
    simulate_ensemble,
    tail_diagnostic,
    verify_jump_product_moment,
    verify_kernel_estimates,
    verify_pathwise_lemma,
    verify_self_similarity,
)
from .config import RunConfig, load_config, parse_config, serialize_config
from .errors import (
    BlowUpError,
    GridMismatchError,
    ParameterError,
    RunFailure,
)
from .fractional import (
    forward_sum_integral,
    gls_integral,
    rl_left_derivative,
    rl_right_derivative,
)
from .models import MODELS, build_model
from .noise import (
    FracParams,
    GaussianMarks,
    GridFunction,
    GridSpec,
    JumpTrain,
    MarkLaw,
    Seed,
    TwoPointMarks,
    UniformMarks,
    build_mark_law,
    gen_driving_stack,
    gen_driving_triple,
    gen_fbm,
    gen_fbm_stack,
    gen_jump_train,
    gen_wiener,
)
from .norms import (
    capital_lambda,
    norm_0_interval,
    norm_0_interval_stack,
    norm_inf,
    norm_inf_stack,
)
from .solver import (
    AssumptionReport,
    CoefficientSet,
    SamplingBox,
    SolutionPath,
    check_assumptions,
    euler_paths,
    ito_integral_path,
    pathwise_bound_rhs,
    read_solution_csv,
    solve_with_jumps,
    solve_with_jumps_stack,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "BlowUpError", "CoefficientSet", "DEFAULT_THRESHOLDS",
    "Ensemble", "FracParams",
    "GaussianMarks", "GridFunction", "GridMismatchError", "GridSpec",
    "JumpMomentReport", "JumpTrain", "KernelReport", "LemmaReport", "MODELS",
    "MarkLaw", "MomentTable", "ParameterError",
    "RunConfig", "RunFailure", "SamplingBox", "Seed",
    "SelfSimReport", "SolutionPath", "TailReport", "Thresholds",
    "TwoPointMarks", "UniformMarks", "build_mark_law", "build_model",
    "capital_lambda", "check_assumptions", "estimate_moments", "euler_paths",
    "forward_sum_integral", "gen_driving_stack", "gen_driving_triple", "gen_fbm",
    "gen_fbm_stack", "gen_jump_train", "gen_wiener", "gls_integral",
    "ito_integral_path", "load_config",
    "norm_0_interval", "norm_0_interval_stack", "norm_inf", "norm_inf_stack",
    "parse_config",
    "pathwise_bound_rhs", "read_solution_csv", "rl_left_derivative",
    "rl_right_derivative", "serialize_config", "simulate_ensemble",
    "solve_with_jumps", "solve_with_jumps_stack",
    "tail_diagnostic",
    "verify_jump_product_moment", "verify_kernel_estimates",
    "verify_pathwise_lemma", "verify_self_similarity",
]
