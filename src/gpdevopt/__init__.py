"""Gaussian process emulator fitting by profiled-deviance minimization."""

from .boxes import SearchBox, default_beta_box, if_beta_box
from .correlation import (
    DistanceCache,
    FactoredCorrelation,
    IllConditionedError,
    factorize,
    nugget_lower_bound,
)
from .direct import direct_search
from .global_search import STRATEGIES, cluster_starts, lhd_maximin, run_strategy
from .gp import (
    DegenerateDataError,
    DesignSet,
    DevianceObjective,
    FittedGP,
    GpOptions,
    Prediction,
    UnfittableError,
    evaluate_deviance,
    fit,
    mean_estimate,
    predict,
    predict_many,
    prediction_weights,
    variance_estimate,
)
from .local_search import (
    OptReport,
    bfgs_minimize,
    central_gradient,
    implicit_filtering,
)
from .testbed import (
    TEST_FUNCTION_NAMES,
    BenchmarkResult,
    TestFunction,
    percent_deltas,
    rmspe,
    rmspe_std_err,
    run_benchmark,
    test_function,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkResult",
    "DegenerateDataError",
    "DesignSet",
    "DevianceObjective",
    "DistanceCache",
    "FactoredCorrelation",
    "FittedGP",
    "GpOptions",
    "IllConditionedError",
    "OptReport",
    "Prediction",
    "STRATEGIES",
    "SearchBox",
    "TEST_FUNCTION_NAMES",
    "TestFunction",
    "UnfittableError",
    "bfgs_minimize",
    "central_gradient",
    "cluster_starts",
    "default_beta_box",
    "direct_search",
    "evaluate_deviance",
    "factorize",
    "fit",
    "if_beta_box",
    "implicit_filtering",
    "lhd_maximin",
    "mean_estimate",
    "nugget_lower_bound",
    "percent_deltas",
    "predict",
    "predict_many",
    "prediction_weights",
    "rmspe",
    "rmspe_std_err",
    "run_benchmark",
    "run_strategy",
    "test_function",
    "variance_estimate",
]
