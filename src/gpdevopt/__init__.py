"""Gaussian process emulator fitting by profiled-deviance minimization.

Other names are imported from their submodules (`gpdevopt.gp`, ...).
"""

from .boxes import SearchBox
from .global_search import STRATEGIES, lhd_maximin
from .gp import (
    DegenerateDataError,
    DesignSet,
    DevianceObjective,
    UnfittableError,
    fit,
    predict_many,
)
from .testbed import BenchmarkResult, run_benchmark, test_function

__version__ = "0.1.0"

__all__ = [
    "BenchmarkResult",
    "DegenerateDataError",
    "DesignSet",
    "DevianceObjective",
    "STRATEGIES",
    "SearchBox",
    "UnfittableError",
    "fit",
    "lhd_maximin",
    "predict_many",
    "run_benchmark",
    "test_function",
]
