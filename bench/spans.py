"""In-memory span tracing around the public gpdevopt entry points.

Spans are recorded only from the benchmark's side: `Tracer.installed()`
replaces the module attributes through which the program reaches its layers
(the objective handed to `run_strategy`, the global and local searches, the
sampling helpers, and the `fit`/`predict_many` names the CLI calls) with
timing wrappers, and restores every original on exit.  Each span has a name,
a parent, start and end times, an optional item count, and the benchmark
round it belongs to.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from gpdevopt import cli, global_search, gp
from gpdevopt.correlation import DistanceCache, factorize, nugget_lower_bound
from gpdevopt.gp import DevianceObjective, mean_estimate, variance_estimate

FE = "gp.fe"
FIT = "gp.fit"
PREDICT = "gp.predict_many"
RUN_STRATEGY = "global_search.run_strategy"
CLI_FIT = "cli.main:fit"
CLI_PREDICT = "cli.main:predict"

# (module, attribute, span name) for every plain wrapper; run_strategy gets
# its own wrapper because it also wraps the objective it is given.
_WRAPPED = (
    (global_search, "cluster_starts", "global_search.cluster_starts"),
    (global_search, "lhd_maximin", "global_search.lhd_maximin"),
    (global_search, "kmeans_best", "global_search.kmeans_best"),
    (global_search, "direct_search", "direct.direct_search"),
    (global_search, "bfgs_minimize", "local_search.bfgs_minimize"),
    (global_search, "implicit_filtering", "local_search.implicit_filtering"),
    (cli, "fit", FIT),
    (cli, "predict_many", PREDICT),
)

# Visited beta replayed per fit for the per-layer split of one FE.
LAYER_SAMPLES_PER_FIT = 48


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = math.nan
    items: int = 0
    round: int = -1

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class FitCapture:
    """Everything the objective wrapper saw during one run_strategy call."""

    objective: DevianceObjective
    round: int
    betas: list = field(default_factory=list)
    values: list = field(default_factory=list)
    report_fe: int = -1


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.captures: list[FitCapture] = []
        self.round = -1
        self._stack: list[int] = []

    def _open(self, name: str, items: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter(), items=items, round=self.round))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, items: int = 0):
        index = self._open(name, items)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            items = len(np.atleast_2d(args[1])) if name == PREDICT else 0
            with self.span(name, items):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_run_strategy(self, run_strategy):
        def wrapper(objective, *args, **kwargs):
            capture = FitCapture(objective, self.round)
            self.captures.append(capture)

            def counted(beta):
                with self.span(FE):
                    value = objective(beta)
                capture.betas.append(np.array(beta, dtype=float, copy=True))
                capture.values.append(value)
                return value

            with self.span(RUN_STRATEGY):
                report = run_strategy(counted, *args, **kwargs)
            capture.report_fe = report.fe_used
            return report

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the program's layer entry points for the duration of the block."""
        originals = [(gp, "run_strategy", gp.run_strategy)]
        originals += [(module, attr, getattr(module, attr)) for module, attr, _ in _WRAPPED]
        try:
            gp.run_strategy = self._wrap_run_strategy(gp.run_strategy)
            for module, attr, name in _WRAPPED:
                setattr(module, attr, self._wrap(getattr(module, attr), name))
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def to_rows(self) -> dict:
        return {
            "columns": ["name", "parent", "start", "end", "items", "round"],
            "rows": [[s.name, s.parent, s.start, s.end, s.items, s.round] for s in self.spans],
        }


def _self_seconds(spans: list[Span], names: set[str]) -> dict[int, float]:
    """Span duration minus the time covered by its direct children."""
    own = {i: s.seconds for i, s in enumerate(spans) if s.name in names}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.seconds
    return own


def _replay_layers(capture: FitCapture, kernel, nugget, factor, profile) -> int:
    """Time kernel, nugget, Cholesky and profile steps on a sample of visited beta.

    Returns how many replayed beta reproduced a different deviance than the
    optimizer saw (it must be zero: the objective is deterministic).
    """
    objective = capture.objective
    design, options = objective.design, objective.options
    replay = DevianceObjective(design, options)
    cache = DistanceCache(design.points, options.p_vector(design.d))
    stride = max(1, len(capture.betas) // LAYER_SAMPLES_PER_FIT)
    mismatches = 0
    for k in range(0, len(capture.betas), stride):
        beta = capture.betas[k]
        value, info = replay.evaluate(beta)
        if not _same_float(value, capture.values[k]):
            mismatches += 1
        if info.factored is None:
            continue
        t0 = time.perf_counter()
        R = cache.correlation(beta)
        t1 = time.perf_counter()
        delta = nugget_lower_bound(R, options.a)
        t2 = time.perf_counter()
        factored = factorize(R, delta, info.kappa)
        t3 = time.perf_counter()
        mu = mean_estimate(factored, design.outputs)
        variance_estimate(factored, design.outputs, mu)
        t4 = time.perf_counter()
        kernel.append(t1 - t0)
        nugget.append(t2 - t1)
        factor.append(t3 - t2)
        profile.append(t4 - t3)
    return mismatches


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def nugget_activity(capture: FitCapture) -> tuple[int, int]:
    """(FEs with a positive nugget, FEs replayed), replaying every visited beta."""
    replay = DevianceObjective(capture.objective.design, capture.objective.options)
    active = 0
    for beta in capture.betas:
        _, info = replay.evaluate(beta)
        if info.delta > 0.0:
            active += 1
    return active, len(capture.betas)


def layer_metrics(tracer: Tracer, exact_rounds: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from the recorded spans and captures.

    Counts (FE totals, non-finite FEs, nugget activity) cover the first
    `exact_rounds` rounds only, so they are exact for a given seed; times
    cover every traced round and are given per fit, per call or per point.
    Returns (metrics, problems).
    """
    spans = tracer.spans
    problems: list[str] = []
    exact = [c for c in tracer.captures if c.round < exact_rounds]

    fe_seconds = [s.seconds for s in spans if s.name == FE]
    fit_spans = [s for s in spans if s.name == FIT]
    n_fits = len(fit_spans)
    fit_total = sum(s.seconds for s in fit_spans)

    kernel, nugget, factor, profile = [], [], [], []
    active = replayed = 0
    for capture in exact:
        mismatches = _replay_layers(capture, kernel, nugget, factor, profile)
        if mismatches:
            problems.append(f"{mismatches} replayed FE values differ from the optimizer's")
        a, n = nugget_activity(capture)
        active += a
        replayed += n

    def phase_fe(name: str) -> int:
        ids = {i for i, s in enumerate(spans) if s.name == name and s.round < exact_rounds}
        return sum(1 for s in spans if s.name == FE and s.parent in ids)

    self_s = _self_seconds(
        spans,
        {"direct.direct_search", "local_search.bfgs_minimize",
         "local_search.implicit_filtering", CLI_FIT, CLI_PREDICT},
    )

    def self_per_fit(name: str) -> float:
        return _ratio(sum(v for i, v in self_s.items() if spans[i].name == name), n_fits)

    def self_per_call(name: str) -> float:
        values = [v for i, v in self_s.items() if spans[i].name == name]
        return sum(values) / len(values) if values else 0.0

    def total_per_fit(name: str) -> float:
        return _ratio(sum(s.seconds for s in spans if s.name == name), n_fits)

    predict_spans = [s for s in spans if s.name == PREDICT]
    predict_points = sum(s.items for s in predict_spans)
    fe_p50 = _us(np.median(fe_seconds))
    parts = {
        "correlation.kernel_us_p50": _us(np.median(kernel)),
        "correlation.nugget_us_p50": _us(np.median(nugget)),
        "correlation.factorize_us_p50": _us(np.median(factor)),
        "gp.profile_us_p50": _us(np.median(profile)),
    }
    metrics = {
        "gp.fe_us_p50": (fe_p50, "us"),
        "gp.fe_us_p99": (_us(np.percentile(fe_seconds, 99)), "us"),
        "gp.fe_share": (_ratio(sum(fe_seconds), fit_total), "ratio"),
        "gp.fe_count": (sum(len(c.betas) for c in exact), "count"),
        "gp.fe_nonfinite": (
            sum(1 for c in exact for v in c.values if not math.isfinite(v)), "count"
        ),
        "gp.nugget_active_ratio": (_ratio(active, replayed), "ratio"),
        **{name: (value, "us") for name, value in parts.items()},
        "gp.fe_glue_us": (fe_p50 - sum(parts.values()), "us"),
        "global_search.lhd_s": (total_per_fit("global_search.lhd_maximin"), "s"),
        "global_search.kmeans_s": (total_per_fit("global_search.kmeans_best"), "s"),
        "direct.self_s": (self_per_fit("direct.direct_search"), "s"),
        "direct.fe": (phase_fe("direct.direct_search"), "count"),
        "local_search.bfgs_self_s": (self_per_fit("local_search.bfgs_minimize"), "s"),
        "local_search.bfgs_fe": (phase_fe("local_search.bfgs_minimize"), "count"),
        "local_search.if_self_s": (self_per_fit("local_search.implicit_filtering"), "s"),
        "local_search.if_fe": (phase_fe("local_search.implicit_filtering"), "count"),
        "gp.predict_many_us_per_pt": (
            _us(_ratio(sum(s.seconds for s in predict_spans), predict_points)), "us"
        ),
        "cli.fit_self_s": (self_per_call(CLI_FIT), "s"),
        "cli.predict_self_s": (self_per_call(CLI_PREDICT), "s"),
    }
    return metrics, problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else math.nan


def _us(seconds: float) -> float:
    return float(seconds) * 1e6
