"""Global search: start generation and the seven optimizer strategies.

Multistart strategies draw their starts from a space-filling sample of the
search box (best of several Latin hypercube candidates by maximin distance),
keep the lowest-value fraction, and cluster it with k-means; the hybrid
strategies instead spend the same sampling budget on a DIRECT run and start
a single local search from its best point.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import _worker, local_search
from .boxes import SearchBox, default_beta_box, if_beta_box
from .direct import direct_search
from .local_search import bfgs_minimize, implicit_filtering
from .optreport import CountedObjective, OptReport

STRATEGIES = (
    "MS-BFGS-2d1",
    "MS-BFGS-halfd",
    "MS-IF-2d1",
    "MS-IF-halfd",
    "IF2",
    "DIRECT-BFGS",
    "DIRECT-IF",
)

# How many space-filling candidates compete on the maximin criterion.
LHD_CANDIDATES = 50

# Lloyd runs per k-means clustering; the lowest within-cluster SSE wins.
KMEANS_RESTARTS = 5

# Fractions along the box diagonal probed for the extra multistart point.
DIAGONAL_FRACTIONS = (0.25, 0.5, 0.75)

# Stage-one evaluation cap per start in the two-stage IF strategy, times d.
IF2_STAGE1_FE_PER_DIM = 20

# Sampling budget (times d) for clustering and for DIRECT.
SAMPLING_FE_PER_DIM = 200
KEEP_FE_PER_DIM = 80


def lhd_unit_sample(count: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """One random Latin hypercube sample on the unit cube.

    Each dimension's strata 0..count-1 are occupied exactly once, with a
    uniform draw inside each stratum.
    """
    strata = rng.permuted(np.tile(np.arange(count), (d, 1)), axis=1).T
    return (strata + rng.random((count, d))) / count


def lhd_maximin(count: int, box: SearchBox, rng: np.random.Generator) -> np.ndarray:
    """Maximin Latin hypercube design: best of LHD_CANDIDATES random samples.

    The winner maximizes the minimum pairwise distance, measured in box
    coordinates (Morris & Mitchell's maximin criterion); the first of equal
    scores wins.  So a candidate's sweep stops as soon as it finds a pair at
    most the incumbent's score apart: its exact score is no larger, and a tie
    goes to the incumbent, so it loses either way.  Survivors are swept to the
    end, and their score is `scipy.spatial.distance.pdist(sample).min()` bit
    for bit, so the winner is the one full `pdist` scoring would pick.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    lo, hi = box.lower, box.upper
    best: np.ndarray | None = None
    best_score = -math.inf
    for _ in range(LHD_CANDIDATES):
        sample = lo + lhd_unit_sample(count, box.d, rng) * (hi - lo)
        score = _closest_pair_distance(sample, best_score)
        if score > best_score:
            best, best_score = sample, score
    return best


def _closest_pair_distance(points: np.ndarray, floor: float) -> float:
    """The smallest pairwise distance of `points`, or a distance <= `floor`.

    Sweeps neighbours in first-coordinate order, widening the offset k (each
    point against the k-th next one) until the smallest first-coordinate gap
    at offset k squares to the smallest squared distance found or more: gaps
    of sorted values only grow with k, so no pair further apart in that order
    can be closer.  Each squared distance sums its coordinates' squared
    differences one coordinate at a time, as `pdist` does, so the result is
    `pdist`'s to the bit; overflowing squares become inf silently, as there.
    The sweep returns early once the distance found is at most `floor`.
    """
    count, d = points.shape
    # An inf column, whose pairs are inf, gives every offset two or more
    # columns: numpy reduces a lone column pairwise, not in coordinate order.
    coords = np.full((d, count + 1), math.inf)
    coords[:, :count] = points[np.argsort(points[:, 0])].T
    smallest = math.inf
    with np.errstate(over="ignore"):
        for k in range(1, count):
            squares = coords[:, k:] - coords[:, :-k]
            np.square(squares, out=squares)
            smallest = min(smallest, float(np.add.reduce(squares, axis=0).min()))
            if math.sqrt(smallest) <= floor or squares[0].min() >= smallest:
                break
    return math.sqrt(smallest)


def kmeans_best(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Cluster centers from the best of KMEANS_RESTARTS Lloyd runs (lowest SSE)."""
    best_centers: np.ndarray | None = None
    best_sse = math.inf
    for _ in range(KMEANS_RESTARTS):
        centers, sse = _lloyd(points, k, rng)
        if sse < best_sse:
            best_centers, best_sse = centers, sse
    return best_centers


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(m, k) squared Euclidean distances from every point to every center."""
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator):
    m = points.shape[0]
    centers = points[rng.choice(m, size=k, replace=False)].copy()
    assign: np.ndarray | None = None
    for _ in range(100):
        new_assign = _squared_distances(points, centers).argmin(axis=1)
        for j in range(k):
            members = new_assign == j
            if members.any():
                centers[j] = points[members].mean(axis=0)
            else:
                # Empty cluster: re-seed its center from a random point.
                centers[j] = points[rng.integers(m)]
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
    sse = float(_squared_distances(points, centers).min(axis=1).sum())
    return centers, sse


def cluster_starts(
    objective,
    box: SearchBox,
    n_starts: int,
    include_diagonal: bool,
    rng: np.random.Generator,
):
    """Start points for a multistart run, plus the evaluations they cost.

    200d box points from a maximin Latin hypercube are evaluated, the best
    80d are clustered into k groups (k = n_starts, minus one when the extra
    diagonal start is requested), and the cluster centers become starts.
    With include_diagonal, three equidistant interior points along the box
    diagonal are also evaluated (3 more calls) and the best is appended.

    Returns (starts, fe_used).
    """
    k = n_starts - 1 if include_diagonal else n_starts
    if k < 1:
        raise ValueError("at least one cluster center is required")
    d = box.d
    wrapped = CountedObjective(objective)
    sample = lhd_maximin(SAMPLING_FE_PER_DIM * d, box, rng)
    values = np.array(wrapped.batch(sample))
    keep = np.argsort(values, kind="stable")[: KEEP_FE_PER_DIM * d]
    centers = kmeans_best(sample[keep], k, rng)
    starts = [centers[i].copy() for i in range(k)]
    if include_diagonal:
        lo, hi = box.lower, box.upper
        diag_points = [lo + t * (hi - lo) for t in DIAGONAL_FRACTIONS]
        diag_values = wrapped.batch(diag_points)
        starts.append(diag_points[int(np.argmin(diag_values))])
    return starts, wrapped.count


def run_strategy(
    objective,
    strategy: str,
    d: int,
    rng: np.random.Generator,
) -> OptReport:
    """Dispatch one of the seven named strategies and merge the accounting.

    A global phase yields the starts: cluster centers, or for the hybrids
    the best point of a DIRECT run on a 200d budget.  IF2 caps a run from
    each start at 20d evaluations and keeps the best run's point as its one
    start.  The strategy's local optimizer then runs to completion from every
    start.  fe_used is exact: the sampling evaluations plus every report's.
    beta_star and value are the first best report's in phase order, not
    the best sampled point's.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    start_box = default_beta_box(d)
    pattern_box = if_beta_box(d)

    if strategy.startswith("DIRECT-"):
        reports = [direct_search(objective, start_box, SAMPLING_FE_PER_DIM * d)]
        starts, fe_sampling = [reports[0].beta_star], 0
    else:
        include_diagonal = strategy.endswith("2d1")
        n_starts = 2 * d + 1 if include_diagonal else math.ceil(0.5 * d)
        starts, fe_sampling = cluster_starts(objective, start_box, n_starts, include_diagonal, rng)
        reports = []
    if strategy == "IF2":
        cap = IF2_STAGE1_FE_PER_DIM * d
        reports = _local_runs(objective, implicit_filtering, starts, box=pattern_box, max_fe=cap)
        starts = [min(reports, key=lambda r: r.value).beta_star]
    # Module globals, read per call: tests and the benchmark's tracer patch them.
    if "BFGS" in strategy:
        reports += _local_runs(objective, bfgs_minimize, starts)
    else:
        reports += _local_runs(objective, implicit_filtering, starts, box=pattern_box)
    best = min(reports, key=lambda r: r.value)
    return OptReport(
        beta_star=best.beta_star.copy(),
        value=best.value,
        fe_used=fe_sampling + sum(report.fe_used for report in reports),
    )


def _local_runs(objective, local, starts: list, **options) -> list[OptReport]:
    """[local(objective, start, **options) for start in starts], as one job
    of the process's worker (`_worker.run`): this process runs from the first
    start and the worker from the last, and the reports come back in order.

    Two or more starts are shared when the objective is a `DevianceObjective`
    itself and `local` is the package's own optimizer: the worker would not
    run a subclass's overrides or a patched optimizer.  The objective then
    counts the worker's evaluations too; a lone start counted its own here.
    """
    from .gp import DevianceObjective  # gp imports this module

    share = (len(starts) > 1 and type(objective) is DevianceObjective
             and local in (local_search.bfgs_minimize, local_search.implicit_filtering))
    count = objective.fe_count if share else 0
    reports = _worker.run(len(starts), partial(local, objective, **options), starts, share)
    if share:
        objective.fe_count = count + sum(report.fe_used for report in reports)
    return reports
