"""Global search: start generation and the seven optimizer strategies.

Multistart strategies draw their starts from a space-filling sample of the
search box (best of several Latin hypercube candidates by maximin distance),
keep the lowest-value fraction, and cluster it with k-means; the hybrid
strategies instead spend the same sampling budget on a DIRECT run and start
a single local search from its best point.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import pdist

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

# Relative margin on squared distances below which a pair proves a candidate
# worse than the incumbent (see lhd_maximin).
REJECT_MARGIN = 1e-9

# The closer-pair sweep runs when count >= this * d**2: it needs more
# neighbour offsets as d grows, a few numpy calls each, while `pdist` is
# cheap on small designs.  Scoring the same 50 candidates with the sweep took
# 0.91-1.11x the `pdist`-only time at count = 5 d**2 (d = 3..8) and
# 0.57-0.92x at count = 8 d**2 (d = 1..12); 2-core VM, one BLAS thread,
# 8 seeds per shape.
SWEEP_MIN_POINTS_PER_DIM2 = 8

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
    scores wins.  A candidate can only replace the incumbent with a larger
    score, so on designs large enough for it to pay (SWEEP_MIN_POINTS_PER_DIM2)
    a candidate with a pair proven closer than the incumbent's score is
    rejected without being scored: some squared distance below
    best_score**2 * (1 - REJECT_MARGIN).  The margin is millions of ulps,
    far above the rounding of that sum of squares and of `pdist`'s distance,
    so the candidate's `pdist` minimum is below best_score.  Survivors get the
    full `pdist` score, and the winner is the full scoring's, bit for bit.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    lo, hi = box.lower, box.upper
    sweep = count >= SWEEP_MIN_POINTS_PER_DIM2 * box.d ** 2
    best: np.ndarray | None = None
    best_score = -math.inf
    for _ in range(LHD_CANDIDATES):
        sample = lo + lhd_unit_sample(count, box.d, rng) * (hi - lo)
        if sweep and best is not None and _has_closer_pair(
            sample, best_score * best_score * (1.0 - REJECT_MARGIN)
        ):
            continue
        score = float(pdist(sample).min())
        if score > best_score:
            best, best_score = sample, score
    return best


def _has_closer_pair(points: np.ndarray, limit: float) -> bool:
    """Whether a pair of `points` is found with squared distance below `limit`.

    Sweeps neighbours in first-coordinate order, widening the offset k (each
    point against the k-th next one) until the smallest first-coordinate gap
    at offset k squares to `limit` or more: gaps of sorted values only grow
    with k, so no pair further apart in that order can be closer.
    """
    s = points[np.argsort(points[:, 0])]
    for k in range(1, len(s)):
        diff = s[k:] - s[:-k]
        if np.einsum("ij,ij->i", diff, diff).min() < limit:
            return True
        gap = float(diff[:, 0].min())  # a Python float overflows to inf silently
        if gap * gap >= limit:
            return False
    return False


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
    values = np.array([wrapped(point) for point in sample])
    keep = np.argsort(values, kind="stable")[: KEEP_FE_PER_DIM * d]
    centers = kmeans_best(sample[keep], k, rng)
    starts = [centers[i].copy() for i in range(k)]
    if include_diagonal:
        lo, hi = box.lower, box.upper
        diag_points = [lo + t * (hi - lo) for t in DIAGONAL_FRACTIONS]
        diag_values = [wrapped(point) for point in diag_points]
        starts.append(diag_points[int(np.argmin(diag_values))])
    return starts, wrapped.count


def multistart_count(strategy: str, d: int) -> int:
    """Number of local-search starts the strategy uses at dimension d."""
    if strategy in ("MS-BFGS-2d1", "MS-IF-2d1"):
        return 2 * d + 1
    if strategy in ("MS-BFGS-halfd", "MS-IF-halfd", "IF2"):
        return math.ceil(0.5 * d)
    return 1


def run_strategy(
    objective,
    strategy: str,
    d: int,
    rng: np.random.Generator,
) -> OptReport:
    """Dispatch one of the seven named strategies and merge the accounting.

    Multistart strategies cluster starts and run the local optimizer to
    completion from each; IF2 caps each first-stage run at 20d evaluations
    and then reruns the best one to completion; the DIRECT hybrids give
    DIRECT a 200d budget and start a single local run from its best point.
    The report's fe_used is exact: the sampling evaluations plus every
    phase's fe_used.  Its beta_star and value are the best local or DIRECT
    result, not the best sampled point.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    start_box = default_beta_box(d)
    pattern_box = if_beta_box(d)

    fe_sampling = 0
    if strategy.startswith("MS-") or strategy == "IF2":
        include_diagonal = strategy.endswith("2d1")
        starts, fe_sampling = cluster_starts(
            objective, start_box, multistart_count(strategy, d), include_diagonal, rng
        )
        if strategy == "IF2":
            cap = IF2_STAGE1_FE_PER_DIM * d
            stage1 = [implicit_filtering(objective, start, pattern_box, cap) for start in starts]
            best_stage1 = min(stage1, key=lambda r: r.value)
            reports = stage1 + [implicit_filtering(objective, best_stage1.beta_star, pattern_box)]
        elif "BFGS" in strategy:
            reports = [bfgs_minimize(objective, start) for start in starts]
        else:
            reports = [implicit_filtering(objective, start, pattern_box) for start in starts]
    else:
        global_report = direct_search(objective, start_box, SAMPLING_FE_PER_DIM * d)
        if strategy == "DIRECT-BFGS":
            local_report = bfgs_minimize(objective, global_report.beta_star)
        else:
            local_report = implicit_filtering(objective, global_report.beta_star, pattern_box)
        reports = [global_report, local_report]
    best = min(reports, key=lambda r: r.value)
    return OptReport(
        beta_star=best.beta_star.copy(),
        value=best.value,
        fe_used=fe_sampling + sum(report.fe_used for report in reports),
    )
