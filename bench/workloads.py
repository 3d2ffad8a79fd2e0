"""The benchmark's workloads: input generation, timed calls, and output checks.

Inputs come from the public testbed helpers (`test_function`, `lhd_maximin`)
seeded by (seed, workload, round, job); the program sees only the generated
designs and is called only through `fit`, `predict_many` and `cli.main`.
Every workload runs in rounds; a round runs each (function, strategy) job of
the workload's mix once, on a fresh design, one call at a time.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gpdevopt import STRATEGIES, DesignSet, DevianceObjective, SearchBox, cli, fit
from gpdevopt import lhd_maximin, predict_many, test_function
from gpdevopt.testbed import TRAIN_POINTS_PER_DIM, VALIDATION_POINTS_PER_DIM

from spans import CLI_FIT, CLI_PREDICT, FIT, PREDICT, Tracer

# Relative tolerance of the dense deviance recompute on well-conditioned
# fits.  At the condition ceiling kappa(R + delta*I) = exp(25) two float64
# evaluations of the same deviance differ by up to about 1e-7 relative, so
# the first-order rounding bound (n + 1) * kappa * eps is added to it.
DEVIANCE_RTOL = 1e-8

# Dense-cli prediction grid: points per axis, kept strictly inside the
# training range so that the CLI's clamping path is never what is timed.
GRID_PER_AXIS = 101

# Mean SpeedProbe kernel time per workload on the reference machine; see
# `Workload`.
PROBE_REF_LOWD = 0.43e-3
PROBE_REF_HIGHD = 1.47e-3
PROBE_REF_DENSE = 0.85e-3

# Each fitted model predicts its point set this many times; the median call
# is reported, which keeps the first call's allocations out of the figure.
PREDICT_REPEATS = 3
GRID_MARGIN = 0.005


@dataclass
class Result:
    """One timed fit (and the prediction that follows it)."""

    label: str
    round: int
    fit_s: float = math.nan
    predict_s: float = math.nan
    predict_points: int = 0
    fe_count: int = 0
    beta: np.ndarray | None = None
    deviance: float = math.nan
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def digest(self) -> str:
        """Behaviour fingerprint of this fit: FE count, beta_star and deviance bytes."""
        h = hashlib.sha256(self.label.encode())
        if self.beta is None:
            return "failed:" + h.hexdigest()[:9]
        h.update(struct.pack("<q", self.fe_count))
        h.update(np.asarray(self.beta, dtype="<f8").tobytes())
        h.update(struct.pack("<d", self.deviance))
        return h.hexdigest()[:16]


def _tracing(tracer: Tracer | None):
    """(context installing the tracer's wrappers, span factory), or no-ops untraced."""
    if tracer is None:
        return contextlib.nullcontext(), lambda *args: contextlib.nullcontext()
    return tracer.installed(), tracer.span


def _draw(name: str, n_per_dim: int, seed_key: tuple, validation_per_dim: int = 0):
    """A maximin LHD design (and validation set) on the unit cube, testbed style."""
    fn = test_function(name)
    n, validation = n_per_dim * fn.d, validation_per_dim * fn.d
    rng = np.random.default_rng(seed_key)
    unit = SearchBox(np.zeros(fn.d), np.ones(fn.d))
    train = lhd_maximin(n, unit, rng)
    valid = lhd_maximin(validation, unit, rng) if validation else None
    return fn, train, valid


def dense_deviance(points, outputs, beta, p, delta) -> tuple[float, float]:
    """Deviance by dense LU algebra on R + delta*I, and that matrix's condition number."""
    n = outputs.size
    diffs = np.abs(points[:, None, :] - points[None, :, :])
    A = np.exp(-((diffs ** p) @ (10.0 ** beta))) + delta * np.eye(n)
    sign, logdet = np.linalg.slogdet(A)
    if sign <= 0:
        return math.nan, math.inf
    centered = outputs - outputs.mean()
    sol = np.linalg.solve(A, np.column_stack([np.ones(n), centered]))
    resid = centered - sol[:, 1].sum() / sol[:, 0].sum()
    qform = float(resid @ np.linalg.solve(A, resid))
    w = np.linalg.eigvalsh(A)
    return logdet + n * math.log(qform), float(w[-1] / w[0])


def check_deviance(result: Result, points, outputs, p, delta) -> None:
    ref, kappa = dense_deviance(points, outputs, result.beta, p, delta)
    tol = DEVIANCE_RTOL * max(abs(ref), 1.0) + (outputs.size + 1) * kappa * np.finfo(float).eps
    if not abs(result.deviance - ref) <= tol:
        result.problems.append(
            f"deviance {result.deviance!r} differs from dense recompute {ref!r} by more than {tol:.3g}"
        )


def check_prediction(result: Result, y_hat, mse, expected: int) -> None:
    if len(y_hat) != expected or len(mse) != expected:
        result.problems.append(f"predicted {len(y_hat)} points, expected {expected}")
    elif not (np.all(np.isfinite(y_hat)) and np.all(np.isfinite(mse)) and np.all(mse >= 0.0)):
        result.problems.append("prediction has non-finite values or a negative mse")


class Workload:
    """A mix of (design, strategy) calls, run in rounds.

    `probe_shapes` lists (n, d, evaluations per sample) of the speed probe,
    one per design shape of the mix, and `probe_reference_s` is the probe's
    mean time on the machine the bounds were set on (2-core Intel Xeon VM,
    OpenBLAS 0.3.31, numpy 2.4), the unit of the scaled timing metrics.
    """

    name: str
    fingerprint_rounds: int
    probe_shapes: tuple[tuple[int, int, int], ...]
    probe_reference_s: float

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def make_round(self, r: int) -> list:
        raise NotImplementedError

    def run_job(self, job, r: int, tracer: Tracer | None) -> Result:
        raise NotImplementedError

    def warm_up(self, jobs: list) -> None:
        """Touch every code path a round takes, on small inputs."""
        fn, train, valid = _draw("hump", TRAIN_POINTS_PER_DIM, (self.seed, 99), 20)
        model = fit(DesignSet(train, fn.evaluate(train)), "DIRECT-BFGS")
        predict_many(model, valid)
        for job in jobs:
            design = job[0]
            DevianceObjective(design)(np.zeros(design.d))


class _FitWorkload(Workload):
    """Testbed-protocol designs fitted through `fit`, then `predict_many`."""

    families: tuple[str, ...]
    strategies: tuple[str, ...]
    key: int

    def make_round(self, r: int) -> list:
        # Every job gets its own design, so that a run's few high-d fits
        # cover as many designs as possible.
        jobs = []
        for fi, name in enumerate(self.families):
            for strategy in self.strategies:
                key = (self.seed, self.key, r, fi, STRATEGIES.index(strategy))
                fn, train, valid = _draw(name, TRAIN_POINTS_PER_DIM, key, VALIDATION_POINTS_PER_DIM)
                jobs.append((DesignSet(train, fn.evaluate(train)), valid, name, strategy, key))
        return jobs

    def run_job(self, job, r: int, tracer: Tracer | None) -> Result:
        design, valid, name, strategy, rng_key = job
        result = Result(f"r{r}/{name}/{strategy}", r)
        installed, span = _tracing(tracer)
        try:
            with installed:
                t0 = time.perf_counter()
                with span(FIT):
                    model = fit(design, strategy, rng=np.random.default_rng(rng_key))
                result.fit_s = time.perf_counter() - t0
                predict_s = []
                for _ in range(PREDICT_REPEATS):
                    t0 = time.perf_counter()
                    with span(PREDICT, len(valid)):
                        y_hat, mse = predict_many(model, valid)
                    predict_s.append(time.perf_counter() - t0)
        except Exception as exc:  # a fit that raises is a failed operation
            result.problems.append(f"{type(exc).__name__}: {exc}")
            return result
        result.predict_s, result.predict_points = statistics.median(predict_s), len(valid)
        result.fe_count = model.fe_count
        result.beta = model.beta_star
        result.deviance = model.deviance
        check_deviance(result, design.points, design.outputs, model.p, model.correlation.delta)
        check_prediction(result, y_hat, mse, len(valid))
        return result


class LowdAll(_FitWorkload):
    name = "lowd-all"
    key = 1
    families = ("hump", "goldstein-price")
    strategies = STRATEGIES
    fingerprint_rounds = 2
    probe_shapes = ((10, 1, 4), (20, 2, 4))
    probe_reference_s = PROBE_REF_LOWD


class HighdDirect(_FitWorkload):
    name = "highd-direct"
    key = 2
    families = ("rastrigin10", "perm12")
    strategies = ("DIRECT-BFGS", "DIRECT-IF")
    fingerprint_rounds = 1
    probe_shapes = ((100, 10, 1), (120, 12, 1))
    probe_reference_s = PROBE_REF_HIGHD


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            # repr(float(v)): the CLI rejects numpy-2 scalar reprs.
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


class DenseCli(Workload):
    """Dense native-coordinate CSVs through `gpdevopt fit` and `gpdevopt predict`."""

    name = "dense-cli"
    key = 3
    # (function, design points per input dimension): n=40 at d=1, n=100 at d=2.
    designs = (("hump", 40), ("goldstein-price", 50))
    fingerprint_rounds = 2
    probe_shapes = ((40, 1, 2), (100, 2, 1))
    probe_reference_s = PROBE_REF_DENSE

    def make_round(self, r: int) -> list:
        jobs = []
        for fi, (name, n) in enumerate(self.designs):
            fn, unit, _ = _draw(name, n, (self.seed, self.key, r, fi))
            x = fn.to_native(unit)
            header = [f"x{k + 1}" for k in range(fn.d)]
            stem = self.workdir / f"{self.name}-r{r}-{name}"
            train, grid = stem.with_suffix(".train.csv"), stem.with_suffix(".grid.csv")
            _write_csv(train, header + ["y"], np.column_stack([x, fn.evaluate(unit)]))
            lo, hi = x.min(axis=0), x.max(axis=0)
            per_axis = GRID_PER_AXIS ** 2 if fn.d == 1 else GRID_PER_AXIS
            axes = [lo[k] + (hi[k] - lo[k]) * np.linspace(GRID_MARGIN, 1.0 - GRID_MARGIN, per_axis)
                    for k in range(fn.d)]
            points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, fn.d)
            scaled = (points - lo) / (hi - lo)
            if np.any(scaled <= 0.0) or np.any(scaled >= 1.0):
                raise RuntimeError("prediction grid leaves the training range")
            _write_csv(grid, header, points)
            jobs.append((DesignSet(unit, fn.evaluate(unit)), train, grid, name, len(points)))
        return jobs

    def run_job(self, job, r: int, tracer: Tracer | None) -> Result:
        _, train, grid, name, n_points = job
        result = Result(f"r{r}/{name}/DIRECT-BFGS", r)
        model_path = train.with_suffix(".model.json")
        pred_path = train.with_suffix(".pred.csv")
        fit_argv = ["fit", "--data", str(train), "--out", str(model_path)]
        predict_argv = ["predict", "--model", str(model_path), "--points", str(grid),
                        "--out", str(pred_path)]
        printed = io.StringIO()
        installed, span = _tracing(tracer)
        predict_s, codes = [], []
        with installed, contextlib.redirect_stdout(printed):
            t0 = time.perf_counter()
            with span(CLI_FIT):
                codes.append(cli.main(fit_argv))
            result.fit_s = time.perf_counter() - t0
            for _ in range(PREDICT_REPEATS):
                t0 = time.perf_counter()
                with span(CLI_PREDICT):
                    codes.append(cli.main(predict_argv))
                predict_s.append(time.perf_counter() - t0)
        if any(codes):
            result.problems.append(f"gpdevopt exit codes {codes} (fit, then predicts)")
            return result
        result.predict_s, result.predict_points = statistics.median(predict_s), n_points
        with open(model_path, encoding="utf-8") as handle:
            model = json.load(handle)
        result.fe_count = int(model["fe_count"])
        result.beta = np.array(model["beta"], dtype=float)
        result.deviance = float(model["deviance"])
        summary = dict(line.split("=", 1) for line in printed.getvalue().splitlines() if "=" in line)
        if int(summary.get("fe", -1)) != result.fe_count or float(
            summary.get("deviance", "nan")
        ) != result.deviance:
            result.problems.append("printed fit summary disagrees with the model file")
        check_deviance(
            result, np.array(model["points"]), np.array(model["outputs"]),
            np.array(model["p"]), float(model["delta"]),
        )
        with open(pred_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        values = np.array([[float(v) for v in row[-2:]] for row in rows]).reshape(-1, 2)
        check_prediction(result, values[:, 0], values[:, 1], n_points)
        return result

    def warm_up(self, jobs: list) -> None:
        super().warm_up(jobs)
        fn, unit, _ = _draw("hump", TRAIN_POINTS_PER_DIM, (self.seed, 98))
        train = self.workdir / "warm-up.train.csv"
        _write_csv(train, ["x1", "y"], np.column_stack([fn.to_native(unit), fn.evaluate(unit)]))
        model = self.workdir / "warm-up.model.json"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["fit", "--data", str(train), "--out", str(model)])
            cli.main(["predict", "--model", str(model), "--points", str(train),
                      "--out", str(self.workdir / "warm-up.pred.csv")])


WORKLOADS = {w.name: w for w in (LowdAll, HighdDirect, DenseCli)}
