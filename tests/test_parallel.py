"""Batches of deviance evaluations split with a forked worker.

`DevianceObjective.batch` forks only in a process that runs one OS thread.
An unpinned BLAS keeps a pool of threads, so every fork test runs its own
interpreter with BLAS at one thread.
"""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gpdevopt.optreport import BudgetExhausted, CountedObjective

SRC = Path(__file__).resolve().parents[1] / "src"

fork_capable = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="the worker forks only on Linux with two cores",
)

# Each script starts with its imports, a testbed design maker, and a check
# that no child process is left; N is the crossover, the smallest n that forks.
PRELUDE = """
import os, sys, threading
import numpy as np
from gpdevopt import DesignSet, SearchBox, fit, gp, lhd_maximin, test_function
from gpdevopt.global_search import STRATEGIES, run_strategy

def design(name, n, seed=0):
    fn = test_function(name)
    unit = SearchBox(np.zeros(fn.d), np.ones(fn.d))
    points = lhd_maximin(n, unit, np.random.default_rng(seed))
    return DesignSet(points, fn.evaluate(points))

def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False

N = gp._FORK_MIN_N
"""


def run_script(body: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error::RuntimeWarning"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    script = PRELUDE + textwrap.dedent(body)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@fork_capable
def test_every_strategy_matches_a_serial_run_bit_for_bit():
    # The serial reference goes through a plain callable, which has no
    # `batch`.  Budgets cut DIRECT's and IF2's stage-one batches short: the
    # replay in `CountedObjective.batch` must stop exactly where calls one at
    # a time would have.
    out = run_script("""
        from gpdevopt import optreport
        cuts = set()
        batch = optreport.CountedObjective.batch
        def recording(self, points):
            values = batch(self, points)
            if len(values) < len(points):
                cuts.add(self.max_fe)
            return values
        optreport.CountedObjective.batch = recording
        forked = 0
        for name in ("hump", "goldstein-price"):
            ds = design(name, N)
            for strategy in STRATEGIES:
                objective = gp.DevianceObjective(ds)
                got = run_strategy(objective, strategy, ds.d, np.random.default_rng(1))
                if objective._worker:
                    forked += 1
                    objective._worker.stop()
                plain = gp.DevianceObjective(ds)
                want = run_strategy(lambda beta: plain(beta), strategy, ds.d,
                                    np.random.default_rng(1))
                assert got.fe_used == want.fe_used == objective.fe_count, (name, strategy)
                assert got.beta_star.tobytes() == want.beta_star.tobytes(), (name, strategy)
                assert got.value.hex() == want.value.hex(), (name, strategy)
                assert plain._worker is None
        assert forked == 2 * len(STRATEGIES), forked
        assert {20, 200, 400} <= cuts, cuts
        assert no_child_left()
        print("ok")
    """)
    assert out.split() == ["ok"]


@fork_capable
def test_worker_exception_reaches_the_caller_and_no_worker_outlives_a_fit():
    out = run_script("""
        ds = design("goldstein-price", N)
        model = fit(ds, "DIRECT-BFGS", rng=3)
        assert no_child_left()
        parent = os.getpid()
        certified_factor = gp.certified_factor
        def failing(R, a):
            if os.getpid() != parent:
                raise ArithmeticError(f"raised in worker {os.getpid()}")
            return certified_factor(R, a)
        gp.certified_factor = failing
        try:
            fit(ds, "DIRECT-BFGS", rng=3)
        except ArithmeticError as exc:
            assert str(exc).startswith("raised in worker"), exc
            assert int(str(exc).split()[-1]) != parent
            print("raised")
        assert no_child_left()
        gp.certified_factor = certified_factor
        again = fit(ds, "DIRECT-BFGS", rng=3)
        assert again.deviance.hex() == model.deviance.hex()
        assert no_child_left()
    """)
    assert out.split() == ["raised"]


@fork_capable
def test_nothing_forks_below_the_crossover_beside_another_thread_or_without_processes():
    run_script("""
        def refuse():
            raise AssertionError("forked")
        os.fork = refuse
        betas = [np.full(2, b) for b in (-1.0, -0.5, 0.0, 0.5)]
        small = gp.DevianceObjective(design("goldstein-price", N - 1))
        small.batch(betas)
        assert small._worker is False and small.fe_count == 4
        release = threading.Event()
        waiting = threading.Thread(target=release.wait)
        waiting.start()
        crowded = gp.DevianceObjective(design("goldstein-price", N))
        crowded.batch(betas)
        release.set()
        waiting.join()
        assert crowded._worker is False and crowded.fe_count == 4
        def fail():
            raise BlockingIOError("no process to spare")
        os.fork = fail
        open_fds = len(os.listdir("/proc/self/fd"))
        starved = gp.DevianceObjective(design("goldstein-price", N))
        assert starved.batch(betas) == crowded.batch(betas)
        assert starved._worker is False and starved.fe_count == 4
        assert len(os.listdir("/proc/self/fd")) == open_fds
    """)


@fork_capable
def test_a_process_forked_from_the_owner_evaluates_alone():
    # A copy of the objective in a forked process must not write to the
    # owner's pipes: its batches run serially, and the owner's worker stays
    # in step.
    run_script("""
        objective = gp.DevianceObjective(design("goldstein-price", N))
        betas = [np.full(2, b) for b in (-1.0, -0.5, 0.0, 0.5)]
        want = objective.batch(betas)
        assert objective._worker
        pid = os.fork()
        if pid == 0:
            os._exit(0 if not objective._worker and objective.batch(betas) == want else 1)
        assert os.waitpid(pid, 0)[1] == 0
        assert objective.batch(betas[::-1]) == want[::-1]
        objective._worker.stop()
        assert no_child_left()
    """)


class _Batching:
    """A plain objective with a `batch` method that logs each batch's size."""

    def __init__(self, fn):
        self.fn = fn
        self.batches = []

    def __call__(self, x):
        return self.fn(x)

    def batch(self, points):
        self.batches.append(len(points))
        return [self.fn(x) for x in points]


@pytest.mark.parametrize("max_fe", [None, 1, 3, 4, 6, 7])
def test_counted_batch_replays_calls_one_at_a_time(max_fe):
    # Ties go to the first point, a NaN never becomes the best, and a budget
    # cut mid-batch leaves the count and the best point where single calls
    # stop, with BudgetExhausted on the next call.
    values = {0.0: 3.0, 1.0: 1.0, 2.0: math.nan, 3.0: 1.0, 4.0: 0.5, 5.0: math.inf}
    points = [np.array([k]) for k in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)]
    fn = _Batching(lambda x: values[float(x[0])])
    batched, single = CountedObjective(fn, max_fe), CountedObjective(fn.fn, max_fe)
    got = batched.batch(points[:3]) + batched.batch(points[3:])
    want = []
    for point in points:
        try:
            want.append(single(point))
        except BudgetExhausted:
            break
    assert np.array_equal(got, want, equal_nan=True)
    assert batched.count == single.count == len(want)
    assert batched.best_value == single.best_value
    assert batched.best_point.tobytes() == single.best_point.tobytes()
    assert sum(fn.batches) == len(want)
    if len(want) < len(points):
        with pytest.raises(BudgetExhausted):
            batched(points[0])
