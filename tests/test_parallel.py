"""Batches of deviance evaluations shared with a forked worker.

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

# Each script starts with its imports, a testbed design maker, a check that
# no child process is left and an objective that counts the calls made in the
# script's own process and sleeps 2 ms on the beta its `slow` picks; N is the
# crossover, the smallest n that forks.
PRELUDE = """
import os, sys, threading, time
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

PARENT = os.getpid()

class Here(gp.DevianceObjective):
    here = 0
    slow = staticmethod(lambda beta: False)

    def __call__(self, beta):
        if os.getpid() == PARENT:
            self.here += 1
        if self.slow(beta):
            time.sleep(0.002)
        return super().__call__(beta)

def hexes(values):
    return [float(v).hex() for v in values]

N = gp._FORK_MIN_N
BETAS = [np.array([b, -b / 2]) for b in np.linspace(-2.0, 2.0, 16)]
"""


def run_script(body: str) -> str:
    env = {
        **os.environ, "PYTHONPATH": str(SRC), "PYTHONDEVMODE": "1",
        "PYTHONWARNINGS": "error::RuntimeWarning,error::ResourceWarning",
    }
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
    # replay in `CountedObjective.batch` must stop, and raise, exactly where
    # calls one at a time would have.
    out = run_script("""
        from gpdevopt import optreport
        cuts = set()
        batch = optreport.CountedObjective.batch
        def recording(self, points):
            try:
                return batch(self, points)
            except optreport.BudgetExhausted:
                cuts.add(self.max_fe)
                raise
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
        certifies = gp.certifies
        def failing(R, L, a):
            if os.getpid() != parent:
                raise ArithmeticError(f"raised in worker {os.getpid()}")
            return certifies(R, L, a)
        gp.certifies = failing
        try:
            fit(ds, "DIRECT-BFGS", rng=3)
        except ArithmeticError as exc:
            assert str(exc).startswith("raised in worker"), exc
            assert int(str(exc).split()[-1]) != parent
            print("raised")
        assert no_child_left()
        gp.certifies = certifies
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


@fork_capable
def test_a_slow_tail_is_shared_and_matches_serial_calls():
    # The back half of the batch takes 2 ms more per beta in either process:
    # this process runs through the front half and meets the worker inside
    # the back half, so it evaluates more than half of the batch.
    run_script("""
        Here.slow = staticmethod(lambda beta: beta[0] > 0.0)
        ds = design("goldstein-price", N)
        objective, plain = Here(ds), gp.DevianceObjective(ds)
        got = objective.batch(BETAS)
        assert objective._worker
        assert hexes(got) == hexes(plain(beta) for beta in BETAS)
        assert objective.fe_count == plain.fe_count == len(BETAS)
        assert len(BETAS) // 2 < objective.here <= len(BETAS), objective.here
        objective._worker.stop()
        assert no_child_left()
    """)


@fork_capable
def test_a_worker_that_ignores_the_claims_counts_each_beta_once():
    # The worker sees no claim of this process and publishes none of its
    # own, so both evaluate the whole batch; each beta still counts once.
    run_script("""
        serve = gp._serve
        gp._serve = lambda objective, requests, replies, claims: serve(
            objective, requests, replies, [0, 0])
        receive, replies = gp._Worker.receive, []
        gp._Worker.receive = lambda self: replies.append(receive(self)) or replies[-1]
        ds = design("goldstein-price", N)
        objective, plain = Here(ds), gp.DevianceObjective(ds)
        got = objective.batch(BETAS) + objective.batch(BETAS[::-1])
        assert objective._worker
        assert hexes(got) == hexes(plain(beta) for beta in BETAS + BETAS[::-1])
        assert objective.fe_count == plain.fe_count == 2 * len(BETAS)
        assert objective.here == 2 * len(BETAS)
        assert [len(values) for values in replies] == [len(BETAS)] * 2
        objective._worker.stop()
        assert no_child_left()
    """)


@fork_capable
def test_a_worker_that_evaluates_nothing_leaves_every_beta_to_the_owner():
    # The worker claims the whole batch in shared memory, finds it all
    # claimed by this process and replies with no value.  This process (2 ms
    # per beta) stops at the worker's claim and fills in every beta after.
    run_script("""
        class Greedy:
            def __init__(self, claims):
                self.claims = claims
            def __getitem__(self, k):
                self.claims[1] = 1 << 40
                return 1 << 40
            def __setitem__(self, k, value):
                pass
        serve = gp._serve
        gp._serve = lambda objective, requests, replies, claims: serve(
            objective, requests, replies, Greedy(claims))
        Here.slow = staticmethod(lambda beta: os.getpid() == PARENT)
        ds = design("goldstein-price", N)
        objective, plain = Here(ds), gp.DevianceObjective(ds)
        got = objective.batch(BETAS)
        assert objective._worker
        assert hexes(got) == hexes(plain(beta) for beta in BETAS)
        assert objective.fe_count == plain.fe_count == objective.here == len(BETAS)
        assert objective._worker.claims[0] < len(BETAS) < objective._worker.claims[1]
        objective._worker.stop()
        assert no_child_left()
    """)


@fork_capable
def test_batches_of_every_size_match_serial_calls_with_more_workers_than_cores():
    # Three objectives with a worker each take turns on batches of 2 to 24
    # beta: a claim lost or misread under contention shows as a wrong value,
    # a wrong order or a count off by one.
    run_script("""
        ds = design("goldstein-price", N)
        rng = np.random.default_rng(5)
        objectives = [gp.DevianceObjective(ds) for _ in range(3)]
        plain = gp.DevianceObjective(ds)
        total = 0
        for size in range(2, 25):
            for objective in objectives:
                betas = list(rng.uniform(-2.0, 2.0, (size, 2)))
                assert hexes(objective.batch(betas)) == hexes(plain(b) for b in betas)
                total += size
        assert all(objective._worker for objective in objectives)
        assert sum(objective.fe_count for objective in objectives) == plain.fe_count == total
        for objective in objectives:
            objective._worker.stop()
        assert no_child_left()
    """)


class _Batching:
    """A plain objective with a `batch` method that logs the values of each
    batch."""

    def __init__(self, fn):
        self.fn = fn
        self.batches = []

    def __call__(self, x):
        return self.fn(x)

    def batch(self, points):
        self.batches.append([self.fn(x) for x in points])
        return self.batches[-1]


@pytest.mark.parametrize("max_fe", [None, 1, 3, 4, 6, 7])
def test_counted_batch_replays_calls_one_at_a_time(max_fe):
    # Ties go to the first point, a NaN never replaces a best and a NaN best
    # yields to any other value.  A budget cut mid-batch leaves the count and
    # the best point where single calls stop, and the batch itself raises
    # BudgetExhausted, as the first call the budget does not cover would.
    for sequence in ([3.0, 1.0, math.nan, 1.0, 0.5, math.inf],
                     [math.nan, math.nan, 2.0, math.nan, 2.0, 0.5]):
        values = dict(enumerate(sequence))
        points = [np.array([float(k)]) for k in values]
        fn = _Batching(lambda x: values[int(x[0])])
        batched, single = CountedObjective(fn, max_fe), CountedObjective(fn.fn, max_fe)
        want, got, cut = [], [], False
        for point in points:
            try:
                want.append(single(point))
            except BudgetExhausted:
                break
        try:
            for part in (points[:3], points[3:]):
                got += batched.batch(part)
        except BudgetExhausted:
            cut = True
        assert cut == (len(want) < len(points))
        assert np.array_equal(sum(fn.batches, []), want, equal_nan=True)
        assert np.array_equal(got, want[: len(got)], equal_nan=True)
        assert batched.count == single.count == len(want)
        seen = [(value, k) for k, value in enumerate(want) if not math.isnan(value)]
        best_value, best_k = min(seen) if seen else (math.nan, 0)
        assert batched.best_value.hex() == single.best_value.hex() == best_value.hex()
        assert batched.best_point.tobytes() == single.best_point.tobytes()
        assert batched.best_point.tobytes() == points[best_k].tobytes()
