"""Batches of deviance evaluations shared with the process's forked worker.

`DevianceObjective.batch` forks only in a process that runs one OS thread.
An unpinned BLAS keeps a pool of threads, so every fork test runs its own
interpreter with BLAS at one thread (conftest's `run_script`, whose PRELUDE
defines the names the scripts use).
"""

import math
import os
import sys

import numpy as np
import pytest

from gpdevopt.optreport import BudgetExhausted, CountedObjective

fork_capable = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="the worker forks only on Linux with two cores",
)


@fork_capable
def test_every_strategy_matches_a_serial_run_bit_for_bit(run_script):
    # The serial reference goes through a plain callable, which has no
    # `batch`.  The points are C-ordered, F-ordered, or every second column
    # of a C- or F-ordered array: the worker must rebuild the kernel operand
    # in the same layout (at n = 100 a C-ordered copy of the last one moves
    # the bits).  Budgets cut DIRECT's and IF2's stage-one batches short: the
    # replay in `CountedObjective.batch` must stop, and raise, exactly where
    # calls one at a time would have.  All fits share one worker.
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
        for name, n, strategies in (("hump", 10, STRATEGIES), ("goldstein-price", 20, STRATEGIES),
                                    ("hump", 40, STRATEGIES), ("goldstein-price", 60, STRATEGIES),
                                    ("goldstein-price", 100, ["DIRECT-BFGS"])):
            ds = design(name, n)
            wide = np.repeat(ds.points, 2, axis=1)
            layouts = {"C": np.ascontiguousarray(ds.points), "F": np.asfortranarray(ds.points),
                       "strided": wide[:, ::2], "F-strided": np.asfortranarray(wide)[:, ::2]}
            for layout, points in layouts.items():
                if ds.d == 1 and layout == "F":
                    continue  # one column is C- and F-ordered at once
                laid = DesignSet(points, ds.outputs)
                for strategy in strategies:
                    objective = gp.DevianceObjective(laid)
                    got = run_strategy(objective, strategy, ds.d, np.random.default_rng(1))
                    plain = gp.DevianceObjective(laid)
                    want = run_strategy(lambda beta: plain(beta), strategy, ds.d,
                                        np.random.default_rng(1))
                    key = (name, n, layout, strategy)
                    assert got.fe_used == want.fe_used == objective.fe_count, key
                    assert got.beta_star.tobytes() == want.beta_star.tobytes(), key
                    assert got.value.hex() == want.value.hex(), key
        assert {20, 200, 400} <= cuts, cuts
        assert len(forks) == 1 and calls[1] > 0, (forks, calls[1])
        print("ok")
    """)
    assert out.split() == ["ok"]


@fork_capable
def test_worker_exception_reaches_the_caller_and_no_worker_outlives_its_process(run_script):
    # An exception raised in the worker stops it; the next shared batch forks
    # a fresh one, which the script's exit stops in turn.
    out = run_script("""
        MAX_FORKS = 2
        failing = memoryview(mmap.mmap(-1, 8)).cast("q")
        certifies = gp.certifies
        def failing_in_worker(R, L, a):
            if failing[0] and os.getpid() != PARENT:
                raise ArithmeticError(f"raised in worker {os.getpid()}")
            return certifies(R, L, a)
        gp.certifies = failing_in_worker
        ds = design("goldstein-price", 20)
        model = fit(ds, "DIRECT-BFGS", rng=3)
        assert len(forks) == 1 and not no_child_left()
        failing[0] = 1
        try:
            fit(ds, "DIRECT-BFGS", rng=3)
        except ArithmeticError as exc:
            assert str(exc) == f"raised in worker {forks[0]}", exc
            print("raised")
        assert no_child_left()
        failing[0] = 0
        again = fit(ds, "DIRECT-BFGS", rng=3)
        assert again.deviance.hex() == model.deviance.hex()
        assert len(forks) == 2 and not no_child_left()
    """)
    assert out.split() == ["raised"]


@fork_capable
def test_a_killed_parent_leaves_no_worker(run_script):
    # A process killed with SIGKILL runs no exit handler: its worker reads
    # end of file on its request pipe and exits.
    run_script("""
        import signal
        reader, writer = os.pipe()
        pid = fork()
        if pid == 0:
            os.close(reader)
            gp.DevianceObjective(design("goldstein-price", 20)).batch(BETAS)
            os.write(writer, str(forks[-1]).encode())
            time.sleep(60)
            os._exit(1)
        os.close(writer)
        worker = int(os.read(reader, 32))
        os.close(reader)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        def gone():
            try:
                with open(f"/proc/{worker}/stat") as stat:
                    return stat.read().rsplit(")", 1)[1].split()[0] in "ZX"
            except FileNotFoundError:
                return True
        deadline = time.monotonic() + 10.0
        while not gone():
            assert time.monotonic() < deadline, "the worker outlived its process"
            time.sleep(0.01)
    """)


@fork_capable
def test_nothing_forks_below_the_crossover_beside_another_thread_or_without_processes(
    run_script,
):
    run_script("""
        def refuse():
            raise AssertionError("forked")
        os.fork = refuse
        small, ds = design("goldstein-price", 10), design("goldstein-price", 20)
        betas = [np.full(2, b) for b in np.linspace(-1.0, 1.0, 8)]
        assert len(betas) * 10 < gp._SHARE_MIN_WORK <= len(betas) * 20
        want = [gp.DevianceObjective(ds)(beta) for beta in betas]
        objective = gp.DevianceObjective(small)
        objective.batch(betas)
        assert objective.fe_count == len(betas)
        release = threading.Event()
        waiting = threading.Thread(target=release.wait, daemon=True)
        waiting.start()
        crowded = gp.DevianceObjective(ds)
        assert crowded.batch(betas) == want and crowded.fe_count == len(betas)
        release.set()
        waiting.join()
        cores = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cores)})
        lone = gp.DevianceObjective(ds)
        assert lone.batch(betas) == want and lone.fe_count == len(betas)
        os.sched_setaffinity(0, cores)
        def fail():
            raise BlockingIOError("no process to spare")
        os.fork = fail
        open_fds = len(os.listdir("/proc/self/fd"))
        starved = gp.DevianceObjective(ds)
        assert starved.batch(betas) == starved.batch(betas) == want
        assert starved.fe_count == 2 * len(betas)
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert calls[1] == 0 and not forks
        os.fork = counting_fork
        slow = lambda beta: os.getpid() == PARENT  # the worker takes part in a shared batch
        assert starved.batch(betas) == want and len(forks) == 1 and calls[1] > 0
        # A live worker serves no batch made beside another thread.
        calls[1] = 0
        waiting = threading.Thread(target=release.wait, daemon=True)
        release.clear()
        waiting.start()
        assert starved.batch(betas) == want and calls[1] == 0
        release.set()
        waiting.join()
        # Nor a batch of a subclass: the worker would not run its overrides.
        class Recording(gp.DevianceObjective):
            def __call__(self, beta):
                seen.append(beta)
                return super().__call__(beta)
        seen, recording = [], Recording(ds)
        assert recording.batch(betas) == want and calls[1] == 0
        assert len(seen) == recording.fe_count == len(betas)
    """)


@fork_capable
def test_a_process_forked_from_the_owner_evaluates_alone(run_script):
    # A process forked from the owner closes its copies of the owner's
    # pipes and forks a worker of its own when it shares a batch; the owner's
    # worker stays in step.
    run_script("""
        objective = gp.DevianceObjective(design("goldstein-price", 20))
        want = objective.batch(BETAS)
        assert len(forks) == 1
        pid = fork()
        if pid == 0:
            alone = gp._Worker.live is None and objective.batch(BETAS) == want
            sys.exit(0 if alone and len(forks) == 2 and not no_child_left() else 1)
        assert os.waitpid(pid, 0)[1] == 0
        assert objective.batch(BETAS[::-1]) == want[::-1]
        assert len(forks) == 1
    """)


@fork_capable
def test_a_slow_tail_is_shared_and_matches_serial_calls(run_script):
    # The back half of the batch takes 2 ms more per beta in either process:
    # this process runs through the front half and meets the worker inside
    # the back half, so it evaluates more than half of the batch.  On x86 no
    # beta is evaluated in both processes.
    run_script("""
        slow = lambda beta: beta[0] > 0.0
        ds = design("goldstein-price", 20)
        objective, plain = gp.DevianceObjective(ds), gp.DevianceObjective(ds)
        want = [plain(beta) for beta in BETAS]
        calls[0] = 0
        got = objective.batch(BETAS)
        assert hexes(got) == hexes(want)
        assert objective.fe_count == plain.fe_count == len(BETAS)
        assert len(BETAS) // 2 < calls[0] < len(BETAS), calls.tolist()
        assert evaluated_once(len(BETAS)), calls.tolist()
    """)


@fork_capable
def test_a_worker_that_ignores_the_claims_counts_each_beta_once(run_script):
    # The worker sees no claim of this process and publishes none of its
    # own, so both evaluate the whole batch; each beta still counts once.
    run_script("""
        serve = gp._serve
        gp._serve = lambda requests, replies, claims: serve(requests, replies, [0, 0])
        receive, replies = gp._Worker.receive, []
        gp._Worker.receive = lambda self: replies.append(receive(self)) or replies[-1]
        ds = design("goldstein-price", 20)
        objective, plain = gp.DevianceObjective(ds), gp.DevianceObjective(ds)
        want = [plain(beta) for beta in BETAS + BETAS[::-1]]
        calls[0] = 0
        got = objective.batch(BETAS) + objective.batch(BETAS[::-1])
        assert hexes(got) == hexes(want)
        assert objective.fe_count == plain.fe_count == 2 * len(BETAS)
        assert calls.tolist() == [2 * len(BETAS)] * 2
        assert [len(values) for values in replies] == [len(BETAS)] * 2
    """)


@fork_capable
def test_a_worker_that_evaluates_nothing_leaves_every_beta_to_the_owner(run_script):
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
        gp._serve = lambda requests, replies, claims: serve(requests, replies, Greedy(claims))
        slow = lambda beta: os.getpid() == PARENT
        ds = design("goldstein-price", 20)
        objective, plain = gp.DevianceObjective(ds), gp.DevianceObjective(ds)
        want = [plain(beta) for beta in BETAS]
        calls[0] = 0
        got = objective.batch(BETAS)
        assert hexes(got) == hexes(want)
        assert objective.fe_count == plain.fe_count == calls[0] == len(BETAS)
        assert calls[1] == 0
        assert gp._Worker.live.claims[0] < len(BETAS) < gp._Worker.live.claims[1]
    """)


@fork_capable
def test_objectives_of_every_size_take_turns_on_one_worker(run_script):
    # Three objectives on one design and two on others take turns on batches
    # of 2 to 24 beta, beside a third process that spins, so that more
    # processes than cores contend: a claim lost or misread, or a worker that
    # kept an objective it should have replaced, shows as a wrong value, a
    # wrong order or a count off by one.  On x86 no beta is evaluated twice.
    run_script("""
        import signal
        spinner, deadline = fork(), time.monotonic() + 60.0
        if spinner == 0:
            while time.monotonic() < deadline:
                pass
            os._exit(0)
        rng = np.random.default_rng(5)
        ds = design("goldstein-price", 60)
        objectives = [gp.DevianceObjective(ds) for _ in range(3)]
        objectives += [gp.DevianceObjective(design("hump", 60)),
                       gp.DevianceObjective(design("goldstein-price", 60, seed=1))]
        plains = [gp.DevianceObjective(objective.design) for objective in objectives]
        total = 0
        for size in range(2, 25):
            for objective, plain in zip(objectives, plains):
                betas = list(rng.uniform(-2.0, 2.0, (size, objective.design.d)))
                want = [plain(beta) for beta in betas]
                calls[0] = calls[1] = 0
                assert hexes(objective.batch(betas)) == hexes(want)
                assert evaluated_once(size), (size, calls.tolist())
                total += size
        assert [o.fe_count for o in objectives] == [p.fe_count for p in plains]
        assert sum(objective.fe_count for objective in objectives) == total
        assert len(forks) == 1
        os.kill(spinner, signal.SIGKILL)
        os.waitpid(spinner, 0)
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
