"""Jobs shared with the process's forked worker: batches of deviance
evaluations, `predict_many` blocks and the CLI's CSV rows.

The worker is forked only in a process that runs one OS thread.
An unpinned BLAS keeps a pool of threads, so every fork test runs its own
interpreter with BLAS at one thread (conftest's `run_script`, whose PRELUDE
defines the names the scripts use).
"""

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpdevopt import DesignSet, SearchBox, cli, gp, lhd_maximin
from gpdevopt.optreport import BudgetExhausted, CountedObjective
from gpdevopt.testbed import test_function as make_test_function

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
    # calls one at a time would have.  All fits share one worker.  Last, this
    # process takes 2 ms more per FE, so that the worker surely runs whole
    # starts.
    out = run_script("""
        hold = memoryview(mmap.mmap(-1, 8)).cast("q")
        slow = lambda beta: hold[0] and os.getpid() == PARENT
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
        for name, n, strategy in (("goldstein-price", 60, "MS-BFGS-2d1"),
                                  ("goldstein-price", 60, "MS-IF-2d1"), ("schwefel", 20, "IF2")):
            ds = design(name, n)
            plain = gp.DevianceObjective(ds)
            want = run_strategy(lambda beta: plain(beta), strategy, ds.d, np.random.default_rng(1))
            objective, singles[1], hold[0] = gp.DevianceObjective(ds), 0, 1
            got = run_strategy(objective, strategy, ds.d, np.random.default_rng(1))
            hold[0] = 0
            key = (name, n, strategy)
            assert got.fe_used == want.fe_used == objective.fe_count, key
            assert got.beta_star.tobytes() == want.beta_star.tobytes(), key
            assert got.value.hex() == want.value.hex(), key
            assert singles[1] > 0, key
        assert len(forks) == 1 and calls[1] > 0, (forks, calls[1])
        print("ok")
    """)
    assert out.split() == ["ok"]


@fork_capable
def test_a_multistart_fit_keeps_each_run_in_one_process_and_forks_once(run_script):
    # On Goldstein-Price n=60 every gradient and stencil batch of a run holds
    # enough work to share, yet a run's batches stay in the process that runs
    # it: the worker forks no worker of its own, and this process sends none
    # to a worker busy with a run.  `forked` counts forks in both processes.
    # This process takes 2 ms more per FE, so that the worker runs starts.
    run_script("""
        forked = memoryview(mmap.mmap(-1, 8)).cast("q")
        def fork_counted():
            forked[0] += 1
            return counting_fork()
        os.fork = fork_counted
        slow = lambda beta: os.getpid() == PARENT
        ds = design("goldstein-price", 60)
        assert 2 * ds.d * ds.n >= _worker._SHARE_MIN_WORK
        for strategy in ("MS-BFGS-2d1", "MS-IF-2d1"):
            calls[0] = calls[1] = singles[1] = 0
            model = fit(ds, strategy, rng=2)
            assert evaluated_once(model.fe_count), (strategy, calls.tolist(), model.fe_count)
            assert singles[1] > 0, strategy
        assert forked[0] == len(forks) == 1, (forked[0], forks)
    """)


@fork_capable
def test_a_worker_killed_mid_run_leaves_its_starts_to_the_owner(run_script):
    # The worker dies inside its first local run: this process evaluates
    # every start without a report, with the bits and count of a serial run,
    # and its remaining batches fork a fresh worker.
    run_script("""
        import signal
        MAX_FORKS = 2
        killed = memoryview(mmap.mmap(-1, 8)).cast("q")
        def slow(beta):
            if os.getpid() != PARENT and singles[1] >= 3 and not killed[0]:
                killed[0] = 1
                os.kill(os.getpid(), signal.SIGKILL)
            return False
        ds = design("goldstein-price", 60)
        plain = gp.DevianceObjective(ds)
        want = run_strategy(lambda beta: plain(beta), "MS-BFGS-2d1", 2, np.random.default_rng(1))
        assert not forks
        for _ in range(2):
            got = fit(ds, "MS-BFGS-2d1", rng=1)
            assert got.fe_count == want.fe_used and got.deviance.hex() == want.value.hex()
            assert got.beta_star.tobytes() == want.beta_star.tobytes()
        assert killed[0] == 1 and len(forks) == 2
    """)


@fork_capable
def test_runs_of_a_subclass_or_a_patched_optimizer_stay_in_this_process(run_script):
    # The worker would run neither a subclass's overrides nor a patched
    # optimizer, so every start of such a fit runs here.
    run_script("""
        from gpdevopt import global_search
        ds = design("goldstein-price", 60)
        class Recording(gp.DevianceObjective):
            pass
        objective = Recording(ds)
        report = run_strategy(objective, "MS-BFGS-2d1", 2, np.random.default_rng(1))
        assert report.fe_used == objective.fe_count == calls[0] and calls[1] == 0
        starts, bfgs = [], global_search.bfgs_minimize
        def recording(objective, start):
            starts.append(os.getpid())
            return bfgs(objective, start)
        global_search.bfgs_minimize = recording
        objective = gp.DevianceObjective(ds)
        report = run_strategy(objective, "MS-BFGS-2d1", 2, np.random.default_rng(1))
        assert report.fe_used == objective.fe_count and starts == [PARENT] * 5, starts
    """)


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
        assert len(betas) * 10 < _worker._SHARE_MIN_WORK <= len(betas) * 20
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
def test_a_shared_job_of_fewer_than_two_items_forks_nothing(run_script):
    # A job of no item or of one stays in this process, whoever calls it:
    # there is nothing to split between two processes.
    run_script("""
        job = str
        assert _worker.run(0, job, share=True) == []
        assert _worker.run(1, job, share=True) == [job(0)]
        assert not forks and _worker._Worker.live is None
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
            alone = _worker._Worker.live is None and objective.batch(BETAS) == want
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
        serve = _worker._serve
        _worker._serve = lambda requests, replies, claims: serve(requests, replies, [0, 0])
        receive, replies = _worker._Worker.receive, []
        _worker._Worker.receive = lambda self: replies.append(receive(self)) or replies[-1]
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
        serve = _worker._serve
        _worker._serve = lambda requests, replies, claims: serve(requests, replies, Greedy(claims))
        slow = lambda beta: os.getpid() == PARENT
        ds = design("goldstein-price", 20)
        objective, plain = gp.DevianceObjective(ds), gp.DevianceObjective(ds)
        want = [plain(beta) for beta in BETAS]
        calls[0] = 0
        got = objective.batch(BETAS)
        assert hexes(got) == hexes(want)
        assert objective.fe_count == plain.fe_count == calls[0] == len(BETAS)
        assert calls[1] == 0
        assert _worker._Worker.live.claims[0] < len(BETAS) < _worker._Worker.live.claims[1]
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


@fork_capable
def test_a_worker_killed_between_fits_is_forked_anew(run_script):
    # SIGKILL, as an out-of-memory killer sends it, leaves the next request
    # a broken pipe: that batch is evaluated here and the next shared batch
    # forks a fresh worker.  The fit's bits and count are those of the first.
    run_script("""
        import signal
        MAX_FORKS = 2
        ds = design("goldstein-price", 20)
        want = fit(ds, "DIRECT-BFGS", rng=3)
        os.kill(forks[0], signal.SIGKILL)
        calls[1] = 0
        got = fit(ds, "DIRECT-BFGS", rng=3)
        assert got.deviance.hex() == want.deviance.hex() and got.fe_count == want.fe_count
        assert got.beta_star.tobytes() == want.beta_star.tobytes()
        assert len(forks) == 2 and calls[1] > 0 and not no_child_left()
    """)


@fork_capable
def test_a_worker_killed_mid_batch_leaves_its_share_to_the_owner(run_script):
    # The worker dies at its third beta, which it has claimed: this process
    # reads end of file, stops the worker and evaluates every beta it holds
    # no value for.  The next shared batch forks a fresh worker.
    run_script("""
        import signal
        MAX_FORKS = 2
        def slow(beta):
            if os.getpid() != PARENT and calls[1] == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return True
        ds = design("goldstein-price", 20)
        objective, plain = gp.DevianceObjective(ds), gp.DevianceObjective(ds)
        want = [plain(beta) for beta in BETAS]
        calls[0] = 0
        assert hexes(objective.batch(BETAS)) == hexes(want)
        assert objective.fe_count == len(BETAS) and calls[1] == 3
        assert calls[0] == len(BETAS) and _worker._Worker.live is None and no_child_left()
        slow = lambda beta: os.getpid() == PARENT
        assert hexes(objective.batch(BETAS)) == hexes(want) and objective.fe_count == 32
        assert len(forks) == 2 and calls[1] > 3
    """)


@fork_capable
def test_a_worker_reaped_by_its_owner_is_stopped_quietly(run_script):
    # A process that reaps its children reaps a killed worker before gpdevopt
    # can: the pipe is broken and the pid is gone, and the next fit runs.
    run_script("""
        import signal
        MAX_FORKS = 2
        ds = design("goldstein-price", 40)
        want = fit(ds, "MS-BFGS-2d1", rng=3)
        os.kill(forks[0], signal.SIGKILL)
        assert os.waitpid(-1, 0)[0] == forks[0]
        got = fit(ds, "MS-BFGS-2d1", rng=3)
        assert got.deviance.hex() == want.deviance.hex() and got.fe_count == want.fe_count
        assert len(forks) == 2 and not no_child_left()
    """)


@fork_capable
def test_an_os_error_raised_by_an_item_here_reaches_the_caller_and_leaves_no_child(run_script):
    # An OSError from an item takes the lost-worker path: the worker is
    # stopped and this process evaluates the item a second time, which
    # raises it to the caller.  The worker's first beta waits until this
    # process has made its first call, so this process always evaluates
    # BETAS[0].  The next shared batch forks a fresh worker.
    out = run_script("""
        MAX_FORKS = 2
        raised = []
        def failing(beta):
            if os.getpid() != PARENT:
                while calls[0] == 0:
                    pass
            elif np.array_equal(beta, BETAS[0]):
                raised.append(beta)
                raise OSError("raised here")
            return False
        slow = failing
        objective = gp.DevianceObjective(design("goldstein-price", 20))
        try:
            objective.batch(BETAS)
        except OSError as exc:
            print(exc, len(raised))
        assert _worker._Worker.live is None and no_child_left()
        slow = lambda beta: False
        want = [gp.DevianceObjective(objective.design)(beta) for beta in BETAS]
        assert objective.batch(BETAS) == want and len(forks) == 2
    """)
    assert out.split() == ["raised", "here", "2"]


@fork_capable
def test_sigint_during_a_shared_predict_raises_and_leaves_no_child(run_script):
    # The worker ignores SIGINT; this process raises KeyboardInterrupt from
    # its own block and stops the worker on the way out.
    out = run_script("""
        import signal
        MAX_FORKS = 2
        model = fit(design("goldstein-price", 20), "DIRECT-BFGS", rng=3)
        points = np.random.default_rng(0).uniform(0.0, 1.0, (_worker._SHARE_MIN_ROWS, 2))
        want = gp.predict_many(model, points)
        block = gp._Blocks.__call__
        def interrupted(self, k):
            if os.getpid() == PARENT and k == 0:
                os.kill(forks[0], signal.SIGINT)
                os.kill(PARENT, signal.SIGINT)
            return block(self, k)
        gp._Blocks.__call__ = interrupted
        try:
            gp.predict_many(model, points)
        except KeyboardInterrupt:
            print("interrupted")
        assert _worker._Worker.live is None and no_child_left()
        gp._Blocks.__call__ = block
        got = gp.predict_many(model, points)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        assert len(forks) == 2
    """)
    assert out.split() == ["interrupted"]


@fork_capable
def test_shared_predictions_match_the_serial_path_byte_for_byte(run_script):
    # Every call is shared, whatever its size, and this process takes 5 ms
    # more per block so that the worker takes part; the serial reference runs
    # with sharing off by rows and by work.  Points and designs are C- and
    # F-ordered.
    run_script("""
        blocks = memoryview(mmap.mmap(-1, 16)).cast("q")
        block = gp._Blocks.__call__
        def counted_block(self, k):
            blocks[os.getpid() != PARENT] += 1
            if os.getpid() == PARENT:
                time.sleep(0.005)
            return block(self, k)
        gp._Blocks.__call__ = counted_block
        B = gp.PREDICT_BLOCK
        ds = design("goldstein-price", 40)
        beta = fit(ds, "DIRECT-BFGS", rng=3).beta_star
        rng = np.random.default_rng(2)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            model = gp.DevianceObjective(DesignSet(layout(ds.points), ds.outputs)).model(beta)
            for m in (2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 1, 10201):
                points = rng.uniform(0.0, 1.0, (m, 2))
                _worker._SHARE_MIN_ROWS = _worker._SHARE_MIN_PREDICT_WORK = 1 << 62
                want = gp.predict_many(model, points)
                _worker._SHARE_MIN_ROWS = 0
                for laid in (np.ascontiguousarray(points), np.asfortranarray(points)):
                    worker_blocks = blocks[1]
                    got = gp.predict_many(model, laid)
                    assert [a.tobytes() for a in got] == [b.tobytes() for b in want], m
                    assert m < 2 * B or blocks[1] > worker_blocks, (m, blocks.tolist())
        assert len(forks) == 1
    """)


@fork_capable
def test_the_prediction_rule_shares_a_perm_sized_call_once_a_worker_is_live(run_script):
    # By the rule alone: a Perm-sized call (n=120, d=12, 1,200 points in four
    # blocks, 3 x 304 + 288) and a Rastrigin-sized one (n=100, d=10, 1,000
    # points in two, 504 + 496) run in one process while no worker is live,
    # and once a batch has forked one the worker takes blocks of each, with
    # the same bytes.  Both processes take 0.2 ms per point after each block,
    # so they go at one pace: each computes 600 +- 8 of Perm's points (512
    # against 688 in three blocks of 512, 512 and 176).  lowd-all's one-block
    # calls (100-200 points) and a two-block call of little work (hump n=10,
    # 1,024 points) never reach the worker.
    run_script("""
        points = memoryview(mmap.mmap(-1, 16)).cast("q")
        block = gp._Blocks.__call__
        def paced_block(self, k):
            y_hat, mse = block(self, k)
            points[os.getpid() != PARENT] += len(y_hat)
            time.sleep(2e-4 * len(y_hat))
            return y_hat, mse
        gp._Blocks.__call__ = paced_block
        rng = np.random.default_rng(3)
        shapes = []
        for name, n, m in (("perm12", 120, 1200), ("rastrigin10", 100, 1000)):
            ds = design(name, n)
            model = gp.DevianceObjective(ds).model(np.full(ds.d, -0.3))
            x = rng.uniform(0.0, 1.0, (m, ds.d))
            shapes.append((model, x, gp.predict_many(model, x)))
        assert not forks and points.tolist() == [2200, 0], points.tolist()
        gp.DevianceObjective(design("goldstein-price", 20)).batch(BETAS)
        for model, x, want in shapes:
            before = points.tolist()
            got = gp.predict_many(model, x)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
            shares = [after - b for after, b in zip(points.tolist(), before)]
            assert sum(shares) == len(x) and shares[1] > 0, shares
            assert len(x) != 1200 or max(abs(share - 600) for share in shares) <= 8, shares
        assert len(forks) == 1
        taken = points[1]
        for name, n, m in (("hump", 10, 100), ("goldstein-price", 20, 200), ("hump", 10, 1024)):
            ds = design(name, n)
            small = gp.DevianceObjective(ds).model(np.full(ds.d, 0.3))
            gp.predict_many(small, rng.uniform(0.0, 1.0, (m, ds.d)))
        assert points[1] == taken, points.tolist()
    """)


@fork_capable
def test_shared_csv_rows_match_the_serial_path_byte_for_byte(run_script, tmp_path):
    # `gpdevopt predict` shares its predictions and its CSV rows from
    # `_SHARE_MIN_ROWS` points up: --out and stdout must hold the bytes of
    # the serial path (sharing off by rows and by work), and of a process
    # with BLAS unpinned, which forks no worker.
    data, model, points = tmp_path / "train.csv", tmp_path / "model.json", tmp_path / "pts.csv"
    rng = np.random.default_rng(4)
    x = rng.uniform(-3.0, 3.0, (30, 2))
    y = np.sin(x[:, 0]) * x[:, 1] ** 3
    rows = np.column_stack([x, y]).tolist()
    data.write_text("x1,x2,y\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
    assert cli.main(["fit", "--data", str(data), "--out", str(model)]) == 0
    grid = rng.uniform(-2.5, 2.5, (5000, 2))
    points.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in grid.tolist()))
    argv = ["predict", "--model", str(model), "--points", str(points)]
    out = run_script(f"""
        import contextlib, io
        argv = {argv!r}
        assert cli.main(argv + ["--out", {str(tmp_path / "shared.csv")!r}]) == 0
        assert len(forks) == 1
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert cli.main(argv) == 0
        _worker._SHARE_MIN_ROWS = _worker._SHARE_MIN_PREDICT_WORK = 1 << 62
        assert cli.main(argv + ["--out", {str(tmp_path / "serial.csv")!r}]) == 0
        print(printed.getvalue(), end="")
    """)
    env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    unpinned = subprocess.run(
        [sys.executable, "-m", "gpdevopt.cli", *argv], env=env, capture_output=True, timeout=120
    )
    assert unpinned.returncode == 0, unpinned.stderr
    serial = (tmp_path / "serial.csv").read_bytes()
    assert len(serial.splitlines()) == 5001
    assert (tmp_path / "shared.csv").read_bytes() == serial
    assert out.encode() == serial and unpinned.stdout == serial


@fork_capable
def test_a_shared_deviance_surface_matches_single_calls(run_script, tmp_path):
    # `gpdevopt surface --what deviance` evaluates its grid as one batch,
    # which the worker shares: the L column holds the bits of single calls.
    out = tmp_path / "surface.csv"
    run_script(f"""
        import csv
        assert cli.main(["surface", "--function", "goldstein-price", "--grid", "25",
                         "--out", {str(out)!r}]) == 0
        assert len(forks) == 1 and calls[1] > 0
        with open({str(out)!r}, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        import argparse
        ds = cli._surface_design(argparse.Namespace(data=None, function="goldstein-price", seed=0))
        plain = gp.DevianceObjective(ds)
        assert len(rows) == 625
        for *beta, value in rows:
            assert value == repr(plain(np.array([float(b) for b in beta]))), beta
    """)


@fork_capable
def test_a_shared_batch_of_integer_beta_matches_single_calls(run_script):
    # Integer beta go to the worker as float64: read as raw bytes, int64
    # beta would give the worker other values.  This process takes 2 ms per
    # beta, so the worker evaluates most of the batch.
    run_script("""
        ds = design("goldstein-price", 60)
        objective, plain = gp.DevianceObjective(ds), gp.DevianceObjective(ds)
        betas = [np.array([k % 5 - 2, k // 5 % 5 - 2]) for k in range(400)]
        want = [plain(beta) for beta in betas]
        slow = lambda beta: os.getpid() == PARENT
        calls[0] = calls[1] = 0
        assert hexes(objective.batch(betas)) == hexes(want)
        assert objective.fe_count == len(betas) and calls[1] > 0
        assert evaluated_once(len(betas)), calls.tolist()
    """)


@fork_capable
def test_a_batch_with_a_beta_of_the_wrong_length_raises_as_a_single_call_does(run_script):
    # A beta of length 3 on a 2-D design keeps the batch in this process,
    # where its call raises; the worker, forked at the next shared batch,
    # stays in step.
    out = run_script("""
        ds = design("goldstein-price", 60)
        objective, plain = gp.DevianceObjective(ds), gp.DevianceObjective(ds)
        betas = [np.array([b, -b / 2]) for b in np.linspace(-2.0, 2.0, 399)]
        try:
            plain(np.zeros(3))
        except ValueError as exc:
            print(exc)
        try:
            objective.batch(betas + [np.zeros(3)])
        except ValueError as exc:
            print(exc)
        assert not forks and objective.fe_count == len(betas) + 1
        assert hexes(objective.batch(betas)) == hexes([plain(beta) for beta in betas])
        assert len(forks) == 1 and calls[1] > 0
    """)
    assert out.splitlines() == ["beta must have length 2, got (3,)"] * 2


@fork_capable
def test_a_shared_predict_between_two_batches_replaces_the_objective_in_the_worker(run_script):
    # The worker keeps the last job it received: a second batch of one
    # objective pickles nothing, a shared predict replaces the objective, and
    # the next batch pickles it again.  Every value is that of single calls.
    run_script("""
        pickled, reduce = [], gp.DevianceObjective.__reduce__
        def counted_reduce(self):
            pickled.append(self)
            return reduce(self)
        gp.DevianceObjective.__reduce__ = counted_reduce
        ds = design("goldstein-price", 20)
        objective, plain = gp.DevianceObjective(ds), gp.DevianceObjective(ds)
        want = [plain(beta) for beta in BETAS]
        model = plain.model(np.array([0.5, 0.2]))
        points = np.random.default_rng(0).uniform(0.0, 1.0, (_worker._SHARE_MIN_ROWS, 2))
        limit, _worker._SHARE_MIN_ROWS = _worker._SHARE_MIN_ROWS, 1 << 62
        serial = gp.predict_many(model, points)
        _worker._SHARE_MIN_ROWS = limit
        slow = lambda beta: os.getpid() == PARENT  # the worker takes part in each batch
        def shared_batch(sent):
            calls[0] = calls[1] = 0
            assert hexes(objective.batch(BETAS)) == hexes(want)
            assert evaluated_once(len(BETAS)) and calls[1] > 0, calls.tolist()
            assert pickled == [objective] * sent, len(pickled)
        shared_batch(1)
        shared_batch(1)
        got = gp.predict_many(model, points)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in serial]
        shared_batch(2)
        shared_batch(2)
        assert objective.fe_count == 4 * len(BETAS) and len(forks) == 1
    """)


@pytest.mark.parametrize("layout", ["C", "F", "strided", "F-strided"])
def test_a_pickled_objective_starts_at_count_zero_with_its_points_in_axis_order(layout):
    # The worker's copy of an objective: its design's points keep their axis
    # order (at n = 100 a C-ordered copy of F-ordered points moves the bits),
    # and its count and anchors stay behind.
    fn = make_test_function("goldstein-price")
    points = lhd_maximin(100, SearchBox(np.zeros(2), np.ones(2)), np.random.default_rng(0))
    wide = np.repeat(points, 2, axis=1)
    laid = {"C": np.ascontiguousarray(points), "F": np.asfortranarray(points),
            "strided": wide[:, ::2], "F-strided": np.asfortranarray(wide)[:, ::2]}[layout]
    objective = gp.DevianceObjective(DesignSet(laid, fn.evaluate(points)))
    betas = list(np.random.default_rng(1).uniform(-3.0, 3.0, (60, 2)))
    want = [objective(beta).hex() for beta in betas]
    clone = pickle.loads(pickle.dumps(objective))
    assert objective.fe_count == len(betas) and clone.fe_count == 0
    copied = laid.copy(order="K")
    for array in (clone.design.points, copied):
        assert array.flags.c_contiguous == (layout in ("C", "strided"))
        assert array.flags.f_contiguous == (layout in ("F", "F-strided"))
    assert clone.design.points.strides == copied.strides
    assert clone.design.points.tobytes(order="A") == copied.tobytes(order="A")
    assert clone.design.outputs.tobytes() == objective.design.outputs.tobytes()
    assert [clone(beta).hex() for beta in betas] == want
    assert clone.fe_count == len(betas)


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
    # This holds for an objective with a `batch` and for a plain callable.
    for sequence in ([3.0, 1.0, math.nan, 1.0, 0.5, math.inf],
                     [math.nan, math.nan, 2.0, math.nan, 2.0, 0.5]):
        values = dict(enumerate(sequence))
        points = [np.array([float(k)]) for k in values]
        fn = _Batching(lambda x: values[int(x[0])])
        single = CountedObjective(fn.fn, max_fe)
        want = []
        for point in points:
            try:
                want.append(single(point))
            except BudgetExhausted:
                break
        seen = [(value, k) for k, value in enumerate(want) if not math.isnan(value)]
        best_value, best_k = min(seen) if seen else (math.nan, 0)
        for objective in (fn, fn.fn):
            batched, got, cut = CountedObjective(objective, max_fe), [], False
            try:
                for part in (points[:3], points[3:]):
                    got += batched.batch(part)
            except BudgetExhausted:
                cut = True
            assert cut == (len(want) < len(points))
            assert np.array_equal(got, want[: len(got)], equal_nan=True)
            assert batched.count == single.count == len(want)
            assert batched.best_value.hex() == single.best_value.hex() == best_value.hex()
            assert batched.best_point.tobytes() == single.best_point.tobytes()
            assert batched.best_point.tobytes() == points[best_k].tobytes()
        assert np.array_equal(sum(fn.batches, []), want, equal_nan=True)
