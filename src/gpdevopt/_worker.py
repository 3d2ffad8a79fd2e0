"""The process's worker: a forked second process that takes the back of jobs
of independent items, whose results do not depend on the process."""

from __future__ import annotations

import atexit
import contextlib
import mmap
import os
import pickle
import signal
import threading
import weakref

import numpy as np

# Work, in beta times design points, from which `DevianceObjective.batch`
# shares a batch with the process's worker; a smaller batch saves about what
# a pipe round trip costs.  Fits of hump n=10 and Goldstein-Price n=20 (seeds
# 0-2, all seven strategies) ran at 1.25-1.26 times the serial FE rate for
# values from 40 to 320, 1.24 when every batch was shared and 1.22 at 640
# (best of 3, BLAS at one thread, 2-core VM).
_SHARE_MIN_WORK = 160

# Rows from which `predict_many` shares its points and the CLI the CSV lines
# of a float table.  A new `gpdevopt predict` process, which forks the worker
# at its first shared call, predicted 1,024, 2,048, 3,072 and 4,096 points of
# a 1-D model of 2 design points in 4.0, 6.0, 8.0 and 10.0 ms serial and 5.9,
# 7.2, 8.8 and 10.3 ms shared; at 2-D and n=10 it broke even at 3,072 (median
# of 9 processes, reading and writing included, BLAS at one thread, 2 cores).
_SHARE_MIN_ROWS = 4096

# Request kinds: beta for the objective the worker holds, for a new one, or a job.
_SAME, _NEW, _JOB = 0, 1, 2


def run(count: int, item, job=None) -> list:
    """[item(k) for k in range(count)]: this process evaluates items from the
    front and the worker from the back, each up to the other's claim
    (`_claim`), and this process then evaluates what the reply leaves.

    `job` tells the worker how to evaluate an item: a (DevianceObjective,
    betas) pair, whose item k is the counted value at betas[k], or a
    picklable callable that the worker calls as `item` is called here.
    Without a job, or where `_live` finds no worker, every item is evaluated
    here.  An exception raised in the worker reaches the caller.  A worker
    lost on the way (end of file or an error on its pipes) is stopped, and
    this process evaluates whatever has no value; the next job forks anew.
    """
    worker = None if job is None else _live()
    if worker is None:
        return [item(k) for k in range(count)]
    values = []
    try:
        worker.send(count, job)
        while len(values) + _claim(worker.claims, 0, len(values)) < count:
            values.append(item(len(values)))
        tail = worker.receive()
        if isinstance(tail, BaseException):
            raise tail
    except (EOFError, OSError):
        # Lost, or an item raised one here or in the worker, which it raises
        # again below: what a dead worker claimed counts as unevaluated.
        _Worker.stop()
        tail = []
    except BaseException:
        # The pipes may be out of step: the next shared job forks afresh.
        _Worker.stop()
        raise
    head = count - len(tail)
    return values[:head] + [item(k) for k in range(len(values), head)] + tail


def _live() -> _Worker | None:
    """The process's worker, forked at the first call on Linux with two cores
    and one thread (a BLAS pool holds the cores, and fork copies no thread);
    None beside another Python thread or where no worker can be forked."""
    if threading.active_count() != 1:
        return None
    # /proc/self/task lists this process's threads, on Linux only.
    if _Worker.live is None and os.path.isdir("/proc/self/task") and (
        len(os.listdir("/proc/self/task")) == 1 and len(os.sched_getaffinity(0)) >= 2
    ):
        with contextlib.suppress(OSError):  # no process to spare: evaluate here
            _Worker.live = _Worker()
    return _Worker.live


def _read(stream, size: int) -> bytes:
    data = stream.read(size)
    if len(data) < size:
        raise EOFError("the worker's pipe closed")
    return data


# The acquire keeps `_claim`'s read from passing its write where it is a full
# fence (x86); elsewhere both sides may evaluate one item, to the same value.
_FENCE = threading.Lock()


def _claim(claims, side: int, k: int) -> int:
    """Claim item k from this side's end, then read the other side's claim."""
    claims[side] = k + 1
    with _FENCE:
        return claims[1 - side]


class _Worker:
    """The process's worker, with a pipe each way and the two sides' claims
    in shared memory.  A request is m and its kind as float64, then the
    pickled job, or, for a new objective, its pickled points, outputs and
    options, and then m beta as float64.  The reply is the length of a pickle
    and the pickle: the results of the last k items in order, or the
    exception that one raised.  The worker ignores SIGINT and exits at end of
    file on its requests, unless `stop` kills it first: after an error, or at
    exit.
    """

    live: _Worker | None = None

    def __init__(self):
        self.claims = memoryview(mmap.mmap(-1, 16)).cast("q")
        requests, to_worker = os.pipe()
        from_worker, replies = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (requests, to_worker, from_worker, replies):
                os.close(fd)
            raise
        if pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(to_worker)
                os.close(from_worker)
                _serve(open(requests, "rb"), open(replies, "wb"), self.claims)
            finally:
                os._exit(0)
        os.close(requests)
        os.close(replies)
        self._requests, self._replies = open(to_worker, "wb"), open(from_worker, "rb")
        self._owner, self._pid, self._serving = os.getpid(), pid, lambda: None

    def send(self, count: int, job) -> None:
        """Request a job; OSError if the worker is gone."""
        # The worker is idle between a reply and the next request.
        self.claims[0] = self.claims[1] = 0
        objective, betas = job if isinstance(job, tuple) else (None, None)
        kind = _JOB if objective is None else _SAME if self._serving() is objective else _NEW
        self._requests.write(np.array([count, kind], dtype=float).tobytes())
        if kind == _NEW:
            # Pickle keeps C or F order: the copy keeps the points' axis
            # order, which sets the kernel's bits.
            points = objective.design.points.copy(order="K")
            pickle.dump((points, objective.design.outputs, objective.options), self._requests)
            self._serving = weakref.ref(objective)
        self._requests.write(pickle.dumps(job) if kind == _JOB else np.concatenate(betas))
        self._requests.flush()

    def receive(self) -> list | BaseException:
        """The reply; EOFError or OSError if the worker is gone."""
        size = int.from_bytes(_read(self._replies, 8), "little")
        return pickle.loads(_read(self._replies, size))

    @classmethod
    def stop(cls) -> None:
        """Forget the live worker; kill and reap it if this process forked it
        and no one else has reaped it."""
        worker, cls.live = cls.live, None
        if worker is None:
            return
        if os.getpid() == worker._owner:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(worker._pid, signal.SIGKILL)
                os.waitpid(worker._pid, 0)
        for stream in (worker._requests, worker._replies):
            with contextlib.suppress(OSError):  # the rest of a request cut short
                stream.close()


atexit.register(_Worker.stop)
# A forked process leaves the worker to see end of file when this one exits.
os.register_at_fork(after_in_child=_Worker.stop)


def _serve(requests, replies, claims) -> None:
    from .gp import DesignSet, DevianceObjective  # gp imports this module

    while True:
        count, kind = np.frombuffer(_read(requests, 16)).astype(int).tolist()
        if kind == _JOB:
            item = pickle.load(requests)
        else:
            if kind == _NEW:
                points, outputs, options = pickle.load(requests)
                objective = DevianceObjective(DesignSet(points, outputs), options)
            betas = np.frombuffer(_read(requests, 8 * count * objective.design.d))
            betas = betas.reshape(count, -1)
            item = lambda k: objective(betas[k])  # noqa: E731
        values = []
        try:
            while len(values) + _claim(claims, 1, len(values)) < count:
                values.append(item(count - 1 - len(values)))
            reply = pickle.dumps(values[::-1])
        except Exception as exc:
            reply = pickle.dumps(exc)
        replies.write(len(reply).to_bytes(8, "little") + reply)
        replies.flush()
