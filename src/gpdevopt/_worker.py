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

# Work, in points times design points times (d + 4), from which a call of
# `predict_many` of two or more blocks is shared with a worker already live;
# its serial time is about 4-6 ns per unit.  With a warm worker, 1,024-4,096
# points at n = 10, 40, 100 and 120 and d = 1, 2 and 12 ran at 0.55-0.80
# times their serial time from 0.8 million units up (23 of 25 shapes; a 12-D
# model of 120 points, 1,200 points: 14.3 against 9.7 ms), at 0.73-1.30 from
# 0.6 to 0.8 million, and 10 of 16 at 0.95 or more below (median of 9 or 31
# interleaved calls, BLAS at one thread, 2 cores).  The fork costs 5 ms or
# more: below 4,096 points a first shared call gained on 1 of 36 shapes.
# Every call of 514 points or more has an even count of near-equal blocks, so
# highd-direct's 1,000 Rastrigin points (n = 100, 1.4 million units, two
# blocks) are shared as well as its 1,200 Perm points (n = 120, 2.3 million,
# four), each process taking about half; lowd-all's calls are one block.
_SHARE_MIN_PREDICT_WORK = 800_000


def run(count: int, job, args=None, share: bool = True) -> list:
    """[job(k) for k in range(count)], or [job(args[k]) ...] given args: this
    process evaluates items from the front and, where `share` holds and
    `_live` finds a worker, the worker from the back, each up to the other's
    claim (`_claim`); this process then evaluates what the reply leaves.
    A job's own jobs, such as the batches of a local run, are evaluated in
    the process that runs it: the worker is busy until its reply.

    `job` is a picklable callable that takes weak references, and `args`
    count vectors of one length w, sent as one (count, w) float64 array.  The
    worker keeps the last job it received, so the same job again costs only
    a header and its args.  An exception raised in the worker reaches the
    caller.  A worker lost on the way (end of file or an error on its pipes)
    is stopped, and this process evaluates whatever has no value; the next
    shared job forks anew.
    """
    item = job if args is None else lambda k: job(args[k])
    worker = _live() if share else None
    if worker is None:
        return [item(k) for k in range(count)]
    values = []
    try:
        _Worker.busy = True
        worker.send(count, job, args)
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
    finally:
        _Worker.busy = False
    head = count - len(tail)
    return values[:head] + [item(k) for k in range(len(values), head)] + tail


def _live() -> _Worker | None:
    """The process's worker, forked at the first call on Linux with two cores
    and one thread (a BLAS pool holds the cores, and fork copies no thread);
    None while a job is shared, beside another Python thread or where no
    worker can be forked."""
    if _Worker.busy or threading.active_count() != 1:
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
    in shared memory.  A request is three int64, the item count m, whether a
    pickled job follows and the width w of its args; then that job, unless
    the worker holds it from an earlier request, and m*w float64 args.  The
    reply is the length of a pickle and the pickle: the results of the last k
    items in order, or the exception that one raised.  The worker ignores
    SIGINT and exits at end of file on its requests, unless `stop` kills it
    first: after an error, or at exit.  `busy` holds while this process
    shares a job, and always in the worker, which shares none.
    """

    live: _Worker | None = None
    busy = False

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
                _Worker.busy = True
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(to_worker)
                os.close(from_worker)
                _serve(open(requests, "rb"), open(replies, "wb"), self.claims)
            finally:
                os._exit(0)
        os.close(requests)
        os.close(replies)
        self._requests, self._replies = open(to_worker, "wb"), open(from_worker, "rb")
        self._owner, self._pid, self._job = os.getpid(), pid, lambda: None

    def send(self, count: int, job, args) -> None:
        """Request a job; OSError if the worker is gone."""
        # The worker is idle between a reply and the next request.
        self.claims[0] = self.claims[1] = 0
        args = np.empty((count, 0)) if args is None else np.array(args, dtype=float)
        new = self._job() is not job
        self._requests.write(np.array([count, new, args.shape[1]], dtype=np.int64).tobytes())
        if new:
            pickle.dump(job, self._requests)
            self._job = weakref.ref(job)
        self._requests.write(args.tobytes())
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
    while True:
        count, new, width = np.frombuffer(_read(requests, 24), dtype=np.int64).tolist()
        if new:
            job = pickle.load(requests)
        args = np.frombuffer(_read(requests, 8 * count * width)).reshape(count, width)
        item = job if width == 0 else lambda k: job(args[k])
        values = []
        try:
            while len(values) + _claim(claims, 1, len(values)) < count:
                values.append(item(count - 1 - len(values)))
            reply = pickle.dumps(values[::-1])
        except Exception as exc:
            reply = pickle.dumps(exc)
        replies.write(len(reply).to_bytes(8, "little") + reply)
        replies.flush()
