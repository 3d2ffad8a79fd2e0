import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from gpdevopt import gp

SRC = Path(__file__).resolve().parents[1] / "src"


class _CallCounter:
    """Wraps owner.name so that `calls` counts its calls; the original still runs."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) -> a counter of the calls to owner.name,
    undone when the test ends."""
    return lambda owner, name: _CallCounter(monkeypatch, owner, name)


@pytest.fixture(autouse=True)
def own_worker():
    """Each test forks its own FE worker, if any, from the code it patched."""
    gp._Worker.stop()
    yield
    gp._Worker.stop()


# Each script starts with a check, run at exit after gpdevopt has stopped its
# worker, that no child is left and that the script forked at most MAX_FORKS
# workers (`fork` is the uncounted original, for a script's own children).
# `calls` counts the calls of DevianceObjective.__call__ in the script's
# process ([0]) and in its worker ([1]) in shared memory; a call sleeps 2 ms
# in either process on the beta that `slow` picks.  Both are set up before
# the first fork, and a script that changes `slow` does so before it too.
# CAN_FORK says whether a worker can be forked at all, and
# `evaluated_once(count)` holds when the two made `count` calls in all: the
# claims keep both from evaluating one beta on x86 only (see `gp._claim`).
PRELUDE = """
import atexit, mmap, os, platform, sys, threading, time

def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False

PARENT, MAX_FORKS, forks, fork = os.getpid(), 1, [], os.fork

def check_at_exit():
    if not no_child_left() or os.getpid() == PARENT and len(forks) > MAX_FORKS:
        sys.stdout.flush()
        print(f"left a child or forked {forks}", file=sys.stderr, flush=True)
        os._exit(1)

atexit.register(check_at_exit)

def counting_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

os.fork = counting_fork

import numpy as np
from gpdevopt import DesignSet, SearchBox, fit, gp, lhd_maximin, test_function
from gpdevopt.global_search import STRATEGIES, run_strategy

def design(name, n, seed=0):
    fn = test_function(name)
    unit = SearchBox(np.zeros(fn.d), np.ones(fn.d))
    points = lhd_maximin(n, unit, np.random.default_rng(seed))
    return DesignSet(points, fn.evaluate(points))

calls = memoryview(mmap.mmap(-1, 16)).cast("q")
slow = lambda beta: False
call = gp.DevianceObjective.__call__

def counted(self, beta):
    calls[os.getpid() != PARENT] += 1
    if slow(beta):
        time.sleep(0.002)
    return call(self, beta)

gp.DevianceObjective.__call__ = counted

CAN_FORK = sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) >= 2

def evaluated_once(count):
    total = calls[0] + calls[1]
    return total == count if platform.machine() in ("x86_64", "AMD64") else total >= count

def hexes(values):
    return [float(v).hex() for v in values]

# 16 beta on a design of 20 points: a batch past the sharing threshold.
BETAS = [np.array([b, -b / 2]) for b in np.linspace(-2.0, 2.0, 16)]
assert len(BETAS) * 20 >= gp._SHARE_MIN_WORK
"""


def _run_script(body: str) -> str:
    env = {
        **os.environ, "PYTHONPATH": str(SRC), "PYTHONDEVMODE": "1",
        "PYTHONWARNINGS": "error::RuntimeWarning,error::ResourceWarning",
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def run_script():
    """run_script(body) -> the stdout of PRELUDE and then body, run by a new
    interpreter, which must exit 0.

    The interpreter imports gpdevopt from src/ and runs in development mode
    with RuntimeWarnings and ResourceWarnings as errors and BLAS at one
    thread, so that on a Linux machine with two cores its batches of FEs go
    to a forked worker whatever BLAS the test process runs.
    """
    return _run_script
