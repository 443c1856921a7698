"""The forked runner `train` and `generate` run their jobs through."""

import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from scanpath_diffusion.workers import Forked, WorkerError

from conftest import within


def where(state, i):
    """Job i's index, the pid that ran it, and whether SIGINT is ignored
    there; state, a lock, cannot be pickled, so a worker must inherit it."""
    assert isinstance(state, type(threading.Lock()))
    return i, os.getpid(), signal.getsignal(signal.SIGINT) is signal.SIG_IGN


def test_jobs_run_in_order_the_multiples_of_processes_here():
    """7 jobs on 3 processes: results in job order, jobs 0, 3 and 6 in this
    process, the others on 2 forked workers that ignore SIGINT; the job
    function, a lambda, and the state are inherited, not pickled."""
    with Forked(lambda state, i: where(state, i), threading.Lock(), 3) as runner:
        results = runner.map([(i,) for i in range(7)], "job")
        assert runner.workers == 2
    assert [i for i, _, _ in results] == list(range(7))
    here = [i for i, pid, _ in results if pid == os.getpid()]
    assert here == [0, 3, 6]
    assert all(ignored for i, _, ignored in results if i not in here)
    assert not any(ignored for i, _, ignored in results if i in here)
    assert multiprocessing.active_children() == []


def test_the_first_call_with_two_jobs_forks():
    """A call with one job runs it here and forks nothing, as a generate
    call of one chunk does; the first call with two forks."""
    with Forked(where, threading.Lock(), 2) as runner:
        assert runner.map([(0,)], "job")[0][1] == os.getpid()
        assert runner.workers == 0 and multiprocessing.active_children() == []
        assert [pid == os.getpid() for _, pid, _ in runner.map([(0,), (1,)], "job")] == \
            [True, False]
        assert runner.workers == 1
    assert multiprocessing.active_children() == []



def carried(state, i, payload):
    """Job i of a payload: i, the payload's first and last values, and the
    pid and thread count of the process that ran it."""
    return i, payload[0], payload[-1], os.getpid(), threading.active_count()


def tagged(state, i, call, fail):
    """Job i of a call: (call, i), unless fail names i; then it raises, or
    it exits its process where fail[i] is "exit"."""
    if fail.get(i) == "exit":
        os._exit(3)
    if i in fail:
        raise ValueError(f"job {i} went wrong")
    return call, i


def test_the_runner_starts_no_thread_and_carries_large_jobs():
    """6 jobs of 4 MB each on 2 processes come back in job order, in time;
    job 0 runs here and sees the thread count this process had before the
    call, as the pipes to the worker need no thread. After a failed call
    the runner stays usable and its next call gets its own results: a
    worker that raises at its second job names that job, 3; a job of this
    process that raises is raised as itself; of two failed jobs the lower
    is named. Each call names its jobs, as train's shards and optimizer
    groups share one runner: a job that fails in its worker, and a worker
    that exits, are named under their call's name, and a call after the
    exit names the worker it lost."""
    payloads = [np.full(2 ** 19, float(i)) for i in range(6)]  # 4 MB of float64 each
    before = threading.active_count()
    with within(60), Forked(carried, None, 2) as runner:
        results = runner.map([(i, payload) for i, payload in enumerate(payloads)], "job")
    assert [r[:3] for r in results] == [(i, float(i), float(i)) for i in range(6)]
    assert [r[3] == os.getpid() for r in results] == [True, False] * 3
    assert results[0][4] == before
    with within(60), Forked(tagged, None, 2) as runner:
        with pytest.raises(WorkerError, match="^job 3 failed in its worker process: "
                                              "ValueError: job 3 went wrong$"):
            runner.map([(i, "first", {3: "raise"}) for i in range(6)], "job")
        assert runner.map([(i, "second", {}) for i in range(2)], "job") == \
            [("second", 0), ("second", 1)]
        with pytest.raises(ValueError, match="^job 2 went wrong$"):
            runner.map([(i, "first", {2: "raise"}) for i in range(4)], "job")
        assert runner.map([(i, "second", {}) for i in range(4)], "job") == \
            [("second", i) for i in range(4)]
        with pytest.raises(WorkerError, match="^job 1 failed in its worker process"):
            runner.map([(i, "first", {1: "raise", 2: "raise"}) for i in range(4)], "job")
        for what in ("training shard", "optimizer group"):
            with pytest.raises(WorkerError, match=f"^{what} 1 failed in its worker process: "
                                                  "ValueError: job 1 went wrong$"):
                runner.map([(i, what, {1: "raise"}) for i in range(2)], what)
        for what in ("optimizer group", "training shard"):
            with pytest.raises(WorkerError, match=f"^the worker process running {what} 1 "
                                                  "exited unexpectedly$"):
                runner.map([(i, what, {1: "exit"}) for i in range(2)], what)
    assert multiprocessing.active_children() == []
