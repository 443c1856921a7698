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
    with Forked(lambda state, i: where(state, i), threading.Lock(), 3, "job") as runner:
        results = runner.map([(i,) for i in range(7)])
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
    with Forked(where, threading.Lock(), 2, "job") as runner:
        assert runner.map([(0,)])[0][1] == os.getpid()
        assert runner.workers == 0 and multiprocessing.active_children() == []
        assert [pid == os.getpid() for _, pid, _ in runner.map([(0,), (1,)])] == [True, False]
        assert runner.workers == 1
    assert multiprocessing.active_children() == []



def carried(state, i, payload):
    """Job i of a payload: i, the payload's first and last values, and the
    pid and thread count of the process that ran it."""
    return i, payload[0], payload[-1], os.getpid(), threading.active_count()


def fails_at_3(state, i):
    if i == 3:
        raise ValueError("job three went wrong")
    return i


def test_the_runner_starts_no_thread_and_carries_large_jobs():
    """6 jobs of 4 MB each on 2 processes come back in job order, in time;
    job 0 runs here and sees the thread count this process had before the
    call, as the pipes to the worker need no thread. A worker that raises
    at its second job names that job, 3, and the runner stays usable."""
    payloads = [np.full(2 ** 19, float(i)) for i in range(6)]  # 4 MB of float64 each
    before = threading.active_count()
    with within(60), Forked(carried, None, 2, "job") as runner:
        results = runner.map([(i, payload) for i, payload in enumerate(payloads)])
    assert [r[:3] for r in results] == [(i, float(i), float(i)) for i in range(6)]
    assert [r[3] == os.getpid() for r in results] == [True, False] * 3
    assert results[0][4] == before
    with within(60), Forked(fails_at_3, None, 2, "job") as runner:
        with pytest.raises(WorkerError, match="^job 3 failed in its worker process: "
                                              "ValueError: job three went wrong$"):
            runner.map([(i,) for i in range(6)])
        assert runner.map([(0,), (1,)]) == [0, 1]
    assert multiprocessing.active_children() == []
