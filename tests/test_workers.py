"""The forked runner `train` and `generate` run their jobs through."""

import multiprocessing
import os
import signal
import threading

from scanpath_diffusion.workers import Forked


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
    """A call with one job runs it here and forks nothing, as a training
    step the gate leaves whole does; the first call with two forks."""
    with Forked(where, threading.Lock(), 2, "job") as runner:
        assert runner.map([(0,)])[0][1] == os.getpid()
        assert runner.workers == 0 and multiprocessing.active_children() == []
        assert [pid == os.getpid() for _, pid, _ in runner.map([(0,), (1,)])] == [True, False]
        assert runner.workers == 1
    assert multiprocessing.active_children() == []

