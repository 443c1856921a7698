"""Forked worker processes: the one runner `train` and `generate` run their
jobs through.

A runner holds a job function and the state it reads. Of the jobs of a
`map` call, those whose index is a multiple of `processes` run in the
calling process, the others on processes - 1 workers forked at the first
call with more than one job. A worker inherits the function and the state
through the fork, shared mappings included, so neither is pickled; only
jobs and results are. Workers ignore SIGINT, which the calling process
handles. Where fork is unavailable every job runs in the calling process.
"""

import multiprocessing
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool


class WorkerError(RuntimeError):
    """A job failed in a worker process, or its worker exited."""


# (fn, state) of the runner this process is a worker of, set once at its fork
_inherited = None


def _start(fn, state) -> None:
    global _inherited
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _inherited = fn, state


def _run(job):
    fn, state = _inherited
    return fn(state, *job)


class Forked:
    """Runs fn(state, *job) for the jobs of each `map` call on up to
    `processes` processes, this one counted. `what` names a job in errors:
    job 1 of "training shard" is "training shard 1". On exit of its `with`
    block every worker is joined."""

    def __init__(self, fn, state, processes: int, what: str):
        self.fn, self.state, self.what = fn, state, what
        self.processes = processes if "fork" in multiprocessing.get_all_start_methods() else 1
        self.pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)

    @property
    def workers(self) -> int:
        """The worker processes forked so far."""
        return 0 if self.pool is None else self.processes - 1

    def map(self, jobs: list) -> list:
        """fn(state, *job) for each job, in job order."""
        if len(jobs) > 1 and self.processes > 1 and self.pool is None:
            self.pool = ProcessPoolExecutor(self.processes - 1,
                                            mp_context=multiprocessing.get_context("fork"),
                                            initializer=_start, initargs=(self.fn, self.state))
        theirs = {i: self.pool.submit(_run, job)
                  for i, job in enumerate(jobs) if i % self.processes}
        results = {i: self.fn(self.state, *job)
                   for i, job in enumerate(jobs) if not i % self.processes}
        for i, future in theirs.items():
            try:
                results[i] = future.result()
            except BrokenProcessPool as exc:
                raise WorkerError(f"the worker process running {self.what} {i} "
                                  "exited unexpectedly") from exc
            except Exception as exc:
                raise WorkerError(f"{self.what} {i} failed in its worker process: "
                                  f"{type(exc).__name__}: {exc}") from exc
        return [results[i] for i in range(len(jobs))]
