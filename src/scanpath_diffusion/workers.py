"""Forked worker processes: the one runner `train` and `generate` run their
jobs through.

A runner holds a job function and the state it reads. Of the jobs of a
`map` call, those whose index is a multiple of `processes` run in the
calling process, the others on processes - 1 workers forked at the first
call with more than one job. A worker inherits the function and the state
through the fork, shared mappings included, so neither is pickled; only
jobs and results are. Each worker talks to the calling process through
one duplex pipe: `map` sends it all of its jobs as one message and reads
one reply, so the calling process starts no thread; a call names its jobs
in the errors it raises, so one runner serves jobs of several kinds, as
`train`'s shards and optimizer groups. Workers ignore SIGINT, which the
calling process handles, and exit when their pipe closes. Where fork is
unavailable every job runs in the calling process.
"""

import contextlib
import multiprocessing
import signal
import traceback


class WorkerError(RuntimeError):
    """A job failed in a worker process, or its worker exited."""


class _RemoteTraceback(Exception):
    """The traceback of a job that failed in a worker, as its worker
    formatted it; the cause of the `WorkerError` that names the job."""


def _serve(fn, state, pipe, others) -> None:
    """A worker's loop. Each message is a list of (index, job); the reply
    is (None, results in that order), or (index, "Type: message",
    traceback) of the first job that raised. Returns when the pipe closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in others:  # the ends of the other pipes, inherited through the fork
        other.close()
    while True:
        try:
            jobs = pipe.recv()
        except EOFError:
            return
        results = []
        for i, job in jobs:
            try:
                results.append(fn(state, *job))
            except Exception as exc:  # reported to the calling process, which raises
                reply = i, f"{type(exc).__name__}: {exc}", traceback.format_exc()
                break
        else:
            reply = None, results
        try:
            pipe.send(reply)
        except ConnectionError:  # the calling process has closed its end
            return


class Forked:
    """Runs fn(state, *job) for the jobs of each `map` call on up to
    `processes` processes, this one counted. On exit of its `with` block
    every pipe is closed and every worker joined."""

    def __init__(self, fn, state, processes: int):
        self.fn, self.state = fn, state
        self.processes = processes if "fork" in multiprocessing.get_all_start_methods() else 1
        self.pipes, self.procs = [], []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for pipe in self.pipes:
            pipe.close()
        for proc in self.procs:
            proc.join()

    @property
    def workers(self) -> int:
        """The worker processes forked so far."""
        return len(self.procs)

    def _fork(self) -> None:
        """Fork the processes - 1 workers, each with its end of one pipe."""
        context = multiprocessing.get_context("fork")
        pipes = [context.Pipe() for _ in range(self.processes - 1)]
        self.pipes = [ours for ours, _ in pipes]  # closed on exit, also if a fork fails
        ends = [end for pair in pipes for end in pair]
        try:
            for _, theirs in pipes:
                proc = context.Process(target=_serve, daemon=True, args=(
                    self.fn, self.state, theirs, [end for end in ends if end is not theirs]))
                proc.start()
                self.procs.append(proc)
        finally:
            for _, theirs in pipes:
                theirs.close()

    def map(self, jobs: list, what: str) -> list:
        """fn(state, *job) for each job, in job order; what names a job in
        errors: job 1 of "training shard" is "training shard 1".

        Job i runs on worker i % processes, 0 being this process. Each
        worker gets all of its jobs as one message, which it reads whole
        before it computes, so no send waits for a job to finish; then this
        process runs its own, up to the first that raises, and reads every
        worker's reply, so the next call reads only its own. Of the jobs
        that failed, the one of the lowest index is raised: this process's
        exception as itself, a worker's as a `WorkerError`, which a worker
        that exited raises too."""
        if len(jobs) > 1 and self.processes > 1 and not self.procs:
            self._fork()
        p = len(self.pipes) + 1
        for w, pipe in zip(range(1, len(jobs)), self.pipes):
            # a worker that exited closed its end: its reply, read below, is EOF
            with contextlib.suppress(ConnectionError):
                pipe.send([(i, jobs[i]) for i in range(w, len(jobs), p)])
        results = [None] * len(jobs)
        failures = {}  # job index -> the exception raised for it
        try:
            for i in range(0, len(jobs), p):
                results[i] = self.fn(self.state, *jobs[i])
        except Exception as exc:  # raised once the workers' replies are read
            failures[i] = exc
        for w, pipe in zip(range(1, len(jobs)), self.pipes):
            try:
                failed, *reply = pipe.recv()
            except (EOFError, ConnectionError) as exc:
                failures[w] = _worker_error(
                    f"the worker process running {what} {w} exited unexpectedly", exc)
                continue
            if failed is None:
                results[w::p] = reply[0]
            else:
                message, remote = reply
                failures[failed] = _worker_error(
                    f"{what} {failed} failed in its worker process: {message}",
                    _RemoteTraceback(remote))
        if failures:
            raise failures[min(failures)]
        return results


def _worker_error(message: str, cause: BaseException) -> WorkerError:
    error = WorkerError(message)
    error.__cause__ = cause
    return error
