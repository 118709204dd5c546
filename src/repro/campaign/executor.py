"""Campaign executor: fan jobs out over processes, collect in order.

``run_campaign`` is the one entry point: it expands a spec, serves every
already-stored grid cell from the result store (content-hash lookup, zero
simulation), and runs the remaining jobs on ``workers`` long-lived pool
processes when ``workers > 1``, each kept on the input it holds (see
:func:`pick_input`).  The result exposes records in deterministic grid
order however they completed, per-job failures are captured as error
records instead of propagating, and every fresh result is appended to the
store the moment it arrives, so an interrupted sweep resumes where it
stopped.

Robustness knobs: ``job_timeout`` converts a wedged job into a captured
error record instead of stalling the campaign forever, a pool process that
dies mid-job costs only its job (also a captured error record), and Ctrl-C
marks the partial outcome ``interrupted`` (completed records are already
in the store) instead of dumping a traceback.  The distributed coordinator
(:mod:`repro.campaign.service`) reuses the cache pass and the record
collector so both execution paths store byte-identical records.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import socket
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection, wait
from typing import Callable, Collection, Hashable, Iterator, Mapping

import repro.obs as obs
from repro.campaign.spec import CampaignSpec, Job
from repro.campaign.store import JobRecord, ResultStore
from repro.campaign.worker import INPUT_CACHE, execute_job
from repro.obs import metrics, tracing
from repro.obs.log import get_logger
from repro.utils.blas import pin_one_thread

_log = get_logger("campaign.executor")

#: progress callback: (record, jobs done so far, total jobs)
ProgressFn = Callable[[JobRecord, int, int], None]


@dataclass
class CampaignResult:
    """Everything one campaign invocation produced.

    ``records`` maps job content hash to :class:`JobRecord`; ``jobs`` keeps
    the deterministic expansion order, so iteration order is stable.
    ``spec`` is None for job lists whose coupled axes no single spec can
    express (see :func:`repro.campaign.spec.expand_specs`).
    """

    spec: CampaignSpec | None
    jobs: list[Job] = field(default_factory=list)
    records: dict[str, JobRecord] = field(default_factory=dict)
    #: True when the run was cut short (Ctrl-C); ``records`` then holds
    #: only the cells that finished, all of them already persisted
    interrupted: bool = False
    #: lease/retry/quarantine counters when the distributed coordinator ran
    #: the campaign (see :class:`repro.campaign.queue.LeaseQueue`); empty
    #: for in-process runs
    queue_stats: dict = field(default_factory=dict)

    def iter_records(self) -> Iterator[tuple[Job, JobRecord]]:
        """(job, record) pairs in grid expansion order.

        Cells an interrupted run never reached are skipped — a completed
        run yields every job.
        """
        for job in self.jobs:
            record = self.records.get(job.content_hash)
            if record is not None:
                yield job, record

    def record_for(self, job: Job) -> JobRecord:
        """The record of one job."""
        return self.records[job.content_hash]

    @property
    def n_total(self) -> int:
        """Number of grid cells in the campaign."""
        return len(self.jobs)

    @property
    def n_missing(self) -> int:
        """Cells without a record (nonzero only for interrupted runs)."""
        return len(self.jobs) - len(self.records)

    @property
    def n_cached(self) -> int:
        """Cells served from the result store without simulating."""
        return sum(record.cached for record in self.records.values())

    @property
    def n_executed(self) -> int:
        """Cells actually simulated by this invocation."""
        return sum(not record.cached for record in self.records.values())

    @property
    def n_failed(self) -> int:
        """Cells whose job raised (captured, not propagated)."""
        return sum(not record.ok for record in self.records.values())

    def failures(self) -> list[JobRecord]:
        """The error records, in grid order."""
        return [record for _, record in self.iter_records() if not record.ok]

    def raise_for_failures(self) -> None:
        """Raise a RuntimeError carrying every failed job's full traceback."""
        failed = self.failures()
        if not failed:
            return
        lines = [f"{len(failed)} of {self.n_total} campaign jobs failed:"]
        for record in failed:
            lines.append(f"--- {record.job.label()} ---")
            lines.append((record.error or "(no traceback captured)").rstrip())
        raise RuntimeError("\n".join(lines))


def serve_cached(
    outcome: CampaignResult,
    store: ResultStore | None,
    progress: ProgressFn | None,
) -> list[Job]:
    """Fill ``outcome`` from the store; returns the jobs still to run.

    The pending jobs come grouped by :attr:`Job.input_key` — groups in
    order of first appearance, grid order within a group.  The local pool
    keeps each worker on the group it holds (:func:`pick_input`), so its
    :class:`~repro.campaign.worker.InputCache` prepares the input about
    once; the lease queue hands the jobs out in this order, first in first
    out.  ``outcome.jobs`` (and so ``iter_records``) keeps grid order.
    """
    pending: dict[tuple, list[Job]] = {}
    with tracing.span("campaign.lookup", cat="campaign", jobs=len(outcome.jobs)):
        for job in outcome.jobs:
            stored = store.lookup(job) if store is not None else None
            if stored is not None:
                record = replace(stored, job=job, cached=True)
                outcome.records[job.content_hash] = record
                if progress is not None:
                    progress(record, len(outcome.records), outcome.n_total)
            else:
                pending.setdefault(job.input_key, []).append(job)
    return [job for group in pending.values() for job in group]


def make_collector(
    outcome: CampaignResult,
    store: ResultStore | None,
    progress: ProgressFn | None,
) -> Callable[[dict], None]:
    """One place every freshly executed record flows through.

    Parses the wire/record dict, merges worker spans into this process's
    tracer (one coherent Chrome trace), persists to the store immediately
    (an interrupted sweep keeps everything that finished), and reports
    progress.  Shared by the in-process pool and the distributed
    coordinator so both paths store identical records.
    """

    def collect(record_dict: dict) -> None:
        record = JobRecord.from_dict(record_dict)
        if record.spans and tracing.enabled():
            tracing.extend(record.spans)
        if store is not None:
            store.put(record)
        outcome.records[record.job.content_hash] = record
        if progress is not None:
            progress(record, len(outcome.records), outcome.n_total)

    return collect


def _lost_record(job: Job, error: str, elapsed_s: float, **provenance) -> dict:
    """Error-record dict for a job the pool gave up on without a result."""
    return JobRecord(
        job, "error", error=error, elapsed_s=float(elapsed_s),
        provenance={"hostname": socket.gethostname(), "pid": os.getpid(),
                    **provenance},
    ).to_dict()


def timeout_record(job: Job, timeout_s: float) -> dict:
    """Error-record dict for a job that exceeded ``job_timeout``."""
    return _lost_record(
        job,
        f"job exceeded job_timeout={timeout_s:g}s and was abandoned "
        "(its worker process was replaced; re-run to retry)",
        timeout_s,
        timed_out=True,
    )


def worker_died_record(job: Job, exitcode: int | None, elapsed_s: float) -> dict:
    """Error-record dict for a job whose pool process died while running it."""
    return _lost_record(
        job,
        f"worker process died with exit code {exitcode} while running the "
        "job (its process was replaced; re-run to retry)",
        elapsed_s,
        worker_died=True,
        exitcode=exitcode,
    )


def pick_input(
    pending: Mapping[Hashable, int],
    held: Hashable | None,
    others: Collection[Hashable],
) -> Hashable | None:
    """The input a free pool worker takes its next job from.

    ``pending`` counts each input's unsent jobs, inputs in order of first
    appearance; ``held`` is the input the worker holds and ``others`` the
    inputs the other workers hold.  The worker stays on its input while it
    has jobs.  Otherwise it takes the largest input no other worker holds,
    and only when every remaining input is held does it join the held one
    with the most jobs; ties go to the input that appeared first.  None
    when no job is left.
    """
    left = [key for key, count in pending.items() if count]
    if held in left:
        return held
    unheld = [key for key in left if key not in others]
    return max(unheld or left, key=pending.__getitem__, default=None)


def _serve(conn: Connection, obs_state: dict) -> None:
    """A pool process: run each ``(fn, job_dict)`` received, send back its record.

    Stops on ``None``.  Ctrl-C is left to the parent, which stops its
    workers itself.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    obs.apply_state(obs_state)
    while (message := conn.recv()) is not None:
        fn, job_dict = message
        conn.send(fn(job_dict))


class _PoolWorker:
    """One pool process, the job it runs and the input it holds."""

    def __init__(self) -> None:
        self._start()

    def _start(self) -> None:
        # Pinned before the fork, a worker inherits one BLAS thread.  A
        # worker that pinned itself would restart OpenBLAS's thread server,
        # which a fork stops, and its helper thread would spin for about
        # 0.12 s of CPU (measured on a 2-core host).
        pin_one_thread()
        self.conn, child = multiprocessing.Pipe()
        # The default start method (fork on Linux): a worker starts with the
        # parent's imports.  Spawning two workers cost 0.3-0.4 s of imports
        # on a 2-core host, a third of a tournament study, against 5 ms.
        self.process = multiprocessing.Process(
            target=_serve, args=(child, obs.state()), daemon=True
        )
        self.process.start()
        child.close()
        #: input key of the last job sent: the process's INPUT_CACHE entry
        self.held: tuple | None = None
        self.job: Job | None = None
        self.sent_at = self.deadline = math.inf

    def send(self, job: Job, timeout: float | None) -> None:
        """Start ``job``; its timeout clock starts now."""
        self.job, self.held = job, job.input_key
        self.sent_at = time.monotonic()
        self.deadline = math.inf if timeout is None else self.sent_at + timeout
        with suppress(OSError):  # a dead process shows up in receive()
            self.conn.send((execute_job, job.to_dict()))

    def receive(self) -> dict:
        """The sent job's record, or a died record if the process exited."""
        try:
            record = self.conn.recv()
        except (EOFError, OSError):
            job, elapsed = self.job, time.monotonic() - self.sent_at
            exitcode = self.replace()
            _log.warning("worker process died (exit code %s) running %s, "
                         "recording it as failed", exitcode, job.label())
            if metrics.enabled():
                metrics.inc("campaign.worker.died")
            return worker_died_record(job, exitcode, elapsed)
        self.job = None
        return record

    def expire(self, timeout: float) -> dict:
        """Replace the process of a job past its deadline; the timeout record."""
        job = self.job
        self.replace()
        _log.warning("job %s timed out after %gs, recording as failed",
                     job.label(), timeout)
        if metrics.enabled():
            metrics.inc("campaign.job.timeout")
        return timeout_record(job, timeout)

    def replace(self) -> int | None:
        """Start a fresh process holding no input; returns the old exit code."""
        exitcode = self.stop()
        self._start()
        return exitcode

    def stop(self) -> int | None:
        """End the process, asked when idle and killed when busy; its exit code."""
        if self.job is None:
            with suppress(OSError):
                self.conn.send(None)
        else:
            self.process.terminate()
        self.process.join()
        self.conn.close()
        return self.process.exitcode


def _run_pool(
    pending: list[Job],
    workers: int,
    job_timeout: float | None,
    collect: Callable[[dict], None],
    outcome: CampaignResult,
) -> None:
    """Run ``pending`` on long-lived pool processes, collecting as jobs finish.

    The parent sends each worker one job at a time and remembers the input
    it holds: :func:`pick_input` keeps a worker on its input's jobs, so
    each input is prepared about once however many schemes and MAGs share
    it.  A job's timeout clock starts when it is sent.  A job that times
    out, or whose process dies, becomes a captured error record, and only
    that worker's process is replaced; the others keep theirs and their
    inputs.
    """
    queues: dict[tuple, deque[Job]] = {}
    for job in pending:
        queues.setdefault(job.input_key, deque()).append(job)
    pool: list[_PoolWorker] = []
    try:
        for _ in range(min(workers, len(pending))):
            pool.append(_PoolWorker())
        while True:
            for worker in pool:
                if worker.job is None:
                    key = pick_input(
                        {key: len(queue) for key, queue in queues.items()},
                        worker.held,
                        {other.held for other in pool if other is not worker},
                    )
                    if key is not None:
                        worker.send(queues[key].popleft(), job_timeout)
            busy = [worker for worker in pool if worker.job is not None]
            if not busy:
                break
            deadline = min(worker.deadline for worker in busy)
            ready = wait(
                [worker.conn for worker in busy],
                None if deadline == math.inf
                else max(0.0, deadline - time.monotonic()),
            )
            now = time.monotonic()
            for worker in busy:
                if worker.conn in ready:
                    collect(worker.receive())
                elif worker.deadline <= now:
                    collect(worker.expire(job_timeout))
    except KeyboardInterrupt:
        outcome.interrupted = True
        _log.warning("interrupted — cancelling %d pending job(s)",
                     sum(worker.job is not None for worker in pool)
                     + sum(map(len, queues.values())))
    finally:
        for worker in pool:
            worker.stop()


def run_jobs(
    spec: CampaignSpec | None,
    jobs: list[Job],
    store: ResultStore | None = None,
    workers: int = 1,
    progress: ProgressFn | None = None,
    job_timeout: float | None = None,
) -> CampaignResult:
    """Execute an explicit job list (the engine behind :func:`run_campaign`).

    Args:
        spec: the campaign the jobs belong to (kept on the result); None for
            coupled-axis job lists no single spec can express.
        jobs: jobs to run, in collection order.
        store: optional persistent store; successful stored records are
            reused (failures are retried) and fresh records are appended.
        workers: process count; ``<= 1`` runs in-process.
        progress: called after every job with (record, done, total); with
            ``workers > 1`` records arrive in completion order, but the
            result's :meth:`CampaignResult.iter_records` always yields grid
            order.
        job_timeout: per-job wall-clock cap in seconds.  A job still running
            at its deadline is recorded as a captured error (the campaign
            continues; a re-run retries it) instead of stalling the sweep
            forever on one wedged worker.  None (default) waits forever.
    """
    # Dedup by content hash: a grid can alias cells (e.g. the baseline is
    # threshold-independent), and each unique cell runs exactly once.
    outcome = CampaignResult(
        spec=spec, jobs=list({job.content_hash: job for job in jobs}.values())
    )
    pending = serve_cached(outcome, store, progress)
    collect = make_collector(outcome, store, progress)

    with tracing.span("campaign.execute", cat="campaign", pending=len(pending),
                      workers=workers):
        if workers > 1 and len(pending) > 1:
            # Collect in completion order so every finished job is persisted
            # and reported immediately — an interrupted sweep keeps
            # everything that finished, even while a slow early job is still
            # running.  Each pool process applies the parent's observability
            # switches when it starts (robust under both fork and spawn).
            _run_pool(pending, workers, job_timeout, collect, outcome)
        else:
            try:
                for job in pending:
                    collect(execute_job(job.to_dict()))
            except KeyboardInterrupt:
                outcome.interrupted = True
                _log.warning("interrupted — %d of %d cells completed",
                             len(outcome.records), outcome.n_total)
            finally:
                INPUT_CACHE.clear()

    if metrics.enabled():
        metrics.inc("campaign.jobs", outcome.n_total)
        metrics.inc("campaign.cache_hits", outcome.n_cached)
        metrics.inc("campaign.executed", outcome.n_executed)
        metrics.inc("campaign.failed", outcome.n_failed)
    return outcome


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore | None = None,
    workers: int = 1,
    progress: ProgressFn | None = None,
    job_timeout: float | None = None,
) -> CampaignResult:
    """Expand a campaign spec and run every grid cell not already stored."""
    return run_jobs(spec, spec.expand(), store=store, workers=workers,
                    progress=progress, job_timeout=job_timeout)
