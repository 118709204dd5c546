"""Campaign executor: fan jobs out over processes, collect in order.

``run_campaign`` is the one entry point: it expands a spec, serves every
already-stored grid cell from the result store (content-hash lookup, zero
simulation), and fans the remaining jobs out over a ``ProcessPoolExecutor``
when ``workers > 1``.  The result exposes records in deterministic grid
order however they completed, per-job failures are captured as error
records instead of propagating, and every fresh result is appended to the
store the moment it arrives, so an interrupted sweep resumes where it
stopped.

Robustness knobs: ``job_timeout`` converts a wedged job into a captured
error record instead of stalling the campaign forever, and Ctrl-C marks
the partial outcome ``interrupted`` (completed records are already in the
store) instead of dumping a traceback.  The distributed coordinator
(:mod:`repro.campaign.service`) reuses the cache pass and the record
collector so both execution paths store byte-identical records.
"""

from __future__ import annotations

import math
import os
import socket
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import repro.obs as obs
from repro.campaign.spec import CampaignSpec, Job
from repro.campaign.store import JobRecord, ResultStore
from repro.campaign.worker import INPUT_CACHE, execute_job
from repro.obs import metrics, tracing
from repro.obs.log import get_logger

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
    order of first appearance, grid order within a group — so the pool
    and the lease queue hand consecutive same-input jobs to each worker,
    whose :class:`~repro.campaign.worker.InputCache` then prepares every
    input once.  ``outcome.jobs`` (and so ``iter_records``) keeps grid
    order.
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


def timeout_record(job: Job, timeout_s: float) -> dict:
    """Error-record dict for a job whose future exceeded ``job_timeout``."""
    return {
        "job_hash": job.content_hash,
        "job": job.to_dict(),
        "status": "error",
        "result": None,
        "error": (
            f"job exceeded job_timeout={timeout_s:g}s and was abandoned "
            "(worker process may still be running; re-run to retry)"
        ),
        "elapsed_s": float(timeout_s),
        "provenance": {"hostname": socket.gethostname(), "pid": os.getpid(),
                       "timed_out": True},
    }


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Best-effort kill of a pool holding wedged workers.

    ``shutdown(wait=False)`` alone leaves a truly hung worker process
    blocking interpreter exit (concurrent.futures joins workers atexit),
    so the leaked processes are terminated outright.  Uses the private
    ``_processes`` map — guarded, because there is no public handle.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    try:
        for proc in list((pool._processes or {}).values()):
            proc.terminate()
    except Exception:
        pass


def _run_pool(
    pending: list[Job],
    workers: int,
    job_timeout: float | None,
    collect: Callable[[dict], None],
    outcome: CampaignResult,
) -> None:
    """Fan ``pending`` over a process pool, collecting in completion order.

    At most ``workers`` jobs are in flight, so a job's timeout clock starts
    when it is submitted to a free slot, not when the campaign started.
    A timed-out future is converted into a captured error record and its
    slot re-used; the wedged process is terminated during shutdown.
    """
    max_workers = min(workers, len(pending))
    pool = ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=obs.worker_init,
        initargs=(obs.state(),),
    )
    queued: deque[Job] = deque(pending)
    in_flight: dict = {}  # future -> (job, deadline)
    timed_out = False
    try:
        while queued or in_flight:
            while queued and len(in_flight) < max_workers:
                job = queued.popleft()
                deadline = (
                    math.inf if job_timeout is None
                    else time.monotonic() + job_timeout
                )
                in_flight[pool.submit(execute_job, job.to_dict())] = (job, deadline)
            timeout = None
            if job_timeout is not None:
                next_deadline = min(dl for _, dl in in_flight.values())
                timeout = max(0.0, next_deadline - time.monotonic())
            done, _ = wait(in_flight, timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done:
                del in_flight[future]
                collect(future.result())
            if job_timeout is not None:
                now = time.monotonic()
                expired = [f for f, (_, dl) in in_flight.items() if dl <= now]
                for future in expired:
                    job, _ = in_flight.pop(future)
                    future.cancel()  # almost certainly running; best-effort
                    timed_out = True
                    _log.warning("job %s timed out after %gs, recording as "
                                 "failed", job.label(), job_timeout)
                    if metrics.enabled():
                        metrics.inc("campaign.job.timeout")
                    collect(timeout_record(job, job_timeout))
    except KeyboardInterrupt:
        outcome.interrupted = True
        _log.warning("interrupted — cancelling %d pending job(s)",
                     len(in_flight) + len(queued))
        _terminate_pool(pool)
        return
    if timed_out:
        _terminate_pool(pool)
    else:
        pool.shutdown()


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
            # running.  The pool initializer carries the observability
            # switches into the workers (robust under both fork and spawn).
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
