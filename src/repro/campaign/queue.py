"""Lease-based work queue: the coordinator's source of distributed truth.

:class:`LeaseQueue` hands content-hashed campaign jobs to remote workers
under *leases* — time-bounded claims that the worker renews by heartbeat
while it executes.  The failure model falls out of three rules:

1. **Expiry means re-execution.**  A lease whose deadline passes (worker
   died, hung, or partitioned away) goes back on the queue and is handed
   to the next worker that asks.  Because jobs are deterministic and the
   result store is content-addressed, re-execution is idempotent: whichever
   completion arrives first wins, later duplicates are acknowledged and
   discarded, and the store ends up with exactly one record per cell.
2. **Failures strike the worker, not just the job.**  Every expired lease
   and every error record a worker returns is a *strike*; a worker that
   accumulates ``quarantine_strikes`` is quarantined — its outstanding
   leases are re-queued and it is refused further work — so one bad host
   (broken NumPy install, failing disk) cannot eat a whole campaign.
3. **Nothing retries forever.**  A job that keeps failing or expiring is
   finalized as an error record after ``max_attempts`` total attempts, so a
   poison cell degrades into one captured failure instead of livelock.

The queue is transport-agnostic and fully synchronous: every method takes
the lock, the clock is injectable, and nothing here knows about HTTP — the
deterministic surface the fault-injection and property tests drive.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from threading import RLock
from typing import Callable

from repro.campaign.spec import Job
from repro.campaign.store import JobRecord
from repro.obs import metrics
from repro.obs.log import get_logger

_log = get_logger("campaign.queue")

#: queue stats counters, all always-on (plain dict increments)
STAT_KEYS = (
    "leases_granted",
    "leases_expired",
    "retries",
    "errors_retried",
    "errors_final",
    "expiries_final",
    "completions",
    "duplicates",
    "workers_joined",
    "workers_left",
    "workers_quarantined",
)


@dataclass
class Lease:
    """One outstanding claim: ``worker_id`` is running ``job_hash``."""

    job_hash: str
    worker_id: str
    granted_at: float
    deadline: float
    attempt: int


@dataclass
class WorkerInfo:
    """Everything the queue tracks about one worker."""

    worker_id: str
    meta: dict = field(default_factory=dict)
    last_seen: float = 0.0
    strikes: int = 0
    quarantined: bool = False
    #: said a clean goodbye via ``release`` — the coordinator need not wait
    #: for this worker when winding down
    left: bool = False
    completed: int = 0
    failed: int = 0


class LeaseQueue:
    """Thread-safe lease queue over a fixed set of unique jobs.

    Args:
        jobs: the pending jobs (already deduplicated by content hash).
        lease_timeout_s: how long a lease lives without a heartbeat.
        max_attempts: total attempts (expiries + error returns) before a
            job is finalized as an error record.
        quarantine_strikes: strikes before a worker is quarantined.
        max_lease_s: optional cap on a lease's *total* lifetime — heartbeats
            renew the deadline but never past ``granted_at + max_lease_s``,
            so a wedged-but-heartbeating worker still loses the job.
        clock: monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        jobs: list[Job],
        lease_timeout_s: float = 30.0,
        max_attempts: int = 3,
        quarantine_strikes: int = 3,
        max_lease_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if quarantine_strikes < 1:
            raise ValueError("quarantine_strikes must be >= 1")
        self.lease_timeout_s = float(lease_timeout_s)
        self.max_attempts = int(max_attempts)
        self.quarantine_strikes = int(quarantine_strikes)
        self.max_lease_s = None if max_lease_s is None else float(max_lease_s)
        self._clock = clock
        self._lock = RLock()
        self._jobs: dict[str, Job] = {job.content_hash: job for job in jobs}
        self._pending: deque[str] = deque(self._jobs)
        self._leases: dict[str, Lease] = {}
        self._attempts: dict[str, int] = {}
        self._done: dict[str, dict] = {}
        self._fresh: deque[dict] = deque()
        self._workers: dict[str, WorkerInfo] = {}
        self._closed = False
        self.stats: dict[str, int] = {key: 0 for key in STAT_KEYS}

    # ------------------------------------------------------------------ #
    # worker lifecycle

    def register(self, worker_id: str, meta: dict | None = None) -> WorkerInfo:
        """Record (or refresh) a worker; called on join and implicitly on use."""
        with self._lock:
            info = self._workers.get(worker_id)
            if info is None:
                info = WorkerInfo(worker_id=worker_id, meta=dict(meta or {}))
                self._workers[worker_id] = info
                self.stats["workers_joined"] += 1
                _log.info("worker %s joined (%d workers)", worker_id,
                          len(self._workers))
            elif meta:
                info.meta.update(meta)
            info.last_seen = self._clock()
            return info

    def release(self, worker_id: str) -> int:
        """A worker leaves cleanly: re-queue its leases; returns how many."""
        with self._lock:
            requeued = self._requeue_worker(worker_id, reason="left")
            info = self._workers.get(worker_id)
            if info is not None and not info.left:
                info.left = True
                self.stats["workers_left"] += 1
            return requeued

    def _strike(self, worker_id: str) -> None:
        info = self._workers.get(worker_id)
        if info is None or info.quarantined:
            return
        info.strikes += 1
        if info.strikes >= self.quarantine_strikes:
            info.quarantined = True
            self.stats["workers_quarantined"] += 1
            if metrics.enabled():
                metrics.inc("campaign.worker.quarantined")
            requeued = self._requeue_worker(worker_id, reason="quarantined")
            _log.warning(
                "worker %s quarantined after %d strikes (%d leases re-queued)",
                worker_id, info.strikes, requeued,
            )

    def _requeue_worker(self, worker_id: str, reason: str) -> int:
        requeued = 0
        for job_hash in [h for h, l in self._leases.items()
                         if l.worker_id == worker_id]:
            del self._leases[job_hash]
            self._requeue(job_hash)
            requeued += 1
        if requeued:
            _log.info("re-queued %d lease(s) of worker %s (%s)",
                      requeued, worker_id, reason)
        return requeued

    # ------------------------------------------------------------------ #
    # the lease protocol

    def lease(self, worker_id: str, max_jobs: int = 1,
              meta: dict | None = None) -> list[Job]:
        """Grant up to ``max_jobs`` pending jobs to ``worker_id``."""
        with self._lock:
            info = self.register(worker_id, meta)
            if info.quarantined or self._closed:
                return []
            now = self._clock()
            granted: list[Job] = []
            while self._pending and len(granted) < max(1, max_jobs):
                job_hash = self._pending.popleft()
                if job_hash in self._done:
                    # a stale completion (e.g. after this job's lease expired
                    # and it was re-queued) already finished it — don't hand
                    # a done job to another worker
                    continue
                attempt = self._attempts.get(job_hash, 0) + 1
                self._leases[job_hash] = Lease(
                    job_hash=job_hash,
                    worker_id=worker_id,
                    granted_at=now,
                    deadline=now + self.lease_timeout_s,
                    attempt=attempt,
                )
                granted.append(self._jobs[job_hash])
            if granted:
                self.stats["leases_granted"] += len(granted)
                if metrics.enabled():
                    metrics.inc("campaign.lease.granted", len(granted))
            return granted

    def heartbeat(self, worker_id: str) -> dict:
        """Renew every lease of ``worker_id``; returns its standing."""
        with self._lock:
            info = self.register(worker_id)
            if info.quarantined:
                return {"ok": False, "quarantined": True, "renewed": 0}
            now = self._clock()
            renewed = 0
            for lease in self._leases.values():
                if lease.worker_id != worker_id:
                    continue
                deadline = now + self.lease_timeout_s
                if self.max_lease_s is not None:
                    # a heartbeat never extends a lease past its hard cap,
                    # so a wedged-but-alive worker still gets evicted
                    deadline = min(deadline, lease.granted_at + self.max_lease_s)
                lease.deadline = deadline
                renewed += 1
            return {"ok": True, "quarantined": False, "renewed": renewed}

    def complete(self, worker_id: str, record: dict) -> dict:
        """Accept one finished-job record dict (idempotent).

        Returns ``{"accepted": bool, "final": bool}``: ``accepted`` means
        the record became the job's result; ``final`` means the job needs
        no further execution (also True for duplicates of a done job).
        An error record below the attempt cap is rejected and the job
        re-queued for another worker.
        """
        with self._lock:
            info = self.register(worker_id)
            job_hash = record.get("job_hash")
            if job_hash not in self._jobs:
                return {"accepted": False, "final": False, "unknown": True}
            if job_hash in self._done:
                # idempotent re-execution: someone else already finished it
                self.stats["duplicates"] += 1
                if metrics.enabled():
                    metrics.inc("campaign.complete.duplicate")
                return {"accepted": False, "final": True}
            lease = self._leases.pop(job_hash, None)
            if lease is not None:
                self._attempts[job_hash] = lease.attempt
            attempts = self._attempts.setdefault(job_hash, 1)
            if record.get("status") == "ok":
                self._finish(job_hash, record, info, ok=True)
                return {"accepted": True, "final": True}
            info.failed += 1
            self._strike(worker_id)
            if attempts >= self.max_attempts:
                self.stats["errors_final"] += 1
                self._finish(job_hash, record, info, ok=False)
                return {"accepted": True, "final": True}
            self.stats["errors_retried"] += 1
            self._requeue(job_hash)
            _log.warning(
                "job %s failed on worker %s (attempt %d/%d), re-queued",
                self._jobs[job_hash].label(), worker_id, attempts,
                self.max_attempts,
            )
            return {"accepted": False, "final": False}

    def _finish(self, job_hash: str, record: dict, info: WorkerInfo,
                ok: bool) -> None:
        self._done[job_hash] = record
        self._fresh.append(record)
        self.stats["completions"] += 1
        if ok:
            info.completed += 1
        if metrics.enabled():
            metrics.inc("campaign.complete.accepted")

    def _requeue(self, job_hash: str) -> None:
        # retries jump the line: freeing a straggler cell early keeps the
        # campaign's tail short
        self._pending.appendleft(job_hash)
        self.stats["retries"] += 1
        if metrics.enabled():
            metrics.inc("campaign.job.retried")

    def expire(self, now: float | None = None) -> list[str]:
        """Re-queue every lease past its deadline; returns the job hashes.

        A job that has already burned ``max_attempts`` leases is finalized
        as a synthesized error record instead — a poison cell (or a cell
        that kills every worker it touches) must converge, not livelock.
        """
        with self._lock:
            now = self._clock() if now is None else now
            expired = [h for h, lease in self._leases.items()
                       if lease.deadline <= now]
            for job_hash in expired:
                lease = self._leases.pop(job_hash, None)
                if lease is None:
                    # already re-queued as a side effect of an earlier strike
                    # in this very sweep quarantining its worker
                    continue
                self._attempts[job_hash] = lease.attempt
                self.stats["leases_expired"] += 1
                if metrics.enabled():
                    metrics.inc("campaign.lease.expired")
                self._strike(lease.worker_id)
                job = self._jobs[job_hash]
                if lease.attempt >= self.max_attempts:
                    self.stats["expiries_final"] += 1
                    info = self.register(lease.worker_id)
                    self._finish(
                        job_hash,
                        _expiry_record(job, lease, self.max_attempts),
                        info,
                        ok=False,
                    )
                    _log.error(
                        "job %s: lease expired on attempt %d/%d — recording "
                        "as failed", job.label(), lease.attempt,
                        self.max_attempts,
                    )
                else:
                    self._requeue(job_hash)
                    _log.warning(
                        "lease on %s (worker %s) expired, re-queued "
                        "(attempt %d/%d)", job.label(), lease.worker_id,
                        lease.attempt, self.max_attempts,
                    )
            return expired

    # ------------------------------------------------------------------ #
    # coordinator-side consumption

    def drain_done(self) -> list[dict]:
        """Record dicts finalized since the last drain (each exactly once)."""
        with self._lock:
            fresh = list(self._fresh)
            self._fresh.clear()
            return fresh

    def finished(self) -> bool:
        """Whether every job has a final record."""
        with self._lock:
            return len(self._done) == len(self._jobs)

    def close(self) -> None:
        """Stop granting leases; ``state`` becomes ``"done"`` for workers."""
        with self._lock:
            self._closed = True

    @property
    def state(self) -> str:
        """``"active"`` while jobs remain, ``"done"`` once finished/closed."""
        with self._lock:
            return "done" if (self._closed or self.finished()) else "active"

    def active_workers(self, horizon_s: float, now: float | None = None) -> int:
        """Workers seen within ``horizon_s`` that are not quarantined."""
        with self._lock:
            now = self._clock() if now is None else now
            return sum(
                1
                for info in self._workers.values()
                if not info.quarantined and now - info.last_seen <= horizon_s
            )

    def workers(self) -> list[WorkerInfo]:
        """Snapshot of every worker the queue has seen."""
        with self._lock:
            return list(self._workers.values())

    def counts(self) -> dict:
        """Queue occupancy + stats snapshot (the ``/status`` payload)."""
        with self._lock:
            return {
                "total": len(self._jobs),
                "pending": len(self._pending),
                "leased": len(self._leases),
                "done": len(self._done),
                "workers": len(self._workers),
                "state": "done" if (self._closed or
                                    len(self._done) == len(self._jobs))
                else "active",
                "stats": dict(self.stats),
            }

    def remaining_jobs(self) -> list[Job]:
        """Jobs without a final record (pending *and* currently leased)."""
        with self._lock:
            return [job for h, job in self._jobs.items() if h not in self._done]


def _expiry_record(job: Job, lease: Lease, max_attempts: int) -> dict:
    """Synthesized error record for a job whose leases kept expiring."""
    return JobRecord(
        job, "error",
        error=(
            f"lease expired on attempt {lease.attempt}/{max_attempts} "
            f"(last worker: {lease.worker_id}); job abandoned after "
            f"repeated worker death or hang"
        ),
        provenance={"coordinator": True, "last_worker": lease.worker_id},
    ).to_dict()
