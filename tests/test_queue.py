"""Unit tests for the lease queue, fault injector, and coordinator protocol.

Everything here is transport-free and clock-injected: the queue and the
:class:`~repro.campaign.service.CampaignService` are driven directly, so
every failure mode (expiry, strikes, quarantine, duplicate completion,
poison jobs) is exercised deterministically without sockets or sleeps.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import faults
from repro.campaign.executor import timeout_record, worker_died_record
from repro.campaign.queue import STAT_KEYS, LeaseQueue
from repro.campaign.service import CampaignService
from repro.campaign.spec import Job
from repro.campaign.store import JobRecord

TINY = 1.0 / 1024.0


class FakeClock:
    """Injectable monotonic clock."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


def make_jobs(n: int) -> list[Job]:
    return [Job(workload="NN", scheme="E2MC", scale=TINY, seed=i)
            for i in range(n)]


def record_for(job: Job, status: str = "ok") -> dict:
    return {
        "job_hash": job.content_hash,
        "job": job.to_dict(),
        "status": status,
        "result": None,
        "error": None if status == "ok" else "boom",
        "elapsed_s": 0.01,
    }


# --------------------------------------------------------------------- #
# FaultInjector


def test_fault_injector_default_fires_first_invocation_only():
    injector = faults.FaultInjector("kill-worker-mid-job")
    assert injector.fire(faults.KILL_WORKER_MID_JOB) is True
    assert injector.fire(faults.KILL_WORKER_MID_JOB) is False
    assert injector.counts[faults.KILL_WORKER_MID_JOB] == 2
    assert injector.fired[faults.KILL_WORKER_MID_JOB] == 1


def test_fault_injector_exact_nth():
    injector = faults.FaultInjector("drop-response:3")
    assert [injector.fire(faults.DROP_RESPONSE) for _ in range(5)] == [
        False, False, True, False, False]


def test_fault_injector_from_nth_onwards():
    injector = faults.FaultInjector("stall-heartbeat:2+")
    assert [injector.fire(faults.STALL_HEARTBEAT) for _ in range(4)] == [
        False, True, True, True]


def test_fault_injector_always_and_multiple_rules():
    injector = faults.FaultInjector("truncate-store-write:*, drop-response:1")
    assert injector.fire(faults.TRUNCATE_STORE_WRITE)
    assert injector.fire(faults.TRUNCATE_STORE_WRITE)
    assert injector.fire(faults.DROP_RESPONSE)
    assert not injector.fire(faults.DROP_RESPONSE)
    # unconfigured sites never fire and cost only a dict lookup
    assert not injector.fire(faults.KILL_WORKER_MID_JOB)


def test_fault_injector_empty_spec_never_fires():
    injector = faults.FaultInjector("")
    for site in (faults.KILL_WORKER_MID_JOB, faults.DROP_RESPONSE,
                 faults.STALL_HEARTBEAT, faults.TRUNCATE_STORE_WRITE):
        assert injector.fire(site) is False
    assert injector.fired == {}


def test_fault_injector_rejects_nonpositive_trigger():
    with pytest.raises(ValueError):
        faults.FaultInjector("drop-response:0")


def test_fault_injector_env_activation(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, "drop-response:2")
    faults.activate("")  # clear whatever earlier tests installed
    monkeypatch.setattr(faults, "_injector", None)  # force re-read of env
    assert not faults.fire(faults.DROP_RESPONSE)
    assert faults.fire(faults.DROP_RESPONSE)
    faults.activate("")  # leave no armed injector behind


# --------------------------------------------------------------------- #
# LeaseQueue basics


def test_lease_grant_complete_drain():
    jobs = make_jobs(3)
    queue = LeaseQueue(jobs, lease_timeout_s=30, clock=FakeClock())
    granted = queue.lease("w1", max_jobs=2)
    assert [j.content_hash for j in granted] == [j.content_hash for j in jobs[:2]]
    for job in granted:
        reply = queue.complete("w1", record_for(job))
        assert reply == {"accepted": True, "final": True}
    assert not queue.finished()
    (last,) = queue.lease("w1", max_jobs=5)
    queue.complete("w1", record_for(last))
    assert queue.finished()
    assert queue.state == "done"
    drained = queue.drain_done()
    assert sorted(r["job_hash"] for r in drained) == sorted(
        j.content_hash for j in jobs)
    assert queue.drain_done() == []  # each record exactly once
    assert queue.stats["leases_granted"] == 3
    assert queue.stats["completions"] == 3
    assert queue.stats["duplicates"] == 0


def test_lease_expiry_requeues_and_strikes():
    clock = FakeClock()
    jobs = make_jobs(1)
    queue = LeaseQueue(jobs, lease_timeout_s=10, clock=clock)
    (job,) = queue.lease("w1")
    assert queue.expire() == []  # not yet
    clock.advance(10.5)
    assert queue.expire() == [job.content_hash]
    assert queue.stats["leases_expired"] == 1
    assert queue.stats["retries"] == 1
    info = next(w for w in queue.workers() if w.worker_id == "w1")
    assert info.strikes == 1
    # the job is leasable again, attempt bumped
    (again,) = queue.lease("w2")
    assert again.content_hash == job.content_hash
    queue.complete("w2", record_for(again))
    assert queue.finished()


def test_heartbeat_renews_lease():
    clock = FakeClock()
    queue = LeaseQueue(make_jobs(1), lease_timeout_s=10, clock=clock)
    queue.lease("w1")
    clock.advance(8)
    assert queue.heartbeat("w1")["renewed"] == 1
    clock.advance(8)  # 16s in, but renewed at 8s -> deadline 18s
    assert queue.expire() == []
    clock.advance(3)
    assert len(queue.expire()) == 1


def test_max_lease_cap_beats_heartbeat():
    clock = FakeClock()
    queue = LeaseQueue(make_jobs(1), lease_timeout_s=10, max_lease_s=25,
                       clock=clock)
    queue.lease("w1")
    for _ in range(4):  # heartbeat every 8s: alive but wedged
        clock.advance(8)
        queue.heartbeat("w1")
    # 32s > max_lease_s: the renewed deadline was capped at granted_at + 25
    assert len(queue.expire()) == 1
    assert queue.stats["leases_expired"] == 1


def test_error_record_retries_then_finalizes():
    queue = LeaseQueue(make_jobs(1), lease_timeout_s=30, max_attempts=2,
                       clock=FakeClock())
    (job,) = queue.lease("w1")
    reply = queue.complete("w1", record_for(job, status="error"))
    assert reply == {"accepted": False, "final": False}
    assert queue.stats["errors_retried"] == 1
    assert not queue.finished()
    (again,) = queue.lease("w2")
    reply = queue.complete("w2", record_for(again, status="error"))
    assert reply == {"accepted": True, "final": True}
    assert queue.stats["errors_final"] == 1
    assert queue.finished()
    (record,) = queue.drain_done()
    assert record["status"] == "error"


def test_poison_job_expiry_converges_to_error_record():
    clock = FakeClock()
    queue = LeaseQueue(make_jobs(1), lease_timeout_s=5, max_attempts=2,
                       quarantine_strikes=99, clock=clock)
    for attempt in range(2):  # every worker that touches the job dies
        queue.lease(f"w{attempt}")
        clock.advance(6)
        queue.expire()
    assert queue.finished()
    assert queue.stats["expiries_final"] == 1
    (record,) = queue.drain_done()
    assert record["status"] == "error"
    assert "lease expired" in record["error"]
    assert record["provenance"]["last_worker"] == "w1"
    assert record["job_hash"] == make_jobs(1)[0].content_hash


def test_synthesized_error_records_round_trip_through_job_record():
    """Timeout, worker-death and lease-expiry records are JobRecord dicts."""
    clock = FakeClock()
    queue = LeaseQueue(make_jobs(1), lease_timeout_s=5, max_attempts=1,
                       quarantine_strikes=99, clock=clock)
    queue.lease("w0")
    clock.advance(6)
    queue.expire()
    (expired,) = queue.drain_done()
    job = make_jobs(1)[0]
    for record in (expired, timeout_record(job, 2.5),
                   worker_died_record(job, -9, 1.25)):
        assert record["status"] == "error" and record["result"] is None
        assert JobRecord.from_dict(record).to_dict() == record


def test_duplicate_completion_is_idempotent():
    queue = LeaseQueue(make_jobs(1), lease_timeout_s=30, clock=FakeClock())
    (job,) = queue.lease("w1")
    assert queue.complete("w1", record_for(job))["accepted"]
    dup = queue.complete("w2", record_for(job))
    assert dup == {"accepted": False, "final": True}
    assert queue.stats["duplicates"] == 1
    assert queue.stats["completions"] == 1
    assert len(queue.drain_done()) == 1  # the duplicate never reaches the store


def test_stale_completion_after_expiry_wins_once():
    # w1's lease expires, the job is re-queued — then w1's completion lands
    # anyway.  It must count once, and the re-queued copy must never be
    # granted again.
    clock = FakeClock()
    queue = LeaseQueue(make_jobs(1), lease_timeout_s=5, clock=clock)
    (job,) = queue.lease("w1")
    clock.advance(6)
    queue.expire()
    assert queue.complete("w1", record_for(job))["accepted"]
    assert queue.finished()
    assert queue.lease("w2") == []  # done job is not re-granted
    assert len(queue.drain_done()) == 1


def test_unknown_job_hash_rejected():
    queue = LeaseQueue(make_jobs(1), clock=FakeClock())
    bogus = record_for(Job(workload="BS", scheme="E2MC", scale=TINY))
    reply = queue.complete("w1", bogus)
    assert reply["accepted"] is False and reply.get("unknown") is True


def test_worker_quarantine_requeues_and_refuses():
    clock = FakeClock()
    jobs = make_jobs(4)
    queue = LeaseQueue(jobs, lease_timeout_s=30, max_attempts=10,
                       quarantine_strikes=2, clock=clock)
    granted = queue.lease("bad", max_jobs=3)
    assert len(granted) == 3
    # two error returns = two strikes = quarantine; the third lease re-queued
    queue.complete("bad", record_for(granted[0], status="error"))
    queue.complete("bad", record_for(granted[1], status="error"))
    info = next(w for w in queue.workers() if w.worker_id == "bad")
    assert info.quarantined
    assert queue.stats["workers_quarantined"] == 1
    assert queue.lease("bad") == []
    assert queue.heartbeat("bad")["quarantined"] is True
    # a healthy worker can still drain the whole campaign
    remaining = queue.lease("good", max_jobs=10)
    assert len(remaining) == 4
    for job in remaining:
        queue.complete("good", record_for(job))
    assert queue.finished()


def test_release_requeues_leases():
    queue = LeaseQueue(make_jobs(2), lease_timeout_s=30, clock=FakeClock())
    queue.lease("w1", max_jobs=2)
    assert queue.release("w1") == 2
    assert queue.stats["workers_left"] == 1
    assert len(queue.lease("w2", max_jobs=2)) == 2


def test_close_stops_granting():
    queue = LeaseQueue(make_jobs(2), clock=FakeClock())
    queue.close()
    assert queue.state == "done"
    assert queue.lease("w1") == []


def test_active_workers_horizon():
    clock = FakeClock()
    queue = LeaseQueue(make_jobs(1), clock=clock)
    queue.register("w1")
    clock.advance(5)
    queue.register("w2")
    assert queue.active_workers(horizon_s=10) == 2
    assert queue.active_workers(horizon_s=3) == 1
    clock.advance(20)
    assert queue.active_workers(horizon_s=10) == 0


def test_counts_snapshot_and_validation():
    queue = LeaseQueue(make_jobs(3), clock=FakeClock())
    queue.lease("w1")
    counts = queue.counts()
    assert counts["total"] == 3 and counts["pending"] == 2
    assert counts["leased"] == 1 and counts["done"] == 0
    assert counts["state"] == "active"
    assert set(counts["stats"]) == set(STAT_KEYS)
    with pytest.raises(ValueError):
        LeaseQueue(make_jobs(1), lease_timeout_s=0)
    with pytest.raises(ValueError):
        LeaseQueue(make_jobs(1), max_attempts=0)
    with pytest.raises(ValueError):
        LeaseQueue(make_jobs(1), quarantine_strikes=0)


# --------------------------------------------------------------------- #
# property: lease expiry + re-execution never duplicates or loses records


@settings(max_examples=60, deadline=None)
@given(
    n_jobs=st.integers(min_value=1, max_value=6),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["lease", "ok", "err", "expire", "heartbeat"]),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=40,
    ),
)
def test_property_every_cell_exactly_once(n_jobs, ops):
    """Any interleaving of lease/complete/expiry converges to exactly one
    store record per job — no duplicates, no missing cells."""
    clock = FakeClock()
    jobs = make_jobs(n_jobs)
    by_hash = {j.content_hash: j for j in jobs}
    queue = LeaseQueue(jobs, lease_timeout_s=10, max_attempts=3,
                       quarantine_strikes=4, clock=clock)
    held: dict[str, list] = defaultdict(list)
    drained: list[dict] = []
    for op, widx in ops:
        worker = f"w{widx}"
        if op == "lease":
            held[worker].extend(queue.lease(worker))
        elif op in ("ok", "err"):
            if held[worker]:
                job = held[worker].pop(0)
                status = "ok" if op == "ok" else "error"
                queue.complete(worker, record_for(job, status=status))
        elif op == "expire":
            clock.advance(11)
            queue.expire()
        elif op == "heartbeat":
            queue.heartbeat(worker)
        drained.extend(queue.drain_done())
    # deterministic cleanup: a fresh worker finishes whatever is left
    rounds = 0
    while not queue.finished():
        rounds += 1
        assert rounds < 10 * n_jobs + 10, "queue failed to converge"
        clock.advance(11)
        queue.expire()
        for job in queue.lease("finisher", max_jobs=n_jobs):
            queue.complete("finisher", record_for(job))
        drained.extend(queue.drain_done())
    drained.extend(queue.drain_done())
    hashes = [r["job_hash"] for r in drained]
    assert sorted(hashes) == sorted(by_hash), (
        "drained records must cover every job exactly once")
    assert queue.counts()["done"] == n_jobs


# --------------------------------------------------------------------- #
# CampaignService protocol (transport-free)


def make_service(n_jobs: int = 2, injector_spec: str = "",
                 **queue_kwargs) -> tuple[CampaignService, list[Job]]:
    jobs = make_jobs(n_jobs)
    queue_kwargs.setdefault("clock", FakeClock())
    queue = LeaseQueue(jobs, **queue_kwargs)
    service = CampaignService(queue, injector=faults.FaultInjector(injector_spec))
    return service, jobs


def test_service_status_endpoint():
    service, _ = make_service(3)
    status, body = service.handle("GET", "/status", {})
    assert status == 200
    assert body["total"] == 3 and body["state"] == "active"


def test_service_rejects_bad_requests():
    service, _ = make_service()
    assert service.handle("GET", "/lease", {})[0] == 405
    assert service.handle("POST", "/nope", {"worker_id": "w"})[0] == 404
    assert service.handle("POST", "/lease", {})[0] == 400  # no worker_id
    status, body = service.handle("POST", "/complete", {"worker_id": "w"})
    assert status == 400 and "record" in body["error"]


def test_service_join_lease_complete_roundtrip():
    service, jobs = make_service(1, lease_timeout_s=12)
    status, joined = service.handle(
        "POST", "/join", {"worker_id": "w1", "host": "h", "pid": 1})
    assert status == 200 and joined["ok"]
    assert joined["lease_timeout_s"] == 12
    assert joined["heartbeat_s"] == pytest.approx(4.0)
    assert isinstance(joined["obs"], dict)
    status, leased = service.handle(
        "POST", "/lease", {"worker_id": "w1", "max_jobs": 1})
    assert status == 200 and len(leased["jobs"]) == 1
    assert leased["jobs"][0]["workload"] == "NN"
    status, hb = service.handle("POST", "/heartbeat", {"worker_id": "w1"})
    assert status == 200 and hb["renewed"] == 1
    status, ack = service.handle("POST", "/complete", {
        "worker_id": "w1", "record": record_for(jobs[0])})
    assert status == 200 and ack["accepted"] and ack["final"]
    assert ack["state"] == "done"
    status, bye = service.handle("POST", "/leave", {"worker_id": "w1"})
    assert status == 200 and bye["ok"]


def test_service_drop_response_fault_then_idempotent_retry():
    service, jobs = make_service(1, injector_spec="drop-response:1")
    service.handle("POST", "/lease", {"worker_id": "w1"})
    record = record_for(jobs[0])
    status, body = service.handle(
        "POST", "/complete", {"worker_id": "w1", "record": record})
    assert status == 503 and "drop-response" in body["error"]
    # the worker retries the identical request; it must succeed and the
    # record must land exactly once
    status, ack = service.handle(
        "POST", "/complete", {"worker_id": "w1", "record": record})
    assert status == 200 and ack["accepted"]
    assert service.queue.stats["completions"] == 1
    assert service.queue.stats["duplicates"] == 0
