"""Integration tests for distributed campaigns and executor robustness.

The loopback tests here run a real coordinator (``port=0`` to avoid
collisions) with workers either in threads (deterministic, fast) or as
subprocesses (when actual process death is the thing under test).  Fault
injection is armed through :mod:`repro.campaign.faults` — programmatically
for in-process sites, via ``REPRO_FAULT_SPEC`` for worker subprocesses.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.campaign.executor as executor_mod
from repro.campaign import (
    CampaignCoordinator,
    CampaignResult,
    CampaignSpec,
    CoordinatorClient,
    Job,
    ResultStore,
    faults,
    run_campaign,
    run_jobs,
    run_worker,
    serve_campaign,
)
from repro.campaign.cli import main as cli_main
from repro.campaign.queue import STAT_KEYS
from repro.campaign.remote import _Heartbeat
from repro.campaign.worker import execute_job as real_execute_job

#: 1/2048 scale: a NN cell simulates in well under a second
TINY_DIST = 1.0 / 2048.0

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _clean_faults():
    """No test leaks an armed fault injector into its neighbours."""
    faults.activate("")
    yield
    faults.activate("")


def dist_spec(schemes=("E2MC", "TSLC-OPT")) -> CampaignSpec:
    return CampaignSpec(workloads=("NN",), schemes=tuple(schemes),
                        scales=(TINY_DIST,), compute_error=False)


def worker_cmd(url: str, *extra: str) -> list[str]:
    # NOTE: top-level flags like -q must precede the subcommand
    return [sys.executable, "-m", "repro", "-q", "campaign", "worker",
            "--url", url, "--poll", "0.1", *extra]


def worker_env(**overrides: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(faults.ENV_VAR, None)
    env.update(overrides)
    return env


# --------------------------------------------------------------------- #
# the marquee fault-injection test: SIGKILL a worker mid-job


def test_worker_sigkill_recovery_matches_inprocess(tmp_path):
    """A worker SIGKILLed mid-job must cost nothing: its lease expires, the
    job re-runs elsewhere, and the final store is drift-free against a
    single-process run of the same grid."""
    spec = dist_spec()
    store = ResultStore(tmp_path / "dist")
    coordinator = CampaignCoordinator(
        spec.expand(), spec=spec, store=store, port=0,
        lease_timeout_s=2.0, grace_s=120, fallback_workers=0, poll_s=0.05,
    )
    coordinator.start()
    doomed = subprocess.Popen(
        worker_cmd(coordinator.url),
        env=worker_env(**{faults.ENV_VAR: f"{faults.KILL_WORKER_MID_JOB}:1"}),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # let the doomed worker grab (and die on) the first lease before the
    # clean worker joins, so the recovery path definitely exercises
    deadline = time.monotonic() + 30
    while coordinator.queue.stats["leases_granted"] < 1:
        assert time.monotonic() < deadline, "doomed worker never leased"
        time.sleep(0.02)
    clean = subprocess.Popen(
        worker_cmd(coordinator.url), env=worker_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    outcome = coordinator.serve()
    assert doomed.wait(timeout=30) == -signal.SIGKILL
    assert clean.wait(timeout=30) == 0

    assert outcome.n_missing == 0
    assert outcome.n_failed == 0
    assert not outcome.interrupted
    assert outcome.queue_stats["leases_expired"] >= 1
    assert outcome.queue_stats["retries"] >= 1

    ref_store = ResultStore(tmp_path / "ref")
    ref = run_campaign(spec, store=ref_store)
    assert ref.n_failed == 0
    assert cli_main(["campaign", "diff",
                     str(tmp_path / "dist"), str(tmp_path / "ref")]) == 0


# --------------------------------------------------------------------- #
# thread-based loopback (deterministic transports)


def test_thread_worker_completes_campaign_and_local_store_agrees(tmp_path):
    spec = dist_spec()
    store = ResultStore(tmp_path / "dist")
    coordinator = CampaignCoordinator(
        spec.expand(), spec=spec, store=store, port=0,
        lease_timeout_s=30, fallback_workers=0, poll_s=0.05,
    )
    coordinator.start()
    local = ResultStore(tmp_path / "worker-view")
    summaries: list = []
    thread = threading.Thread(
        target=lambda: summaries.append(
            run_worker(coordinator.url, worker_id="t1", store=local,
                       poll_s=0.05)),
        daemon=True,
    )
    thread.start()
    outcome = coordinator.serve()
    thread.join(timeout=30)
    assert not thread.is_alive()
    (summary,) = summaries
    assert summary.reason == "done"
    assert summary.executed == outcome.n_executed == 2
    assert outcome.n_missing == 0
    # the worker's local store must agree with the coordinator's on every
    # cell it holds (here: all of them, it was the only worker)
    assert cli_main(["campaign", "diff", "--allow-missing",
                     str(tmp_path / "worker-view"), str(tmp_path / "dist")]) == 0
    assert cli_main(["campaign", "diff",
                     str(tmp_path / "worker-view"), str(tmp_path / "dist")]) == 0


def test_drop_response_fault_is_retried_idempotently(tmp_path):
    """A lost /complete ack forces a client retry; the retry must land the
    record exactly once."""
    spec = dist_spec(schemes=("E2MC",))
    store = ResultStore(tmp_path / "dist")
    coordinator = CampaignCoordinator(
        spec.expand(), spec=spec, store=store, port=0,
        lease_timeout_s=30, fallback_workers=0, poll_s=0.05,
        injector=faults.FaultInjector(f"{faults.DROP_RESPONSE}:1"),
    )
    coordinator.start()
    client = CoordinatorClient(coordinator.url, backoff_s=0.01,
                               backoff_cap_s=0.05)
    summaries: list = []
    thread = threading.Thread(
        target=lambda: summaries.append(
            run_worker(coordinator.url, worker_id="t1", client=client,
                       poll_s=0.05)),
        daemon=True,
    )
    thread.start()
    outcome = coordinator.serve()
    thread.join(timeout=30)
    (summary,) = summaries
    assert outcome.n_missing == 0
    assert summary.executed == 1
    assert summary.transport_retries >= 1
    assert outcome.queue_stats["completions"] == 1
    assert outcome.queue_stats["duplicates"] == 0


def test_fallback_to_inprocess_when_no_workers_join(tmp_path):
    spec = dist_spec(schemes=("E2MC",))
    store = ResultStore(tmp_path / "dist")
    outcome = serve_campaign(spec, store=store, port=0, grace_s=0.3,
                             fallback_workers=1, poll_s=0.05)
    assert outcome.n_missing == 0
    assert outcome.n_failed == 0
    assert outcome.queue_stats["leases_granted"] == 0  # nobody ever joined


def test_worker_exits_cleanly_when_coordinator_unreachable():
    client = CoordinatorClient("http://127.0.0.1:9", timeout_s=0.3,
                               max_tries=2, backoff_s=0.01)
    summary = run_worker("http://127.0.0.1:9", worker_id="w", client=client)
    assert summary.reason == "unreachable"
    assert summary.executed == 0


def test_worker_max_idle_exits(tmp_path):
    """A worker pointed at a coordinator with nothing to lease winds down."""
    spec = dist_spec(schemes=("E2MC",))
    store = ResultStore(tmp_path / "dist")
    coordinator = CampaignCoordinator(
        spec.expand(), spec=spec, store=store, port=0,
        lease_timeout_s=30, fallback_workers=0, poll_s=0.05,
    )
    coordinator.start()
    try:
        # first worker takes the only job but never completes it; second
        # worker finds the queue empty and gives up after max_idle_s
        assert len(coordinator.queue.lease("hog")) == 1
        summary = run_worker(coordinator.url, worker_id="idler",
                             poll_s=0.05, max_idle_s=0.2)
        assert summary.reason == "idle"
        assert summary.executed == 0
    finally:
        coordinator.stop()


# --------------------------------------------------------------------- #
# heartbeat behaviour (unit-level, fake client)


class _RecordingClient:
    def __init__(self, reply: dict | None = None) -> None:
        self.calls: list[str] = []
        self.reply = reply or {"ok": True, "quarantined": False}

    def call(self, path: str, payload: dict | None = None,
             max_tries: int | None = None) -> dict:
        self.calls.append(path)
        return self.reply


def test_heartbeat_stall_fault_goes_permanently_silent():
    faults.activate(f"{faults.STALL_HEARTBEAT}:1")
    client = _RecordingClient()
    heartbeat = _Heartbeat(client, "w1", period_s=0.05)
    heartbeat.active.set()
    heartbeat.start()
    time.sleep(0.4)
    heartbeat.stop()
    heartbeat.join(timeout=2)
    assert heartbeat.stalled is True
    assert client.calls == []  # stalled before the first renewal went out


def test_heartbeat_renews_and_detects_quarantine():
    client = _RecordingClient(reply={"ok": False, "quarantined": True})
    heartbeat = _Heartbeat(client, "w1", period_s=0.05)
    heartbeat.active.set()
    heartbeat.start()
    deadline = time.monotonic() + 5
    while not heartbeat.quarantined and time.monotonic() < deadline:
        time.sleep(0.02)
    heartbeat.stop()
    heartbeat.join(timeout=2)
    assert heartbeat.quarantined is True
    assert client.calls and all(path == "/heartbeat" for path in client.calls)


# --------------------------------------------------------------------- #
# job_timeout and worker death: a lost job becomes a captured error


def _wedge(job_dict: dict) -> dict:
    time.sleep(60)
    raise AssertionError("unreachable")


def _wedge_odd_seeds(job_dict: dict) -> dict:
    if job_dict.get("seed", 0) % 2:
        time.sleep(60)
    return real_execute_job(job_dict)


def test_job_timeout_converts_wedged_jobs_to_error_records(monkeypatch):
    monkeypatch.setattr(executor_mod, "execute_job", _wedge)
    jobs = [Job(workload="NN", scheme="E2MC", scale=TINY_DIST,
                compute_error=False, seed=i) for i in range(2)]
    start = time.monotonic()
    outcome = run_jobs(None, jobs, workers=2, job_timeout=0.5)
    assert time.monotonic() - start < 30  # did not wait out the sleep(60)
    assert outcome.n_missing == 0
    assert outcome.n_failed == 2
    for _, record in outcome.iter_records():
        assert record.provenance.get("timed_out") is True
        assert "job_timeout" in (record.error or "")


def test_job_timeout_spares_healthy_jobs(monkeypatch, tmp_path):
    monkeypatch.setattr(executor_mod, "execute_job", _wedge_odd_seeds)
    store = ResultStore(tmp_path / "camp")
    jobs = [Job(workload="NN", scheme="E2MC", scale=TINY_DIST,
                compute_error=False, seed=i) for i in range(2)]
    outcome = run_jobs(None, jobs, store=store, workers=2, job_timeout=2.0)
    by_seed = {job.seed: record for job, record in outcome.iter_records()}
    assert by_seed[0].ok
    assert not by_seed[1].ok and by_seed[1].provenance.get("timed_out")
    # failed cells are not served from cache: a re-run retries them
    monkeypatch.setattr(executor_mod, "execute_job", real_execute_job)
    retried = run_jobs(None, jobs, store=store, workers=1)
    assert retried.n_cached == 1 and retried.n_executed == 1
    assert retried.n_failed == 0


def _die_on_seed_one(job_dict: dict) -> dict:
    if job_dict.get("seed") == 1:
        os._exit(9)
    return real_execute_job(job_dict)


def test_pool_worker_death_costs_only_its_job(monkeypatch, tmp_path):
    monkeypatch.setattr(executor_mod, "execute_job", _die_on_seed_one)
    store = ResultStore(tmp_path / "camp")
    jobs = [Job(workload="NN", scheme="E2MC", scale=TINY_DIST,
                compute_error=False, seed=i) for i in range(4)]
    outcome = run_jobs(None, jobs, store=store, workers=2)
    assert outcome.n_failed == 1 and outcome.n_missing == 0
    by_seed = {job.seed: record for job, record in outcome.iter_records()}
    assert all(by_seed[seed].ok for seed in (0, 2, 3))
    assert by_seed[1].provenance.get("worker_died") is True
    assert by_seed[1].provenance.get("exitcode") == 9
    assert "exit code 9" in (by_seed[1].error or "")
    # only the dead process was replaced: the healthy cells ran on the
    # surviving worker and the replacement, two processes at most
    assert len({by_seed[seed].provenance["pid"] for seed in (0, 2, 3)}) <= 2
    # the died cell is retried, the others are served from the store
    monkeypatch.setattr(executor_mod, "execute_job", real_execute_job)
    retried = run_jobs(None, jobs, store=store, workers=2)
    assert retried.n_cached == 3 and retried.n_executed == 1
    assert retried.n_failed == 0


def test_job_timeout_noop_for_fast_jobs():
    jobs = [Job(workload="NN", scheme="E2MC", scale=TINY_DIST,
                compute_error=False, seed=i) for i in range(2)]
    outcome = run_jobs(None, jobs, workers=2, job_timeout=120.0)
    assert outcome.n_failed == 0 and outcome.n_missing == 0


# --------------------------------------------------------------------- #
# graceful Ctrl-C (satellite)


def test_keyboard_interrupt_keeps_finished_cells_and_resumes(monkeypatch,
                                                             tmp_path):
    calls = {"n": 0}

    def interrupt_on_second(job_dict: dict) -> dict:
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt
        return real_execute_job(job_dict)

    monkeypatch.setattr(executor_mod, "execute_job", interrupt_on_second)
    store = ResultStore(tmp_path / "camp")
    jobs = [Job(workload="NN", scheme="E2MC", scale=TINY_DIST,
                compute_error=False, seed=i) for i in range(3)]
    outcome = run_jobs(None, jobs, store=store, workers=1)
    assert outcome.interrupted is True
    assert len(outcome.records) == 1
    assert outcome.n_missing == 2
    # everything that finished is persisted: the re-run serves it cached
    monkeypatch.setattr(executor_mod, "execute_job", real_execute_job)
    resumed = run_jobs(None, jobs, store=store, workers=1)
    assert not resumed.interrupted
    assert resumed.n_cached == 1 and resumed.n_missing == 0


def test_cli_summary_interrupted_prints_resume_hint(tmp_path, capsys):
    from repro.campaign.cli import _summarize

    spec = dist_spec()
    store = ResultStore(tmp_path / "camp")
    outcome = CampaignResult(spec=spec, jobs=spec.expand())
    outcome.interrupted = True
    code = _summarize(outcome, spec, store, "3s", argparse.Namespace())
    assert code == 130
    out = capsys.readouterr().out
    assert "interrupted" in out
    assert "re-run the same command to resume" in out
    assert str(store.directory) in out


def test_cli_summary_distributed_line(tmp_path, capsys):
    from repro.campaign.cli import _summarize

    spec = dist_spec()
    store = ResultStore(tmp_path / "camp")
    outcome = CampaignResult(spec=spec, jobs=[])
    stats = dict.fromkeys(STAT_KEYS, 0)
    stats.update(leases_granted=3, leases_expired=1, retries=1,
                 workers_joined=2)
    outcome.queue_stats = stats
    code = _summarize(outcome, spec, store, "3s", argparse.Namespace())
    assert code == 0
    out = capsys.readouterr().out
    assert "distributed: 3 leases granted, 1 expired, 1 re-leased" in out
    assert "2 workers (0 quarantined)" in out
