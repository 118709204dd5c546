"""Benchmark for the distributed campaign path: coordination overhead.

Runs the same tiny sweep twice — once on the in-process pool, once through
a loopback coordinator with two thread workers driving the real HTTP
protocol (join/lease/heartbeat/complete) — and reports the wall-clock
overhead the lease machinery adds, per job.  The difference is recorded
signed: a negative value (the loopback run finished first) is a
measurement, not an error to clamp away.  The metric is informational
(``gate=False``): loopback latency says nothing about a real network, but
a sudden regression here would flag protocol bloat (e.g. chatty polling or
a serialization slip) before it hits a real cluster.
"""

from __future__ import annotations

import threading
import time

from repro.campaign import (
    CampaignCoordinator,
    CampaignSpec,
    run_campaign,
    run_worker,
)


def _spec(scale: float, workloads=("BS", "NN")) -> CampaignSpec:
    return CampaignSpec(
        name="bench-dist",
        workloads=tuple(workloads),
        schemes=("E2MC", "TSLC-OPT"),
        scales=(scale,),
        compute_error=False,
    )


def _run_distributed(spec: CampaignSpec, n_workers: int = 2):
    coordinator = CampaignCoordinator(
        spec.expand(), spec=spec, port=0,
        lease_timeout_s=30, fallback_workers=0, poll_s=0.02,
    )
    coordinator.start()
    threads = [
        threading.Thread(
            target=run_worker,
            args=(coordinator.url,),
            kwargs={"worker_id": f"bench-w{i}", "poll_s": 0.02},
            daemon=True,
        )
        for i in range(n_workers)
    ]
    for thread in threads:
        thread.start()
    outcome = coordinator.serve()
    for thread in threads:
        thread.join(timeout=30)
    return outcome


def test_bench_distributed_loopback_overhead(benchmark, slc_scale,
                                             distributed_quick, bench_record):
    """Loopback distributed run vs the in-process pool on the same grid."""
    scale = 1.0 / 2048.0 if distributed_quick else slc_scale
    workloads = ("NN",) if distributed_quick else ("BS", "NN")
    spec = _spec(scale, workloads)
    n_jobs = len(spec.expand())

    start = time.perf_counter()
    local = run_campaign(spec, workers=2)
    local_s = time.perf_counter() - start
    local.raise_for_failures()

    outcome = benchmark.pedantic(
        lambda: _run_distributed(spec), rounds=1, iterations=1)
    distributed_s = benchmark.stats.stats.mean

    assert outcome.n_missing == 0
    assert outcome.n_failed == 0
    assert outcome.n_executed == n_jobs
    assert outcome.queue_stats["completions"] == n_jobs
    assert outcome.queue_stats["leases_expired"] == 0  # healthy workers

    per_job_ms = 1000.0 * (distributed_s - local_s) / n_jobs
    print(
        f"\nin-process {local_s:.2f}s, distributed loopback "
        f"{distributed_s:.2f}s over {n_jobs} jobs "
        f"(overhead {per_job_ms:+.0f}ms/job)"
    )
    suffix = "_quick" if distributed_quick else ""
    bench_record(
        f"distributed_loopback_overhead_per_job_ms{suffix}",
        per_job_ms, unit="ms", higher_is_better=False, gate=False,
    )
