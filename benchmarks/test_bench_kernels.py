"""BENCH-K — the batched SLC store vs. the per-block scalar store.

Measures the SLC store hot path — code lengths, Fig. 4 decision, adder tree
and the TSLC reconstruction of the lossy blocks — over all blocks of each
paper workload's regions, comparing the batched
``SLCBackend.store_batch`` (``decide`` then ``from_decisions``, on the
kernels of :mod:`repro.kernels`) against the per-block ``SLCBackend.store``
loop that is its oracle, plus the end-to-end effect on one campaign job.
Full mode (the default) sweeps all nine workloads and asserts the ≥5×
speedup target; ``--quick`` is the CI smoke mode (three workloads,
relaxed floor) so the batch path is exercised on every push.
"""

from __future__ import annotations

import time

from repro.campaign.spec import Job
from repro.campaign.worker import simulate_job
from repro.compression.stats import geometric_mean
from repro.core.config import SLCConfig, SLCVariant
from repro.core.slc import SLCCompressor
from repro.gpu.backends import SLCBackend
from repro.utils.blocks import array_to_blocks, as_block_rows
from repro.utils.sampling import sample_evenly
from repro.workloads.registry import PAPER_WORKLOAD_ORDER, get_workload

QUICK_WORKLOADS = ("NN", "FWT", "DCT")
#: acceptance target for the full 9-workload sweep slice
FULL_SPEEDUP_FLOOR = 5.0
#: relaxed floor for the CI smoke run (shared runners are noisy)
QUICK_SPEEDUP_FLOOR = 2.0


def _workload_blocks(name: str, scale: float) -> list[bytes]:
    workload = get_workload(name, scale=scale, seed=2019)
    return [
        block
        for region in workload.generate().values()
        for block in array_to_blocks(region.array)
    ]


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_kernels_analyze_speedup(benchmark, slc_scale, quick,
                                       bench_record):
    """store_batch vs. per-block store over a paper-workload sweep slice."""
    names = QUICK_WORKLOADS if quick else PAPER_WORKLOAD_ORDER
    floor = QUICK_SPEEDUP_FLOOR if quick else FULL_SPEEDUP_FLOOR
    config = SLCConfig(variant=SLCVariant.OPT)

    speedups: dict[str, float] = {}
    rows = []
    for name in names:
        blocks = _workload_blocks(name, slc_scale)
        matrix = as_block_rows(blocks)
        backend = SLCBackend(SLCCompressor(config))
        backend.train(sample_evenly(blocks, 1024))

        scalar_s = _time(lambda: [backend.store(block) for block in blocks])
        batch_s = _time(lambda: backend.store_batch(matrix))
        speedups[name] = scalar_s / batch_s
        rows.append(
            f"{name:<8} {len(blocks):>6} blocks  scalar {scalar_s * 1e3:8.2f} ms  "
            f"batch {batch_s * 1e3:8.2f} ms  speedup {speedups[name]:6.1f}x"
        )

    gm = geometric_mean(list(speedups.values()))
    print()
    print("BENCH-K — batched SLC store vs. per-block scalar store")
    for row in rows:
        print(row)
    print(f"{'GM':<8} {'':>14}  speedup {gm:6.1f}x  (floor {floor:.0f}x)")
    bench_record(f"kernels_gm_speedup{'_quick' if quick else ''}", gm)

    # time the batched store once more under pytest-benchmark for the report
    blocks = _workload_blocks(names[0], slc_scale)
    backend = SLCBackend(SLCCompressor(config))
    backend.train(sample_evenly(blocks, 1024))
    matrix = as_block_rows(blocks)
    benchmark.pedantic(lambda: backend.store_batch(matrix), rounds=3, iterations=1)

    assert gm >= floor, f"batched store only {gm:.1f}x over scalar (floor {floor}x)"


def test_bench_kernels_end_to_end_job(slc_scale, quick, bench_record):
    """Batched store phase must not slow down a full campaign job.

    The batched side runs the job's default path: vectorized analysis and
    reconstruction in every store, and the vectorized replay.  The scalar
    side is the n = 1 oracle (``replay_mode="scalar"``): per-block stores
    and the per-access replay loop.
    """
    job = Job(
        workload="NN",
        scheme="TSLC-OPT",
        scale=slc_scale,
        seed=2019,
        compute_error=False,
    )
    batch_s = _time(lambda: simulate_job(job, replay_mode="vectorized"), repeats=2)
    scalar_s = _time(lambda: simulate_job(job, replay_mode="scalar"), repeats=2)
    print(
        f"\nend-to-end NN/TSLC-OPT job: scalar {scalar_s * 1e3:.1f} ms, "
        f"batch {batch_s * 1e3:.1f} ms ({scalar_s / batch_s:.2f}x)"
    )
    # Absolute seconds are machine-dependent: trajectory context, not a gate.
    bench_record(
        "job_nn_tslc_opt_s", batch_s, unit="s", higher_is_better=False, gate=False,
    )
    # Stores and replay are only part of a job (training and the workload
    # kernel are shared), so the end-to-end win is smaller than the
    # kernel-level one; it must at minimum never be a regression.
    assert batch_s <= scalar_s * 1.10
