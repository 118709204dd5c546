"""BENCH-T — batched lossless size kernels vs. the per-block scalar path.

The tournament study runs every registry scheme over every workload, which
is only tractable because the classic schemes (BDI, FPC, C-Pack, BPC) now
size whole regions through the vectorized kernels of
:mod:`repro.kernels.lossless` instead of bit-encoding block by block in
Python.  This benchmark measures that promotion per scheme over real
workload blocks and asserts a geometric-mean speedup floor, plus a smoke of
the tournament study itself at a tiny scale.  ``--quick`` is the
CI smoke mode (fewer workloads, relaxed floor).
"""

from __future__ import annotations

import time

from repro.compression.registry import get_compressor
from repro.compression.stats import geometric_mean
from repro.studies.tournament import TournamentStudy
from repro.utils.blocks import array_to_blocks
from repro.workloads.registry import PAPER_WORKLOAD_ORDER, get_workload

SCHEMES = ("bdi", "fpc", "cpack", "bpc")
QUICK_WORKLOADS = ("NN", "SRAD1")
FULL_WORKLOADS = ("BS", "NN", "FWT", "DCT", "SRAD1")
#: acceptance target for the full sweep slice
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


def test_bench_lossless_size_kernels(benchmark, slc_scale, quick,
                                     bench_record):
    """Batched size analysis vs. per-block compress for the classic schemes."""
    names = QUICK_WORKLOADS if quick else FULL_WORKLOADS
    floor = QUICK_SPEEDUP_FLOOR if quick else FULL_SPEEDUP_FLOOR

    blocks = [
        block for name in names for block in _workload_blocks(name, slc_scale)
    ]
    speedups: dict[str, float] = {}
    rows = []
    for scheme in SCHEMES:
        compressor = get_compressor(scheme)
        scalar_s = _time(
            lambda: [
                compressor.compress(block).compressed_size_bits for block in blocks
            ],
            repeats=2,
        )
        batch_s = _time(lambda: compressor.compressed_size_bits_batch(blocks))
        speedups[scheme] = scalar_s / batch_s
        rows.append(
            f"{scheme:<6} {len(blocks):>6} blocks  scalar {scalar_s * 1e3:8.2f} ms  "
            f"batch {batch_s * 1e3:8.2f} ms  speedup {speedups[scheme]:6.1f}x"
        )

    gm = geometric_mean(list(speedups.values()))
    print()
    print("BENCH-T — batched lossless size kernels vs. per-block compress")
    for row in rows:
        print(row)
    print(f"{'GM':<6} {'':>14}  speedup {gm:6.1f}x  (floor {floor:.0f}x)")
    bench_record(
        f"lossless_kernels_gm_speedup{'_quick' if quick else ''}", gm
    )

    # time one batched pass under pytest-benchmark for the report
    bdi = get_compressor("bdi")
    benchmark.pedantic(
        lambda: bdi.compressed_size_bits_batch(blocks), rounds=3, iterations=1
    )

    assert gm >= floor, f"batched size kernels only {gm:.1f}x over scalar (floor {floor}x)"


def test_bench_tournament_study_smoke(slc_scale, quick):
    """The tournament study end-to-end: every scheme cell present and sane."""
    workloads = QUICK_WORKLOADS if quick else FULL_WORKLOADS
    study = TournamentStudy(
        workloads=workloads,
        mags=(32,),
        scale=min(slc_scale, 1.0 / 1024.0),
        compute_error=False,
    )
    start = time.perf_counter()
    result = study.run()
    elapsed = time.perf_counter() - start
    cells = [r for r in result.rows if r["workload"] != "GM"]
    print(
        f"\ntournament: {len(cells)} cells over {len(workloads)} workloads "
        f"in {elapsed:.1f} s; frontier @32B = {result.data['frontier'][32]}"
    )
    assert len(cells) == len(workloads) * len(study.schemes)
    assert result.data["frontier"][32]
