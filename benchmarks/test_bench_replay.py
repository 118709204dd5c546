"""BENCH-R — vectorized trace replay vs. the per-access scalar loop.

Measures the kernel-execution phase of the simulator — L2 lookups plus the
memory-controller/MDC/DRAM miss path — over all nine paper workloads,
comparing the array engine (:mod:`repro.replay`) against the scalar
reference loop it replaces, plus the end-to-end effect on a memory-heavy
campaign job.  Full mode (the default) sweeps all nine workloads at a
trace-heavy scale and asserts the ≥5× geomean speedup target;
``--replay-quick`` is the CI smoke mode (three workloads, benchmark-default
scale, relaxed floor) so the vectorized path is exercised on every push.
"""

from __future__ import annotations

import dataclasses
import time

from repro.campaign.spec import Job
from repro.campaign.worker import build_backend, simulate_job
from repro.compression.stats import geometric_mean
from repro.obs.metrics import measure_peak_mib
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig
from repro.gpu.memory_controller import MemoryController
from repro.gpu.simulator import GPUSimulator
from repro.replay import replay_trace, replay_trace_scalar
from repro.utils.blocks import array_to_blocks
from repro.workloads.registry import PAPER_WORKLOAD_ORDER, get_workload

QUICK_WORKLOADS = ("NN", "FWT", "DCT")
#: trace-heavy scale for the full sweep (traces of 1k–30k accesses)
FULL_SCALE = 1.0 / 64.0
#: benchmark-default scale for the CI smoke run
QUICK_SCALE = 1.0 / 512.0
#: acceptance target for the full 9-workload sweep slice
FULL_SPEEDUP_FLOOR = 5.0
#: relaxed floor for the CI smoke run (shared runners are noisy)
QUICK_SPEEDUP_FLOOR = 2.0
#: end-to-end acceptance target on a memory-heavy job (full mode)
FULL_END_TO_END_FLOOR = 2.0
#: chunk budgets (compiled RLE entries) for the bounded-memory replay bench —
#: small enough that the full-mode trace spans many chunks
FULL_CHUNK_ACCESSES = 128
QUICK_CHUNK_ACCESSES = 32


class _ReplayContext:
    """Everything ``GPUSimulator.run`` sets up before the replay phase.

    The expensive one-time stages (data generation, kernel execution,
    backend training, trace construction) run once; :meth:`fresh_state`
    rebuilds the mutable state (L2 + controllers with the host-to-device
    copy applied) so each timed replay starts from an identical machine
    state with setup excluded from the measurement.
    """

    def __init__(self, name: str, scale: float, scheme: str = "E2MC") -> None:
        self.config = GPUConfig()
        workload = get_workload(name, scale=scale, seed=2019)
        self.backend = build_backend(scheme, self.config)
        simulator = GPUSimulator(config=self.config)
        self.input_regions = workload.generate()
        exact = workload.run(workload.input_arrays(self.input_regions))
        self.all_regions = dict(self.input_regions)
        self.all_regions.update(workload.output_regions(exact))
        self.region_blocks = {
            name: array_to_blocks(region.array, self.config.block_size_bytes)
            for name, region in self.all_regions.items()
        }
        self.base_addresses = simulator._layout(self.all_regions, self.region_blocks)
        simulator._train_backend(self.backend, self.input_regions, self.region_blocks)
        self.trace = workload.trace(
            self.all_regions, block_size_bytes=self.config.block_size_bytes
        )
        self.interleave = simulator.CHANNEL_INTERLEAVE_BLOCKS

    def fresh_state(self) -> tuple[SetAssociativeCache, list[MemoryController]]:
        config = self.config
        controllers = [
            MemoryController(
                controller_id=i,
                backend=self.backend,
                mag_bytes=config.mag_bytes,
                block_size_bytes=config.block_size_bytes,
            )
            for i in range(config.num_memory_controllers)
        ]
        for name, region in self.input_regions.items():
            base = self.base_addresses[name]
            stored_blocks = self.backend.store_batch(
                self.region_blocks[name], approximable=region.approximable
            )
            for index, stored in enumerate(stored_blocks):
                address = base + index
                controllers[(address // self.interleave) % len(controllers)].record_stored(
                    address, stored, count_traffic=False
                )
        l2 = SetAssociativeCache(
            size_bytes=config.l2_cache_kb * 1024,
            line_bytes=config.l2_line_bytes,
            ways=config.l2_ways,
        )
        return l2, controllers

    def time_replay(self, engine, repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            l2, controllers = self.fresh_state()
            start = time.perf_counter()
            engine(
                self.trace,
                all_regions=self.all_regions,
                region_blocks=self.region_blocks,
                base_addresses=self.base_addresses,
                l2=l2,
                controllers=controllers,
                interleave_blocks=self.interleave,
            )
            best = min(best, time.perf_counter() - start)
        return best


def _time(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_replay_phase_speedup(benchmark, replay_quick, bench_record):
    """Vectorized vs. scalar replay phase over a paper-workload sweep slice."""
    names = QUICK_WORKLOADS if replay_quick else PAPER_WORKLOAD_ORDER
    scale = QUICK_SCALE if replay_quick else FULL_SCALE
    floor = QUICK_SPEEDUP_FLOOR if replay_quick else FULL_SPEEDUP_FLOOR

    speedups: dict[str, float] = {}
    rows = []
    for name in names:
        context = _ReplayContext(name, scale)
        scalar_s = context.time_replay(replay_trace_scalar)
        vector_s = context.time_replay(replay_trace)
        speedups[name] = scalar_s / vector_s
        rows.append(
            f"{name:<8} {len(context.trace):>7} accesses  "
            f"scalar {scalar_s * 1e3:8.2f} ms  vector {vector_s * 1e3:7.2f} ms  "
            f"speedup {speedups[name]:6.1f}x"
        )

    gm = geometric_mean(list(speedups.values()))
    print()
    print("BENCH-R — vectorized trace replay vs. per-access scalar loop")
    for row in rows:
        print(row)
    print(f"{'GM':<8} {'':>17}  speedup {gm:6.1f}x  (floor {floor:.0f}x)")
    bench_record(f"replay_gm_speedup{'_quick' if replay_quick else ''}", gm)

    # time the vectorized engine once more under pytest-benchmark
    context = _ReplayContext(names[0], scale)
    benchmark.pedantic(
        lambda: context.time_replay(replay_trace, repeats=1), rounds=3, iterations=1
    )

    assert gm >= floor, f"vectorized replay only {gm:.1f}x over scalar (floor {floor}x)"


def test_bench_replay_chunked_peak_memory(replay_quick, bench_record):
    """Chunked replay must bound the replay working set without changing
    a single counter.

    Peak is tracemalloc over the replay call only (machine state is built
    before measurement starts), so it captures exactly what chunking
    bounds: the compiled trace arrays and the per-window scratch.
    """
    scale = QUICK_SCALE if replay_quick else FULL_SCALE
    chunk = QUICK_CHUNK_ACCESSES if replay_quick else FULL_CHUNK_ACCESSES
    context = _ReplayContext("TP", scale)

    def run(chunk_accesses):
        l2, controllers = context.fresh_state()
        _, peak = measure_peak_mib(
            replay_trace,
            context.trace,
            all_regions=context.all_regions,
            region_blocks=context.region_blocks,
            base_addresses=context.base_addresses,
            l2=l2,
            controllers=controllers,
            interleave_blocks=context.interleave,
            chunk_accesses=chunk_accesses,
        )
        counters = {
            "l2": dataclasses.asdict(l2.stats),
            "controllers": [dataclasses.asdict(c.stats) for c in controllers],
        }
        return peak, counters

    whole_peak, whole_counters = run(None)
    chunked_peak, chunked_counters = run(chunk)
    assert chunked_counters == whole_counters, (
        "chunked replay changed counters — chunking must be invisible"
    )
    print(
        f"\nchunked replay peak (TP, {len(context.trace)} compiled-entry trace, "
        f"chunk {chunk}): unchunked {whole_peak:.2f} MiB, "
        f"chunked {chunked_peak:.2f} MiB"
    )
    bench_record(
        f"replay_peak_mib{'_quick' if replay_quick else ''}",
        chunked_peak, unit="MiB", higher_is_better=False, gate=False,
    )
    if not replay_quick:
        # The full-mode trace spans many chunks, so the bounded working set
        # must come in visibly below the whole-trace compile.
        assert len(context.trace) > 4 * chunk
        assert chunked_peak < whole_peak


def test_bench_replay_end_to_end_job(replay_quick, bench_record):
    """A memory-heavy campaign job must get markedly faster end to end."""
    scale = QUICK_SCALE if replay_quick else FULL_SCALE
    job = Job(
        workload="TP",
        scheme="E2MC",
        scale=scale,
        seed=2019,
        compute_error=False,
    )
    vector_s = _time(lambda: simulate_job(job, replay_mode="vectorized"))
    scalar_s = _time(lambda: simulate_job(job, replay_mode="scalar"))
    speedup = scalar_s / vector_s
    print(
        f"\nend-to-end TP/E2MC job: scalar {scalar_s * 1e3:.1f} ms, "
        f"vectorized {vector_s * 1e3:.1f} ms ({speedup:.2f}x)"
    )
    # Absolute seconds are machine-dependent: trajectory context, not a gate.
    # Quick mode keeps the name committed since BENCH_0006; the full-mode
    # trace-heavy scale gets its own name.
    bench_record(
        "job_tp_e2mc_s" if replay_quick else "job_tp_e2mc_full_s",
        vector_s, unit="s", higher_is_better=False, gate=False,
    )
    if replay_quick:
        # Smoke mode: traces are tiny, so just guard against regression.
        assert vector_s <= scalar_s * 1.10
    else:
        assert speedup >= FULL_END_TO_END_FLOOR, (
            f"end-to-end only {speedup:.2f}x (floor {FULL_END_TO_END_FLOOR}x)"
        )
