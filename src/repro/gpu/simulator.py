"""Trace-driven GPU simulator.

Ties the substrates together: a workload generates its data and memory trace,
a compression backend decides how every block is stored, the L2 cache filters
the trace into memory-controller traffic, GDDR5 channels turn bursts into
busy time, and analytic timing/energy models turn the resulting counters into
execution time, energy and EDP.  Kernel outputs recomputed from the degraded
(approximated) inputs feed the application-specific error metric.

:meth:`GPUSimulator.prepare` does the backend-independent part once (data,
exact outputs, the row matrix of blocks, layout, training samples, trace)
so several backends can be simulated on one :class:`PreparedInput`, which
also caches their shared replay plans, lossless per-row sizes and SLC
decisions (:class:`~repro.replay.plan.ReplayCache`, which reads each row's
approximability off its region) and the exact-side fidelity statistics of
its approximable regions (:class:`~repro.metrics.fidelity.ExactSide`).
Each run then keeps what it stores in one address-indexed
:class:`~repro.gpu.memory_controller.BlockStore` shared by its controllers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.e2mc import TrainingSet
from repro.gpu.backends import CompressionBackend
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig
from repro.gpu.energy import EnergyBreakdown, EnergyModel
from repro.gpu.memory_controller import BlockStore, MemoryController, controller_index
from repro.gpu.sm import SMCluster
from repro.gpu.trace import MemoryTrace
from repro.metrics.fidelity import ExactSide, fidelity_summary
from repro.obs import metrics
from repro.obs.tracing import span
from repro.replay import engine
from repro.replay.plan import ReplayCache
from repro.replay.reference import replay_trace_scalar
from repro.utils.blocks import array_to_rows, block_count, rows_to_array
from repro.utils.sampling import sample_indices
from repro.workloads.base import Region, Workload, WorkloadOutput


@dataclass(frozen=True)
class SimulationResult:
    """Everything one simulation run produces.

    The relative metrics of the paper's figures (speedup, normalized
    bandwidth, energy, EDP) are obtained by dividing the corresponding fields
    of two results (scheme vs. the E2MC baseline).
    """

    workload: str
    backend: str
    exec_time_s: float
    compute_time_s: float
    memory_time_s: float
    exposed_latency_s: float
    compute_ops: float
    total_bursts: int
    read_bursts: int
    write_bursts: int
    dram_bytes: int
    dram_row_misses: int
    l2_accesses: int
    l2_hit_rate: float
    stored_blocks: int
    lossy_blocks: int
    error_percent: float
    energy: EnergyBreakdown
    mdc_hit_rate: float = 1.0
    extra_metrics: dict = field(default_factory=dict)

    @property
    def energy_j(self) -> float:
        """Total energy in joules."""
        return self.energy.total_j

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self.energy.edp(self.exec_time_s)

    @property
    def memory_bound_fraction(self) -> float:
        """How much of the execution time the memory system accounts for."""
        if self.exec_time_s == 0:
            return 0.0
        return min(1.0, self.memory_time_s / self.exec_time_s)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Execution-time speedup of this run relative to ``baseline``."""
        if self.exec_time_s == 0:
            raise ZeroDivisionError("cannot compute speedup of a zero-time run")
        return baseline.exec_time_s / self.exec_time_s

    def bandwidth_ratio_over(self, baseline: "SimulationResult") -> float:
        """Off-chip traffic of this run normalized to ``baseline`` (lower is better)."""
        if baseline.dram_bytes == 0:
            raise ZeroDivisionError("baseline transferred no data")
        return self.dram_bytes / baseline.dram_bytes

    def energy_ratio_over(self, baseline: "SimulationResult") -> float:
        """Energy of this run normalized to ``baseline`` (lower is better)."""
        return self.energy_j / baseline.energy_j

    def edp_ratio_over(self, baseline: "SimulationResult") -> float:
        """EDP of this run normalized to ``baseline`` (lower is better)."""
        return self.edp / baseline.edp

    # ------------------------------------------------------------------ #
    # serialization (the campaign result store persists results as JSON)

    def to_dict(self) -> dict:
        """The result as a JSON-serializable dict (lossless round trip).

        Floats survive JSON exactly (``json`` emits ``repr``-precision
        values), so ``from_dict(json.loads(json.dumps(to_dict())))``
        reconstructs an identical result.
        """
        return {
            "workload": self.workload,
            "backend": self.backend,
            "exec_time_s": self.exec_time_s,
            "compute_time_s": self.compute_time_s,
            "memory_time_s": self.memory_time_s,
            "exposed_latency_s": self.exposed_latency_s,
            "compute_ops": self.compute_ops,
            "total_bursts": self.total_bursts,
            "read_bursts": self.read_bursts,
            "write_bursts": self.write_bursts,
            "dram_bytes": self.dram_bytes,
            "dram_row_misses": self.dram_row_misses,
            "l2_accesses": self.l2_accesses,
            "l2_hit_rate": self.l2_hit_rate,
            "stored_blocks": self.stored_blocks,
            "lossy_blocks": self.lossy_blocks,
            "error_percent": self.error_percent,
            "energy": self.energy.to_dict(),
            "mdc_hit_rate": self.mdc_hit_rate,
            "extra_metrics": dict(self.extra_metrics),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Reconstruct a result produced by :meth:`to_dict`."""
        return cls(
            workload=data["workload"],
            backend=data["backend"],
            exec_time_s=float(data["exec_time_s"]),
            compute_time_s=float(data["compute_time_s"]),
            memory_time_s=float(data["memory_time_s"]),
            exposed_latency_s=float(data["exposed_latency_s"]),
            compute_ops=float(data["compute_ops"]),
            total_bursts=int(data["total_bursts"]),
            read_bursts=int(data["read_bursts"]),
            write_bursts=int(data["write_bursts"]),
            dram_bytes=int(data["dram_bytes"]),
            dram_row_misses=int(data["dram_row_misses"]),
            l2_accesses=int(data["l2_accesses"]),
            l2_hit_rate=float(data["l2_hit_rate"]),
            stored_blocks=int(data["stored_blocks"]),
            lossy_blocks=int(data["lossy_blocks"]),
            error_percent=float(data["error_percent"]),
            energy=EnergyBreakdown.from_dict(data["energy"]),
            mdc_hit_rate=float(data.get("mdc_hit_rate", 1.0)),
            extra_metrics=dict(data.get("extra_metrics", {})),
        )


@dataclass
class PreparedInput:
    """Everything a run derives from the workload alone, before any backend.

    :meth:`GPUSimulator.prepare` builds it: the generated input regions, the
    exact kernel outputs, one read-only ``(n_blocks, block_size)`` uint8
    row matrix over the run's flat address space (each region is the row
    slice starting at its base address), the training samples and the block
    trace.  None of it depends on the
    compression scheme, the MAG or the lossy threshold, so one prepared
    input serves every backend simulated on it
    (:meth:`GPUSimulator.run_prepared`) with bit-identical results — which
    holds because a workload's ``run``, ``error``, ``trace`` and
    ``compute_ops`` are pure functions of their arguments.  A shared input
    must not be modified; :meth:`make_read_only` enforces that for its
    arrays.  Its :attr:`replay_cache` and :attr:`exact_sides` fill as runs
    use it.
    """

    workload: Workload
    input_regions: dict[str, Region]
    exact_outputs: WorkloadOutput
    #: input regions followed by the (non-approximable) output regions
    all_regions: dict[str, Region]
    #: raw blocks of every region, row ``a`` holding block address ``a``
    rows: np.ndarray
    base_addresses: dict[str, int]
    #: evenly sampled input blocks; memoizes the symbol models fitted on them
    train_samples: TrainingSet
    trace: MemoryTrace
    #: the simulator geometry the input was prepared for
    block_size_bytes: int
    train_sample_target: int
    #: replay plans per simulator geometry, per-row sizes per compressor and
    #: SLC decisions per model, MAG, threshold and tree layout, with one
    #: approximable flag per row, its region's
    replay_cache: ReplayCache = field(init=False, repr=False)
    #: the fidelity statistics of each approximable input region, built by
    #: the first error phase that damages it
    exact_sides: dict[str, ExactSide] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        approximable = np.zeros(self.rows.shape[0], dtype=np.bool_)
        for name, region in self.all_regions.items():
            approximable[self.region_slice(name)] = region.approximable
        self.replay_cache = ReplayCache(self.trace, self.rows, approximable)
        self.exact_sides = {
            name: ExactSide(region.array)
            for name, region in self.input_regions.items()
            if region.approximable
        }

    def region_slice(self, name: str) -> slice:
        """The block addresses (rows) of region ``name``."""
        base = self.base_addresses[name]
        count = block_count(self.all_regions[name].array, self.block_size_bytes)
        return slice(base, base + count)

    def make_read_only(self) -> None:
        """Make the rows, every region array and exact output reject writes."""
        self.rows.flags.writeable = False
        for region in self.all_regions.values():
            region.array.flags.writeable = False
        for array in self.exact_outputs.arrays.values():
            array.flags.writeable = False


class GPUSimulator:
    """Trace-driven simulation of one workload under one compression backend.

    Args:
        config: GPU configuration (Table II by default).
        energy_model: energy model; a default :class:`EnergyModel` is created
            when omitted.
        sm_efficiency: achieved fraction of peak SM issue rate.
        overlap_penalty: fraction of the shorter of (compute, memory) time
            that is *not* hidden under the longer one — models imperfect
            overlap of computation and memory transfers.
        train_samples: number of blocks sampled per workload to train the
            compression backend's probability model (E2MC's online sampling).
        replay_mode: which of the two pipelines runs the host-to-device
            copy and the kernel-execution phase.  ``"vectorized"`` (the
            default) stores each input region in one batched store (from
            the input's per-row sizes or held SLC decision where the
            backend allows) and replays the trace with the array engine
            (:mod:`repro.replay`): compiled trace, reuse-distance L2,
            batched miss-path accounting.  The backends slice large
            regions themselves
            (:data:`~repro.gpu.backends.SLC_SLICE_ROWS`,
            :data:`~repro.gpu.backends.LOSSLESS_SLICE_ROWS`), so a store's
            temporaries stay bounded at any scale.  ``"scalar"`` is the
            n = 1 oracle: one ``store_block`` call per host block, then the
            original per-access loop.  Results are bit-identical; the
            scalar mode exists as the reference oracle and for
            benchmarking.
        payload_digest: record a SHA-256 digest of the final stored state —
            every stored block's address, burst count, stored bits, lossy
            flag and (possibly degraded) data bytes, in address order — as
            ``extra_metrics["payload_sha256"]``.  The golden-result suite
            uses it to pin the per-block and batched store paths to the
            same bytes; off by default because campaign results are meant
            to be content-comparable across runs that store different
            amounts of data (e.g. different trace subsets).
    """

    #: valid ``replay_mode`` values
    REPLAY_MODES = ("vectorized", "scalar")

    def __init__(
        self,
        config: GPUConfig | None = None,
        energy_model: EnergyModel | None = None,
        sm_efficiency: float = 0.7,
        overlap_penalty: float = 0.15,
        train_samples: int = 1024,
        replay_mode: str = "vectorized",
        payload_digest: bool = False,
    ) -> None:
        self.config = config or GPUConfig()
        self.energy_model = energy_model or EnergyModel()
        self.sm_cluster = SMCluster(self.config, efficiency=sm_efficiency)
        if not 0 <= overlap_penalty <= 1:
            raise ValueError("overlap_penalty must be within [0, 1]")
        if train_samples <= 0:
            raise ValueError("train_samples must be positive")
        if replay_mode not in self.REPLAY_MODES:
            raise ValueError(
                f"replay_mode must be one of {self.REPLAY_MODES}, got {replay_mode!r}"
            )
        self.overlap_penalty = overlap_penalty
        self.train_samples = train_samples
        self.replay_mode = replay_mode
        self.payload_digest = payload_digest

    # ------------------------------------------------------------------ #
    # public API

    def run(
        self,
        workload: Workload,
        backend: CompressionBackend,
        compute_error: bool = True,
    ) -> SimulationResult:
        """Simulate ``workload`` with ``backend`` and return the result."""
        return self.run_prepared(self.prepare(workload), backend, compute_error)

    def prepare(self, workload: Workload) -> PreparedInput:
        """Generate ``workload``'s input and everything derived from it alone.

        Runs the exact kernel, lays the regions out as one row matrix,
        samples the training blocks and builds the block trace — the
        backend-independent part of :meth:`run`.
        """
        block_size = self.config.block_size_bytes

        with span("sim.generate", cat="sim", workload=workload.name):
            input_regions = workload.generate()
            exact_outputs = workload.run(workload.input_arrays(input_regions))
            all_regions: dict[str, Region] = dict(input_regions)
            all_regions.update(workload.output_regions(exact_outputs))

            rows, base_addresses = self._layout(all_regions, block_size)
            input_rows = np.concatenate([
                base_addresses[name]
                + np.arange(block_count(all_regions[name].array, block_size))
                for name in input_regions
            ] or [np.empty(0, dtype=np.int64)])
            picks = input_rows[sample_indices(len(input_rows), self.train_samples)]
            train_samples = TrainingSet(row.tobytes() for row in rows[picks])

        with span("sim.trace_build", cat="sim", workload=workload.name):
            trace = workload.trace(all_regions, block_size_bytes=block_size)

        return PreparedInput(
            workload=workload,
            input_regions=input_regions,
            exact_outputs=exact_outputs,
            all_regions=all_regions,
            rows=rows,
            base_addresses=base_addresses,
            train_samples=train_samples,
            trace=trace,
            block_size_bytes=block_size,
            train_sample_target=self.train_samples,
        )

    def run_prepared(
        self,
        prepared: PreparedInput,
        backend: CompressionBackend,
        compute_error: bool = True,
    ) -> SimulationResult:
        """Simulate ``backend`` on an input :meth:`prepare` already built.

        Raises:
            ValueError: if ``prepared`` was built for another block size or
                training-sample count than this simulator's.
        """
        if (prepared.block_size_bytes, prepared.train_sample_target) != (
            self.config.block_size_bytes, self.train_samples
        ):
            raise ValueError(
                f"input prepared for {prepared.block_size_bytes} B blocks and "
                f"{prepared.train_sample_target} training samples, simulator "
                f"uses {self.config.block_size_bytes} B and {self.train_samples}"
            )
        workload = prepared.workload
        input_regions = prepared.input_regions
        rows = prepared.rows
        block_size = self.config.block_size_bytes

        with span("sim.train", cat="sim", workload=workload.name):
            # The heavy part of training — counting 16-bit symbols over the
            # sampled bytes — is one np.bincount inside SymbolModel.fit, done
            # once per prepared input and model parameters (TrainingSet).
            if prepared.train_samples:
                backend.train(prepared.train_samples)

        store = BlockStore(block_size, n_blocks=rows.shape[0])
        controllers = [
            MemoryController(
                controller_id=i,
                backend=backend,
                mag_bytes=self.config.mag_bytes,
                block_size_bytes=block_size,
                store=store,
            )
            for i in range(self.config.num_memory_controllers)
        ]
        l2 = SetAssociativeCache(
            size_bytes=self.config.l2_cache_kb * 1024,
            line_bytes=self.config.l2_line_bytes,
            ways=self.config.l2_ways,
        )

        # Host-to-device copy: every input region is compressed and stored.
        # This traffic happens before the kernel and is not charged to it.
        # The vectorized pipeline stores each region in one batched store
        # and one block-store write, and its replay books the copies into
        # the controllers; the scalar oracle stores and books block by block.
        interleave = self.CHANNEL_INTERLEAVE_BLOCKS
        vectorized = self.replay_mode == "vectorized"
        cache = prepared.replay_cache
        with span("sim.h2d_store", cat="sim", workload=workload.name,
                  mode=self.replay_mode):
            for name, region in input_regions.items():
                sl = prepared.region_slice(name)
                if vectorized:
                    store.write(sl, cache.store(backend, sl))
                    continue
                for address in range(sl.start, sl.stop):
                    controllers[
                        controller_index(address, interleave, len(controllers))
                    ].store_block(
                        address,
                        rows[address].tobytes(),
                        approximable=region.approximable,
                        count_traffic=False,
                    )

        # Kernel execution: replay the workload's block trace through the L2.
        # The vectorized engine (repro.replay) and the scalar per-access loop
        # produce bit-identical counters; the engine is the default because
        # trace replay dominates sweep time, and it takes its plan from the
        # input's replay cache.
        trace = prepared.trace
        replay_kwargs = dict(
            all_regions=prepared.all_regions,
            rows=rows,
            base_addresses=prepared.base_addresses,
            l2=l2,
            controllers=controllers,
            interleave_blocks=interleave,
        )
        with span("sim.replay", cat="sim", workload=workload.name,
                  mode=self.replay_mode, accesses=len(trace)):
            if vectorized:
                engine.replay_trace(trace, cache=cache, **replay_kwargs)
            else:
                replay_trace_scalar(trace, **replay_kwargs)

        error_percent = 0.0
        fidelity: dict[str, float] = {}
        if compute_error:
            with span("sim.error", cat="sim", workload=workload.name):
                # the input arrays as the kernel reads them back
                degraded = {}
                for name, region in input_regions.items():
                    sl = prepared.region_slice(name)
                    degraded[name] = rows_to_array(
                        store.read_rows(sl, rows[sl]),
                        region.array.dtype,
                        region.array.shape,
                    )
                approx_outputs = workload.run(degraded)
                error_percent = workload.error(prepared.exact_outputs, approx_outputs)
                fidelity = self._region_fidelity(degraded, prepared.exact_sides)

        return self._assemble_result(
            workload, backend, prepared.all_regions, controllers, store, l2,
            error_percent, fidelity=fidelity,
        )

    # ------------------------------------------------------------------ #
    # pipeline stages

    @staticmethod
    def _layout(
        regions: dict[str, Region], block_size: int
    ) -> tuple[np.ndarray, dict[str, int]]:
        """Lay the regions out back to back in a flat block address space.

        Returns the ``(n_blocks, block_size)`` uint8 row matrix of the whole
        space and each region's base block address.
        """
        base_addresses: dict[str, int] = {}
        next_block = 0
        for name, region in regions.items():
            base_addresses[name] = next_block
            next_block += block_count(region.array, block_size)
        rows = np.empty((next_block, block_size), dtype=np.uint8)
        for name, region in regions.items():
            region_rows = array_to_rows(region.array, block_size)
            rows[base_addresses[name] : base_addresses[name] + len(region_rows)] = region_rows
        return rows, base_addresses

    #: consecutive blocks kept on the same controller (2 KB, one DRAM row)
    #: before moving to the next — the coarse interleaving real GPUs use to
    #: preserve row-buffer locality while still balancing channels.
    CHANNEL_INTERLEAVE_BLOCKS = 16

    @staticmethod
    def _region_fidelity(
        degraded: dict[str, np.ndarray],
        exact_sides: dict[str, ExactSide],
    ) -> dict[str, float]:
        """Statistical fidelity panel over the degraded approximable inputs.

        Compares what the lossy path stored against the exact data, region
        by region, and keeps the worst case (min Pearson, max KS/IQR) —
        the data-level complement of the output-level application error,
        computed for every workload including ingested traces whose kernel
        is not re-runnable.  Non-approximable regions are exempt from the
        lossy path by construction and excluded: ``exact_sides``
        (:attr:`PreparedInput.exact_sides`) holds the approximable ones.
        """
        if not exact_sides:
            return {}
        return fidelity_summary(
            {name: side.exact for name, side in exact_sides.items()},
            {name: degraded[name] for name in exact_sides},
            exact_sides,
        )

    def _assemble_result(
        self,
        workload: Workload,
        backend: CompressionBackend,
        all_regions: dict[str, Region],
        controllers: list[MemoryController],
        store: BlockStore,
        l2: SetAssociativeCache,
        error_percent: float,
        fidelity: dict[str, float] | None = None,
    ) -> SimulationResult:
        read_bursts = sum(c.stats.read_bursts for c in controllers)
        write_bursts = sum(c.stats.write_bursts for c in controllers)
        total_bursts = read_bursts + write_bursts
        dram_bytes = total_bursts * self.config.mag_bytes
        row_misses = sum(c.channel.stats.row_misses for c in controllers)
        lossy_blocks = sum(c.stats.lossy_blocks for c in controllers)
        stored_blocks = store.stored_blocks
        compress_ops = sum(c.stats.compress_invocations for c in controllers)
        decompress_ops = sum(c.stats.decompress_invocations for c in controllers)
        mdc_hit_rates = [c.mdc.stats.hit_rate for c in controllers if c.mdc.stats.accesses]
        mdc_hit_rate = float(np.mean(mdc_hit_rates)) if mdc_hit_rates else 1.0

        compute_ops = workload.compute_ops(all_regions)
        compute_cycles = self.sm_cluster.compute_cycles(compute_ops)
        compute_time = compute_cycles / self.config.core_clock_hz

        busiest_channel = max(c.busy_memory_cycles for c in controllers)
        memory_time = busiest_channel / self.config.memory_clock_hz

        latency_cfg = self.config.latency
        reads = sum(c.stats.reads for c in controllers)
        writes = sum(c.stats.writes for c in controllers)
        exposed_cycles = latency_cfg.exposed_latency_fraction * (
            reads * backend.decompress_latency_cycles
            + writes * backend.compress_latency_cycles
        ) / max(1, len(controllers))
        exposed_time = exposed_cycles / self.config.memory_clock_hz

        exec_time = (
            max(compute_time, memory_time)
            + self.overlap_penalty * min(compute_time, memory_time)
            + exposed_time
        )

        energy = self.energy_model.evaluate(
            exec_time_s=exec_time,
            compute_ops=compute_ops,
            l2_accesses=l2.stats.accesses,
            dram_bursts=total_bursts,
            dram_row_misses=row_misses,
            compressed_blocks=compress_ops,
            decompressed_blocks=decompress_ops,
            mag_bytes=self.config.mag_bytes,
        )

        extra_metrics = {
            "mdc_extra_bursts": sum(c.stats.mdc_extra_bursts for c in controllers),
            # final stored footprint in bits; with the uncompressed footprint
            # (stored_blocks * block bits) this yields the raw compression
            # ratio of a run without re-walking the storage
            "stored_bits": store.total_stored_bits,
        }
        if fidelity:
            extra_metrics.update(fidelity)
        if self.payload_digest:
            extra_metrics["payload_sha256"] = store.digest()

        if metrics.enabled():
            metrics.inc("sim.runs")
            metrics.inc("sim.stored_blocks", stored_blocks)
            metrics.inc("sim.lossy_blocks", lossy_blocks)
            metrics.inc("sim.total_bursts", total_bursts)
            metrics.inc("sim.dram_bytes", dram_bytes)
            metrics.observe("sim.l2_hit_rate", l2.stats.hit_rate)
            metrics.observe("sim.mdc_hit_rate", mdc_hit_rate)

        return SimulationResult(
            workload=workload.name,
            backend=backend.name,
            exec_time_s=exec_time,
            compute_time_s=compute_time,
            memory_time_s=memory_time,
            exposed_latency_s=exposed_time,
            compute_ops=compute_ops,
            total_bursts=total_bursts,
            read_bursts=read_bursts,
            write_bursts=write_bursts,
            dram_bytes=dram_bytes,
            dram_row_misses=row_misses,
            l2_accesses=l2.stats.accesses,
            l2_hit_rate=l2.stats.hit_rate,
            stored_blocks=stored_blocks,
            lossy_blocks=lossy_blocks,
            error_percent=error_percent,
            energy=energy,
            mdc_hit_rate=mdc_hit_rate,
            extra_metrics=extra_metrics,
        )
