"""Replay plans: one scheme-independent plan per prepared input and geometry.

The L2 miss stream, every MDC hit, each DRAM row hit and each lossless
compressor's per-row size depend only on the input and the simulator
geometry, so a :class:`~repro.replay.plan.ReplayPlan` is built once per
prepared input and geometry and evaluated per scheme and MAG.  These tests
pin that a job on a warm plan equals a cold job and the scalar oracle
(``replay_mode="scalar"``) in every result field, in every counter of the
L2, the controllers, their MDCs and DRAM channels, and in the final block
store, for every scheme, the uncompressed baseline and every MAG; that
other geometries get their own plans; that the exact MDC path and the
per-row size memo agree too; that a plan is only applied to a fresh
machine; and that plans are read-only and counted.
"""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np
import pytest

from repro.campaign import worker
from repro.campaign.executor import run_jobs
from repro.campaign.spec import KNOWN_SCHEMES, LOSSLESS_SCHEMES, CampaignSpec
from repro.campaign.worker import build_backend
from repro.gpu import backends
from repro.gpu.backends import NoCompressionBackend, StoredBatch
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.config import GPUConfig
from repro.gpu.memory_controller import BlockStore, MemoryController, book_host_copies
from repro.gpu.simulator import GPUSimulator
from repro.gpu.trace import AccessType, MemoryTrace
from repro.obs import metrics
from repro.replay import replay_trace, replay_trace_scalar
from repro.replay.plan import ReplayCache, ReplayPlan
from repro.workloads.registry import get_workload

SCALE = 1.0 / 1024.0
CONFIG = GPUConfig()
BACKENDS = (*KNOWN_SCHEMES, "uncompressed")
MAGS = (16, 32, 64)
#: workloads whose kernels write, so write misses reach the store
WORKLOADS = ("BP", "FWT")
#: an L2 small enough that lines are evicted and read again
SMALL_L2 = {"l2_cache_kb": 16}


@pytest.fixture(params=BACKENDS, ids=BACKENDS)
def backend_name(request: pytest.FixtureRequest) -> str:
    """Every scheme a job may carry, plus the uncompressed baseline."""
    return request.param


@pytest.fixture(params=MAGS, ids=[f"mag{m}" for m in MAGS])
def mag(request: pytest.FixtureRequest) -> int:
    return request.param


@pytest.fixture(scope="module")
def shared_inputs() -> dict:
    """One prepared input per workload, shared by the whole module (warm plans)."""
    return {name: _prepare(name) for name in WORKLOADS}


@pytest.fixture
def metrics_on():
    metrics.disable()
    metrics.clear()
    metrics.enable()
    yield
    metrics.disable()
    metrics.clear()


def _prepare(workload: str, config: GPUConfig = CONFIG):
    return GPUSimulator(config=config).prepare(get_workload(workload, scale=SCALE, seed=2019))


def _backend(name: str, mag: int, config: GPUConfig = CONFIG):
    if name == "uncompressed":
        return NoCompressionBackend(config.block_size_bytes, mag)
    return build_backend(name, config, mag_bytes=mag)


def _machine_state(l2, controllers, store) -> tuple:
    """The L2, per-controller (stats, MDC, DRAM) counters and the block store."""
    return (
        vars(l2.stats).copy(),
        [
            (
                vars(c.stats).copy(),
                vars(c.mdc.stats).copy(),
                vars(c.channel.stats).copy(),
            )
            for c in controllers
        ],
        store.bursts.tolist(),
        store.stored_bits.tolist(),
        store.lossy.tolist(),
        store.data.tobytes(),
    )


class _CapturingSimulator(GPUSimulator):
    """Keeps the counters and block store the last run ended with."""

    def _assemble_result(self, workload, backend, all_regions, controllers, store, l2,
                         *args, **kwargs):
        self.state = _machine_state(l2, controllers, store)
        return super()._assemble_result(
            workload, backend, all_regions, controllers, store, l2, *args, **kwargs
        )


def _run(prepared, backend_name: str, mag: int, config: GPUConfig = CONFIG, **options):
    simulator = _CapturingSimulator(config=config, payload_digest=True, **options)
    result = simulator.run_prepared(
        prepared, _backend(backend_name, mag, config), compute_error=False
    )
    return result.to_dict(), simulator.state


def _oracle(prepared, backend_name: str, mag: int, config: GPUConfig = CONFIG):
    return _run(prepared, backend_name, mag, config, replay_mode="scalar")


# --------------------------------------------------------------------- #
# warm plan == cold run == scalar oracle, per scheme x MAG


@pytest.mark.parametrize("workload", WORKLOADS)
def test_warm_plan_matches_cold_run_and_scalar_oracle(
    shared_inputs, workload, backend_name, mag
):
    prepared = shared_inputs[workload]
    _run(prepared, backend_name, mag)  # the module's first job builds the plan
    warm, warm_state = _run(prepared, backend_name, mag)
    cold, cold_state = _run(_prepare(workload), backend_name, mag)
    oracle, oracle_state = _oracle(prepared, backend_name, mag)
    assert len(prepared.replay_cache.plans) == 1
    assert warm["extra_metrics"]["payload_sha256"]
    assert warm == cold == oracle
    assert warm_state == cold_state == oracle_state


@pytest.mark.parametrize("overrides", [
    SMALL_L2,
    {"num_memory_controllers": 4},
    {"l2_cache_kb": 32, "num_memory_controllers": 2},
], ids=["l2-16kb", "4-controllers", "l2-32kb-2-controllers"])
@pytest.mark.parametrize("scheme", ["E2MC", "TSLC-OPT", "CPACK"])
def test_each_geometry_builds_its_own_plan(overrides, scheme):
    prepared = _prepare("BP")
    _run(prepared, scheme, 32)
    config = CONFIG.scaled(**overrides)
    first, _ = _run(prepared, scheme, 32, config)
    assert len(prepared.replay_cache.plans) == 2
    warm, warm_state = _run(prepared, scheme, 32, config)
    assert len(prepared.replay_cache.plans) == 2
    cold, _ = _run(_prepare("BP", config), scheme, 32, config)
    oracle, oracle_state = _oracle(prepared, scheme, 32, config)
    assert first == warm == cold == oracle
    assert warm_state == oracle_state


def _read_after_write_trace(prepared) -> MemoryTrace:
    """Reads, overwrites and re-reads input and output blocks.

    No registered kernel reads a block it wrote, so this trace is what
    covers write misses to approximable and exact rows in one store and
    reads that fetch a kernel's store.
    """
    trace = MemoryTrace()
    for name in ("weights_ih", "weights_ih_updated"):
        blocks = prepared.region_slice(name).stop - prepared.region_slice(name).start
        for access in (AccessType.READ, AccessType.WRITE, AccessType.READ,
                       AccessType.WRITE, AccessType.READ):
            trace.add_stream(name, blocks, access, stride=3)
    return trace


@pytest.mark.parametrize("scheme", ["E2MC", "TSLC-OPT", "BDI"])
@pytest.mark.parametrize("mag", [16, 64], ids=["mag16", "mag64"])
def test_reads_of_kernel_stores_match_the_scalar_loop(scheme, mag):
    prepared = _prepare("BP")
    backend = _backend(scheme, mag)
    backend.train(prepared.train_samples)
    trace = _read_after_write_trace(prepared)
    flags = prepared.replay_cache.approximable
    cache = ReplayCache(trace, prepared.rows, flags)
    states = []
    for engine, options in [
        (replay_trace_scalar, {}),
        (replay_trace, {"cache": ReplayCache(trace, prepared.rows, flags)}),
        (replay_trace, {"cache": cache}),  # builds the plan
        (replay_trace, {"cache": cache}),  # reuses it
    ]:
        l2, controllers, store = _fresh_machine(prepared, backend, l2_kb=16)
        engine(trace, all_regions=prepared.all_regions, rows=prepared.rows,
               base_addresses=prepared.base_addresses, l2=l2, controllers=controllers,
               interleave_blocks=GPUSimulator.CHANNEL_INTERLEAVE_BLOCKS, **options)
        states.append(_machine_state(l2, controllers, store))
    assert all(state == states[0] for state in states)
    (plan,) = cache.plans.values()
    # one store of write misses to approximable and to exact rows
    written = flags[plan.addresses[plan.writes]]
    assert written.any() and not written.all()
    reads = ~plan.is_write
    assert (plan.source[reads] >= 0).any() and (plan.source[reads] == -1).any()


# --------------------------------------------------------------------- #
# the exact MDC path


def _fresh_machine(prepared, backend, mdc_entries: int = 8192, l2_kb: int = CONFIG.l2_cache_kb):
    """L2 and controllers sharing a store that holds the host copy, unbooked."""
    rows = prepared.rows
    store = BlockStore(CONFIG.block_size_bytes, n_blocks=rows.shape[0])
    for name, region in prepared.input_regions.items():
        sl = prepared.region_slice(name)
        store.write(sl, backend.store_batch(rows[sl], approximable=region.approximable))
    controllers = [
        MemoryController(i, backend, mdc_entries=mdc_entries, store=store)
        for i in range(CONFIG.num_memory_controllers)
    ]
    l2 = SetAssociativeCache(l2_kb * 1024, CONFIG.l2_line_bytes, CONFIG.l2_ways)
    return l2, controllers, store


@pytest.mark.parametrize("scheme", ["E2MC", "TSLC-OPT", "BDI"])
def test_small_mdc_takes_the_exact_path_and_matches(metrics_on, scheme):
    prepared = _prepare("BP")
    backend = _backend(scheme, 32)
    backend.train(prepared.train_samples)
    states = []
    for engine, options in [
        (replay_trace_scalar, {}),
        (replay_trace, {"cache": ReplayCache(
            prepared.trace, prepared.rows, prepared.replay_cache.approximable
        )}),
        (replay_trace, {"cache": prepared.replay_cache}),  # builds the plan
        (replay_trace, {"cache": prepared.replay_cache}),  # reuses it
    ]:
        l2, controllers, store = _fresh_machine(prepared, backend, mdc_entries=64)
        engine(
            prepared.trace,
            all_regions=prepared.all_regions,
            rows=prepared.rows,
            base_addresses=prepared.base_addresses,
            l2=l2,
            controllers=controllers,
            interleave_blocks=GPUSimulator.CHANNEL_INTERLEAVE_BLOCKS,
            **options,
        )
        states.append(_machine_state(l2, controllers, store))
    assert all(state == states[0] for state in states)
    counters = metrics.snapshot()["counters"]
    assert counters["mdc.fallback"] > 0
    assert counters["replay.plan.build"] == 2 and counters["replay.plan.reuse"] == 1


# --------------------------------------------------------------------- #
# the per-row size memo and held decisions


def _per_block(backend, prepared, sl: slice) -> StoredBatch:
    """Per-block ``store`` of the rows at ``sl``, each with its region's flag."""
    return StoredBatch.from_blocks(
        [
            backend.store(prepared.rows[a].tobytes(),
                          approximable=bool(prepared.replay_cache.approximable[a]))
            for a in range(sl.start, sl.stop)
        ],
        backend.block_size_bytes,
    )


@pytest.mark.parametrize("scheme", ["E2MC", *LOSSLESS_SCHEMES])
def test_size_memo_matches_store_batch(scheme, mag, monkeypatch):
    monkeypatch.setattr(backends, "LOSSLESS_SLICE_ROWS", 100)  # several slices
    prepared = _prepare("SRAD1")
    backend = _backend(scheme, mag)
    backend.train(prepared.train_samples)
    cache = prepared.replay_cache
    rows = prepared.rows
    assert rows.shape[0] > 3 * backends.LOSSLESS_SLICE_ROWS
    rng = np.random.default_rng(5)
    picks = rng.integers(0, rows.shape[0], size=300)  # with repeats
    for addresses in (np.arange(rows.shape[0]), slice(7, 250), picks):
        assert cache.store(backend, addresses) == backend.store_batch(
            rows[addresses], approximable=cache.approximable[addresses]
        )
    (key,) = cache.sizes
    assert key == backend.size_key
    # another MAG of the same compressor shares the sizes
    other = _backend(scheme, 16 if mag != 16 else 64)
    other.train(prepared.train_samples)
    assert other.size_key == key


@pytest.mark.parametrize("name", ["uncompressed"])
def test_backends_without_a_size_key_store_through_store_batch(name):
    prepared = _prepare("NN")
    backend = _backend(name, 32)
    backend.train(prepared.train_samples)
    assert backend.size_key is None and backend.decision_key is None
    sl = slice(0, 40)
    reference = _backend(name, 32)
    reference.train(prepared.train_samples)
    assert prepared.replay_cache.store(backend, sl) == _per_block(reference, prepared, sl)
    assert not prepared.replay_cache.sizes
    assert not prepared.replay_cache.decisions


@pytest.mark.parametrize("name", ["TSLC-OPT", "TSLC-SIMP"])
def test_tslc_stores_through_a_held_decision_on_the_e2mc_sizes(name):
    prepared = _prepare("NN")
    backend = _backend(name, 32)
    backend.train(prepared.train_samples)
    assert backend.size_key is None
    # rows of an input region and of the two output regions
    sl = slice(1800, 1834)
    reference = _backend(name, 32)
    reference.train(prepared.train_samples)
    assert prepared.replay_cache.store(backend, sl) == _per_block(reference, prepared, sl)
    # the decision reads the sizes an E2MC run on the input stores from
    e2mc = _backend("E2MC", 32)
    e2mc.train(prepared.train_samples)
    assert list(prepared.replay_cache.sizes) == [e2mc.size_key]
    assert list(prepared.replay_cache.decisions) == [backend.decision_key]


# --------------------------------------------------------------------- #
# read-only, validated and counted


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def test_plan_and_size_arrays_are_read_only():
    prepared = _prepare("FWT")
    _run(prepared, "BPC", 32)
    (plan,) = prepared.replay_cache.plans.values()
    arrays = list(_arrays(plan)) + list(prepared.replay_cache.sizes.values())
    assert len(arrays) > 10
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


def test_cached_plan_needs_its_input_and_fresh_state():
    prepared = _prepare("TP")
    backend = _backend("E2MC", 32)
    backend.train(prepared.train_samples)
    other = _prepare("NN")

    def replay(trace, rows, cache, use=None):
        l2, controllers, _ = _fresh_machine(prepared, backend)
        if use is not None:
            use(l2, controllers)
        replay_trace(
            trace, all_regions=prepared.all_regions, rows=rows,
            base_addresses=prepared.base_addresses, l2=l2,
            controllers=controllers,
            interleave_blocks=GPUSimulator.CHANNEL_INTERLEAVE_BLOCKS, cache=cache,
        )

    with pytest.raises(ValueError, match="another prepared input"):
        replay(prepared.trace, prepared.rows, other.replay_cache)
    # a machine is used once any of its counters moved
    for use in (
        lambda l2, controllers: l2.access(3),
        lambda l2, controllers: controllers[1].mdc.lookup(7),
        lambda l2, controllers: book_host_copies(
            controllers, GPUSimulator.CHANNEL_INTERLEAVE_BLOCKS
        ),
        lambda l2, controllers: controllers[2].channel.service(0, 1),
    ):
        with pytest.raises(ValueError, match="fresh L2, MDC and DRAM state"):
            replay(prepared.trace, prepared.rows, prepared.replay_cache, use)
    assert not prepared.replay_cache.plans


def test_plans_are_counted_per_job_and_dropped_with_the_input(metrics_on):
    worker.INPUT_CACHE.clear()
    spec = CampaignSpec(workloads=("FWT", "TP"), schemes=("E2MC", "BDI"), mags=(16, 64),
                        scales=(SCALE,), compute_error=False)
    jobs = spec.expand()
    outcome = run_jobs(spec, jobs, workers=1)
    counts = {
        job: (record.metrics["counters"].get("replay.plan.build", 0),
              record.metrics["counters"].get("replay.plan.reuse", 0))
        for job, record in outcome.iter_records()
    }
    # the first job on each input builds its plan, the other three reuse it
    for workload in ("FWT", "TP"):
        per_job = [counts[job] for job in jobs if job.workload == workload]
        assert sorted(per_job) == [(0, 1), (0, 1), (0, 1), (1, 0)]
    # every replay records the process's peak RSS
    for _, record in outcome.iter_records():
        assert record.metrics["values"]["replay.peak_rss_mib"]["max"] > 0

    # the plan lives and dies with the cached input
    job = jobs[0]
    worker.simulate_job(job)
    prepared = worker.INPUT_CACHE.get(
        (worker.workload_factory(job.workload), *job.input_key), lambda: None
    )
    (plan,) = prepared.replay_cache.plans.values()
    assert isinstance(plan, ReplayPlan)
    alive = weakref.ref(plan)
    del plan, prepared
    worker.INPUT_CACHE.clear()
    assert alive() is None
