"""The campaign worker's prepared-input cache and input-grouped dispatch.

A campaign worker keeps its last prepared workload input (generated
regions, exact outputs, blocks, layout, training samples, trace) and the
symbol models fitted on it, so consecutive jobs on one input skip all of
that.  These tests pin that a warm job is bit-identical to a cold one for
every scheme, that the cache can never serve a stale or mutated input or
hold two at once, and that the local pool keeps each worker on the input
it holds (:func:`~repro.campaign.executor.pick_input`).
"""

from __future__ import annotations

import multiprocessing
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign import worker
from repro.campaign.executor import (
    CampaignResult,
    pick_input,
    run_jobs,
    serve_cached,
)
from repro.campaign.spec import KNOWN_SCHEMES, PAPER_SCHEMES, CampaignSpec, Job
from repro.campaign.store import ResultStore
from repro.compression.e2mc import E2MCCompressor, SymbolModel
from repro.gpu.simulator import GPUSimulator
from repro.obs import metrics
from repro.workloads.fwt import FastWalshTransformWorkload
from repro.workloads.nn import NearestNeighborWorkload
from repro.workloads.registry import (
    available_workloads,
    get_workload,
    register_workload,
    unregister_workload,
)

SCALE = 1.0 / 1024.0


@pytest.fixture(autouse=True)
def empty_input_cache():
    """Every test starts and ends with the process cache empty."""
    worker.INPUT_CACHE.clear()
    yield
    worker.INPUT_CACHE.clear()


@pytest.fixture
def metrics_on():
    metrics.disable()
    metrics.clear()
    metrics.enable()
    yield
    metrics.disable()
    metrics.clear()


@pytest.fixture(params=KNOWN_SCHEMES, ids=KNOWN_SCHEMES)
def scheme(request: pytest.FixtureRequest) -> str:
    """Every scheme a job may carry."""
    return request.param


def _job(workload: str, scheme: str, **overrides) -> Job:
    params = dict(workload=workload, scheme=scheme, scale=SCALE, seed=2019,
                  compute_error=False)
    params.update(overrides)
    return Job(**params)


def _never_built():
    raise AssertionError("the input should have been served from the cache")


@pytest.mark.parametrize(
    "workload, compute_error", [("NN", True), ("FWT", False)], ids=["NN-error", "FWT"]
)
def test_warm_result_equals_cold(scheme, workload, compute_error, metrics_on):
    job = _job(workload, scheme, compute_error=compute_error)
    cold = worker.simulate_job(job, payload_digest=True)
    assert _cache_counts() == (0, 1)

    worker.INPUT_CACHE.clear()
    other = KNOWN_SCHEMES[(KNOWN_SCHEMES.index(scheme) + 1) % len(KNOWN_SCHEMES)]
    worker.simulate_job(_job(workload, other, compute_error=compute_error))
    metrics.clear()
    warm = worker.simulate_job(job, payload_digest=True)
    assert _cache_counts() == (1, 0)

    assert warm.to_dict() == cold.to_dict()
    assert warm.extra_metrics["payload_sha256"] == cold.extra_metrics["payload_sha256"]


@pytest.fixture(params=available_workloads())
def registered_workload(request: pytest.FixtureRequest) -> str:
    """Every registered workload."""
    return request.param


def test_warm_error_phase_equals_cold_on_every_workload(registered_workload):
    """A lossy job reuses the exact sides an earlier job on its input built."""
    job = _job(registered_workload, "TSLC-OPT", compute_error=True)
    cold = worker.simulate_job(job, payload_digest=True)
    worker.INPUT_CACHE.clear()
    worker.simulate_job(_job(registered_workload, "TSLC-SIMP", compute_error=True))
    warm = worker.simulate_job(job, payload_digest=True)
    assert warm.to_dict() == cold.to_dict()


def test_exact_sides_are_built_once_and_dropped_with_the_input(metrics_on):
    job = _job("NN", "TSLC-SIMP", compute_error=True)
    worker.simulate_job(job)
    prepared = worker.INPUT_CACHE.get(
        (NearestNeighborWorkload, *job.input_key), _never_built
    )
    approximable = [name for name, region in prepared.input_regions.items()
                    if region.approximable]
    assert sorted(prepared.exact_sides) == sorted(approximable)
    # only the damaged records are sorted; the all-zero scratch comes back equal
    assert metrics.snapshot()["counters"]["fidelity.exact_side.build"] == 1
    metrics.clear()
    worker.simulate_job(_job("NN", "TSLC-OPT", compute_error=True))
    assert "fidelity.exact_side.build" not in metrics.snapshot()["counters"]

    alive = [weakref.ref(side) for side in prepared.exact_sides.values()]
    del prepared
    worker.INPUT_CACHE.clear()
    assert [ref() for ref in alive] == [None, None]


def _cache_counts(counters: dict | None = None) -> tuple[int, int]:
    """(hits, misses) of the input cache in a metrics counter snapshot."""
    if counters is None:
        counters = metrics.snapshot()["counters"]
    return (counters.get("sim.input_cache.hit", 0),
            counters.get("sim.input_cache.miss", 0))


def test_simulate_job_keys_the_process_cache_by_factory_and_input():
    job = _job("NN", "E2MC")
    worker.simulate_job(job)
    factory = NearestNeighborWorkload
    prepared = worker.INPUT_CACHE.get((factory, *job.input_key), _never_built)
    assert prepared.workload.name == "NN" and prepared.workload.scale == SCALE
    # a job on another seed, scale or workload is another input
    for other in (_job("NN", "E2MC", seed=7), _job("NN", "E2MC", scale=SCALE / 2),
                  _job("FWT", "E2MC")):
        assert other.input_key != job.input_key
    # every scheme, MAG and threshold of one input shares its key
    assert {_job("NN", s, mag_bytes=m, lossy_threshold_bytes=t).input_key
            for s in KNOWN_SCHEMES for m in (16, 32, 64) for t in (8, 16)} == {
        job.input_key}


def test_simulate_job_builds_the_job_config_once(monkeypatch):
    from repro.campaign import spec

    calls = []
    real = spec.overrides_to_config

    def counting(overrides):
        calls.append(overrides)
        return real(overrides)

    monkeypatch.setattr(spec, "overrides_to_config", counting)
    job = _job("TP", "E2MC", config_overrides=(("l2_cache_kb", 512),))
    result = worker.simulate_job(job)
    assert calls == [job.config_overrides]
    assert job.config.l2_cache_kb == 512 and job.input_key[-1] == job.config.block_size_bytes
    assert result == worker.simulate_job(Job.from_dict(job.to_dict()))


def test_reregistered_workload_never_serves_the_stale_input():
    name = "CACHEPLUGIN"
    register_workload(name, NearestNeighborWorkload)
    try:
        first = worker.simulate_job(_job(name, "TSLC-OPT"))
        unregister_workload(name)
        register_workload(name, FastWalshTransformWorkload)
        second = worker.simulate_job(_job(name, "TSLC-OPT"))
    finally:
        unregister_workload(name)
    expected = GPUSimulator().run(
        FastWalshTransformWorkload(scale=SCALE, seed=2019),
        worker.build_backend("TSLC-OPT", GPUSimulator().config),
        compute_error=False,
    )
    assert second.to_dict() == expected.to_dict()
    assert second.to_dict() != first.to_dict()


def test_cached_regions_and_exact_outputs_reject_in_place_writes():
    job = _job("NN", "TSLC-OPT", compute_error=True)
    worker.simulate_job(job)
    prepared = worker.INPUT_CACHE.get(
        (NearestNeighborWorkload, *job.input_key), _never_built
    )
    arrays = [region.array for region in prepared.all_regions.values()]
    arrays += list(prepared.exact_outputs.arrays.values())
    assert len(arrays) > len(prepared.input_regions)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.reshape(-1)[0] = 0
    # the next job on the input still runs (and matches a cold run)
    warm = worker.simulate_job(job)
    worker.INPUT_CACHE.clear()
    assert worker.simulate_job(job).to_dict() == warm.to_dict()


def test_switching_inputs_frees_the_previous_one_before_preparing_the_next():
    cache = worker.InputCache()
    simulator = GPUSimulator()
    first = cache.get(("NN",), lambda: simulator.prepare(get_workload("NN", scale=SCALE)))
    old = weakref.ref(first)
    del first
    alive_at_build: list[bool] = []

    def build():
        alive_at_build.append(old() is not None)
        return simulator.prepare(get_workload("FWT", scale=SCALE))

    cache.get(("FWT",), build)
    assert alive_at_build == [False]
    cache.clear()


def test_run_prepared_rejects_an_input_prepared_for_another_geometry():
    prepared = GPUSimulator(train_samples=64).prepare(get_workload("NN", scale=SCALE))
    with pytest.raises(ValueError, match="training samples"):
        GPUSimulator().run_prepared(
            prepared, worker.build_backend("E2MC", GPUSimulator().config)
        )


def _grid() -> CampaignSpec:
    return CampaignSpec(workloads=("NN", "FWT"), schemes=("E2MC", "TSLC-OPT"),
                        mags=(16, 32), scales=(SCALE,), compute_error=False)


def test_serve_cached_groups_pending_jobs_by_input_in_stable_order():
    jobs = _grid().expand()
    # the grid itself interleaves the two inputs (MAG is an outer axis)
    assert [job.workload for job in jobs] == ["NN", "NN", "FWT", "FWT"] * 2
    outcome = CampaignResult(spec=_grid(), jobs=jobs)
    pending = serve_cached(outcome, None, None)
    assert pending == ([job for job in jobs if job.workload == "NN"]
                       + [job for job in jobs if job.workload == "FWT"])
    assert outcome.jobs == jobs


def test_in_process_run_prepares_each_input_once_and_keeps_grid_order(metrics_on):
    jobs = _grid().expand()
    outcome = run_jobs(_grid(), jobs, workers=1)
    assert [job for job, _ in outcome.iter_records()] == jobs
    counts = [_cache_counts(record.metrics["counters"])
              for _, record in outcome.iter_records()]
    # one lookup per job; the first job of each input misses
    assert counts == [(0, 1), (1, 0), (0, 1), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0)]

    # run_jobs released the input on return
    built: list[str] = []

    def build():
        built.append("NN")
        return GPUSimulator().prepare(get_workload("NN", scale=SCALE))

    worker.INPUT_CACHE.get((NearestNeighborWorkload, *jobs[0].input_key), build)
    assert built == ["NN"]


def _dispatch(sizes: list[int], n_workers: int, order: list[int]) -> list[tuple]:
    """Drive :func:`pick_input` as the pool does; returns each hand-out.

    ``order`` picks which busy worker finishes next (index into the busy
    list; the first one once ``order`` runs out).  A hand-out is
    ``(worker, input, job index within the input)``.
    """
    pending = dict(enumerate(sizes))
    held: list[int | None] = [None] * n_workers
    busy = [False] * n_workers
    finishes = iter(order)
    handed: list[tuple] = []
    while True:
        for w in range(n_workers):
            if busy[w]:
                continue
            key = pick_input(pending, held[w],
                             {held[o] for o in range(n_workers) if o != w})
            if key is None:
                continue
            # a worker never leaves an input that still has pending jobs
            assert held[w] is None or key == held[w] or not pending[held[w]]
            handed.append((w, key, sizes[key] - pending[key]))
            pending[key] -= 1
            held[w], busy[w] = key, True
        running = [w for w in range(n_workers) if busy[w]]
        if not running:
            return handed
        busy[running[next(finishes, 0) % len(running)]] = False


def _prepares(handed: list[tuple]) -> int:
    """How many hand-outs send a worker to an input it does not hold."""
    held: dict[int, int] = {}
    count = 0
    for w, key, _ in handed:
        count += held.get(w) != key
        held[w] = key
    return count


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=7),
    n_workers=st.integers(min_value=1, max_value=4),
    order=st.lists(st.integers(min_value=0, max_value=3), max_size=250),
)
@example(sizes=[100, 60, 5, 5], n_workers=2, order=[])
@example(sizes=[100, 60, 5, 5], n_workers=2, order=[0, 1] * 100)
@example(sizes=[5, 5, 5], n_workers=4, order=[3, 2, 1] * 4)
def test_property_dispatch_hands_each_job_once_and_bounds_prepares(
        sizes, n_workers, order):
    """Every job is handed out once, with at most W(W-1)/2 extra prepares.

    An input is prepared again only when a worker joins an input another
    worker holds, which the rule allows only once every remaining input is
    held.  From then on no input is fresh and the R remaining inputs run
    out one after another; a worker moves only when its input has run out,
    always to one that runs out later.  So a worker moves at most R times,
    or R - i times if it holds the i-th input to run out.  With k workers
    holding no remaining input, R <= W - k, and kR + sum(R - i) peaks at
    k = 1, R = W - 1: W(W-1)/2 moves, one for 2 workers.
    """
    handed = _dispatch(sizes, n_workers, order)
    assert sorted((key, index) for _, key, index in handed) == [
        (key, index) for key, size in enumerate(sizes) for index in range(size)]
    assert _prepares(handed) <= len(sizes) + n_workers * (n_workers - 1) // 2


def test_dispatch_keeps_a_fast_worker_off_a_slow_workers_input():
    """Groups of 100/60/5/5 jobs, worker 1 stuck on its first job: worker 0
    runs every other input before it joins the one worker 1 holds."""
    handed = _dispatch([100, 60, 5, 5], 2, [])
    assert [key for w, key, _ in handed if w == 1] == [1]
    inputs_of_worker_0 = [key for w, key, _ in handed if w == 0]
    assert list(dict.fromkeys(inputs_of_worker_0)) == [0, 2, 3, 1]
    assert _prepares(handed) == 4 + 1


def test_pick_input_rule():
    counts = {"a": 3, "b": 5, "c": 5, "d": 0}
    assert pick_input(counts, "a", {"b"}) == "a"  # stays while "a" has jobs
    assert pick_input(counts, "d", {"b"}) == "c"  # largest unheld
    assert pick_input(counts, None, set()) == "b"  # tie: first appearance
    assert pick_input(counts, "d", {"a", "b", "c"}) == "b"  # all held
    assert pick_input({"a": 0}, "a", set()) is None


def _paper_grid() -> CampaignSpec:
    return CampaignSpec(workloads=("NN", "FWT", "BP"), schemes=PAPER_SCHEMES,
                        scales=(SCALE,), compute_error=False)


def test_pool_prepares_each_input_about_once_and_matches_serial(metrics_on):
    jobs = _paper_grid().expand()
    pooled = run_jobs(_paper_grid(), jobs, workers=2)
    assert [job for job, _ in pooled.iter_records()] == jobs
    misses = sum(_cache_counts(record.metrics["counters"])[1]
                 for _, record in pooled.iter_records())
    # 3 inputs, 2 workers: inputs + workers - 1
    assert misses <= 4
    serial = run_jobs(_paper_grid(), jobs, workers=1)
    for job, record in pooled.iter_records():
        assert record.ok
        assert record.result.to_dict() == serial.record_for(job).result.to_dict()


@pytest.fixture(params=[1, 2], ids=["in-process", "pool"])
def workers(request: pytest.FixtureRequest) -> int:
    """Both executor paths: the in-process loop and the process pool."""
    return request.param


def test_ctrl_c_keeps_finished_cells_and_leaves_no_process(workers, tmp_path):
    store = ResultStore(tmp_path / "camp")
    seen: list[str] = []

    def interrupt_on_second(record, done, total):
        seen.append(record.job.content_hash)
        if len(seen) == 2:
            raise KeyboardInterrupt

    jobs = _paper_grid().expand()
    outcome = run_jobs(None, jobs, store=store, workers=workers,
                       progress=interrupt_on_second)
    assert outcome.interrupted
    assert 2 <= len(outcome.records) < len(jobs)
    assert multiprocessing.active_children() == []
    # every finished cell is in the store: a re-run serves it cached
    resumed = run_jobs(None, jobs, store=store, workers=workers)
    assert not resumed.interrupted and resumed.n_missing == 0
    assert resumed.n_cached == len(outcome.records)


def test_symbol_model_is_fitted_once_per_input_and_model_parameters(monkeypatch):
    fits: list[tuple[int, int, int]] = []
    original_fit = SymbolModel.fit

    def counting_fit(self, blocks):
        fits.append((self.symbol_bytes, self.max_table_entries, self.max_code_length))
        return original_fit(self, blocks)

    monkeypatch.setattr(SymbolModel, "fit", counting_fit)
    for mag in (16, 32, 64):
        for scheme in (*PAPER_SCHEMES, "BDI"):
            worker.simulate_job(_job("NN", scheme, mag_bytes=mag,
                                     lossy_threshold_bytes=mag // 2))
    assert fits == [(2, 1024, 24)]

    samples = worker.INPUT_CACHE.get(
        (NearestNeighborWorkload, *_job("NN", "E2MC").input_key), _never_built
    ).train_samples
    e2mc = worker.build_backend("E2MC", GPUSimulator().config)
    tslc = worker.build_backend("TSLC-PRED", GPUSimulator().config, mag_bytes=16)
    e2mc.train(samples)
    tslc.train(samples)
    shared = e2mc.compressor.model
    assert tslc.slc.baseline.model is shared  # and so are its LUTs
    # other parameters get their own fit, still only once
    narrow = E2MCCompressor(max_table_entries=256)
    narrow.train(samples)
    narrow.train(samples)
    assert narrow.model is not shared
    assert fits == [(2, 1024, 24), (2, 256, 24)]
    # a plain block list trains a private model; the shared one is untouched
    code = shared.code
    e2mc.train(list(samples)[:8])
    assert e2mc.compressor.model is not shared and shared.code is code
