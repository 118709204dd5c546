"""The campaign worker's prepared-input cache and input-grouped dispatch.

A campaign worker keeps its last prepared workload input (generated
regions, exact outputs, blocks, layout, training samples, trace) and the
symbol models fitted on it, so consecutive jobs on one input skip all of
that.  These tests pin that a warm job is bit-identical to a cold one for
every scheme, that the cache can never serve a stale or mutated input or
hold two at once, and that the executor hands jobs out grouped by input.
"""

from __future__ import annotations

import weakref

import pytest

from repro.campaign import worker
from repro.campaign.executor import CampaignResult, run_jobs, serve_cached
from repro.campaign.spec import KNOWN_SCHEMES, PAPER_SCHEMES, CampaignSpec, Job
from repro.compression.e2mc import E2MCCompressor, SymbolModel
from repro.gpu.simulator import GPUSimulator
from repro.obs import metrics
from repro.workloads.fwt import FastWalshTransformWorkload
from repro.workloads.nn import NearestNeighborWorkload
from repro.workloads.registry import (
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
