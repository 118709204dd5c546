"""Held Fig. 4 decisions: one compact decision per input, MAG, threshold and tree.

A :class:`~repro.replay.plan.ReplayCache` keeps the decision of every row of
its input per :attr:`~repro.gpu.backends.SLCBackend.decision_key`, read off
the E2MC sizes it holds and taken with each row's own approximable flag (its
region's); a TSLC store then only refills its lossy rows.  These tests pin
such stores to the per-block oracle, :meth:`~repro.gpu.backends.SLCBackend.store`
with each row's own region flag, for every variant, MAG, threshold and
selection of rows, write-miss batches that span input and output rows
included; that the memo keeps models, MAGs, thresholds and tree layouts
apart while TSLC-SIMP and TSLC-PRED share one decision; that an input holds
one decision per model, MAG, threshold and tree, whatever regions its
stores cover; that no held decision marks a row outside a safe-to-approximate
region lossy; and that a held decision costs at most 10 bytes per row.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.worker import build_backend
from repro.compression.e2mc import E2MCCompressor, TrainingSet
from repro.core.config import SLCConfig, SLCVariant
from repro.core.slc import SLCCompressor
from repro.gpu import backends
from repro.gpu.backends import SLCBackend, StoredBatch
from repro.gpu.simulator import GPUSimulator
from repro.workloads.registry import PAPER_WORKLOAD_ORDER, get_workload

SCALE = 1.0 / 1024.0
MAGS = (16, 32, 64)
#: NN holds many rows; SRAD1's output regions hold lossy candidates that
#: only an approximable store of them would truncate
WORKLOADS = ("NN", "SRAD1")


def _prepare(workload: str):
    return GPUSimulator().prepare(get_workload(workload, scale=SCALE, seed=2019))


def _slc(variant, mag, threshold, samples, **config) -> SLCBackend:
    backend = SLCBackend(SLCCompressor(SLCConfig(
        mag_bytes=mag, lossy_threshold_bytes=threshold, variant=variant, **config
    )))
    backend.train(samples)
    return backend


def _region_flags(prepared) -> np.ndarray:
    """Per row: whether its region is safe to approximate."""
    flags = np.zeros(prepared.rows.shape[0], dtype=bool)
    for name, region in prepared.all_regions.items():
        flags[prepared.region_slice(name)] = region.approximable
    return flags


def _oracle(backend, prepared, addresses) -> StoredBatch:
    """Per-block ``store`` of ``rows[addresses]``, each with its region's flag."""
    index = np.arange(prepared.rows.shape[0])[addresses]
    flags = _region_flags(prepared)
    return StoredBatch.from_blocks(
        [
            backend.store(prepared.rows[a].tobytes(), approximable=bool(flags[a]))
            for a in index.tolist()
        ],
        backend.block_size_bytes,
    )


@pytest.fixture(scope="module")
def inputs() -> dict:
    """One prepared input per workload; its cache fills across examples."""
    return {name: _prepare(name) for name in WORKLOADS}


def _addresses(data, n: int):
    kind = data.draw(st.sampled_from(["all", "slice", "picks"]))
    if kind == "all":
        return slice(0, n)
    if kind == "slice":
        start = data.draw(st.integers(0, n))
        return slice(start, data.draw(st.integers(start, n)))
    # write misses: any rows, repeats included
    picks = data.draw(st.lists(st.integers(0, n - 1), max_size=300))
    return np.asarray(picks, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stores_from_a_held_decision_equal_fresh_store_batch(inputs, data):
    """A held decision's stores equal a fresh ``store_batch`` of the rows
    with their region flags, and both equal the per-block oracle."""
    prepared = inputs[data.draw(st.sampled_from(WORKLOADS))]
    variant = data.draw(st.sampled_from(list(SLCVariant)))
    mag = data.draw(st.sampled_from(MAGS))
    threshold = data.draw(st.integers(0, mag))
    addresses = _addresses(data, prepared.rows.shape[0])
    held = _slc(variant, mag, threshold, prepared.train_samples)
    fresh = _slc(variant, mag, threshold, prepared.train_samples)
    with pytest.MonkeyPatch.context() as patch:
        if data.draw(st.booleans()):  # decide and refill a few rows at a time
            patch.setattr(backends, "SLC_SLICE_ROWS", 7)
        stored = prepared.replay_cache.store(held, addresses)
        batch = fresh.store_batch(
            prepared.rows[addresses], approximable=_region_flags(prepared)[addresses]
        )
    assert stored == batch == _oracle(fresh, prepared, addresses)
    assert held.decision_key in prepared.replay_cache.decisions


def test_a_write_miss_batch_spanning_input_and_output_rows_reads_each_rows_flag():
    prepared = _prepare("SRAD1")
    flags = _region_flags(prepared)
    inputs, outputs = np.flatnonzero(flags), np.flatnonzero(~flags)
    assert inputs.size and outputs.size
    # interleaved, with repeats, as a kernel's write misses arrive
    addresses = np.concatenate([inputs[::3], outputs[::2], inputs[1::5], outputs[::7]])
    addresses = addresses[np.random.default_rng(3).permutation(addresses.size)]
    for variant in SLCVariant:
        backend = _slc(variant, 32, 16, prepared.train_samples)
        stored = prepared.replay_cache.store(backend, addresses)
        assert stored == _oracle(backend, prepared, addresses)
        assert stored.lossy[flags[addresses]].any()
        assert not stored.lossy[~flags[addresses]].any()
        # the output rows hold lossy candidates: an approximable store of
        # them would truncate some
        assert backend.store_batch(prepared.rows[outputs]).lossy.any()


def test_memo_keeps_models_mags_thresholds_trees_and_regions_apart():
    prepared = _prepare("SRAD1")
    cache, rows = prepared.replay_cache, prepared.rows
    samples = prepared.train_samples
    other_samples = TrainingSet(row.tobytes() for row in rows[::3])
    simp, pred, opt = SLCVariant.SIMP, SLCVariant.PRED, SLCVariant.OPT
    made = {
        "simp": _slc(simp, 32, 16, samples),
        "pred": _slc(pred, 32, 16, samples),
        "opt": _slc(opt, 32, 16, samples),
        "opt other nodes": _slc(opt, 32, 16, samples, opt_extra_nodes={2: 4}),
        "pred max 8 symbols": _slc(pred, 32, 16, samples, max_approx_symbols=8),
        "mag 16": _slc(simp, 16, 8, samples),
        "mag 64": _slc(simp, 64, 16, samples),
        "threshold 8": _slc(simp, 32, 8, samples),
        "other model": _slc(simp, 32, 16, other_samples),
    }
    assert made["other model"].slc.baseline.model is not made["simp"].slc.baseline.model
    keys = {name: backend.decision_key for name, backend in made.items()}
    # the variant is not read: TSLC-SIMP and TSLC-PRED share one decision
    assert keys["simp"] == keys["pred"]
    assert len(set(keys.values())) == len(keys) - 1
    flags = _region_flags(prepared)
    for name, backend in made.items():
        fresh = _slc(backend.slc.config.variant, backend.slc.config.mag_bytes,
                     backend.slc.config.lossy_threshold_bytes,
                     other_samples if name == "other model" else samples,
                     opt_extra_nodes=backend.slc.config.opt_extra_nodes,
                     max_approx_symbols=backend.slc.config.max_approx_symbols)
        # input and output regions, each row with its own region's flag
        for name_of_region in prepared.all_regions:
            sl = prepared.region_slice(name_of_region)
            assert cache.store(backend, sl) == _oracle(fresh, prepared, sl)
        assert not cache.decisions[backend.decision_key].lossy[~flags].any()
    # one decision per key, whatever regions the stores covered
    assert len(cache.decisions) == len(keys) - 1
    # one E2MC size memo per model, shared by every MAG and threshold
    assert set(cache.sizes) == {
        made["simp"].slc.baseline.size_key, made["other model"].slc.baseline.size_key
    }
    for array in cache.sizes.values():
        assert not array.flags.writeable
    for decisions in cache.decisions.values():
        assert all(not array.flags.writeable for array in decisions.arrays())
    assert not cache.approximable.flags.writeable


def test_fig7_schemes_take_two_decisions_per_input():
    """E2MC and the three TSLC variants hold one decision per tree layout
    (SIMP and PRED share one), not one more per approximable flag."""
    prepared = _prepare("BP")
    simulator = GPUSimulator()
    for scheme in ("E2MC", "TSLC-SIMP", "TSLC-PRED", "TSLC-OPT"):
        simulator.run_prepared(prepared, build_backend(scheme, simulator.config),
                               compute_error=False)
    assert len(prepared.replay_cache.decisions) == 2


def test_no_held_decision_marks_a_row_outside_an_approximable_region_lossy():
    """Rows of output regions are never approximated, so a held decision
    marks none of them lossy (nor runs the adder tree over them)."""
    prepared = _prepare("SRAD1")
    simulator = GPUSimulator()
    for mag in MAGS:
        for scheme in ("TSLC-SIMP", "TSLC-OPT"):
            backend = build_backend(scheme, simulator.config, mag_bytes=mag)
            simulator.run_prepared(prepared, backend, compute_error=False)
    decisions = prepared.replay_cache.decisions
    lossy = 0
    for held in decisions.values():
        for name, region in prepared.all_regions.items():
            if not region.approximable:
                assert not held.lossy[prepared.region_slice(name)].any(), name
        lossy += held.rows.size
    assert lossy > 0
    assert len(decisions) == 2 * len(MAGS)


@pytest.mark.parametrize("workload", PAPER_WORKLOAD_ORDER)
def test_a_held_decision_costs_at_most_ten_bytes_per_row(workload):
    prepared = _prepare(workload)
    lossy = 0
    for mag in MAGS:
        backend = _slc(SLCVariant.OPT, mag, mag // 2, prepared.train_samples)
        prepared.replay_cache.store(backend, slice(0, 1))
        decisions = prepared.replay_cache.decisions[backend.decision_key]
        n, k = len(decisions), decisions.rows.size
        held = sum(array.nbytes for array in decisions.arrays())
        # one flag per row; index, start, count, flag and bits removed per lossy row
        assert held == n + 9 * k <= 10 * n
        lossy += k
    assert lossy > 0


def test_backends_the_memo_cannot_serve_store_through_store_batch():
    prepared = _prepare("NN")
    samples = prepared.train_samples
    untrained = SLCBackend(SLCCompressor(SLCConfig()))
    # a baseline whose header outgrows SLC's lossless one: a raw E2MC row
    # need not be raw for SLC, so its sizes cannot stand in for the payload
    wide_header = SLCBackend(SLCCompressor(SLCConfig(), baseline=E2MCCompressor(num_pdw=8)))
    wide_header.train(samples)
    reference = SLCBackend(SLCCompressor(SLCConfig(), baseline=E2MCCompressor(num_pdw=8)))
    reference.train(samples)
    assert untrained.decision_key is None
    assert wide_header.decision_key is None
    # rows of an input and an output region
    sl = slice(1200, 1834)
    assert prepared.replay_cache.store(untrained, sl) == _oracle(
        SLCBackend(SLCCompressor(SLCConfig())), prepared, sl
    )
    stored = prepared.replay_cache.store(wide_header, sl)
    assert stored == _oracle(reference, prepared, sl)
    assert stored.lossy.any()
    assert not prepared.replay_cache.decisions
