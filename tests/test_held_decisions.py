"""Held Fig. 4 decisions: one compact decision per input, MAG, threshold and tree.

A :class:`~repro.replay.plan.ReplayCache` keeps the decision of every row of
its input per :meth:`~repro.gpu.backends.SLCBackend.decision_key`, read off
the E2MC sizes it holds; a TSLC store then only refills its lossy rows.
These tests pin that such stores equal fresh
:meth:`~repro.gpu.backends.SLCBackend.store_batch` results for every
variant, MAG, threshold and selection of rows; that the memo keeps models,
MAGs, thresholds, tree layouts and approximable regions apart while
TSLC-SIMP and TSLC-PRED share one decision; and that a held decision costs
at most 10 bytes per row.
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
from repro.gpu.backends import SLCBackend
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
    prepared = inputs[data.draw(st.sampled_from(WORKLOADS))]
    variant = data.draw(st.sampled_from(list(SLCVariant)))
    mag = data.draw(st.sampled_from(MAGS))
    threshold = data.draw(st.integers(0, mag))
    approximable = data.draw(st.booleans())
    addresses = _addresses(data, prepared.rows.shape[0])
    held = _slc(variant, mag, threshold, prepared.train_samples)
    fresh = _slc(variant, mag, threshold, prepared.train_samples)
    with pytest.MonkeyPatch.context() as patch:
        if data.draw(st.booleans()):  # decide and refill a few rows at a time
            patch.setattr(backends, "SLC_SLICE_ROWS", 7)
        stored = prepared.replay_cache.store(held, addresses, approximable)
    assert stored == fresh.store_batch(prepared.rows[addresses], approximable=approximable)
    assert held.decision_key(approximable) in prepared.replay_cache.decisions


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
    keys = {name: backend.decision_key(True) for name, backend in made.items()}
    # the variant is not read: TSLC-SIMP and TSLC-PRED share one decision
    assert keys["simp"] == keys["pred"]
    assert len(set(keys.values())) == len(keys) - 1
    for name, backend in made.items():
        assert backend.decision_key(False) not in keys.values()
        fresh = _slc(backend.slc.config.variant, backend.slc.config.mag_bytes,
                     backend.slc.config.lossy_threshold_bytes,
                     other_samples if name == "other model" else samples,
                     opt_extra_nodes=backend.slc.config.opt_extra_nodes,
                     max_approx_symbols=backend.slc.config.max_approx_symbols)
        for approximable in (True, False):
            assert cache.store(backend, slice(None), approximable) == fresh.store_batch(
                rows, approximable=approximable
            )
    assert len(cache.decisions) == 2 * (len(keys) - 1)
    # one E2MC size memo per model, shared by every MAG and threshold
    assert set(cache.sizes) == {
        made["simp"].slc.baseline.size_key, made["other model"].slc.baseline.size_key
    }
    for array in cache.sizes.values():
        assert not array.flags.writeable
    for decisions in cache.decisions.values():
        assert all(not array.flags.writeable for array in decisions.arrays())


def test_fig7_schemes_take_two_decisions_per_input():
    prepared = _prepare("BP")
    simulator = GPUSimulator()
    for variant in ("TSLC-SIMP", "TSLC-PRED", "TSLC-OPT"):
        simulator.run_prepared(prepared, build_backend(variant, simulator.config),
                               compute_error=False)
    approximable = [key for key in prepared.replay_cache.decisions if key[-1]]
    assert len(approximable) == 2


@pytest.mark.parametrize("workload", PAPER_WORKLOAD_ORDER)
def test_a_held_decision_costs_at_most_ten_bytes_per_row(workload):
    prepared = _prepare(workload)
    lossy = 0
    for mag in MAGS:
        backend = _slc(SLCVariant.OPT, mag, mag // 2, prepared.train_samples)
        prepared.replay_cache.store(backend, slice(0, 1), True)
        decisions = prepared.replay_cache.decisions[backend.decision_key(True)]
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
    assert untrained.decision_key(True) is None
    assert wide_header.decision_key(True) is None
    sl = slice(3, 90)
    assert prepared.replay_cache.store(untrained, sl, True) == SLCBackend(
        SLCCompressor(SLCConfig())
    ).store_batch(prepared.rows[sl])
    assert prepared.replay_cache.store(wide_header, sl, True) == reference.store_batch(
        prepared.rows[sl]
    )
    assert not prepared.replay_cache.decisions
