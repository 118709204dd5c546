"""Scalar-vs-batch equivalence suite for the vectorized analysis kernels.

The scalar paths (`SLCCompressor.analyze`, `AdderTree.select_subblock`,
`SymbolModel.code_length`) are the reference implementations; every batched
kernel in :mod:`repro.kernels` must reproduce them bit-exactly.  The one
batched Fig. 4 decision (`SLCBackend.decide`, with `stored_sizes`) must give
per-block `analyze`'s lossy flags, truncation ranges, bits removed,
extra-node flags, stored bits and burst counts on random blocks and on real
workload regions, across MAGs, thresholds, all SLC variants and per-block
approximable flags.
"""

import numpy as np
import pytest

from repro.compression.e2mc import E2MCCompressor, SymbolModel
from repro.core.config import SLCConfig, SLCVariant
from repro.core.slc import SLCCompressor
from repro.core.tree import AdderTree, extra_node_starts
from repro.gpu.backends import LosslessBackend, SLCBackend, StoredBatch
from repro.gpu.simulator import GPUSimulator
from repro.kernels import (
    BatchSymbolView,
    BatchTreePlan,
    CodeLengthLUT,
    select_subblocks,
)
from repro.kernels.decision import stored_sizes
from repro.utils.blocks import array_to_blocks, as_block_rows, block_to_symbols
from repro.workloads.registry import get_workload

MAGS = [16, 32, 64]
VARIANTS = list(SLCVariant)


def _mixed_blocks(seed: int, n_values: int = 4096) -> list[bytes]:
    """Blocks with mixed compressibility: skewed symbols, zeros and noise."""
    rng = np.random.default_rng(seed)
    skewed = rng.integers(0, 8, n_values, dtype=np.uint16) * 257
    noise = rng.integers(0, 1 << 16, n_values, dtype=np.uint16)
    mask = rng.random(n_values)
    values = np.where(mask < 0.6, skewed, np.where(mask < 0.8, 0, noise))
    return array_to_blocks(values.astype("<u2"))


# --------------------------------------------------------------------- #
# BatchSymbolView


def test_symbol_view_matches_block_to_symbols():
    blocks = _mixed_blocks(seed=1)[:16]
    view = BatchSymbolView.from_blocks(blocks)
    assert view.n_blocks == 16
    assert view.symbols_per_block == 64
    for index, block in enumerate(blocks):
        assert view.symbols[index].tolist() == block_to_symbols(block)
        assert view.block_bytes(index) == block


def test_symbol_view_pads_trailing_partial_block():
    raw = b"\x01\x02" * 70  # 140 bytes -> 2 blocks, second zero-padded
    view = BatchSymbolView(raw, block_size_bytes=128)
    assert view.n_blocks == 2
    assert view.block_bytes(1) == raw[128:] + b"\x00" * 116


def test_symbol_view_rejects_bad_geometry():
    with pytest.raises(ValueError):
        BatchSymbolView.from_blocks([b"\x00" * 64], block_size_bytes=128)
    with pytest.raises(ValueError):
        BatchSymbolView(b"", block_size_bytes=128, symbol_bytes=3)


# --------------------------------------------------------------------- #
# CodeLengthLUT


def test_lut_matches_scalar_code_length():
    model = SymbolModel()
    model.fit(_mixed_blocks(seed=2))
    lut = CodeLengthLUT.from_model(model)
    # every tabled symbol plus a sample of untabled ones
    tabled = [s for s in model.code.lengths if s >= 0]
    probe = np.array(tabled + list(range(0, 1 << 16, 997)), dtype=np.int64)
    expected = [model.code_length(int(s)) for s in probe]
    assert lut.lengths(probe).tolist() == expected


def test_lut_untrained_is_raw_symbol_bits():
    model = SymbolModel()
    lut = CodeLengthLUT.from_model(model)
    assert not lut.trained
    assert lut.lengths(np.array([0, 7, 65535])).tolist() == [16, 16, 16]


def test_lut_rejects_wide_symbols():
    with pytest.raises(ValueError):
        CodeLengthLUT.from_model(SymbolModel(symbol_bytes=4))


def test_lut_cache_invalidated_on_retrain():
    model = SymbolModel()
    model.fit(_mixed_blocks(seed=3))
    first = model.code_length_table()
    assert model.code_length_table() is first  # cached
    model.fit(_mixed_blocks(seed=4))
    assert model.code_length_table() is not first


# --------------------------------------------------------------------- #
# vectorized training


def test_bincount_fit_matches_counter_fit():
    """np.bincount-based training yields the exact same code as Counter-based."""
    from collections import Counter

    blocks = _mixed_blocks(seed=5)
    fast = SymbolModel()
    fast.fit(blocks)  # bincount path (2-byte symbols)
    slow = SymbolModel()
    counts: Counter = Counter()
    for block in blocks:
        counts.update(block_to_symbols(block))
    slow.fit_counts(counts)
    assert fast.code.lengths == slow.code.lengths
    assert fast.code.codewords == slow.code.codewords


# --------------------------------------------------------------------- #
# vectorized adder tree


@pytest.mark.parametrize("extra_nodes", [None, {2: 8, 3: 4}, {1: 4, 2: 3}])
@pytest.mark.parametrize("max_symbols", [4, 16, None])
def test_select_subblocks_matches_adder_tree(extra_nodes, max_symbols):
    rng = np.random.default_rng(6)
    n_symbols = 64
    lengths = rng.integers(1, 40, size=(200, n_symbols), dtype=np.int64)
    required = rng.integers(1, 200, size=200, dtype=np.int64)
    plan = BatchTreePlan(n_symbols, extra_nodes=extra_nodes, max_symbols=max_symbols)
    batch = select_subblocks(lengths, required, plan)
    for i in range(len(lengths)):
        tree = AdderTree(lengths[i].tolist(), extra_nodes=extra_nodes)
        scalar = tree.select_subblock(int(required[i]), max_symbols=max_symbols)
        if scalar is None:
            assert not batch.found[i]
        else:
            assert batch.found[i]
            assert batch.level[i] == scalar.level
            assert batch.start_symbol[i] == scalar.start_symbol
            assert batch.symbol_count[i] == scalar.symbol_count
            assert batch.bits_removed[i] == scalar.bits_removed
            assert batch.used_extra_node[i] == scalar.used_extra_node


def _select_one(lengths: np.ndarray, required: int, extra_nodes) -> tuple:
    """The batched and the scalar selection of one block, as tuples."""
    batch = select_subblocks(
        lengths[None, :], np.array([required]), BatchTreePlan(64, extra_nodes)
    )
    scalar = AdderTree(lengths.tolist(), extra_nodes=extra_nodes).select_subblock(
        required
    )
    fields = ("level", "start_symbol", "symbol_count", "bits_removed", "used_extra_node")
    assert batch.found[0]
    return (
        tuple(getattr(batch, name)[0] for name in fields),
        tuple(getattr(scalar, name) for name in fields),
    )


def test_select_subblocks_aligned_node_wins_a_shared_start():
    """TSLC-OPT's level-3 staggered window at symbol 32 covers the aligned
    one exactly; both are eligible and the aligned node is reported."""
    lengths = np.zeros(64, dtype=np.int64)
    lengths[32:40] = 10  # level-2 windows reach 40 bits, level 3 80
    batch, scalar = _select_one(lengths, 60, {2: 8, 3: 4})
    assert 32 in extra_node_starts(64, 3, 4)
    assert batch == scalar == (3, 32, 8, 80, False)


@pytest.mark.parametrize("extra_nodes", [None, {2: 8, 3: 4}])
def test_select_subblocks_scans_levels_before_starts(extra_nodes):
    """Level 1 is eligible only at symbol 48, after level 3's first node at
    symbol 0; the lower level still wins."""
    lengths = np.zeros(64, dtype=np.int64)
    lengths[:8] = 5  # level 2 sums 20 bits at symbol 0, level 3 40
    lengths[48:50] = 30  # level 1 sums 60 bits at symbol 48
    batch, scalar = _select_one(lengths, 35, extra_nodes)
    assert batch == scalar == (1, 48, 2, 60, False)


def test_select_subblocks_rejects_non_positive_required():
    plan = BatchTreePlan(64)
    with pytest.raises(ValueError):
        select_subblocks(np.ones((1, 64), dtype=np.int64), np.array([0]), plan)


# --------------------------------------------------------------------- #
# E2MC batch queries


def test_e2mc_batch_lengths_and_sizes_match_scalar():
    blocks = _mixed_blocks(seed=7)
    compressor = E2MCCompressor()
    compressor.train(blocks[:128])
    lengths = compressor.model.code_length_table().lengths(
        BatchSymbolView.from_blocks(blocks).symbols
    )
    sizes = compressor.compressed_size_bits_batch(blocks)
    for i, block in enumerate(blocks):
        assert lengths[i].tolist() == compressor.symbol_code_lengths(block)
        assert sizes[i] == compressor.compress(block).compressed_size_bits


def test_e2mc_batch_sizes_untrained_are_raw():
    blocks = _mixed_blocks(seed=8)[:4]
    compressor = E2MCCompressor()
    assert compressor.compressed_size_bits_batch(blocks).tolist() == [128 * 8] * 4


# --------------------------------------------------------------------- #
# SLC analyze vs the batched decision — the headline equivalence


def _assert_decide_matches_analyze(slc: SLCCompressor, blocks, approximable=True) -> list:
    """``SLCBackend.decide`` plus ``stored_sizes`` over ``blocks`` equal
    per-block ``analyze`` with each block's flag (``approximable`` is one
    flag or one per block); returns the scalar decisions."""
    flags = np.broadcast_to(approximable, (len(blocks),)).tolist()
    scalar = [slc.analyze(block, approximable=flag) for block, flag in zip(blocks, flags)]
    payload, decisions = SLCBackend(slc).decide(as_block_rows(blocks), approximable)
    stored, bursts = stored_sizes(slc.config, payload, decisions.rows, decisions.bits_removed)
    lossy = [d for d in scalar if d.is_lossy]
    assert decisions.lossy.tolist() == [d.is_lossy for d in scalar]
    assert decisions.start.tolist() == [d.approx_start for d in lossy]
    assert decisions.count.tolist() == [d.approx_count for d in lossy]
    assert decisions.bits_removed.tolist() == [d.bits_removed for d in lossy]
    assert decisions.used_extra_node.tolist() == [d.used_extra_node for d in lossy]
    assert stored.tolist() == [d.stored_size_bits for d in scalar]
    assert bursts.tolist() == [d.bursts for d in scalar]
    return scalar


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@pytest.mark.parametrize("mag_bytes", MAGS)
def test_analyze_batch_equivalence_random_blocks(variant, mag_bytes):
    """The batched decision equals per-block ``analyze`` across thresholds."""
    blocks = _mixed_blocks(seed=9)
    lossy_seen = False
    for threshold in sorted({0, mag_bytes // 4, mag_bytes // 2, mag_bytes}):
        config = SLCConfig(
            variant=variant, mag_bytes=mag_bytes, lossy_threshold_bytes=threshold
        )
        slc = SLCCompressor(config)
        slc.train(blocks[:256])
        scalar = _assert_decide_matches_analyze(slc, blocks)
        lossy_seen = lossy_seen or any(d.is_lossy for d in scalar)
    # lossy decisions must actually occur somewhere in the sweep for the
    # equivalence to mean anything (at wide MAGs most budgets already fit)
    if mag_bytes <= 32:
        assert lossy_seen


@pytest.mark.parametrize("workload_name", ["NN", "FWT", "SRAD1"])
def test_analyze_batch_equivalence_real_regions(workload_name):
    """The batched decision of each real region equals per-block ``analyze``,
    with the region's own flag and with one flag per block."""
    workload = get_workload(workload_name, scale=1.0 / 1024.0, seed=7)
    regions = workload.generate()
    config = SLCConfig(variant=SLCVariant.OPT)
    slc = SLCCompressor(config)
    all_blocks = [
        block
        for region in regions.values()
        for block in array_to_blocks(region.array)
    ]
    slc.train(all_blocks[: min(256, len(all_blocks))])
    rng = np.random.default_rng(7)
    for region in regions.values():
        blocks = array_to_blocks(region.array)
        _assert_decide_matches_analyze(slc, blocks, region.approximable)
        _assert_decide_matches_analyze(slc, blocks, rng.random(len(blocks)) < 0.5)


def test_analyze_batch_untrained_and_unapproximable():
    blocks = _mixed_blocks(seed=10)[:32]
    slc = SLCCompressor(SLCConfig())
    _assert_decide_matches_analyze(slc, blocks)
    slc.train(blocks)
    assert not any(d.is_lossy for d in _assert_decide_matches_analyze(slc, blocks, False))
    # one flag per block: only the approximable blocks may be lossy
    flags = np.arange(len(blocks)) % 2 == 0
    scalar = _assert_decide_matches_analyze(slc, blocks, flags)
    assert any(d.is_lossy for d in scalar)


def test_analyze_batch_empty():
    slc = SLCCompressor(SLCConfig())
    assert _assert_decide_matches_analyze(slc, []) == []
    assert SLCBackend(slc).store_batch([]).bursts.size == 0


# --------------------------------------------------------------------- #
# backend + simulator wiring


def test_slc_backend_store_batch_matches_scalar():
    blocks = _mixed_blocks(seed=11)
    config = SLCConfig(variant=SLCVariant.OPT)
    scalar_backend = SLCBackend(SLCCompressor(config))
    batch_backend = SLCBackend(SLCCompressor(config))
    scalar_backend.train(blocks[:256])
    batch_backend.train(blocks[:256])
    scalar_stored = StoredBatch.from_blocks([scalar_backend.store(b) for b in blocks], 128)
    assert batch_backend.store_batch(as_block_rows(blocks)) == scalar_stored


def test_lossless_backend_store_batch_matches_scalar():
    blocks = _mixed_blocks(seed=12)
    scalar_backend = LosslessBackend(E2MCCompressor())
    batch_backend = LosslessBackend(E2MCCompressor())
    scalar_backend.train(blocks[:256])
    batch_backend.train(blocks[:256])
    assert batch_backend.store_batch(as_block_rows(blocks)) == StoredBatch.from_blocks(
        [scalar_backend.store(b) for b in blocks], 128
    )


@pytest.mark.parametrize("scheme", ["e2mc", "slc"])
def test_simulator_batch_store_identical_results(scheme):
    def build_backend():
        if scheme == "e2mc":
            return LosslessBackend(E2MCCompressor())
        return SLCBackend(SLCCompressor(SLCConfig(variant=SLCVariant.OPT)))

    def run(replay_mode: str):
        # a fresh workload per run: generate() advances the workload's rng
        workload = get_workload("NN", scale=1.0 / 1024.0, seed=3)
        return GPUSimulator(replay_mode=replay_mode).run(workload, build_backend())

    assert run("vectorized").to_dict() == run("scalar").to_dict()
