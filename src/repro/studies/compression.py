"""Compression-ratio studies (Fig. 1, Fig. 2, Section V-C ratios).

These are analysis-only studies: they compress every block of each
workload's data directly instead of simulating the GPU, so their
:meth:`~repro.studies.base.Study.spec` is None and all computation happens
in :meth:`~repro.studies.base.Study.aggregate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.store import JobRecord
from repro.compression.registry import FIG1_COMPRESSORS, get_compressor
from repro.compression.stats import CompressionStats, geometric_mean
from repro.studies.base import Study, StudyResult
from repro.studies.registry import register_study
from repro.utils.blocks import array_to_blocks
from repro.utils.sampling import sample_evenly
from repro.workloads.registry import PAPER_WORKLOAD_ORDER, get_workload

#: MAGs evaluated in Fig. 9 / Section V-C
FIG9_MAGS = (16, 32, 64)


def workload_blocks(
    name: str, scale: float | None = None, seed: int = 2019, block_size_bytes: int = 128
) -> list[bytes]:
    """All input-region blocks of one benchmark (the data Fig. 1/2 compress)."""
    kwargs = {"seed": seed}
    if scale is not None:
        kwargs["scale"] = scale
    workload = get_workload(name, **kwargs)
    regions = workload.generate()
    blocks: list[bytes] = []
    for region in regions.values():
        blocks.extend(array_to_blocks(region.array, block_size_bytes))
    return blocks


def compression_stats_for_blocks(
    blocks: list[bytes],
    compressor_name: str,
    mag_bytes: int = 32,
    block_size_bytes: int = 128,
    train_samples: int = 1024,
) -> CompressionStats:
    """Compress ``blocks`` with one technique and accumulate MAG statistics.

    Sizes come from the compressor's batched analysis — vectorized kernels
    for every registry scheme (E2MC's LUT gather, :mod:`repro.kernels.lossless`
    for BDI/FPC/C-Pack/BPC), bit-exact against per-block :meth:`compress`.
    """
    compressor = get_compressor(compressor_name, block_size_bytes=block_size_bytes)
    compressor.train(sample_evenly(blocks, train_samples))
    stats = CompressionStats(block_size_bytes=block_size_bytes, mag_bytes=mag_bytes)
    stats.add_blocks(compressor.compressed_size_bits_batch(blocks))
    return stats


# --------------------------------------------------------------------- #
# Fig. 1


@dataclass(frozen=True)
class Fig1Row:
    """Raw/effective ratio of one (benchmark, compressor) pair."""

    workload: str
    compressor: str
    raw_ratio: float
    effective_ratio: float

    @property
    def effective_loss_percent(self) -> float:
        """How much the effective ratio falls short of the raw ratio."""
        return (1.0 - self.effective_ratio / self.raw_ratio) * 100.0


def fig1_rows(
    workload_names: list[str],
    compressors: list[str],
    mag_bytes: int = 32,
    scale: float | None = None,
    seed: int = 2019,
) -> list[Fig1Row]:
    """The per-benchmark bars of Fig. 1 plus the GM bars."""
    rows: list[Fig1Row] = []
    per_compressor_raw: dict[str, list[float]] = {c: [] for c in compressors}
    per_compressor_eff: dict[str, list[float]] = {c: [] for c in compressors}

    for name in workload_names:
        blocks = workload_blocks(name, scale=scale, seed=seed)
        for compressor_name in compressors:
            stats = compression_stats_for_blocks(blocks, compressor_name, mag_bytes)
            rows.append(
                Fig1Row(
                    workload=name,
                    compressor=compressor_name,
                    raw_ratio=stats.raw_ratio,
                    effective_ratio=stats.effective_ratio,
                )
            )
            per_compressor_raw[compressor_name].append(stats.raw_ratio)
            per_compressor_eff[compressor_name].append(stats.effective_ratio)

    for compressor_name in compressors:
        rows.append(
            Fig1Row(
                workload="GM",
                compressor=compressor_name,
                raw_ratio=geometric_mean(per_compressor_raw[compressor_name]),
                effective_ratio=geometric_mean(per_compressor_eff[compressor_name]),
            )
        )
    return rows


def format_fig1(rows: list[Fig1Row]) -> str:
    """Render the Fig. 1 data as a text table."""
    lines = [
        "Fig. 1 — raw vs. effective compression ratio (MAG = 32 B)",
        f"{'benchmark':<8} {'scheme':<7} {'raw':>6} {'effective':>10} {'loss %':>7}",
    ]
    for row in rows:
        lines.append(
            f"{row.workload:<8} {row.compressor:<7} {row.raw_ratio:>6.2f} "
            f"{row.effective_ratio:>10.2f} {row.effective_loss_percent:>7.1f}"
        )
    return "\n".join(lines)


@register_study
@dataclass
class Fig1Study(Study):
    """Fig. 1 — raw vs. effective compression ratio of BDI/FPC/C-PACK/E2MC.

    The raw ratio ignores MAG while the effective ratio rounds every
    compressed size up to the next MAG multiple; the paper's headline is
    that the effective geometric mean is 18–23 % below the raw one.
    """

    name = "fig1"
    title = "Fig. 1 — raw vs. effective compression ratio"

    workloads: tuple[str, ...] = PAPER_WORKLOAD_ORDER
    compressors: tuple[str, ...] = tuple(FIG1_COMPRESSORS)
    mag_bytes: int = 32
    scale: float | None = None
    seed: int = 2019

    def aggregate(self, records: list[JobRecord]) -> StudyResult:
        rows = fig1_rows(
            list(self.workloads),
            list(self.compressors),
            mag_bytes=self.mag_bytes,
            scale=self.scale,
            seed=self.seed,
        )
        flat = [
            {
                "workload": row.workload,
                "compressor": row.compressor,
                "raw_ratio": row.raw_ratio,
                "effective_ratio": row.effective_ratio,
                "effective_loss_percent": row.effective_loss_percent,
            }
            for row in rows
        ]
        return self.make_result(flat, data=rows)

    def format(self, result: StudyResult) -> str:
        return format_fig1(result.data)


# --------------------------------------------------------------------- #
# Fig. 2


@dataclass
class Fig2Distribution:
    """Per-benchmark histograms of bytes-above-MAG (fractions of all blocks)."""

    mag_bytes: int = 32
    per_workload: dict[str, dict[int, float]] = field(default_factory=dict)

    def heatmap(self, bin_width: int = 4) -> tuple[list[str], list[int], list[list[float]]]:
        """The Fig. 2 heat map: benchmarks × byte bins → fraction of blocks.

        Returns (workload names, bin lower edges, matrix of fractions).
        """
        edges = list(range(0, self.mag_bytes + bin_width, bin_width))
        matrix: list[list[float]] = []
        names = list(self.per_workload)
        for name in names:
            histogram = self.per_workload[name]
            row = [0.0] * len(edges)
            for extra_bytes, fraction in histogram.items():
                bin_index = min(len(edges) - 1, extra_bytes // bin_width)
                row[bin_index] += fraction
            matrix.append(row)
        return names, edges, matrix

    def fraction_within_threshold(self, workload: str, threshold_bytes: int) -> float:
        """Fraction of blocks at most ``threshold_bytes`` above a MAG multiple.

        Blocks exactly on a multiple (the 0 B bin) are excluded: they need no
        approximation.  This is the share of blocks SLC can convert to the
        lower budget with the given lossy threshold.
        """
        histogram = self.per_workload[workload]
        return sum(
            fraction
            for extra, fraction in histogram.items()
            if 0 < extra <= threshold_bytes
        )


def format_fig2(distribution: Fig2Distribution, bin_width: int = 4) -> str:
    """Render the Fig. 2 heat map as a text table (percent of blocks)."""
    names, edges, matrix = distribution.heatmap(bin_width=bin_width)
    header = "bytes above MAG:" + "".join(f"{edge:>7}" for edge in edges)
    lines = [
        f"Fig. 2 — distribution of compressed blocks above MAG (MAG = {distribution.mag_bytes} B)",
        header,
    ]
    for name, row in zip(names, matrix):
        cells = "".join(f"{100.0 * value:>7.1f}" for value in row)
        lines.append(f"{name:<16}{cells}")
    return "\n".join(lines)


@register_study
@dataclass
class Fig2Study(Study):
    """Fig. 2 — distribution of compressed blocks above MAG multiples (E2MC).

    Blocks are binned by how many bytes their compressed size lies above the
    largest MAG multiple below it; a significant share sits only a few bytes
    above a multiple — the opportunity SLC exploits.
    """

    name = "fig2"
    title = "Fig. 2 — compressed-block distribution above MAG multiples"

    workloads: tuple[str, ...] = PAPER_WORKLOAD_ORDER
    mag_bytes: int = 32
    scale: float | None = None
    seed: int = 2019

    def aggregate(self, records: list[JobRecord]) -> StudyResult:
        distribution = Fig2Distribution(mag_bytes=self.mag_bytes)
        for name in self.workloads:
            blocks = workload_blocks(name, scale=self.scale, seed=self.seed)
            stats = compression_stats_for_blocks(blocks, "e2mc", self.mag_bytes)
            distribution.per_workload[name] = stats.extra_byte_distribution()
        rows = [
            {"workload": name, "extra_bytes": extra, "fraction": fraction}
            for name, histogram in distribution.per_workload.items()
            for extra, fraction in sorted(histogram.items())
        ]
        return self.make_result(rows, data=distribution)

    def format(self, result: StudyResult) -> str:
        return format_fig2(result.data)


# --------------------------------------------------------------------- #
# Section V-C — E2MC effective ratio per MAG


def effective_ratio_by_mag(
    workload_names: list[str] | None = None,
    mags: tuple[int, ...] = FIG9_MAGS,
    scale: float | None = None,
    seed: int = 2019,
) -> dict[int, dict[str, float]]:
    """Section V-C: E2MC raw and effective compression ratio per MAG.

    Returns ``{mag: {"raw": gm_raw, "effective": gm_effective}}``; the raw
    geometric mean is identical across MAGs by construction.
    """
    workload_names = list(workload_names or PAPER_WORKLOAD_ORDER)
    results: dict[int, dict[str, float]] = {}
    per_workload_blocks = {
        name: workload_blocks(name, scale=scale, seed=seed) for name in workload_names
    }
    for mag in mags:
        raw_values = []
        effective_values = []
        for name in workload_names:
            stats = compression_stats_for_blocks(per_workload_blocks[name], "e2mc", mag)
            raw_values.append(stats.raw_ratio)
            effective_values.append(stats.effective_ratio)
        results[mag] = {
            "raw": geometric_mean(raw_values),
            "effective": geometric_mean(effective_values),
        }
    return results
