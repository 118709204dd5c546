"""Lossless block compressors and compression-ratio accounting.

The paper compares four state-of-the-art lossless memory compression
techniques (Fig. 1) and builds SLC on top of the strongest one (E2MC).  This
package implements all of them plus BPC (discussed qualitatively in
Section II-A):

* :class:`BDICompressor` — Base-Delta-Immediate (Pekhimenko et al., PACT 2012)
* :class:`FPCCompressor` — Frequent Pattern Compression (Alameldeen et al.)
* :class:`CPackCompressor` — C-PACK (Chen et al., TVLSI 2010)
* :class:`E2MCCompressor` — entropy-encoding memory compression for GPUs
  (Lal et al., IPDPS 2017), the SLC baseline
* :class:`BPCCompressor` — Bit-Plane Compression (Kim et al., ISCA 2016)

:mod:`repro.compression.stats` implements the raw vs. effective compression
ratio accounting around the memory access granularity (MAG).
"""

from repro.compression.base import (
    BlockCompressor,
    CompressedBlock,
    CompressionError,
    DecompressionError,
    as_block_bytes,
)
from repro.compression.bdi import BDICompressor
from repro.compression.bpc import BPCCompressor
from repro.compression.cpack import CPackCompressor
from repro.compression.e2mc import E2MCCompressor, SymbolModel, TrainingSet
from repro.compression.fpc import FPCCompressor
from repro.compression.registry import (
    SchemeInfo,
    available_compressors,
    get_compressor,
    register_compressor,
    scheme_latency,
)
from repro.compression.stats import (
    CompressionStats,
    bursts_for_size,
    effective_compressed_bytes,
    effective_compression_ratio,
    extra_bytes_above_mag,
    geometric_mean,
    raw_compression_ratio,
)

__all__ = [
    "BlockCompressor",
    "CompressedBlock",
    "CompressionError",
    "DecompressionError",
    "BDICompressor",
    "FPCCompressor",
    "CPackCompressor",
    "E2MCCompressor",
    "SymbolModel",
    "TrainingSet",
    "BPCCompressor",
    "as_block_bytes",
    "available_compressors",
    "get_compressor",
    "register_compressor",
    "scheme_latency",
    "SchemeInfo",
    "CompressionStats",
    "bursts_for_size",
    "effective_compressed_bytes",
    "effective_compression_ratio",
    "extra_bytes_above_mag",
    "geometric_mean",
    "raw_compression_ratio",
]
