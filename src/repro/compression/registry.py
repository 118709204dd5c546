"""Name-based registry of the lossless compressors.

The studies, the memory-controller backends and the examples look
compressors up by the short names used in the paper's figures ("bdi", "fpc",
"cpack", "e2mc", "bpc").  Each entry also carries the scheme's default
compress/decompress latencies in memory-controller cycles, so backends read
per-scheme numbers instead of hard-coding E2MC's everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.compression.base import BlockCompressor
from repro.compression.bdi import BDICompressor
from repro.compression.bpc import BPCCompressor
from repro.compression.cpack import CPackCompressor
from repro.compression.e2mc import E2MCCompressor
from repro.compression.fpc import FPCCompressor


@dataclass(frozen=True)
class SchemeInfo:
    """One registry entry: constructor plus per-scheme latency defaults."""

    factory: Callable[..., BlockCompressor]
    #: compression latency in memory-controller cycles (one 128 B block)
    compress_cycles: int
    #: decompression latency in memory-controller cycles
    decompress_cycles: int


_REGISTRY: dict[str, SchemeInfo] = {}


def register_compressor(
    name: str,
    factory: Callable[..., BlockCompressor],
    *,
    compress_cycles: int,
    decompress_cycles: int,
) -> None:
    """Register a compressor under a (case-insensitive) short name.

    Raises:
        ValueError: if the name is already taken — silently overwriting an
            existing scheme would let two campaigns address different
            compressors by the same name, corrupting cached results.
    """
    key = name.lower()
    if key in _REGISTRY:
        raise ValueError(
            f"compressor {name!r} is already registered "
            f"(available: {', '.join(available_compressors())}); "
            "pick a distinct name instead of overwriting"
        )
    _REGISTRY[key] = SchemeInfo(
        factory=factory,
        compress_cycles=int(compress_cycles),
        decompress_cycles=int(decompress_cycles),
    )


def available_compressors() -> list[str]:
    """Names of all registered lossless compressors."""
    return sorted(_REGISTRY)


def _scheme_info(name: str) -> SchemeInfo:
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown compressor {name!r}; available: {', '.join(available_compressors())}"
        )
    return _REGISTRY[key]


def get_compressor(name: str, **kwargs) -> BlockCompressor:
    """Instantiate a compressor by its short name.

    Args:
        name: one of :func:`available_compressors` (case-insensitive).
        **kwargs: forwarded to the compressor constructor
            (e.g. ``block_size_bytes``).
    """
    return _scheme_info(name).factory(**kwargs)


def scheme_latency(name: str) -> tuple[int, int]:
    """Default (compress, decompress) controller-cycle latencies of a scheme."""
    info = _scheme_info(name)
    return info.compress_cycles, info.decompress_cycles


# Latency defaults, in memory-controller cycles per 128 B block.  E2MC's are
# the numbers the paper simulates with (Section IV); the others are pipeline
# estimates from the original proposals scaled to a 128 B block: BDI
# compresses/decompresses through parallel subtractor arrays in 1-2 cycles
# (Pekhimenko et al., PACT 2012), FPC reports a 5-cycle decompression
# pipeline (Alameldeen & Wood), C-Pack processes two words per cycle — 32
# words make 16 cycles each way (Chen et al., TVLSI 2010) — and BPC takes
# roughly a dozen cycles through the DBP/DBX transform (Kim et al.,
# ISCA 2016).
register_compressor("bdi", BDICompressor, compress_cycles=2, decompress_cycles=1)
register_compressor("fpc", FPCCompressor, compress_cycles=8, decompress_cycles=5)
register_compressor("cpack", CPackCompressor, compress_cycles=16, decompress_cycles=16)
register_compressor("e2mc", E2MCCompressor, compress_cycles=46, decompress_cycles=20)
register_compressor("bpc", BPCCompressor, compress_cycles=12, decompress_cycles=10)

#: The four techniques compared quantitatively in Fig. 1 of the paper.
FIG1_COMPRESSORS = ("bdi", "fpc", "cpack", "e2mc")
