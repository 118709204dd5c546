"""Evenly-spaced sampling helpers (the E2MC online-sampling stand-in)."""

from __future__ import annotations

from typing import Sequence, TypeVar

T = TypeVar("T")


def sample_indices(n: int, target: int) -> list[int]:
    """Indices of up to ``target`` items spread evenly across ``n`` items."""
    if target <= 0:
        raise ValueError("target must be positive")
    if n <= target:
        return list(range(n))
    stride = n / target
    return [int(i * stride) for i in range(target)]


def sample_evenly(items: Sequence[T], target: int) -> list[T]:
    """Return up to ``target`` items spread evenly across ``items``.

    Used to build the E2MC/SLC symbol-frequency table from a subset of a
    workload's blocks, mirroring the paper's online sampling window while
    keeping simulation cost bounded for very large inputs.
    """
    return [items[i] for i in sample_indices(len(items), target)]
