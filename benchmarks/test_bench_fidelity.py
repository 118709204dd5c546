"""BENCH-F — throughput of the statistical fidelity metric kernels.

Times one full :func:`repro.metrics.fidelity.fidelity_panel` evaluation
(Pearson + two-sample KS + IQR-normalized errors) over a large synthetic
exact/approx pair and reports element throughput.  The fidelity study
evaluates the panel for every lossy grid cell, so the panel must stay
vectorized — a per-element regression would dominate small-scale sweeps.

Full mode times a ~4M-element pair; ``--quick`` is the CI smoke
mode (1M elements, relaxed floor).  The measured throughput is recorded
``gate=False`` — it is an absolute, machine-dependent number, useful as a
trajectory but meaningless to gate across runner generations.
"""

from __future__ import annotations

import time

import numpy as np

from repro.metrics.fidelity import fidelity_panel

#: elements in the synthetic pair (full / quick mode)
FULL_ELEMS = 4 * 1024 * 1024
QUICK_ELEMS = 1024 * 1024

#: sanity floors in Melem/s — a vectorized panel clears these by an order
#: of magnitude; only a fallback into per-element Python could miss them
FULL_FLOOR = 1.0
QUICK_FLOOR = 0.5


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_fidelity_panel_throughput(benchmark, quick, bench_record):
    """fidelity_panel throughput over a noisy synthetic pair."""
    n = QUICK_ELEMS if quick else FULL_ELEMS
    floor = QUICK_FLOOR if quick else FULL_FLOOR
    rng = np.random.default_rng(2019)
    exact = rng.normal(size=n).astype(np.float32)
    approx = exact + rng.normal(scale=0.01, size=n).astype(np.float32)

    best_s = _time(lambda: fidelity_panel(exact, approx))
    melems = n / best_s / 1e6
    print(
        f"\nBENCH-F — fidelity panel over {n / 1e6:.0f}M elements: "
        f"{best_s * 1e3:.1f} ms, {melems:.1f} Melem/s (floor {floor} Melem/s)"
    )
    suffix = "_quick" if quick else ""
    bench_record(
        f"fidelity_melems_per_s{suffix}", melems, unit="Melem/s", gate=False
    )

    benchmark.pedantic(lambda: fidelity_panel(exact, approx), rounds=3, iterations=1)

    assert melems >= floor, (
        f"fidelity panel only {melems:.2f} Melem/s (floor {floor}) — "
        "did a metric fall back to per-element Python?"
    )
