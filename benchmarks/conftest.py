"""Shared settings for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures.  The full
paper-scale inputs would take hours in pure Python, so the benchmarks run the
complete pipeline at a reduced input scale (the same code path, fewer
blocks); pass ``--slc-scale`` to change it.
"""

from __future__ import annotations

import pytest

#: tolerance band recorded with every gated ``_quick`` metric: quick runs
#: are small and CI runners noisy, so they get a wider band than a
#: snapshot's default
QUICK_TOLERANCE = 0.5


def pytest_addoption(parser):
    parser.addoption(
        "--slc-scale",
        action="store",
        default=str(1.0 / 512.0),
        help="workload input scale used by the figure benchmarks",
    )
    parser.addoption(
        "--slc-workloads",
        action="store",
        default="",
        help="comma-separated subset of benchmarks (default: all nine)",
    )
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="smoke mode of the microbenchmarks (kernels, replay, lossless "
        "kernels, fidelity, distributed): fewer workloads, smaller inputs, "
        "relaxed floors; metrics are recorded with a _quick suffix (used by CI)",
    )
    parser.addoption(
        "--bench-record",
        action="store",
        default=None,
        metavar="PATH",
        help="merge measured GM speedups / job times into a recorded-metrics "
        "JSON consumable by 'repro bench check/snapshot --from'",
    )


@pytest.fixture(scope="session")
def slc_scale(request) -> float:
    """Workload input scale for the figure benchmarks."""
    return float(request.config.getoption("--slc-scale"))


@pytest.fixture(scope="session")
def quick(request) -> bool:
    """Whether the microbenchmarks run in CI smoke mode (``--quick``)."""
    return bool(request.config.getoption("--quick"))


@pytest.fixture(scope="session")
def bench_record(request):
    """Callable recording one measured metric for the perf-trajectory gate.

    A no-op unless ``--bench-record PATH`` was given.  Quick-mode callers
    suffix their metric names ``_quick`` themselves — quick and full
    measurements are not comparable, so they must never gate each other —
    and a gated ``_quick`` metric is recorded with :data:`QUICK_TOLERANCE`.
    """
    path = request.config.getoption("--bench-record")

    def _record(
        name: str,
        value: float,
        unit: str = "x",
        higher_is_better: bool = True,
        gate: bool = True,
    ) -> None:
        if path is None:
            return
        from repro.obs import trajectory

        trajectory.record(
            path, name, value, unit=unit,
            higher_is_better=higher_is_better, gate=gate,
            tolerance=QUICK_TOLERANCE if gate and name.endswith("_quick") else None,
        )

    return _record


@pytest.fixture(scope="session")
def slc_workloads(request) -> tuple[str, ...]:
    """Benchmarks the figure studies run (default: all nine, paper order)."""
    from repro.workloads.registry import PAPER_WORKLOAD_ORDER

    raw = request.config.getoption("--slc-workloads").strip()
    names = tuple(name.strip().upper() for name in raw.split(",") if name.strip())
    return names or PAPER_WORKLOAD_ORDER
