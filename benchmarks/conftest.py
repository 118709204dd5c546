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
        "--kernels-quick",
        action="store_true",
        default=False,
        help="kernels microbenchmark smoke mode: fewer workloads, relaxed "
        "speedup floor (used by CI)",
    )
    parser.addoption(
        "--replay-quick",
        action="store_true",
        default=False,
        help="replay microbenchmark smoke mode: fewer workloads, smaller "
        "traces, relaxed speedup floor (used by CI)",
    )
    parser.addoption(
        "--tournament-quick",
        action="store_true",
        default=False,
        help="lossless-kernels microbenchmark smoke mode: fewer workloads, "
        "relaxed speedup floor (used by CI)",
    )
    parser.addoption(
        "--distributed-quick",
        action="store_true",
        default=False,
        help="distributed-campaign benchmark smoke mode: tiny grid, "
        "loopback coordinator + thread workers (used by CI)",
    )
    parser.addoption(
        "--fidelity-quick",
        action="store_true",
        default=False,
        help="fidelity metric-kernel benchmark smoke mode: smaller arrays, "
        "relaxed throughput floor (used by CI)",
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
def kernels_quick(request) -> bool:
    """Whether the kernels microbenchmark runs in CI smoke mode."""
    return bool(request.config.getoption("--kernels-quick"))


@pytest.fixture(scope="session")
def replay_quick(request) -> bool:
    """Whether the replay microbenchmark runs in CI smoke mode."""
    return bool(request.config.getoption("--replay-quick"))


@pytest.fixture(scope="session")
def tournament_quick(request) -> bool:
    """Whether the lossless-kernels microbenchmark runs in CI smoke mode."""
    return bool(request.config.getoption("--tournament-quick"))


@pytest.fixture(scope="session")
def distributed_quick(request) -> bool:
    """Whether the distributed-campaign benchmark runs in CI smoke mode."""
    return bool(request.config.getoption("--distributed-quick"))


@pytest.fixture(scope="session")
def fidelity_quick(request) -> bool:
    """Whether the fidelity metric-kernel benchmark runs in CI smoke mode."""
    return bool(request.config.getoption("--fidelity-quick"))


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
