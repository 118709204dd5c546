#!/usr/bin/env python3
"""Explore the accuracy side of SLC: threshold sweep on one benchmark.

For a single benchmark this example sweeps the lossy threshold, simulates
TSLC-OPT at each setting, and prints the trade-off between the fraction of
blocks converted to the lossy path, the bandwidth saved and the application
error — the knob the paper exposes to the programmer through the extended
``cudaMalloc``.

Run with:  python examples/approximation_quality.py [--workload SRAD2] [--scale 0.004]
"""

from __future__ import annotations

import argparse

from repro.approx import annotate_regions
from repro.campaign import BASELINE_SCHEME, build_backend
from repro.gpu import GPUConfig, GPUSimulator
from repro.workloads import get_workload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", type=str, default="SRAD2")
    parser.add_argument("--scale", type=float, default=1.0 / 256.0)
    parser.add_argument(
        "--thresholds", type=str, default="0,4,8,16,24,32",
        help="comma-separated lossy thresholds in bytes",
    )
    args = parser.parse_args()
    thresholds = [int(t) for t in args.thresholds.split(",")]

    config = GPUConfig()
    simulator = GPUSimulator(config)

    # every run below simulates the same input: prepare it once
    prepared = simulator.prepare(get_workload(args.workload, scale=args.scale))
    registry = annotate_regions(prepared.input_regions, threshold_bytes=16)
    print(f"{args.workload}: {len(registry)} memory regions, "
          f"{registry.approximable_count()} annotated safe-to-approximate "
          f"(Table III lists {prepared.workload.approx_region_count} ARs at "
          "full scale)\n")

    baseline = simulator.run_prepared(
        prepared, build_backend(BASELINE_SCHEME, config), compute_error=False
    )
    print(f"E2MC baseline: {baseline.total_bursts} bursts, "
          f"{baseline.exec_time_s * 1e6:.1f} us simulated execution time\n")

    print(f"{'threshold':>9} {'lossy blocks':>13} {'traffic':>9} {'speedup':>8} {'error %':>9}")
    for threshold in thresholds:
        backend = build_backend("TSLC-OPT", config, lossy_threshold_bytes=threshold)
        result = simulator.run_prepared(prepared, backend, compute_error=True)
        print(
            f"{threshold:>7} B "
            f"{result.lossy_blocks:>10}/{result.stored_blocks:<5}"
            f"{result.bandwidth_ratio_over(baseline):>8.3f} "
            f"{result.speedup_over(baseline):>8.3f} "
            f"{result.error_percent:>9.4f}"
        )
    print("\nA threshold of 0 B disables the lossy path entirely (pure E2MC);")
    print("larger thresholds trade a little accuracy for fewer 32 B bursts.")


if __name__ == "__main__":
    main()
