#!/usr/bin/env python3
"""Reproduce the paper's motivation: Fig. 1 and Fig. 2.

Compresses every benchmark's memory image with BDI, FPC, C-PACK and E2MC,
reports the raw vs. effective (MAG-aware) compression ratios, and prints the
distribution of compressed block sizes above 32 B multiples that motivates
selective lossy compression.

Run with:  python examples/compression_ratio_study.py [--scale 0.004] [--workloads BS,NN]
"""

from __future__ import annotations

import argparse

from repro.studies import Fig1Study, Fig2Study, format_fig1, format_fig2
from repro.workloads.registry import PAPER_WORKLOAD_ORDER


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", type=float, default=1.0 / 256.0,
        help="workload input scale relative to the paper's input sizes",
    )
    parser.add_argument(
        "--workloads", type=str, default="",
        help="comma-separated benchmark subset (default: all nine)",
    )
    args = parser.parse_args()
    workloads = tuple(
        w.strip().upper() for w in args.workloads.split(",") if w.strip()
    ) or PAPER_WORKLOAD_ORDER

    print("Running Fig. 1 (raw vs. effective compression ratio)...\n")
    fig1_rows = Fig1Study(workloads=workloads, scale=args.scale).run().data
    print(format_fig1(fig1_rows))

    gm_rows = {row.compressor: row for row in fig1_rows if row.workload == "GM"}
    print("\nGeometric-mean loss of compression ratio due to MAG:")
    for name, row in gm_rows.items():
        print(f"  {name:<6} {row.effective_loss_percent:5.1f}% "
              f"(raw {row.raw_ratio:.2f}x -> effective {row.effective_ratio:.2f}x)")

    print("\nRunning Fig. 2 (distribution of compressed blocks above MAG)...\n")
    distribution = Fig2Study(workloads=workloads, scale=args.scale).run().data
    print(format_fig2(distribution))

    print("\nShare of blocks within the 16 B lossy threshold of a lower MAG multiple:")
    for name in distribution.per_workload:
        fraction = distribution.fraction_within_threshold(name, 16)
        print(f"  {name:<8} {fraction:6.1%}")


if __name__ == "__main__":
    main()
