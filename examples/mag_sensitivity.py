#!/usr/bin/env python3
"""Reproduce Fig. 9 and Section V-C: SLC's sensitivity to the MAG.

Runs TSLC-OPT with memory access granularities of 16, 32 and 64 B (lossy
threshold = MAG/2) and reports the per-benchmark speedups and errors, plus
the E2MC effective compression ratio at each MAG.

Run with:  python examples/mag_sensitivity.py [--scale 0.004] [--workloads NN,TP]
"""

from __future__ import annotations

import argparse

from repro.studies import Fig9Study, effective_ratio_by_mag, format_fig9
from repro.workloads.registry import PAPER_WORKLOAD_ORDER


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0 / 256.0)
    parser.add_argument("--workloads", type=str, default="")
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes for each MAG sweep"
    )
    parser.add_argument(
        "--store", type=str, default=None,
        help="campaign directory; re-runs serve cached cells from here",
    )
    args = parser.parse_args()
    workloads = tuple(
        w.strip().upper() for w in args.workloads.split(",") if w.strip()
    ) or PAPER_WORKLOAD_ORDER

    print("Section V-C: E2MC compression ratio vs. MAG\n")
    ratios = effective_ratio_by_mag(workloads, scale=args.scale)
    for mag in sorted(ratios):
        print(
            f"  MAG {mag:>3} B: raw GM {ratios[mag]['raw']:.2f}x, "
            f"effective GM {ratios[mag]['effective']:.2f}x"
        )
    print("  (paper: raw 1.54x; effective 1.41 / 1.31 / 1.16 for 16 / 32 / 64 B)\n")

    print("Fig. 9: TSLC-OPT across MAGs (threshold = MAG/2)...\n")
    result = Fig9Study(workloads=workloads, scale=args.scale).run(
        store=args.store, workers=args.workers
    )
    print(format_fig9(result.data["rows"]))

    print("\nGeometric-mean speedups:")
    for mag, study in result.data["studies"].items():
        print(f"  MAG {mag:>3} B: {study.geomean('speedup', 'TSLC-OPT'):.3f}x")
    print("  (paper: 1.05 / 1.097 / 1.09 for 16 / 32 / 64 B)")


if __name__ == "__main__":
    main()
