#!/usr/bin/env python3
"""Reproduce the paper's main evaluation: Fig. 7 and Fig. 8.

Simulates every benchmark on the GTX580-like GPU model under the E2MC
lossless baseline and the three TSLC variants (SIMP, PRED, OPT) with a 16 B
lossy threshold and 32 B MAG, then reports speedup, application error,
normalized off-chip traffic, energy and EDP.

Run with:  python examples/slc_speedup_study.py [--scale 0.004] [--workloads DCT,NN]
"""

from __future__ import annotations

import argparse

from repro.studies import Fig7Study, fig8_rows, format_fig7, format_fig8
from repro.workloads.registry import PAPER_WORKLOAD_ORDER


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0 / 256.0)
    parser.add_argument("--workloads", type=str, default="")
    parser.add_argument(
        "--threshold", type=int, default=16, help="lossy threshold in bytes"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes for the sweep"
    )
    parser.add_argument(
        "--store", type=str, default=None,
        help="campaign directory; re-runs serve cached cells from here",
    )
    args = parser.parse_args()
    workloads = tuple(
        w.strip().upper() for w in args.workloads.split(",") if w.strip()
    ) or PAPER_WORKLOAD_ORDER

    print("Simulating all benchmarks under E2MC and TSLC-SIMP/PRED/OPT...\n")
    result = Fig7Study(
        workloads=workloads,
        lossy_threshold_bytes=args.threshold,
        scale=args.scale,
    ).run(store=args.store, workers=args.workers)
    print(format_fig7(result.data["rows"]))

    # Fig. 8 reduces the same simulations: no second sweep
    study = result.data["study"]
    print()
    print(format_fig8(fig8_rows(study)))

    print("\nGeometric means (TSLC-OPT vs. E2MC):")
    print(f"  speedup            {study.geomean('speedup', 'TSLC-OPT'):.3f}x")
    print(f"  off-chip traffic   {study.geomean('bandwidth', 'TSLC-OPT'):.3f}x")
    print(f"  energy             {study.geomean('energy', 'TSLC-OPT'):.3f}x")
    print(f"  EDP                {study.geomean('edp', 'TSLC-OPT'):.3f}x")
    print(
        "\nPaper reference: ~1.10x GM speedup, ~0.86x traffic, ~0.92x energy, "
        "~0.83x EDP at this threshold and MAG."
    )


if __name__ == "__main__":
    main()
